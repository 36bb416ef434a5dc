#pragma once
// DET-02 fixture for the open-addressed IntMap: it iterates in hash-slot
// order, so feeding output from that iteration is hash-layout dependent
// like any unordered container. Covers the positive, the inline-suppressed
// twin, and the sorted-snapshot idiom.

namespace fix {

class SlotOrderDumper {
 public:
  void dump() {
    for (const auto& slot : routes_) {
      lines_.push_back(slot.key);
    }
  }
  void dump_suppressed() {
    for (const auto& slot : routes_) {  // NOLINT-FHMIP(DET-02)
      lines_.push_back(slot.key);
    }
  }
  void dump_sorted() {
    std::vector<std::uint64_t> keys;
    for (const auto& slot : routes_) {
      keys.push_back(slot.key);
    }
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t k : keys) {
      lines_.push_back(k);
    }
  }

 private:
  IntMap<std::uint64_t, int> routes_;
  std::vector<std::uint64_t> lines_;
};

}  // namespace fix
