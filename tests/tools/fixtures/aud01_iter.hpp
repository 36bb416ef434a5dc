#pragma once
// AUD-01 fixture: writes through an iterator taken from a field count as
// writes to that field. Positives write through iterators from find,
// begin and lower_bound, and through a reference bound to an iterator's
// element; negatives only read through an iterator, only move one, or
// hold a const_iterator.

namespace fix {

class LeaseTable {
 public:
  struct Lease {
    int* link = nullptr;
    int count = 0;
  };

  void check() const { FHMIP_AUDIT("fix", !leases_.empty()); }

  void detach(int k) {
    auto it = leases_.find(k);
    if (it == leases_.end()) return;
    it->second.link = nullptr;
  }

  void bump_first() {
    std::map<int, Lease>::iterator it = leases_.begin();
    ++it->second.count;
  }

  void clear_from(int k) {
    const auto it = leases_.lower_bound(k);
    Lease& l = it->second;
    l.count = 0;
  }

  int total() {
    int sum = 0;
    for (auto it = leases_.begin(); it != leases_.end(); ++it) {
      sum += it->second.count;
    }
    return sum;
  }

  bool linked(int k) {
    auto it = leases_.find(k);
    return it != leases_.end() && it->second.link != nullptr;
  }

  int first_count() {
    std::map<int, Lease>::const_iterator it = leases_.begin();
    return it->second.count;
  }

 private:
  std::map<int, Lease> leases_;
};

}  // namespace fix
