#pragma once
// AUD-01 fixture: writes through a local reference bound to a field count
// as writes to that field. Positives write through `T&` bound to
// field[...], `auto&` bound to field.at(...) and `auto&` bound to the
// field itself; negatives only read through a const reference, only read
// through a non-const one, or write through a reference to a local.

namespace fix {

class HostTable {
 public:
  struct Host {
    int* downlink = nullptr;
    int count = 0;
  };

  void check() const { FHMIP_AUDIT("fix", !hosts_.empty()); }

  void attach(int k, int* d) {
    Host& h = hosts_[k];
    h.downlink = d;
  }

  void bump(int k) {
    auto& h = hosts_.at(k);
    ++h.count;
  }

  void wipe() {
    auto& all = hosts_;
    all.clear();
  }

  int peek(int k) {
    const Host& h = hosts_.at(k);
    return h.count;
  }

  bool attached(int k) {
    Host& h = hosts_[k];
    return h.downlink != nullptr;
  }

  void local_only() {
    Host local;
    Host& h = local;
    h.count = 1;
  }

 private:
  std::map<int, Host> hosts_;
};

}  // namespace fix
