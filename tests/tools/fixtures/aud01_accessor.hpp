#pragma once
// AUD-01 fixture: a reference or pointer handed out by a member accessor
// of a member table aliases that member. Positives write through
// `Host& h = host(k)` and `Host* h = find_host(k)` (whose non-const
// overload defers to the const one that reads hosts_); negatives read
// through a const pointer, write through what an accessor of no field
// returns, or only read through a non-const handle.

namespace fix {

class HostIndex {
 public:
  struct Host {
    int* downlink = nullptr;
    int count = 0;
  };

  void check() const { FHMIP_AUDIT("fix", !hosts_.empty()); }

  void attach(int k, int* d) {
    Host& h = host(k);
    h.downlink = d;
  }

  void detach(int k) {
    if (Host* h = find_host(k); h != nullptr) h->downlink = nullptr;
  }

  int peek(int k) {
    const Host* h = find_host(k);
    return h == nullptr ? 0 : h->count;
  }

  void scribble() {
    Host& s = spare();
    s.count = 1;
  }

  bool attached(int k) {
    Host* h = find_host(k);
    return h != nullptr && h->downlink != nullptr;
  }

 private:
  const Host* find_host(int k) const;
  Host* find_host(int k) {
    return const_cast<Host*>(static_cast<const HostIndex*>(this)
                                 ->find_host(k));
  }
  Host& host(int k) { return hosts_[k]; }
  static Host& spare() {
    static Host s;
    return s;
  }

  std::map<int, Host> hosts_;
};

const HostIndex::Host* HostIndex::find_host(int k) const {
  auto it = hosts_.find(k);
  return it == hosts_.end() ? nullptr : &it->second;
}

}  // namespace fix
