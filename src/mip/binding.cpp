#include "mip/binding.hpp"

namespace fhmip {

void BindingCache::update(Address key, Address coa, SimTime now,
                          SimTime lifetime) {
  if (lifetime.is_zero()) {
    remove(key);  // lifetime 0 = deregistration (§2.1.1 stage 4)
    return;
  }
  entries_[key.key()] = BindingEntry{coa, now + lifetime};
}

void BindingCache::remove(Address key) { entries_.erase(key.key()); }

std::optional<Address> BindingCache::lookup(Address key, SimTime now) const {
  auto it = entries_.find(key.key());
  if (it == entries_.end() || it->second.expires <= now) return std::nullopt;
  return it->second.coa;
}

}  // namespace fhmip
