#include "mip/binding.hpp"

namespace fhmip {

void BindingCache::update(Address key, Address coa, SimTime now,
                          SimTime lifetime) {
  if (lifetime.is_zero()) {
    remove(key);  // lifetime 0 = deregistration (§2.1.1 stage 4)
    return;
  }
  // An ordinary registration replaces any simultaneous (secondary) one.
  entries_[key.key()] = BindingEntry{coa, now + lifetime, {}, {}};
}

void BindingCache::update_secondary(Address key, Address coa, SimTime now,
                                    SimTime lifetime) {
  if (!lifetime.is_zero()) {
    BindingEntry& e = entries_[key.key()];
    e.secondary = coa;
    e.secondary_expires = now + lifetime;
    return;
  }
  auto it = entries_.find(key.key());
  if (it == entries_.end()) return;
  if (!it->second.coa.valid()) {
    entries_.erase(it);  // nothing but the secondary was bound
    return;
  }
  it->second.secondary = Address{};
}

void BindingCache::remove(Address key) { entries_.erase(key.key()); }

const BindingEntry* BindingCache::find(Address key, SimTime now) const {
  auto it = entries_.find(key.key());
  if (it == entries_.end() || it->second.expires <= now) return nullptr;
  return &it->second;
}

std::optional<Address> BindingCache::lookup(Address key, SimTime now) const {
  const BindingEntry* e = find(key, now);
  if (e == nullptr) return std::nullopt;
  return e->coa;
}

std::optional<Address> BindingEntry::live_secondary(SimTime now) const {
  if (!secondary.valid() || secondary_expires <= now) return std::nullopt;
  return secondary;
}

}  // namespace fhmip
