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
  BindingEntry* e = entries_.find(key.key());
  if (e == nullptr) return;
  if (!e->coa.valid()) {
    entries_.erase(key.key());  // nothing but the secondary was bound
    return;
  }
  e->secondary = Address{};
}

void BindingCache::remove(Address key) { entries_.erase(key.key()); }

const BindingEntry* BindingCache::find(Address key, SimTime now) const {
  const BindingEntry* e = entries_.find(key.key());
  return e == nullptr || e->expires <= now ? nullptr : e;
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
