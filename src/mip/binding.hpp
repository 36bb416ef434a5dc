#pragma once

#include <cstdint>
#include <optional>

#include "net/address.hpp"
#include "sim/int_map.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// A mobility binding: a stable address (the RCoA) currently maps to a
/// care-of address, until `expires`. A simultaneous binding (§3.1.1) adds
/// a secondary care-of address with its own expiry; traffic is bicast to
/// it while the primary binding is live.
struct BindingEntry {
  Address coa;      // invalid when only a secondary binding was registered
  SimTime expires;
  Address secondary;  // invalid when none
  SimTime secondary_expires;

  /// The secondary care-of address, if one is bound and live at `now`.
  std::optional<Address> live_secondary(SimTime now) const;
};

/// The MAP binding cache (§2.2.1). Lookup is lazy-expiring.
class BindingCache {
 public:
  /// Ordinary registration: binds the primary care-of address and clears
  /// any secondary one. A zero lifetime deregisters the whole binding.
  void update(Address key, Address coa, SimTime now, SimTime lifetime);
  /// Simultaneous registration: binds only the secondary care-of address.
  /// A zero lifetime removes just the secondary binding.
  void update_secondary(Address key, Address coa, SimTime now,
                        SimTime lifetime);
  void remove(Address key);

  /// Returns the binding if its primary care-of address is live. The
  /// pointer is valid until the next update or remove.
  const BindingEntry* find(Address key, SimTime now) const;
  /// Returns the care-of address if a live binding exists.
  std::optional<Address> lookup(Address key, SimTime now) const;

  std::size_t size() const { return entries_.size(); }

 private:
  IntMap<std::uint64_t, BindingEntry> entries_;
};

}  // namespace fhmip
