#pragma once

#include <optional>
#include <unordered_map>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// A mobility binding: a stable address (the RCoA) currently maps to a
/// care-of address, until `expires`.
struct BindingEntry {
  Address coa;
  SimTime expires;
};

/// The MAP binding cache (§2.2.1). Lookup is lazy-expiring.
class BindingCache {
 public:
  void update(Address key, Address coa, SimTime now, SimTime lifetime);
  void remove(Address key);

  /// Returns the care-of address if a live binding exists.
  std::optional<Address> lookup(Address key, SimTime now) const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::uint64_t, BindingEntry> entries_;
};

}  // namespace fhmip
