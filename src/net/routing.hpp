#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "sim/int_map.hpp"

namespace fhmip {

class SimplexLink;

/// A routing-table entry. Exactly one of the members is meaningful:
///  * `link`    — forward over this outgoing link;
///  * `handler` — hand the packet to a protocol hook (MAP interception, AR
///                delivery/handoff redirection, host routes for PCoA, ...).
struct Route {
  SimplexLink* link = nullptr;
  std::function<void(PacketPtr)> handler;

  static Route via(SimplexLink& l) { return Route{&l, nullptr}; }
  static Route to(std::function<void(PacketPtr)> h) {
    return Route{nullptr, std::move(h)};
  }
  bool valid() const { return link != nullptr || handler != nullptr; }
};

/// Longest-prefix-first lookup over our two-level address space:
/// host routes (full address) beat prefix routes (net) beat the default.
class RoutingTable {
 public:
  void set_prefix_route(std::uint32_t net, Route r) {
    put(prefix_, net, std::move(r));
  }
  void set_host_route(Address a, Route r) { put(host_, a.key(), std::move(r)); }
  void remove_host_route(Address a) { host_.erase(a.key()); }
  void remove_prefix_route(std::uint32_t net) { prefix_.erase(net); }
  void set_default_route(Route r) { default_ = std::move(r); }
  void clear_prefix_routes() { prefix_.clear(); }

  bool has_host_route(Address a) const { return host_.contains(a.key()); }

  /// Returns nullptr when no route matches. Most tables hold no host route,
  /// so their lookups skip that probe.
  const Route* lookup(Address dst) const {
    if (!host_.empty()) {
      if (const auto* r = host_.find(dst.key())) return r->get();
    }
    if (const auto* r = prefix_.find(dst.net)) return r->get();
    return default_.valid() ? &default_ : nullptr;
  }

  std::size_t num_host_routes() const { return host_.size(); }
  std::size_t num_prefix_routes() const { return prefix_.size(); }

  /// Dump for debugging/tests: one `kind key -> target` line per route,
  /// host routes first, each section sorted by key. The tables iterate in
  /// hash-slot order (lookup is the hot path), so the dump takes a sorted
  /// snapshot — output is independent of insertion order and hash layout
  /// (DET-02).
  std::string format_table() const;

 private:
  // Each Route lives on the heap, so growing or erasing from a table never
  // moves one — not even the handler that is running while it edits them.
  template <typename Table, typename K>
  static void put(Table& t, K key, Route r) {
    std::unique_ptr<Route>& slot = t[key];
    if (slot) {
      *slot = std::move(r);
    } else {
      slot = std::make_unique<Route>(std::move(r));
    }
  }

  IntMap<std::uint64_t, std::unique_ptr<Route>> host_;
  IntMap<std::uint32_t, std::unique_ptr<Route>> prefix_;
  // An invalid Route (no link, no handler) means "no default". Plain member
  // rather than std::optional: optional<Route>'s move-assign trips GCC 12's
  // -Wmaybe-uninitialized through the std::function payload under -O2.
  Route default_;
};

}  // namespace fhmip
