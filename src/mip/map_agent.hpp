#pragma once

#include <cstdint>

#include "mip/binding.hpp"
#include "net/node.hpp"

namespace fhmip {

/// Hierarchical MIPv6 Mobility Anchor Point (§2.2). The MAP owns the
/// regional prefix: packets addressed to a mobile host's regional address
/// (RCoA-style) are intercepted here, looked up in the binding cache and
/// tunneled (IPv6 encapsulation) to the host's current on-link care-of
/// address (LCoA). Binding updates from mobile hosts refresh the cache.
class MapAgent {
 public:
  explicit MapAgent(Node& node);
  ~MapAgent();

  MapAgent(const MapAgent&) = delete;
  MapAgent& operator=(const MapAgent&) = delete;

  Node& node() { return node_; }
  Address address() const { return node_.address(); }
  std::uint32_t regional_prefix() const { return node_.address().net; }

  /// Primary and secondary (simultaneous binding, §3.1.1) bindings: with
  /// a live secondary, intercepted packets are bicast to both care-of
  /// addresses.
  BindingCache& bindings() { return bindings_; }

  std::uint64_t packets_tunneled() const { return tunneled_; }
  std::uint64_t packets_bicast() const { return bicast_; }
  std::uint64_t binding_updates() const { return updates_; }

 private:
  void intercept(PacketPtr p);
  bool handle_control(PacketPtr& p);

  Node& node_;
  Node::ControlHandlerId ctrl_id_ = 0;
  BindingCache bindings_;
  std::uint64_t tunneled_ = 0;
  std::uint64_t bicast_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace fhmip
