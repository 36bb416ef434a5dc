#pragma once

#include <cstdint>
#include <functional>

#include "net/node.hpp"

namespace fhmip {

/// Mobile-host-side mobility client: sends binding updates (HMIPv6 local
/// registration with the MAP) and tracks their acknowledgements.
class MobileIpClient {
 public:
  MobileIpClient(Node& node, Address regional_addr, Address map_addr);
  ~MobileIpClient();

  MobileIpClient(const MobileIpClient&) = delete;
  MobileIpClient& operator=(const MobileIpClient&) = delete;

  /// Binds the regional address to `lcoa` at the MAP (§2.2.1 step 4).
  void send_binding_update(Address lcoa, SimTime lifetime);

  /// Adds `lcoa` as a secondary (bicast) binding — simultaneous binding,
  /// §3.1.1. Cleared by the next ordinary binding update.
  void send_simultaneous_binding(Address lcoa, SimTime lifetime);

  void set_on_binding_ack(std::function<void()> cb) {
    on_binding_ack_ = std::move(cb);
  }

  Address regional() const { return regional_; }
  std::uint32_t updates_sent() const { return updates_sent_; }
  std::uint32_t acks_received() const { return acks_received_; }
  bool bound() const { return acks_received_ > 0; }

 private:
  bool handle_control(PacketPtr& p);

  Node& node_;
  Node::ControlHandlerId ctrl_id_ = 0;
  Address regional_;
  Address map_;
  std::function<void()> on_binding_ack_;
  std::uint32_t updates_sent_ = 0;
  std::uint32_t acks_received_ = 0;
};

}  // namespace fhmip
