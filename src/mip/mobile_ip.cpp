#include "mip/mobile_ip.hpp"

namespace fhmip {

MobileIpClient::MobileIpClient(Node& node, Address regional_addr,
                               Address map_addr)
    : node_(node), regional_(regional_addr), map_(map_addr) {
  ctrl_id_ = node_.add_control_handler(
      [this](PacketPtr& p) { return handle_control(p); });
}

MobileIpClient::~MobileIpClient() { node_.remove_control_handler(ctrl_id_); }

void MobileIpClient::send_binding_update(Address lcoa, SimTime lifetime) {
  BindingUpdateMsg bu;
  bu.mh = node_.id();
  bu.regional = regional_;
  bu.lcoa = lcoa;
  bu.lifetime = lifetime;
  ++updates_sent_;
  // Baseline MIP: a lost BU is recovered by the periodic lifetime-driven
  // refresh, not a per-message timer. NOLINT-FHMIP(PROTO-01)
  node_.send(make_control(node_.sim(), lcoa, map_, bu));
}

void MobileIpClient::send_simultaneous_binding(Address lcoa,
                                               SimTime lifetime) {
  BindingUpdateMsg bu;
  bu.mh = node_.id();
  bu.regional = regional_;
  bu.lcoa = lcoa;
  bu.lifetime = lifetime;
  bu.simultaneous = true;
  ++updates_sent_;
  // Sent from the *current* address; the new LCoA is not usable yet.
  // Simultaneous binding is an optimization: loss degrades to the plain
  // handover path, recovered at the next refresh. NOLINT-FHMIP(PROTO-01)
  node_.send(make_control(node_.sim(), regional_, map_, bu));
}

bool MobileIpClient::handle_control(PacketPtr& p) {
  const auto* ack = std::get_if<BindingAckMsg>(&p->msg);
  if (ack == nullptr || ack->mh != node_.id()) return false;
  ++acks_received_;
  if (on_binding_ack_) on_binding_ack_();
  return true;
}

}  // namespace fhmip
