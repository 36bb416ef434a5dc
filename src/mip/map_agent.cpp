#include "mip/map_agent.hpp"

namespace fhmip {

MapAgent::MapAgent(Node& node) : node_(node) {
  // Intercept everything in the regional prefix that is not the MAP itself.
  node_.routes().set_prefix_route(
      regional_prefix(),
      Route::to([this](PacketPtr p) { intercept(std::move(p)); }));
  ctrl_id_ = node_.add_control_handler(
      [this](PacketPtr& p) { return handle_control(p); });
}

MapAgent::~MapAgent() {
  node_.routes().remove_prefix_route(regional_prefix());
  node_.remove_control_handler(ctrl_id_);
}

void MapAgent::intercept(PacketPtr p) {
  Simulation& sim = node_.sim();
  const BindingEntry* binding = bindings_.find(p->dst, sim.now());
  if (binding == nullptr) {
    sim.drop(std::move(p), DropReason::kNoRoute, node_.name().c_str());
    return;
  }
  const Address coa = binding->coa;
  // Simultaneous binding: bicast a copy toward the secondary care-of
  // address (the duplicate does not count as a fresh `sent`).
  if (const auto second = binding->live_secondary(sim.now())) {
    auto copy = p->clone(sim.next_uid());
    copy->encapsulate(*second);
    ++bicast_;
    trace_packet(sim, TraceKind::kCreate, node_.name().c_str(), *copy);
    node_.send(std::move(copy));
  }
  ++tunneled_;
  p->encapsulate(coa);
  node_.send(std::move(p));
}

bool MapAgent::handle_control(PacketPtr& p) {
  const auto* bu = std::get_if<BindingUpdateMsg>(&p->msg);
  if (bu == nullptr) return false;
  Simulation& sim = node_.sim();
  ++updates_;
  if (bu->simultaneous) {
    bindings_.update_secondary(bu->regional, bu->lcoa, sim.now(),
                               bu->lifetime);
  } else {
    bindings_.update(bu->regional, bu->lcoa, sim.now(), bu->lifetime);
  }
  BindingAckMsg ack;
  ack.mh = bu->mh;
  ack.accepted = true;
  // Reply to the LCoA so the ack reaches the host at its new location even
  // before any other state converges.
  node_.send(make_control(sim, address(), bu->lcoa, ack));
  return true;
}

}  // namespace fhmip
