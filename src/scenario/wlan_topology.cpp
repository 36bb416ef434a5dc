#include "scenario/wlan_topology.hpp"

#include "scenario/paper_topology.hpp"  // nets::

namespace fhmip {

WlanTopology::WlanTopology(const WlanTopologyConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed) {
  net_ = std::make_unique<Network>(sim_);
  cn_ = &net_->add_node("cn");
  r_ = &net_->add_node("r");
  ar_ = &net_->add_node("ar");
  mh_ = &net_->add_node("mh");

  cn_->add_address({nets::kCn, 1});
  r_->add_address({nets::kGw, 1});
  ar_->add_address({nets::kPar, 1});

  net_->connect(*cn_, *r_, cfg.cn_r_mbps * 1e6, cfg.cn_r_delay,
                cfg.queue_limit);
  net_->connect(*r_, *ar_, cfg.r_ar_mbps * 1e6, cfg.r_ar_delay,
                cfg.queue_limit);
  net_->compute_routes();

  ar_agent_ = std::make_unique<ArAgent>(*ar_, cfg.scheme, cfg.rtx);

  wlan_ = std::make_unique<WlanManager>(sim_, cfg.wlan);
  // Both APs under the same AR; the MH sits where both cover it so the
  // handoffs are purely protocol-driven (force_handoff).
  ap1_ = &wlan_->add_ap(*ar_, Vec2{0, 0}, 120, ar_agent_.get());
  ap2_ = &wlan_->add_ap(*ar_, Vec2{60, 0}, 120, ar_agent_.get());

  MhAgent::Config mh_cfg;
  mh_cfg.scheme = cfg.scheme;
  mh_cfg.use_fast_handover = cfg.use_fast_handover;
  mh_cfg.request_buffers = cfg.request_buffers;
  mh_cfg.rtx = cfg.rtx;

  mh_->add_address(mh_coa(), /*advertised=*/false);
  mh_agent_ = std::make_unique<MhAgent>(*mh_, mh_cfg, /*mip=*/nullptr);
  wlan_->add_mh(*mh_, std::make_unique<StaticPosition>(Vec2{10, 0}),
                mh_agent_.get());
}

Address WlanTopology::mh_coa() const {
  return make_coa(nets::kPar, mh_->id());
}

void WlanTopology::start() { wlan_->start(); }

void WlanTopology::schedule_handoff(SimTime at) {
  // The anticipation trigger (L2-ST fires at start because both APs cover
  // the MH) has already primed the RtSolPr+BI exchange; force the switch.
  // The target AP is resolved at fire time so repeated calls alternate.
  // sim_ is a member of *this: pending events die (unrun) with the topology,
  // so the this-capture cannot dangle.
  sim_.at(at, [this] {  // NOLINT-FHMIP(LIFE-01)
    const NodeId cur = wlan_->attached_ap(mh_->id());
    const NodeId target = cur == ap1_->id() ? ap2_->id() : ap1_->id();
    wlan_->force_handoff(mh_->id(), target, sim_.now());
  });
}

}  // namespace fhmip
