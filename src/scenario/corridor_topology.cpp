#include "scenario/corridor_topology.hpp"

#include "scenario/paper_topology.hpp"  // nets::

namespace fhmip {

CorridorTopology::CorridorTopology(const CorridorConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed) {
  net_ = std::make_unique<Network>(sim_);
  cn_ = &net_->add_node("cn");
  gw_ = &net_->add_node("gw");
  map_ = &net_->add_node("map");
  cn_->add_address({nets::kCn, 1});
  gw_->add_address({nets::kGw, 1});
  map_->add_address({nets::kMap, 1});
  net_->connect(*cn_, *gw_, cfg.cn_gw_mbps * 1e6, cfg.cn_gw_delay,
                cfg.queue_limit);
  net_->connect(*gw_, *map_, cfg.gw_map_mbps * 1e6, cfg.gw_map_delay,
                cfg.queue_limit);

  for (int i = 0; i < cfg.num_ars; ++i) {
    Node& ar = net_->add_node("ar" + std::to_string(i + 1));
    ar.add_address({nets::kPar + static_cast<std::uint32_t>(i) * 10, 1});
    net_->connect(*map_, ar, cfg.map_ar_mbps * 1e6, cfg.map_ar_delay,
                  cfg.queue_limit);
    if (i > 0) {
      net_->connect(*ars_.back(), ar, cfg.ar_ar_mbps * 1e6, cfg.ar_ar_delay,
                    cfg.queue_limit);
    }
    ars_.push_back(&ar);
  }
  mh_ = &net_->add_node("mh");
  net_->compute_routes();

  map_agent_ = std::make_unique<MapAgent>(*map_);
  for (Node* ar : ars_) {
    ar_agents_.push_back(std::make_unique<ArAgent>(*ar, cfg.scheme, cfg.rtx));
  }

  wlan_ = std::make_unique<WlanManager>(sim_, cfg.wlan);
  for (std::size_t i = 0; i < ars_.size(); ++i) {
    wlan_->add_ap(*ars_[i],
                  Vec2{cfg.ap_spacing_m * static_cast<double>(i), 0},
                  cfg.ap_radius_m, ar_agents_[i].get());
  }
  auto resolver = [this](NodeId ap) -> Node* {
    AccessPoint* a = wlan_->ap(ap);
    return a == nullptr ? nullptr : &a->ar_node();
  };
  for (auto& agent : ar_agents_) agent->set_ap_resolver(resolver);

  regional_ = Address{nets::kMap, mh_->id()};
  mh_->add_address(regional_, /*advertised=*/false);
  mip_ = std::make_unique<MobileIpClient>(*mh_, regional_, map_->address());
  MhAgent::Config mh_cfg;
  mh_cfg.scheme = cfg.scheme;
  mh_cfg.use_fast_handover = cfg.use_fast_handover;
  mh_cfg.request_buffers = cfg.request_buffers;
  mh_cfg.rtx = cfg.rtx;
  mh_agent_ = std::make_unique<MhAgent>(*mh_, mh_cfg, mip_.get());
  wlan_->add_mh(*mh_,
                std::make_unique<LinearMobility>(
                    Vec2{0, 0}, Vec2{cfg.speed_mps, 0}, cfg.mobility_start),
                mh_agent_.get());
}

void CorridorTopology::start() { wlan_->start(); }

SimTime CorridorTopology::walk_duration() const {
  return SimTime::from_seconds(cfg_.ap_spacing_m * (cfg_.num_ars - 1) /
                               cfg_.speed_mps);
}

}  // namespace fhmip
