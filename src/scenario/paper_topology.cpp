#include "scenario/paper_topology.hpp"

#include <string>

namespace fhmip {
namespace {

// Fig 4.1's two routers keep the paper's names; a longer line numbers them.
std::string ar_name(int i, int num_ars) {
  if (num_ars == 2) return i == 0 ? "par" : "nar";
  return "ar" + std::to_string(i + 1);
}

}  // namespace

MobileHost add_mobile_host(WlanManager& wlan, Node& node, const Node& map,
                           const MhAgent::Config& cfg,
                           std::unique_ptr<MobilityModel> mobility) {
  MobileHost m;
  m.node = &node;
  m.regional = Address{map.address().net, node.id()};
  node.add_address(m.regional, /*advertised=*/false);
  m.mip = std::make_unique<MobileIpClient>(node, m.regional, map.address());
  m.agent = std::make_unique<MhAgent>(node, cfg, m.mip.get());
  wlan.add_mh(node, std::move(mobility), m.agent.get());
  return m;
}

PaperTopology::PaperTopology(const PaperTopologyConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed) {
  net_ = std::make_unique<Network>(sim_);
  cn_ = &net_->add_node("cn");
  gw_ = &net_->add_node("gw");
  map_ = &net_->add_node("map");
  for (int i = 0; i < cfg.num_ars; ++i) {
    ars_.push_back(&net_->add_node(ar_name(i, cfg.num_ars)));
  }

  cn_->add_address({nets::kCn, 1});
  gw_->add_address({nets::kGw, 1});
  map_->add_address({nets::kMap, 1});
  for (int i = 0; i < cfg.num_ars; ++i) {
    ars_[i]->add_address({nets::kPar + static_cast<std::uint32_t>(i) * 10, 1});
  }

  net_->connect(*cn_, *gw_, cfg.cn_gw_mbps * 1e6, cfg.cn_gw_delay,
                cfg.queue_limit);
  net_->connect(*gw_, *map_, cfg.gw_map_mbps * 1e6, cfg.gw_map_delay,
                cfg.queue_limit);
  for (int i = 0; i < cfg.num_ars; ++i) {
    net_->connect(*map_, *ars_[i], cfg.map_ar_mbps * 1e6, cfg.map_ar_delay,
                  cfg.queue_limit);
    if (i > 0) {
      ar_links_.push_back(&net_->connect(*ars_[i - 1], *ars_[i],
                                         cfg.par_nar_mbps * 1e6,
                                         cfg.par_nar_delay, cfg.queue_limit));
    }
  }

  // Mobile-host nodes exist before route computation (their addresses are
  // unadvertised, so routing never points at them directly).
  std::vector<Node*> mh_nodes;
  for (int i = 0; i < cfg.num_mhs; ++i) {
    mh_nodes.push_back(&net_->add_node("mh" + std::to_string(i)));
  }
  net_->compute_routes();

  // The handover tunnel always uses the direct inter-AR link (Figures
  // 4.9/4.10 vary exactly this link's delay); shortest-path routing would
  // otherwise detour via the MAP when the link is slow.
  for (DuplexLink* link : ar_links_) {
    Node& a = link->a();
    Node& b = link->b();
    a.routes().set_prefix_route(b.address().net, Route::via(link->toward(b)));
    b.routes().set_prefix_route(a.address().net, Route::via(link->toward(a)));
  }

  map_agent_ = std::make_unique<MapAgent>(*map_);
  for (Node* ar : ars_) {
    ar_agents_.push_back(std::make_unique<ArAgent>(*ar, cfg.scheme, cfg.rtx));
  }

  wlan_ = std::make_unique<WlanManager>(sim_, cfg.wlan);
  for (int i = 0; i < cfg.num_ars; ++i) {
    aps_.push_back(&wlan_->add_ap(*ars_[i], Vec2{cfg.ar_distance_m * i, 0},
                                  cfg.ap_radius_m, ar_agents_[i].get()));
  }

  MhAgent::Config mh_cfg;
  mh_cfg.scheme = cfg.scheme;
  mh_cfg.use_fast_handover = cfg.use_fast_handover;
  mh_cfg.request_buffers = cfg.request_buffers;
  mh_cfg.anticipate = cfg.anticipate;
  mh_cfg.simultaneous_binding = cfg.simultaneous_binding;
  mh_cfg.start_time_offset = cfg.start_time_offset;
  mh_cfg.watchdog = cfg.watchdog;
  mh_cfg.rtx = cfg.rtx;

  const Vec2 first{0, 0};
  const Vec2 last{cfg.ar_distance_m * (cfg.num_ars - 1), 0};
  for (Node* node : mh_nodes) {
    std::unique_ptr<MobilityModel> mob;
    if (cfg.bounce) {
      mob = std::make_unique<BounceMobility>(first, last, cfg.speed_mps,
                                             cfg.mobility_start);
    } else {
      mob = std::make_unique<LinearMobility>(first, Vec2{cfg.speed_mps, 0},
                                             cfg.mobility_start);
    }
    mobiles_.push_back(
        add_mobile_host(*wlan_, *node, *map_, mh_cfg, std::move(mob)));
  }
}

void PaperTopology::start() { wlan_->start(); }

SimTime PaperTopology::leg_duration() const {
  return SimTime::from_seconds(cfg_.ar_distance_m * (cfg_.num_ars - 1) /
                               cfg_.speed_mps);
}

}  // namespace fhmip
