#include "scenario/paper_topology.hpp"

namespace fhmip {

PaperTopology::PaperTopology(const PaperTopologyConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed) {
  net_ = std::make_unique<Network>(sim_);
  cn_ = &net_->add_node("cn");
  gw_ = &net_->add_node("gw");
  map_ = &net_->add_node("map");
  par_ = &net_->add_node("par");
  nar_ = &net_->add_node("nar");

  cn_->add_address({nets::kCn, 1});
  gw_->add_address({nets::kGw, 1});
  map_->add_address({nets::kMap, 1});
  par_->add_address({nets::kPar, 1});
  nar_->add_address({nets::kNar, 1});

  net_->connect(*cn_, *gw_, cfg.cn_gw_mbps * 1e6, cfg.cn_gw_delay,
                cfg.queue_limit);
  net_->connect(*gw_, *map_, cfg.gw_map_mbps * 1e6, cfg.gw_map_delay,
                cfg.queue_limit);
  net_->connect(*map_, *par_, cfg.map_ar_mbps * 1e6, cfg.map_ar_delay,
                cfg.queue_limit);
  net_->connect(*map_, *nar_, cfg.map_ar_mbps * 1e6, cfg.map_ar_delay,
                cfg.queue_limit);
  DuplexLink& par_nar = net_->connect(*par_, *nar_, cfg.par_nar_mbps * 1e6,
                                      cfg.par_nar_delay, cfg.queue_limit);
  par_nar_link_ = &par_nar;

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
  par_->routes().set_prefix_route(nets::kNar, Route::via(par_nar.toward(*nar_)));
  nar_->routes().set_prefix_route(nets::kPar, Route::via(par_nar.toward(*par_)));

  map_agent_ = std::make_unique<MapAgent>(*map_);
  par_agent_ = std::make_unique<ArAgent>(*par_, cfg.scheme, cfg.rtx);
  nar_agent_ = std::make_unique<ArAgent>(*nar_, cfg.scheme, cfg.rtx);

  wlan_ = std::make_unique<WlanManager>(sim_, cfg.wlan);
  ap_par_ = &wlan_->add_ap(*par_, Vec2{0, 0}, cfg.ap_radius_m,
                           par_agent_.get());
  ap_nar_ = &wlan_->add_ap(*nar_, Vec2{cfg.ar_distance_m, 0},
                           cfg.ap_radius_m, nar_agent_.get());

  auto resolver = [this](NodeId ap) -> Node* {
    AccessPoint* a = wlan_->ap(ap);
    return a == nullptr ? nullptr : &a->ar_node();
  };
  par_agent_->set_ap_resolver(resolver);
  nar_agent_->set_ap_resolver(resolver);

  MhAgent::Config mh_cfg;
  mh_cfg.scheme = cfg.scheme;
  mh_cfg.use_fast_handover = cfg.use_fast_handover;
  mh_cfg.request_buffers = cfg.request_buffers;
  mh_cfg.anticipate = cfg.anticipate;
  mh_cfg.simultaneous_binding = cfg.simultaneous_binding;
  mh_cfg.auth_key = cfg.auth_key;
  mh_cfg.start_time_offset = cfg.start_time_offset;
  mh_cfg.watchdog = cfg.watchdog;
  mh_cfg.rtx = cfg.rtx;

  for (int i = 0; i < cfg.num_mhs; ++i) {
    Mobile m;
    m.node = mh_nodes[i];
    m.regional = Address{nets::kMap, m.node->id()};
    m.node->add_address(m.regional, /*advertised=*/false);
    m.mip =
        std::make_unique<MobileIpClient>(*m.node, m.regional, map_->address());
    m.agent = std::make_unique<MhAgent>(*m.node, mh_cfg, m.mip.get());

    std::unique_ptr<MobilityModel> mob;
    const Vec2 a{0, 0};
    const Vec2 b{cfg.ar_distance_m, 0};
    if (cfg.bounce) {
      mob = std::make_unique<BounceMobility>(a, b, cfg.speed_mps,
                                             cfg.mobility_start);
    } else {
      mob = std::make_unique<LinearMobility>(a, Vec2{cfg.speed_mps, 0},
                                             cfg.mobility_start);
    }
    wlan_->add_mh(*m.node, std::move(mob), m.agent.get());
    mobiles_.push_back(std::move(m));
  }
}

void PaperTopology::start() { wlan_->start(); }

SimTime PaperTopology::leg_duration() const {
  return SimTime::from_seconds(cfg_.ar_distance_m / cfg_.speed_mps);
}

}  // namespace fhmip
