#include "scenario/city_topology.hpp"

#include <cmath>
#include <limits>
#include <string>

namespace fhmip {
namespace {

// Address-net bases for the generated field; far above the hand-numbered
// paper nets (10..30 + ARs at 40+10i) so the spaces never collide.
constexpr std::uint32_t kMapNetBase = 600;
constexpr std::uint32_t kArNetBase = 1000;

// Column band -> MAP index: MAPs split the columns into contiguous,
// near-equal bands.
std::size_t map_of_col(int c, int cols, int num_maps) {
  return static_cast<std::size_t>((c * num_maps) / cols);
}

}  // namespace

Vec2 CityTopology::ap_position(const CityConfig& cfg, int row, int col) {
  const double s = cfg.ap_spacing_m;
  if (cfg.layout == CityConfig::Layout::kHex) {
    const double xoff = (row % 2 == 1) ? s / 2 : 0.0;
    return Vec2{col * s + xoff, row * s * std::sqrt(3.0) / 2.0};
  }
  return Vec2{col * s, row * s};
}

CityTopology::CityTopology(const CityConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed) {
  const int rows = std::max(1, cfg.ar_rows);
  const int cols = std::max(1, cfg.ar_cols);
  const int num_ars = rows * cols;
  const int num_maps = std::min(std::max(1, cfg.num_maps), cols);

  net_ = std::make_unique<Network>(sim_);
  cn_ = &net_->add_node("cn");
  gw_ = &net_->add_node("gw");
  cn_->add_address({nets::kCn, 1});
  gw_->add_address({nets::kGw, 1});
  net_->connect(*cn_, *gw_, cfg.cn_gw_mbps * 1e6, cfg.cn_gw_delay,
                cfg.queue_limit);

  for (int k = 0; k < num_maps; ++k) {
    Node& map = net_->add_node("map" + std::to_string(k));
    map.add_address({kMapNetBase + static_cast<std::uint32_t>(k), 1});
    net_->connect(*gw_, map, cfg.gw_map_mbps * 1e6, cfg.gw_map_delay,
                  cfg.queue_limit);
    maps_.push_back(&map);
  }

  // AR field in row-major order; each AR hangs off the MAP owning its
  // column band.
  std::vector<Vec2> ar_pos;
  ar_pos.reserve(num_ars);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int i = r * cols + c;
      Node& ar = net_->add_node("ar" + std::to_string(i));
      ar.add_address({kArNetBase + static_cast<std::uint32_t>(i), 1});
      const std::size_t band = map_of_col(c, cols, num_maps);
      net_->connect(*maps_[band], ar, cfg.map_ar_mbps * 1e6,
                    cfg.map_ar_delay, cfg.queue_limit);
      ars_.push_back(&ar);
      ar_pos.push_back(ap_position(cfg, r, c));
    }
  }

  // Direct links between geometrically adjacent ARs: east/south neighbours
  // on the grid, all six ring-1 neighbours in the hex packing (both sit at
  // exactly one spacing; the grid diagonal at sqrt(2) spacings stays out).
  // Dijkstra weights by delay with hop-count tiebreak, so the 1-hop direct
  // link always beats the 2-hop MAP detour for the handover tunnel.
  const double adjacency = cfg.ap_spacing_m * 1.05;
  for (int i = 0; i < num_ars; ++i) {
    for (int j = i + 1; j < num_ars; ++j) {
      if (distance(ar_pos[i], ar_pos[j]) > adjacency) continue;
      ar_links_.push_back(&net_->connect(*ars_[i], *ars_[j],
                                         cfg.ar_ar_mbps * 1e6,
                                         cfg.ar_ar_delay, cfg.queue_limit));
    }
  }

  // Mobile-host nodes exist before route computation (addresses are
  // unadvertised, so routing never points at them directly).
  std::vector<Node*> mh_nodes;
  mh_nodes.reserve(cfg.population.num_mhs);
  for (int i = 0; i < cfg.population.num_mhs; ++i) {
    mh_nodes.push_back(&net_->add_node("mh" + std::to_string(i)));
  }
  net_->compute_routes();

  for (std::size_t k = 0; k < maps_.size(); ++k) {
    map_agents_.push_back(std::make_unique<MapAgent>(*maps_[k]));
  }
  for (Node* ar : ars_) {
    ar_agents_.push_back(
        std::make_unique<ArAgent>(*ar, cfg.scheme, cfg.rtx));
  }

  wlan_ = std::make_unique<WlanManager>(sim_, cfg.wlan);
  for (int i = 0; i < num_ars; ++i) {
    wlan_->add_ap(*ars_[i], ar_pos[i], cfg.ap_radius_m,
                  ar_agents_[i].get());
  }

  // The roam box: the AP field plus one coverage radius of margin, so walks
  // can leave coverage at the fringe (hard-detach path) but always return.
  RoamBox box;
  box.lo = Vec2{-cfg.ap_radius_m, -cfg.ap_radius_m};
  box.hi = Vec2{ar_pos.back().x + cfg.ap_radius_m,
                ar_pos.back().y + cfg.ap_radius_m};
  for (const Vec2& p : ar_pos) {
    box.hi.x = std::max(box.hi.x, p.x + cfg.ap_radius_m);
    box.hi.y = std::max(box.hi.y, p.y + cfg.ap_radius_m);
  }

  MhAgent::Config mh_cfg;
  mh_cfg.scheme = cfg.scheme;
  mh_cfg.rtx = cfg.rtx;
  mh_cfg.watchdog = cfg.watchdog;

  // The population stream is separate from the simulation RNG so scenario
  // generation never perturbs protocol-level draws (RA stagger, jitter).
  Rng pop_rng(cfg.seed ^ 0xC17Cu);
  const SimTime traffic_stop = cfg.population.traffic_stop.is_zero()
                                   ? cfg.population.horizon
                                   : cfg.population.traffic_stop;
  const SimTime interval = population_packet_interval(cfg.population);
  for (int i = 0; i < cfg.population.num_mhs; ++i) {
    const PopulationDraw draw = draw_member(pop_rng, cfg.population, box);

    // Anchor at the MAP whose band owns the nearest AR to the spawn point.
    std::size_t nearest = 0;
    double best = std::numeric_limits<double>::max();
    for (std::size_t a = 0; a < ar_pos.size(); ++a) {
      const double d = distance(ar_pos[a], draw.spawn);
      if (d < best) {
        best = d;
        nearest = a;
      }
    }
    MobileHost m = add_mobile_host(
        *wlan_, *mh_nodes[i], *maps_[map_of_ar(nearest)], mh_cfg,
        make_random_waypoint_walk(pop_rng, cfg.population, box, draw.spawn,
                                  draw.speed_mps));

    if (draw.active) {
      m.flow = static_cast<FlowId>(1 + i);
      sinks_.push_back(std::make_unique<UdpSink>(*m.node, 7000));
      CbrSource::Config c;
      c.dst = m.regional;
      c.dst_port = 7000;
      c.packet_bytes = cfg.population.packet_bytes;
      c.interval = interval;
      c.tclass = draw.tclass;
      c.flow = m.flow;
      sources_.push_back(std::make_unique<CbrSource>(*cn_, 5000, c));
      // Stagger start phases across one packet interval: every source
      // lives on the CN, and phase-locked CBR ticks would slam hundreds of
      // packets into the first wired queue in the same instant — burst
      // drops that say nothing about the buffer scheme under test.
      const SimTime phase = SimTime::nanos(
          interval.ns() * i / std::max(1, cfg.population.num_mhs));
      sources_.back()->start(cfg.population.traffic_start + phase);
      sources_.back()->stop(traffic_stop);
    }
    mobiles_.push_back(std::move(m));
  }
}

std::size_t CityTopology::map_of_ar(std::size_t i) const {
  const int cols = std::max(1, cfg_.ar_cols);
  return map_of_col(static_cast<int>(i) % cols, cols,
                    static_cast<int>(maps_.size()));
}

std::uint64_t CityTopology::leased_total() const {
  std::uint64_t total = 0;
  for (const auto& agent : ar_agents_) total += agent->buffers().leased();
  return total;
}

void CityTopology::start() { wlan_->start(); }

}  // namespace fhmip
