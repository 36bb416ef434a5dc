// city_roam and city_traffic: the CityTopology scale scenario, measured and
// checked from outside.
#include <algorithm>
#include <cmath>
#include <memory>

#include "scenario/population.hpp"
#include "sim/check.hpp"
#include "workloads.hpp"

using namespace fhmip;

namespace perfbench {
namespace {

// scale_population_sweep's field size: rows = cols = ceil(sqrt(N/12)),
// clamped to [2, 16].
int field_cols(int n_mhs) {
  const int c = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n_mhs) / 12.0)));
  return std::min(16, std::max(2, c));
}

// The roam box CityTopology derives from its AP field (the field plus one
// coverage radius), and the AP centers in row-major AR order.
RoamBox city_box(const CityConfig& cfg, std::vector<Vec2>& ap_pos) {
  const int rows = std::max(1, cfg.ar_rows);
  const int cols = std::max(1, cfg.ar_cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      ap_pos.push_back(CityTopology::ap_position(cfg, r, c));
    }
  }
  RoamBox box;
  box.lo = Vec2{-cfg.ap_radius_m, -cfg.ap_radius_m};
  box.hi = Vec2{ap_pos.back().x + cfg.ap_radius_m,
                ap_pos.back().y + cfg.ap_radius_m};
  for (const Vec2& p : ap_pos) {
    box.hi.x = std::max(box.hi.x, p.x + cfg.ap_radius_m);
    box.hi.y = std::max(box.hi.y, p.y + cfg.ap_radius_m);
  }
  return box;
}

// Advances `sim` from now to `to` one simulated second per run_until; each
// slice's wall time is a "sim" piece of the execution. Traced executions
// also record a sim.run span, the scheduler depth and the running counts
// after each slice.
void run_slices(Simulation& sim, const WlanManager& wlan, SimTime to,
                SpanLog* spans, Execution& e) {
  while (sim.now() < to) {
    const std::int64_t sec = sim.now().ns() / SimTime::seconds(1).ns() + 1;
    const SimTime next = std::min(to, SimTime::seconds(sec));
    const double t0 = now_s();
    {
      SpanLog::Scope s(spans, "sim.run");
      sim.run_until(next);
    }
    e.piece("sim", now_s() - t0);
    if (!e.traced) continue;
    e.depth_samples.push_back(sim.scheduler().queue_size());
    e.slices.push_back({next.sec(),
                        static_cast<double>(sim.scheduler().events_executed()),
                        static_cast<double>(wlan.handoffs_started())});
  }
}

}  // namespace

CityConfig city_config(const std::string& workload, Size size,
                       std::uint64_t seed) {
  const bool roam = workload == "city_roam";
  const int n_mhs = size == Size::kSmoke ? 100 : (roam ? 5000 : 1000);

  CityConfig cfg;
  cfg.seed = seed;
  cfg.ar_rows = cfg.ar_cols = field_cols(n_mhs);
  cfg.num_maps = std::max(1, cfg.ar_cols / 4);
  cfg.layout = CityConfig::Layout::kGrid;
  cfg.wlan.tick = SimTime::millis(20);
  cfg.watchdog = SimTime::seconds(2);
  cfg.scheme.classify = true;
  cfg.scheme.allow_partial_grant = true;
  cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;

  PopulationConfig& pop = cfg.population;
  pop.num_mhs = n_mhs;
  pop.speed_min_mps = 5;
  pop.speed_max_mps = 20;
  pop.active_fraction = roam ? 0.25 : 1.0;
  pop.flow_kbps = roam ? 16 : 64;
  pop.packet_bytes = 160;
  pop.horizon = SimTime::seconds(20);
  pop.traffic_start = SimTime::seconds(1);
  pop.traffic_stop = SimTime::seconds(20);
  return cfg;
}

SimTime city_quiesce_end(const CityConfig& cfg) {
  return cfg.population.horizon + cfg.scheme.lifetime +
         cfg.scheme.lease_grace + SimTime::seconds(3);
}

Execution run_city(const std::string& workload, const CityConfig& cfg,
                   bool traced, SpanLog* spans) {
  Execution e;
  e.workload = workload;
  e.seed = cfg.seed;
  e.traced = traced;
  const std::uint64_t audits_before = AuditHub::instance().violations();
  // A different seed must deal a different population (checked outside the
  // timed execution).
  CityConfig next = cfg;
  next.seed = cfg.seed + 1;
  const bool seed_changes =
      population_digest(cfg) != population_digest(next);

  const double t0 = now_s();
  std::unique_ptr<CityTopology> topo;
  {
    SpanLog::Scope s(spans, "scenario.build");
    topo = std::make_unique<CityTopology>(cfg);
    // As in scale_population_sweep: raw timeline records are capped so
    // timeline memory stays flat; derived attempts and metrics are not.
    topo->simulation().timeline().set_record_cap(65536);
  }
  {
    SpanLog::Scope s(spans, "scenario.start");
    topo->start();
  }
  const double t_setup = now_s();
  e.setup_s = t_setup - t0;
  e.piece("setup", e.setup_s);

  Simulation& sim = topo->simulation();
  {
    SpanLog::Scope s(spans, "sim.roam");
    run_slices(sim, topo->wlan(), cfg.population.horizon, spans, e);
  }
  {
    SpanLog::Scope s(spans, "sim.quiesce");
    run_slices(sim, topo->wlan(), city_quiesce_end(cfg), spans, e);
  }
  const double t_sim = now_s();
  e.sim_s = t_sim - t_setup;

  std::string registry_json;
  {
    SpanLog::Scope s(spans, "obs.export");
    registry_json = sim.metrics().to_json();
  }
  e.export_s = now_s() - t_sim;

  // Counts, read from public accessors after the run.
  WlanManager& wlan = topo->wlan();
  const HandoverOutcomeRecorder& rec = topo->outcomes();
  RegistrySums sums;
  sums.add(registry_json);
  e.handoffs = wlan.handoffs_started();

  std::uint64_t forwarded = 0;
  for (std::size_t i = 0; i < topo->network().num_nodes(); ++i) {
    forwarded += topo->network().node(i).packets_forwarded();
  }
  std::uint64_t sent = 0, delivered = 0, dropped = 0, unbalanced = 0;
  bool in_handoff = false;
  for (std::size_t i = 0; i < topo->num_mobiles(); ++i) {
    const CityTopology::Mobile& m = topo->mobile(i);
    in_handoff = in_handoff || wlan.in_handoff(m.node->id());
    if (m.flow == 0) continue;
    const FlowCounters& fc = sim.stats().flow(m.flow);
    sent += fc.sent;
    delivered += fc.delivered;
    dropped += fc.dropped;
    if (fc.sent != fc.delivered + fc.dropped) ++unbalanced;
  }
  const std::uint64_t failed = rec.count(HandoverOutcome::kFailed);

  e.count("sim.events", static_cast<double>(sim.scheduler().events_executed()));
  e.count("wireless.handoffs", static_cast<double>(e.handoffs));
  e.count("net.packets", static_cast<double>(sim.packet_pool().total_acquired()));
  e.count("net.forwarded", static_cast<double>(forwarded));
  e.count("net.pool_slots", static_cast<double>(sim.packet_pool().capacity()));
  e.count("net.link_deliveries", sums.link_deliveries);
  e.count("buffer.grants", sums.grants);
  e.count("buffer.rejections", sums.rejections);
  e.count("buffer.partial_grants", sums.partial_grants);
  e.count("buffer.reaped", sums.reaped);
  e.count("fastho.attempts", static_cast<double>(rec.attempts()));
  e.count("fastho.completed", static_cast<double>(rec.completed()));
  e.count("fastho.failed", static_cast<double>(failed));
  e.count("fastho.buffered_pkts", sums.buffered);
  e.count("fastho.drained_pkts", sums.drained);
  e.count("transport.sent", static_cast<double>(sent));
  e.count("transport.delivered", static_cast<double>(delivered));
  e.count("transport.dropped", static_cast<double>(dropped));
  e.count("obs.series", static_cast<double>(sim.metrics().size()));
  e.count("obs.export_bytes", static_cast<double>(registry_json.size()));
  e.count("obs.timeline_records",
          static_cast<double>(sim.timeline().records().size() +
                              sim.timeline().dropped_records()));

  // Output checks.
  e.check("attempts_resolved",
          rec.attempts() == rec.completed() + failed && !in_handoff);
  e.check("timeline_matches_recorder",
          sim.timeline().attempts().size() == rec.attempts() &&
              sums.predictive + sums.reactive + sums.failed ==
                  static_cast<double>(rec.attempts()));
  e.check("registry_matches_wlan",
          sums.wlan_handoffs == static_cast<double>(e.handoffs));
  e.check("export_holds_every_series",
          sums.series == static_cast<double>(sim.metrics().size()));
  e.check("flow_conservation", unbalanced == 0 && sent > 0);
  e.check("leases_released", topo->leased_total() == 0);
  e.check("handoffs_simulated", e.handoffs > 0);
  e.check("seed_changes_population", seed_changes);

  {
    SpanLog::Scope s(spans, "scenario.teardown");
    const double td = now_s();
    topo.reset();
    e.teardown_s = now_s() - td;
  }
  e.check("audits_clean", AuditHub::instance().violations() == audits_before);
  e.wall_s = now_s() - t0;
  e.piece("rest", e.wall_s - pieces_s(e));
  e.failed_runs = e.all_checks_pass() ? 0 : 1;
  return e;
}

ReplicaResult wlan_replica(const CityConfig& cfg) {
  Simulation sim(cfg.seed);
  Network net(sim);
  WlanConfig wcfg = cfg.wlan;
  wcfg.send_router_adv = false;
  // Declared after the network so its radios die before the nodes do.
  WlanManager wlan(sim, wcfg);

  std::vector<Vec2> ap_pos;
  const RoamBox box = city_box(cfg, ap_pos);
  for (std::size_t i = 0; i < ap_pos.size(); ++i) {
    Node& ar = net.add_node("ar" + std::to_string(i));
    wlan.add_ap(ar, ap_pos[i], cfg.ap_radius_m, nullptr);
  }
  // Same stream and draw order as CityTopology: member, then its walk.
  Rng pop_rng(cfg.seed ^ 0xC17Cu);
  for (int i = 0; i < cfg.population.num_mhs; ++i) {
    Node& mh = net.add_node("mh" + std::to_string(i));
    const PopulationDraw d = draw_member(pop_rng, cfg.population, box);
    wlan.add_mh(mh,
                make_random_waypoint_walk(pop_rng, cfg.population, box,
                                          d.spawn, d.speed_mps),
                nullptr);
  }

  ReplicaResult r;
  const double t0 = now_s();
  wlan.start();
  sim.run_until(cfg.population.horizon);
  const double t1 = now_s();
  sim.run_until(city_quiesce_end(cfg));
  r.frozen_s = now_s() - t1;
  r.roam_s = t1 - t0;
  r.handoffs = wlan.handoffs_started();
  return r;
}

std::string population_digest(const CityConfig& cfg) {
  std::vector<Vec2> ap_pos;
  const RoamBox box = city_box(cfg, ap_pos);
  Rng pop_rng(cfg.seed ^ 0xC17Cu);
  Digest d;
  for (int i = 0; i < cfg.population.num_mhs; ++i) {
    const PopulationDraw m = draw_member(pop_rng, cfg.population, box);
    // The walk draws from the same stream; generate it to stay aligned.
    make_random_waypoint_walk(pop_rng, cfg.population, box, m.spawn,
                              m.speed_mps);
    d.add_double(m.spawn.x);
    d.add_double(m.spawn.y);
    d.add_double(m.speed_mps);
    d.add_u64(m.active ? 1 : 0);
    d.add_u64(static_cast<std::uint64_t>(m.tclass));
  }
  return d.hex();
}

}  // namespace perfbench
