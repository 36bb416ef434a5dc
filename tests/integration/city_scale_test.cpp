// City-scale scenario tests: a 200-host population roaming a 4x4 AR field
// under seeded link loss must keep every ledger book balanced — packet
// conservation per flow (checked at every handover boundary, not just at
// the end), every attempt resolved, and zero buffer leases surviving
// quiesce. Companion population-model tests pin the determinism properties
// the scenario relies on (seed-stable draws, walks frozen at the horizon).

#include "scenario/city_topology.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/link_fault.hpp"
#include "scenario/population.hpp"
#include "sim/check.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(Population, DrawsAreSeedDeterministic) {
  PopulationConfig cfg;
  const RoamBox box{{0, 0}, {1000, 800}};
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    const PopulationDraw da = draw_member(a, cfg, box);
    const PopulationDraw db = draw_member(b, cfg, box);
    const PopulationDraw dc = draw_member(c, cfg, box);
    EXPECT_EQ(da.spawn, db.spawn);
    EXPECT_EQ(da.speed_mps, db.speed_mps);
    EXPECT_EQ(da.active, db.active);
    EXPECT_EQ(da.tclass, db.tclass);
    EXPECT_GE(da.spawn.x, box.lo.x);
    EXPECT_LE(da.spawn.x, box.hi.x);
    differs |= da.spawn != dc.spawn;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical populations";
}

TEST(Population, WalksFreezeExactlyAtTheHorizon) {
  // The generator clips its final leg to the horizon: a host is still
  // moving just before it and parked exactly at (and forever after) it —
  // that bound is what lets city scenarios quiesce a fixed slack later.
  PopulationConfig cfg;
  cfg.horizon = 30_s;
  const RoamBox box{{0, 0}, {1000, 800}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const PopulationDraw d = draw_member(rng, cfg, box);
    const auto walk =
        make_random_waypoint_walk(rng, cfg, box, d.spawn, d.speed_mps);
    const Vec2 at_horizon = walk->position(cfg.horizon);
    EXPECT_GT(distance(walk->position(cfg.horizon - 100_ms), at_horizon), 0)
        << "seed " << seed << ": host already parked before the horizon";
    EXPECT_EQ(walk->position(cfg.horizon + 1_ms), at_horizon);
    EXPECT_EQ(walk->position(cfg.horizon + 100_s), at_horizon);
    EXPECT_GE(at_horizon.x, box.lo.x);
    EXPECT_LE(at_horizon.x, box.hi.x);
    EXPECT_GE(at_horizon.y, box.lo.y);
    EXPECT_LE(at_horizon.y, box.hi.y);
  }
}

TEST(CityScale, TwoHundredHostsUnderSeededLossConserveEverything) {
  const std::uint64_t audits_before = AuditHub::instance().violations();

  CityConfig cfg;
  cfg.seed = 7;
  cfg.ar_rows = cfg.ar_cols = 4;
  cfg.num_maps = 2;
  cfg.wlan.tick = 20_ms;
  cfg.watchdog = 2_s;
  cfg.scheme.classify = true;
  cfg.scheme.allow_partial_grant = true;
  cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;
  cfg.population.num_mhs = 200;
  cfg.population.speed_min_mps = 5;
  cfg.population.speed_max_mps = 20;
  cfg.population.active_fraction = 0.25;
  cfg.population.flow_kbps = 16;
  cfg.population.packet_bytes = 160;
  cfg.population.horizon = 10_s;
  cfg.population.traffic_start = 1_s;
  cfg.population.traffic_stop = 10_s;

  CityTopology topo(cfg);
  Simulation& sim = topo.simulation();

  // Seeded Bernoulli loss on every third inter-AR link: the HI/HAck and
  // tunnel exchanges riding them now fail sporadically, mixing reactive
  // and failed outcomes in with the predictive ones.
  std::vector<std::unique_ptr<fault::LinkFaultInjector>> injectors;
  int idx = 0;
  for (DuplexLink* l : topo.ar_ar_links()) {
    if (++idx % 3 != 0) continue;
    for (SimplexLink* s : {&l->a_to_b(), &l->b_to_a()}) {
      injectors.push_back(
          std::make_unique<fault::LinkFaultInjector>(sim, *s));
      injectors.back()->bernoulli(0.05, 1000 + idx);
    }
  }
  ASSERT_FALSE(injectors.empty());

  // Ledger conservation is checked at EVERY handover boundary: whenever an
  // attempt resolves, no flow may have accounted more deliveries + drops
  // than packets sent (equality only holds at quiesce — packets are still
  // in flight mid-run).
  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < topo.num_mobiles(); ++i) {
    if (topo.mobile(i).flow != 0) flows.push_back(topo.mobile(i).flow);
  }
  ASSERT_GE(flows.size(), 30u);
  std::uint64_t boundary_checks = 0;
  std::uint64_t boundary_violations = 0;
  sim.timeline().set_resolve_hook([&](const HandoverAttempt&) {
    ++boundary_checks;
    for (FlowId f : flows) {
      const FlowCounters& fc = sim.stats().flow(f);
      if (fc.delivered + fc.dropped > fc.sent) ++boundary_violations;
    }
  });

  topo.start();
  sim.run_until(cfg.population.horizon + cfg.scheme.lifetime +
                cfg.scheme.lease_grace + 3_s);

  const HandoverOutcomeRecorder& rec = topo.outcomes();
  EXPECT_GT(rec.attempts(), 50u);
  EXPECT_GT(rec.completed(), 0u);
  // Loss + coverage gaps must have pushed some attempts off the clean
  // predictive path.
  EXPECT_GT(rec.count(HandoverOutcome::kReactive) +
                rec.count(HandoverOutcome::kFailed),
            0u);
  // Every attempt resolved: the watchdog forbids wedged choreographies.
  EXPECT_EQ(rec.attempts(),
            rec.completed() + rec.count(HandoverOutcome::kFailed));

  EXPECT_GT(boundary_checks, 0u);
  EXPECT_EQ(boundary_violations, 0u);

  // Final conservation is exact: every sent packet was delivered or
  // accounted dropped, for every flow.
  std::uint64_t sent = 0;
  for (FlowId f : flows) {
    const FlowCounters& fc = sim.stats().flow(f);
    EXPECT_EQ(fc.sent, fc.delivered + fc.dropped) << "flow " << f;
    sent += fc.sent;
  }
  EXPECT_GT(sent, 0u);

  // No buffer lease survives quiesce and no audit tripped along the way.
  EXPECT_EQ(topo.leased_total(), 0u);
  EXPECT_EQ(AuditHub::instance().violations(), audits_before);
}

TEST(CityScale, HexLayoutRunsAndResolvesAllAttempts) {
  CityConfig cfg;
  cfg.seed = 3;
  cfg.layout = CityConfig::Layout::kHex;
  cfg.ar_rows = 3;
  cfg.ar_cols = 3;
  cfg.wlan.tick = 20_ms;
  cfg.watchdog = 2_s;
  cfg.population.num_mhs = 40;
  cfg.population.speed_min_mps = 5;
  cfg.population.speed_max_mps = 20;
  cfg.population.active_fraction = 0.5;
  cfg.population.horizon = 8_s;
  cfg.population.traffic_stop = 8_s;

  CityTopology topo(cfg);
  topo.start();
  topo.simulation().run_until(cfg.population.horizon + cfg.scheme.lifetime +
                              cfg.scheme.lease_grace + 3_s);

  const HandoverOutcomeRecorder& rec = topo.outcomes();
  EXPECT_GT(rec.attempts(), 0u);
  EXPECT_EQ(rec.attempts(),
            rec.completed() + rec.count(HandoverOutcome::kFailed));
  EXPECT_EQ(topo.leased_total(), 0u);
}

}  // namespace
}  // namespace fhmip
