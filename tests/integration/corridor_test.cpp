#include <gtest/gtest.h>

#include <variant>

#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// Multi-AR corridor roaming: every interior router plays NAR, then PAR.
struct CorridorFixture : ::testing::Test {
  PaperTopologyConfig cfg;
  std::unique_ptr<PaperTopology> topo;
  std::unique_ptr<UdpSink> sink;
  std::unique_ptr<CbrSource> source;

  void build(TrafficClass cls = TrafficClass::kHighPriority) {
    topo = std::make_unique<PaperTopology>(cfg);
    sink = std::make_unique<UdpSink>(*topo->mobile(0).node, 7000);
    CbrSource::Config c;
    c.dst = topo->mobile(0).regional;
    c.dst_port = 7000;
    c.packet_bytes = 160;
    c.interval = 10_ms;
    c.tclass = cls;
    c.flow = 1;
    source = std::make_unique<CbrSource>(topo->cn(), 5000, c);
    source->start(2_s);
  }

  void run_walk() {
    const SimTime end = cfg.mobility_start + topo->leg_duration() + 5_s;
    source->stop(end - 2_s);
    topo->start();
    topo->simulation().run_until(end);
  }
};

TEST_F(CorridorFixture, WalksThroughAllCellsWithoutLoss) {
  cfg.num_ars = 4;
  build();
  run_walk();
  const auto& mh = topo->mobile(0).agent->counters();
  EXPECT_EQ(mh.handoffs, 3u);  // AR1->AR2->AR3->AR4
  EXPECT_EQ(mh.non_anticipated, 0u);
  const FlowCounters& c = topo->simulation().stats().flow(1);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.sent, c.delivered);
}

TEST_F(CorridorFixture, EveryInteriorRouterPlaysBothRoles) {
  cfg.num_ars = 4;
  build();
  run_walk();
  for (std::size_t i = 1; i + 1 < topo->num_ars(); ++i) {
    const auto& counters = topo->ar_agent(i).counters();
    EXPECT_EQ(counters.hi_received, 1u) << "ar" << i;  // was a NAR once
    EXPECT_EQ(counters.hi_sent, 1u) << "ar" << i;      // was a PAR once
    EXPECT_EQ(counters.fna, 1u) << "ar" << i;
    EXPECT_EQ(counters.bf_received, 1u) << "ar" << i;
  }
  // Endpoints play exactly one role.
  EXPECT_EQ(topo->ar_agent(0).counters().hi_sent, 1u);
  EXPECT_EQ(topo->ar_agent(0).counters().hi_received, 0u);
  EXPECT_EQ(topo->ar_agent(topo->num_ars() - 1).counters().hi_received, 1u);
}

TEST_F(CorridorFixture, BindingFollowsTheWalk) {
  cfg.num_ars = 3;
  build();
  run_walk();
  // Initial attach + one update per handover.
  EXPECT_EQ(topo->mobile(0).mip->updates_sent(), 3u);
  EXPECT_EQ(topo->mobile(0).mip->acks_received(), 3u);
  const auto binding = topo->map_agent().bindings().lookup(
      topo->mobile(0).regional, topo->simulation().now());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->net, topo->ar(2).address().net);  // parked at the end
}

TEST_F(CorridorFixture, AllLeasesReturnedAfterTheWalk) {
  cfg.num_ars = 5;
  build();
  run_walk();
  for (std::size_t i = 0; i < topo->num_ars(); ++i) {
    EXPECT_EQ(topo->ar_agent(i).buffers().leased(), 0u) << "ar" << i;
  }
}

TEST_F(CorridorFixture, LongCorridorKeepsConservation) {
  cfg.num_ars = 8;
  cfg.scheme.classify = false;
  build(TrafficClass::kUnspecified);
  run_walk();
  const FlowCounters& c = topo->simulation().stats().flow(1);
  EXPECT_EQ(topo->mobile(0).agent->counters().handoffs, 7u);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_EQ(c.dropped, 0u);
}

TEST_F(CorridorFixture, NoBuffersLosePerHandover) {
  cfg.num_ars = 4;
  cfg.scheme.mode = BufferMode::kNone;
  build();
  run_walk();
  const FlowCounters& c = topo->simulation().stats().flow(1);
  // ~20 packets per 200 ms blackout, three blackouts.
  EXPECT_GE(c.dropped, 55u);
  EXPECT_LE(c.dropped, 70u);
}

TEST_F(CorridorFixture, TunnelsCrossTheDirectLinks) {
  // A 50 ms AR-AR link against 2 + 2 ms through the MAP: shortest-path
  // routing alone would send every AR-to-AR packet via the MAP.
  cfg.num_ars = 3;
  cfg.par_nar_delay = 50_ms;
  build();
  struct Crossed {
    std::uint64_t hi = 0, hack = 0, redirected = 0;
  };
  std::vector<Crossed> seen(2);
  for (std::size_t k = 0; k < 2; ++k) {
    DuplexLink& link = topo->ar_link(k);
    link.toward(topo->ar(k + 1)).set_tx_filter([&seen, k](const Packet& p) {
      if (std::holds_alternative<HiMsg>(p.msg)) ++seen[k].hi;
      if (p.flow == 1 && p.tunneled()) ++seen[k].redirected;
      return false;
    });
    link.toward(topo->ar(k)).set_tx_filter([&seen, k](const Packet& p) {
      if (std::holds_alternative<HackMsg>(p.msg)) ++seen[k].hack;
      return false;
    });
  }
  run_walk();
  EXPECT_EQ(topo->mobile(0).agent->counters().handoffs, 2u);
  // Every HI (first send and the resends the 100 ms round trip provokes)
  // and every HAck crossed the direct link.
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& par = topo->ar_agent(k).counters();
    const auto& nar = topo->ar_agent(k + 1).counters();
    EXPECT_EQ(par.hi_sent, 1u) << "ar" << k + 1;
    EXPECT_EQ(seen[k].hi, par.hi_sent + par.hi_rtx) << "ar" << k + 1;
    EXPECT_GE(nar.hack_sent, 1u) << "ar" << k + 2;
    EXPECT_EQ(seen[k].hack, nar.hack_sent) << "ar" << k + 2;
    EXPECT_GT(seen[k].redirected, 0) << "ar" << k + 1;
  }
}

}  // namespace
}  // namespace fhmip
