#include "fault/link_fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/crash.hpp"
#include "fault/filters.hpp"
#include "net/node.hpp"
#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

// ---------------------------------------------------------------------------
// Link-level injector rules on a bare link.
// ---------------------------------------------------------------------------

struct LinkFaultFixture : ::testing::Test {
  Simulation sim;
  Node a{sim, 1, "a"};
  Node b{sim, 2, "b"};
  std::vector<std::uint32_t> arrived;  // packet seq numbers delivered

  void SetUp() override {
    b.add_address({20, 1});
    b.register_port(9, [this](PacketPtr p) { arrived.push_back(p->seq); });
  }

  ~LinkFaultFixture() override { b.unregister_port(9); }

  PacketPtr pkt(std::uint32_t seq) {
    auto p = make_packet(sim, {10, 1}, {20, 1}, 100);
    p->dst_port = 9;
    p->flow = 1;
    p->seq = seq;
    return p;
  }
};

TEST_F(LinkFaultFixture, DropNthKillsExactlyThatPacket) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.drop_nth(3);
  for (std::uint32_t s = 1; s <= 5; ++s) link.transmit(pkt(s));
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 2, 4, 5}));
  EXPECT_EQ(inj.dropped(), 1u);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kFaultInjected), 1u);
  EXPECT_EQ(link.packets_delivered(), 4u);
}

TEST_F(LinkFaultFixture, DropNthCountsOnlyMatchingPackets) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  // Rule counts data packets only; interleaved control passes untouched
  // (control packets have no registered handler at b, so `arrived` tracks
  // the data stream).
  inj.drop_nth(2, fault::data_only());
  auto ctrl = [&] {
    auto p = make_packet(sim, {10, 1}, {20, 1}, 100);
    p->msg = BfMsg{};
    return p;
  };
  link.transmit(pkt(1));  // 1st data
  link.transmit(ctrl());
  link.transmit(pkt(3));  // 2nd data — killed
  link.transmit(ctrl());
  link.transmit(pkt(5));  // 3rd data
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(inj.dropped(), 1u);
  EXPECT_EQ(link.packets_delivered(), 4u);
}

TEST_F(LinkFaultFixture, DropMatchingHonorsCountBudget) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.drop_matching(fault::any_packet(), 2);
  for (std::uint32_t s = 1; s <= 4; ++s) link.transmit(pkt(s));
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(inj.dropped(), 2u);
}

TEST_F(LinkFaultFixture, BernoulliIsAPureFunctionOfSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulation fresh_sim;
    Node dst(fresh_sim, 2, "b");
    std::vector<std::uint32_t> got;
    dst.add_address({20, 1});
    dst.register_port(9, [&](PacketPtr p) { got.push_back(p->seq); });
    SimplexLink link(fresh_sim, dst, 1e6, 1_ms, 200);
    fault::LinkFaultInjector inj(fresh_sim, link);
    inj.bernoulli(0.3, seed);
    for (std::uint32_t s = 1; s <= 100; ++s) {
      auto p = make_packet(fresh_sim, {10, 1}, {20, 1}, 100);
      p->dst_port = 9;
      p->seq = s;
      link.transmit(std::move(p));
    }
    fresh_sim.run();
    return got;
  };
  const auto first = run_once(7);
  EXPECT_EQ(first, run_once(7));  // same seed, same casualties
  EXPECT_NE(first, run_once(8));
  EXPECT_LT(first.size(), 100u);  // it does drop something at p=0.3
  EXPECT_GT(first.size(), 40u);
}

TEST_F(LinkFaultFixture, DownWindowEdges) {
  SimplexLink link(sim, b, 1e8, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.down_window(100_ms, 200_ms);
  sim.at(50_ms, [&] { link.transmit(pkt(1)); });   // before the window
  sim.at(150_ms, [&] { link.transmit(pkt(2)); });  // inside — dies
  sim.at(250_ms, [&] { link.transmit(pkt(3)); });  // after it reopened
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_FALSE(!link.up());
  EXPECT_EQ(sim.stats().total_drops(DropReason::kWirelessDown), 1u);
}

TEST_F(LinkFaultFixture, DuplicateNthDeliversOriginalAndCopy) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.duplicate_nth(2);
  for (std::uint32_t s = 1; s <= 3; ++s) link.transmit(pkt(s));
  sim.run();
  // The original passes in place; the copy is injected a beat later and
  // queues behind whatever is already on the wire.
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 2, 3, 2}));
  EXPECT_EQ(inj.duplicated(), 1u);
  EXPECT_EQ(inj.dropped(), 0u);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kFaultInjected), 0u);
  EXPECT_EQ(link.packets_delivered(), 4u);
}

TEST_F(LinkFaultFixture, DelayNthKillsOriginalAndReplaysLate) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.delay_nth(1, 50_ms);
  for (std::uint32_t s = 1; s <= 3; ++s) link.transmit(pkt(s));
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{2, 3, 1}));
  EXPECT_EQ(inj.delayed(), 1u);
  // The original is a real on-the-wire casualty even though a copy follows.
  EXPECT_EQ(inj.dropped(), 1u);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kFaultInjected), 1u);
  EXPECT_EQ(link.packets_delivered(), 3u);
}

TEST_F(LinkFaultFixture, ReorderNthSwapsWithTheNextPasser) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.reorder_nth(1);
  link.transmit(pkt(1));
  link.transmit(pkt(2));
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(inj.reordered(), 1u);
  EXPECT_EQ(inj.dropped(), 1u);
  EXPECT_EQ(sim.stats().total_drops(DropReason::kFaultInjected), 1u);
}

TEST_F(LinkFaultFixture, ReorderDegradesToDelayWithoutSuccessorTraffic) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  inj.reorder_nth(1, fault::any_packet(), 50_ms);
  link.transmit(pkt(1));
  sim.run();
  // No successor ever passed; the max-hold fallback put the copy back on
  // the wire instead of silently losing it.
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(inj.reordered(), 1u);
  EXPECT_GE(sim.now(), 50_ms);
}

TEST_F(LinkFaultFixture, CopiesAreExemptFromFurtherRules) {
  SimplexLink link(sim, b, 1e6, 1_ms, 10);
  fault::LinkFaultInjector inj(sim, link);
  // A duplicate rule plus an unlimited drop rule on the same stream: the
  // injected copy must bypass the drop rule (copies are passthrough), or
  // faults would cascade into each other.
  inj.duplicate_nth(1);
  inj.drop_matching(fault::any_packet(), 0);
  link.transmit(pkt(1));
  sim.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(inj.duplicated(), 1u);
}

TEST_F(LinkFaultFixture, ReorderingRulesAreDeterministic) {
  auto run_once = [] {
    Simulation fresh_sim(1234);
    Node dst(fresh_sim, 2, "b");
    std::vector<std::uint32_t> got;
    dst.add_address({20, 1});
    dst.register_port(9, [&](PacketPtr p) { got.push_back(p->seq); });
    SimplexLink link(fresh_sim, dst, 1e6, 1_ms, 50);
    fault::LinkFaultInjector inj(fresh_sim, link);
    inj.duplicate_nth(2);
    inj.delay_nth(5, 30_ms);
    inj.reorder_nth(7);
    for (std::uint32_t s = 1; s <= 10; ++s) {
      fresh_sim.at(SimTime::millis(5 * s), [&link, &fresh_sim, s] {
        auto p = make_packet(fresh_sim, {10, 1}, {20, 1}, 100);
        p->dst_port = 9;
        p->seq = s;
        link.transmit(std::move(p));
      });
    }
    fresh_sim.run();
    return got;
  };
  const auto first = run_once();
  EXPECT_EQ(first, run_once());  // byte-for-byte repeatable under the seed
  EXPECT_EQ(first.size(), 11u);  // 10 sent + 1 duplicate, none lost for good
}

// ---------------------------------------------------------------------------
// Agent crash/restart in a full handover scenario.
// ---------------------------------------------------------------------------

struct CrashFixture : ::testing::Test {
  PaperTopologyConfig cfg;
  std::unique_ptr<PaperTopology> topo;
  std::unique_ptr<UdpSink> sink;
  std::unique_ptr<CbrSource> source;

  void build() {
    topo = std::make_unique<PaperTopology>(cfg);
    auto& m = topo->mobile(0);
    sink = std::make_unique<UdpSink>(*m.node, 7000);
    CbrSource::Config c;
    c.dst = m.regional;
    c.dst_port = 7000;
    c.packet_bytes = 160;
    c.interval = 10_ms;
    // Real-time traffic buffers at the NAR under classification, so a NAR
    // crash mid-handover has buffered packets to lose.
    c.tclass = TrafficClass::kRealTime;
    c.flow = 1;
    source = std::make_unique<CbrSource>(topo->cn(), 5000, c);
    source->start(2_s);
    source->stop(16_s);
    topo->start();
  }
};

TEST_F(CrashFixture, NarCrashMidBlackoutFallsBackToReactive) {
  build();
  Simulation& sim = topo->simulation();
  fault::AgentCrashInjector crash(sim, topo->nar_agent());
  // Predisconnect/FBU fire at ~11.1 s and the MH reattaches at ~11.3 s:
  // crash the NAR mid-blackout, while its buffer holds redirected data and
  // the tunneled FBack. Run past the PAR lease lifetime (~20.1 s) so the
  // stranded PAR-side allocation is reclaimed the normal way.
  crash.crash_at(SimTime::from_millis(11'200));
  sim.run_until(22_s);
  EXPECT_EQ(crash.crashes(), 1u);
  EXPECT_EQ(topo->nar_agent().counters().crashes, 1u);
  // The buffered packets died with the process, visibly accounted.
  EXPECT_GT(topo->simulation().stats().total_drops(DropReason::kFaultInjected),
            0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  // The MH noticed the missing FBack and recovered via the reactive FBU.
  const auto& mc = topo->mobile(0).agent->counters();
  EXPECT_EQ(mc.handoffs, 1u);
  EXPECT_EQ(mc.reactive_fbu, 1u);
  EXPECT_EQ(topo->outcomes().count(HandoverOutcome::kReactive), 1u);
  EXPECT_EQ(topo->outcomes().count(HandoverOutcome::kFailed), 0u);
  // Conservation holds across the crash, and traffic flows again after.
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_GT(c.delivered, 0u);
  EXPECT_GT(c.dropped, 0u);
}

TEST_F(CrashFixture, ParCrashCancelsPendingHiTimer) {
  build();
  Simulation& sim = topo->simulation();
  // Black-hole every HAck so the PAR's HI timer keeps rearming, then crash
  // the PAR between retries: the pending timer must die with the context
  // (a stale callback would touch freed state under ASan).
  fault::LinkFaultInjector inj(sim, topo->par_nar_link().b_to_a());
  inj.drop_matching(fault::message_named("HAck"));
  fault::AgentCrashInjector crash(sim, topo->par_agent());
  // Trigger ~10.0 s; first retry at +40 ms, next at +120 ms. Crash between.
  crash.crash_at(SimTime::from_millis(10'100));
  sim.run_until(20_s);
  EXPECT_EQ(topo->par_agent().counters().crashes, 1u);
  // Retries ran before the crash and resumed on the context the MH's own
  // RtSolPr retransmissions rebuilt afterwards; the crashed context's timer
  // died with it (a stale callback would touch freed state under ASan).
  EXPECT_GE(topo->par_agent().counters().hi_rtx, 1u);
  EXPECT_GE(topo->par_agent().counters().dup_rtsolpr, 1u);
  // The MH still completes the handover through the reactive path.
  EXPECT_EQ(topo->mobile(0).agent->counters().handoffs, 1u);
  EXPECT_EQ(topo->outcomes().completed(), topo->outcomes().attempts());
  EXPECT_EQ(topo->outcomes().count(HandoverOutcome::kFailed), 0u);
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
}


// ---------------------------------------------------------------------------
// The printed outcome table, locked byte-exact on the control-loss sweep's
// sample run (bench/fig_ext_control_loss_sweep: 30% loss, seed 3, rtx on).
// ---------------------------------------------------------------------------

TEST(OutcomeTable, ControlLossSampleRunPrintsByteExact) {
  PaperTopologyConfig cfg;
  cfg.seed = 3;
  cfg.bounce = true;
  cfg.scheme.pool_pkts = 60;
  cfg.scheme.request_pkts = 60;
  PaperTopology topo(cfg);
  Simulation& sim = topo.simulation();
  fault::LinkFaultInjector fwd(sim, topo.par_nar_link().a_to_b());
  fault::LinkFaultInjector rev(sim, topo.par_nar_link().b_to_a());
  fwd.bernoulli(0.3, 3 * 7919 + 1, fault::control_only());
  rev.bernoulli(0.3, 3 * 104729 + 2, fault::control_only());

  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.packet_bytes = 160;
  c.interval = 10_ms;
  c.tclass = TrafficClass::kRealTime;
  c.flow = 1;
  CbrSource source(topo.cn(), 5000, c);
  source.start(2_s);
  source.stop(40_s);
  topo.start();
  sim.run_until(50_s);

  EXPECT_EQ(topo.outcomes().format_table("per-attempt outcomes"),
            "per-attempt outcomes\n"
            "  attempts                  2\n"
            "  predictive                2\n"
            "  reactive                  0\n"
            "  failed                    0\n"
            "  cause/none                2\n"
            "  cause/not-anticipated        0\n"
            "  cause/no-prrtadv          0\n"
            "  cause/target-changed        0\n"
            "  cause/no-fback            0\n"
            "  cause/watchdog            0\n"
            "  success rate        100.00%\n"
            "  phase/anticipation   26.20ms (n=2)\n"
            "  phase/fbu-fback     208.23ms (n=2)\n"
            "  phase/blackout      200.00ms (n=2)\n"
            "  phase/total        1213.23ms (n=2)\n");
}

}  // namespace
}  // namespace fhmip
