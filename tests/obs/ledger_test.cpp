#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fault/crash.hpp"
#include "fault/link_fault.hpp"
#include "obs/timeline.hpp"
#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// Property sweep: the packet conservation identity
///   created = consumed + discarded + dropped-by-reason + in-buffer +
///             in-flight
/// must hold at every handover boundary, at periodic mid-run instants, and
/// at end-of-run — under injected link loss, scripted AR crashes, and every
/// buffering configuration in the grid. This is the ledger doing the job it
/// was built for: any unaccounted packet path (a drop without a reason, a
/// buffer exit that never happened) fails here before it can skew a figure.
struct Params {
  double loss;        // Bernoulli loss on the PAR->NAR inter-AR link
  int blackout_ms;    // L2 handoff delay
  std::uint32_t pool; // handoff buffer pool (0 = grants always denied)
  std::uint64_t seed;
  bool crash;         // scripted PAR crashes mid-run
  int lifetime_ms;    // buffer lifetime override (0 = scheme default);
                      // short values expire allocations mid-blackout
};

class LedgerConservation : public ::testing::TestWithParam<Params> {};

TEST_P(LedgerConservation, HoldsAtBoundariesAndTeardown) {
  const Params p = GetParam();
  PaperTopologyConfig cfg;
  cfg.seed = p.seed;
  cfg.bounce = true;
  cfg.wlan.l2_handoff_delay = SimTime::millis(p.blackout_ms);
  cfg.scheme.mode = BufferMode::kDual;
  cfg.scheme.classify = false;
  cfg.scheme.pool_pkts = p.pool;
  cfg.scheme.request_pkts = p.pool;
  if (p.lifetime_ms > 0) {
    cfg.scheme.lifetime = SimTime::millis(p.lifetime_ms);
  }
  PaperTopology topo(cfg);
  Simulation& sim = topo.simulation();

  // Attach before any traffic exists: the ledger counts only what it sees.
  obs::PacketLedger ledger(sim);

  fault::LinkFaultInjector inter_ar(sim, topo.par_nar_link().a_to_b());
  if (p.loss > 0) inter_ar.bernoulli(p.loss, p.seed * 977 + 13);
  fault::AgentCrashInjector crash(sim, topo.par_agent());
  const SimTime leg = topo.leg_duration();
  if (p.crash) {
    // One crash mid-first-handover (buffered packets die as kFaultInjected)
    // and one between handovers (context/route teardown only).
    crash.crash_at(cfg.mobility_start + leg);
    crash.crash_at(cfg.mobility_start + 2 * leg + 500_ms);
  }

  int boundaries = 0;
  sim.timeline().set_resolve_hook([&](const HandoverAttempt&) {
    ++boundaries;
    EXPECT_TRUE(ledger.balanced())
        << "at handover boundary " << boundaries << "\n" << ledger.format();
    ledger.audit("handover boundary");
  });

  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.packet_bytes = 160;
  c.interval = 10_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(2_s);
  const SimTime stop = cfg.mobility_start + 3 * leg;
  src.stop(stop);
  // "At any sim time": audit the identity once a second while running.
  const SimTime end = stop + 5_s;
  for (SimTime t = 1_s; t < end; t += 1_s) {
    sim.at(t, [&ledger] { ledger.audit("periodic tick"); });
  }
  topo.start();
  sim.run_until(end);

  EXPECT_GE(boundaries, 3) << "three legs should resolve three attempts";
  EXPECT_TRUE(ledger.balanced()) << ledger.format();
  EXPECT_EQ(ledger.violations(), 0u);
  EXPECT_GT(ledger.created(), 0u);
  // Quiesced: nothing may still sit in a handoff buffer.
  EXPECT_EQ(ledger.in_buffer(), 0u) << ledger.format();

  // Every DropReason bucket agrees with the central stats hub: the trace
  // emission and the stats recording at each drop site are one event.
  for (int i = 0; i < kNumDropReasons; ++i) {
    const auto reason = static_cast<DropReason>(i);
    EXPECT_EQ(ledger.dropped(reason), sim.stats().total_drops(reason))
        << to_string(reason);
  }
  if (p.crash) {
    EXPECT_EQ(crash.crashes(), 2u);
  }
  if (p.lifetime_ms > 0) {
    // The expiry-heavy config must actually exercise the lifetime-expiry
    // drain: expired buffer contents land in their dedicated bucket (and
    // by the loop above, agree with the stats hub).
    EXPECT_GT(ledger.dropped(DropReason::kBufferExpired), 0u);
  }
  if (p.loss > 0) {
    // The injector's own count and the fault-injected ledger bucket cover
    // the same kills (crashes add buffered-packet kills on top).
    EXPECT_GT(inter_ar.dropped(), 0u);
    EXPECT_GE(ledger.dropped(DropReason::kFaultInjected),
              inter_ar.dropped());
  }

  // Flow-level conservation still holds on top of the uid-level ledger.
  const FlowCounters& fc = sim.stats().flow(1);
  EXPECT_GT(fc.sent, 0u);
  EXPECT_EQ(fc.sent, fc.delivered + fc.dropped);
}

INSTANTIATE_TEST_SUITE_P(
    LossBlackoutPoolGrid, LedgerConservation,
    ::testing::Values(Params{0.0, 200, 40, 1, false, 0},   // clean baseline
                      Params{0.0, 200, 40, 1, true, 0},    // crashes only
                      Params{0.05, 200, 40, 2, false, 0},  // loss only
                      Params{0.05, 100, 10, 3, true, 0},   // loss + crash,
                                                           // small pool
                      Params{0.02, 300, 0, 4, true, 0},    // no buffer grants
                      Params{0.10, 300, 20, 5, false, 0},  // heavy loss, long
                                                           // blackout
                      Params{0.0, 400, 40, 6, false, 1200} // expiry-heavy:
                                                           // allocations die
                                                           // mid-blackout
                      ));

/// The ledger must also balance when it is attached alongside other sinks
/// (file writers, test collectors) — multi-sink fan-out does not perturb
/// the counts.
TEST(LedgerConservation, BalancesAlongsideOtherSinks) {
  PaperTopologyConfig cfg;
  cfg.scheme.classify = false;
  cfg.scheme.pool_pkts = 40;
  cfg.scheme.request_pkts = 40;
  PaperTopology topo(cfg);
  Simulation& sim = topo.simulation();
  obs::PacketLedger ledger(sim);
  std::uint64_t events_seen = 0;
  sim.trace().add_sink([&](const TraceEvent&) { ++events_seen; });

  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.interval = 10_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(2_s);
  src.stop(16_s);
  topo.start();
  sim.run_until(20_s);

  EXPECT_GT(events_seen, 0u);
  EXPECT_TRUE(ledger.balanced()) << ledger.format();
  EXPECT_EQ(ledger.in_buffer(), 0u);
  EXPECT_EQ(ledger.violations(), 0u);
}

}  // namespace
}  // namespace fhmip
