#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>

#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// Property sweep: for every buffering mode, classification setting and
/// seed, a full handover run must satisfy the conservation and cleanliness
/// invariants below. This is the safety net for the redirect/buffer/drain
/// state machine.
///
/// gtest has no printer for Params, so ctest names carry its raw bytes: the
/// padding is spelled out as members, or the names would print whatever the
/// stack held there. Earlier builds left it uninitialised and two rows' names
/// picked up the bytes found there; `tag` pins those three bytes so each row
/// keeps the name it was tracked under. It plays no part in the run.
struct Params {
  constexpr Params(BufferMode m, bool c, std::uint64_t s, std::uint32_t p,
                   std::uint32_t tag = 0)
      : mode(m),
        classify(c),
        reserved0{static_cast<std::uint8_t>(tag >> 16),
                  static_cast<std::uint8_t>(tag >> 8),
                  static_cast<std::uint8_t>(tag)},
        seed(s),
        pool(p) {}
  BufferMode mode;
  bool classify;
  std::uint8_t reserved0[3];
  std::uint64_t seed;
  std::uint32_t pool;
  std::uint32_t reserved1 = 0;
};
static_assert(sizeof(Params) == 24 &&
              std::has_unique_object_representations_v<Params>);

class HandoffInvariants : public ::testing::TestWithParam<Params> {};

TEST_P(HandoffInvariants, ConservationAndCleanTeardown) {
  const Params param = GetParam();
  PaperTopologyConfig cfg;
  cfg.seed = param.seed;
  cfg.bounce = true;
  cfg.scheme.mode = param.mode;
  cfg.scheme.classify = param.classify;
  cfg.scheme.pool_pkts = param.pool;
  cfg.scheme.request_pkts = param.pool;
  PaperTopology topo(cfg);

  auto& m = topo.mobile(0);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<CbrSource>> sources;
  const TrafficClass classes[] = {TrafficClass::kRealTime,
                                  TrafficClass::kHighPriority,
                                  TrafficClass::kBestEffort};
  for (int i = 0; i < 3; ++i) {
    const std::uint16_t port = static_cast<std::uint16_t>(7000 + i);
    sinks.push_back(std::make_unique<UdpSink>(*m.node, port));
    CbrSource::Config c;
    c.dst = m.regional;
    c.dst_port = port;
    c.packet_bytes = 160;
    c.interval = 10_ms;
    c.tclass = classes[i];
    c.flow = i + 1;
    sources.push_back(std::make_unique<CbrSource>(
        topo.cn(), static_cast<std::uint16_t>(5000 + i), c));
    sources.back()->start(2_s);
  }
  topo.start();

  Simulation& sim = topo.simulation();
  const SimTime leg = topo.leg_duration();
  // Three legs -> three handovers, then quiesce.
  for (auto& s : sources) s->stop(cfg.mobility_start + 3 * leg);
  sim.run_until(cfg.mobility_start + 3 * leg + 5_s);

  // Invariant 1: packet conservation per flow — every sent packet was
  // delivered or dropped with a recorded reason; nothing leaked.
  for (FlowId f = 1; f <= 3; ++f) {
    const FlowCounters& c = sim.stats().flow(f);
    EXPECT_GT(c.sent, 0u);
    EXPECT_EQ(c.sent, c.delivered + c.dropped)
        << "flow " << f << " mode " << to_string(param.mode);
  }

  // Invariant 2: all buffer leases returned to the pools.
  EXPECT_EQ(topo.par_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo.nar_agent().buffers().leased(), 0u);

  // Invariant 3: contexts torn down.
  EXPECT_FALSE(topo.par_agent().has_par_context(m.node->id()));
  EXPECT_FALSE(topo.nar_agent().has_par_context(m.node->id()));

  // Invariant 4: with any buffering enabled, delivery strictly dominates
  // the no-buffer blackout floor (3 flows x ~20 packets x 3 handovers).
  if (param.mode != BufferMode::kNone && param.pool >= 20) {
    EXPECT_LT(sim.stats().totals().dropped, 180u);
  }

  // Invariant 5: every drained packet was previously buffered.
  const auto& par = topo.par_agent().counters();
  const auto& nar = topo.nar_agent().counters();
  EXPECT_LE(par.drained, par.buffered_local);
  EXPECT_LE(nar.drained, nar.buffered_local);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, HandoffInvariants,
    ::testing::Values(
        Params{BufferMode::kNone, false, 1, 20},
        Params{BufferMode::kNone, true, 2, 20},
        Params{BufferMode::kNarOnly, false, 1, 20},
        Params{BufferMode::kNarOnly, true, 3, 40},
        Params{BufferMode::kParOnly, false, 2, 20},
        Params{BufferMode::kParOnly, true, 1, 40},
        Params{BufferMode::kDual, false, 1, 20, 0x73745F},
        Params{BufferMode::kDual, true, 1, 20},
        Params{BufferMode::kDual, true, 2, 40},
        Params{BufferMode::kDual, false, 3, 10, 0x00C0EF},
        Params{BufferMode::kDual, true, 4, 10},
        Params{BufferMode::kDual, true, 5, 0}));

/// Sweep the L2 blackout across the measured 60-400 ms range ([13] in the
/// thesis): loss without buffering scales with the blackout; loss with the
/// proposed scheme stays near zero.
class BlackoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlackoutSweep, BufferingAbsorbsAnyBlackout) {
  const int blackout_ms = GetParam();
  for (const bool buffering : {false, true}) {
    PaperTopologyConfig cfg;
    cfg.wlan.l2_handoff_delay = SimTime::millis(blackout_ms);
    cfg.scheme.mode = buffering ? BufferMode::kDual : BufferMode::kNone;
    cfg.scheme.classify = false;
    cfg.scheme.pool_pkts = 60;
    cfg.scheme.request_pkts = 60;
    PaperTopology topo(cfg);
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
    topo.simulation().run_until(20_s);
    const FlowCounters& fc = topo.simulation().stats().flow(1);
    if (buffering) {
      EXPECT_LE(fc.dropped, 1u) << blackout_ms << "ms";
    } else {
      // ~blackout/10ms packets die.
      EXPECT_GE(fc.dropped, static_cast<std::uint64_t>(blackout_ms / 10))
          << blackout_ms << "ms";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeasuredRange, BlackoutSweep,
                         ::testing::Values(60, 100, 200, 300, 400));

/// Speed sweep: anticipation must hold from pedestrian to vehicular speeds
/// (the 12 m overlap at 10 m/s gives >= 1 s of warning; faster movers have
/// less).
class SpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpeedSweep, HandoverCompletesAtAnySpeed) {
  PaperTopologyConfig cfg;
  cfg.speed_mps = GetParam();
  cfg.scheme.pool_pkts = 60;
  cfg.scheme.request_pkts = 60;
  cfg.scheme.classify = false;
  PaperTopology topo(cfg);
  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.interval = 10_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(1_s);
  const SimTime crossing =
      SimTime::from_seconds(220.0 / GetParam()) + SimTime::seconds(2);
  src.stop(crossing);
  topo.start();
  topo.simulation().run_until(crossing + 5_s);
  EXPECT_EQ(m.agent->counters().handoffs, 1u) << GetParam();
  const FlowCounters& fc = topo.simulation().stats().flow(1);
  EXPECT_EQ(fc.sent, fc.delivered + fc.dropped);
  // The anticipated, buffered handover loses (almost) nothing even at
  // vehicular speed.
  EXPECT_LE(fc.dropped, 2u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Speeds, SpeedSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 15.0, 20.0));

}  // namespace
}  // namespace fhmip
