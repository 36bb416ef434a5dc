#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;
using obs::HandoverTimeline;
using obs::HoEventKind;

// ---------------------------------------------------------------------------
// Pure unit tests: records fed by hand, phases checked against arithmetic.
// ---------------------------------------------------------------------------

TEST(HandoverTimeline, PhasesMatchHandComputedSpans) {
  HandoverTimeline tl;
  const MhId mh = 7;
  tl.record(SimTime::millis(1000), mh, HoEventKind::kL2Trigger, "mh");
  tl.record(SimTime::millis(1050), mh, HoEventKind::kPrRtAdvRecv, "mh");
  tl.record(SimTime::millis(1100), mh, HoEventKind::kFbuSent, "mh");
  tl.record(SimTime::millis(1130), mh, HoEventKind::kFbackRecv, "mh");
  tl.record(SimTime::millis(1200), mh, HoEventKind::kBlackoutStart, "mh");
  tl.record(SimTime::millis(1400), mh, HoEventKind::kBlackoutEnd, "mh");
  const PhaseBreakdown p =
      tl.resolve(SimTime::millis(1450), mh, HandoverOutcome::kPredictive,
                 HandoverCause::kNone)
          .phases;
  ASSERT_TRUE(p.has_anticipation);
  EXPECT_EQ(p.anticipation, SimTime::millis(50));  // PrRtAdv - trigger
  ASSERT_TRUE(p.has_fbu_fback);
  EXPECT_EQ(p.fbu_fback, SimTime::millis(30));  // FBack - first FBU
  ASSERT_TRUE(p.has_blackout);
  EXPECT_EQ(p.blackout, SimTime::millis(200));  // attach - detach
  EXPECT_EQ(p.total, SimTime::millis(450));  // resolve - attempt start

  ASSERT_EQ(tl.attempts().size(), 1u);
  const HandoverAttempt& a = tl.attempts()[0];
  EXPECT_EQ(a.mh, mh);
  EXPECT_EQ(a.ordinal, 1u);
  EXPECT_EQ(a.outcome, HandoverOutcome::kPredictive);
  EXPECT_EQ(a.started, SimTime::millis(1000));
  EXPECT_EQ(a.resolved, SimTime::millis(1450));
}

TEST(HandoverTimeline, ReactiveAttemptHasNoAnticipationSpan) {
  HandoverTimeline tl;
  const MhId mh = 9;
  // §2.3.2: no trigger/PrRtAdv; the FBU goes via the new link after attach.
  tl.record(SimTime::millis(2000), mh, HoEventKind::kBlackoutStart, "mh");
  tl.record(SimTime::millis(2200), mh, HoEventKind::kBlackoutEnd, "mh");
  tl.record(SimTime::millis(2210), mh, HoEventKind::kReactiveFbuSent, "mh");
  tl.record(SimTime::millis(2240), mh, HoEventKind::kFbackRecv, "mh");
  const PhaseBreakdown p =
      tl.resolve(SimTime::millis(2240), mh, HandoverOutcome::kReactive,
                 HandoverCause::kNotAnticipated)
          .phases;
  EXPECT_FALSE(p.has_anticipation);
  ASSERT_TRUE(p.has_fbu_fback);
  EXPECT_EQ(p.fbu_fback, SimTime::millis(30));
  ASSERT_TRUE(p.has_blackout);
  EXPECT_EQ(p.blackout, SimTime::millis(200));
  EXPECT_EQ(p.total, SimTime::millis(240));
}

TEST(HandoverTimeline, AttemptsAreOrdinalNumberedPerMh) {
  HandoverTimeline tl;
  tl.record(1_s, 1, HoEventKind::kL2Trigger, "a");
  tl.resolve(2_s, 1, HandoverOutcome::kPredictive, HandoverCause::kNone);
  tl.record(3_s, 2, HoEventKind::kL2Trigger, "b");
  tl.resolve(4_s, 2, HandoverOutcome::kFailed, HandoverCause::kNoFback);
  tl.record(5_s, 1, HoEventKind::kL2Trigger, "a");
  tl.resolve(6_s, 1, HandoverOutcome::kReactive, HandoverCause::kNoPrRtAdv);

  const auto for_mh1 = tl.attempts_for(1);
  ASSERT_EQ(for_mh1.size(), 2u);
  EXPECT_EQ(for_mh1[0].ordinal, 1u);
  EXPECT_EQ(for_mh1[1].ordinal, 2u);
  const auto for_mh2 = tl.attempts_for(2);
  ASSERT_EQ(for_mh2.size(), 1u);
  EXPECT_EQ(for_mh2[0].ordinal, 1u);
  EXPECT_EQ(for_mh2[0].cause, HandoverCause::kNoFback);
}

TEST(HandoverTimeline, StrayEventsOutsideAnAttemptGetOrdinalZero) {
  HandoverTimeline tl;
  tl.record(1_s, 5, HoEventKind::kL2Trigger, "mh");
  tl.resolve(2_s, 5, HandoverOutcome::kPredictive, HandoverCause::kNone);
  // A drain tail after resolution belongs to no attempt.
  tl.record(3_s, 5, HoEventKind::kDrainEnd, "par");
  const auto& recs = tl.records();
  ASSERT_EQ(recs.size(), 3u);  // trigger, resolved, stray drain
  EXPECT_EQ(recs.back().attempt, 0u);
  EXPECT_EQ(recs.back().kind, HoEventKind::kDrainEnd);
}

TEST(HandoverTimeline, ResolveWithoutRecordsStillClosesAnAttempt) {
  // Unanticipated reattachment with no observed events: resolve opens and
  // closes a degenerate attempt so the outcome is still counted.
  HandoverTimeline tl;
  const PhaseBreakdown p =
      tl.resolve(4_s, 3, HandoverOutcome::kFailed, HandoverCause::kNoFback)
          .phases;
  EXPECT_EQ(p.total, SimTime{});
  EXPECT_EQ(tl.attempts().size(), 1u);
}

TEST(HandoverTimeline, RegistryGetsPhaseHistogramsAndOutcomeCounters) {
  obs::MetricsRegistry reg;
  HandoverTimeline tl;
  tl.set_registry(reg);
  tl.record(1_s, 1, HoEventKind::kL2Trigger, "mh");
  tl.record(SimTime::millis(1040), 1, HoEventKind::kPrRtAdvRecv, "mh");
  tl.record(SimTime::millis(1100), 1, HoEventKind::kBlackoutStart, "mh");
  tl.record(SimTime::millis(1300), 1, HoEventKind::kBlackoutEnd, "mh");
  tl.resolve(SimTime::millis(1350), 1, HandoverOutcome::kPredictive,
             HandoverCause::kNone);

  EXPECT_EQ(reg.find_counter("handover/outcome/predictive")->value(), 1u);
  EXPECT_EQ(reg.find_counter("handover/outcome/reactive")->value(), 0u);
  const obs::Histogram* blackout =
      reg.find_histogram("handover/phase/blackout_ms");
  ASSERT_NE(blackout, nullptr);
  EXPECT_EQ(blackout->count(), 1u);
  EXPECT_DOUBLE_EQ(blackout->sum(), 200.0);
  // 200 ms sits exactly on a bucket bound and must land in that bucket.
  const auto& bounds = blackout->bounds();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(blackout->bucket_count(i), bounds[i] == 200.0 ? 1u : 0u) << i;
  }
  // No anticipation-less spans leaked into the anticipation histogram.
  EXPECT_EQ(reg.find_histogram("handover/phase/anticipation_ms")->count(), 1u);
  EXPECT_EQ(reg.find_histogram("handover/phase/fbu_fback_ms")->count(), 0u);
}

TEST(HandoverTimeline, FormatTimelineIsOneDeterministicLinePerRecord) {
  HandoverTimeline tl;
  tl.record(SimTime::millis(2100), 100, HoEventKind::kL2Trigger, "mh1");
  tl.record(SimTime::millis(2200), 100, HoEventKind::kFbuSent, "mh1");
  tl.resolve(SimTime::millis(2500), 100, HandoverOutcome::kPredictive,
             HandoverCause::kNone);
  EXPECT_EQ(tl.format_timeline(),
            "T 2.100000 mh 100 a1 l2-trigger @mh1\n"
            "T 2.200000 mh 100 a1 fbu-sent @mh1\n"
            "T 2.500000 mh 100 a1 resolved @predictive\n");
}

TEST(HandoverTimeline, RecordCapBoundsTheLogButNotTheAttempts) {
  HandoverTimeline tl;
  tl.set_record_cap(4);
  for (int i = 0; i < 20; ++i) {
    tl.record(SimTime::millis(100 * (i + 1)), 7, HoEventKind::kL2Trigger,
              "mh7");
    tl.resolve(SimTime::millis(100 * (i + 1) + 50), 7,
               HandoverOutcome::kPredictive, HandoverCause::kNone);
  }
  // 40 records total; the log trims to the cap amortized (grows to 2*cap,
  // then drops the oldest half), so at most 2*cap survive and everything
  // else is accounted as dropped.
  EXPECT_LE(tl.records().size(), 8u);
  EXPECT_GE(tl.records().size(), 4u);
  EXPECT_EQ(tl.records().size() + tl.dropped_records(), 40u);
  // Survivors are the most recent records, still in order.
  EXPECT_EQ(tl.records().back().kind, HoEventKind::kResolved);
  for (std::size_t i = 1; i < tl.records().size(); ++i)
    EXPECT_LE(tl.records()[i - 1].at, tl.records()[i].at);
  // Derived attempts are untouched by the trim.
  EXPECT_EQ(tl.attempts().size(), 20u);
  EXPECT_EQ(tl.attempts().back().ordinal, 20u);
}

TEST(HandoverTimeline, ZeroRecordCapKeepsEverything) {
  HandoverTimeline tl;
  for (int i = 0; i < 100; ++i)
    tl.record(SimTime::millis(i), 1, HoEventKind::kFbuSent, "mh1");
  EXPECT_EQ(tl.records().size(), 100u);
  EXPECT_EQ(tl.dropped_records(), 0u);
}

// ---------------------------------------------------------------------------
// Full-stack tests: the agents drive the timeline through a real handover.
// ---------------------------------------------------------------------------

/// Runs one PAR->NAR pass on the Figure 4.1 network and returns the topology
/// after the run has quiesced.
std::unique_ptr<PaperTopology> run_one_handover(PaperTopologyConfig cfg) {
  auto topo = std::make_unique<PaperTopology>(cfg);
  auto& m = topo->mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.interval = 10_ms;
  c.flow = 1;
  CbrSource src(topo->cn(), 5000, c);
  src.start(2_s);
  src.stop(16_s);
  topo->start();
  topo->simulation().run_until(20_s);
  return topo;
}

TEST(HandoverTimelineSim, FixedBlackoutContributesExactlyItsConfiguredSpan) {
  PaperTopologyConfig cfg;  // WlanConfig default: 200 ms L2 handoff
  auto topo = run_one_handover(cfg);
  const MhId mh = topo->mobile(0).node->id();

  const auto attempts = topo->simulation().timeline().attempts_for(mh);
  ASSERT_EQ(attempts.size(), 1u);
  const HandoverAttempt& a = attempts[0];
  EXPECT_EQ(a.outcome, HandoverOutcome::kPredictive);
  ASSERT_TRUE(a.phases.has_blackout);
  // The L2 blackout is a fixed scheduled delay; the derived phase must be
  // exact, not approximate.
  EXPECT_EQ(a.phases.blackout, SimTime::millis(200));
  ASSERT_TRUE(a.phases.has_anticipation);
  EXPECT_GT(a.phases.anticipation, SimTime{});
  EXPECT_GE(a.phases.total, a.phases.blackout);

  // The same numbers reached the recorder and the metrics registry.
  ASSERT_EQ(topo->outcomes().history().size(), 1u);
  EXPECT_EQ(topo->outcomes().history()[0].phases.blackout,
            SimTime::millis(200));
  const auto& reg = topo->simulation().metrics();
  EXPECT_EQ(reg.find_counter("handover/outcome/predictive")->value(), 1u);
  const obs::Histogram* h = reg.find_histogram("handover/phase/blackout_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 200.0);
}

TEST(HandoverTimelineSim, PredictiveChoreographyEventsAppearInOrder) {
  auto topo = run_one_handover(PaperTopologyConfig{});
  const MhId mh = topo->mobile(0).node->id();
  std::vector<HoEventKind> kinds;
  for (const auto& r : topo->simulation().timeline().records()) {
    if (r.mh == mh) kinds.push_back(r.kind);
  }
  // The predictive choreography must appear as a subsequence, in order:
  // anticipation (RtSolPr -> HI/HAck -> PrRtAdv), FBU on the old link, the
  // PAR buffering during the blackout, then FNA -> BF -> drain on the new
  // link, with the FBack reaching the MH after reattachment.
  const HoEventKind expected[] = {
      HoEventKind::kL2Trigger,     HoEventKind::kRtSolPrSent,
      HoEventKind::kHiSent,        HoEventKind::kHackRecv,
      HoEventKind::kPrRtAdvRecv,   HoEventKind::kFbuSent,
      HoEventKind::kBufferFill,    HoEventKind::kBlackoutStart,
      HoEventKind::kBlackoutEnd,   HoEventKind::kFnaSent,
      HoEventKind::kBfSent,        HoEventKind::kDrainStart,
      HoEventKind::kDrainEnd,      HoEventKind::kFbackRecv,
      HoEventKind::kResolved,
  };
  std::size_t want = 0;
  for (const HoEventKind k : kinds) {
    if (want < std::size(expected) && k == expected[want]) ++want;
  }
  EXPECT_EQ(want, std::size(expected))
      << "matched " << want << " of " << std::size(expected)
      << " choreography steps\n"
      << topo->simulation().timeline().format_timeline();
  // A predictive run sends no reactive FBU.
  for (const HoEventKind k : kinds) {
    EXPECT_NE(k, HoEventKind::kReactiveFbuSent);
  }
}

TEST(HandoverTimelineSim, NonAnticipatedHandoverRunsTheReactiveSequence) {
  PaperTopologyConfig cfg;
  cfg.anticipate = false;  // §2.3.2: FBU via the new link after attachment
  auto topo = run_one_handover(cfg);
  const MhId mh = topo->mobile(0).node->id();

  const auto attempts = topo->simulation().timeline().attempts_for(mh);
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].outcome, HandoverOutcome::kReactive);
  EXPECT_EQ(attempts[0].cause, HandoverCause::kNotAnticipated);
  EXPECT_FALSE(attempts[0].phases.has_anticipation);
  ASSERT_TRUE(attempts[0].phases.has_blackout);
  EXPECT_EQ(attempts[0].phases.blackout, SimTime::millis(200));
  ASSERT_TRUE(attempts[0].phases.has_fbu_fback);
  EXPECT_GT(attempts[0].phases.fbu_fback, SimTime{});

  std::vector<HoEventKind> kinds;
  for (const auto& r : topo->simulation().timeline().records()) {
    if (r.mh == mh) kinds.push_back(r.kind);
  }
  const HoEventKind expected[] = {
      HoEventKind::kBlackoutStart, HoEventKind::kBlackoutEnd,
      HoEventKind::kReactiveFbuSent, HoEventKind::kFbackRecv,
      HoEventKind::kResolved,
  };
  std::size_t want = 0;
  for (const HoEventKind k : kinds) {
    if (want < std::size(expected) && k == expected[want]) ++want;
  }
  EXPECT_EQ(want, std::size(expected))
      << topo->simulation().timeline().format_timeline();
  // No anticipated-path control was exchanged.
  for (const HoEventKind k : kinds) {
    EXPECT_NE(k, HoEventKind::kRtSolPrSent);
    EXPECT_NE(k, HoEventKind::kFbuSent);
  }
  EXPECT_EQ(topo->simulation()
                .metrics()
                .find_counter("handover/outcome/reactive")
                ->value(),
            1u);
}

}  // namespace
}  // namespace fhmip
