#include <gtest/gtest.h>

#include "fault/link_fault.hpp"
#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// Adverse-condition behaviour of the handover state machines: duplicate
/// and stray control messages, expiring allocations, lossy control
/// channels, and randomized blackouts.
struct RobustnessFixture : ::testing::Test {
  PaperTopologyConfig cfg;
  std::unique_ptr<PaperTopology> topo;
  std::unique_ptr<UdpSink> sink;
  std::unique_ptr<CbrSource> source;

  void build(TrafficClass cls = TrafficClass::kHighPriority) {
    topo = std::make_unique<PaperTopology>(cfg);
    auto& m = topo->mobile(0);
    sink = std::make_unique<UdpSink>(*m.node, 7000);
    CbrSource::Config c;
    c.dst = m.regional;
    c.dst_port = 7000;
    c.packet_bytes = 160;
    c.interval = 10_ms;
    c.tclass = cls;
    c.flow = 1;
    source = std::make_unique<CbrSource>(topo->cn(), 5000, c);
    source->start(2_s);
    source->stop(16_s);
    topo->start();
  }

  MhId mh_id() { return topo->mobile(0).node->id(); }

  void send_to_par(MessageVariant m) {
    auto& mobile = topo->mobile(0);
    mobile.node->send(make_control(topo->simulation(),
                                   mobile.agent->pcoa(),
                                   topo->par_agent().address(), std::move(m)));
  }
};

TEST_F(RobustnessFixture, DuplicateFnaAndBfAreIdempotent) {
  build();
  Simulation& sim = topo->simulation();
  // Let the handover complete, then replay FNA+BF and a stray BF.
  sim.run_until(12_s);
  FnaMsg fna;
  fna.mh = mh_id();
  fna.has_bf = true;
  auto& mobile = topo->mobile(0);
  mobile.node->send(make_control(sim, mobile.agent->pcoa(),
                                 topo->nar_agent().address(), fna));
  BfMsg bf;
  bf.mh = mh_id();
  mobile.node->send(make_control(sim, mobile.agent->pcoa(),
                                 topo->par_agent().address(), bf));
  sim.run_until(20_s);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
}

TEST_F(RobustnessFixture, StrayControlForUnknownHostIgnored) {
  build();
  Simulation& sim = topo->simulation();
  sim.run_until(5_s);
  FbuMsg fbu;
  fbu.mh = 9999;  // nobody
  fbu.pcoa = make_coa(nets::kPar, 9999);
  send_to_par(fbu);
  FnaMsg fna;
  fna.mh = 9999;
  fna.has_bf = true;
  send_to_par(fna);
  BufferFullMsg full;
  full.mh = 9999;
  send_to_par(full);
  sim.run_until(20_s);
  EXPECT_EQ(sim.stats().flow(1).dropped, 0u);
  // The stray FBU did create a context (non-anticipated path needs that),
  // but no buffers leaked.
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
}

TEST_F(RobustnessFixture, ExpiredAllocationFlushesBufferedPackets) {
  // Request a very short buffer lifetime: the allocation expires while the
  // MH is still detached, and the buffered packets are accounted as
  // kBufferExpired, not leaked.
  cfg.scheme.lifetime = SimTime::from_millis(1'200);
  // Trigger at ~10 s, FBU ~11.1 s: 1.2 s lifetime dies mid-blackout.
  build();
  Simulation& sim = topo->simulation();
  sim.run_until(20_s);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_GT(c.drops_by_reason[static_cast<int>(DropReason::kBufferExpired)] +
                c.drops_by_reason[static_cast<int>(DropReason::kUnattached)],
            0u);
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
}

TEST_F(RobustnessFixture, RealTimeEvictionAccounting) {
  // Flood real-time traffic so the NAR lease overflows and drop-front
  // evictions kick in; every eviction must be recorded as kBufferFrontDrop.
  cfg.scheme.pool_pkts = 10;
  cfg.scheme.request_pkts = 10;
  build(TrafficClass::kRealTime);
  Simulation& sim = topo->simulation();
  sim.run_until(20_s);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_GT(c.drops_by_reason[static_cast<int>(DropReason::kBufferFrontDrop)],
            0u);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  // The freshest real-time packets survive: the NAR drained its lease.
  EXPECT_EQ(topo->nar_agent().counters().drained, 10u);
}

TEST_F(RobustnessFixture, SampledBlackoutsKeepInvariants) {
  cfg.wlan.l2_phase_model = L2PhaseModel{};  // 60-400 ms random blackouts
  cfg.bounce = true;
  cfg.scheme.pool_pkts = 60;
  cfg.scheme.request_pkts = 60;
  build();
  Simulation& sim = topo->simulation();
  sim.run_until(cfg.mobility_start + topo->leg_duration() * 4);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_GE(topo->mobile(0).agent->counters().handoffs, 3u);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_EQ(c.dropped, 0u);  // 60-packet lease covers even 400 ms at 100 p/s
}

TEST_F(RobustnessFixture, NarAllocationReclaimedWhenFnaNeverArrives) {
  // The mirror image of PAR-side retry exhaustion: HI/HAck completed, so
  // the NAR holds a granted allocation with redirected packets in it — and
  // then the MH's FNA (every retry of it) is black-holed on the new radio
  // link. The NAR must reclaim the orphaned grant on its own (lifetime
  // expiry, with the lease reaper as backstop), flushing the contents into
  // an accounted drop bucket rather than leaking the lease.
  build();
  Simulation& sim = topo->simulation();
  fault::LinkFaultInjector up_inj(
      sim, *topo->wlan().uplink(topo->ap_nar().id(), mh_id()));
  up_inj.drop_matching(fault::message_named("FNA"));
  // Handover at ~11 s, NAR lifetime ~10 s by default: run past expiry plus
  // the lease grace so every reclamation path has had its chance.
  sim.run_until(25_s);
  EXPECT_GT(up_inj.dropped(), 1u);  // the FNA and its retries all died
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u)
      << "orphaned NAR allocation leaked";
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  // The buffered redirected packets (and tunneled FBack) were drained into
  // accounted buckets, so conservation still closes.
  EXPECT_GT(sim.stats().total_drops(DropReason::kBufferExpired) +
                sim.stats().total_drops(DropReason::kLeaseReclaimed),
            0u);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  // The attempt itself still settles (reactive repair or typed failure) —
  // never wedged.
  EXPECT_EQ(topo->outcomes().attempts(),
            topo->outcomes().completed() +
                topo->outcomes().count(HandoverOutcome::kFailed));
  EXPECT_GE(topo->outcomes().attempts(), 1u);
}

TEST_F(RobustnessFixture, RetransmittedHiDoesNotDoubleAllocate) {
  // Kill the first HAck on the inter-AR link: the PAR retransmits the HI,
  // so the NAR sees the same transaction twice. It must re-elicit the
  // cached HAck, not tear down and re-allocate the buffer the first copy
  // built (which would flush any packets already buffered).
  build();
  Simulation& sim = topo->simulation();
  fault::LinkFaultInjector inj(sim, topo->par_nar_link().b_to_a());
  inj.drop_nth(1, fault::message_named("HAck"));
  sim.run_until(20_s);
  const auto& par = topo->par_agent().counters();
  const auto& nar = topo->nar_agent().counters();
  EXPECT_EQ(par.hi_rtx, 1u);
  EXPECT_EQ(nar.hi_received, 2u);
  EXPECT_EQ(nar.dup_hi, 1u);
  EXPECT_EQ(nar.hack_sent, 2u);
  // Exactly one grant was handed out and the handover still completes as a
  // normal predictive one with no losses.
  EXPECT_EQ(topo->outcomes().count(HandoverOutcome::kPredictive), 1u);
  EXPECT_EQ(topo->outcomes().count(HandoverOutcome::kFailed), 0u);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
}

TEST_F(RobustnessFixture, HiExhaustionReportsAnEmptyGrant) {
  // Every HI (first copy and all retries) dies on the PAR->NAR link. The
  // PAR gives up after its retry cap and advertises an empty grant: no
  // lease is left at either router, the host hands off reactively, and
  // only the blackout's packets are lost.
  build();
  Simulation& sim = topo->simulation();
  fault::LinkFaultInjector inj(sim, topo->par_nar_link().a_to_b());
  inj.drop_matching(fault::message_named("HI"));
  sim.run_until(20_s);
  const auto& par = topo->par_agent().counters();
  EXPECT_EQ(par.hi_sent, 1u);
  EXPECT_EQ(par.hi_rtx, 4u);
  EXPECT_EQ(par.hi_exhausted, 1u);
  EXPECT_EQ(topo->nar_agent().counters().hi_received, 0u);
  const BufferGrant& g = topo->mobile(0).agent->last_grant();
  EXPECT_FALSE(g.nar_ok);
  EXPECT_FALSE(g.par_ok);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_EQ(c.sent, 1400u);
  EXPECT_EQ(c.delivered, 1380u);
  EXPECT_EQ(c.dropped, 20u);
  EXPECT_EQ(c.drops_by_reason[static_cast<int>(DropReason::kUnattached)], 10u);
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
  const auto& history = topo->outcomes().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].outcome, HandoverOutcome::kReactive);
  EXPECT_EQ(history[0].cause, HandoverCause::kNoFback);
}

TEST_F(RobustnessFixture, LossyInterArLinkDegradesGracefully) {
  // 30% loss on the inter-AR link randomly kills HI/HAck/BF messages and
  // tunneled data: handovers degrade (lost grants, lost drains) but the
  // state machines must neither leak leases nor break conservation.
  cfg.bounce = true;
  build();
  Simulation& sim = topo->simulation();
  topo->par_nar_link().a_to_b().set_loss_rate(0.3);
  topo->par_nar_link().b_to_a().set_loss_rate(0.3);
  // End early in leg 5, before its anticipation window opens (~10 s into
  // the leg), so no handover is legitimately in progress at shutdown.
  sim.run_until(cfg.mobility_start + topo->leg_duration() * 4 + 5_s);
  const FlowCounters& c = sim.stats().flow(1);
  EXPECT_GT(c.delivered, 0u);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_GE(topo->mobile(0).agent->counters().handoffs, 3u);
  EXPECT_EQ(topo->par_agent().buffers().leased(), 0u);
  EXPECT_EQ(topo->nar_agent().buffers().leased(), 0u);
  // Degrading is not the same as stalling: the retransmission/fallback
  // machinery must carry every attempt to completion despite 30% control
  // loss on the negotiation path (predictively or via the reactive FBU).
  const HandoverOutcomeRecorder& rec = topo->outcomes();
  EXPECT_GE(rec.attempts(), 3u);
  EXPECT_EQ(rec.count(HandoverOutcome::kFailed), 0u);
  EXPECT_EQ(rec.completed(), rec.attempts());
}

}  // namespace
}  // namespace fhmip
