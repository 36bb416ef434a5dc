#include "wireless/wlan.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// Records every L2 event for assertions.
struct RecordingCallbacks : L2Callbacks {
  std::vector<std::pair<SimTime, std::string>> events;
  Simulation* sim = nullptr;
  NodeId last_trigger_target = kNoNode;
  Node* last_ar = nullptr;

  void on_l2_trigger(NodeId ap, Node& ar) override {
    events.push_back({sim->now(), "trigger"});
    last_trigger_target = ap;
    last_ar = &ar;
  }
  void on_predisconnect(NodeId, Node&) override {
    events.push_back({sim->now(), "predisconnect"});
  }
  void on_attached(NodeId, Node&) override {
    events.push_back({sim->now(), "attached"});
  }
  void on_detached() override { events.push_back({sim->now(), "detached"}); }

  int count(const std::string& kind) const {
    int n = 0;
    for (const auto& [t, k] : events) {
      if (k == kind) ++n;
    }
    return n;
  }
  SimTime time_of(const std::string& kind, int nth = 0) const {
    int seen = 0;
    for (const auto& [t, k] : events) {
      if (k == kind && seen++ == nth) return t;
    }
    return SimTime::seconds(-1);
  }
};

struct WlanFixture : ::testing::Test {
  Simulation sim;
  Network net{sim};
  Node& ar1 = net.add_node("ar1");
  Node& ar2 = net.add_node("ar2");
  Node& mh = net.add_node("mh");
  RecordingCallbacks cb;
  WlanConfig cfg;

  WlanFixture() {
    ar1.add_address({40, 1});
    ar2.add_address({50, 1});
    cb.sim = &sim;
    cfg.send_router_adv = false;
  }
};

TEST_F(WlanFixture, InitialAttachToCoveringAp) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{10, 0}), &cb);
  wlan.start();
  sim.run_until(1_s);
  EXPECT_EQ(cb.count("attached"), 1);
  EXPECT_NE(wlan.attached_ap(mh.id()), kNoNode);
}

TEST_F(WlanFixture, NoApInRangeStaysDetached) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 50, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{500, 0}), &cb);
  wlan.start();
  sim.run_until(1_s);
  EXPECT_EQ(cb.count("attached"), 0);
  EXPECT_EQ(wlan.attached_ap(mh.id()), kNoNode);
}

TEST_F(WlanFixture, TriggerFiresOnOverlapEntry) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  AccessPoint& ap2 = wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{0, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(30_s);
  EXPECT_GE(cb.count("trigger"), 1);
  // Overlap entry at x = 100 -> t = 10 s (one tick of slack).
  const SimTime trig = cb.time_of("trigger");
  EXPECT_GE(trig, 10_s);
  EXPECT_LE(trig, SimTime::from_millis(10'100));
  EXPECT_EQ(cb.last_trigger_target, ap2.id());
  EXPECT_EQ(cb.last_ar, &ar2);
}

TEST_F(WlanFixture, HandoffSequenceAndBlackoutDuration) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{0, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(30_s);
  ASSERT_EQ(cb.count("predisconnect"), 1);
  ASSERT_EQ(cb.count("detached"), 1);
  ASSERT_EQ(cb.count("attached"), 2);  // initial + after handoff
  const SimTime pre = cb.time_of("predisconnect");
  const SimTime det = cb.time_of("detached");
  const SimTime att = cb.time_of("attached", 1);
  EXPECT_EQ(det - pre, cfg.predisconnect_guard);
  EXPECT_EQ(att - det, cfg.l2_handoff_delay);
  // Handoff starts at the exit margin: x = 110 -> t = 11 s.
  EXPECT_GE(pre, 11_s);
  EXPECT_LE(pre, SimTime::from_millis(11'100));
}

TEST_F(WlanFixture, ConfigurableBlackout) {
  cfg.l2_handoff_delay = 60_ms;  // the paper's measured lower bound
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{0, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(30_s);
  EXPECT_EQ(cb.time_of("attached", 1) - cb.time_of("detached"), 60_ms);
}

TEST_F(WlanFixture, AttachListenerNotified) {
  struct Listener : ArAttachListener {
    int attached = 0, detached = 0;
    SimplexLink* link = nullptr;
    void on_mh_attached(MhId, NodeId, SimplexLink& dl) override {
      ++attached;
      link = &dl;
    }
    void on_mh_detached(MhId) override { ++detached; }
  } l1, l2;
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, &l1);
  wlan.add_ap(ar2, {212, 0}, 112, &l2);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{0, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(30_s);
  EXPECT_EQ(l1.attached, 1);
  EXPECT_EQ(l1.detached, 1);
  EXPECT_EQ(l2.attached, 1);
  ASSERT_NE(l1.link, nullptr);
  ASSERT_NE(l2.link, nullptr);
  EXPECT_TRUE(l2.link->up());
  EXPECT_FALSE(l1.link->up());  // old radio dark after the handoff
}

TEST_F(WlanFixture, ForcedHandoffBetweenApsOfSameAr) {
  WlanManager wlan(sim, cfg);
  AccessPoint& a = wlan.add_ap(ar1, {0, 0}, 120, nullptr);
  AccessPoint& b = wlan.add_ap(ar1, {60, 0}, 120, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{10, 0}), &cb);
  wlan.start();
  sim.run_until(1_s);
  ASSERT_EQ(wlan.attached_ap(mh.id()), a.id());
  wlan.force_handoff(mh.id(), b.id(), 2_s);
  sim.run_until(3_s);
  EXPECT_EQ(wlan.attached_ap(mh.id()), b.id());
  EXPECT_EQ(cb.count("detached"), 1);
  EXPECT_EQ(cb.count("attached"), 2);
}

TEST_F(WlanFixture, BounceProducesRepeatedHandoffs) {
  WlanConfig c = cfg;
  WlanManager wlan(sim, c);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  wlan.add_mh(mh,
              std::make_unique<BounceMobility>(Vec2{0, 0}, Vec2{212, 0}, 10.0),
              &cb);
  wlan.start();
  // 4 legs of 21.2 s each -> 4 handoffs.
  sim.run_until(SimTime::from_seconds(4 * 21.2 + 1));
  EXPECT_EQ(wlan.handoffs_started(), 4u);
  EXPECT_EQ(cb.count("attached"), 5);
}

TEST_F(WlanFixture, RouterAdvertisementsArriveAtInterval) {
  cfg.send_router_adv = true;
  mh.add_address({40, mh.id()}, false);
  int adv_count = 0;
  mh.add_control_handler([&](PacketPtr& p) {
    if (std::holds_alternative<RouterAdvMsg>(p->msg)) {
      ++adv_count;
      return true;
    }
    return false;
  });
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{10, 0}), &cb);
  wlan.start();
  sim.run_until(10_s);
  // ~one per second (§4.1), phase-staggered.
  EXPECT_GE(adv_count, 8);
  EXPECT_LE(adv_count, 11);
}

TEST_F(WlanFixture, ZeroHysteresisFlapsInOverlappingExitMargins) {
  // Host parked exactly between two APs, inside both exit margins
  // (d = 111, radius 112, margin 2). With the historical nearest-wins rule
  // each evaluation hands off to the other AP, forever.
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {222, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{111, 0}), &cb);
  wlan.start();
  sim.run_until(2_s);
  EXPECT_GT(wlan.handoffs_started(), 3u);
}

TEST_F(WlanFixture, HysteresisEndsMarginFlapping) {
  // Same geometry with hysteresis: the twin AP is not strictly closer, so
  // the host stays attached where it first associated.
  cfg.handoff_hysteresis_m = 4.0;
  WlanManager wlan(sim, cfg);
  AccessPoint& a = wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {222, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{111, 0}), &cb);
  wlan.start();
  sim.run_until(5_s);
  EXPECT_EQ(wlan.handoffs_started(), 0u);
  EXPECT_EQ(wlan.attached_ap(mh.id()), a.id());
}

TEST_F(WlanFixture, HysteresisStillAllowsStrictlyCloserCandidate) {
  // Gliding out of ar1's cell: when the margin is reached (d > 110), ar2
  // is already ~69 m away — 69 + 4 < 111, so the handoff proceeds and then
  // sticks (the host keeps moving deeper into ar2's cell).
  cfg.handoff_hysteresis_m = 4.0;
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  AccessPoint& b = wlan.add_ap(ar2, {180, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{80, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(5_s);
  EXPECT_EQ(wlan.handoffs_started(), 1u);
  EXPECT_EQ(wlan.attached_ap(mh.id()), b.id());
}

TEST_F(WlanFixture, HardDetachIgnoresHysteresis) {
  // Out of ar1's coverage entirely: any covering AP must win even when the
  // improvement is below the hysteresis margin.
  cfg.handoff_hysteresis_m = 50.0;
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  AccessPoint& b = wlan.add_ap(ar2, {222, 0}, 112, nullptr);
  // Attach to ar1 at 100 m, then glide past its 112 m edge (~0.93 s); in
  // the margin zone the 50 m hysteresis blocks the soft handoff, so only
  // the hard detach switches the host over.
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{100, 0}, Vec2{13, 0}),
              &cb);
  wlan.start();
  sim.run_until(2_s);
  EXPECT_EQ(wlan.handoffs_started(), 1u);
  EXPECT_EQ(wlan.attached_ap(mh.id()), b.id());
}

TEST_F(WlanFixture, SpatialIndexFindsApsAcrossTheWholeField) {
  // A 30-cell row: association, triggers and lookup must behave the same
  // no matter how far down the field the host sits (the candidate search
  // only inspects the 3x3 cell neighbourhood around it).
  WlanManager wlan(sim, cfg);
  std::vector<NodeId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(wlan.add_ap(ar1, {i * 250.0, 0}, 112, nullptr).id());
  }
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{25 * 250.0 + 10, 0}),
              &cb);
  wlan.start();
  sim.run_until(1_s);
  EXPECT_EQ(wlan.attached_ap(mh.id()), ids[25]);
  EXPECT_NE(wlan.ap(ids[29]), nullptr);
  EXPECT_EQ(wlan.ap(ids[29])->position().x, 29 * 250.0);
  EXPECT_EQ(wlan.ap(99999u), nullptr);
}

TEST_F(WlanFixture, CoverageAcrossGridCellBoundaryStillAttaches) {
  // The AP's center hashes into cell 0 while the host sits in cell -1;
  // coverage reaches across the boundary and the neighbourhood walk must
  // find it.
  WlanManager wlan(sim, cfg);
  AccessPoint& a = wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{-111, 0}), &cb);
  wlan.start();
  sim.run_until(1_s);
  EXPECT_EQ(wlan.attached_ap(mh.id()), a.id());
}

TEST_F(WlanFixture, PositionIntrospection) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<LinearMobility>(Vec2{0, 0}, Vec2{10, 0}),
              &cb);
  wlan.start();
  sim.run_until(2_s);
  EXPECT_NEAR(wlan.mh_position(mh.id()).x, 20, 0.2);
  EXPECT_FALSE(wlan.in_handoff(mh.id()));
}

TEST_F(WlanFixture, StaticFieldIsEvaluatedOnlyAtStart) {
  // A host that never moves and has nothing left to do after attaching (no
  // second AP covers it, it is outside the exit margin) is never due again.
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  std::vector<Node*> hosts;
  for (int i = 0; i < 20; ++i) {
    hosts.push_back(&net.add_node("mh" + std::to_string(i)));
    wlan.add_mh(*hosts.back(),
                std::make_unique<StaticPosition>(Vec2{i * 5.0, 7}), nullptr);
  }
  wlan.start();
  EXPECT_EQ(wlan.evaluations(), 20u);
  sim.run_until(2_s);
  EXPECT_EQ(wlan.evaluations(), 20u);
  for (Node* h : hosts) EXPECT_NE(wlan.attached_ap(h->id()), kNoNode);
}

TEST_F(WlanFixture, HostAddedAfterStartIsEvaluatedAtTheNextTick) {
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.start();
  sim.run_until(15_ms);  // tick 1 (10 ms) has run
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{10, 0}), &cb);
  EXPECT_EQ(wlan.evaluations(), 0u);
  sim.run_until(1_s);
  EXPECT_EQ(wlan.evaluations(), 1u);
  EXPECT_EQ(cb.time_of("attached"), 20_ms);
}

TEST_F(WlanFixture, StaticHostInAnOverlapIsEvaluatedUntilTriggered) {
  // Attaching at start() leaves the second AP's trigger for the next tick,
  // as the every-host poll did; after it the host is never due again.
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_ap(ar2, {212, 0}, 112, nullptr);
  wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{105, 0}), &cb);
  wlan.start();
  sim.run_until(1_s);
  EXPECT_EQ(wlan.evaluations(), 2u);
  EXPECT_EQ(cb.time_of("attached"), 0_s);
  EXPECT_EQ(cb.time_of("trigger"), 10_ms);
}

TEST_F(WlanFixture, FrozenWalkStopsBeingEvaluated) {
  // Walking toward the coverage edge keeps the host due; once the walk has
  // ended (3 s) its speed bound is 0 and one more evaluation is its last.
  WlanManager wlan(sim, cfg);
  wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  wlan.add_mh(mh,
              std::make_unique<WaypointMobility>(
                  Vec2{90, 0}, std::vector<WaypointMobility::Leg>{
                                  {{105, 0}, 5.0}}),
              &cb);
  wlan.start();
  sim.run_until(5_s);
  const std::uint64_t walked = wlan.evaluations();
  EXPECT_GE(walked, 2u);
  sim.run_until(60_s);
  EXPECT_EQ(wlan.evaluations(), walked);
  EXPECT_EQ(cb.count("attached"), 1);
}

TEST_F(WlanFixture, RouterAdvertFanOutFollowsMhIdOrderAndDropsInBlackout) {
  // Three hosts attach to AP a in the order mh5, mh3, mh4 (not MhId
  // order); mh4 is then forced over to AP b with a 1.5 s blackout, so at
  // least one of a's advertisements falls inside it while mh4's record
  // still points at a.
  Node& mh4 = net.add_node("mh4");
  Node& mh5 = net.add_node("mh5");
  ASSERT_LT(mh.id(), mh4.id());
  ASSERT_LT(mh4.id(), mh5.id());
  for (Node* n : {&mh, &mh4, &mh5}) n->add_address({40, n->id()}, false);
  cfg.send_router_adv = true;
  cfg.l2_handoff_delay = SimTime::millis(1500);
  WlanManager wlan(sim, cfg);
  AccessPoint& a = wlan.add_ap(ar1, {0, 0}, 112, nullptr);
  AccessPoint& b = wlan.add_ap(ar2, {60, 0}, 112, nullptr);
  wlan.add_mh(mh5, std::make_unique<StaticPosition>(Vec2{10, 0}), nullptr);
  struct Ev {
    SimTime at;
    std::string link;
    TraceKind kind;
    std::optional<DropReason> reason;
  };
  std::vector<Ev> evs;
  const std::string prefix = ar1.name() + ">";
  sim.trace().add_sink([&](const TraceEvent& e) {
    if (std::strcmp(e.msg, "RtAdv") != 0) return;
    if (e.kind != TraceKind::kTransmit && e.kind != TraceKind::kDrop) return;
    const std::string link = e.where;
    if (link.rfind(prefix, 0) != 0) return;  // AP a's advertisements only
    evs.push_back({e.at, link.substr(prefix.size()), e.kind, e.reason});
  });
  wlan.start();
  sim.at(250_ms, [&] {
    wlan.add_mh(mh, std::make_unique<StaticPosition>(Vec2{12, 0}), nullptr);
  });
  sim.at(550_ms, [&] {
    wlan.add_mh(mh4, std::make_unique<StaticPosition>(Vec2{14, 0}), nullptr);
  });
  wlan.force_handoff(mh4.id(), b.id(), 2_s);
  sim.run_until(6_s);
  ASSERT_EQ(wlan.attached_ap(mh4.id()), b.id());
  ASSERT_EQ(wlan.attached_ap(mh.id()), a.id());

  const std::string n3 = "mh" + std::to_string(mh.id());
  const std::string n4 = "mh" + std::to_string(mh4.id());
  const std::string n5 = "mh" + std::to_string(mh5.id());
  const SimTime gone = 2_s + cfg.predisconnect_guard;
  const SimTime back = gone + cfg.l2_handoff_delay;
  std::map<SimTime, std::vector<const Ev*>> rounds;
  for (const Ev& e : evs) rounds[e.at].push_back(&e);
  int full = 0, in_blackout = 0;
  for (const auto& [at, round] : rounds) {
    if (at < 1_s) continue;  // until every host has attached
    std::vector<std::string> order;
    for (const Ev* e : round) order.push_back(e->link);
    if (at >= back) {
      EXPECT_EQ(order, (std::vector<std::string>{n3, n5})) << at.sec();
      continue;
    }
    ASSERT_EQ(order, (std::vector<std::string>{n3, n4, n5})) << at.sec();
    ++full;
    const bool dark = at >= gone;
    EXPECT_EQ(round[0]->kind, TraceKind::kTransmit);
    EXPECT_EQ(round[2]->kind, TraceKind::kTransmit);
    if (dark) {
      ++in_blackout;
      EXPECT_EQ(round[1]->kind, TraceKind::kDrop) << at.sec();
      EXPECT_EQ(round[1]->reason, DropReason::kWirelessDown) << at.sec();
    } else {
      EXPECT_EQ(round[1]->kind, TraceKind::kTransmit) << at.sec();
    }
  }
  EXPECT_GE(full, 2);
  EXPECT_GE(in_blackout, 1);
  (void)a;
}

}  // namespace
}  // namespace fhmip
