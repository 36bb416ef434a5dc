// L2-event digest: locks every link-layer event the WlanManager delivers on
// a mixed-mobility field, so any change to when or in what order hosts are
// evaluated shows up as a changed digest.
//
// The expected values were produced by the every-host-every-tick poll (each
// tick called evaluate() on all hosts in MhId order) by running this test
// against that implementation and copying the printed digests. The due-tick
// poll must reproduce them bit for bit.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

// FNV-1a over the little-endian bytes of each logged word.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

enum Kind : std::uint64_t { kTrigger = 1, kPredisconnect, kAttached, kDetached };

// Logs every L2Callbacks call as (time ns, mh, kind, ap) into one digest
// shared by all hosts, so the cross-host order within a tick counts too.
struct DigestCallbacks final : L2Callbacks {
  Simulation* sim = nullptr;
  Fnv* fnv = nullptr;
  MhId mh = 0;
  std::uint64_t* events = nullptr;

  void log(Kind k, NodeId ap) {
    fnv->add(static_cast<std::uint64_t>(sim->now().ns()));
    fnv->add(mh);
    fnv->add(k);
    fnv->add(ap);
    ++*events;
  }
  void on_l2_trigger(NodeId ap, Node&) override { log(kTrigger, ap); }
  void on_predisconnect(NodeId ap, Node&) override {
    log(kPredisconnect, ap);
  }
  void on_attached(NodeId ap, Node&) override { log(kAttached, ap); }
  void on_detached() override { log(kDetached, kNoNode); }
};

struct DigestResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
};

// A 3x3 AP grid (spacing 200 m, radius 120 m, so neighbours overlap by
// 40 m) and 300 hosts for 30 s at the city's 20 ms tick:
//   * waypoint walks that freeze after 20 s (frozen tail 20..30 s),
//   * bounce hosts, linear hosts (most leave the field), static hosts,
//   * one waypoint host whose second leg has zero speed (a teleport),
//   * one forced handoff.
// With an exit margin the blackouts are sampled, so the order of handoffs
// within a tick also fixes which host draws which blackout. Without one,
// guard + blackout is exactly ten ticks, so every re-attach lands on a tick
// instant ahead of that tick's event.
DigestResult run_field(double hysteresis_m, double exit_margin_m) {
  Simulation sim(7);
  Network net(sim);
  WlanConfig cfg;
  cfg.tick = 20_ms;
  cfg.send_router_adv = false;
  cfg.handoff_hysteresis_m = hysteresis_m;
  cfg.exit_margin_m = exit_margin_m;
  if (exit_margin_m > 0) {
    cfg.l2_phase_model = L2PhaseModel{};
  } else {
    cfg.l2_handoff_delay = 198_ms;
  }
  WlanManager wlan(sim, cfg);

  std::vector<AccessPoint*> aps;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      Node& ar = net.add_node("ar" + std::to_string(3 * r + c));
      aps.push_back(
          &wlan.add_ap(ar, Vec2{200.0 * c, 200.0 * r}, 120, nullptr));
    }
  }

  Fnv fnv;
  DigestResult res;
  constexpr int kHosts = 300;
  std::vector<DigestCallbacks> cbs(kHosts);
  Rng rng(2024);
  auto point = [&rng] {
    return Vec2{rng.uniform(-150, 550), rng.uniform(-150, 550)};
  };
  std::vector<MhId> ids;
  for (int i = 0; i < kHosts; ++i) {
    Node& mh = net.add_node("mh" + std::to_string(i));
    ids.push_back(mh.id());
    cbs[i].sim = &sim;
    cbs[i].fnv = &fnv;
    cbs[i].mh = mh.id();
    cbs[i].events = &res.events;
    std::unique_ptr<MobilityModel> mob;
    const Vec2 start = point();
    const double speed = rng.uniform(5, 20);
    switch (i % 4) {
      case 0: {  // waypoint walk, frozen from 20 s on
        std::vector<WaypointMobility::Leg> legs;
        Vec2 cur = start;
        double t = 0;
        while (true) {
          const Vec2 next = point();
          t += distance(cur, next) / speed;
          if (t > 19.0) break;
          legs.push_back({next, speed});
          cur = next;
        }
        if (i == 0 && !legs.empty()) legs.insert(legs.begin() + 1, {point(), 0.0});
        mob = std::make_unique<WaypointMobility>(start, std::move(legs),
                                                 SimTime::seconds(1));
        break;
      }
      case 1:
        mob = std::make_unique<BounceMobility>(start, point(), speed);
        break;
      case 2:
        mob = std::make_unique<LinearMobility>(
            start, Vec2{rng.uniform(-10, 10), rng.uniform(-10, 10)},
            SimTime::from_seconds(rng.uniform(0, 5)));
        break;
      default:
        mob = std::make_unique<StaticPosition>(start);
        break;
    }
    wlan.add_mh(mh, std::move(mob), &cbs[i]);
  }
  wlan.force_handoff(ids[1], aps[4]->id(), 5_s);

  wlan.start();
  sim.run_until(30_s);
  res.handoffs = wlan.handoffs_started();
  fnv.add(res.handoffs);
  fnv.add(sim.metrics().counter("wlan/handoffs").value());
  res.digest = fnv.h;
  return res;
}

struct Expected {
  double hysteresis_m;
  double exit_margin_m;
  std::uint64_t digest;
  std::uint64_t events;
  std::uint64_t handoffs;
};

TEST(WlanDigest, L2EventsMatchTheEveryHostPoll) {
  // Without an exit margin there is no margin zone, so the hysteresis
  // never applies and the first and third rows agree.
  const Expected cases[] = {
      {0, 0, 0xfa7ce3cf9fd9d145ull, 893, 116},
      {0, 2, 0x5847c737aa3af425ull, 931, 117},
      {4, 0, 0xfa7ce3cf9fd9d145ull, 893, 116},
      {4, 2, 0xfad03c0031e6e446ull, 925, 116},
  };
  for (const Expected& e : cases) {
    SCOPED_TRACE(testing::Message() << "hysteresis " << e.hysteresis_m
                                    << " exit margin " << e.exit_margin_m);
    const DigestResult r = run_field(e.hysteresis_m, e.exit_margin_m);
    // On a mismatch, print the row in this table's format.
    if (r.digest != e.digest) {
      std::printf("{%g, %g, 0x%016llxull, %llu, %llu},\n", e.hysteresis_m,
                  e.exit_margin_m, static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.handoffs));
    }
    EXPECT_EQ(r.digest, e.digest);
    EXPECT_EQ(r.events, e.events);
    EXPECT_EQ(r.handoffs, e.handoffs);
  }
}

}  // namespace
}  // namespace fhmip
