// Microbenchmarks of the hot core data structures (google-benchmark):
// the event scheduler, drop-tail queue, handoff buffer, policy decision,
// and the per-MH scaling hot paths flushed out by scale_population_sweep
// (lease-reaper sweeps, the WLAN tick loop, waypoint position sampling).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.hpp"
#include "buffer/policy.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "scenario/population.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "wireless/mobility.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {
namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      s.schedule_at(SimTime::micros((i * 7919) % 100000),
                    [&sink] { ++sink; });
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SchedulerCancelHalf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    std::vector<EventId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) {
      ids.push_back(s.schedule_at(SimTime::micros(i), [] {}));
    }
    for (int i = 0; i < n; i += 2) s.cancel(ids[i]);
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerCancelHalf)->Arg(10000);

// The classic hold model: the queue sits at a steady depth and every event
// schedules one successor at now + a pseudo-random delay (under 1 ms), as
// city_traffic does at its ~3 k live events. ScheduleRun above fills the
// heap and drains it, so it never sees this steady state.
struct HoldModel {
  Scheduler s;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64 state
};

std::uint64_t next_draw(HoldModel& m) {
  m.x ^= m.x << 13;
  m.x ^= m.x >> 7;
  m.x ^= m.x << 17;
  return m.x;
}

void hold(HoldModel& m) {
  m.s.schedule_in(
      SimTime::nanos(static_cast<std::int64_t>(next_draw(m) % 1'000'000)),
      [&m] { hold(m); });
}

void BM_SchedulerHold(benchmark::State& state) {
  HoldModel m;
  for (std::int64_t i = 0; i < state.range(0); ++i) hold(m);
  for (auto _ : state) m.s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerHold)->Arg(1000)->Arg(4000);

// The hold model again, with the live-cell mix sampled every 100 k events
// on city_traffic (seed 1) instead of BM_SchedulerHold's sub-millisecond
// delays: 28% far timers at 10-20 s (end-of-run stops), 28% CBR emits at
// 20 ms +- 1 ms, 14% link heads at 2-5 ms, and 30% protocol timers at
// 0.5-10 s (context lifetimes, watchdogs, reapers). Each cell keeps its
// class when it re-schedules, so links and emits run most of the events
// while the far cells sit in the queue, as in the city.

SimTime city_delay(HoldModel& m, int cls) {
  const auto r = static_cast<std::int64_t>(next_draw(m) % 1'000'000);
  switch (cls) {
    case 0: return SimTime::seconds(10) + SimTime::micros(10 * r);
    case 1: return SimTime::millis(19) + SimTime::nanos(2 * r);
    case 2: return SimTime::millis(2) + SimTime::nanos(3 * r);
    default: return SimTime::millis(500) + SimTime::micros(9 * r + r / 2);
  }
}

void city_hold(HoldModel& m, int cls) {
  m.s.schedule_in(city_delay(m, cls), [&m, cls] { city_hold(m, cls); });
}

void BM_SchedulerCityMix(benchmark::State& state) {
  HoldModel m;
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t pct = i * 100 / n;
    city_hold(m, pct < 28 ? 0 : pct < 56 ? 1 : pct < 70 ? 2 : 3);
  }
  for (auto _ : state) m.s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerCityMix)->Arg(3565);

// The owner-armed path: N timers, each re-arming itself 20 ms +- 1 ms on
// from inside its own callback, as the CBR sources' emit chains do (1000
// of them on city_traffic). No slot and no std::function per event.
struct Rearmer {
  HoldModel* m;
  Timer timer;

  explicit Rearmer(HoldModel& model)
      : m(&model), timer(Timer::of<&Rearmer::fire>(model.s, this)) {}
  void fire() { timer.arm_in(city_delay(*m, 1)); }
};

void BM_TimerRearm(benchmark::State& state) {
  HoldModel m;
  std::vector<std::unique_ptr<Rearmer>> timers;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    timers.push_back(std::make_unique<Rearmer>(m));
    timers.back()->fire();
  }
  for (auto _ : state) m.s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm)->Arg(1000);

void BM_DropTailQueuePushPop(benchmark::State& state) {
  Simulation sim;
  DropTailQueue q(1024);
  for (auto _ : state) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    q.push(p);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailQueuePushPop);

void BM_LinkTransmitDeliver(benchmark::State& state) {
  // Full link round: queue, serialize, propagate, deliver — the data-plane
  // hot path the observability layer must not slow down when no sinks are
  // attached.
  const int n = 64;
  Simulation sim;
  Node dst(sim, 2, "dst");
  SimplexLink link(sim, dst, 10e6, SimTime::micros(10), 256, "l");
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
      link.transmit(std::move(p));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(link.packets_delivered());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkTransmitDeliver);

void BM_LinkIdleHop(benchmark::State& state) {
  // One packet across an idle link per iteration, consumed at a port on
  // the far node: no queueing, one delivery event. Nearly every hop of a
  // city run takes this path; the 64-packet burst above queues 63 of its
  // packets.
  Simulation sim;
  Node dst(sim, 2, "dst");
  dst.add_address({2, 2});
  std::uint64_t consumed = 0;
  dst.register_port(7, [&consumed](PacketPtr) { ++consumed; });
  SimplexLink link(sim, dst, 10e6, SimTime::micros(10), 256, "l");
  for (auto _ : state) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    p->dst_port = 7;
    link.transmit(std::move(p));
    sim.run();
  }
  dst.unregister_port(7);
  benchmark::DoNotOptimize(consumed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkIdleHop);

void BM_LinkChainForward(benchmark::State& state) {
  // A burst of packets across a 4-hop chain of nodes and simplex links, so
  // every hop runs the route lookup in Node::forward, the link's queueing
  // and serialization, and the delivery into the next node. The last node
  // owns the destination address and consumes the packet at a port.
  constexpr int kHops = 4;
  const int n = 64;
  Simulation sim;
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i <= kHops; ++i) {
    nodes.push_back(std::make_unique<Node>(sim, static_cast<NodeId>(i + 1),
                                           "n" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<SimplexLink>> links;
  for (int i = 0; i < kHops; ++i) {
    links.push_back(std::make_unique<SimplexLink>(
        sim, *nodes[i + 1], 10e6, SimTime::micros(10), 256,
        "l" + std::to_string(i)));
    nodes[i]->routes().set_prefix_route(9, Route::via(*links.back()));
  }
  Node& sink = *nodes.back();
  sink.add_address({9, 1});
  std::uint64_t consumed = 0;
  sink.register_port(7, [&consumed](PacketPtr) { ++consumed; });
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      auto p = make_packet(sim, {1, 1}, {9, 1}, 160);
      p->dst_port = 7;
      nodes.front()->send(std::move(p));
    }
    sim.run();
  }
  sink.unregister_port(7);
  benchmark::DoNotOptimize(consumed);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkChainForward);

void BM_PacketForward(benchmark::State& state) {
  // The per-packet forward cycle at a MAP/AR at city scale: allocate a
  // data packet, encapsulate toward the care-of address, queue at the
  // inter-AR link, dequeue, decapsulate at the NAR, destroy on delivery.
  // This is the allocation-dominated path the packet pool targets.
  Simulation sim;
  DropTailQueue q(1024);
  for (auto _ : state) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    p->tclass = TrafficClass::kRealTime;
    p->encapsulate({3, 3});
    q.push(p);
    auto out = q.pop();
    out->decapsulate();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketForward);

void BM_TunnelEncapDecap(benchmark::State& state) {
  // MAP + inter-AR tunnel push/pop on a fresh packet each round, the way
  // the data plane actually runs it (every packet starts with an empty
  // tunnel stack, so the first encapsulate pays the stack's storage).
  Simulation sim;
  for (auto _ : state) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    p->encapsulate({3, 3});
    p->encapsulate({4, 4});
    p->decapsulate();
    p->decapsulate();
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TunnelEncapDecap);

void BM_QueueChurn(benchmark::State& state) {
  // Steady-state churn with live packets moving between two queues (the
  // PAR->NAR handoff pattern: drain one side, admit at the other) plus a
  // class-priority hop — no packet allocation inside the loop, so this
  // isolates the per-enqueue node cost.
  Simulation sim;
  DropTailQueue a(256), b(256);
  ClassPriorityQueue c(256);
  for (int i = 0; i < 128; ++i) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    p->tclass = static_cast<TrafficClass>(i % 4);
    a.push(p);
  }
  for (auto _ : state) {
    auto p = a.pop();
    b.push(p);
    auto q2 = b.pop();
    c.push(q2);
    auto r = c.pop();
    a.push(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueChurn);

void BM_PolicyDecision(benchmark::State& state) {
  BufferSchemeConfig cfg;
  int i = 0;
  for (auto _ : state) {
    const AllocationCase ac{(i & 1) != 0, (i & 2) != 0};
    const auto cls = static_cast<TrafficClass>(i % 4);
    benchmark::DoNotOptimize(decide_buffering(cfg, ac, cls));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyDecision);

void BM_HandoffBufferEvictingPush(benchmark::State& state) {
  Simulation sim;
  HandoffBuffer buf(64);
  for (auto _ : state) {
    auto p = make_packet(sim, {1, 1}, {2, 2}, 160);
    p->tclass = TrafficClass::kRealTime;
    PacketPtr evicted;
    buf.push_evict_oldest_realtime(p, evicted);
    benchmark::DoNotOptimize(evicted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandoffBufferEvictingPush);

void BM_BufferManagerAllocateRelease(benchmark::State& state) {
  BufferManager m(1 << 20);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto k = BufferManager::key(static_cast<MhId>(i % 64), ArRole::kNar);
    m.allocate(k, 16);
    m.release(k);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferManagerAllocateRelease);

void BM_BufferManagerReapIdleSweeps(benchmark::State& state) {
  // The common steady state of a big deployment: thousands of live leases,
  // none of them expiring. Sweep cost must scale with the leases that
  // actually expire, not with the watch-list size — this holds the reap
  // period's worth of sweeps against n far-future deadlines.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // Setup and teardown both happen under a paused timer: destroying n
    // leases is itself O(n) and would otherwise drown out the sweeps.
    state.PauseTiming();
    auto sim = std::make_unique<Simulation>();
    auto m = std::make_unique<BufferManager>(1 << 26);
    m->set_observer(sim.get(), "bench");
    for (int i = 0; i < n; ++i) {
      m->allocate(BufferManager::key(static_cast<MhId>(i), ArRole::kNar), 1,
                  SimTime::seconds(3600));
    }
    state.ResumeTiming();
    sim->run_until(SimTime::seconds(60));  // 120 sweeps at the 500ms period
    benchmark::DoNotOptimize(m->leased());
    state.PauseTiming();
    m.reset();  // before the simulation: the dtor cancels its reaper event
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 120);
}
BENCHMARK(BM_BufferManagerReapIdleSweeps)->Arg(50)->Arg(5000);

struct NullL2 final : L2Callbacks {
  void on_l2_trigger(NodeId, Node&) override {}
  void on_predisconnect(NodeId, Node&) override {}
  void on_attached(NodeId, Node&) override {}
  void on_detached() override {}
};

void BM_WlanTickStaticField(benchmark::State& state) {
  // One second of WLAN ticks over a 10x10 AP grid with n stationary,
  // attached hosts. Hosts sit at AP centers, so no triggers or handoffs
  // fire, and a host that cannot move is never due again after start():
  // this measures the tick chain alone, the floor of the due-tick poll.
  // BM_WlanTickRoaming below measures hosts that are evaluated.
  const int n = static_cast<int>(state.range(0));
  const double spacing = 212, radius = 112;
  NullL2 cb;
  for (auto _ : state) {
    // Field construction and teardown stay outside the timed region; only
    // the tick loop is measured.
    state.PauseTiming();
    auto sim = std::make_unique<Simulation>();
    WlanConfig cfg;
    cfg.send_router_adv = false;
    auto wlan = std::make_unique<WlanManager>(*sim, cfg);
    std::vector<std::unique_ptr<Node>> nodes;
    for (int r = 0; r < 10; ++r) {
      for (int c = 0; c < 10; ++c) {
        nodes.push_back(std::make_unique<Node>(
            *sim, static_cast<NodeId>(nodes.size() + 1), "ar"));
        wlan->add_ap(*nodes.back(), Vec2{c * spacing, r * spacing}, radius,
                     nullptr);
      }
    }
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(
          *sim, static_cast<NodeId>(1000 + i), "mh"));
      const Vec2 at{(i % 10) * spacing, ((i / 10) % 10) * spacing};
      wlan->add_mh(*nodes.back(), std::make_unique<StaticPosition>(at), &cb);
    }
    wlan->start();
    state.ResumeTiming();
    sim->run_until(SimTime::seconds(1));  // 100 ticks at the 10ms default
    benchmark::DoNotOptimize(wlan->handoffs_started());
    state.PauseTiming();
    wlan.reset();
    nodes.clear();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 100 * n);
}
// Fixed iterations: the untimed field set-up costs far more than the timed
// second of ticks, and google-benchmark sizes a run by its timed part.
BENCHMARK(BM_WlanTickStaticField)->Arg(100)->Arg(1000)->Iterations(20);

void BM_WlanTickRoaming(benchmark::State& state) {
  // The same field and second of ticks with n random-waypoint hosts at
  // 5-20 m/s (the city population's walks): due hosts are evaluated,
  // trigger and hand off, so this is the association cost that scales
  // with movement.
  const int n = static_cast<int>(state.range(0));
  const double spacing = 212, radius = 112;
  NullL2 cb;
  PopulationConfig pop;
  pop.mobility_start = SimTime{};
  pop.horizon = SimTime::seconds(2);
  const RoamBox box{Vec2{-radius, -radius},
                    Vec2{9 * spacing + radius, 9 * spacing + radius}};
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<Simulation>();
    WlanConfig cfg;
    cfg.send_router_adv = false;
    auto wlan = std::make_unique<WlanManager>(*sim, cfg);
    std::vector<std::unique_ptr<Node>> nodes;
    for (int r = 0; r < 10; ++r) {
      for (int c = 0; c < 10; ++c) {
        nodes.push_back(std::make_unique<Node>(
            *sim, static_cast<NodeId>(nodes.size() + 1), "ar"));
        wlan->add_ap(*nodes.back(), Vec2{c * spacing, r * spacing}, radius,
                     nullptr);
      }
    }
    Rng rng(42);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(
          *sim, static_cast<NodeId>(1000 + i), "mh"));
      const Vec2 spawn{rng.uniform(box.lo.x, box.hi.x),
                       rng.uniform(box.lo.y, box.hi.y)};
      wlan->add_mh(*nodes.back(),
                   make_random_waypoint_walk(rng, pop, box, spawn,
                                             rng.uniform(5, 20)),
                   &cb);
    }
    wlan->start();
    state.ResumeTiming();
    sim->run_until(SimTime::seconds(1));  // 100 ticks at the 10ms default
    benchmark::DoNotOptimize(wlan->handoffs_started());
    state.PauseTiming();
    wlan.reset();
    nodes.clear();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 100 * n);
}
BENCHMARK(BM_WlanTickRoaming)->Arg(100)->Arg(1000)->Iterations(20);

void BM_WaypointMobilityPosition(benchmark::State& state) {
  // Random-waypoint walks hold hundreds of segments; position() runs once
  // per MH per tick, sampling later and later times as the run advances.
  const int n = static_cast<int>(state.range(0));
  std::vector<WaypointMobility::Leg> legs;
  legs.reserve(n);
  for (int i = 0; i < n; ++i) {
    legs.push_back({Vec2{static_cast<double>((i * 37) % 500),
                         static_cast<double>((i * 59) % 500)},
                    10.0});
  }
  const WaypointMobility walk(Vec2{0, 0}, std::move(legs));
  std::int64_t t = 0;
  for (auto _ : state) {
    t = (t + 7'919'000'000) % 10'000'000'000'000;  // hop around the walk
    benchmark::DoNotOptimize(walk.position(SimTime::nanos(t)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaypointMobilityPosition)->Arg(16)->Arg(256);

}  // namespace
}  // namespace fhmip
