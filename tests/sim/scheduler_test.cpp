#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(Scheduler, SameTimestampIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(10_ms, [&] {
    s.schedule_in(5_ms, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 15_ms);
}

TEST(Scheduler, PastSchedulingClampsToNow) {
  // A past-time event is clamped to now(): it runs after the events already
  // pending at now() and before every event at a later time, even one issued
  // before it.
  Scheduler s;
  SimTime seen;
  std::vector<int> order;
  s.schedule_at(10_ms, [&] {
    order.push_back(1);
    s.schedule_at(2_ms, [&] {  // in the past
      seen = s.now();
      order.push_back(3);
    });
  });
  s.schedule_at(10_ms, [&] { order.push_back(2); });
  s.schedule_at(10_ms + 1_ns, [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(seen, 10_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(1_ms, [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.pending(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelInvalidAndStaleIdsAreNoops) {
  Scheduler s;
  s.cancel(kInvalidEvent);
  const EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  s.cancel(id);  // already executed
  EXPECT_FALSE(s.pending(id));
}

TEST(Scheduler, CancelOneOfManyAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1_ms, [&] { order.push_back(0); });
  const EventId id = s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(1_ms, [&] { order.push_back(2); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.run_until(2_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 2_ms);
  s.run_until(10_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 10_ms);  // clock advances even with no events
}

TEST(Scheduler, RunUntilExecutesEventsScheduledDuringRun) {
  Scheduler s;
  int count = 0;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) s.schedule_in(1_ms, tick);
  };
  s.schedule_at(1_ms, tick);
  s.run_until(10_ms);
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(1_ms, [&] { ++count; });
  s.schedule_at(2_ms, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, MaxEventsBound) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 100; ++i) s.schedule_at(1_ms, [&] { ++count; });
  EXPECT_EQ(s.run(30), 30u);
  EXPECT_EQ(count, 30);
}

TEST(Scheduler, QueueSizeExcludesCancelled) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  EXPECT_EQ(s.queue_size(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_FALSE(s.empty());
}

TEST(Scheduler, EventsExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.schedule_at(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 4u);
}

TEST(Scheduler, SchedulingFromWithinEvent) {
  Scheduler s;
  std::vector<SimTime> at;
  s.schedule_at(1_ms, [&] {
    at.push_back(s.now());
    s.schedule_in(1_ms, [&] { at.push_back(s.now()); });
    s.schedule_at(s.now(), [&] { at.push_back(s.now()); });  // same time
  });
  s.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 1_ms);
  EXPECT_EQ(at[1], 1_ms);  // same-time event runs before later ones
  EXPECT_EQ(at[2], 2_ms);
}

TEST(Scheduler, RunUntilIncludesSameTimeEventScheduledAtBoundary) {
  // Regression: an event scheduled at exactly `t` *by* an event running at
  // `t` must still execute within run_until(t), not leak past the boundary.
  Scheduler s;
  bool chained = false;
  s.schedule_at(5_ms, [&] {
    s.schedule_at(5_ms, [&] { chained = true; });
  });
  s.run_until(5_ms);
  EXPECT_TRUE(chained);
  EXPECT_EQ(s.now(), 5_ms);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SlotReuseDoesNotResurrectStaleHandles) {
  // A slot recycled for a new event must not honour the old occupant's id:
  // cancelling or querying the stale handle may not touch the new event.
  Scheduler s;
  const EventId old_id = s.schedule_at(1_ms, [] {});
  s.run();  // slot returns to the free list
  bool ran = false;
  const EventId new_id = s.schedule_at(2_ms, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(s.pending(old_id));
  s.cancel(old_id);  // stale: must be a no-op
  EXPECT_TRUE(s.pending(new_id));
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledEventsAreSkippedAcrossRunAndRunUntil) {
  // Both dequeue paths (run / run_until) share the cancelled-slot skip; a
  // cancellation must hold whichever one drains the queue.
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  const EventId c = s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(4_ms, [&] { order.push_back(4); });
  s.cancel(a);
  s.run_until(2_ms);
  s.cancel(c);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  s.audit_invariants();
}

TEST(Scheduler, CancelAllThenReuseKeepsAccounting) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(s.schedule_at(SimTime::millis(i), [] {}));
  }
  for (const EventId id : ids) s.cancel(id);
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_TRUE(s.empty());
  int count = 0;
  for (int i = 0; i < 64; ++i) {
    s.schedule_at(SimTime::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(s.queue_size(), 64u);
  s.run();
  EXPECT_EQ(count, 64);
  s.audit_invariants();
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  SimTime last;
  bool monotonic = true;
  for (int i = 0; i < 10'000; ++i) {
    s.schedule_at(SimTime::micros((i * 7919) % 10'000), [&] {
      if (s.now() < last) monotonic = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(s.events_executed(), 10'000u);
}

// Reference model for the differential test below: an ordered map keyed by
// (time, issue order), with ids that are never reused. It shares the
// Scheduler's API so one driver can run either.
class ModelScheduler {
 public:
  SimTime now() const { return now_; }

  EventId schedule_at(SimTime t, std::function<void()> fn) {
    if (t < now_) t = now_;
    const EventId id = next_id_++;
    queue_.emplace(Key{t.ns(), id}, std::move(fn));
    time_of_.emplace(id, t.ns());
    return id;
  }

  void cancel(EventId id) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return;
    queue_.erase(Key{it->second, id});
    time_of_.erase(it);
  }

  bool pending(EventId id) const { return time_of_.count(id) != 0; }

  bool step() { return pop_run(std::numeric_limits<std::int64_t>::max()); }

  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  std::size_t run_until(SimTime t) {
    std::size_t n = 0;
    while (pop_run(t.ns())) ++n;
    if (now_ < t) now_ = t;
    return n;
  }

  std::size_t queue_size() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  using Key = std::pair<std::int64_t, EventId>;

  bool pop_run(std::int64_t limit_ns) {
    if (queue_.empty() || queue_.begin()->first.first > limit_ns) return false;
    const auto it = queue_.begin();
    now_ = SimTime::nanos(it->first.first);
    std::function<void()> fn = std::move(it->second);
    time_of_.erase(it->first.second);
    queue_.erase(it);
    ++executed_;
    fn();
    return true;
  }

  std::map<Key, std::function<void()>> queue_;
  std::unordered_map<EventId, std::int64_t> time_of_;
  EventId next_id_ = 1;
  SimTime now_;
  std::uint64_t executed_ = 0;
};

// A fixed-seed random program over a scheduler-like queue. Everything the
// queue reports goes into `log`; two queues with the same behaviour produce
// the same log. Times sit on a 100 us grid so same-time ties are common.
template <class Q>
struct Program {
  Q q;
  std::mt19937_64 rng;
  std::vector<EventId> ids;  // every id issued, by issue order
  std::vector<std::int64_t> log;

  explicit Program(std::uint64_t seed) : rng(seed) {}

  std::uint64_t draw(std::uint64_t n) { return rng() % n; }

  // -2 ms .. +5 ms around now(): past times get clamped.
  SimTime pick_time() {
    const auto ticks = static_cast<std::int64_t>(draw(71)) - 20;
    return q.now() + SimTime::micros(100 * ticks);
  }

  // Live, run, cancelled and stale (slot-reusing) ids alike, and the
  // invalid id now and then.
  EventId pick_id() {
    if (ids.empty() || draw(50) == 0) return kInvalidEvent;
    return ids[draw(ids.size())];
  }
};

template <class Q>
void schedule(Program<Q>& p, SimTime t);

// An event logs who ran and when; some schedule or cancel from inside.
template <class Q>
void fire(Program<Q>& p, std::int64_t tag) {
  p.log.push_back(tag);
  p.log.push_back(p.q.now().ns());
  if (p.draw(4) == 0) schedule(p, p.pick_time());
  if (p.draw(8) == 0) schedule(p, p.q.now());
  if (p.draw(5) == 0) p.q.cancel(p.pick_id());
}

template <class Q>
void schedule(Program<Q>& p, SimTime t) {
  const auto tag = static_cast<std::int64_t>(p.ids.size());
  p.ids.push_back(p.q.schedule_at(t, [&p, tag] { fire(p, tag); }));
}

template <class Q>
std::vector<std::int64_t> run_program(std::uint64_t seed, int ops) {
  Program<Q> p(seed);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = p.draw(100);
    if (r < 35) {
      schedule(p, p.pick_time());
    } else if (r < 50) {
      p.q.cancel(p.pick_id());
    } else if (r < 60) {
      p.log.push_back(p.q.pending(p.pick_id()));
    } else if (r < 80) {
      p.log.push_back(p.q.step());
    } else if (r < 88) {
      p.log.push_back(static_cast<std::int64_t>(p.q.run(p.draw(6))));
    } else {
      // On the 100 us grid, so often exactly at pending events' times.
      const SimTime t = p.q.now() + SimTime::micros(100 * p.draw(30));
      p.log.push_back(static_cast<std::int64_t>(p.q.run_until(t)));
    }
    p.log.push_back(p.q.now().ns());
    p.log.push_back(static_cast<std::int64_t>(p.q.queue_size()));
    p.log.push_back(static_cast<std::int64_t>(p.q.events_executed()));
    if constexpr (std::is_same_v<Q, Scheduler>) {
      if (op % 1000 == 0) p.q.audit_invariants();
    }
  }
  p.log.push_back(static_cast<std::int64_t>(p.q.run()));
  p.log.push_back(static_cast<std::int64_t>(p.q.events_executed()));
  return p.log;
}

TEST(Scheduler, MatchesOrderedMapModelOnRandomPrograms) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto real = run_program<Scheduler>(seed, 20'000);
    const auto model = run_program<ModelScheduler>(seed, 20'000);
    const auto diverge = std::mismatch(real.begin(), real.end(),
                                       model.begin(), model.end());
    EXPECT_TRUE(diverge.first == real.end() && diverge.second == model.end())
        << "seed " << seed << ": logs diverge at entry "
        << (diverge.first - real.begin()) << " of " << real.size();
  }
}

}  // namespace
}  // namespace fhmip
