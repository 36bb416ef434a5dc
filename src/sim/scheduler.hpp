#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/check.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// Opaque handle for a scheduled event; used for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Timer;

/// Deterministic single-threaded discrete-event scheduler.
///
/// Events at the same timestamp execute in scheduling order (FIFO), which is
/// the property protocol state machines in this library rely on. Every
/// event has a unique (time, issue sequence) key and events run in key
/// order, whatever queue level holds them.
///
/// Two kinds of event share that order:
/// - a scheduled action (`schedule_at`/`schedule_in`): a `std::function` in
///   a slab of generation-tagged slots, named by an `EventId`. `pending()`
///   and `cancel()` are O(1) slot loads, stale handles from a reused slot
///   fail the generation check, and cancellation is lazy (the slot is
///   flagged and recycled when its cell reaches the front);
/// - an owner-armed `Timer`: a persistent object embedded in the component
///   that arms it, with no slot and no `std::function`. The owner takes a
///   sequence number with `reserve_seq()` when the event's order is fixed
///   and arms the timer at (t, seq) later, possibly from inside the timer's
///   own callback. A timer leaves the queue eagerly when it is disarmed or
///   destroyed, so nothing of it outlives its owner.
///
/// The future-event set has two levels, after Brown's calendar queue
/// (CACM 1988). Times within a fixed window ahead of the near bucket sit in
/// a ring of time buckets, unsorted, with a bitmap of the non-empty ones;
/// a bucket is heapified into the small 4-ary near heap only when the clock
/// reaches it. Events past the window wait in a far heap and move into the
/// ring as the window slides over them. Protocol lifetimes seconds away
/// therefore never sit in the sift path of per-packet events.
class Scheduler {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is clamped
  /// to `now()`: the event still runs, after the events already pending at
  /// `now()` and before every event at a later time.
  EventId schedule_at(SimTime t, Action fn);

  /// Schedules `fn` at `now() + delay`.
  EventId schedule_in(SimTime delay, Action fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Cancelling an already-run or invalid id is a
  /// harmless no-op, so callers can keep stale handles.
  void cancel(EventId id);

  /// True if `id` is still pending (scheduled, not yet run, not cancelled).
  bool pending(EventId id) const;

  /// Takes the next issue sequence number, as `schedule_at` would, for a
  /// `Timer` to be armed with later. An event armed with it runs where an
  /// event scheduled now for the same time would have run.
  std::uint64_t reserve_seq() {
    // Keys must stay unique: the sequence space may never wrap.
    FHMIP_AUDIT("sched", next_seq_ != 0);
    return next_seq_++;
  }

  /// Runs events until the queue is empty or `max_events` have run.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= `t` (including events scheduled at
  /// <= `t` by events already running inside this call), then advances the
  /// clock to `t`.
  std::size_t run_until(SimTime t);

  /// Executes exactly one event if available. Returns false on empty queue.
  bool step();

  /// Pending events: scheduled actions not cancelled, plus armed timers.
  std::size_t queue_size() const { return live_; }
  bool empty() const { return live_ == 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// Runs the slab/queue consistency audits (FHMIP_AUDIT; no-op at audit
  /// level 0). Exposed so tests and long scenarios can sweep.
  void audit_invariants() const;

 private:
  friend class Timer;

  /// One slab entry. A slot not on the free list is "armed": it owns an
  /// action and is named by exactly one queue cell. `gen` counts reuses of
  /// the slot; handles from a previous occupancy no longer match it.
  struct Slot {
    Action fn;
    std::uint32_t gen = 0;
    bool armed = false;
    bool cancelled = false;
  };

  /// One queue cell: the event's key, inline so that sifts never load a
  /// slot, and a tagged reference to what runs. An odd `ref` is
  /// (slot << 1) | 1; an even one is the address of an armed Timer.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // issue order; the same-time FIFO tiebreaker
    std::uintptr_t ref;
  };

  /// Ring geometry: 256 buckets of 2^17 ns (131 us), a 33.5 ms window.
  /// It covers a CBR source's 20 ms gap and the 2-5 ms link deliveries;
  /// AR context lifetimes and end-of-run stops wait in the far heap.
  static constexpr int kBucketShift = 17;
  static constexpr std::int64_t kBuckets = 256;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;

  static constexpr std::uint32_t decode_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t decode_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId encode(std::uint32_t slot, std::uint32_t gen) {
    // slot+1 keeps every valid id distinct from kInvalidEvent (0).
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  static constexpr std::int64_t bucket_of(SimTime t) {
    return t.ns() >> kBucketShift;
  }
  static constexpr bool names_slot(std::uintptr_t ref) {
    return (ref & 1u) != 0;
  }
  static constexpr std::uint32_t slot_of(std::uintptr_t ref) {
    return static_cast<std::uint32_t>(ref >> 1);
  }

  /// (time, seq) order between two cells.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  /// Both sifts fill the hole at `pos` with `e`, moving the cells they pass.
  static void sift_up(std::vector<HeapEntry>& h, std::size_t pos,
                      HeapEntry e);
  static void sift_down(std::vector<HeapEntry>& h, std::size_t pos,
                        HeapEntry e);
  static void pop_root(std::vector<HeapEntry>& h);
  /// Files a cell at the level its bucket belongs to.
  void insert(const HeapEntry& e);
  /// Loads the next non-empty bucket into the (empty) near heap and pulls
  /// the far cells the window now covers. False when no event is left.
  bool advance_bucket();
  /// Absolute index of the first non-empty ring bucket after `cur_`.
  std::int64_t next_ring_bucket() const;
  /// Removes the cell that names `ref`, filed under time `at`.
  void erase(SimTime at, std::uintptr_t ref);
  void pop_near_root();

  /// Runs the earliest live event with timestamp <= `limit`, recycling any
  /// cancelled slots it skips past. The single dequeue path: `step`/`run`
  /// pass an unbounded limit, `run_until` passes `t`.
  bool run_next(SimTime limit);

  void arm_timer(Timer& timer, std::uint64_t seq);
  void disarm_timer(Timer& timer);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recycled slot indices
  // Near level: a 4-ary min-heap of the cells in buckets <= cur_.
  std::vector<HeapEntry> heap_;
  std::int64_t cur_ = 0;  // absolute bucket index of the near heap
  // Ring level: bucket b in (cur_, cur_ + kBuckets) at ring_[b % kBuckets].
  std::array<std::vector<HeapEntry>, kBuckets> ring_;
  std::array<std::uint64_t, kBitmapWords> occupied_{};  // non-empty buckets
  std::size_t ring_cells_ = 0;
  // Far level: a 4-ary min-heap of the cells in buckets >= cur_ + kBuckets.
  std::vector<HeapEntry> far_;
  std::size_t live_ = 0;    // armed timers + armed, uncancelled slots
  std::size_t timers_ = 0;  // armed timers
  std::uint64_t next_seq_ = 1;
  SimTime now_;
  std::uint64_t executed_ = 0;
};

/// A persistent event embedded in its owner: armed at an explicit (time,
/// seq) key, it holds no slab slot and no `std::function`, and runs
/// `fire(owner)`. At most one arming is pending at a time; the timer is
/// disarmed by the time its callback runs, so the callback may arm it
/// again. Destroying an armed timer takes its event out of the queue.
/// A timer must not outlive its Scheduler.
class Timer {
 public:
  using Fire = void (*)(void* owner);

  Timer(Scheduler& sched, void* owner, Fire fire)
      : sched_(sched), owner_(owner), fire_(fire) {}

  /// A timer that calls `(owner->*Method)()`.
  template <auto Method, class T>
  static Timer of(Scheduler& sched, T* owner) {
    return Timer(sched, owner,
                 [](void* o) { (static_cast<T*>(o)->*Method)(); });
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { disarm(); }

  /// Arms the timer at (t, seq), `seq` taken from `reserve_seq()`. A time
  /// before now() is clamped to now(). Precondition: not armed.
  void arm_at(SimTime t, std::uint64_t seq) {
    FHMIP_AUDIT("sched", !armed() && seq < sched_.next_seq_);
    at_ = t < sched_.now_ ? sched_.now_ : t;
    sched_.arm_timer(*this, seq);
  }

  /// Arms the timer at now() + delay, ordered as `schedule_in` would be.
  void arm_in(SimTime delay) {
    arm_at(sched_.now_ + delay, sched_.reserve_seq());
  }

  /// Takes a pending arming out of the queue; a no-op when not armed.
  void disarm() {
    if (!armed()) return;
    FHMIP_AUDIT("sched", sched_.timers_ > 0);
    sched_.disarm_timer(*this);
  }

  bool armed() const { return at_ != kDisarmed; }

 private:
  friend class Scheduler;

  // Every link and CBR source embeds timers, so a timer is kept to four
  // words: `at_` doubles as the armed flag, and the seq lives only in the
  // queue cell.
  static constexpr SimTime kDisarmed = SimTime::nanos(INT64_MIN);

  Scheduler& sched_;
  void* owner_;
  Fire fire_;
  SimTime at_ = kDisarmed;  // the armed time, clamped to the arming's now()
};

}  // namespace fhmip
