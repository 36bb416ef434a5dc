#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace fhmip {

/// Opaque handle for a scheduled event; used for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Deterministic single-threaded discrete-event scheduler.
///
/// Events at the same timestamp execute in scheduling order (FIFO), which is
/// the property protocol state machines in this library rely on.
///
/// Storage is a slab of generation-tagged slots holding the actions, and a
/// 4-ary min-heap whose cells carry their own (time, issue sequence) key
/// plus the slot index. Sifts compare and move heap cells only; a slot is
/// touched at the root (to run or recycle it), by `cancel()` and by
/// `pending()`. An EventId packs the slot index and the slot's generation at
/// issue time, so `pending()` and `cancel()` are O(1) slot loads — no hash
/// lookups — and stale handles from a reused slot fail the generation check.
/// Cancellation is lazy: the slot is flagged and skipped (and recycled) when
/// its heap cell reaches the root. The 4-ary layout halves the sift-down
/// depth vs. a binary heap, and a node's four children sit side by side.
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

  /// Runs events until the queue is empty or `max_events` have run.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= `t` (including events scheduled at
  /// <= `t` by events already running inside this call), then advances the
  /// clock to `t`.
  std::size_t run_until(SimTime t);

  /// Executes exactly one event if available. Returns false on empty queue.
  bool step();

  std::size_t queue_size() const { return live_; }
  bool empty() const { return live_ == 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// Runs the slab/heap consistency audits (FHMIP_AUDIT; no-op at audit
  /// level 0). Exposed so tests and long scenarios can sweep.
  void audit_invariants() const;

 private:
  /// One slab entry. A slot not on the free list is "armed": it owns an
  /// action and is named by exactly one heap cell. `gen` counts reuses of
  /// the slot; handles from a previous occupancy no longer match it.
  struct Slot {
    Action fn;
    std::uint32_t gen = 0;
    bool armed = false;
    bool cancelled = false;
  };

  /// One heap cell: the event's key, inline so that sifts never load a slot.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // issue order; the same-time FIFO tiebreaker
    std::uint32_t slot;
  };

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

  /// (time, seq) heap order between two cells.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_root();
  /// Both sifts fill the hole at `pos` with `e`, moving the cells they pass.
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);

  /// Pops the earliest non-cancelled action with timestamp <= `limit`,
  /// recycling any cancelled slots it skips past. The single dequeue path:
  /// `step`/`run` pass an unbounded limit, `run_until` passes `t`.
  bool pop_runnable(SimTime limit, SimTime& at_out, Action& fn_out);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<HeapEntry> heap_;      // 4-ary min-heap over armed slots
  std::size_t live_ = 0;             // armed and not cancelled
  std::uint64_t next_seq_ = 1;
  SimTime now_;
  std::uint64_t executed_ = 0;
};

}  // namespace fhmip
