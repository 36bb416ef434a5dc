#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/check.hpp"

namespace fhmip {

namespace {
constexpr SimTime kNoLimit = SimTime::nanos(
    std::numeric_limits<std::int64_t>::max());
}  // namespace

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

// The sifts are defined ahead of their one caller each, and inline, so the
// 24-byte cell stays in registers. Called out of line, the cell went through
// the stack with a stalled store-to-load forward, which cost ~6 ns per
// schedule_at on BM_SchedulerScheduleRun/1000.
inline void Scheduler::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

inline void Scheduler::sift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = e;
}

EventId Scheduler::schedule_at(SimTime t, Action fn) {
  if (t < now_) t = now_;
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  s.cancelled = false;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, {t, next_seq_++, idx});
  ++live_;
  return encode(idx, s.gen);
}

void Scheduler::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t idx = decode_slot(id);
  if (idx >= slots_.size()) return;
  Slot& s = slots_[idx];
  if (!s.armed || s.gen != decode_gen(id) || s.cancelled) return;
  s.cancelled = true;
  s.fn = nullptr;  // release captured state eagerly
  FHMIP_AUDIT("sched", live_ > 0);
  --live_;
}

bool Scheduler::pending(EventId id) const {
  if (id == kInvalidEvent) return false;
  const std::uint32_t idx = decode_slot(id);
  if (idx >= slots_.size()) return false;
  const Slot& s = slots_[idx];
  return s.armed && s.gen == decode_gen(id) && !s.cancelled;
}

void Scheduler::release_root() {
  Slot& s = slots_[heap_[0].slot];
  ++s.gen;  // stale handles to this occupancy stop matching
  s.armed = false;
  s.cancelled = false;
  s.fn = nullptr;
  free_.push_back(heap_[0].slot);
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

bool Scheduler::pop_runnable(SimTime limit, SimTime& at_out, Action& fn_out) {
  while (!heap_.empty()) {
    Slot& top = slots_[heap_[0].slot];
    if (top.cancelled) {
      release_root();
      continue;
    }
    if (heap_[0].at > limit) return false;
    at_out = heap_[0].at;
    fn_out = std::move(top.fn);
    FHMIP_AUDIT("sched", live_ > 0);
    --live_;
    release_root();
    return true;
  }
  return false;
}

bool Scheduler::step() {
  SimTime at;
  Action fn;
  if (!pop_runnable(kNoLimit, at, fn)) return false;
  // The clock only moves forward: schedule_at clamps past times to now(),
  // so a popped event timestamped before now_ means heap-order corruption.
  FHMIP_AUDIT_MSG("sched", at >= now_,
                  "event at " + at.to_string() + " before clock " +
                      now_.to_string());
  now_ = at;
  ++executed_;
  fn();
  return true;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime t) {
  std::size_t n = 0;
  SimTime at;
  Action fn;
  while (pop_runnable(t, at, fn)) {
    FHMIP_AUDIT_MSG("sched", at >= now_,
                    "event at " + at.to_string() + " before clock " +
                        now_.to_string());
    now_ = at;
    ++executed_;
    ++n;
    fn();
  }
  if (now_ < t) now_ = t;
  return n;
}

void Scheduler::audit_invariants() const {
  FHMIP_AUDIT_MSG("sched", live_ <= heap_.size(),
                  "live=" + std::to_string(live_) +
                      " heap=" + std::to_string(heap_.size()));
  FHMIP_AUDIT_MSG("sched", heap_.size() + free_.size() == slots_.size(),
                  "heap=" + std::to_string(heap_.size()) +
                      " free=" + std::to_string(free_.size()) +
                      " slots=" + std::to_string(slots_.size()));
  // Level-2 sweeps: recount the live slots and verify 4-ary heap order.
#if FHMIP_AUDIT_LEVEL >= 2
  std::size_t armed = 0, live = 0;
  for (const Slot& s : slots_) {
    if (s.armed) {
      ++armed;
      if (!s.cancelled) ++live;
    }
  }
  FHMIP_AUDIT2_MSG("sched", armed == heap_.size(),
                   "armed=" + std::to_string(armed) +
                       " heap=" + std::to_string(heap_.size()));
  FHMIP_AUDIT2_MSG("sched", live == live_,
                   "recount=" + std::to_string(live) +
                       " live=" + std::to_string(live_));
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    FHMIP_AUDIT2_MSG("sched", slots_[heap_[pos].slot].armed,
                     "heap cell " + std::to_string(pos) +
                         " names a free slot");
    if (pos == 0) continue;
    const std::size_t parent = (pos - 1) / 4;
    FHMIP_AUDIT2_MSG("sched", !earlier(heap_[pos], heap_[parent]),
                     "heap order violated at pos " + std::to_string(pos));
  }
#endif
}

}  // namespace fhmip
