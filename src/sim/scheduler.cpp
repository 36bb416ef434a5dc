#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>

namespace fhmip {

namespace {

constexpr SimTime kNoLimit = SimTime::nanos(
    std::numeric_limits<std::int64_t>::max());

// Timer cells carry the timer's address with the low bit clear.
static_assert(alignof(Timer) >= 2);

}  // namespace

// The sifts are inline in their callers, so the 24-byte cell stays in
// registers. Called out of line, the cell went through the stack with a
// stalled store-to-load forward, which cost ~6 ns per schedule_at on
// BM_SchedulerScheduleRun/1000. Both fill the hole at `pos` with `e`,
// moving the cells they pass; the near and far heaps share them.
inline void Scheduler::sift_up(std::vector<HeapEntry>& h, std::size_t pos,
                               HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(e, h[parent])) break;
    h[pos] = h[parent];
    pos = parent;
  }
  h[pos] = e;
}

inline void Scheduler::sift_down(std::vector<HeapEntry>& h, std::size_t pos,
                                 HeapEntry e) {
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], e)) break;
    h[pos] = h[best];
    pos = best;
  }
  h[pos] = e;
}

inline void Scheduler::pop_root(std::vector<HeapEntry>& h) {
  const HeapEntry last = h.back();
  h.pop_back();
  if (!h.empty()) sift_down(h, 0, last);
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void Scheduler::insert(const HeapEntry& e) {
  const std::int64_t b = bucket_of(e.at);
  if (b <= cur_) {
    heap_.emplace_back();
    sift_up(heap_, heap_.size() - 1, e);
  } else if (b - cur_ < kBuckets) {
    const auto i = static_cast<std::size_t>(b & (kBuckets - 1));
    ring_[i].push_back(e);
    occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++ring_cells_;
  } else {
    far_.emplace_back();
    sift_up(far_, far_.size() - 1, e);
  }
}

EventId Scheduler::schedule_at(SimTime t, Action fn) {
  if (t < now_) t = now_;
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  s.cancelled = false;
  insert({t, next_seq_++, (std::uintptr_t{idx} << 1) | 1u});
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

void Scheduler::arm_timer(Timer& timer, std::uint64_t seq) {
  insert({timer.at_, seq, reinterpret_cast<std::uintptr_t>(&timer)});
  ++timers_;
  ++live_;
}

void Scheduler::disarm_timer(Timer& timer) {
  erase(timer.at_, reinterpret_cast<std::uintptr_t>(&timer));
  timer.at_ = Timer::kDisarmed;
  --timers_;
  --live_;
}

void Scheduler::erase(SimTime at, std::uintptr_t ref) {
  const std::int64_t b = bucket_of(at);
  const auto names = [ref](const HeapEntry& e) { return e.ref == ref; };
  if (b > cur_ && b - cur_ < kBuckets) {
    const auto i = static_cast<std::size_t>(b & (kBuckets - 1));
    std::vector<HeapEntry>& bucket = ring_[i];
    const auto it = std::find_if(bucket.begin(), bucket.end(), names);
    FHMIP_AUDIT("sched", it != bucket.end());
    *it = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    --ring_cells_;
    return;
  }
  std::vector<HeapEntry>& h = b <= cur_ ? heap_ : far_;
  const auto it = std::find_if(h.begin(), h.end(), names);
  FHMIP_AUDIT("sched", it != h.end());
  const auto pos = static_cast<std::size_t>(it - h.begin());
  const HeapEntry last = h.back();
  h.pop_back();
  if (pos == h.size()) return;
  if (pos > 0 && earlier(last, h[(pos - 1) / 4])) {
    sift_up(h, pos, last);
  } else {
    sift_down(h, pos, last);
  }
}

std::int64_t Scheduler::next_ring_bucket() const {
  // Scan the bitmap circularly from the bucket after cur_; ring buckets lie
  // within (cur_, cur_ + kBuckets), so the first set bit is the earliest.
  const auto start = static_cast<std::size_t>((cur_ + 1) & (kBuckets - 1));
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t k = 0; k <= kBitmapWords; ++k) {
    if (bits != 0) {
      const std::size_t i = word * 64 + std::countr_zero(bits);
      return cur_ + static_cast<std::int64_t>(
                        (i - static_cast<std::size_t>(cur_)) &
                        (kBuckets - 1));
    }
    word = (word + 1) % kBitmapWords;
    bits = occupied_[word];
  }
  FHMIP_AUDIT("sched", false);  // ring_cells_ > 0 but no bucket marked
  return cur_ + 1;
}

bool Scheduler::advance_bucket() {
  // The near heap is empty. Ring buckets all precede the far heap, so the
  // next bucket is the first marked one, else the far heap's front.
  if (ring_cells_ > 0) {
    cur_ = next_ring_bucket();
    const auto i = static_cast<std::size_t>(cur_ & (kBuckets - 1));
    // Swapping keeps each vector's capacity in circulation.
    heap_.swap(ring_[i]);
    occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    ring_cells_ -= heap_.size();
    // Floyd's heapify, bottom-up over the 4-ary parents.
    for (std::size_t pos = heap_.size() > 1 ? (heap_.size() - 2) / 4 + 1 : 0;
         pos-- > 0;) {
      sift_down(heap_, pos, heap_[pos]);
    }
  } else if (!far_.empty()) {
    cur_ = bucket_of(far_[0].at);
  } else {
    return false;
  }
  // The window (cur_, cur_ + kBuckets) slid forward: far cells it now
  // covers move to the ring, or to the near heap when due in cur_ itself.
  while (!far_.empty() && bucket_of(far_[0].at) - cur_ < kBuckets) {
    const HeapEntry e = far_[0];
    pop_root(far_);
    insert(e);
  }
  return true;
}

void Scheduler::pop_near_root() {
  const HeapEntry& top = heap_[0];
  if (names_slot(top.ref)) {
    Slot& s = slots_[slot_of(top.ref)];
    ++s.gen;  // stale handles to this occupancy stop matching
    s.armed = false;
    s.cancelled = false;
    s.fn = nullptr;
    free_.push_back(slot_of(top.ref));
  }
  pop_root(heap_);
}

bool Scheduler::run_next(SimTime limit) {
  for (;;) {
    if (heap_.empty() && !advance_bucket()) return false;
    const HeapEntry top = heap_[0];
    Action fn;
    if (names_slot(top.ref)) {
      Slot& s = slots_[slot_of(top.ref)];
      if (s.cancelled) {
        pop_near_root();
        continue;
      }
      if (top.at > limit) return false;
      fn = std::move(s.fn);
    } else if (top.at > limit) {
      return false;
    }
    pop_near_root();
    // The clock only moves forward: schedule_at and arm_at clamp past
    // times to now(), so a popped event timestamped before now_ means
    // queue-order corruption.
    FHMIP_AUDIT_MSG("sched", top.at >= now_,
                    "event at " + top.at.to_string() + " before clock " +
                        now_.to_string());
    FHMIP_AUDIT("sched", live_ > 0);
    --live_;
    now_ = top.at;
    ++executed_;
    if (names_slot(top.ref)) {
      fn();
    } else {
      Timer& timer = *reinterpret_cast<Timer*>(top.ref);
      timer.at_ = Timer::kDisarmed;
      --timers_;
      timer.fire_(timer.owner_);
    }
    return true;
  }
}

bool Scheduler::step() { return run_next(kNoLimit); }

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime t) {
  std::size_t n = 0;
  while (run_next(t)) ++n;
  if (now_ < t) now_ = t;
  return n;
}

void Scheduler::audit_invariants() const {
  const std::size_t cells = heap_.size() + ring_cells_ + far_.size();
  FHMIP_AUDIT_MSG("sched", live_ <= cells && timers_ <= live_,
                  "live=" + std::to_string(live_) + " timers=" +
                      std::to_string(timers_) + " cells=" +
                      std::to_string(cells));
  FHMIP_AUDIT_MSG("sched", cells - timers_ + free_.size() == slots_.size(),
                  "cells=" + std::to_string(cells) +
                      " timers=" + std::to_string(timers_) +
                      " free=" + std::to_string(free_.size()) +
                      " slots=" + std::to_string(slots_.size()));
  // Level-2 sweeps: recount slots, timers and ring cells; check that every
  // cell names an armed slot or a timer armed at the cell's key, that it
  // sits at the level its bucket belongs to (near heap up to cur_, ring
  // bucket inside the window, far heap past it), and both heaps' order.
#if FHMIP_AUDIT_LEVEL >= 2
  std::size_t armed = 0, live = 0;
  for (const Slot& s : slots_) {
    if (s.armed) {
      ++armed;
      if (!s.cancelled) ++live;
    }
  }
  std::size_t timer_cells = 0, ring_cells = 0;
  const auto check_cell = [&](const HeapEntry& e, bool filed_right) {
    FHMIP_AUDIT2_MSG("sched", filed_right,
                     "cell at " + e.at.to_string() +
                         " filed at the wrong level for near bucket " +
                         std::to_string(cur_));
    if (names_slot(e.ref)) {
      FHMIP_AUDIT2_MSG("sched", slots_[slot_of(e.ref)].armed,
                       "cell at " + e.at.to_string() + " names a free slot");
      return;
    }
    ++timer_cells;
    const Timer& timer = *reinterpret_cast<const Timer*>(e.ref);
    FHMIP_AUDIT2_MSG("sched", timer.at_ == e.at,
                     "cell at " + e.at.to_string() +
                         " disagrees with its timer");
  };
  const auto check_heap = [&](const std::vector<HeapEntry>& h,
                              auto filed_right) {
    for (std::size_t pos = 0; pos < h.size(); ++pos) {
      check_cell(h[pos], filed_right(bucket_of(h[pos].at)));
      FHMIP_AUDIT2_MSG("sched", pos == 0 || !earlier(h[pos], h[(pos - 1) / 4]),
                       "heap order violated at pos " + std::to_string(pos));
    }
  };
  check_heap(heap_, [this](std::int64_t b) { return b <= cur_; });
  check_heap(far_, [this](std::int64_t b) { return b - cur_ >= kBuckets; });
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const bool marked = ((occupied_[i / 64] >> (i % 64)) & 1u) != 0;
    FHMIP_AUDIT2_MSG("sched", marked == !ring_[i].empty(),
                     "ring bucket " + std::to_string(i) +
                         " disagrees with its bitmap bit");
    for (const HeapEntry& e : ring_[i]) {
      const std::int64_t b = bucket_of(e.at);
      check_cell(e, b > cur_ && b - cur_ < kBuckets &&
                        static_cast<std::size_t>(b & (kBuckets - 1)) == i);
    }
    ring_cells += ring_[i].size();
  }
  FHMIP_AUDIT2_MSG("sched",
                   armed + timers_ == cells && live + timers_ == live_ &&
                       timer_cells == timers_ && ring_cells == ring_cells_,
                   "recount: armed=" + std::to_string(armed) +
                       " live=" + std::to_string(live) +
                       " timer cells=" + std::to_string(timer_cells) +
                       " ring cells=" + std::to_string(ring_cells) +
                       "; kept: cells=" + std::to_string(cells) +
                       " live=" + std::to_string(live_) +
                       " timers=" + std::to_string(timers_) +
                       " ring cells=" + std::to_string(ring_cells_));
#endif
}

}  // namespace fhmip
