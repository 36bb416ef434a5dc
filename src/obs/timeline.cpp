#include "obs/timeline.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace fhmip::obs {
namespace {

// Millisecond buckets covering sub-ms control RTTs up to multi-second
// outage tails; values beyond 5 s land in the overflow bucket.
std::vector<double> phase_bounds_ms() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

}  // namespace

const char* to_string(HoEventKind kind) {
  switch (kind) {
    case HoEventKind::kL2Trigger:
      return "l2-trigger";
    case HoEventKind::kRtSolPrSent:
      return "rtsolpr-sent";
    case HoEventKind::kPrRtAdvRecv:
      return "prrtadv-recv";
    case HoEventKind::kHiSent:
      return "hi-sent";
    case HoEventKind::kHackRecv:
      return "hack-recv";
    case HoEventKind::kFbuSent:
      return "fbu-sent";
    case HoEventKind::kReactiveFbuSent:
      return "reactive-fbu-sent";
    case HoEventKind::kFbackRecv:
      return "fback-recv";
    case HoEventKind::kFnaSent:
      return "fna-sent";
    case HoEventKind::kBiSent:
      return "bi-sent";
    case HoEventKind::kBaRecv:
      return "ba-recv";
    case HoEventKind::kBfSent:
      return "bf-sent";
    case HoEventKind::kBlackoutStart:
      return "blackout-start";
    case HoEventKind::kBlackoutEnd:
      return "blackout-end";
    case HoEventKind::kBufferFill:
      return "buffer-fill";
    case HoEventKind::kDrainStart:
      return "drain-start";
    case HoEventKind::kDrainEnd:
      return "drain-end";
    case HoEventKind::kResolved:
      return "resolved";
    case HoEventKind::kBufferGrant:
      return "buffer-grant";
    case HoEventKind::kBufferShrink:
      return "buffer-shrink";
    case HoEventKind::kBufferDeny:
      return "buffer-deny";
    case HoEventKind::kWatchdogFired:
      return "watchdog-fired";
  }
  return "?";
}

void HandoverTimeline::set_registry(MetricsRegistry& registry) {
  anticipation_ms_ = &registry.histogram("handover/phase/anticipation_ms",
                                         phase_bounds_ms());
  fbu_fback_ms_ =
      &registry.histogram("handover/phase/fbu_fback_ms", phase_bounds_ms());
  blackout_ms_ =
      &registry.histogram("handover/phase/blackout_ms", phase_bounds_ms());
  total_ms_ = &registry.histogram("handover/phase/total_ms", phase_bounds_ms());
  for (int i = 0; i < kNumHandoverOutcomes; ++i) {
    outcome_count_[i] =
        &registry.counter(std::string("handover/outcome/") +
                          to_string(static_cast<HandoverOutcome>(i)));
  }
}

HandoverTimeline::OpenAttempt& HandoverTimeline::open_for(SimTime at,
                                                          MhId mh) {
  if (mh >= open_.size()) open_.resize(mh + std::size_t{1});
  OpenAttempt& a = open_[mh];
  if (!a.open) {
    const std::uint32_t ordinal = a.ordinal + 1;
    a = OpenAttempt{};
    a.open = true;
    a.ordinal = ordinal;
    a.started = at;
  }
  return a;
}

void HandoverTimeline::record(SimTime at, MhId mh, HoEventKind kind,
                              const std::string& where) {
  // Events that can only belong to an attempt open one; bookkeeping events
  // outside any attempt (e.g. a drain tail after resolution) record with
  // attempt ordinal 0.
  std::uint32_t ordinal = 0;
  bool opens = false;
  switch (kind) {
    case HoEventKind::kL2Trigger:
    case HoEventKind::kRtSolPrSent:
    case HoEventKind::kBlackoutStart:
      opens = true;
      break;
    default:
      break;
  }
  if (opens || (mh < open_.size() && open_[mh].open)) {
    OpenAttempt& a = open_for(at, mh);
    ordinal = a.ordinal;
    switch (kind) {
      case HoEventKind::kL2Trigger:
        if (!a.saw_trigger) {
          a.saw_trigger = true;
          a.trigger_at = at;
        }
        break;
      case HoEventKind::kPrRtAdvRecv:
        if (a.saw_trigger && !a.phases.has_anticipation) {
          a.phases.anticipation = at - a.trigger_at;
          a.phases.has_anticipation = true;
        }
        break;
      case HoEventKind::kFbuSent:
      case HoEventKind::kReactiveFbuSent:
        if (!a.saw_fbu) {
          a.saw_fbu = true;
          a.fbu_at = at;
        }
        break;
      case HoEventKind::kFbackRecv:
        if (a.saw_fbu && !a.phases.has_fbu_fback) {
          a.phases.fbu_fback = at - a.fbu_at;
          a.phases.has_fbu_fback = true;
        }
        break;
      case HoEventKind::kBlackoutStart:
        a.saw_detach = true;
        a.detach_at = at;
        break;
      case HoEventKind::kBlackoutEnd:
        if (a.saw_detach && !a.phases.has_blackout) {
          a.phases.blackout = at - a.detach_at;
          a.phases.has_blackout = true;
        }
        break;
      default:
        break;
    }
  }
  append_record({at, mh, kind, where, ordinal});
}

void HandoverTimeline::append_record(HoEventRecord&& r) {
  records_.push_back(std::move(r));
  if (record_cap_ > 0 && records_.size() > 2 * record_cap_) {
    const std::size_t drop = records_.size() - record_cap_;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_records_ += drop;
  }
}

const HandoverAttempt& HandoverTimeline::resolve(SimTime at, MhId mh,
                                                 HandoverOutcome outcome,
                                                 HandoverCause cause) {
  OpenAttempt& a = open_for(at, mh);
  a.phases.total = at - a.started;
  append_record({at, mh, HoEventKind::kResolved, to_string(outcome),
                 a.ordinal});
  a.open = false;
  const HandoverAttempt& done = outcomes_.record(
      {mh, a.ordinal, a.started, at, outcome, cause, a.phases});

  if (total_ms_ != nullptr) {
    const PhaseBreakdown& p = done.phases;
    if (p.has_anticipation)
      anticipation_ms_->observe(p.anticipation.millis_f());
    if (p.has_fbu_fback) fbu_fback_ms_->observe(p.fbu_fback.millis_f());
    if (p.has_blackout) blackout_ms_->observe(p.blackout.millis_f());
    total_ms_->observe(p.total.millis_f());
    outcome_count_[static_cast<int>(outcome)]->inc();
  }
  if (resolve_hook_) resolve_hook_(done);
  return done;
}

std::vector<HandoverAttempt> HandoverTimeline::attempts_for(MhId mh) const {
  std::vector<HandoverAttempt> out;
  for (const auto& a : attempts())
    if (a.mh == mh) out.push_back(a);
  return out;
}

std::string HandoverTimeline::format_timeline() const {
  std::string out;
  char line[192];
  for (const auto& r : records_) {
    std::snprintf(line, sizeof(line), "T %.6f mh %u a%u %s @%s\n", r.at.sec(),
                  r.mh, r.attempt, to_string(r.kind), r.where.c_str());
    out += line;
  }
  return out;
}

}  // namespace fhmip::obs
