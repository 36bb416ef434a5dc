#include "stats/handover_outcomes.hpp"

#include <cstdio>

namespace fhmip {

const char* to_string(HandoverOutcome o) {
  switch (o) {
    case HandoverOutcome::kPredictive:
      return "predictive";
    case HandoverOutcome::kReactive:
      return "reactive";
    case HandoverOutcome::kFailed:
      return "failed";
  }
  return "?";
}

const char* to_string(HandoverCause c) {
  switch (c) {
    case HandoverCause::kNone:
      return "none";
    case HandoverCause::kNotAnticipated:
      return "not-anticipated";
    case HandoverCause::kNoPrRtAdv:
      return "no-prrtadv";
    case HandoverCause::kTargetChanged:
      return "target-changed";
    case HandoverCause::kNoFback:
      return "no-fback";
    case HandoverCause::kWatchdog:
      return "watchdog";
  }
  return "?";
}

const HandoverAttempt& HandoverOutcomeRecorder::record(
    const HandoverAttempt& a) {
  ++by_outcome_[static_cast<int>(a.outcome)];
  ++by_cause_[static_cast<int>(a.cause)];
  return attempts_.emplace_back(a);
}

double HandoverOutcomeRecorder::success_rate() const {
  if (attempts_.empty()) return 1.0;
  return static_cast<double>(completed()) /
         static_cast<double>(attempts_.size());
}

std::string HandoverOutcomeRecorder::format_table(
    const std::string& title) const {
  char line[128];
  std::string out = title + "\n";
  std::snprintf(line, sizeof(line), "  %-18s %8llu\n", "attempts",
                static_cast<unsigned long long>(attempts()));
  out += line;
  for (int i = 0; i < kNumHandoverOutcomes; ++i) {
    std::snprintf(line, sizeof(line), "  %-18s %8llu\n",
                  to_string(static_cast<HandoverOutcome>(i)),
                  static_cast<unsigned long long>(by_outcome_[i]));
    out += line;
  }
  for (int i = 0; i < kNumHandoverCauses; ++i) {
    std::snprintf(line, sizeof(line), "  cause/%-12s %8llu\n",
                  to_string(static_cast<HandoverCause>(i)),
                  static_cast<unsigned long long>(by_cause_[i]));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-18s %7.2f%%\n", "success rate",
                100.0 * success_rate());
  out += line;
  // Mean per-phase latencies over the attempts that exhibited the phase.
  struct Span {
    const char* name;
    double sum_ms = 0;
    std::uint64_t n = 0;
    void add(bool seen, SimTime span) {
      if (!seen) return;
      sum_ms += span.millis_f();
      ++n;
    }
  } spans[4] = {{"anticipation"}, {"fbu-fback"}, {"blackout"}, {"total"}};
  for (const auto& a : attempts_) {
    const PhaseBreakdown& p = a.phases;
    spans[0].add(p.has_anticipation, p.anticipation);
    spans[1].add(p.has_fbu_fback, p.fbu_fback);
    spans[2].add(p.has_blackout, p.blackout);
    spans[3].add(true, p.total);
  }
  for (const auto& s : spans) {
    if (s.n == 0) continue;
    std::snprintf(line, sizeof(line), "  phase/%-12s %7.2fms (n=%llu)\n",
                  s.name, s.sum_ms / static_cast<double>(s.n),
                  static_cast<unsigned long long>(s.n));
    out += line;
  }
  return out;
}

}  // namespace fhmip
