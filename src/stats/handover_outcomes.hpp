#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/messages.hpp"
#include "sim/time.hpp"

namespace fhmip {
namespace obs {
class HandoverTimeline;
}  // namespace obs

/// How an inter-AR handover attempt ended.
enum class HandoverOutcome : std::uint8_t {
  /// The full anticipated choreography ran: RtSolPr+BI answered, FBU sent
  /// on the old link before the blackout.
  kPredictive = 0,
  /// The anticipated path broke down (or was disabled) and the FBU went
  /// via the new link after attachment (§2.3.2), acknowledged by an FBack.
  kReactive = 1,
  /// Even the reactive FBU retries exhausted without an FBack: the host
  /// reattached but no redirection was established by the fast-handover
  /// machinery (traffic resumes only via the binding update).
  kFailed = 2,
};

/// Why a non-predictive outcome happened (kNone for clean predictive runs).
enum class HandoverCause : std::uint8_t {
  kNone = 0,
  /// Anticipation disabled by configuration (cfg.anticipate = false).
  kNotAnticipated = 1,
  /// RtSolPr retries exhausted without a PrRtAdv.
  kNoPrRtAdv = 2,
  /// Anticipated, but the predisconnect window was missed (trigger arrived
  /// for a different target than the one the radio switched to).
  kTargetChanged = 3,
  /// Reactive FBU retries exhausted without an FBack (kFailed attempts).
  kNoFback = 4,
  /// The per-attempt liveness watchdog expired with the choreography wedged
  /// (no retransmission timer left to make progress) and tore it down.
  kWatchdog = 5,
};

const char* to_string(HandoverOutcome o);
const char* to_string(HandoverCause c);
inline constexpr int kNumHandoverOutcomes = 3;
inline constexpr int kNumHandoverCauses = 6;

/// Per-attempt latency decomposition, produced by the handover timeline
/// (src/obs/timeline.hpp). A span is only meaningful when its `has_` flag is
/// set: e.g. a reactive attempt has no anticipation span, a predictive one
/// whose radio never dropped has no blackout. Every stored attempt was
/// closed by `HandoverTimeline::resolve`, so `total` is always set.
struct PhaseBreakdown {
  SimTime anticipation;  // L2 trigger -> PrRtAdv received
  SimTime fbu_fback;     // first FBU sent -> FBack received
  SimTime blackout;      // L2 detach -> L2 attach
  SimTime total;         // attempt start -> resolution
  bool has_anticipation = false;
  bool has_fbu_fback = false;
  bool has_blackout = false;
};

/// One resolved inter-AR handover attempt with its event span and derived
/// phase latencies.
struct HandoverAttempt {
  MhId mh = kNoNode;
  std::uint32_t ordinal = 0;  // 1-based per MH
  SimTime started;
  SimTime resolved;  // attach for predictive, FBack/exhaustion for
                     // reactive/failed
  HandoverOutcome outcome = HandoverOutcome::kPredictive;
  HandoverCause cause = HandoverCause::kNone;
  PhaseBreakdown phases;
};

/// The store of resolved handover attempts with per-outcome and per-cause
/// tallies, so scenarios and benches can report success rates under fault
/// sweeps. Each Simulation's `HandoverTimeline` owns the one instance and is
/// its only writer; everything else reads it through
/// `HandoverTimeline::outcomes()` (or a topology's `outcomes()`).
class HandoverOutcomeRecorder {
 public:
  std::uint64_t attempts() const { return attempts_.size(); }
  std::uint64_t count(HandoverOutcome o) const {
    return by_outcome_[static_cast<int>(o)];
  }
  std::uint64_t count(HandoverCause c) const {
    return by_cause_[static_cast<int>(c)];
  }
  /// Predictive + reactive attempts (the host recovered redirection).
  std::uint64_t completed() const {
    return count(HandoverOutcome::kPredictive) +
           count(HandoverOutcome::kReactive);
  }
  /// completed / attempts in [0, 1]; 1 when no attempts were made.
  double success_rate() const;

  /// Every resolved attempt, in resolution order.
  const std::vector<HandoverAttempt>& history() const { return attempts_; }

  /// Aligned text table with one row per outcome and per cause — the
  /// "outcome stats table" benches print alongside the paper figures.
  std::string format_table(const std::string& title) const;

 private:
  friend class obs::HandoverTimeline;
  HandoverOutcomeRecorder() = default;
  const HandoverAttempt& record(const HandoverAttempt& a);

  std::vector<HandoverAttempt> attempts_;
  std::uint64_t by_outcome_[kNumHandoverOutcomes] = {};
  std::uint64_t by_cause_[kNumHandoverCauses] = {};
};

}  // namespace fhmip
