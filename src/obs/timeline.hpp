#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "stats/handover_outcomes.hpp"

namespace fhmip::obs {

class Counter;
class Histogram;
class MetricsRegistry;

/// Typed control-plane event kinds recorded on the handover timeline. One
/// record per protocol step, so the full choreography of an attempt can be
/// replayed and rendered (golden-trace tests) and per-phase latencies can be
/// derived without parsing log strings.
enum class HoEventKind : std::uint8_t {
  kL2Trigger,     // radio anticipates a handoff (MH)
  kRtSolPrSent,   // MH -> PAR solicitation
  kPrRtAdvRecv,   // PAR advertisement reached the MH
  kHiSent,        // PAR -> NAR handover initiate (carries BR)
  kHackRecv,      // NAR HAck (carries BA) reached the PAR
  kFbuSent,       // MH fast binding update (old link, predictive)
  kReactiveFbuSent,  // MH fast binding update via the new link (§2.3.2)
  kFbackRecv,     // FBack reached the MH
  kFnaSent,       // MH -> NAR fast neighbour advertisement
  kBiSent,        // standalone buffer-initiate (smooth-handover baseline)
  kBaRecv,        // standalone buffer-acknowledge
  kBfSent,        // buffer-flush toward the serving AR
  kBlackoutStart,  // L2 detach: the radio left the old AP
  kBlackoutEnd,    // L2 attach: the radio joined the new AP
  kBufferFill,     // first packet parked in a handoff buffer for this MH
  kDrainStart,     // an AR began releasing a buffer toward the MH
  kDrainEnd,       // that buffer ran empty
  kResolved,       // attempt classified (predictive/reactive/failed)
  kBufferGrant,    // a router granted the full requested buffer space
  kBufferShrink,   // partial grant: pool pressure shrank the request
  kBufferDeny,     // request refused outright (zero grant)
  kWatchdogFired,  // the MH's per-attempt liveness deadline expired
};

const char* to_string(HoEventKind kind);

struct HoEventRecord {
  SimTime at;
  MhId mh = kNoNode;
  HoEventKind kind = HoEventKind::kL2Trigger;
  std::string where;       // node that observed the event ("mh1", "par", ...)
  std::uint32_t attempt = 0;  // 1-based per-MH attempt ordinal (0 = between
                              // attempts, e.g. a stray drain)
};

/// Handover timeline tracer, owned by the Simulation next to the packet
/// trace. Agents record protocol steps as they execute them; the timeline
/// groups records into per-MH attempts (opened by the first trigger/detach/
/// solicitation, closed by `resolve`), derives each attempt's per-phase
/// latency breakdown, and owns the simulation's one store of resolved
/// attempts (`outcomes()`, a stats/handover_outcomes recorder that `resolve`
/// alone writes) plus the `handover/phase/*_ms` histograms and
/// `handover/outcome/*` counters of the metrics registry. Event volume is
/// control-plane rate (a handful of records per handover), so the timeline
/// is always on.
class HandoverTimeline {
 public:
  using ResolveHook = std::function<void(const HandoverAttempt&)>;

  /// Registers the `handover/phase/*_ms` histograms and outcome counters
  /// and keeps their handles; `registry` must outlive the timeline.
  void set_registry(MetricsRegistry& registry);
  /// Bounds the raw record log: with a cap (> 0) only the most recent
  /// `cap` records are kept (amortized — the log grows to 2*cap, then the
  /// oldest half is trimmed in one move), and `dropped_records()` counts
  /// the discarded prefix. Zero (the default) keeps everything. Long
  /// population runs set a cap so timeline memory stays flat; the derived
  /// attempts/metrics are unaffected — only `records()`/`format_timeline()`
  /// lose their oldest entries.
  void set_record_cap(std::size_t cap) { record_cap_ = cap; }
  std::uint64_t dropped_records() const { return dropped_records_; }
  /// Invoked after every attempt closes — property tests use this to check
  /// ledger conservation at each handover boundary.
  void set_resolve_hook(ResolveHook hook) { resolve_hook_ = std::move(hook); }

  /// Appends a record; opens a new attempt for `mh` when none is in flight.
  void record(SimTime at, MhId mh, HoEventKind kind, const std::string& where);

  /// Closes the in-flight attempt for `mh` (opening and closing one if none
  /// is, so unanticipated reattachments still count), stores it in
  /// `outcomes()` and returns the stored attempt (valid until the next
  /// `resolve`).
  const HandoverAttempt& resolve(SimTime at, MhId mh, HandoverOutcome outcome,
                                 HandoverCause cause);

  const std::vector<HoEventRecord>& records() const { return records_; }
  /// Every resolved attempt, in resolution order.
  const std::vector<HandoverAttempt>& attempts() const {
    return outcomes_.history();
  }
  /// Attempts resolved for one MH, in resolution order.
  std::vector<HandoverAttempt> attempts_for(MhId mh) const;
  /// The attempt store with its per-outcome and per-cause tallies.
  const HandoverOutcomeRecorder& outcomes() const { return outcomes_; }

  /// Deterministic one-line-per-record rendering:
  ///   "T 2.200000 mh 100 a1 fbu-sent @mh1".
  std::string format_timeline() const;

 private:
  /// Per-MH state, kept after the attempt closes so the next one continues
  /// the ordinal count.
  struct OpenAttempt {
    std::uint32_t ordinal = 0;  // of the open attempt, else the last closed
    SimTime started;
    bool open = false;
    // Phase anchors (valid when the matching `saw_` flag is set).
    SimTime trigger_at, fbu_at, detach_at;
    bool saw_trigger = false, saw_fbu = false, saw_detach = false;
    PhaseBreakdown phases;
  };

  OpenAttempt& open_for(SimTime at, MhId mh);
  void append_record(HoEventRecord&& r);

  std::vector<HoEventRecord> records_;
  std::size_t record_cap_ = 0;
  std::uint64_t dropped_records_ = 0;
  HandoverOutcomeRecorder outcomes_;
  // Indexed by MhId; grows to the highest MhId recorded so far.
  std::vector<OpenAttempt> open_;
  // Registry series, resolved once by `set_registry` (null without one).
  Histogram* anticipation_ms_ = nullptr;
  Histogram* fbu_fback_ms_ = nullptr;
  Histogram* blackout_ms_ = nullptr;
  Histogram* total_ms_ = nullptr;
  Counter* outcome_count_[kNumHandoverOutcomes] = {};
  ResolveHook resolve_hook_;
};

}  // namespace fhmip::obs
