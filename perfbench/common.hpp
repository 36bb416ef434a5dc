// Shared pieces of the fhbench binary: wall clock, in-memory spans, the
// per-execution record and its one-line JSON rendering, and a scanner over
// MetricsRegistry::to_json() counters.
//
// Every layer is observed from outside: spans wrap fhbench's own calls
// into the simulator, counts are read from public accessors after a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall time in seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded by fhbench, kept in memory and written out when the
/// execution ends. A null log records nothing.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;  // index into spans(), -1 at the root
  };

  /// RAII span: opens on construction, closes on destruction; spans opened
  /// while it is open become its children.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One workload execution as fhbench prints it. `counts` hold the
/// deterministic per-layer counts (identical for the same seed, traced or
/// not); `checks` the output checks, each true when it passed.
struct Execution {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  double wall_s = 0;      // build through teardown (and export)
  double setup_s = 0;     // before the first simulated event
  double sim_s = 0;       // simulation phase
  double export_s = 0;    // metrics export
  double teardown_s = 0;  // topology destruction
  std::uint64_t handoffs = 0;  // L2 handoffs simulated
  std::uint64_t runs = 1;      // simulations in this execution
  std::uint64_t failed_runs = 0;
  std::vector<std::pair<std::string, double>> counts;
  std::vector<std::pair<std::string, bool>> checks;
  /// Consecutive pieces of wall time that add up to wall_s, each tagged
  /// "setup", "sim" (simulation phase) or "rest" (export, checks,
  /// teardown). The same seed gives the same sequence of pieces, so a run
  /// can take each piece's fastest time across its executions.
  std::vector<std::pair<std::string, double>> pieces;
  /// Scheduler depth sampled at each simulated second (traced runs only).
  std::vector<std::uint64_t> depth_samples;
  /// Per-second slices of the traced run: {second, events, handoffs}.
  std::vector<std::vector<double>> slices;
  /// Paper figures: name, simulations behind it, digest of its series.
  struct Figure {
    std::string name;
    std::uint64_t runs = 0;
    std::string digest;
  };
  std::vector<Figure> figures;

  void count(std::string name, double v) { counts.emplace_back(std::move(name), v); }
  void piece(std::string kind, double s) { pieces.emplace_back(std::move(kind), s); }
  /// Records a check; returns `ok` so callers can fold it into a run's
  /// verdict.
  bool check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
    return ok;
  }
  bool all_checks_pass() const;
};

/// Sum of the pieces recorded so far.
double pieces_s(const Execution& e);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Prints `e` (and the spans, when given) as one JSON line on stdout.
void print_execution(const Execution& e, const SpanLog* spans);

/// Per-layer sums over the counters of MetricsRegistry::to_json() exports:
/// `buffer/<r>/*`, `fastho/<r>/*`, `link/<l>/delivered_pkts`,
/// `wlan/handoffs`, `handover/outcome/*`, and the number of series.
struct RegistrySums {
  double grants = 0, rejections = 0, partial_grants = 0, reaped = 0;
  double buffered = 0, drained = 0;
  double link_deliveries = 0;
  double wlan_handoffs = 0;
  double predictive = 0, reactive = 0, failed = 0;
  double series = 0;

  void add(const std::string& registry_json);
};

/// 64-bit FNV-1a, for figure and population digests.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add_double(double v);
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
