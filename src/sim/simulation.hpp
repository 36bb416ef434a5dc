#pragma once

#include <cstdint>
#include <string>

#include "net/packet_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace fhmip {

/// The per-run simulation context: event loop, RNG, stats, logger. Every
/// component takes a `Simulation&` and must not outlive it. Two runs with the
/// same seed and construction order produce identical results.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  PacketPool& packet_pool() { return packet_pool_; }
  const PacketPool& packet_pool() const { return packet_pool_; }
  Rng& rng() { return rng_; }
  StatsHub& stats() { return stats_; }
  const StatsHub& stats() const { return stats_; }
  Logger& logger() { return logger_; }
  PacketTrace& trace() { return trace_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::HandoverTimeline& timeline() { return timeline_; }
  const obs::HandoverTimeline& timeline() const { return timeline_; }

  SimTime now() const { return scheduler_.now(); }
  EventId at(SimTime t, Scheduler::Action fn) {
    return scheduler_.schedule_at(t, std::move(fn));
  }
  EventId in(SimTime delay, Scheduler::Action fn) {
    return scheduler_.schedule_in(delay, std::move(fn));
  }
  void cancel(EventId id) { scheduler_.cancel(id); }

  void run() { scheduler_.run(); }
  void run_until(SimTime t) { scheduler_.run_until(t); }

  /// Monotonic id source for packets, nodes, etc.
  std::uint64_t next_uid() { return next_uid_++; }

  void log(LogLevel level, const std::string& msg) {
    logger_.log(level, now(), msg);
  }

  /// The one terminal call for a packet that dies: adds the drop to
  /// StatsHub under its flow and reason, emits one kDrop trace event at
  /// `where` (the node or link name) and writes one debug log line. The
  /// packet is freed on return.
  void drop(PacketPtr p, DropReason reason, const char* where);

 private:
  // Declared first: the pool must outlive every other member — pending
  // scheduler actions and topology objects own pooled packets, and their
  // destructors return slots to the pool.
  PacketPool packet_pool_;
  Scheduler scheduler_;
  Rng rng_;
  StatsHub stats_;
  Logger logger_;
  PacketTrace trace_;
  obs::MetricsRegistry metrics_;
  obs::HandoverTimeline timeline_;
  std::uint64_t next_uid_ = 1;
};

}  // namespace fhmip
