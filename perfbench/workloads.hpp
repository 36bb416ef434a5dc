// The benchmark's three workloads and the per-layer probes, each driven
// through the simulator's public API only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "scenario/city_topology.hpp"

namespace perfbench {

/// `kSmoke` shrinks every workload to a seconds-long sanity size.
enum class Size { kFull, kSmoke };

// --- city_roam / city_traffic ----------------------------------------------

/// The scale_population_sweep city configuration: N=5000 with a quarter of
/// the hosts at 16 kb/s for city_roam, N=1000 with every host at 64 kb/s for
/// city_traffic.
fhmip::CityConfig city_config(const std::string& workload, Size size,
                              std::uint64_t seed);

/// Walk horizon plus lease lifetime, grace and slack: by then every attempt
/// has resolved and every lease has drained or been torn down.
fhmip::SimTime city_quiesce_end(const fhmip::CityConfig& cfg);

/// One execution: build, start, run to quiesce, export the registry, check,
/// tear down. Traced executions advance one simulated second per
/// run_until, sampling the scheduler depth after each slice.
Execution run_city(const std::string& workload, const fhmip::CityConfig& cfg,
                   bool traced, SpanLog* spans);

/// The WLAN layer alone: a WlanManager over the workload's AP field and
/// walks with null L2 callbacks and no router advertisements.
struct ReplicaResult {
  std::uint64_t handoffs = 0;
  double roam_s = 0;    // start to walk horizon (hosts moving)
  double frozen_s = 0;  // horizon to quiesce end (hosts frozen)
};
ReplicaResult wlan_replica(const fhmip::CityConfig& cfg);

/// Digest of the population a city config draws (spawn, speed, activity,
/// class of every host).
std::string population_digest(const fhmip::CityConfig& cfg);

// --- paper_figures -----------------------------------------------------------

/// One pass over the thesis's Chapter 4 grids (Figs 4.2-4.14) through the
/// public runners of scenario/experiment.hpp. Its set-up is the build and
/// start of a topology configured like each runner call's, made just
/// before that call and left out of the pass's wall time.
Execution run_paper(Size size, std::uint64_t seed, bool traced,
                    SpanLog* spans);

// --- per-layer probes --------------------------------------------------------

/// Per-operation costs of single layers on inputs shaped like a workload.
struct ProbeShape {
  std::uint64_t seed = 1;
  std::uint64_t queue_depth = 0;   // scheduler depth to hold
  std::uint32_t packet_bytes = 160;
  std::uint32_t request_pkts = 10;  // buffer lease size
};
struct ProbeResult {
  double event_ns = 0;        // Scheduler schedule_at + step
  double hop_ns = 0;          // SimplexLink transmit -> deliver, per packet
  double buffer_op_ns = 0;    // per buffered packet, amortized lease
  double paper_build_ms = 0;  // PaperTopology build + destroy
};
ProbeResult run_probes(const ProbeShape& shape, SpanLog* spans);

/// Median scheduler depth of a Fig 4.3-shaped paper run (three flows,
/// bouncing host), sampled every 100 ms of simulated time.
std::uint64_t paper_queue_depth(std::uint64_t seed);

}  // namespace perfbench
