// fhbench: one workload step per process, one JSON line on stdout.
//
//   fhbench exec    --workload W --seed S [--trace] [--smoke]
//   fhbench replica --workload W --seed S [--smoke]
//   fhbench probes  --workload W --seed S [--depth D] [--smoke]
//
// W is city_roam, city_traffic or paper_figures. `exec` runs one execution
// and prints its timings, counts, checks and peak RSS (one process per
// execution, so the RSS is that execution's own); `--trace` adds spans,
// per-second slices and scheduler-depth samples. `replica` runs the
// WLAN-only replica of a city workload, and `probes` times the per-layer
// probes. perfbench/run.py drives these.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t depth = 0;
  bool trace = false;
  Size size = Size::kFull;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--depth" && has_value) {
      a.depth = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--trace") {
      a.trace = true;
    } else if (k == "--smoke") {
      a.size = Size::kSmoke;
    } else {
      return false;
    }
  }
  return a.workload == "city_roam" || a.workload == "city_traffic" ||
         a.workload == "paper_figures";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: fhbench exec|replica|probes --workload "
                 "city_roam|city_traffic|paper_figures --seed N [--trace] "
                 "[--smoke] [--depth D]\n");
    return 2;
  }
  const bool paper = a.workload == "paper_figures";

  if (a.cmd == "exec") {
    SpanLog spans;
    SpanLog* log = a.trace ? &spans : nullptr;
    const Execution e =
        paper ? run_paper(a.size, a.seed, a.trace, log)
              : run_city(a.workload, city_config(a.workload, a.size, a.seed),
                         a.trace, log);
    print_execution(e, log);
    return 0;
  }
  if (a.cmd == "replica" && !paper) {
    const ReplicaResult r =
        wlan_replica(city_config(a.workload, a.size, a.seed));
    std::printf("{\"handoffs\":%llu,\"roam_s\":%.17g,\"frozen_s\":%.17g}\n",
                static_cast<unsigned long long>(r.handoffs), r.roam_s,
                r.frozen_s);
    return 0;
  }
  if (a.cmd == "probes") {
    ProbeShape shape;
    shape.seed = a.seed;
    shape.queue_depth = a.depth;
    if (paper) {
      if (shape.queue_depth == 0) shape.queue_depth = paper_queue_depth(a.seed);
      shape.request_pkts = 20;  // the Figs 4.3-4.10 request size
    } else {
      const fhmip::CityConfig cfg = city_config(a.workload, a.size, a.seed);
      shape.packet_bytes = cfg.population.packet_bytes;
      shape.request_pkts = cfg.scheme.request_pkts;
    }
    SpanLog spans;
    const ProbeResult r = run_probes(shape, &spans);
    std::printf("{\"depth\":%llu,\"event_ns\":%.17g,\"hop_ns\":%.17g,"
                "\"buffer_op_ns\":%.17g,\"paper_build_ms\":%.17g,"
                "\"spans\":%s}\n",
                static_cast<unsigned long long>(shape.queue_depth), r.event_ns,
                r.hop_ns, r.buffer_op_ns, r.paper_build_ms,
                spans.to_json().c_str());
    return 0;
  }
  std::fprintf(stderr, "fhbench: unknown command '%s' for %s\n", a.cmd.c_str(),
               a.workload.c_str());
  return 2;
}
