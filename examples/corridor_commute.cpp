// Corridor commute: a device streams audio while its user walks past a
// row of WLAN cells (multi-AR corridor). Each interior access router first
// receives the host (NAR role), then hands it onward (PAR role); the
// stream survives every 200 ms blackout through the dual-buffer scheme.
//
//   ./build/examples/corridor_commute [num_ars]

#include <cstdio>
#include <cstdlib>

#include "scenario/paper_topology.hpp"
#include "stats/recorder.hpp"
#include "stats/table.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

using namespace fhmip;
using namespace fhmip::timeliterals;

int main(int argc, char** argv) {
  PaperTopologyConfig cfg;
  cfg.num_ars = argc > 1 ? std::atoi(argv[1]) : 5;
  PaperTopology topo(cfg);
  Simulation& sim = topo.simulation();
  sim.stats().set_keep_samples(true);

  MobileHost& mh = topo.mobile(0);
  UdpSink sink(*mh.node, 7000);
  CbrSource::Config c;
  c.dst = mh.regional;
  c.dst_port = 7000;
  c.packet_bytes = 160;
  c.interval = 10_ms;
  c.tclass = TrafficClass::kRealTime;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  const SimTime end = cfg.mobility_start + topo.leg_duration() + 5_s;
  src.start(2_s);
  src.stop(end - 2_s);

  topo.start();
  sim.run_until(end);

  std::printf("corridor of %d cells (%.0f m), walked at %.0f m/s in %.0f s\n\n",
              cfg.num_ars, cfg.ar_distance_m * (cfg.num_ars - 1),
              cfg.speed_mps, topo.leg_duration().sec());

  TextTable t({"router", "HI sent (PAR)", "HI recv (NAR)", "buffered",
               "drained", "delivered"});
  for (std::size_t i = 0; i < topo.num_ars(); ++i) {
    const auto& cnt = topo.ar_agent(i).counters();
    t.add_row({"ar" + std::to_string(i + 1), std::to_string(cnt.hi_sent),
               std::to_string(cnt.hi_received),
               std::to_string(cnt.buffered_local),
               std::to_string(cnt.drained),
               std::to_string(cnt.delivered_wireless)});
  }
  t.print("per-router handover activity");

  const FlowCounters& fc = sim.stats().flow(1);
  const DelaySummary d = summarize_delays(sim.stats().samples(1));
  std::printf("\nstream: %llu sent, %llu delivered, %llu dropped over %u "
              "handovers\n",
              static_cast<unsigned long long>(fc.sent),
              static_cast<unsigned long long>(fc.delivered),
              static_cast<unsigned long long>(fc.dropped),
              mh.agent->counters().handoffs);
  std::printf("delay: mean %.1f ms, p99 %.1f ms, max %.1f ms, jitter %.2f ms\n",
              d.mean * 1000, d.p99 * 1000, d.max * 1000, d.jitter * 1000);
  return fc.dropped == 0 ? 0 : 1;
}
