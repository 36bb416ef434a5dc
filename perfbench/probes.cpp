// Per-layer probes: per-operation costs of the scheduler, a link hop, the
// buffer plane and the paper topology build, timed around public calls on
// inputs shaped like the workload being measured.
#include <memory>

#include "buffer/buffer_manager.hpp"
#include "buffer/policy.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "scenario/paper_topology.hpp"
#include "workloads.hpp"

using namespace fhmip;

namespace perfbench {
namespace {

constexpr int kReps = 7;  // each probe reports the median of its reps

// schedule_at + step on a scheduler held at `depth` pending events whose
// times spread over the next simulated second.
double probe_event_ns(std::uint64_t depth, std::uint64_t seed) {
  constexpr int kOps = 200000;
  const std::uint64_t held = depth == 0 ? 1 : depth;
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    Scheduler s;
    Rng rng(seed + static_cast<std::uint64_t>(r));
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < held; ++i) {
      s.schedule_at(SimTime::nanos(rng.uniform_int(0, 1000000000)),
                    [&ran] { ++ran; });
    }
    const double t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      s.schedule_at(s.now() + SimTime::nanos(rng.uniform_int(0, 1000000000)),
                    [&ran] { ++ran; });
      s.step();
    }
    reps.push_back((now_s() - t0) * 1e9 / kOps);
    if (ran != static_cast<std::uint64_t>(kOps)) return -1;
  }
  return median(reps);
}

// Queue, serialize, propagate and deliver on one SimplexLink, per packet.
double probe_hop_ns(std::uint32_t packet_bytes) {
  constexpr int kBatch = 64;
  constexpr int kBatches = 2000;
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    Simulation sim;
    Node dst(sim, 2, "dst");
    SimplexLink link(sim, dst, 100e6, SimTime::millis(2), 256, "probe");
    const double t0 = now_s();
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) {
        link.transmit(make_packet(sim, {1, 1}, {2, 2}, packet_bytes));
      }
      sim.run();
    }
    reps.push_back((now_s() - t0) * 1e9 / (kBatch * kBatches));
    if (link.packets_delivered() != std::uint64_t(kBatch) * kBatches) return -1;
  }
  return median(reps);
}

// One buffered packet's trip through the buffer plane: the Table 3.3
// decision, a HandoffBuffer push and pop, with the lease's
// BufferManager allocate/release amortized over its `request` packets.
double probe_buffer_op_ns(std::uint32_t request, std::uint32_t packet_bytes) {
  constexpr int kLeases = 20000;
  const std::uint32_t req = request == 0 ? 1 : request;
  BufferSchemeConfig cfg;
  cfg.classify = true;
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    Simulation sim;
    BufferManager m(64 * req);
    std::uint64_t stored = 0;
    const double t0 = now_s();
    for (int i = 0; i < kLeases; ++i) {
      const auto k = BufferManager::key(static_cast<MhId>(i % 64), ArRole::kNar);
      m.allocate(k, req);
      HandoffBuffer* buf = m.buffer(k);
      const AllocationCase ac{(i & 1) != 0, (i & 2) != 0};
      for (std::uint32_t j = 0; j < req; ++j) {
        auto p = make_packet(sim, {1, 1}, {2, 2}, packet_bytes);
        p->tclass = static_cast<TrafficClass>(1 + j % 3);
        if (decide_buffering(cfg, ac, p->tclass) != BufferAction::kDrop &&
            buf->push(p) == HandoffBuffer::PushResult::kStored) {
          ++stored;
        }
      }
      while (!buf->empty()) buf->pop();
      m.release(k);
    }
    reps.push_back((now_s() - t0) * 1e9 / (double(kLeases) * req));
    if (stored == 0) return -1;
  }
  return median(reps);
}

double probe_paper_build_ms(std::uint64_t seed) {
  constexpr int kBuilds = 50;
  PaperTopologyConfig cfg;
  cfg.seed = seed;
  std::vector<double> reps;
  for (int r = 0; r < kBuilds; ++r) {
    const double t0 = now_s();
    { PaperTopology topo(cfg); }
    reps.push_back((now_s() - t0) * 1e3);
  }
  return median(reps);
}

}  // namespace

ProbeResult run_probes(const ProbeShape& shape, SpanLog* spans) {
  ProbeResult r;
  {
    SpanLog::Scope s(spans, "probe.sim.event");
    r.event_ns = probe_event_ns(shape.queue_depth, shape.seed);
  }
  {
    SpanLog::Scope s(spans, "probe.net.hop");
    r.hop_ns = probe_hop_ns(shape.packet_bytes);
  }
  {
    SpanLog::Scope s(spans, "probe.buffer.op");
    r.buffer_op_ns = probe_buffer_op_ns(shape.request_pkts, shape.packet_bytes);
  }
  {
    SpanLog::Scope s(spans, "probe.scenario.paper_build");
    r.paper_build_ms = probe_paper_build_ms(shape.seed);
  }
  return r;
}

std::uint64_t paper_queue_depth(std::uint64_t seed) {
  PaperTopologyConfig cfg;
  cfg.seed = seed;
  cfg.bounce = true;
  PaperTopology topo(cfg);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<CbrSource>> sources;
  const TrafficClass classes[] = {TrafficClass::kRealTime,
                                  TrafficClass::kHighPriority,
                                  TrafficClass::kBestEffort};
  for (int f = 0; f < 3; ++f) {
    const auto port = static_cast<std::uint16_t>(7000 + f);
    sinks.push_back(std::make_unique<UdpSink>(*topo.mobile(0).node, port));
    CbrSource::Config c;
    c.dst = topo.mobile(0).regional;
    c.dst_port = port;
    c.packet_bytes = 160;
    c.interval = CbrSource::interval_for_rate(128, 160);
    c.tclass = classes[f];
    c.flow = f + 1;
    sources.push_back(std::make_unique<CbrSource>(
        topo.cn(), static_cast<std::uint16_t>(20000 + f), c));
    sources.back()->start(SimTime::seconds(2));
  }
  topo.start();
  std::vector<double> depths;
  for (int i = 1; i <= 100; ++i) {
    topo.simulation().run_until(SimTime::millis(100 * i));
    depths.push_back(static_cast<double>(topo.simulation().scheduler().queue_size()));
  }
  return static_cast<std::uint64_t>(median(depths));
}

}  // namespace perfbench
