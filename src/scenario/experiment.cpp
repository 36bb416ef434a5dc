#include "scenario/experiment.hpp"

#include <algorithm>
#include <memory>

namespace fhmip {

namespace {

constexpr std::uint16_t kSinkPort = 7000;

struct FlowAttachment {
  std::unique_ptr<CbrSource> source;
  std::unique_ptr<UdpSink> sink;
};

/// Wires `flows` from the CN to mobile `mh_index`, one sink per flow port.
std::vector<FlowAttachment> attach_flows(PaperTopology& topo,
                                         std::size_t mh_index,
                                         const std::vector<FlowSpec>& flows,
                                         SimTime start, SimTime stop) {
  std::vector<FlowAttachment> out;
  auto& mobile = topo.mobile(mh_index);
  std::uint16_t port = kSinkPort;
  std::uint16_t src_port = 20000 + static_cast<std::uint16_t>(mh_index) * 16;
  for (const FlowSpec& f : flows) {
    FlowAttachment a;
    CbrSource::Config cfg;
    cfg.dst = mobile.regional;
    cfg.dst_port = port;
    cfg.packet_bytes = f.packet_bytes;
    cfg.interval = CbrSource::interval_for_rate(f.kbps, f.packet_bytes);
    cfg.tclass = f.tclass;
    cfg.flow = f.id;
    a.sink = std::make_unique<UdpSink>(*mobile.node, port);
    a.source = std::make_unique<CbrSource>(topo.cn(), src_port, cfg);
    a.source->start(start);
    a.source->stop(stop);
    out.push_back(std::move(a));
    ++port;
    ++src_port;
  }
  return out;
}

std::vector<FlowOutcome> outcomes_for(const Simulation& sim,
                                      const std::vector<FlowSpec>& flows,
                                      bool samples) {
  std::vector<FlowOutcome> out;
  for (const FlowSpec& f : flows) {
    FlowOutcome o;
    o.id = f.id;
    const FlowCounters& c = sim.stats().flow(f.id);
    o.sent = c.sent;
    o.delivered = c.delivered;
    o.dropped = c.dropped;
    if (samples) o.samples = sim.stats().samples(f.id);
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<FlowSpec> three_class_flows(double kbps, std::uint32_t bytes) {
  return {
      {1, TrafficClass::kRealTime, kbps, bytes},      // F1
      {2, TrafficClass::kHighPriority, kbps, bytes},  // F2
      {3, TrafficClass::kBestEffort, kbps, bytes},    // F3
  };
}

// The PaperTopologyConfig fields every paper runner sets from its
// parameters.
template <class Params>
PaperTopologyConfig paper_config(const Params& p) {
  PaperTopologyConfig cfg;
  cfg.seed = p.seed;
  cfg.scheme.mode = p.mode;
  cfg.scheme.classify = p.classify;
  cfg.scheme.pool_pkts = p.pool_pkts;
  cfg.scheme.request_pkts = p.request_pkts;
  return cfg;
}

void export_metrics(Simulation& sim, std::string* metrics_json) {
  if (metrics_json != nullptr) *metrics_json = sim.metrics().to_json();
}

// The topology of the Figs 4.3–4.6 runs (three classed flows to one host).
PaperTopologyConfig three_flow_config(const QosDropParams& p) {
  PaperTopologyConfig cfg = paper_config(p);
  cfg.scheme.reserve_a = p.reserve_a;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 4.2
// ---------------------------------------------------------------------------

SimultaneousHandoffResult run_simultaneous_handoffs(
    const SimultaneousHandoffParams& p) {
  PaperTopologyConfig cfg = paper_config(p);
  cfg.num_mhs = p.num_mhs;
  PaperTopology topo(cfg);
  topo.simulation().stats().set_keep_samples(false);

  std::vector<std::vector<FlowAttachment>> all;
  for (int i = 0; i < p.num_mhs; ++i) {
    std::vector<FlowSpec> flows{{static_cast<FlowId>(i + 1),
                                 TrafficClass::kUnspecified, p.flow_kbps,
                                 p.packet_bytes}};
    all.push_back(attach_flows(topo, i, flows, SimTime::seconds(2),
                               SimTime::seconds(16)));
  }
  topo.start();
  topo.simulation().run_until(SimTime::seconds(20));

  SimultaneousHandoffResult r;
  const FlowCounters totals = topo.simulation().stats().totals();
  r.total_sent = totals.sent;
  r.total_delivered = totals.delivered;
  r.total_dropped = totals.dropped;
  r.handoffs = static_cast<std::uint32_t>(topo.wlan().handoffs_started());
  return r;
}

// ---------------------------------------------------------------------------
// Figures 4.3–4.5
// ---------------------------------------------------------------------------

QosDropResult run_qos_drop_experiment(const QosDropParams& p,
                                      std::string* metrics_json) {
  PaperTopologyConfig cfg = three_flow_config(p);
  cfg.bounce = true;
  PaperTopology topo(cfg);

  auto flows = three_class_flows(p.flow_kbps, p.packet_bytes);
  const SimTime leg = topo.leg_duration();
  const SimTime t_end =
      cfg.mobility_start + leg * (p.handoffs + 1);
  auto attachments =
      attach_flows(topo, 0, flows, SimTime::seconds(2), t_end);
  topo.start();

  QosDropResult r;
  for (const FlowSpec& f : flows) {
    r.per_flow_drops.emplace_back("F" + std::to_string(f.id));
  }
  // One handoff per leg: sample cumulative per-flow drops after each leg.
  Simulation& sim = topo.simulation();
  for (int k = 1; k <= p.handoffs; ++k) {
    sim.run_until(cfg.mobility_start + leg * k);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      r.per_flow_drops[i].add(
          k, static_cast<double>(sim.stats().flow(flows[i].id).dropped));
    }
  }
  sim.run_until(t_end + SimTime::seconds(2));
  r.flows = outcomes_for(sim, flows, /*samples=*/false);
  export_metrics(sim, metrics_json);
  return r;
}

// ---------------------------------------------------------------------------
// Figure 4.6
// ---------------------------------------------------------------------------

std::vector<FlowOutcome> run_rate_probe(const QosDropParams& base,
                                        double flow_kbps,
                                        std::string* metrics_json) {
  PaperTopology topo(three_flow_config(base));
  auto flows = three_class_flows(flow_kbps, base.packet_bytes);
  auto attachments = attach_flows(topo, 0, flows, SimTime::seconds(2),
                                  SimTime::seconds(16));
  topo.start();
  Simulation& sim = topo.simulation();
  sim.run_until(SimTime::seconds(20));
  export_metrics(sim, metrics_json);
  return outcomes_for(sim, flows, /*samples=*/false);
}

// ---------------------------------------------------------------------------
// Figures 4.7–4.10
// ---------------------------------------------------------------------------

DelayCaptureResult run_delay_capture(const DelayCaptureParams& p,
                                     std::string* metrics_json) {
  PaperTopologyConfig cfg = paper_config(p);
  cfg.par_nar_delay = p.par_nar_delay;
  cfg.scheme.drain_gap = p.drain_gap;
  PaperTopology topo(cfg);
  topo.simulation().stats().set_keep_samples(true);

  auto flows = three_class_flows(p.flow_kbps, p.packet_bytes);
  auto attachments = attach_flows(topo, 0, flows, SimTime::seconds(2),
                                  SimTime::seconds(18));
  topo.start();
  topo.simulation().run_until(SimTime::seconds(20));

  DelayCaptureResult r;
  r.flows = outcomes_for(topo.simulation(), flows, /*samples=*/true);

  // Locate the handoff disturbance: the first sample whose delay exceeds
  // the baseline by 20 ms; the window covers the buffered burst.
  double base_delay = 1e9;
  for (const auto& f : r.flows) {
    for (const auto& s : f.samples) base_delay = std::min(base_delay, s.delay.sec());
  }
  std::uint32_t first = UINT32_MAX;
  for (const auto& f : r.flows) {
    for (const auto& s : f.samples) {
      if (s.delay.sec() > base_delay + 0.020) {
        first = std::min(first, s.seq);
        break;
      }
    }
  }
  if (first == UINT32_MAX) first = 3;
  r.seq_begin = first > 3 ? first - 3 : 0;
  r.seq_end = r.seq_begin + 30;
  export_metrics(topo.simulation(), metrics_json);
  return r;
}

std::vector<Series> delay_series(const DelayCaptureResult& r) {
  std::vector<Series> out;
  for (const auto& f : r.flows) {
    Series s("Delay_F" + std::to_string(f.id));
    for (const auto& smp : f.samples) {
      if (smp.seq >= r.seq_begin && smp.seq <= r.seq_end) {
        s.add(smp.seq, smp.delay.sec());
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Figures 4.12–4.14
// ---------------------------------------------------------------------------

TcpHandoffResult run_tcp_handoff(const TcpHandoffParams& p) {
  WlanTopologyConfig cfg;
  cfg.seed = p.seed;
  cfg.scheme.pool_pkts = p.pool_pkts;
  cfg.scheme.request_pkts = p.pool_pkts;
  cfg.scheme.classify = false;
  cfg.scheme.lifetime = SimTime::seconds(30);  // covers trigger→handoff gap
  cfg.use_fast_handover = p.buffering;
  cfg.request_buffers = p.buffering;
  WlanTopology topo(cfg);

  TcpSink sink(topo.mh(), 8000);
  sink.set_ack_flow(2);
  TcpSender::Config tc;
  tc.dst = topo.mh_coa();
  tc.dst_port = 8000;
  tc.src_port = 8001;
  tc.mss = p.mss;
  tc.rwnd_pkts = 32;
  tc.flow = 1;
  tc.ack_flow = 2;
  TcpSender sender(topo.cn(), tc);

  topo.start();
  sender.start(SimTime::seconds(1));
  topo.schedule_handoff(p.handoff_at);
  topo.simulation().run_until(p.run_until);

  TcpHandoffResult r;
  r.send_trace = sender.send_trace();
  r.ack_trace = sender.ack_trace();
  r.recv_trace = sink.recv_trace();
  r.bytes_acked = sender.bytes_acked();
  r.timeouts = sender.timeouts();
  r.fast_retransmits = sender.fast_retransmits();
  r.mss = p.mss;
  return r;
}

Series tcp_throughput_series(const TcpHandoffResult& r, const char* name,
                             double t_begin, double t_end) {
  std::vector<std::pair<double, std::uint64_t>> arrivals;
  arrivals.reserve(r.recv_trace.size());
  for (const auto& pt : r.recv_trace) {
    arrivals.push_back({pt.at.sec(), r.mss});
  }
  return bin_throughput(name, arrivals, 0.1, t_begin, t_end);
}

SimTime max_receiver_gap(const TcpHandoffResult& r, double t_begin,
                         double t_end) {
  SimTime best;
  SimTime prev;
  bool have_prev = false;
  for (const auto& pt : r.recv_trace) {
    const double t = pt.at.sec();
    if (t < t_begin || t > t_end) continue;
    if (have_prev && pt.at - prev > best) best = pt.at - prev;
    prev = pt.at;
    have_prev = true;
  }
  return best;
}

}  // namespace fhmip
