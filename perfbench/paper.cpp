// paper_figures: the thesis's Chapter 4 grids (Figs 4.2-4.14), called
// through the public runners of scenario/experiment.hpp, one after another.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "scenario/experiment.hpp"
#include "sim/check.hpp"
#include "workloads.hpp"

using namespace fhmip;

namespace perfbench {
namespace {

// Accumulates one pass: figure digests, per-run verdicts and the counts the
// runners expose (results and registry exports).
struct PaperPass {
  Execution& e;
  SpanLog* spans;
  RegistrySums sums;
  double export_bytes = 0;
  double sent = 0, delivered = 0, dropped = 0;
  double handoffs = 0;
  double setup_s = 0;   // build + start of every mirrored topology
  double mirror_s = 0;  // the mirrors' whole cost, teardown included
  double last_setup_s = 0;  // the latest mirror's build + start

  // Builds and starts, outside the runner, the topology the next runner
  // call builds; that build and start is the call's set-up. Flows are left
  // out: the runners attach theirs through a helper that is not public.
  // The mirrors' time is taken out of the pass's wall time.
  template <class Topology, class Config>
  void mirror_setup(const Config& cfg) {
    const double t0 = now_s();
    auto topo = std::make_unique<Topology>(cfg);
    topo->start();
    const double t1 = now_s();
    topo.reset();
    last_setup_s = t1 - t0;
    setup_s += last_setup_s;
    e.piece("setup", last_setup_s);
    mirror_s += now_s() - t0;
  }

  // Makes one runner call under an `experiment.<runner>` span. Its wall
  // time less the set-up its mirror just measured is a "sim" piece.
  template <class Call>
  auto timed(const char* span, Call&& call) {
    SpanLog::Scope s(spans, span);
    const double t0 = now_s();
    auto r = call();
    e.piece("sim", now_s() - t0 - last_setup_s);
    return r;
  }

  // Folds one runner call's verdict into the execution; failures are
  // named on stderr.
  void run_done(const char* figure, bool ok) {
    ++e.runs;
    if (ok) return;
    ++e.failed_runs;
    std::fprintf(stderr, "fhbench: %s run %llu failed its output checks\n",
                 figure, static_cast<unsigned long long>(e.runs));
  }

  bool flows_balance(const std::vector<FlowOutcome>& flows) {
    bool ok = !flows.empty();
    for (const FlowOutcome& f : flows) {
      sent += static_cast<double>(f.sent);
      delivered += static_cast<double>(f.delivered);
      dropped += static_cast<double>(f.dropped);
      ok = ok && f.sent > 0 && f.sent == f.delivered + f.dropped;
    }
    return ok;
  }

  // Adds a registry export; a runner that simulated a handoff must have
  // counted one and resolved at least one protocol attempt.
  bool registry(const std::string& json) {
    RegistrySums one;
    one.add(json);
    sums.add(json);
    export_bytes += static_cast<double>(json.size());
    handoffs += one.wlan_handoffs;
    return one.wlan_handoffs > 0 &&
           one.predictive + one.reactive + one.failed > 0;
  }
};

void digest_flows(Digest& d, const std::vector<FlowOutcome>& flows) {
  for (const FlowOutcome& f : flows) {
    d.add_u64(f.sent);
    d.add_u64(f.delivered);
    d.add_u64(f.dropped);
  }
}

void digest_series(Digest& d, const Series& s) {
  d.add(s.name().data(), s.name().size());
  for (const auto& [x, y] : s.points()) {
    d.add_double(x);
    d.add_double(y);
  }
}

void digest_trace(Digest& d, const std::vector<TcpSender::TracePoint>& t) {
  d.add_u64(t.size());
  for (const auto& pt : t) {
    d.add_u64(static_cast<std::uint64_t>(pt.at.ns()));
    d.add_u64(pt.seq);
  }
}

// The PaperTopologyConfig fields every runner sets from its parameters.
PaperTopologyConfig paper_config(std::uint64_t seed, BufferMode mode,
                                 bool classify, std::uint32_t pool,
                                 std::uint32_t request) {
  PaperTopologyConfig cfg;
  cfg.seed = seed;
  cfg.scheme.mode = mode;
  cfg.scheme.classify = classify;
  cfg.scheme.pool_pkts = pool;
  cfg.scheme.request_pkts = request;
  return cfg;
}

void add_figure(Execution& e, const char* name, std::uint64_t runs,
                const Digest& d) {
  e.figures.push_back({name, runs, d.hex()});
}

// Fig 4.2: N simultaneous handoffs under each buffering mode.
void fig4_02(PaperPass& pass, Size size, std::uint64_t seed) {
  const BufferMode modes[] = {BufferMode::kNarOnly, BufferMode::kParOnly,
                              BufferMode::kDual, BufferMode::kNone};
  const int max_n = size == Size::kSmoke ? 3 : 20;
  Digest d;
  std::uint64_t runs = 0;
  for (const BufferMode mode : modes) {
    for (int n = 1; n <= max_n; ++n) {
      SimultaneousHandoffParams p;
      p.mode = mode;
      p.classify = false;
      p.num_mhs = n;
      p.pool_pkts = 36;
      p.request_pkts = 12;
      p.seed = seed;
      PaperTopologyConfig cfg =
          paper_config(seed, mode, p.classify, p.pool_pkts, p.request_pkts);
      cfg.num_mhs = n;
      pass.mirror_setup<PaperTopology>(cfg);
      const SimultaneousHandoffResult r =
          pass.timed("experiment.run_simultaneous_handoffs",
                     [&] { return run_simultaneous_handoffs(p); });
      d.add_u64(r.total_sent);
      d.add_u64(r.total_delivered);
      d.add_u64(r.total_dropped);
      d.add_u64(r.handoffs);
      pass.sent += static_cast<double>(r.total_sent);
      pass.delivered += static_cast<double>(r.total_delivered);
      pass.dropped += static_cast<double>(r.total_dropped);
      pass.handoffs += r.handoffs;
      // The runner reports totals over every flow id, control packets
      // (which are dropped but never counted sent) included, so every data
      // packet sent must be delivered or dropped, not exactly balanced.
      pass.run_done("fig4_02", r.total_sent > 0 &&
                    r.total_delivered <= r.total_sent &&
                    r.total_delivered + r.total_dropped >= r.total_sent &&
                    r.handoffs >= static_cast<std::uint32_t>(n));
      ++runs;
    }
  }
  add_figure(pass.e, "fig4_02", runs, d);
}

// Figs 4.3-4.5: per-class cumulative drops over repeated handoffs.
void fig4_03_05(PaperPass& pass, Size size, std::uint64_t seed) {
  struct Cfg {
    const char* name;
    BufferMode mode;
    bool classify;
    std::uint32_t pool;
  };
  const Cfg cfgs[] = {{"fig4_03", BufferMode::kNarOnly, false, 40},
                      {"fig4_04", BufferMode::kDual, false, 20},
                      {"fig4_05", BufferMode::kDual, true, 20}};
  for (const Cfg& c : cfgs) {
    QosDropParams p;
    p.mode = c.mode;
    p.classify = c.classify;
    p.pool_pkts = c.pool;
    p.request_pkts = c.pool;
    p.handoffs = size == Size::kSmoke ? 5 : 100;
    p.seed = seed;
    PaperTopologyConfig cfg =
        paper_config(seed, p.mode, p.classify, p.pool_pkts, p.request_pkts);
    cfg.bounce = true;
    cfg.scheme.reserve_a = p.reserve_a;
    pass.mirror_setup<PaperTopology>(cfg);
    std::string json;
    const QosDropResult r =
        pass.timed("experiment.run_qos_drop_experiment",
                   [&] { return run_qos_drop_experiment(p, &json); });
    Digest d;
    for (const Series& s : r.per_flow_drops) digest_series(d, s);
    digest_flows(d, r.flows);
    const bool series_ok = std::all_of(
        r.per_flow_drops.begin(), r.per_flow_drops.end(),
        [&](const Series& s) { return s.size() == std::size_t(p.handoffs); });
    const bool flows_ok = pass.flows_balance(r.flows);
    pass.run_done(c.name, pass.registry(json) && flows_ok && series_ok);
    add_figure(pass.e, c.name, 1, d);
  }
}

// Fig 4.6: per-class drops in one handoff vs. data rate.
void fig4_06(PaperPass& pass, Size size, std::uint64_t seed) {
  std::vector<double> rates = {51.2, 55.7, 61.0,  67.4,  75.3,  85.3,
                               98.5, 116.4, 142.2, 182.9, 256.0, 426.7};
  if (size == Size::kSmoke) rates = {51.2, 426.7};
  QosDropParams base;
  base.mode = BufferMode::kDual;
  base.classify = true;
  base.pool_pkts = 20;
  base.request_pkts = 20;
  base.seed = seed;
  PaperTopologyConfig cfg = paper_config(seed, base.mode, base.classify,
                                         base.pool_pkts, base.request_pkts);
  cfg.scheme.reserve_a = base.reserve_a;
  Digest d;
  for (const double kbps : rates) {
    pass.mirror_setup<PaperTopology>(cfg);
    std::string json;
    const std::vector<FlowOutcome> flows =
        pass.timed("experiment.run_rate_probe",
                   [&] { return run_rate_probe(base, kbps, &json); });
    d.add_double(kbps);
    digest_flows(d, flows);
    const bool flows_ok = pass.flows_balance(flows);
    pass.run_done("fig4_06", pass.registry(json) && flows_ok);
  }
  add_figure(pass.e, "fig4_06", rates.size(), d);
}

// Figs 4.7-4.10: per-packet delay around one handoff.
void fig4_07_10(PaperPass& pass, std::uint64_t seed) {
  struct Cfg {
    const char* name;
    BufferMode mode;
    bool classify;
    std::uint32_t pool;
    std::int64_t par_nar_ms;
  };
  const Cfg cfgs[] = {{"fig4_07", BufferMode::kNarOnly, false, 40, 2},
                      {"fig4_08", BufferMode::kDual, false, 20, 2},
                      {"fig4_09", BufferMode::kDual, true, 20, 2},
                      {"fig4_10", BufferMode::kDual, true, 20, 50}};
  for (const Cfg& c : cfgs) {
    DelayCaptureParams p;
    p.mode = c.mode;
    p.classify = c.classify;
    p.pool_pkts = c.pool;
    p.request_pkts = c.pool;
    p.par_nar_delay = SimTime::millis(c.par_nar_ms);
    p.seed = seed;
    PaperTopologyConfig cfg =
        paper_config(seed, p.mode, p.classify, p.pool_pkts, p.request_pkts);
    cfg.par_nar_delay = p.par_nar_delay;
    cfg.scheme.drain_gap = p.drain_gap;
    pass.mirror_setup<PaperTopology>(cfg);
    std::string json;
    const DelayCaptureResult r =
        pass.timed("experiment.run_delay_capture",
                   [&] { return run_delay_capture(p, &json); });
    Digest d;
    const std::vector<Series> series = delay_series(r);
    for (const Series& s : series) digest_series(d, s);
    digest_flows(d, r.flows);
    const bool window_ok = std::any_of(
        series.begin(), series.end(), [](const Series& s) { return !s.empty(); });
    const bool flows_ok = pass.flows_balance(r.flows);
    pass.run_done(c.name, pass.registry(json) && flows_ok && window_ok);
    add_figure(pass.e, c.name, 1, d);
  }
}

// Figs 4.12-4.14: TCP across a pure link-layer handoff, without and with
// buffering; Fig 4.14 is the throughput view of the same two runs.
void fig4_12_14(PaperPass& pass, std::uint64_t seed) {
  TcpHandoffResult results[2];
  const char* names[2] = {"fig4_12", "fig4_13"};
  for (int i = 0; i < 2; ++i) {
    TcpHandoffParams p;
    p.buffering = i == 1;
    p.seed = seed;
    WlanTopologyConfig cfg;
    cfg.seed = seed;
    cfg.scheme.pool_pkts = p.pool_pkts;
    cfg.scheme.request_pkts = p.pool_pkts;
    cfg.scheme.classify = false;
    cfg.scheme.lifetime = SimTime::seconds(30);
    cfg.use_fast_handover = p.buffering;
    cfg.request_buffers = p.buffering;
    pass.mirror_setup<WlanTopology>(cfg);
    results[i] = pass.timed("experiment.run_tcp_handoff",
                            [&] { return run_tcp_handoff(p); });
    const TcpHandoffResult& r = results[i];
    Digest d;
    digest_trace(d, r.send_trace);
    digest_trace(d, r.ack_trace);
    digest_trace(d, r.recv_trace);
    d.add_u64(r.bytes_acked);
    d.add_u64(static_cast<std::uint64_t>(r.timeouts));
    d.add_u64(static_cast<std::uint64_t>(r.fast_retransmits));
    add_figure(pass.e, names[i], 1, d);
    pass.handoffs += 1;  // one forced L2 handoff per run
    pass.run_done(names[i], r.bytes_acked > 0 && !r.recv_trace.empty() &&
                  r.ack_trace.size() <= r.send_trace.size());
  }
  Digest d;
  digest_series(d, tcp_throughput_series(results[1], "Buffer", 11.0, 14.0));
  digest_series(d, tcp_throughput_series(results[0], "No buffer", 11.0, 14.0));
  d.add_u64(static_cast<std::uint64_t>(max_receiver_gap(results[0], 11.0, 14.0).ns()));
  d.add_u64(static_cast<std::uint64_t>(max_receiver_gap(results[1], 11.0, 14.0).ns()));
  add_figure(pass.e, "fig4_14", 0, d);
}

}  // namespace

Execution run_paper(Size size, std::uint64_t seed, bool traced,
                    SpanLog* spans) {
  Execution e;
  e.workload = "paper_figures";
  e.seed = seed;
  e.traced = traced;
  e.runs = 0;
  const std::uint64_t audits_before = AuditHub::instance().violations();

  PaperPass pass{e, spans, {}, 0, 0, 0, 0, 0, 0, 0, 0};
  const double t0 = now_s();
  fig4_02(pass, size, seed);
  fig4_03_05(pass, size, seed);
  fig4_06(pass, size, seed);
  fig4_07_10(pass, seed);
  fig4_12_14(pass, seed);
  e.wall_s = now_s() - t0 - pass.mirror_s;
  e.piece("rest", e.wall_s - pieces_s(e));
  // The runners build, run and tear down inside one call each. Set-up is
  // the mirrored builds; the rest of the pass is the simulation phase.
  e.setup_s = pass.setup_s;
  e.sim_s = e.wall_s - e.setup_s;
  e.handoffs = static_cast<std::uint64_t>(pass.handoffs);

  const RegistrySums& s = pass.sums;
  e.count("wireless.handoffs", pass.handoffs);
  e.count("net.link_deliveries", s.link_deliveries);
  e.count("buffer.grants", s.grants);
  e.count("buffer.rejections", s.rejections);
  e.count("buffer.partial_grants", s.partial_grants);
  e.count("buffer.reaped", s.reaped);
  e.count("fastho.attempts", s.predictive + s.reactive + s.failed);
  e.count("fastho.completed", s.predictive + s.reactive);
  e.count("fastho.failed", s.failed);
  e.count("fastho.buffered_pkts", s.buffered);
  e.count("fastho.drained_pkts", s.drained);
  e.count("transport.sent", pass.sent);
  e.count("transport.delivered", pass.delivered);
  e.count("transport.dropped", pass.dropped);
  e.count("obs.series", s.series);
  e.count("obs.export_bytes", pass.export_bytes);

  e.check("runs_pass", e.failed_runs == 0);
  e.check("audits_clean", AuditHub::instance().violations() == audits_before);
  if (!e.checks.back().second) e.failed_runs = e.runs;
  return e;
}

}  // namespace perfbench
