#!/usr/bin/env python3
"""The fhmip benchmark: builds the simulator from source and measures it.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload city_roam --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 55
  python3 perfbench/run.py --selfcheck

Workloads (BENCHMARK.json lists the first two and says why each was chosen):
  city_roam      CityTopology, N=5000, 16x16 grid, 25% of hosts at 16 kb/s
  city_traffic   CityTopology, N=1000, every host at 64 kb/s
  paper_figures  the Chapter 4 figure grids (Figs 4.2-4.14), 101 runner calls

Runs are a closed loop: one simulation at a time, on one thread. Each
execution is its own `fhbench exec` process, so its peak RSS is its own.
With --trace 0 the run repeats untraced executions of the workload at the
given seed for --seconds and reports the end-to-end metrics: wall time and
handover rate from the fastest time of each piece of an execution (a runner
call, a simulated second) across the run's executions, and the median of
the executions' own set-up times and peak RSS. With --trace 1 it runs traced
and untraced executions, the WLAN replica and the per-layer probes, and
reports the per-layer metrics. Every execution's
outputs are checked; the last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), trace
files to .bench_out/; both live inside the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "paper_reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_SEED = 1
EXEC_TIMEOUT_S = 100

# Workloads (with why each was chosen) and metric units come from
# BENCHMARK.json at the checkout root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
WORKLOADS = {w["name"]: w["why"] for w in _BENCH["workloads"]}
# Runs by name but is not one of BENCHMARK.json's workloads: between runs
# on a shared host its times spread past the 25% bound.
WORKLOADS["paper_figures"] = (
    "the Chapter 4 figure grids, 101 small runner calls: link "
    "transmit/deliver is 59-69% of the pass; topology build ~0.4% and "
    "buffer ops under 0.1%")
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds fhbench; returns its path. Exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: simulator sources (src/) not found beside perfbench/")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: cmake configure failed")
            sys.exit(2)
    # Few parallel jobs: the machine's memory is shared.
    if subprocess.run(["cmake", "--build", bdir, "-j", "3"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("run.py: build failed")
        sys.exit(2)
    return os.path.join(bdir, "fhbench")


class Runner:
    def __init__(self, binary, workload, seed, smoke):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.smoke = smoke

    def call(self, cmd, *extra):
        """Runs one fhbench step; returns its JSON, or None when it crashed,
        timed out or printed no result."""
        args = [self.binary, cmd, "--workload", self.workload,
                "--seed", str(self.seed)] + list(extra)
        if self.smoke:
            args.append("--smoke")
        try:
            p = subprocess.run(args, capture_output=True, text=True,
                               timeout=EXEC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run.py: {' '.join(args[1:])} timed out")
            return None
        if p.stderr:
            sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            log(f"run.py: {' '.join(args[1:])} exited {p.returncode}")
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            log(f"run.py: {' '.join(args[1:])} printed no JSON result")
            return None


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["figures"]


def reference_failures(execution, smoke):
    """Runs behind figures whose digest differs from the stored reference
    (compared at the reference seed and full size only)."""
    if execution["workload"] != "paper_figures" or smoke or \
            execution["seed"] != REFERENCE_SEED:
        return 0, []
    ref = load_reference()
    failed, names = 0, []
    for fig in execution["figures"]:
        if ref.get(fig["name"]) != fig["digest"]:
            failed += max(1, fig["runs"])
            names.append(fig["name"])
    missing = set(ref) - {f["name"] for f in execution["figures"]}
    names += sorted(missing)
    return min(failed + len(missing), execution["runs"]), names


class Verdict:
    """Accumulates runs, failed runs and benchmark-level check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execution(self, e, smoke):
        self.attempted += e["runs"]
        failed = e["failed_runs"]
        for name, ok in e["checks"].items():
            if not ok:
                self.problems.append(f"check {name} failed (seed {e['seed']})")
        ref_failed, figs = reference_failures(e, smoke)
        if figs:
            self.problems.append("figures differ from reference: " +
                                 ", ".join(figs))
        self.failed += min(e["runs"], max(failed, ref_failed))

    def crashed(self, runs):
        self.attempted += runs
        self.failed += runs
        self.problems.append("an execution crashed or printed no result")

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def run_untraced(r, seconds, verdict):
    """End-to-end metrics: repeated untraced executions for `seconds`."""
    start = time.monotonic()
    execs, durations = [], []
    runs_per_exec = 1
    while True:
        t0 = time.monotonic()
        e = r.call("exec")
        durations.append(time.monotonic() - t0)
        if e is None:
            verdict.crashed(runs_per_exec)
        else:
            runs_per_exec = e["runs"]
            verdict.execution(e, r.smoke)
            execs.append(e)
        elapsed = time.monotonic() - start
        if len(durations) >= 3 and \
                elapsed + statistics.median(durations) > seconds:
            break
        if len(durations) >= 200:
            break
    metrics, info = {}, {}
    if not execs:
        return metrics, info
    first = execs[0]
    verdict.require(all(e["counts"] == first["counts"] for e in execs),
                    "same seed did not reproduce every count")
    kinds = [k for k, _ in first["pieces"]]
    if not all([k for k, _ in e["pieces"]] == kinds for e in execs):
        verdict.problems.append("executions were cut into different pieces")
        return metrics, info
    # Every execution repeats the same inputs, and interference from other
    # work on a shared machine only ever adds time; it comes in bursts
    # shorter than an execution. So each piece of an execution (a runner
    # call, a simulated second, the set-up, the rest) takes its fastest time
    # across the run's executions, and the pieces are summed. Set-up
    # reports the median of the executions' own set-up times.
    fastest = {}
    for i, kind in enumerate(kinds):
        fastest[kind] = fastest.get(kind, 0.0) + \
            min(e["pieces"][i][1] for e in execs)
    metrics = {
        "wall_s": sum(fastest.values()),
        "setup_s": statistics.median(e["setup_s"] for e in execs),
        "handovers_per_s": first["handoffs"] / fastest["sim"],
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in execs),
    }
    info = {
        "executions": len(execs),
        "pieces": len(kinds),
        "median wall_s": statistics.median(e["wall_s"] for e in execs),
        "median handovers_per_s": statistics.median(
            e["handoffs"] / e["sim_s"] for e in execs),
    }
    return metrics, info


def span_total(e, name):
    return sum(s["end"] - s["start"] for s in e["spans"] if s["name"] == name)


def run_traced(r, seconds, verdict):
    """Per-layer metrics: traced/untraced execution pairs, the WLAN replica
    and the probes."""
    start = time.monotonic()
    city = r.workload != "paper_figures"
    traced, untraced = [], []
    runs_per_exec = 1
    while True:
        t = r.call("exec", "--trace")
        u = r.call("exec")
        for e, into in ((t, traced), (u, untraced)):
            if e is None:
                verdict.crashed(runs_per_exec)
            else:
                runs_per_exec = e["runs"]
                verdict.execution(e, r.smoke)
                into.append(e)
        elapsed = time.monotonic() - start
        per_pair = elapsed / max(1, len(traced))
        # Leave room for the replica and the probes.
        if elapsed + per_pair * 1.5 > seconds or len(traced) >= 50:
            break
    if not traced or not untraced:
        return {}, {}
    te = traced[0]
    counts = te["counts"]
    verdict.require(all(e["counts"] == counts
                        for e in traced + untraced),
                    "traced and untraced counts differ")
    if city:
        last = te["slices"][-1]
        verdict.require(last[1] == counts["sim.events"] and
                        last[2] == counts["wireless.handoffs"],
                        "per-second slices do not add up to the run's counts")

    sim_s = statistics.median(e["sim_s"] for e in untraced)
    m = {name: 0.0 for name in PER_LAYER}
    na = set(PER_LAYER)
    for k, v in counts.items():
        if k in m:
            m[k] = float(v)
            na.discard(k)

    if city:
        depths = te["depth_samples"]
        m["sim.queue_depth_p50"] = statistics.median(depths)
        m["sim.queue_depth_max"] = max(depths)
        na -= {"sim.queue_depth_p50", "sim.queue_depth_max"}
        replica = r.call("replica")
        if replica is None:
            verdict.problems.append("WLAN replica crashed")
        else:
            verdict.require(replica["handoffs"] == counts["wireless.handoffs"],
                            f"WLAN replica made {replica['handoffs']} handoffs,"
                            f" the full run {counts['wireless.handoffs']}")
            m["wireless.poll_roam_s"] = replica["roam_s"]
            m["wireless.poll_frozen_s"] = replica["frozen_s"]
            m["wireless.share"] = (replica["roam_s"] + replica["frozen_s"]) / sim_s
            na -= {"wireless.poll_roam_s", "wireless.poll_frozen_s",
                   "wireless.share"}
        m["obs.export_ms"] = 1e3 * statistics.median(
            e["export_s"] for e in traced + untraced)
        m["scenario.build_s"] = statistics.median(
            span_total(e, "scenario.build") for e in traced)
        m["scenario.teardown_s"] = statistics.median(
            e["teardown_s"] for e in traced)
        na -= {"obs.export_ms", "scenario.build_s", "scenario.teardown_s"}
        probes = r.call("probes", "--depth", str(int(m["sim.queue_depth_p50"])))
    else:
        probes = r.call("probes")
        if probes is not None:
            m["sim.queue_depth_p50"] = probes["depth"]
            na.discard("sim.queue_depth_p50")

    if probes is None:
        verdict.problems.append("probes crashed")
    else:
        m["sim.event_ns"] = probes["event_ns"]
        m["net.hop_ns"] = probes["hop_ns"]
        m["buffer.op_ns"] = probes["buffer_op_ns"]
        m["scenario.paper_build_ms"] = probes["paper_build_ms"]
        na -= {"sim.event_ns", "net.hop_ns", "buffer.op_ns",
               "scenario.paper_build_ms"}
        verdict.require(min(probes["event_ns"], probes["hop_ns"],
                            probes["buffer_op_ns"]) > 0, "a probe failed")
        # Layer share: probe cost per operation x the workload's count, over
        # the simulation phase's wall time.
        for layer, per_op_ns, count in (
                ("sim", probes["event_ns"], "sim.events"),
                ("net", probes["hop_ns"], "net.link_deliveries"),
                ("buffer", probes["buffer_op_ns"], "fastho.buffered_pkts")):
            if count not in na:
                m[layer + ".share"] = per_op_ns * 1e-9 * m[count] / sim_s
                na.discard(layer + ".share")

    m["trace.overhead"] = statistics.median(e["wall_s"] for e in traced) / \
        statistics.median(e["wall_s"] for e in untraced)
    na.discard("trace.overhead")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{r.workload}_{r.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": r.workload, "seed": r.seed,
                   "spans": te["spans"], "slices": te["slices"],
                   "depth_samples": te["depth_samples"],
                   "probe_spans": probes["spans"] if probes else []}, f)
    info = {"not_applicable": sorted(na), "trace_file": path,
            "sim_s": sim_s, "pairs": len(traced)}
    return m, info


def print_report(workload, smoke, metrics, units, verdict, info):
    size = " [smoke size]" if smoke else ""
    print(f"== {workload}{size}: {WORKLOADS[workload]}")
    na = set(info.get("not_applicable", []))
    for name, value in metrics.items():
        shown = "n/a (not observable through the public API)" \
            if name in na else f"{value:.6g} {units[name]}"
        print(f"  {name:26s} {shown}")
    share = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"  {'failed_share':26s} {share:.6g} ({verdict.failed}/"
          f"{verdict.attempted} runs)")
    for k, v in info.items():
        if k != "not_applicable":
            print(f"  [{k}] {v}")
    if "wireless.share" in metrics and "wireless.share" not in na:
        print("  layer share of the simulation phase: " + ", ".join(
            f"{l} {metrics[l + '.share'] * 100:.1f}%"
            for l in ("wireless", "sim", "net", "buffer")
            if l + ".share" not in na))
    for p in verdict.problems:
        print(f"  PROBLEM: {p}")


def measure(binary, workload, seed, seconds, trace, smoke):
    r = Runner(binary, workload, seed, smoke)
    verdict = Verdict()
    if trace:
        metrics, info = run_traced(r, seconds, verdict)
        units = PER_LAYER
    else:
        metrics, info = run_untraced(r, seconds, verdict)
        units = END_TO_END
    if not metrics:
        verdict.problems.append("no execution completed")
        metrics = {name: 0.0 for name in units}
    print_report(workload, smoke, metrics, units, verdict, info)
    return verdict, metrics, units


def result_line(verdict, metrics, units):
    return json.dumps({
        "correct": verdict.correct,
        "attempted": max(1, verdict.attempted),
        "failed": verdict.failed if verdict.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    })


def selfcheck(binary, seed):
    """Smoke sizes: the same seed reproduces every count exactly, and a
    different seed changes the city population and its counts."""
    ok = True
    for w in WORKLOADS:
        a = Runner(binary, w, seed, True).call("exec")
        b = Runner(binary, w, seed, True).call("exec", "--trace")
        c = Runner(binary, w, seed + 1, True).call("exec")
        if a is None or b is None or c is None:
            print(f"{w}: an execution crashed")
            ok = False
            continue
        same = a["counts"] == b["counts"]
        passed = all(a["checks"].values()) and all(c["checks"].values())
        differs = a["counts"] != c["counts"]
        line = (f"{w}: checks {'pass' if passed else 'FAIL'}, seed {seed} "
                f"repeat {'identical' if same else 'DIFFERS'}, seed {seed + 1} "
                f"{'differs' if differs else 'IDENTICAL'}")
        print(line)
        # Only the city population is seeded input; the paper grids are
        # fixed scenarios whose seed drives protocol-level draws only.
        ok = ok and same and passed and (differs or w == "paper_figures")
    print(json.dumps({"correct": ok, "attempted": 3 * len(WORKLOADS),
                      "failed": 0 if ok else 1, "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long workload sizes")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills the running
    # child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if args.selfcheck:
        return selfcheck(binary, args.seed)

    if args.workload != "all":
        verdict, metrics, units = measure(binary, args.workload, args.seed,
                                          args.seconds, args.trace,
                                          args.smoke)
        print(result_line(verdict, metrics, units))
        return 0

    # Every workload, untraced then traced; metrics keyed workload/name.
    total = Verdict()
    merged, units = {}, dict(END_TO_END, **PER_LAYER)
    for w in WORKLOADS:
        for trace in (0, 1):
            v, m, _ = measure(binary, w, args.seed, args.seconds, trace,
                              args.smoke)
            total.attempted += v.attempted
            total.failed += v.failed
            total.problems += [f"{w}: {p}" for p in v.problems]
            merged.update({f"{w}/{k}": val for k, val in m.items()})
    print(result_line(total, merged, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
