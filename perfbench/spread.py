#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the baseline record.

  python3 perfbench/spread.py

Runs perfbench/run.py --trace 0 on every workload in three sets: set a and
set b each use seeds 1..10, one run per seed, set b after set a on every
workload; the repeat set runs seed 1 five times, so machine noise shows
apart from the change of city population between seeds. For every
end-to-end metric it prints each set's median and quartile spread,
(Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4), and how far set b's median is worse than
set a's. A spread is steady below a third of the metric's bound in
BENCHMARK.json (setup_s is exempt from the spread rule); the two sets agree
when set b is not worse than set a by more than the bound. A --trace 1 run
per workload at seed 1 gives the per-layer values. Every value, with the
build configuration and core count, is written to perfbench/baseline.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = list(range(1, 11))
REPEATS = 5


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"spread.py: run.py failed on {workload} seed {seed}:\n"
                 f"{p.stderr[-2000:]}")
    r = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={r['correct']} "
          f"failed={r['failed']}/{r['attempted']} " +
          " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
          flush=True)
    return r


def summarize(results, metrics):
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "values": values}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    raw = {w: {"a": [], "b": [], "repeat": []} for w in workloads}
    for name in ("a", "b"):
        for w in workloads:
            raw[w][name] = [run_once(w, s, seconds, 0) for s in SEEDS]
    for w in workloads:
        raw[w]["repeat"] = [run_once(w, SEEDS[0], seconds, 0)
                            for _ in range(REPEATS)]

    record = {
        "build": "RelWithDebInfo (-O2 -g), FHMIP_AUDIT_LEVEL=1, "
                 "perfbench/CMakeLists.txt",
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "sets": {"a": f"seeds {SEEDS[0]}..{SEEDS[-1]}",
                 "b": f"seeds {SEEDS[0]}..{SEEDS[-1]}, after set a",
                 "repeat": f"seed {SEEDS[0]}, {REPEATS} runs"},
        "workloads": {},
    }
    steady = agree = True
    for w in bench["workloads"]:
        name = w["name"]
        runs = raw[name]
        entry = {"why": w["why"],
                 "sets": {k: summarize(v, metrics) for k, v in runs.items()},
                 "b_worse_than_a": {}}
        all_runs = runs["a"] + runs["b"] + runs["repeat"]
        entry["correct_all"] = all(r["correct"] for r in all_runs)
        entry["failed_share"] = sum(r["failed"] for r in all_runs) / \
            sum(r["attempted"] for r in all_runs)
        for m in metrics:
            a = entry["sets"]["a"][m["name"]]["median"]
            b = entry["sets"]["b"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            entry["b_worse_than_a"][m["name"]] = worse
            agree = agree and worse <= m["bound"]
            cells = []
            for k in ("a", "b", "repeat"):
                spread = entry["sets"][k][m["name"]]["spread"]
                ok = m["name"] == "setup_s" or spread < m["bound"] / 3
                if k != "repeat":
                    steady = steady and ok
                cells.append(f"{k} {spread * 100:5.2f}%{'' if ok else '!'}")
            print(f"  {name:14s} {m['name']:16s} median {a:.6g}  spread "
                  f"{'  '.join(cells)}  (target < {m['bound'] * 100 / 3:.1f}%)"
                  f"  b worse by {worse * 100:+.1f}% (bound "
                  f"{m['bound'] * 100:.0f}%)", flush=True)
        t = run_once(name, SEEDS[0], seconds, 1)
        entry["per_layer"] = t["metrics"]
        entry["per_layer_correct"] = t["correct"]
        record["workloads"][name] = entry

    with open(BASELINE, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(BASELINE, ROOT)}")
    print("set spreads: " + ("all steady" if steady else
                             "some above a third of the bound (marked !)"))
    print("sets a and b: " + ("agree within the bounds" if agree else
                              "DISAGREE beyond a bound"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
