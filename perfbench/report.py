"""Run the benchmark over several seeds and print every metric by name.

    python3 perfbench/report.py [--seeds 0 1 2 3 4] [--json FILE]

For each workload and seed it runs run.py once untraced (end-to-end metrics)
and once traced (per-layer metrics), then prints, per workload, each
metric's unit, median, quartiles and sample count, the end-to-end spread
(interquartile range over median) beside the metric's bound, flagged
UNRESOLVED where it is above the bound (the runs then cannot tell a change of
that size from noise), the error rate and each layer's share of the traced
self time. It records the environment: Python, numpy and scipy versions,
nproc and the thread pins. The first seed's
traced run is made twice; a counter that differs between the two is a
benchmark defect and is reported as one. ``--json`` writes the same numbers
to a file, as in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracer

COUNTERS = [*tracer.COUNTERS, "cli.bytes_written", "cli.files_written"]


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "thread_pins": run.THREAD_PINS, "machine": platform.machine()}


def bench(workload: str, seed: int, seconds: int, traced: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("problem:"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"run_seconds={seconds}, seeds={args.seeds}")
    report = {"environment": env, "run_seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for w in (item["name"] for item in spec["workloads"]):
        runs = {mode: [bench(w, s, seconds, mode) for s in args.seeds]
                for mode in (0, 1)}
        again = bench(w, args.seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
        failed = sum(r["failed"] for rs in runs.values() for r in rs)
        incorrect = sum(not r["correct"] for rs in runs.values() for r in rs)
        metrics = {}
        for rs in runs.values():
            for name in rs[0]["metrics"]:
                metrics[name] = stats([r["metrics"][name]["value"] for r in rs])
        print(f"\n== {w}: {run.workloads.WORKLOADS[w].reason}")
        print(f"   error_rate {failed}/{attempted} = {failed / attempted:.4f}, "
              f"runs not correct: {incorrect}")
        print(f"   {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'n':>3s}  spread/bound")
        for name, s in metrics.items():
            spread = ""
            if name in bounds:
                s["spread"] = (s["q3"] - s["q1"]) / s["median"]
                s["unresolved"] = s["spread"] > bounds[name]
                spread = (f"{s['spread']:.4f}/{bounds[name]}"
                          + ("  UNRESOLVED" if s["unresolved"] else ""))
            print(f"   {name:40s} {units[name]:6s} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}  {spread}")
        layers = {k[:-7]: s["median"] for k, s in metrics.items()
                  if k.endswith(".self_s") and k.count(".") == 1}
        total = sum(layers.values())
        print("   traced self-time shares: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in layers.items() if total))
        defects = [k for k in COUNTERS if again["metrics"][k]["value"]
                   != runs[1][0]["metrics"][k]["value"]]
        for k in defects:
            print(f"   BENCHMARK DEFECT: counter {k} differs between two runs "
                  f"of seed {args.seeds[0]}")
        report["workloads"][w] = {"attempted": attempted, "failed": failed,
                                  "counter_defects": defects,
                                  "metrics": metrics}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
