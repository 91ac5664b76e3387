"""debtkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload converge-grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; it uses the debtkit sources under ``src/``.
Steps:

1. set-up: time ``import debtkit.cli`` in fresh interpreters, several
   times, and keep the median (`setup_s`);
2. write the workload's inputs from the seed (gen.py);
3. run the workload in its own process (worker.py) for ``--seconds``, with
   BLAS and OpenMP pinned to one thread;
4. check the outputs against the generated truth (checks.py), compare the
   sha256 of every output with the recorded hashes on the default seed, and
   show that a corrupted output fails the same checks;
5. print a summary, then one JSON line: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

The metric names and units come from BENCHMARK.json. Run artefacts (hashes,
the worker's result, the spans of a traced run) stay in
``.perfbench_work/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would round every sample up to that grid.
        subprocess.run([sys.executable, "-c", "import debtkit.cli"], env=env,
                       check=True)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the inputs for a workload; return the truth its checks need."""
    w = workloads.WORKLOADS[name]
    truth = {"simulate": gen.simulate_params(seed)}
    if w.panel:
        truth.update(gen.write_panel(work / "inputs", seed, *w.panel))
    if name == "synth-simulate":
        lo, hi = map(int, workloads.SYNTH["years"].split(":"))
        truth["synth_rows"] = int(workloads.SYNTH["n_countries"]) * (hi - lo + 1)
        truth["steps"] = round(float(workloads.HORIZON)
                               / float(workloads.EULER_STEP))
        truth["horizon"] = float(workloads.HORIZON)
    return truth


def run(args: argparse.Namespace) -> int:
    started = perf_counter()
    if not (SRC / "debtkit" / "cli.py").is_file():
        print(f"perfbench: no debtkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()

    setup_s = measure_setup(env)
    truth = prepare(args.workload, args.seed, work)
    (work / "job.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "simulate": truth["simulate"]}))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work)], env=env,
            capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: workload process timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text())
    calls, failed, problems = res["calls"], res["failed"], list(res["messages"])

    # Every pass wrote the same bytes (worker.py checks), so one check of the
    # final outputs stands for every call of a subcommand.
    sys.path.insert(0, str(SRC))  # check_synth re-ingests with debtkit
    recorded = json.loads((HERE / "baseline_hashes.json").read_text())
    for name in calls:
        found = checks.check(name, work / "out" / name, truth)
        if args.seed == DEFAULT_SEED:
            if res["hashes"][name] != recorded.get(args.workload, {}).get(name):
                found.append("sha256 differs from the recorded outputs")
        if found:
            failed[name] = calls[name]
            problems += [f"{name}: {p}" for p in found]
    (work / "hashes.json").write_text(json.dumps(res["hashes"], indent=1))

    op, fname, column = w.canary
    canary_dir = work / "canary"
    if (work / "out" / op / fname).is_file():
        shutil.copytree(work / "out" / op, canary_dir)
        checks.corrupt(canary_dir / fname, column)
        canary = ("counted as failed" if checks.check(op, canary_dir, truth)
                  else "NOT caught")
    else:
        canary = "skipped, no output to corrupt"
    if canary == "NOT caught":
        problems.append(f"canary: corrupted {fname} passed the {op} checks")
    for sub in ("inputs", "out", "canary"):
        shutil.rmtree(work / sub, ignore_errors=True)

    attempted, n_failed = sum(calls.values()), sum(failed.values())
    values = {
        "setup_s": setup_s,
        "pipeline_s": res["pipeline_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": n_failed / attempted,
        "cli.bytes_written": res["bytes_written"],
        "cli.files_written": res["files_written"],
        **{f"{sub}_s": res["times"].get(sub, 0.0) for sub in tracer.SUBCOMMANDS},
    }
    if args.trace:
        values.update(res["layers"], **{"trace.overhead_s":
                                        res["trace_overhead_s"]})
        problems += [f"counter {k} differs between passes"
                     for k in res["unsteady_counters"]]
    listed = spec["per_layer" if args.trace else "end_to_end"]

    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes, "
          f"{attempted} calls, {n_failed} failed; canary {canary}")
    print("subcommand times, fastest pass: " + ", ".join(
        f"{k}_s={v:.4f}" for k, v in res["times"].items()))
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=lambda v: int(v) % 2 ** 32,
                   default=DEFAULT_SEED,
                   help="any integer, taken modulo 2**32")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
