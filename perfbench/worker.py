"""The workload process: runs the passes of one workload and reports them.

Started by run.py with the inputs already generated, so that this process
holds nothing but debtkit and its peak resident memory is the workload's.
It calls `debtkit.cli.main` in a closed loop, records each subcommand's wall
time and exit code, hashes every output file after every pass, and in a
traced run alternates untraced and traced passes.

Wall times are the fastest of the run's untraced passes: the fastest pass
for the pipeline, the fastest call for each subcommand. On a shared machine,
interference from other tenants only ever slows a pass, in bursts of
seconds, so the fastest pass is the least disturbed estimate; the median
over passes moved about twice as much from run to run. Per-layer times are
medians over the traced passes.

Usage: python3 perfbench/worker.py <work dir>, where the work dir holds
``job.json`` (written by run.py); the result goes to ``result.json`` there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer
import workloads

MIN_PASSES = 3  # of each kind: untraced, and traced in a traced run


def _hashes(out: Path) -> dict[str, str]:
    result = {}
    for f in sorted(out.rglob("*")):
        if f.is_file():
            with open(f, "rb") as fh:
                result[str(f.relative_to(out))] = hashlib.file_digest(
                    fh, "sha256").hexdigest()
    return result


def main(work: Path) -> None:
    job = json.loads((work / "job.json").read_text())
    from debtkit import cli

    ops = workloads.operations(job["workload"], job["seed"],
                               work / "inputs", work / "out", job["simulate"])
    recorder = tracer.Tracer()
    calls = {name: 0 for name, _ in ops}
    failed = dict(calls)
    first_hashes: dict[str, dict] = {}
    messages: list[str] = []
    untraced, traced = [], []

    def run_pass(traced_pass: bool) -> dict:
        times = {}
        if traced_pass:
            recorder.install()
        try:
            start = perf_counter()
            for name, argv in ops:
                sink = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(argv)
                    except Exception:  # a crash is a failed call, not a stop
                        traceback.print_exc()
                        code = "exception"
                times[name] = perf_counter() - t0
                calls[name] += 1
                if code != 0:
                    failed[name] += 1
                    last = (sink.getvalue().strip().splitlines() or [""])[-1]
                    messages.append(f"{name}: exit code {code}: {last}")
            pipeline = perf_counter() - start
        finally:
            recorder.uninstall()
        spans = recorder.take()
        for name, _ in ops:
            hashes = _hashes(work / "out" / name)
            if first_hashes.setdefault(name, hashes) != hashes:
                failed[name] += 1
                messages.append(f"{name}: outputs differ from the first pass")
        out = work / "out"
        files = [f for f in out.rglob("*") if f.is_file()]
        return {"times": times, "pipeline": pipeline, "spans": spans,
                "files_written": len(files),
                "bytes_written": sum(f.stat().st_size for f in files)}

    run_pass(False)  # warm-up: lazy imports, page cache; checked, not timed
    kinds = (False, True) if job["trace"] else (False,)
    begin = perf_counter()
    while (perf_counter() - begin < job["seconds"]
           or len(untraced) < MIN_PASSES
           or (job["trace"] and len(traced) < MIN_PASSES)):
        for traced_pass in kinds:
            (traced if traced_pass else untraced).append(run_pass(traced_pass))

    result = {
        "calls": calls, "failed": failed, "messages": messages[:20],
        "hashes": first_hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": len(untraced),
        "pipeline_s": min(p["pipeline"] for p in untraced),
        "times": {name: min(p["times"][name] for p in untraced)
                  for name, _ in ops},
        "pass_times": [p["times"] for p in untraced],
        "files_written": untraced[0]["files_written"],
        "bytes_written": untraced[0]["bytes_written"],
    }
    if traced:
        result["traced_passes"] = len(traced)
        result["trace_overhead_s"] = (min(p["pipeline"] for p in traced)
                                      - result["pipeline_s"])
        per_pass = [tracer.derive(p["spans"]) for p in traced]
        result["layers"] = {k: statistics.median(m[k] for m in per_pass)
                            for k in per_pass[0]}
        result["unsteady_counters"] = [
            k for k in tracer.COUNTERS
            if len({m[k] for m in per_pass}) != 1]
        with open(work / "spans.jsonl", "w", encoding="utf-8") as f:
            for i, p in enumerate(traced):
                for j, span in enumerate(p["spans"]):
                    f.write(json.dumps([i, j, *span]) + "\n")
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
