"""Benchmark of the qgordon routes: time to verdict and verified cells per second.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-window --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

A run repeats passes for about ``--seconds`` seconds. Each pass is a fresh
process that imports ``qgordon`` from ``src/``, builds the workload's jobs
from the seed, runs a warm-up job, and then runs the jobs back to back on
one thread (a closed loop with one client), checking every verdict. The
run reports medians over its passes. With ``--trace 1`` every second pass
records spans around the package's public calls and the run reports
per-layer metrics instead; the untraced passes in between give the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every comparison matched, 1 when one did not, and 2 when the
benchmark could not run. A record of each run, with provenance, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, SELF_SECONDS, SPAN_SECONDS, Tracer, layer_metrics
from workloads import WORKLOADS, dumps_jobs, make_jobs, run_job, warmup_jobs

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SRC = ROOT / "src"

MIN_PASSES = 3  # of each kind, untraced and traced, whatever --seconds says
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("wall_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


LAYER_METRICS = (
    list(SPAN_SECONDS)
    + list(SELF_SECONDS)
    + COUNT_METRICS
    + ["ideal_quotient.rank.useful_ratio", "cli.stdout.bytes", "other.s"]
    + ["trace.traced_wall_s", "trace.untraced_wall_s"]
)


# -- one pass, in its own process ------------------------------------------------


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Set up, then time one pass over the workload's jobs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qgordon

    if Path(qgordon.__file__).resolve().parent != SRC / "qgordon":
        raise RuntimeError(f"imported qgordon from {qgordon.__file__}, not from {SRC}")
    jobs = make_jobs(workload, seed)
    workdir = RESULTS / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    warmup = [run_job(job, str(workdir)) for job in warmup_jobs(workload)]
    setup_s = time.perf_counter() - start

    tracer = Tracer() if traced else None
    timed = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for n, job in enumerate(jobs):
            if tracer:
                tracer.run_id = n
            timed.append(run_job(job, str(workdir)))
        wall_s = time.perf_counter() - start

    outcomes = warmup + timed
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells": sum(o.cells for o in timed),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": [f for o in outcomes for f in o.failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        stdout_bytes = sum(o.stdout_bytes for o in timed)
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, wall_s, stdout_bytes)
        result["spans"] = tracer.spans
    return result


# -- a run: passes for about --seconds seconds ---------------------------------------


class PassError(RuntimeError):
    pass


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass",
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    # A fixed hash seed, so that set and dict order, and with it the work,
    # repeats from pass to pass. A fixed glibc mmap threshold (its default
    # starting value): glibc otherwise raises the threshold after the first
    # large free, and whether a multi-megabyte JSON buffer then stays
    # resident flips with the window, moving family-roundtrip's peak memory
    # between about 104 and 112 MB.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"a pass of {workload} ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassError(f"a pass of {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes back to back until another would overrun ``seconds``."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        p = spawn_pass(workload, seed, traced)
        p["traced"] = traced
        p["process_s"] = time.perf_counter() - t
        passes.append(p)
        kinds = (False, True) if trace else (False,)
        enough = all(sum(q["traced"] == k for q in passes) >= MIN_PASSES for k in kinds)
        next_s = statistics.median(q["process_s"] for q in passes)
        if enough and time.perf_counter() - start + next_s > seconds:
            return passes


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(passes: list[dict], trace: bool) -> dict:
    """Medians over passes: end-to-end from untraced passes, per-layer from traced ones."""
    untraced = [p for p in passes if not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in untraced],
        "cells_per_s": [p["cells"] / p["wall_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": [p["setup_s"] for p in untraced],
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "end_to_end": {k: statistics.median(v) for k, v in samples.items()},
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "passes": len(untraced),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.untraced_wall_s"] = summary["end_to_end"]["wall_s"]
        summary["layers"] = layers
        summary["trace_overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        summary["traced_passes"] = len(traced)
    return summary


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "windows": {name: w["window"] for name, w in WORKLOADS.items()},
    }


def report(workload: str, seed: int, seconds: float, trace: bool) -> int:
    jobs = make_jobs(workload, seed)
    passes = measure(workload, seed, seconds, trace)
    summary = summarize(passes, trace)

    for p in passes:
        for failure in p["failures"]:
            print(failure, file=sys.stderr)
    print(f"workload {workload}  seed {seed}  jobs {dumps_jobs(jobs)}")
    print(f"{summary['passes']} untraced passes, closed loop, one client, one thread")
    for name, unit in END_TO_END_UNITS.items():
        q1, _, q3 = summary["quartiles"][name]
        print(f"  {name:<12} {summary['end_to_end'][name]:.6g} {unit}"
              f"  (median; quartiles {q1:.6g}..{q3:.6g})")
    print(f"  {'fail_ratio':<12} {summary['fail_ratio']:.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} comparisons)")
    if trace:
        print(f"{summary['traced_passes']} traced passes; tracing overhead "
              f"{summary['trace_overhead_s']:+.4f} s per pass")
        for name in LAYER_METRICS:
            print(f"  {name:<40} {summary['layers'][name]:.6g} {layer_unit(name)}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    spans = [{"pass": n, "spans": p.pop("spans")} for n, p in enumerate(passes) if "spans" in p]
    record = {
        "provenance": provenance(),
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "seed": seed,
        "seconds": seconds,
        "jobs": jobs,
        "summary": summary,
        "passes": passes,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    print(f"record: {stem.with_suffix('.json').relative_to(ROOT)}")

    if trace:
        metrics = {n: {"value": summary["layers"][n], "unit": layer_unit(n)} for n in LAYER_METRICS}
    else:
        metrics = {n: {"value": summary["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if summary["correct"] else 1


def report_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each run in its own process, then one table."""
    rows, code = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if proc.returncode in (0, 1):
            result = json.loads(proc.stdout.splitlines()[-1])
            rows.append((workload, result))
    print("\nworkload            metric" + " " * 34 + "value  unit")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:<19} {name:<40} {m['value']:>12.6g}  {m['unit']}")
        print(f"{workload:<19} {'fail_ratio':<40} "
              f"{result['failed'] / result['attempted']:>12.6g}  ratio")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qgordon" / "__init__.py").is_file():
        print(f"error: no qgordon package under {SRC}", file=sys.stderr)
        return 2
    if args.one_pass:
        print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
        return 0
    try:
        if args.workload == "all":
            return report_all(args.seed, args.seconds, bool(args.trace))
        return report(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
