"""Benchmark worker: runs one workload's jobs in this process.

One closed-loop client calls `ruinkit.cli.main(argv)` for each job in turn,
pass after pass, capturing the CSV it prints. Outputs are checked after the
timed passes. With --trace 1 a few more passes run with every layer wrapped
(see tracing.py) to give per-layer spans and counts.

The worker prints READY once it could start its first job, then, unless
--probe is given, one JSON line with its measurements. run.py starts it and
reports; this file is not meant to be run by hand.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import ruinkit.cli  # noqa: E402  (the cold import is part of what is measured)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import ruinkit  # noqa: E402
from checks import check_job, load_reference  # noqa: E402
from jobs import jobs_for  # noqa: E402
from tracing import Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
TRACED_PASSES = 3


class Record:
    """Latencies, outputs and per-execution failures of a series of passes."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.pass_times: list[float] = []
        self.outputs: dict[str, str] = {}
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.bad: dict[str, int] = defaultdict(int)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def add(self, name: str, seconds: float, status, out: str, err: str) -> None:
        self.latencies[name].append(seconds)
        problem = None
        if status != 0:
            problem = f"exit status {status!r}: {err.strip()[-300:]}"
        elif name not in self.outputs:
            self.outputs[name] = out
        elif out != self.outputs[name]:
            problem = "output differs from the first pass"
        if problem is not None:
            self.bad[name] += 1
            if problem not in self.failures[name]:
                self.failures[name].append(problem)


def run_job(job) -> tuple[float, object, str, str]:
    """Time one CLI call; an exception or exit counts as its status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = ruinkit.cli.main(list(job.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            status = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, status, out.getvalue(), err.getvalue()


def run_passes(jobs, record: Record, budget_s: float, min_passes: int, tracer=None) -> None:
    """Run at least `min_passes` whole passes, and more while the next one
    is expected to end within the budget."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + elapsed / done > budget_s:
            break
        total = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{len(record.pass_times)}:{job.name}"
            seconds, status, out, err = run_job(job)
            total += seconds
            record.add(job.name, seconds, status, out, err)
        record.pass_times.append(total)
        done += 1


def evaluate(jobs, record: Record, reference: dict[str, str]) -> tuple[int, dict[str, list[str]], list[str]]:
    """(failed executions, failure messages per job, notes) after checking
    each job's output once; a job whose output fails a check fails on every
    execution."""
    failed = 0
    failures: dict[str, list[str]] = {}
    notes: list[str] = []
    for job in jobs:
        messages = list(record.failures.get(job.name, []))
        if job.name in record.outputs:
            content = check_job(job, record.outputs[job.name], record.outputs, reference, notes)
        else:
            content = ["no successful execution"]
        messages += content
        failed += len(record.latencies[job.name]) if content else record.bad.get(job.name, 0)
        if messages:
            failures[job.name] = messages
    return failed, failures, notes


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": ruinkit.active_backend(),
        "ruinkit": str(Path(ruinkit.__file__).parent),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def timing(record: Record) -> dict:
    """Pass and job timings of the passes recorded so far."""
    latencies = [x for v in record.latencies.values() for x in v]
    return {
        "passes": len(record.pass_times),
        "pass_s": statistics.median(record.pass_times),
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
        "job_samples": len(latencies),
        "jobs": {name: statistics.median(v) for name, v in sorted(record.latencies.items())},
        "job_runs": {name: len(v) for name, v in sorted(record.latencies.items())},
    }


def layer_metrics(tracer: Tracer, jobs, passes) -> tuple[dict, bool]:
    """Per-pass layer metrics (medians of times, counts of the first traced
    pass) and whether every count repeated exactly across traced passes."""
    per_pass = [tracer.layer_totals({f"{p}:{job.name}" for job in jobs}) for p in passes]
    repeat = all(other[key] == per_pass[0][key] for other in per_pass for key in per_pass[0] if not key.endswith("_s"))
    layers = {
        key: statistics.median(p[key] for p in per_pass) if key.endswith("_s") else per_pass[0][key]
        for key in per_pass[0]
    }
    return layers, repeat


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    jobs = jobs_for(workload, seed)
    record = Record()
    run_passes(jobs, record, seconds / 2 if trace else seconds, 2 if trace else MIN_PASSES)
    result = {
        "workload": workload,
        "seed": seed,
        "env": environment(),
        "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **timing(record),
    }
    if trace:
        tracer = Tracer()
        first = len(record.pass_times)
        with tracer.installed():
            run_passes(jobs, record, 0.0, TRACED_PASSES, tracer)
        result["layers"], result["counts_repeat"] = layer_metrics(tracer, jobs, range(first, len(record.pass_times)))
        result["traced_pass_s"] = statistics.median(record.pass_times[first:])
        if spans_path is not None:
            tracer.write(spans_path)
    failed, failures, notes = evaluate(jobs, record, load_reference(workload))
    result.update(attempted=record.attempted, failed=failed, failures=failures, notes=notes)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once ready to run the first job")
    parser.add_argument("--spans", help="write the traced spans here, one JSON object a line")
    args = parser.parse_args()
    jobs_for(args.workload, args.seed)  # building the job list is part of reaching the first job
    print("READY", flush=True)
    if args.probe:
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
