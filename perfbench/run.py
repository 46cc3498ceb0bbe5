"""Benchmark of the `ruinkit` command line, end to end and per layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a ruinkit checkout; the package is imported from its
`src/` directory. Workloads: tables, lattice, gamma_ladder, simulate, and
smoke (a tiny list for the benchmark's own test). See jobs.py for why each
exists.

With --trace 0 it reports the end-to-end metrics:

* setup_s: start a fresh interpreter, import ruinkit.cli and reach the first
  job; the median of several cold starts.
* pass_s: median wall time of one pass over the workload's jobs.
* job_p50_ms, job_p90_ms: median and p90 latency of a single job.
* peak_rss_mb: peak resident memory of the worker process.
* ok_ratio: jobs that passed their checks over jobs attempted (the failure
  ratio is printed beside it; it is not a metric because it is 0 when all
  is well).

With --trace 1 it reports per-layer calls, busy and self time and work counts
from separate traced passes, and the tracing overhead. One closed-loop
client in one process runs the jobs; BLAS and OpenMP pools are pinned to one
thread. The last line of output is one JSON object; the lines above it are
for people. Full results and the traced spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every worker
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the
    seconds from launch to ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, env=env, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit status {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a started worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran over {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def setup_seconds(base: list[str], env: dict) -> list[float]:
    """Cold-start times of SETUP_PROBES workers, after one uncounted start
    that lets the interpreter write its bytecode caches."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc, ready = start_worker([*base, "--probe"], env)
        finish(proc, PROBE_TIMEOUT_S)
        samples.append(ready)
    return samples[1:]


def run_worker(argv: list[str], env: dict) -> dict:
    proc, _ = start_worker(argv, env)
    return json.loads(finish(proc, WORKER_TIMEOUT_S).strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float]) -> dict:
    ok = result["attempted"] - result["failed"]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_s": metric(result["pass_s"], "s"),
        "job_p50_ms": metric(result["job_p50_s"] * 1e3, "ms"),
        "job_p90_ms": metric(result["job_p90_s"] * 1e3, "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "ok_ratio": metric(ok / result["attempted"], "ratio"),
    }


def per_layer(result: dict) -> dict:
    out = {}
    for key, value in result["layers"].items():
        out[key] = metric(value, "s" if key.endswith("_s") else "count")
    out["import.busy_s"] = metric(result["import_s"], "s")
    out["trace.overhead_s"] = metric(result["traced_pass_s"] - result["pass_s"], "s")
    return out


def report(result: dict, metrics: dict, setup: list[float]) -> None:
    env = result["env"]
    threads = ",".join(f"{k}={v}" for k, v in env["threads"].items())
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
        f"backend {env['backend']}, {threads}"
    )
    print(f"workload {result['workload']}, seed {result['seed']}: {result['passes']} timed passes")
    for name, seconds in result["jobs"].items():
        print(f"job {name}: median {seconds * 1e3:.3f} ms over {result['job_runs'][name]} runs")
    for note in result["notes"]:
        print(f"note: {note}")
    for name, messages in result["failures"].items():
        for message in messages:
            print(f"FAILED {name}: {message}")
    print(f"fail_ratio = {result['failed'] / result['attempted']:.6g} ratio ({result['failed']} of {result['attempted']} jobs)")
    if setup:
        print(f"setup samples: {', '.join(f'{s:.4f}' for s in setup)} s")
    if "layers" in result:
        print(f"traced pass_s {result['traced_pass_s']:.6f} s vs untraced {result['pass_s']:.6f} s")
        print(f"counts repeat exactly across traced passes: {result['counts_repeat']}")
        selfs = {k[: -len(".self_s")]: v for k, v in result["layers"].items() if k.endswith(".self_s") and v > 0}
        total = sum(selfs.values())
        for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1])[:5]:
            print(f"self time share {layer}: {seconds / total:.1%}")
    for name, m in metrics.items():
        extra = f" (n={result['job_samples']})" if name.startswith("job_p") else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="nonnegative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "ruinkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no ruinkit source under {src}; run from the root of a ruinkit checkout\n")
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = worker_env(src)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [] if args.trace else setup_seconds(base, env)
        argv = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans", str(out_dir / f"{tag}-spans.jsonl")]
        result = run_worker(argv, env)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    if args.trace and not result["counts_repeat"]:
        result["failures"]["trace"] = ["work counts differ between traced passes"]
    report(result, metrics, setup)
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({**result, "setup_s": setup, "metrics": metrics}, fh, indent=1)
    correct = result["failed"] == 0 and not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
