"""Tests of the benchmark harness itself, on its smoke workload.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from checks import load_reference  # noqa: E402
from jobs import jobs_for  # noqa: E402
from worker import Record, evaluate, run_passes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "smoke", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def check_printed(trace: int, declared: list[dict]) -> None:
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines[:-1]), m["name"]


def test_end_to_end_metrics_print_with_units():
    check_printed(0, SPEC["end_to_end"])


def test_per_layer_metrics_print_with_units():
    check_printed(1, SPEC["per_layer"])


def test_corrupted_reference_fails_its_job():
    jobs = jobs_for("smoke", 0)
    record = Record()
    run_passes(jobs, record, 0.0, 2)
    reference = load_reference("smoke")
    assert evaluate(jobs, record, reference)[0] == 0

    header, first_row, *rest = reference["smoke.exact"].splitlines()
    u, psi = first_row.split(",")
    corrupted = dict(reference)
    corrupted["smoke.exact"] = "\n".join([header, f"{u},{float(psi) + 1e-5:.10f}", *rest]) + "\n"
    failed, failures, _ = evaluate(jobs, record, corrupted)
    assert failed == 2
    assert list(failures) == ["smoke.exact"]


def test_refuses_to_run_without_the_source(tmp_path):
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
