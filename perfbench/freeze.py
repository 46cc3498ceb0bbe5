"""Freeze the current outputs of every deterministic benchmark job.

    PYTHONPATH=src python3 perfbench/freeze.py

Writes perfbench/reference/<workload>.json, mapping job names to the CSV
each job prints. The benchmark compares later outputs against these files,
so rerun this only when a change to the CLI output is intended.
"""

from __future__ import annotations

import json
import sys

from checks import REFERENCE_DIR
from jobs import WORKLOADS, jobs_for
from worker import run_job


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        frozen = {}
        for job in sorted(jobs_for(workload, 0), key=lambda j: j.name):
            if job.seeded:
                continue
            _, status, out, err = run_job(job)
            if status != 0:
                sys.stderr.write(f"{job.name}: exit status {status!r}\n{err}")
                return 1
            frozen[job.name] = out
        with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
            json.dump(frozen, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: froze {len(frozen)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
