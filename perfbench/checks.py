"""Output checks for benchmark jobs, run outside every timed region.

Each deterministic job's CSV must match the output frozen in
`reference/<workload>.json` cell by cell within 1e-6, the default printed
precision. Independent checks hold at any seed:

* exact values within 1e-7 (plus print rounding) of the closed forms for
  exponential and mixed-exponential claims on u <= 100;
* a job with `agrees_with` matches the other job's values (Talbot vs Euler);
* strict lattice bounds bracket the exact value at the lattice points;
* the cause split psi1 + psi2 is within 1e-4 of the exact value;
* Monte Carlo estimates are within 4 standard errors of the exact value, or
  not above it by more than 4 for a finite-horizon case biased low by design.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from ruinkit import Exponential, MixedExponential, exact_ruin
from ruinkit.approx import mixture_exact_ruin
from ruinkit.cli import parse_model

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FROZEN_TOL = 1e-6
CLOSED_FORM_TOL = 1e-7
CLOSED_FORM_UMAX = 100.0
AGREE_TOL = 1e-7
SPLIT_TOL = 1e-4
MC_Z = 4.0


def load_reference(workload: str) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    return rows[0], rows[1:]


def _cell(text: str) -> float:
    return math.nan if text == "NA" else float(text)


def _half_ulp(text: str) -> float:
    """Half a unit in the last printed place of a fixed-point cell."""
    places = len(text.partition(".")[2])
    return 0.5 * 10.0**-places


def _column(header, rows, name) -> list[str]:
    return [row[header.index(name)] for row in rows]


def compare_frozen(text: str, frozen: str) -> list[str]:
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(frozen)
    if header != ref_header:
        return [f"header {header} != frozen {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != frozen {len(ref_rows)}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, got, want in zip(header, row, ref_row):
            if (got == "NA") != (want == "NA"):
                return [f"row {i} {name}: {got} vs frozen {want}"]
            if got != "NA" and not abs(float(got) - float(want)) <= FROZEN_TOL:
                return [f"row {i} {name}: {got} vs frozen {want} (tol {FROZEN_TOL})"]
    return []


def closed_form(model, u: np.ndarray) -> np.ndarray | None:
    """Exact ruin probability in closed form, where one exists."""
    claims = model.claims
    if isinstance(claims, Exponential):
        weights, rates = (1.0,), (claims.rate,)
    elif isinstance(claims, MixedExponential):
        weights, rates = claims.weights, claims.rates
    else:
        return None
    if model.sigma > 0.0:
        return np.asarray(mixture_exact_ruin(model.lam, model.c, model.sigma, weights, rates, u))
    if len(rates) == 1:  # classical compound Poisson with exponential claims
        theta = model.loading
        return np.exp(-theta * rates[0] * u / (1.0 + theta)) / (1.0 + theta)
    return None


def _check_closed_form(model, header, rows, column) -> list[str]:
    cells = [(float(u), v) for u, v in zip(_column(header, rows, "u"), _column(header, rows, column))]
    cells = [(u, v) for u, v in cells if u <= CLOSED_FORM_UMAX]
    want = closed_form(model, np.array([u for u, _ in cells]))
    if want is None:
        return []
    for (u, v), w in zip(cells, want):
        tol = CLOSED_FORM_TOL + _half_ulp(v)
        if not abs(_cell(v) - w) <= tol:
            return [f"{column} at u={u}: {v} vs closed form {w:.12g} (tol {tol:.2g})"]
    return []


def _check_agreement(text: str, other: str) -> list[str]:
    header, rows = parse_csv(text)
    other_header, other_rows = parse_csv(other)
    if header != other_header or len(rows) != len(other_rows):
        return ["output shape differs from the job it must agree with"]
    for i, (row, other_row) in enumerate(zip(rows, other_rows)):
        for name, a, b in zip(header, row, other_row):
            if a == b:
                continue
            tol = AGREE_TOL + _half_ulp(a) + _half_ulp(b)
            if not abs(_cell(a) - _cell(b)) <= tol:
                return [f"row {i} {name}: {a} vs {b} (tol {tol:.2g})"]
    return []


def _check_sandwich(model, header, rows) -> list[str]:
    u = np.array([float(x) for x in _column(header, rows, "u")])
    exact = exact_ruin(model, u)
    for x, lo, hi, e in zip(u, _column(header, rows, "lower"), _column(header, rows, "upper"), exact):
        tol = CLOSED_FORM_TOL + _half_ulp(lo)
        if not (float(lo) - tol <= e <= float(hi) + tol):
            return [f"u={x}: exact {e:.9f} outside strict bounds [{lo}, {hi}]"]
    return []


def _check_split(model, header, rows) -> list[str]:
    picked = [row for row in rows if float(row[0]).is_integer()]
    u = np.array([float(row[0]) for row in picked])
    exact = exact_ruin(model, u)
    for row, e in zip(picked, exact):
        if not abs(float(row[header.index("sum")]) - e) <= SPLIT_TOL:
            return [f"u={row[0]}: psi1+psi2 {row[header.index('sum')]} vs exact {e:.9f}"]
    return []


def _check_monte_carlo(job, model, header, rows, notes: list[str]) -> list[str]:
    u = float(job.argv[job.argv.index("--u") + 1])
    estimate = float(rows[0][header.index("ruin_freq")])
    n_paths = int(job.argv[job.argv.index("--paths") + 1])
    se = max(float(rows[0][header.index("std_err")]), 1.0 / n_paths)
    exact = exact_ruin(model, u)
    z = (estimate - exact) / se
    if job.one_sided:
        notes.append(f"{job.name}: finite-horizon deficit {-z:+.1f} se (estimate {estimate} vs exact {exact:.6f})")
        return [] if z <= MC_Z else [f"estimate {estimate} above exact {exact:.6f} by {z:.1f} se"]
    return [] if abs(z) <= MC_Z else [f"estimate {estimate} vs exact {exact:.6f}: {z:+.1f} se"]


def check_job(job, text: str, outputs: dict[str, str], reference: dict[str, str], notes: list[str]) -> list[str]:
    """Failures of one job's output; an empty list means it passed.

    `outputs` maps job names to their outputs in this run; `notes` collects
    figures that are reported but are not failures.
    """
    try:
        header, rows = parse_csv(text)
        model = parse_model(job.model)
        failures = []
        if not job.seeded:
            if job.name not in reference:
                return ["no frozen output for this job"]
            failures += compare_frozen(text, reference[job.name])
        if job.command in ("table", "exact"):
            failures += _check_closed_form(model, header, rows, "exact" if job.command == "table" else "psi")
        if job.agrees_with is not None:
            failures += _check_agreement(text, outputs[job.agrees_with])
        if job.command == "bounds" and "strict" in job.argv:
            failures += _check_sandwich(model, header, rows)
        if job.command == "decompose":
            failures += _check_split(model, header, rows)
        if job.command == "simulate":
            failures += _check_monte_carlo(job, model, header, rows, notes)
        return failures
    except (ValueError, IndexError, KeyError, ArithmeticError) as exc:
        return [f"output could not be checked: {exc!r}"]
