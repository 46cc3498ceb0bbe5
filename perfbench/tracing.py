"""Spans and work counts around the calls into each ruinkit layer.

The program's source is left alone: `installed()` rebinds each public
function at the places it is looked up from (a module attribute, or a class
attribute for methods) and restores the originals on exit. A span holds the
layer name, start, end, the index of its parent span and the job it ran
under. Spans stay in memory until the benchmark writes them out.

Self time is a span's duration minus the durations of its direct children;
children run inside their parent and one after another, so their sum is the
part of the parent's interval they cover. Busy time counts only outermost
spans of a name, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

import ruinkit.approx
import ruinkit.bounds
import ruinkit.cli
import ruinkit.exact
import ruinkit.montecarlo
from ruinkit import _inversion
from ruinkit.claims import ClaimDistribution
from ruinkit.model import PerturbedModel


def _arg(index, name):
    def get(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[name]

    return get


def _size(index, name):
    get = _arg(index, name)
    return lambda args, kwargs, result: int(np.size(get(args, kwargs, result)))


# (owner, attribute, span name, {count name: count(args, kwargs, result)}).
# Methods receive self as args[0].
BINDINGS = (
    (ruinkit.cli, "main", "cli.main", {}),
    (ruinkit.cli, "exact_ruin", "exact.exact_ruin", {"points": _size(1, "u")}),
    (ruinkit.cli, "decompose_ruin", "exact.decompose_ruin", {}),
    (_inversion, "invert", "inversion.invert", {}),
    (PerturbedModel, "pk_transform", "model.pk_transform", {"points": _size(1, "s")}),
    (ruinkit.approx, "de_vylder_ruin", "approx", {}),
    (ruinkit.approx, "renyi_approx", "approx", {}),
    (ruinkit.approx, "pkdv_approx", "approx", {}),
    (ruinkit.approx, "two_point_pade", "approx", {}),
    (
        ruinkit.cli,
        "adjustment_coefficient",
        "coefficients.adjustment_coefficient",
        {"iterations": lambda args, kwargs, result: result.iterations},
    ),
    (ruinkit.cli, "panjer_bounds", "bounds.panjer_bounds", {}),
    (ruinkit.bounds, "discretize_ladder", "bounds.discretize_ladder", {"cells": _arg(2, "n_points")}),
    (ruinkit.bounds, "panjer_compound", "kernels.panjer_compound", {"cells": _size(0, "p")}),
    (ruinkit.bounds, "lattice_convolve", "kernels.lattice_convolve", {"cells": _size(0, "a")}),
    (ruinkit.exact, "volterra_march", "kernels.volterra_march", {"steps": _size(0, "forcing")}),
    (
        ruinkit.cli,
        "simulate_ruin",
        "montecarlo.simulate_ruin",
        {"paths": lambda args, kwargs, result: result.n_paths},
    ),
    (ruinkit.montecarlo, "mc_ruin_paths", "kernels.mc_ruin_paths", {}),
    (ClaimDistribution, "h3_cdf", "claims.h3_cdf", {"points": _size(1, "x")}),
    (ClaimDistribution, "h3_density", "claims.h3_density", {"points": _size(1, "x")}),
)

# metric names must start with a letter or digit, so the private modules
# _inversion and _kernels report as inversion and kernels
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in BINDINGS))
COUNTS = tuple(f"{name}.{count}" for _, _, name, counts in BINDINGS for count in counts)


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (job, count name) -> total
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            for count, get in counts.items():
                tracer.counts[tracer.job, f"{name}.{count}"] += int(get(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in BINDINGS]
        try:
            for owner, attr, name, counts in BINDINGS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layer_totals(self, jobs: set[str]) -> dict[str, float]:
        """calls, busy_s and self_s per layer, and every count, summed over
        the spans recorded under the given job ids."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for count in COUNTS:
            out[count] = sum(v for (job, name), v in self.counts.items() if name == count and job in jobs)
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job not in jobs:
                continue
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[index]
            if not self._inside_same(name, parent):
                out[f"{name}.busy_s"] += duration
        return out

    def _inside_same(self, name: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                fh.write("\n")
