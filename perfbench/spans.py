"""In-memory spans around the calls into each solver layer.

The benchmark patches the names below with wrappers that record one span
per call: its name, start, end and the span open when it began (its
parent).  Nothing inside the package is changed; the patches are undone
when a traced job ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Every wrapped name.  BENCHMARK.json lists each as a per-layer metric
# "calls.<name>"; run.py refuses to start when the two lists differ.
WRAPPED = (
    "ccd.CcdFactorization.apply",
    "ccd.get_factorization",
    "model.directional_derivatives",
    "model.burgers_rhs",
    "model.run",
    "model.set_boundary",
    "model.linf_errors",
    "tvd_rk3.tvd_rk3_step",
    "tvd_rk3._check_finite",
    "spec.boundary_fn",
    "spec.exact_fn",
    "exact.compute_fourier_coefficients",
)

# Shape of the banded CCD system the computed work figures assume: 2 unknowns
# per node, LU with 3 sub- and 3 super-diagonals (6 after pivoting).
_KL = 3
_KU = 3
_SOLVE_FLOPS_PER_UNKNOWN = 2 * _KL + 2 * (_KL + _KU) + 1
_BAND_ROWS = 2 * _KL + _KU + 1


class Tracer:
    """Spans of one job, kept in parallel lists until it ends.  Wrappers
    append to the lists of the tracer that made them, so each job makes a
    fresh tracer and fresh wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open = [-1]
        self.pencils = 0
        self.flops = 0
        self.bytes = 0
        self.factorizations: set[int] = set()

    def wrap(self, name, fn):
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()

        return traced

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-name call counts, total seconds and self seconds."""
        calls = Counter(self.names)
        total = Counter()
        self_s = Counter()
        child = [0.0] * len(self.names)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
        for i, name in enumerate(self.names):
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, total, self_s

    def records(self, job: int):
        """The spans as JSON-ready dicts; ``job`` ties them to one solve."""
        for i, name in enumerate(self.names):
            yield {"job": job, "id": i, "name": name,
                   "parent": self.parents[i],
                   "start": self.starts[i], "end": self.ends[i]}


@contextmanager
def patched(tracer: Tracer, ccd, model, tvd_rk3, exact):
    """Install the span wrappers; restore the originals on exit."""
    apply = ccd.CcdFactorization.apply
    get_factorization = model.get_factorization
    boundary_setter = model._boundary_setter

    def counted_apply(fact, samples):
        shape = getattr(samples, "shape", ())
        pencils = 1
        for k in shape[1:]:
            pencils *= k
        unknowns = 2 * fact.m
        tracer.pencils += pencils
        tracer.flops += _SOLVE_FLOPS_PER_UNKNOWN * unknowns * pencils
        # Samples read once, both derivatives written once, band factor
        # read once per call: the least traffic the solve can have.
        tracer.bytes += 8 * (3 * fact.m * pencils + _BAND_ROWS * unknowns)
        return apply(fact, samples)

    def recorded_get_factorization(axis):
        # The cache holds every factorization for the whole job, so an id
        # is not reused within it: distinct ids are the cache misses.
        fact = get_factorization(axis)
        tracer.factorizations.add(id(fact))
        return fact

    def traced_boundary_setter(*args, **kwargs):
        return tracer.wrap("model.set_boundary",
                           boundary_setter(*args, **kwargs))

    targets = [
        (ccd.CcdFactorization, "apply",
         tracer.wrap("ccd.CcdFactorization.apply", counted_apply)),
        (model, "get_factorization",
         tracer.wrap("ccd.get_factorization", recorded_get_factorization)),
        (model, "_boundary_setter", traced_boundary_setter),
    ]
    for name, owner in (
        ("model.directional_derivatives", model),
        ("model.burgers_rhs", model),
        ("model.run", model),
        ("model.linf_errors", model),
        ("tvd_rk3.tvd_rk3_step", model),
        ("tvd_rk3._check_finite", tvd_rk3),
        ("exact.compute_fourier_coefficients", exact),
    ):
        attr = name.rsplit(".", 1)[1]
        targets.append((owner, attr, tracer.wrap(name, getattr(owner, attr))))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def traced_spec(tracer: Tracer, spec):
    """The spec with its boundary and exact-solution oracles wrapped."""
    return dataclasses.replace(
        spec,
        boundary_fn=tracer.wrap("spec.boundary_fn", spec.boundary_fn),
        exact_fn=tracer.wrap("spec.exact_fn", spec.exact_fn),
    )


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer times (seconds) and exact counts of one traced job."""
    calls, total, self_s = tracer.summary()
    times = {
        "ccd.apply_s": self_s["ccd.CcdFactorization.apply"],
        "ccd.factorize_s": total["ccd.get_factorization"],
        "model.rhs_self_s": self_s["model.burgers_rhs"],
        "model.directional_self_s": self_s["model.directional_derivatives"],
        "model.boundary_self_s": self_s["model.set_boundary"],
        "model.driver_self_s": self_s["model.run"],
        "model.errors_s": total["model.linf_errors"],
        "tvd_rk3.step_self_s": self_s["tvd_rk3.tvd_rk3_step"],
        "tvd_rk3.check_finite_s": total["tvd_rk3._check_finite"],
        "exact.oracle_s": total["spec.boundary_fn"] + total["spec.exact_fn"],
        "exact.coeffs_s": total["exact.compute_fourier_coefficients"],
    }
    counts = {
        "ccd.apply_calls": calls["ccd.CcdFactorization.apply"],
        "ccd.pencils": tracer.pencils,
        "ccd.flops_computed": tracer.flops,
        "ccd.bytes_computed": tracer.bytes,
        "ccd.factorizations": len(tracer.factorizations),
        "model.rhs_calls": calls["model.burgers_rhs"],
        "model.boundary_calls": calls["model.set_boundary"],
        "tvd_rk3.steps": calls["tvd_rk3.tvd_rk3_step"],
        "tvd_rk3.check_finite_calls": calls["tvd_rk3._check_finite"],
        "exact.oracle_calls": calls["spec.boundary_fn"] + calls["spec.exact_fn"],
    }
    counts.update({f"calls.{name}": calls[name] for name in WRAPPED})
    return times, counts
