"""The benchmark's span wrappers and runner still find the names they use.

``perfbench/spans.py`` wraps package functions by name, and
``perfbench/run.py`` patches ``model.tvd_rk3_step``, clears ``ccd._CACHE``
and reads ``result.final.components`` and ``result.steps``; a rename would
otherwise surface only as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ccdburgers import ccd, exact, model, tvd_rk3

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_record_patched_calls():
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, ccd, model, tvd_rk3, exact):
        problem = spans.traced_spec(tracer, exact.example1_spec(final_time=1e-3))
        result = model.run(problem, [16], 1e-4)
        model.linf_errors(result.final, problem, [16])
    calls, _total, _self = tracer.summary()
    assert calls["exact.compute_fourier_coefficients"] == 1
    assert calls["ccd.CcdFactorization.apply"] > 0
    # axis 0 hands the field to apply as it is: one pencil per 1D apply
    assert tracer.pencils == calls["ccd.CcdFactorization.apply"]
    assert calls["tvd_rk3.tvd_rk3_step"] == 10
    # one finite check per step, of its result
    assert calls["tvd_rk3._check_finite"] == calls["tvd_rk3.tvd_rk3_step"]


def test_spans_count_wide_batch_pencils():
    # example 3 on 8 x 8 cells: each axis's apply carries all 9 pencils of
    # 9 nodes; both components are differentiated along both axes in every
    # right-hand side
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, ccd, model, tvd_rk3, exact):
        problem = spans.traced_spec(tracer, exact.example3_spec(final_time=0.01))
        model.run(problem, [8, 8], 0.005)
    calls, _total, _self = tracer.summary()
    applies = calls["ccd.CcdFactorization.apply"]
    assert calls["model.burgers_rhs"] == 6
    assert applies == 4 * calls["model.burgers_rhs"]
    assert tracer.pencils == 9 * applies
    # one imposition per step; the initial-data check reads the boundary
    # nodes without the setter.  Each of the three evaluates boundary_fn
    # once, on every boundary node of all 4 faces.
    assert calls["model.set_boundary"] == 2
    assert calls["spec.boundary_fn"] == 3
    # the span of get_factorization, which builds the operator, handed
    # both axes the factorization that holds it
    fact = ccd.get_factorization(problem.axes([8, 8])[0])
    assert tracer.factorizations == {id(fact)}


def test_spans_count_pencils_of_unreshaped_3d_fields():
    # example 4 on 4 x 4 x 4 cells: every axis passes each (5, 5, 5)
    # component to apply unreshaped, as a view with that axis first; every
    # apply carries 25 pencils, and 3 components are differentiated along
    # 3 axes
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, ccd, model, tvd_rk3, exact):
        problem = spans.traced_spec(tracer, exact.example4_spec(final_time=0.02))
        model.run(problem, [4, 4, 4], 0.01)
    calls, _total, _self = tracer.summary()
    applies = calls["ccd.CcdFactorization.apply"]
    assert calls["model.burgers_rhs"] == 6
    assert applies == 9 * calls["model.burgers_rhs"]
    assert tracer.pencils == 25 * applies


@pytest.mark.parametrize("traced", [False, True])
def test_runner_job_passes_its_gate(traced, monkeypatch):
    # run.py pins BLAS threads in os.environ when it loads, and imports
    # spans from its own directory
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # its @dataclass looks the module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

    # example 3 on 8 x 8 cells, two steps of 0.005
    wl = run.Workload(3, 0.1, (8, 8), 0.005, 2,
                      frozenset({"exact.compute_fourier_coefficients"}))
    record = run.job(wl, run.import_package(), 1e-6, traced)
    assert record["ok"], record["reason"]
    assert record["steps"] == 2
    if traced:
        assert record["counts"]["tvd_rk3.steps"] == 2
