"""The benchmark's span wrappers still find the names they patch.

``perfbench/spans.py`` wraps package functions by name; a rename would
otherwise surface only as a failed benchmark run.
"""

import importlib.util
from pathlib import Path

from ccdburgers import ccd, exact, model, tvd_rk3

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_spans_count_wide_batch_pencils():
    # example 3 on 8 x 8 cells: each axis's apply carries all 9 pencils of
    # 9 nodes, which takes the block-banded form; both components are
    # differentiated along both axes in every right-hand side
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
    # the initial-data check and one imposition per step, each evaluating
    # boundary_fn once on each of the 4 faces
    assert calls["model.set_boundary"] == 3
    assert calls["spec.boundary_fn"] == 12
    assert ccd.get_factorization(problem.axes([8, 8])[0])._blocks is not None


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
