"""Benchmark of the ccdburgers solver on three fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ex1-1d-m80 --seed 1 --seconds 30 --trace 0

One job is what a user runs: build the problem spec (and its oracle), march
it with ``model.run`` from a cold factorization cache, and take the max-norm
error against the exact oracle with ``model.linf_errors``.  The benchmark
runs one untimed warm-up job, then jobs back to back until ``--seconds``
have passed, one at a time in this one process, with BLAS pinned to one
thread.  Every job goes through the correctness gate; a failed job counts
in ``failed`` and is never retried or dropped.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced jobs alternate; the traced ones wrap
the calls into each layer (see spans.py) and the line carries the
per-layer metrics.  Every run also writes its jobs, metrics and machine
record to ``perfbench/results/``.

The problems are deterministic: the seed is recorded and varies nothing.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; check_blas_pin() verifies that it took effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import re
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    example: int
    inv_re: float
    resolution: tuple[int, ...]
    dt: float
    steps: int
    # Wrapped names the workload does not call; every other one must record
    # at least one call in each traced job.
    unexercised: frozenset = frozenset()

    def spec(self, exact):
        return exact.EXAMPLES[self.example](
            inv_re=self.inv_re, final_time=self.steps * self.dt)


# Why each workload is here is recorded in BENCHMARK.json with its error
# ceiling.  Step counts keep one job between about 1 and 2.5 seconds.
_NO_SERIES = frozenset({"exact.compute_fourier_coefficients"})
WORKLOADS = {
    "ex4-3d-m32": Workload(4, 0.08, (32, 32, 32), 1 / 1024, 16, _NO_SERIES),
    "ex1-1d-m80": Workload(1, 0.1, (80,), 1e-5, 5000),
    "ex2-2d-m1024": Workload(2, 0.1, (1024, 1024), 2.0**-20, 2, _NO_SERIES),
}
END_TO_END = ("steps_per_s", "time_to_solution_s", "setup_s", "linf_error",
              "peak_rss_mib")


def load_config(name: str) -> tuple[dict, float]:
    """BENCHMARK.json and the named workload's error ceiling."""
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    listed = {w["name"]: w["why"] for w in config["workloads"]}
    if set(listed) != set(WORKLOADS):
        raise BenchError("BENCHMARK.json and run.py list different workloads")
    if name not in listed:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(listed)}")
    calls = {m["name"][len("calls."):] for m in config["per_layer"]
             if m["name"].startswith("calls.")}
    if calls != set(spans.WRAPPED):
        raise BenchError("BENCHMARK.json and spans.py list different wrapped names")
    ceiling = re.search(r"linf ceiling ([0-9.]+e[-+]?[0-9]+)", listed[name])
    if ceiling is None:
        raise BenchError(f"no linf ceiling recorded for {name} in BENCHMARK.json")
    return config, float(ceiling.group(1))


def import_package():
    """The checkout's own ccdburgers sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ccdburgers" / "__init__.py").is_file():
        raise BenchError(f"no ccdburgers sources under {src}")
    sys.path.insert(0, str(src))
    from ccdburgers import ccd, exact, model, tvd_rk3

    if Path(ccd.__file__).resolve().parent != (src / "ccdburgers").resolve():
        raise BenchError(f"imported ccdburgers from {ccd.__file__}, not {src}")
    return ccd, model, tvd_rk3, exact


def _openblas_query(query: str, restype) -> list:
    """Ask every OpenBLAS this process has loaded (numpy and scipy each
    bring their own) one question, e.g. ``get_num_threads``."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    answers = []
    for path in paths:
        lib = ctypes.CDLL(path)
        symbols = [f"{prefix}{query}{suffix}"
                   for prefix in ("scipy_openblas_", "openblas_")
                   for suffix in ("64_", "")]
        fn = next((getattr(lib, name) for name in symbols
                   if hasattr(lib, name)), None)
        if fn is None:
            raise BenchError(f"{path} answers no {query} query")
        fn.argtypes = []
        fn.restype = restype
        value = fn()
        answers.append(value.decode() if isinstance(value, bytes) else value)
    return answers


def check_blas_pin() -> list[int]:
    threads = _openblas_query("get_num_threads", ctypes.c_int)
    if not threads:
        raise BenchError("no OpenBLAS found in the process; cannot verify "
                         "that BLAS runs on one thread")
    if any(t != 1 for t in threads):
        raise BenchError(f"BLAS thread pin did not take effect: {threads}")
    return threads


def machine_record(blas_threads: list[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_query("get_config", ctypes.c_char_p),
        "blas_threads": blas_threads,
    }


def solve(wl: Workload, pkg, tracer: spans.Tracer | None) -> dict:
    """One job from a cold factorization cache, with its timings."""
    ccd, model, _, exact = pkg
    ccd._CACHE.clear()  # as in a user's fresh process
    first_step = []
    step = model.tvd_rk3_step

    def clocked_step(*args, **kwargs):
        if not first_step:
            first_step.append(perf_counter())
        return step(*args, **kwargs)

    model.tvd_rk3_step = clocked_step
    try:
        start = perf_counter()
        spec = wl.spec(exact)
        if tracer is not None:
            spec = spans.traced_spec(tracer, spec)
        result = model.run(spec, wl.resolution, wl.dt)
        marched = perf_counter()
        errors = model.linf_errors(result.final, spec, wl.resolution)
        done = perf_counter()
    finally:
        model.tvd_rk3_step = step
    return {
        "result": result,
        "steps": result.steps,
        "setup_s": first_step[0] - start,
        "march_s": marched - first_step[0],
        "time_to_solution_s": done - start,
        "linf_error": max(errors),
    }


def job(wl: Workload, pkg, ceiling: float, traced: bool) -> dict:
    """Run one job through the correctness gate."""
    ccd, model, tvd_rk3, exact = pkg
    tracer = spans.Tracer() if traced else None
    try:
        with (spans.patched(tracer, ccd, model, tvd_rk3, exact)
              if traced else nullcontext()):
            out = solve(wl, pkg, tracer)
    except Exception as exc:  # any raise fails the job, which is kept
        traceback.print_exc(file=sys.stderr)
        return {"traced": traced, "ok": False,
                "reason": f"{type(exc).__name__}: {exc}"}
    final = out.pop("result").final
    reason = None
    if not all(np.all(np.isfinite(c)) for c in final.components):
        reason = "non-finite field"
    elif out["steps"] != wl.steps:
        reason = f"marched {out['steps']} steps, expected {wl.steps}"
    elif not out["linf_error"] <= ceiling:
        reason = f"linf_error {out['linf_error']:.3e} above ceiling {ceiling:.0e}"
    record = {"traced": traced, "ok": reason is None, "reason": reason, **out}
    if tracer is not None:
        record["layer_times"], record["counts"] = spans.layer_metrics(tracer)
        record["tracer"] = tracer
    return record


def run_jobs(wl: Workload, pkg, ceiling: float, seconds: float,
             trace: bool) -> tuple[dict, list[dict]]:
    """The warm-up job, then jobs until ``seconds`` have passed and at least
    two of each kind are done.  Traced runs alternate untraced and traced."""
    warmup = job(wl, pkg, ceiling, traced=False)
    jobs = []
    start = perf_counter()
    while True:
        untraced = sum(not j["traced"] for j in jobs)
        traced = len(jobs) - untraced
        if (perf_counter() - start >= seconds and untraced >= 2
                and (traced >= 2 or not trace)):
            return warmup, jobs
        jobs.append(job(wl, pkg, ceiling, traced=trace and traced < untraced))


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "p25": q1, "p75": q3}


def end_to_end(jobs: list[dict]) -> dict:
    """Medians over the untraced jobs that ran to the end.  A job that the
    gate failed did the work, so it is timed too; it still fails the run."""
    ok = [j for j in jobs if "march_s" in j and not j["traced"]]
    if not ok:
        raise BenchError("no untraced job ran to the end")
    return {
        "steps_per_s": _quartiles([j["steps"] / j["march_s"] for j in ok]),
        "time_to_solution_s": _quartiles([j["time_to_solution_s"] for j in ok]),
        "setup_s": _quartiles([j["setup_s"] for j in ok]),
        # Deterministic: every job reaches the same error.
        "linf_error": {"n": len(ok), "max": max(j["linf_error"] for j in ok)},
    }


def per_layer(wl: Workload, jobs: list[dict], problems: list[str]) -> dict:
    """Median layer times and the exact counts of the traced jobs."""
    traced = [j for j in jobs if "counts" in j]
    if len(traced) < 2:
        raise BenchError("fewer than two traced jobs ran to the end")
    counts = traced[0]["counts"]
    if any(j["counts"] != counts for j in traced[1:]):
        problems.append("counts differ between traced jobs of the same code")
    if counts["tvd_rk3.steps"] != wl.steps:
        problems.append(f"tvd_rk3.steps is {counts['tvd_rk3.steps']}, not {wl.steps}")
    if counts["model.rhs_calls"] != 3 * counts["tvd_rk3.steps"]:
        problems.append("model.rhs_calls is not 3 x tvd_rk3.steps")
    for wrapped in spans.WRAPPED:
        if wrapped not in wl.unexercised and counts[f"calls.{wrapped}"] == 0:
            problems.append(f"span {wrapped} recorded no calls")
    layers = {key: statistics.median(j["layer_times"][key] for j in traced)
              for key in traced[0]["layer_times"]}
    layers.update(counts)
    untraced = statistics.median(
        j["time_to_solution_s"] for j in jobs
        if "march_s" in j and not j["traced"])
    tts = statistics.median(j["time_to_solution_s"] for j in traced)
    layers["trace.overhead_frac"] = tts / untraced - 1
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        config, ceiling = load_config(args.workload)
        pkg = import_package()
        machine = machine_record(check_blas_pin())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    warmup, jobs = run_jobs(wl, pkg, ceiling, args.seconds, trace)
    attempted = 1 + len(jobs)
    failed = sum(not j["ok"] for j in [warmup, *jobs])
    problems = [f"job failed: {j['reason']}" for j in [warmup, *jobs]
                if not j["ok"]]
    try:
        summary = end_to_end(jobs)
        layers = per_layer(wl, jobs, problems) if trace else {}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    units = {m["name"]: m["unit"] for m in
             config["end_to_end"] + config["per_layer"]}
    values = {key: summary[key]["median"] for key in END_TO_END[:3]}
    values["linf_error"] = summary["linf_error"]["max"]
    values["peak_rss_mib"] = peak_rss_mib
    names = [m["name"] for m in config["per_layer"]] if trace else END_TO_END
    source = layers if trace else values

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracers = [(i, j.pop("tracer")) for i, j in enumerate(jobs) if "tracer" in j]
    if tracers:
        index, tracer = tracers[-1]
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for record in tracer.records(index):
                fh.write(json.dumps(record) + "\n")
    correct = not problems
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {**summary, "peak_rss_mib": peak_rss_mib},
        "per_layer": layers, "machine": machine,
        "warmup": warmup, "jobs": jobs,
    }, indent=1) + "\n")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{args.workload}: {attempted} jobs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.3f}); "
          f"{summary['setup_s']['n']} untraced jobs timed")
    for key in END_TO_END:
        stats = summary.get(key, {})
        spread = (f"  [p25 {stats['p25']:.6g}, p75 {stats['p75']:.6g}]"
                  if "p25" in stats else "")
        print(f"  {key} = {values[key]:.6g} {units[key]}{spread}")
    for key, value in layers.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": source[key], "unit": units[key]}
                    for key in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
