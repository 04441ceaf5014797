"""Command-line harness: subcommands, config handling, exit codes, artifacts."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdburgers import cli, model


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- helpers ----------------------------------------------------------------

def test_resolve_dt_power_of_two_rule():
    # T/h^2 = 6.4 rounds up to 8 steps so dt divides T exactly
    dt = cli.resolve_dt("h2", 0.125, 0.1)
    assert dt == 0.1 / 8
    # already a power of two: dt = h^2 exactly
    assert cli.resolve_dt("h2", 0.0625, 1.0) == 0.0625**2


def test_resolve_dt_explicit_and_errors():
    assert cli.resolve_dt("0.01", 0.1, 1.0) == 0.01
    with pytest.raises(cli.ConfigError):
        cli.resolve_dt("fast", 0.1, 1.0)
    with pytest.raises(cli.ConfigError):
        cli.resolve_dt("-0.5", 0.1, 1.0)


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study\nexample = 3\nm=8  # cells\n\ndt = 0.00125\n")
    assert cli.load_config(str(cfg)) == {"example": "3", "m": "8", "dt": "0.00125"}
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(bad))
    # a misspelt key, and keys of options the CLI does not have: a per-stage
    # boundary mode and a derive expression
    for line in ("final_tme = 0.05", "boundary_mode = stage", "expr = x"):
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text(f"example = 3\n{line}\n")
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.load_config(str(unknown))
        rc = cli.main(["--config", str(unknown), "solve", "--m", "8",
                       "--outdir", str(tmp_path)])
        assert rc == 2


@pytest.mark.parametrize("argv, config", [
    (["solve", "--bogus"], None),
    (["solve", "--example", "2", "--m", "8", "--variant", "nope"], None),
    (["simulate", "--example", "2"], None),
    (["table1", "--m", "8.5"], None),
    (["solve", "--m", "8"], "example = x\n"),
    (["solve", "--example", "2"], "m = 8,\n"),
], ids=["unknown-flag", "bad-choice", "unknown-command", "table1-m",
        "config-example", "config-m"])
def test_parser_refusals_are_one_line(tmp_path, capsys, argv, config):
    # argparse's refusals, of a flag or of a config value, come back from
    # main as exit 2 and one error line, with no usage block and no output
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    outdir = tmp_path / "out"
    rc = cli.main([*argv, "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert "usage:" not in captured.err and "Traceback" not in captured.err
    assert not outdir.exists()


def test_subcommand_flags_match_config_keys():
    # every flag a subcommand reads is a config key and every config key is
    # a flag; --dump is a switch with no config-file form
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.COMMAND_KEYS)
    for name, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions} - {"help", "dump"}
        assert dests == set(cli.COMMAND_KEYS[name]), name


def test_grid_dump_roundtrip(tmp_path):
    from ccdburgers.grid import GridAxis
    from ccdburgers.model import FieldSet

    axes = (GridAxis(4), GridAxis(8, 0.0, 0.5))
    comp = np.arange(45, dtype=float).reshape(5, 9)
    path = tmp_path / "fields.bin"
    cli.write_grid_dump(path, axes, FieldSet(components=(comp,), time=0.25))
    raw = path.read_bytes()
    ndim = struct.unpack_from("<i", raw)[0]
    assert ndim == 2
    cells = struct.unpack_from("<2q", raw, 4)
    assert cells == (4, 8)
    spacings = struct.unpack_from("<2d", raw, 20)
    assert spacings == (0.25, 0.0625)
    t = struct.unpack_from("<d", raw, 36)[0]
    assert t == 0.25
    data = np.frombuffer(raw, dtype="<f8", offset=44).reshape(5, 9)
    np.testing.assert_array_equal(data, comp)


# --- solve ------------------------------------------------------------------

def test_solve_example3(tmp_path):
    rc = cli.main([
        "solve", "--example", "3", "--m", "8", "--dt", "0.00125",
        "--outdir", str(tmp_path), "--dump",
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["example"] == 3
    assert manifest["resolution"] == [8, 8]
    assert manifest["steps"] == 80
    assert max(manifest["linf_errors"]) < 1e-8
    assert (tmp_path / "fields.bin").exists()


def test_solve_example1_short_run_reports_the_solver_error(tmp_path, capsys):
    # at t = 0.001 the reported error is the solver's: within 10% of the
    # error against the series with 199 terms from scipy's Bessel function
    from scipy.special import ive

    from ccdburgers.exact import FourierCoefficients, example1_exact

    rc = cli.main([
        "solve", "--example", "1", "--inv-re", "0.03", "--m", "80",
        "--dt", "1e-5", "--final-time", "0.001", "--outdir", str(tmp_path),
        "--dump",
    ])
    assert rc == 0
    e_u = float(re.search(r"e_u = (\S+)", capsys.readouterr().out).group(1))
    # past the 1D header: int32 dimension, int64 cells, float64 spacing, time
    u = np.frombuffer((tmp_path / "fields.bin").read_bytes(), "<f8", offset=28)
    s = 1 / (2 * np.pi * 0.03)
    series = FourierCoefficients(ive(0, s), 2 * ive(np.arange(1, 200), s), 0.03)
    ref = np.max(np.abs(u - example1_exact(np.linspace(0, 1, 81), 0.001, series)))
    assert e_u == pytest.approx(ref, rel=0.1)


def test_solve_zero_final_time(tmp_path):
    rc = cli.main([
        "solve", "--example", "3", "--m", "8", "--final-time", "0",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["steps"] == 0
    assert max(manifest["linf_errors"]) == 0.0


def test_solve_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example=3\nm=8\ndt=0.0025\n")
    rc = cli.main([
        "--config", str(cfg), "solve", "--dt", "0.00125",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["dt"] == 0.00125  # command line beats config file


def test_solve_missing_example_is_config_error(tmp_path, capsys):
    # so are a missing cell count or cell-count list, and a cell count per
    # axis that does not match the dimension
    for argv in (["solve", "--m", "8"],
                 ["solve", "--example", "2"],
                 ["converge", "--example", "3"],
                 ["solve", "--example", "2", "--m", "8,8,8"]):
        outdir = tmp_path / "refused"
        assert cli.main([*argv, "--outdir", str(outdir)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert not outdir.exists()


def test_solve_unknown_example_is_config_error(tmp_path):
    rc = cli.main(["solve", "--example", "9", "--m", "8", "--outdir", str(tmp_path)])
    assert rc == 2


def test_solve_bad_dt_is_config_error(tmp_path):
    rc = cli.main([
        "solve", "--example", "3", "--m", "8", "--dt", "0.03",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2  # 0.03 does not divide the final time 0.1
    # a zero step, an infinite final time and an infinite viscosity are
    # configuration errors, refused before the output directory is made
    for i, argv in enumerate((
        ["table1", "--m", "8", "--dt", "0"],
        ["converge", "--example", "3", "--m-list", "8,16", "--dt", "0"],
        ["solve", "--example", "3", "--m", "8", "--final-time", "inf"],
        ["converge", "--example", "3", "--m-list", "8", "--final-time", "inf"],
        ["solve", "--example", "2", "--m", "8", "--dt", "1e-3",
         "--final-time", "1e-3", "--inv-re", "inf"],
    )):
        outdir = tmp_path / str(i)
        assert cli.main([*argv, "--outdir", str(outdir)]) == 2, argv
        assert not outdir.exists(), argv


def test_a_step_too_small_to_count_is_config_error(tmp_path, capsys):
    # the final time over dt overflows to infinity: a one-line error
    for argv in (["solve", "--example", "3", "--m", "8", "--dt", "1e-320"],
                 ["table1", "--m", "8", "--dt", "1e-320"]):
        outdir = tmp_path / argv[0]
        rc = cli.main([*argv, "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "overflows" in err
        assert not outdir.exists()


def test_h2_rule_on_a_long_final_time_is_config_error(
        tmp_path, capsys, monkeypatch):
    # T/h^2 overflows to infinity (1e307), or its next power of two, 2**1024,
    # is past the float range (2.6e306): a one-line error.  converge refuses
    # the m = 8 level before the m = 4 one, 2**1022 steps at 2.6e306, runs.
    def run(*args):
        raise AssertionError("a level ran before the refusal")

    monkeypatch.setattr(cli, "run", run)
    for final_time in ("1e307", "2.6e306"):
        for argv in (["solve", "--example", "2", "--m", "8"],
                     ["converge", "--example", "2", "--m-list", "8,16"],
                     ["converge", "--example", "2", "--m-list", "4,8"]):
            outdir = tmp_path / argv[0]
            rc = cli.main([*argv, "--final-time", final_time,
                           "--outdir", str(outdir)])
            err = capsys.readouterr().err
            assert rc == 2, (argv, final_time)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err and "overflows" in err
            assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    # 1D: 4e8 + 1 nodes, 3.0 GiB per field
    ["--example", "1", "--m", "400000000", "--dt", "1e-3",
     "--final-time", "1e-3"],
    # 2D with 1e9 nodes per axis, whose 8e18-byte field numpy can index
    ["--example", "3", "--m", "999999999", "--dt", "0.00125"],
], ids=["1d", "2d"])
def test_a_grid_too_large_to_hold_is_config_error(tmp_path, argv):
    # in a child process whose address space is capped at 2 GiB, so the
    # allocation fails instead of taking the machine's memory: exit 2,
    # one error line that names the array, no traceback, no output
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from ccdburgers import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = Path(cli.__file__).resolve().parents[1]
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", *argv, "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src),
             "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr
    assert errors[0].startswith("error: out of memory: Unable to allocate")
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--example", "1", "--m", "1234567890123456789", "--dt", "0.5",
     "--final-time", "1"],
    ["solve", "--example", "1", "--m", "99999999999999999999", "--dt", "0.5",
     "--final-time", "1"],
    ["table1", "--m", "1234567890123456788"],
    ["converge", "--example", "1", "--m-list", "8,1234567890123456789",
     "--dt", "0.5", "--final-time", "1"],
    # 2D with 1e11 nodes per axis
    ["solve", "--example", "3", "--m", "99999999999", "--dt", "0.00125"],
], ids=["1d", "past-int64", "table1", "converge", "2d"])
def test_a_grid_too_large_to_index_names_its_option(tmp_path, capsys, argv):
    # a grid whose float64 field has more bytes than numpy can index is
    # refused before anything is allocated or marched: exit 2, one error
    # line naming the option, no traceback, no output
    def march(*args, **kwargs):
        raise AssertionError("marched")

    outdir = tmp_path / "out"
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "run", march):
            rc = cli.main([*argv, "--outdir", str(outdir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert rc == 2 and len(errors) == 1 and "Traceback" not in err
    flag = argv[argv.index("--m-list" if "--m-list" in argv else "--m")]
    assert errors[0].startswith(f"error: {flag}: ") and "memory" in errors[0]
    assert peak < 1 << 20
    assert not outdir.exists()


def test_variant_is_refused_for_examples_1_to_3(tmp_path, capsys):
    # by flag or config key; example 4 takes it, and the manifest names it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = as-printed\n")
    for argv in (
        ["solve", "--example", "2", "--m", "8", "--variant", "as-printed"],
        ["--config", str(cfg), "solve", "--example", "1", "--m", "8"],
        ["converge", "--example", "3", "--m-list", "8",
         "--variant", "corrected"],
    ):
        outdir = tmp_path / "refused"
        assert cli.main([*argv, "--outdir", str(outdir)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "example 4 only" in err
        assert not outdir.exists()
    rc = cli.main(["solve", "--example", "4", "--m", "4", "--dt", "0.01",
                   "--final-time", "0.02", "--variant", "as-printed",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["problem"] == "example4[as-printed]"


def test_outdir_that_is_not_a_directory_refused(tmp_path, monkeypatch, capsys):
    # a regular file as the output directory, or as its parent, is refused
    # with a one-line error before any solve starts, and left as it was
    def no_run(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(cli, "run", no_run)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    for argv in (["solve", "--example", "3", "--m", "8", "--dt", "0.00125"],
                 ["table1", "--m", "8", "--dt", "0.00125"]):
        for outdir in (blocker, blocker / "sub"):
            rc = cli.main([*argv, "--outdir", str(outdir)])
            err = capsys.readouterr().err
            assert rc == 2, (argv, outdir)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert blocker.read_text() == "keep\n"


def test_output_write_failure_is_one_line_error(tmp_path, monkeypatch, capsys):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli.Path, "mkdir", refuse)
    rc = cli.main(["solve", "--example", "3", "--m", "8", "--final-time", "0",
                   "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Permission denied" in err


def test_solve_past_example3_singularity_is_config_error(tmp_path, monkeypatch,
                                                        capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(cli, "run", no_run)
    outdir = tmp_path / "out"
    rc = cli.main(["solve", "--example", "3", "--m", "8", "--final-time", "0.8",
                   "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "singular" in err
    assert not (outdir / "run_manifest.json").exists()


def test_solve_prints_step_count_before_marching(tmp_path, monkeypatch,
                                                capsys):
    # 1e10 steps: the line comes before the march, which is stubbed out
    class Marching(Exception):
        pass

    def no_run(*args, **kwargs):
        raise Marching

    monkeypatch.setattr(cli, "run", no_run)
    with pytest.raises(Marching):
        cli.main(["solve", "--example", "1", "--m", "8", "--dt", "1e-300",
                  "--final-time", "1e-290", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert err == "marching 10000000000 steps of dt=1e-300 to t=1e-290\n"


#: (options, dt, final time, the heuristic limit h^2/(2*d*inv_re), the
#: warning line or None) for the advisory in 1, 2 and 3 dimensions
ADVISORY_CASES = [
    # example 2 on 8 x 8 cells: the limit 0.0390625 lies between the steps
    (["--example", "2", "--m", "8"], 0.025, 0.05, 0.125**2 / (2 * 2 * 0.1),
     None),
    (["--example", "2", "--m", "8"], 0.05, 0.05, 0.125**2 / (2 * 2 * 0.1),
     "warning: dt=0.05 exceeds heuristic diffusive limit 0.03906"),
    (["--example", "1", "--m", "80", "--inv-re", "1"], 1e-5, 1e-5,
     0.0125**2 / 2, None),
    (["--example", "2", "--m", "16"], 1 / 256, 1 / 128,
     (1 / 16)**2 / (2 * 2 * 0.1), None),
    (["--example", "4", "--m", "10", "--inv-re", "1"], 0.01, 0.01, 0.01 / 6,
     "warning: dt=0.01 exceeds heuristic diffusive limit 0.001667"),
]


@pytest.mark.parametrize(
    "options, dt, final_time, limit, warning", ADVISORY_CASES,
    ids=[f"{dt}-{warning is not None}" for _, dt, _, _, warning in ADVISORY_CASES])
def test_solve_reports_the_stability_advisory(tmp_path, capsys, options, dt,
                                              final_time, limit, warning):
    rc = cli.main(["solve", *options, "--dt", str(dt), "--final-time",
                   str(final_time), "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["stability_limit"] == pytest.approx(limit)
    assert manifest["stability_warning"] is (warning is not None)
    err = capsys.readouterr().err
    steps = round(final_time / dt)
    expected = f"marching {steps} steps of dt={dt:.6g} to t={final_time:.6g}\n"
    if warning:
        expected += warning + "\n"
    assert err == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_instability_exit_code(tmp_path):
    rc = cli.main([
        "solve", "--example", "2", "--m", "16", "--dt", "0.1",
        "--outdir", str(tmp_path),
    ])
    assert rc == 3


# --- converge ---------------------------------------------------------------

def test_converge_example3_rates(tmp_path):
    rc = cli.main([
        "converge", "--example", "3", "--m-list", "4,8,16",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "converge_example3.csv")
    assert rows[0] == ["h", "e_u", "rate_u", "e_v", "rate_v"]
    assert len(rows) == 4
    assert rows[1][2] == ""  # no rate on the first refinement row
    # the h2 rule quarters dt on each dyadic refinement, so the spatially
    # exact profile shows the pure third-order-in-time rate: log2(4^3) = 6
    assert float(rows[2][2]) == pytest.approx(6.0, abs=0.5)
    assert float(rows[3][2]) == pytest.approx(6.0, abs=0.5)
    manifest = json.loads((tmp_path / "converge_example3.json").read_text())
    assert [r["m"] for r in manifest["rows"]] == [4, 8, 16]
    # emitted rate equals log2 of the adjacent error ratio
    e0 = manifest["rows"][0]["errors"][0]
    e1 = manifest["rows"][1]["errors"][0]
    assert float(rows[2][2]) == pytest.approx(math.log2(e0 / e1), abs=0.005)


def test_converge_non_dyadic_omits_rates(tmp_path, capsys):
    rc = cli.main([
        "converge", "--example", "3", "--m-list", "4,6",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    assert "rates omitted" in capsys.readouterr().err
    rows = _read_csv(tmp_path / "converge_example3.csv")
    assert rows[1][2] == "" and rows[2][2] == ""


def test_converge_leaves_the_rate_empty_at_a_zero_error(tmp_path):
    # a level that hits the exact solution has no rate: log2(prev / 0) would
    # divide by zero, so the cell stays empty as on the first row
    errors = iter([(1e-10, 1e-10), (0.0, 1e-11)])
    with mock.patch.object(cli, "linf_errors", lambda *a: next(errors)):
        rc = cli.main([
            "converge", "--example", "3", "--m-list", "4,8",
            "--outdir", str(tmp_path),
        ])
    assert rc == 0
    rows = _read_csv(tmp_path / "converge_example3.csv")
    assert rows[2][2] == "" and rows[2][4] == "3.32"
    manifest = json.loads((tmp_path / "converge_example3.json").read_text())
    assert [r["errors"] for r in manifest["rows"]] == [[1e-10, 1e-10],
                                                       [0.0, 1e-11]]


def test_converge_requires_increasing_list(tmp_path):
    rc = cli.main([
        "converge", "--example", "3", "--m-list", "8,4",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2


def test_converge_outputs_are_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = cli.main([
            "converge", "--example", "3", "--m-list", "4,8",
            "--outdir", str(tmp_path / sub),
        ])
        assert rc == 0
    assert (tmp_path / "a" / "converge_example3.csv").read_bytes() == \
        (tmp_path / "b" / "converge_example3.csv").read_bytes()


# --- table1 -----------------------------------------------------------------

def test_table1_structure_on_coarse_grid(tmp_path, monkeypatch):
    # coarse, fast configuration: exercises the pipeline, not the accuracy
    from ccdburgers import exact

    calls = []
    oracle = exact.example1_exact

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(exact, "example1_exact", counted)
    rc = cli.main([
        "table1", "--m", "20", "--dt", "0.00125", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "table1.csv")
    assert rows[0][:5] == ["x", "t", "CCD-TVD", "Exact", "abs_diff"]
    assert len(rows) == 13
    for row in rows[1:]:
        assert abs(float(row[2]) - float(row[3])) < 5e-3
    # one oracle evaluation per table point feeds both the CSV and the manifest
    assert len(calls) == 12
    manifest = json.loads((tmp_path / "table1.json").read_text())
    for row, entry in zip(rows[1:], manifest["rows"]):
        assert row[3] == f"{entry['exact']:.6f}"
    # x = 0.25 is not a node of a 7-cell grid: refused, not rounded
    bad = tmp_path / "m7"
    rc = cli.main(["table1", "--m", "7", "--dt", "1e-3", "--outdir", str(bad)])
    assert rc == 2
    assert not (bad / "table1.csv").exists()


# --- audit ------------------------------------------------------------------

def test_audit_reports_and_exit_code(tmp_path):
    rc = cli.main(["audit", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "audit.json").read_text())
    assert report["ok"]
    assert min(report["reduction"]["dominance_margins"]) > 0
    assert len(report["sweep"]) == (128 - 5 + 1) * 3  # nodes x spacings
    assert report["determinant"]["ok"]
    # the report's schema
    assert set(report["determinant"]) == {
        "commutator_norm", "commutes", "det_block", "det_reduced",
        "relative_gap", "ok"}
    assert all(set(r) == {"m", "h", "rcond", "solve_residual", "ok"}
               for r in report["sweep"])
    assert set(report["reduction"]) == {"matrix", "dominance_margins", "ok"}


def test_audit_non_commuting_blocks_exit_code(tmp_path, monkeypatch):
    # a block pair that breaks the determinant lemma's precondition is an
    # audit failure, not a configuration error
    from ccdburgers import audit as audit_mod

    check = audit_mod.block_determinant_identity_check

    def skewed(A, B, C, D):
        C = C.copy()
        C[0] *= 2
        return check(A, B, C, D)

    monkeypatch.setattr(audit_mod, "block_determinant_identity_check", skewed)
    assert cli.main(["audit", "--outdir", str(tmp_path)]) == 4
    report = json.loads((tmp_path / "audit.json").read_text())
    assert not report["determinant"]["commutes"]
    assert not report["ok"]


def test_audit_failure_exit_code(tmp_path, monkeypatch):
    failing = {
        "reduction": {"matrix": [], "dominance_margins": [-1.0], "ok": False},
        "determinant": {"det_block": 1.0, "relative_gap": 0.0, "ok": True},
        "sweep": [],
        "assembly_consistent": True,
        "ok": False,
    }
    monkeypatch.setattr(cli.audit_mod, "audit_report", lambda: failing)
    assert cli.main(["audit", "--outdir", str(tmp_path)]) == 4


# --- the input contract, as a property ---------------------------------------

class _OverBudget(Exception):
    """A march past the property test's work budget, which it skips."""


def _budget_run(spec, resolution, dt, **kwargs):
    # the real march, on at most 10^4 node-steps: the huge-grid refusals run
    # under an address-space limit in test_a_grid_too_large_to_hold_...
    nodes = math.prod(ax.n_nodes for ax in spec.axes(resolution))
    if nodes * max(model._step_count(spec.final_time, dt), 1) > 10_000:
        raise _OverBudget
    return model.run(spec, resolution, dt, **kwargs)


def _values(plausible, *adversarial):
    # a plausible value three times in four, so that inputs reach the march
    # as well as the refusals
    choices = [st.sampled_from(plausible)] * 3 + [st.one_of(*adversarial)]
    return st.sampled_from(choices).flatmap(lambda values: values)


_WORDS = st.sampled_from(["", " ", "x", "8.5", "1e3", "0x10", "nan", "-0"])
_INTS = st.one_of(st.integers(-2, 17), st.integers(-10**20, 10**20)).map(str)
_CELLS = _values(
    ["4", "8", "12", "4,8", "8,4", "4,4,4", "4,8,16"], _INTS, _WORDS,
    st.lists(st.integers(-1, 17).map(str), max_size=4).map(",".join))
_FLOATS = st.one_of(
    st.sampled_from(["0", "-0", "5e-324", "1e-320", "2.6e306", "1e307",
                     "1e308", "inf", "-inf", "nan", "-1"]),
    st.floats().map(repr), _WORDS)
_OPTIONS = {
    "example": _values(list("1234"), st.sampled_from("05"), _INTS, _WORDS),
    "m": _CELLS,
    "m_list": _CELLS,
    "dt": _values(["h2", "0.01", "0.0125", "0.05", "0.25"], _FLOATS),
    "final_time": _values(["0", "0.01", "0.05", "0.1", "1"], _FLOATS),
    "inv_re": _values(["0.1", "1", "0.02"], _FLOATS),
    "variant": st.sampled_from(["corrected", "as-printed", "printed"]),
}


# what a refusal (exit 2) names: an option, by its flag or its config key,
# or the config file
_NAMED = re.compile(r"--(example|m|m-list|dt|final-time|inv-re|variant|outdir)"
                    r"\b|\b(example|dt|final_time|inv_re|variant)\b|run\.cfg")


@st.composite
def _invocations(draw):
    """(argv without the output directory, config file text or None)."""
    command = draw(st.sampled_from(["solve", "converge", "table1"]))
    flags, lines = [], []
    for key, values in _OPTIONS.items():
        # the config file may also hold keys this command does not read; a
        # variant refuses examples 1-3, so it comes half as often
        read = key in cli.COMMAND_KEYS[command] and (
            key != "variant" or draw(st.booleans()))
        where = draw(st.sampled_from(
            ["flag", "flag", "config", "config", None] if read
            else ["config", None]))
        if where == "flag":
            flags.append(f"--{key.replace('_', '-')}={draw(values)}")
        elif where == "config":
            lines.append(f"{key} = {draw(values)}\n")
    if command == "solve" and draw(st.booleans()):
        flags.append("--dump")
    lines.append(draw(st.sampled_from(["", "", "# note\n", "bogus = 1\n",
                                       "no equals sign\n"])))
    config = "".join(lines)
    if not config:
        return [command, *flags], None
    return ["--config", "run.cfg", command, *flags], config


@settings(max_examples=200, deadline=None)
@given(_invocations())
@example((["solve", "--example=3", "--m=8", "--dt=1e-320"], None))
@example((["solve", "--example=2", "--m=8", "--final-time=1e307"], None))
@example((["solve", "--example=2", "--m=8", "--variant=as-printed"], None))
@example((["--config", "run.cfg", "solve", "--example=1", "--m=8"],
          "variant = as-printed\n"))
@example((["converge", "--example=2", "--m-list=4,8",
           "--final-time=2.6e306"], None))
@example((["solve", "--example=1", "--m=0", "--inv-re=2.6e306"], None))
@example((["converge", "--example=3", "--m-list=8,16", "--dt=1e-315",
           "--final-time=1e-315"], None))
def test_every_input_exits_with_a_documented_code(invocation):
    # exit 0, 2, 3 or 4 and no traceback, whatever the options; a refused
    # input (exit 2) leaves no output directory
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            (Path(tmp) / "run.cfg").write_text(config)
            argv = [os.path.join(tmp, a) if a == "run.cfg" else a
                    for a in argv]
        outdir = Path(tmp) / "out"
        err = io.StringIO()
        with mock.patch.object(cli, "run", _budget_run), \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([*argv, f"--outdir={outdir}"])
            except _OverBudget:
                # every check before the march passed
                code = None
        assert code in (None, 0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code in (None, 2):
            assert not outdir.exists()
        if code == 2:
            refusal = err.getvalue().splitlines()[-1]
            assert "error: " in refusal and _NAMED.search(refusal), refusal
