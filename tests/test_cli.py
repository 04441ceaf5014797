"""Command-line harness: subcommands, config handling, exit codes, artifacts."""

import argparse
import csv
import json
import math
import struct

import numpy as np
import pytest

from ccdburgers import cli


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
    from ccdburgers.tvd_rk3 import FieldSet

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


def test_solve_missing_example_is_config_error(tmp_path):
    assert cli.main(["solve", "--m", "8", "--outdir", str(tmp_path)]) == 2


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
