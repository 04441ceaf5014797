"""Command-line front end: single solves, convergence studies, table
reproduction and the solvability audit.

Configuration is a flat ``key=value`` text file holding only keys some
subcommand reads; any command-line option overrides the file.  Exit codes:
0 success, 2 configuration error, 3 instability, 4 audit failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exact import EXAMPLES
from .grid import GridAxis
from .model import InstabilityError, _step_count, linf_errors, run, stability_guard
from .reference_data import TABLE1_ROWS
from . import audit as audit_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_AUDIT = 4


class ConfigError(Exception):
    pass


#: Option keys each subcommand reads from its flags or the config file.
COMMAND_KEYS = {
    "solve": ("example", "m", "dt", "final_time", "inv_re", "variant", "outdir"),
    "converge": ("example", "m_list", "dt", "final_time", "inv_re", "variant", "outdir"),
    "table1": ("outdir", "m", "dt"),
    "audit": ("outdir",),
}
CONFIG_KEYS = frozenset(k for keys in COMMAND_KEYS.values() for k in keys)


def load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def resolve_dt(rule: str, spacing: float, final_time: float) -> float:
    """Turn a dt rule into a concrete step size that divides the final time.

    ``h2`` requests dt = h^2; the step count is rounded up to the next power
    of two so that dt divides the final time exactly and dyadic grid
    refinements quarter the step exactly (keeping observed rates clean even
    when the final time is not a multiple of h^2).
    """
    if rule == "h2":
        if final_time == 0:
            return spacing**2
        target = final_time / spacing**2
        steps = max(1, 2 ** math.ceil(math.log2(target) - 1e-12))
        return final_time / steps
    try:
        dt = float(rule)
    except ValueError as exc:
        raise ConfigError(f"invalid dt rule {rule!r}") from exc
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    return dt


def _spec_from_options(opts) -> tuple:
    example = opts.get("example")
    if example is None:
        raise ConfigError("an example id (1-4) is required")
    example = int(example)
    if example not in EXAMPLES:
        raise ConfigError(f"unknown example {example}; choose 1-4")
    kwargs = {}
    if opts.get("inv_re") is not None:
        kwargs["inv_re"] = float(opts["inv_re"])
    if opts.get("final_time") is not None:
        kwargs["final_time"] = float(opts["final_time"])
    if opts.get("variant") is not None:
        if example != 4:
            raise ConfigError(
                f"a variant applies to example 4 only, not example {example}")
        kwargs["variant"] = opts["variant"]
    return example, EXAMPLES[example](**kwargs)


def _merged_options(args) -> dict:
    opts = load_config(getattr(args, "config", None))
    for key in COMMAND_KEYS[args.command]:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _outdir(opts) -> Path:
    """The output directory, refused before any work when it is, or lies
    under, an existing file that is not a directory."""
    outdir = Path(opts.get("outdir", "."))
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {outdir}: {existing} is not a directory")
    return outdir


def _fmt(x: float) -> str:
    return f"{x:.5e}"


def _manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["package_version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_grid_dump(path: Path, axes, state) -> None:
    """Raw dump: int32 dims, per-axis int64 cell counts and float64
    spacings, float64 time, then each component row-major as float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<i", len(axes)))
        for ax in axes:
            fh.write(struct.pack("<q", ax.n_cells))
        for ax in axes:
            fh.write(struct.pack("<d", ax.spacing))
        fh.write(struct.pack("<d", state.time))
        for comp in state.components:
            np.ascontiguousarray(comp, dtype="<f8").tofile(fh)


def _resolution(opts, dimension) -> list[int]:
    m = opts.get("m")
    if m is None:
        raise ConfigError("a cell count (--m) is required")
    parts = [int(p) for p in str(m).split(",")]
    if len(parts) == 1:
        parts = parts * dimension
    if len(parts) != dimension:
        raise ConfigError(
            f"need 1 or {dimension} cell counts, got {len(parts)}"
        )
    return parts


def cmd_solve(args) -> int:
    opts = _merged_options(args)
    example, spec = _spec_from_options(opts)
    resolution = _resolution(opts, spec.dimension)
    axes = spec.axes(resolution)
    dt = resolve_dt(opts.get("dt", "h2"), min(ax.spacing for ax in axes),
                    spec.final_time)
    outdir = _outdir(opts)

    # say how long the march is before it starts
    n_steps = _step_count(spec.final_time, dt)
    if n_steps:
        print(f"marching {n_steps} steps of dt={dt:.6g} to "
              f"t={spec.final_time:.6g}", file=sys.stderr)
    start = time.perf_counter()
    result = run(spec, resolution, dt)
    wall = time.perf_counter() - start

    errors = None
    if spec.exact_fn is not None:
        errors = linf_errors(result.final, spec, resolution)
    advisory = stability_guard(spec, resolution, dt)

    outdir.mkdir(parents=True, exist_ok=True)
    if args.dump:
        write_grid_dump(outdir / "fields.bin", axes, result.final)
    summary = {
        "example": example,
        "problem": spec.name,
        "resolution": resolution,
        "spacing": [ax.spacing for ax in axes],
        "dt": dt,
        "steps": result.steps,
        "final_time": spec.final_time,
        "inv_re": spec.inv_re,
        "linf_errors": errors,
        "stability_warning": advisory.warn,
        "stability_limit": advisory.limit,
        "wall_time_s": wall,
    }
    _manifest(outdir / "run_manifest.json", summary)
    if errors is not None:
        names = "uvw"[: spec.dimension]
        for name, err in zip(names, errors):
            print(f"e_{name} = {_fmt(err)}")
    if advisory.warn:
        print(f"warning: {advisory.message}", file=sys.stderr)
    print(f"wrote {outdir / 'run_manifest.json'}")
    return EXIT_OK


def cmd_converge(args) -> int:
    opts = _merged_options(args)
    example, spec = _spec_from_options(opts)
    raw = opts.get("m_list")
    if raw is None:
        raise ConfigError("a cell-count list (--m-list) is required")
    m_list = [int(p) for p in str(raw).split(",")]
    if m_list != sorted(m_list) or len(set(m_list)) != len(m_list):
        raise ConfigError("cell counts must be strictly increasing")
    dyadic = all(b == 2 * a for a, b in zip(m_list, m_list[1:]))
    if not dyadic:
        print("notice: cell counts are not dyadic; rates omitted",
              file=sys.stderr)

    outdir = _outdir(opts)
    names = "uvw"[: spec.dimension]

    rows = []
    start = time.perf_counter()
    for m in m_list:
        resolution = [m] * spec.dimension
        h = min(ax.spacing for ax in spec.axes(resolution))
        dt = resolve_dt(opts.get("dt", "h2"), h, spec.final_time)
        result = run(spec, resolution, dt)
        errors = linf_errors(result.final, spec, resolution)
        rows.append({"m": m, "h": h, "dt": dt, "errors": errors})
    wall = time.perf_counter() - start

    header = ["h"]
    for name in names:
        header += [f"e_{name}", f"rate_{name}"]
    csv_path = outdir / f"converge_example{example}.csv"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(rows):
            out = [_fmt(row["h"])]
            for c, name in enumerate(names):
                out.append(_fmt(row["errors"][c]))
                if i > 0 and dyadic and rows[i - 1]["errors"][c] > 0:
                    rate = math.log2(rows[i - 1]["errors"][c] / row["errors"][c])
                    out.append(f"{rate:.2f}")
                else:
                    out.append("")
            writer.writerow(out)
    _manifest(outdir / f"converge_example{example}.json", {
        "example": example,
        "problem": spec.name,
        "dt_rule": opts.get("dt", "h2"),
        "inv_re": spec.inv_re,
        "final_time": spec.final_time,
        "rows": [
            {"m": r["m"], "h": r["h"], "dt": r["dt"],
             "errors": list(r["errors"])}
            for r in rows
        ],
        "wall_time_s": wall,
    })
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_table1(args) -> int:
    opts = _merged_options(args)
    m = int(opts.get("m", 80))
    dt = float(opts.get("dt", 1e-5))
    # the table's abscissas 0.25, 0.5 and 0.75 must be grid nodes
    if m % 4:
        raise ConfigError(
            f"table1 needs m a multiple of 4 so that x = 0.25, 0.5, 0.75 "
            f"are grid nodes, got {m}")
    outdir = _outdir(opts)

    spec = EXAMPLES[1](final_time=1.0)
    times = sorted({t for _, t, *_ in TABLE1_ROWS})
    start = time.perf_counter()
    result = run(spec, [m], dt, snapshot_times=times)
    wall = time.perf_counter() - start

    axis = GridAxis(m, 0.0, 1.0)
    rows = []
    for x, t, *_ in TABLE1_ROWS:
        idx = int(round(x / axis.spacing))
        rows.append({"x": x, "t": t,
                     "ccd_tvd": float(result.snapshots[t].components[0][idx]),
                     "exact": float(spec.exact_fn(np.array([x]), t)[0][0])})
    csv_path = outdir / "table1.csv"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "t", "CCD-TVD", "Exact", "abs_diff",
                         "HC", "RHC", "RPA", "TVCF"])
        for row, (x, t, hc, rhc, rpa, tvcf, *_) in zip(rows, TABLE1_ROWS):
            computed, exact = row["ccd_tvd"], row["exact"]
            writer.writerow([
                f"{x:.2f}", f"{t:.2f}", f"{computed:.6f}", f"{exact:.6f}",
                _fmt(abs(computed - exact)),
                f"{hc:.6f}", f"{rhc:.6f}", f"{rpa:.6f}", f"{tvcf:.6f}",
            ])
    _manifest(outdir / "table1.json", {
        "m": m, "dt": dt, "inv_re": spec.inv_re, "wall_time_s": wall,
        "rows": rows,
    })
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_audit(args) -> int:
    opts = _merged_options(args)
    outdir = _outdir(opts)
    report = audit_mod.audit_report()
    path = outdir / "audit.json"
    outdir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    margins = report["reduction"]["dominance_margins"]
    print(f"dominance margins: min={min(margins):.4g}")
    det = report["determinant"]
    print(f"block determinant: {det['det_block']:.6g}, "
          f"relative gap {det['relative_gap']:.2g}")
    failed = [r for r in report["sweep"] if not r["ok"]]
    print(f"sweep: {len(report['sweep'])} cases, {len(failed)} failures")
    print(f"wrote {path}")
    return EXIT_OK if report["ok"] else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdburgers",
        description="Sixth-order compact-difference Burgers' solver",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", help="output directory (default: .)")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--example", help="benchmark problem id (1-4)")
    problem.add_argument("--dt", help="time step or the rule 'h2'")
    problem.add_argument("--final-time", dest="final_time")
    problem.add_argument("--inv-re", dest="inv_re")
    problem.add_argument("--variant", choices=("corrected", "as-printed"),
                         help="exact-solution variant for example 4")

    solve = sub.add_parser("solve", parents=[common, problem],
                           help="run one problem and report errors")
    solve.add_argument("--m", help="cells per axis, scalar or comma list")
    solve.add_argument("--dump", action="store_true",
                       help="also write a raw binary grid dump")
    solve.set_defaults(fn=cmd_solve)

    conv = sub.add_parser("converge", parents=[common, problem],
                          help="grid-refinement convergence study")
    conv.add_argument("--m-list", dest="m_list",
                      help="comma-separated increasing cell counts")
    conv.set_defaults(fn=cmd_converge)

    tab = sub.add_parser("table1", parents=[common],
                         help="reproduce the 1D comparison table")
    tab.add_argument("--m", help="cells (default 80)")
    tab.add_argument("--dt", help="time step (default 1e-5)")
    tab.set_defaults(fn=cmd_table1)

    aud = sub.add_parser("audit", parents=[common],
                         help="solvability audit (reduction + sweep)")
    aud.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        # OSError: the outputs could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY


if __name__ == "__main__":
    sys.exit(main())
