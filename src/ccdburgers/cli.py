"""Command-line front end: single solves, convergence studies, table
reproduction and the solvability audit.

Configuration is a flat ``key=value`` text file holding only keys some
subcommand reads.  Its values are the subcommand's defaults, so argparse
converts and refuses them as it does a flag, and any flag overrides them.
Every refusal, argparse's own included, is one ``error:`` line.  Exit
codes: 0 success, 2 configuration error (a grid too large to hold
included), 3 instability, 4 audit failure.
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
from .model import InstabilityError, _step_count, linf_errors, run
from .reference_data import TABLE1_ROWS
from . import audit as audit_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_AUDIT = 4


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise ConfigError, for ``main`` to report
    on one line, instead of printing a usage block and exiting."""

    def error(self, message):
        raise ConfigError(message)


#: Option keys each subcommand reads from its flags or the config file.
COMMAND_KEYS = {
    "solve": ("example", "m", "dt", "final_time", "inv_re", "variant", "outdir"),
    "converge": ("example", "m_list", "dt", "final_time", "inv_re", "variant", "outdir"),
    "table1": ("outdir", "m", "dt"),
    "audit": ("outdir",),
}
CONFIG_KEYS = frozenset(k for keys in COMMAND_KEYS.values() for k in keys)


def load_config(path: str) -> dict[str, str]:
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
        try:
            steps = max(1, 2 ** math.ceil(math.log2(target) - 1e-12))
            return final_time / steps
        except OverflowError as exc:
            # an infinite target, or a power of two past the float range
            raise ConfigError(
                f"final_time={final_time!r} is too long for the h2 rule "
                f"(the step count overflows)") from exc
    try:
        dt = float(rule)
    except ValueError:
        raise ConfigError(
            f"--dt {rule!r} is not a step or the rule h2") from None
    if not dt > 0:
        raise ConfigError(f"--dt must be positive, got {dt}")
    return dt


def _cells(value: str) -> list[int]:
    """Cell counts: one, or a comma list."""
    try:
        return [int(p) for p in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a cell count or a comma list of them") from None


def _axes(spec, resolution, flag):
    """The problem's axes at ``resolution``; an axis they cannot make, too
    short or with an unusable spacing, or a grid whose float64 field numpy
    cannot index, is refused naming option ``flag``."""
    try:
        axes = spec.axes(resolution)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    nodes = math.prod(ax.n_nodes for ax in axes)
    limit = np.iinfo(np.intp).max
    if 8 * nodes > limit:
        raise ConfigError(
            f"{flag}: a grid of {nodes} nodes is too large for memory: "
            f"one float64 field of it exceeds {limit} bytes")
    return axes


def _spec(args):
    """The problem that ``--example`` names, with its other options."""
    if args.example is None:
        raise ConfigError("--example is required: a problem id 1-4")
    if args.example not in EXAMPLES:
        raise ConfigError(f"--example {args.example} is unknown; choose 1-4")
    if args.variant is not None and args.example != 4:
        raise ConfigError(
            f"--variant applies to example 4 only, not example {args.example}")
    kwargs = {key: getattr(args, key)
              for key in ("inv_re", "final_time", "variant")
              if getattr(args, key) is not None}
    return EXAMPLES[args.example](**kwargs)


def _outdir(args) -> Path:
    """The output directory, refused before any work when it is, or lies
    under, an existing file that is not a directory."""
    outdir = Path(args.outdir)
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--outdir {outdir}: {existing} is not a directory")
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


def _resolution(args, dimension) -> list[int]:
    parts = args.m
    if parts is None:
        raise ConfigError("--m is required: cells per axis")
    if len(parts) == 1:
        parts = parts * dimension
    if len(parts) != dimension:
        raise ConfigError(
            f"--m needs 1 or {dimension} cell counts, got {len(parts)}"
        )
    return parts


def cmd_solve(args) -> int:
    spec = _spec(args)
    resolution = _resolution(args, spec.dimension)
    axes = _axes(spec, resolution, "--m")
    h = min(ax.spacing for ax in axes)
    dt = resolve_dt(args.dt, h, spec.final_time)
    outdir = _outdir(args)

    # say how long the march is before it starts
    n_steps = _step_count(spec.final_time, dt)
    if n_steps:
        print(f"marching {n_steps} steps of dt={dt:.6g} to "
              f"t={spec.final_time:.6g}", file=sys.stderr)
    start = time.perf_counter()
    result = run(spec, resolution, dt)
    wall = time.perf_counter() - start

    errors = linf_errors(result.final, spec, resolution)
    # heuristic explicit-diffusion advisory; it never blocks a run
    limit = h**2 / (2 * spec.dimension * spec.inv_re)

    outdir.mkdir(parents=True, exist_ok=True)
    if args.dump:
        write_grid_dump(outdir / "fields.bin", axes, result.final)
    summary = {
        "example": args.example,
        "problem": spec.name,
        "resolution": resolution,
        "spacing": [ax.spacing for ax in axes],
        "dt": dt,
        "steps": result.steps,
        "final_time": spec.final_time,
        "inv_re": spec.inv_re,
        "linf_errors": errors,
        "stability_warning": dt > limit,
        "stability_limit": limit,
        "wall_time_s": wall,
    }
    _manifest(outdir / "run_manifest.json", summary)
    for name, err in zip("uvw", errors):
        print(f"e_{name} = {_fmt(err)}")
    if dt > limit:
        print(f"warning: dt={dt:.4g} exceeds heuristic diffusive limit "
              f"{limit:.4g}", file=sys.stderr)
    print(f"wrote {outdir / 'run_manifest.json'}")
    return EXIT_OK


def cmd_converge(args) -> int:
    spec = _spec(args)
    m_list = args.m_list
    if m_list is None:
        raise ConfigError("--m-list is required: increasing cell counts")
    if m_list != sorted(m_list) or len(set(m_list)) != len(m_list):
        raise ConfigError("--m-list must be strictly increasing")
    dyadic = all(b == 2 * a for a, b in zip(m_list, m_list[1:]))
    if not dyadic:
        print("notice: cell counts are not dyadic; rates omitted",
              file=sys.stderr)

    outdir = _outdir(args)
    names = "uvw"[: spec.dimension]

    # every level's step is refused, if at all, before any level runs
    levels = []
    for m in m_list:
        resolution = [m] * spec.dimension
        h = min(ax.spacing for ax in _axes(spec, resolution, "--m-list"))
        dt = resolve_dt(args.dt, h, spec.final_time)
        _step_count(spec.final_time, dt)
        levels.append((m, resolution, h, dt))

    rows = []
    start = time.perf_counter()
    for m, resolution, h, dt in levels:
        result = run(spec, resolution, dt)
        errors = linf_errors(result.final, spec, resolution)
        rows.append({"m": m, "h": h, "dt": dt, "errors": errors})
    wall = time.perf_counter() - start

    header = ["h"]
    for name in names:
        header += [f"e_{name}", f"rate_{name}"]
    csv_path = outdir / f"converge_example{args.example}.csv"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(rows):
            out = [_fmt(row["h"])]
            for c, name in enumerate(names):
                cur = row["errors"][c]
                out.append(_fmt(cur))
                prev = rows[i - 1]["errors"][c] if i > 0 and dyadic else 0.0
                out.append(f"{math.log2(prev / cur):.2f}"
                           if prev > 0 and cur > 0 else "")
            writer.writerow(out)
    _manifest(outdir / f"converge_example{args.example}.json", {
        "example": args.example,
        "problem": spec.name,
        "dt_rule": args.dt,
        "inv_re": spec.inv_re,
        "final_time": spec.final_time,
        "rows": rows,
        "wall_time_s": wall,
    })
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_table1(args) -> int:
    m, dt = args.m, args.dt
    # the table's abscissas 0.25, 0.5 and 0.75 must be grid nodes
    if m % 4:
        raise ConfigError(
            f"--m must be a multiple of 4 for table1, so that x = 0.25, 0.5 "
            f"and 0.75 are grid nodes, got {m}")
    spec = EXAMPLES[1](final_time=1.0)
    axis, = _axes(spec, [m], "--m")
    outdir = _outdir(args)

    times = sorted({t for _, t, *_ in TABLE1_ROWS})
    start = time.perf_counter()
    result = run(spec, [m], dt, snapshot_times=times)
    wall = time.perf_counter() - start

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
    outdir = _outdir(args)
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
    parser = _Parser(
        prog="ccdburgers",
        description="Sixth-order compact-difference Burgers' solver",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=".",
                        help="output directory (default: .)")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--example", type=int,
                         help="benchmark problem id (1-4)")
    problem.add_argument("--dt", default="h2",
                         help="time step or the rule 'h2' (default)")
    problem.add_argument("--final-time", dest="final_time", type=float)
    problem.add_argument("--inv-re", dest="inv_re", type=float)
    problem.add_argument("--variant", choices=("corrected", "as-printed"),
                         help="exact-solution variant for example 4")

    solve = sub.add_parser("solve", parents=[common, problem],
                           help="run one problem and report errors")
    solve.add_argument("--m", type=_cells,
                       help="cells per axis, scalar or comma list")
    solve.add_argument("--dump", action="store_true",
                       help="also write a raw binary grid dump")
    solve.set_defaults(fn=cmd_solve, parser=solve)

    conv = sub.add_parser("converge", parents=[common, problem],
                          help="grid-refinement convergence study")
    conv.add_argument("--m-list", dest="m_list", type=_cells,
                      help="comma-separated increasing cell counts")
    conv.set_defaults(fn=cmd_converge, parser=conv)

    tab = sub.add_parser("table1", parents=[common],
                         help="reproduce the 1D comparison table")
    tab.add_argument("--m", type=int, default=80, help="cells (default 80)")
    tab.add_argument("--dt", type=float, default=1e-5,
                     help="time step (default 1e-5)")
    tab.set_defaults(fn=cmd_table1, parser=tab)

    aud = sub.add_parser("audit", parents=[common],
                         help="solvability audit (reduction + sweep)")
    aud.set_defaults(fn=cmd_audit, parser=aud)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's values become the command's defaults, which
            # argparse converts as it does a flag's; a flag still wins
            values = load_config(args.config)
            args.parser.set_defaults(**{key: values[key] for key in
                                        COMMAND_KEYS[args.command]
                                        if key in values})
            args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        # OSError: the outputs could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a grid too large to hold; run allocates its fields before the
        # march, and numpy's message names the array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY


if __name__ == "__main__":
    sys.exit(main())
