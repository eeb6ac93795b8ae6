"""Command line front end: evaluate grids, find loci, trace flows, verify.

Output is deterministic: floats print through %.17g (lossless for binary64
and locale independent), JSON keys keep insertion order, and randomized
verification takes an explicit --seed.  Non-finite floats become null in
JSON and literal nan/inf tokens in CSV.

Exit codes: 0 success; 1 a verification check failed or the requested
computation has no result (e.g. flow seeded on the characteristic locus);
2 bad usage (including a size option past its limit), unknown surface, a
malformed surface file or one a builder rejects (any SpecError), a point
outside the domain, or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys

import numpy as np

from .curvature import mean_curvature_batch
from .errors import HeisflowError, OutOfDomain, SpecError, UnknownName
from .flow import integrate_flow
from .horizontal import EPS_CHAR, horizontal_normal_batch, induced_form_batch
from .locus import characteristic_locus
from .patch import blocks, eval_jets, grid_points
from .builders import resolve_surface
from .verify import DEFAULT_SEED, SUITES, run_suite

__all__ = ["main"]

_GRID_RE = re.compile(r"^(\d+)x(\d+)$")

# Upper limits of the size options.  A larger grid or step count runs for
# minutes and holds its whole output in memory; past about 60 bisection
# steps the edge is below one ulp and further steps change nothing.
MAX_GRID_AXIS = 1000
MAX_REFINE = 100
MAX_STEPS = 100_000


def _parse_grid(text: str) -> tuple[int, int]:
    m = _GRID_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like 25x25, got {text!r}")
    nu, nv = int(m.group(1)), int(m.group(2))
    if not (1 <= nu <= MAX_GRID_AXIS and 1 <= nv <= MAX_GRID_AXIS):
        raise argparse.ArgumentTypeError(
            f"grid axes must be between 1 and {MAX_GRID_AXIS}, got {text}"
        )
    return nu, nv


def _int_between(lo: int, hi: int):
    """argparse type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}, got {n}")
        return n

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _fmt(x: float) -> str:
    return "%.17g" % x


def _json_dump(value, out, indent=0):
    """Minimal JSON writer with %.17g floats and null for non-finite."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.write(f'{pad}  "{k}": ')
            _json_dump(v, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in value):
            out.write("[" + ", ".join(_json_atom(v) for v in value) + "]")
            return
        out.write("[\n")
        for i, v in enumerate(value):
            out.write(pad + "  ")
            _json_dump(v, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(value, np.ndarray):  # a table, one line per row
        if not len(value):
            out.write("[]")
            return
        row = pad + "  [" + ", ".join(["%s"] * value.shape[1]) + "]"
        out.write("[\n")
        _table(value, _json_atom, row, ",\n", out)
        out.write("\n" + pad + "]")
    else:
        out.write(_json_atom(value))


def _json_atom(value) -> str:
    if isinstance(value, float):  # first: a table calls this once per distinct value
        return _fmt(value) if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _table(table: np.ndarray, atom, row: str, sep: str, out) -> None:
    """Write an (N, k) float table's rows to ``out`` through ``row`` (a %s
    per column), joined by ``sep``, one block at a time.  Each block formats
    its distinct values, told apart by bits (-0.0 == 0.0 but prints as -0,
    and NaN never equals itself), in one %.17g pass, which is ``atom`` of
    every finite float; ``atom`` itself runs only on the non-finite ones."""
    for sl in blocks(len(table)):
        block = table[sl]
        bits, inv = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        values = bits.view(np.float64)
        floats = values.tolist()
        text = ("%.17g\0" * len(floats) % tuple(floats)).split("\0")
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            text[i] = atom(floats[i])
        text = np.array(text, dtype=object)
        if sl.start:
            out.write(sep)
        out.write(sep.join([row] * len(block)) % tuple(text[inv].tolist()))


def _emit(report: dict, columns: list[str] | None, fmt: str, out_path: str | None):
    buf = io.StringIO()
    if fmt == "csv":
        buf.write(",".join(columns) + "\n")
        _table(report["rows"], _fmt, ",".join(["%s"] * len(columns)) + "\n", "", buf)
    else:
        _json_dump(report, buf)
        buf.write("\n")
    text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {out_path}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _axis_points(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    # the formula can land one ulp past hi, outside the domain
    return [min(lo + (hi - lo) * i / (n - 1), hi) for i in range(n)]


def _sub_range(pair, lo: float, hi: float, name: str) -> tuple[float, float]:
    if pair is None:
        return lo, hi
    a, b = float(pair[0]), float(pair[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise SpecError(f"--{name} must be an increasing pair, got {pair}")
    if a < lo or b > hi:
        raise OutOfDomain(
            f"--{name} [{a}, {b}] leaves the surface domain [{lo}, {hi}]"
        )
    return a, b


def _cmd_eval(args, eps_char: float) -> int:
    surface = resolve_surface(args.surface)
    dom = surface.domain
    u0, u1 = _sub_range(args.urange, dom.u_min, dom.u_max, "urange")
    v0, v1 = _sub_range(args.vrange, dom.v_min, dom.v_max, "vrange")
    nu, nv = args.grid
    columns = ["u", "v", "x", "y", "t", "n1", "n2", "nh_norm", "p_u", "p_v", "H"]
    us, vs = grid_points(_axis_points(u0, u1, nu), _axis_points(v0, v1, nv))
    rows = np.empty((len(us), len(columns)))
    for sl in blocks(len(us)):
        jets = eval_jets(surface, us[sl], vs[sl])
        rows[sl] = np.column_stack((
            us[sl], vs[sl], jets[:, 0],
            *horizontal_normal_batch(jets),
            *induced_form_batch(jets),
            # NaN at characteristic points, where the curvature is undefined
            mean_curvature_batch(jets, eps_char=eps_char).H,
        ))
    report = {
        "surface": surface.label or args.surface,
        "grid": [nu, nv],
        "urange": [u0, u1],
        "vrange": [v0, v1],
        "eps_char": eps_char,
        "columns": columns,
        "rows": rows,
    }
    _emit(report, columns, args.format, args.out)
    return 0


def _cmd_locus(args, eps_char: float) -> int:
    surface = resolve_surface(args.surface)
    pts = characteristic_locus(surface, grid=args.grid, refine=args.refine)
    columns = ["u", "v", "x", "y", "t", "nh_norm"]
    report = {
        "surface": surface.label or args.surface,
        "grid": list(args.grid),
        "refine": args.refine,
        "count": len(pts),
        "columns": columns,
        "rows": np.reshape([[p.u, p.v, p.x, p.y, p.t, p.nh_norm] for p in pts], (-1, 6)),
    }
    _emit(report, columns, args.format, args.out)
    return 0


def _cmd_flow(args, eps_char: float) -> int:
    surface = resolve_surface(args.surface)
    u, v = args.seed
    trace = integrate_flow(
        surface, u, v, ds=args.ds, max_steps=args.steps, eps_char=eps_char
    )
    columns = ["s", "u", "v", "x", "y", "t", "arc"]
    report = {
        "surface": surface.label or args.surface,
        "seed": [u, v],
        "ds": args.ds,
        "steps": args.steps,
        "seed_index": trace.seed_index,
        "stop_backward": trace.stop_backward,
        "stop_forward": trace.stop_forward,
        "columns": columns,
        "rows": np.column_stack((trace.params, trace.uv, trace.points, trace.arc)),
    }
    _emit(report, columns, args.format, args.out)
    print(
        f"traced {len(trace)} points; stopped backward: {trace.stop_backward}, "
        f"forward: {trace.stop_forward}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args, eps_char: float) -> int:
    report = run_suite(suite=args.suite, seed=args.seed, eps_char=eps_char)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        stat = check["stat"]
        stat_text = _fmt(stat) if isinstance(stat, float) else str(stat)
        print(
            f"{status} {check['name']}: stat={stat_text} tol={_fmt(check['tol'])} "
            f"n={check['count']}",
            file=sys.stderr,
        )
    _emit(report, None, "json", args.out)
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Takes every float literal for a value (argparse alone reads -1e-3 as
    an option); no option here is a float literal.  Subparsers inherit it."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache  # built once per process; parse_args keeps no state on it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heisflow",
        description="Surface curvature and horizontal flow tools for the "
        "first Heisenberg group.",
    )
    parser.add_argument(
        "--eps-char",
        type=float,
        default=None,
        help="characteristic threshold scale (default 1e-9 or "
        "HEISFLOW_EPS_CHAR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p_eval = sub.add_parser("eval", help="evaluate normals, form and H on a grid")
    p_eval.add_argument("surface", help="catalog name or surface JSON file")
    p_eval.add_argument("--grid", type=_parse_grid, default=(25, 25), metavar="NxM")
    p_eval.add_argument("--urange", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p_eval.add_argument("--vrange", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    add_output_flags(p_eval)
    p_eval.set_defaults(run=_cmd_eval)

    p_locus = sub.add_parser("locus", help="locate the characteristic locus")
    p_locus.add_argument("surface")
    p_locus.add_argument("--grid", type=_parse_grid, default=(101, 101), metavar="NxM")
    p_locus.add_argument("--refine", type=_int_between(0, MAX_REFINE), default=60)
    add_output_flags(p_locus)
    p_locus.set_defaults(run=_cmd_locus)

    p_flow = sub.add_parser("flow", help="trace the horizontal flow leaf")
    p_flow.add_argument("surface")
    p_flow.add_argument(
        "--seed", nargs=2, type=float, required=True, metavar=("U", "V"),
        help="parameter seed point of the leaf",
    )
    p_flow.add_argument("--ds", type=float, default=1e-3)
    p_flow.add_argument("--steps", type=_int_between(1, MAX_STEPS), default=2000)
    add_output_flags(p_flow)
    p_flow.set_defaults(run=_cmd_flow)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default="all")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.eps_char is not None:
        eps_char = args.eps_char
    else:
        env = os.environ.get("HEISFLOW_EPS_CHAR")
        try:
            eps_char = float(env) if env else EPS_CHAR
        except ValueError:
            print(f"heisflow: bad HEISFLOW_EPS_CHAR value {env!r}", file=sys.stderr)
            return 2
    if not (eps_char > 0.0 and math.isfinite(eps_char)):
        print(f"heisflow: eps-char must be positive, got {eps_char}", file=sys.stderr)
        return 2

    try:
        return args.run(args, eps_char)
    except (UnknownName, OutOfDomain, ValueError) as e:
        print(f"heisflow: {e}", file=sys.stderr)
        return 2
    except HeisflowError as e:
        print(f"heisflow: {e}", file=sys.stderr)
        return 1
