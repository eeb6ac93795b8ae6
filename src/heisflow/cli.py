"""Command line front end: evaluate grids, find loci, trace flows, verify.

Output is deterministic: floats print as %.17g prints them (lossless for
binary64 and locale independent), JSON keys keep insertion order, and
randomized verification takes an explicit --seed.  Non-finite floats become
null in JSON and literal nan/inf tokens in CSV.  Table floats go through a
numpy kernel with the bytes of %.17g; the few values it cannot place (out
of its range, non-finite, or a rounding too near a tie) take %.17g itself.
Each block of table rows is built as one byte matrix and written at once.

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
import re
import sys

import numpy as np

from .curvature import _SPLIT, mean_curvature_batch
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
        out.write("[\n")
        _table(value, _json_atom, pad + "  [", ", ", "]", ",\n", out)
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


# The %.17g kernel.  The 17 correctly rounded significant digits of |x| are
# the integer nearest |x| 10^(16 - k), k = floor(log10 |x|): fixed-precision
# conversion in the manner of Ryu printf (Adams, OOPSLA 2019).  The product
# is Dekker's exact two-product (Numer. Math. 18, 1971) with 10^(16 - k) as
# a double-double, so its error stays under 2**-46 and only a fraction
# within _TIE of one half could round the wrong way.  Dekker's splits and
# the low halves stay normal floats for 1e-280 <= |x| < 1e280.
_K_MIN, _K_MAX = -281, 281  # the decimal exponents of the kernel's tables
_TIE = 2.0**-40
_TAIL = np.frombuffer(b"e\0\0\0", np.uint32)[0]  # the last word of a source row


@functools.cache
def _powers() -> np.ndarray:
    """10^(16 - k) for k in [_K_MIN, _K_MAX] as the rows hi, Dekker's split
    of hi into two halves, and lo, where hi + lo has 106 correct bits."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        d = 10 ** abs(16 - k)
        h = float(d) if k <= 16 else 1 / d  # int true division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append(float(d - a) if k <= 16 else (b - a * d) / (d * b))
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)
    return np.stack((hi, hh, hi - hh, np.array(lo)))


@functools.cache
def _layout():
    """The lookup tables of the text layout.

    A value's source row is 7 words: "-.0" and its 17 digits (bytes 0-19),
    the sign and three digits of its exponent (20-23), then "e" and three
    NULs.  Its text is the row taken through the pattern of its key: the
    form (fixed for k in [-4, 16], else with a 2 or 3 digit exponent), the
    count of digits left once trailing zeros are stripped, and the sign.
    Patterns are 25 bytes, padded with NUL.

    Returns the first word by leading digit, the text of each 4-digit group,
    the place of a group's last nonzero digit (0 for 0000) plus 4 for each
    group before it, the exponent word and the key of the form by
    k - _K_MIN, and the patterns by key.
    """
    d = np.arange(10000, dtype=np.int16)
    d = np.stack((d // 1000, d // 100 % 10, d // 10 % 10, d % 10), 1).astype(np.uint8)
    group = (d + 48).view(np.uint32).ravel()
    head = np.frombuffer(b"".join(b"-.0%d" % i for i in range(10)), np.uint32)
    nz = d[:, ::-1] != 0
    place = np.where(nz.any(1), 4 - nz.argmax(1), 0).astype(np.uint8)
    last = np.where(place, place + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)
    ks = range(_K_MIN, _K_MAX + 1)
    expo = np.frombuffer(b"".join(b"%+04d" % k for k in ks), np.uint32)
    form = [k + 4 if -4 <= k <= 16 else 21 + (abs(k) >= 100) for k in ks]
    digits = list(range(3, 20))
    table = np.full((2, 23, 17, 25), 25, np.int8)  # by sign, form and count
    for c in range(23):
        for s in range(1, 18):
            kept = digits[:s]
            if c < 4:  # 0.000ddd
                p = [2, 1] + [2] * (3 - c) + kept
            elif c < 21:  # ddd.ddd, with k + 1 = c - 3 digits before the point
                p = digits[:c - 3] + ([1] + kept[c - 3:] if s > c - 3 else [])
            else:  # d.ddde+XX
                p = kept[:1] + ([1] + kept[1:] if s > 1 else []) + [24, 20]
                p += [22, 23] if c == 21 else [21, 22, 23]
            table[0, c, s - 1, :len(p)] = p
            table[1, c, s - 1, :len(p) + 1] = [0] + p
    return head, group, last.ravel(), expo, 17 * np.array(form), table.reshape(-1, 25)


def _scaled(a: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^(16 - k)) as int64 and its fraction, at i = k - _K_MIN."""
    hi, hh, hl, lo = (c.take(i) for c in _powers())
    p = a * hi
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # p + err = a hi exactly
    p0 = np.floor(p)
    r = (p - p0) + (err + a * lo)
    r0 = np.floor(r)
    return p0.astype(np.int64) + r0.astype(np.int64), r - r0


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a = n 10^(k - 16) rounded half to even, with 17 digits in n, for a
    in the kernel's range: n, i = k - _K_MIN, and where the rounding is
    within _TIE of a tie."""
    i = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    n, f = _scaled(a, i)
    # log10 can round across a power of ten: move k to where n has 17 digits
    off = (n >= 10**17).astype(np.intp) - (n < 10**16)
    redo = np.flatnonzero(off)
    if len(redo):
        i[redo] += off[redo]
        n[redo], f[redo] = _scaled(a[redo], i[redo])
    n += f > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    i += carry
    return n, i, np.abs(f - 0.5) < _TIE


def _source(a: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The source rows of ``_layout`` as bytes, the pattern keys, and where
    the rounding is within _TIE of a tie, for a in the kernel's range."""
    head, group, last, expo, form, table = _layout()
    n, i, tie = _decimal(a)
    top = n // 10**8
    g = np.empty((4, len(n)), np.intp)  # the 4-digit groups after the leading digit
    g[2] = n - top * 10**8
    lead = top // 10**8
    g[0] = top - lead * 10**8
    g[1] = g[0] % 10**4
    g[0] //= 10**4
    g[3] = g[2] % 10**4
    g[2] //= 10**4
    rows = np.empty((len(n), 7), np.uint32)
    rows[:, 0] = head.take(lead)
    rows[:, 1:5] = group.take(g).T
    rows[:, 5] = expo.take(i)
    rows[:, 6] = _TAIL
    g += np.arange(0, 40000, 10000)[:, None]
    w = last.take(g)
    key = form.take(i)
    key += np.maximum(np.maximum(w[0], w[1]), np.maximum(w[2], w[3]))
    key += len(table) // 2 * neg
    return rows.view(np.uint8), key, tie


def _g17(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The %.17g text of each value as an (n, 25) uint8 array, NUL-padded,
    and the indices whose text is left to the caller: values outside the
    kernel's range (zeros and non-finite values among them) and roundings
    within _TIE of a tie.  Its flat index takes 200 bytes a value."""
    a = np.abs(values)
    done = (a >= 1e-280) & (a < 1e280)
    raw, key, tie = _source(np.where(done, a, 1.0), values < 0)
    idx = _layout()[-1].take(key, axis=0) + np.arange(0, 28 * len(key), 28)[:, None]
    done &= ~tie
    return raw.take(idx), np.flatnonzero(~done).tolist()


def _table(table: np.ndarray, atom, head: str, comma: str, tail: str, sep: str, out) -> None:
    """Write an (N, k) float table to ``out``: rows of ``head``, the cells
    joined by ``comma``, and ``tail``, joined by ``sep``.  Each block of
    rows formats its distinct values, told apart by bits (-0.0 == 0.0 but
    prints as -0, and NaN never equals itself), through the %.17g kernel
    ``_g17``, whose text is ``atom`` of every finite float; ``atom`` runs
    only on the values the kernel leaves, each on its own.  Each cell takes
    its value's 25 text bytes and w bytes of comma, the last column's w
    bytes are ``tail + sep + head``, and the block is written with its NULs
    deleted; the final ``sep + head`` is cut."""

    def pad(text, n):  # the bytes of text as n uint8, NUL-padded
        return np.frombuffer(text.encode().ljust(n, b"\0"), np.uint8)

    end = tail + sep + head
    w = max(len(comma), len(end))
    out.write(head)
    for sl in blocks(len(table)):
        block = table[sl]
        bits, inv = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        values = bits.view(np.float64)
        slot = np.empty((len(values), 25 + w), np.uint8)
        slot[:, :25], rest = _g17(values)
        slot[:, 25:] = pad(comma, w)
        for i in rest:
            slot[i, :25] = pad(atom(values[i].item()), 25)
        rows = np.empty((*block.shape, 25 + w), np.uint8)
        slot.take(inv, axis=0, out=rows.reshape(len(inv), 25 + w), mode="clip")
        rows[:, -1, 25:] = pad(end, w)
        text = rows.tobytes().translate(None, b"\0").decode("ascii")
        out.write(text if sl.stop < len(table) else text[:len(text) - len(sep + head)])


def _emit(report: dict, columns: list[str] | None, fmt: str, out_path: str | None):
    buf = io.StringIO()
    if fmt == "csv":
        buf.write(",".join(columns) + "\n")
        _table(report["rows"], _fmt, "", ",", "\n", "", buf)
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


def _cmd_eval(args) -> int:
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
            mean_curvature_batch(jets).H,
        ))
    report = {
        "surface": surface.label or args.surface,
        "grid": [nu, nv],
        "urange": [u0, u1],
        "vrange": [v0, v1],
        "eps_char": EPS_CHAR,
        "columns": columns,
        "rows": rows,
    }
    _emit(report, columns, args.format, args.out)
    return 0


def _cmd_locus(args) -> int:
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


def _cmd_flow(args) -> int:
    surface = resolve_surface(args.surface)
    u, v = args.seed
    trace = integrate_flow(surface, u, v, ds=args.ds, max_steps=args.steps)
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


def _cmd_verify(args) -> int:
    report = run_suite(suite=args.suite, seed=args.seed)
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
    try:
        return args.run(args)
    except (UnknownName, OutOfDomain, ValueError) as e:
        print(f"heisflow: {e}", file=sys.stderr)
        return 2
    except HeisflowError as e:
        print(f"heisflow: {e}", file=sys.stderr)
        return 1
