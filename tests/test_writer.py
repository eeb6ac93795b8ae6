"""The CLI table writer against the per-value reference writer, byte for byte.

``cli._emit`` formats each distinct value of a block once, through the
numpy %.17g kernel ``cli._g17``, and builds the rows as one byte block;
``reference_writer.render`` formats every cell on its own with %.17g.  Both
must give the same text for every table, in both formats, and the kernel
must give the text of %.17g for every float it does not leave to it.
"""

import contextlib
import io
import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisflow import cli
from heisflow.builders import catalog_get
from heisflow.curvature import mean_curvature_batch
from heisflow.flow import integrate_flow
from heisflow.horizontal import EPS_CHAR, horizontal_normal_batch, induced_form_batch
from heisflow.locus import characteristic_locus
from heisflow.patch import JET_BLOCK, blocks, eval_jets, grid_points
from reference_writer import render


def _bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", n))[0]


SPECIAL = [
    0.0,
    -0.0,
    math.nan,
    _bits(0xFFF8000000000000),  # NaN with the sign bit set
    _bits(0x7FF8000000000001),  # quiet NaN with a payload
    _bits(0xFFF0000000000123),  # signalling NaN, sign bit and payload
    math.inf,
    -math.inf,
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # the largest subnormal
    1e308,
    -1e308,
    1.7976931348623157e308,
    0.1,
    1.0,
    # %.17g boundaries (with the largest float above): the switch between
    # fixed and exponent form, values that print as the next power of ten,
    # and exact halves
    1e16,
    1e17,
    9.999999999999999e16,
    1e-5,
    9.9999999999999991e-05,
    1e22,
    1e23,
    0.5,
    2.5,
    # exact ties at the 17th digit, rounded to even: ...0.2 and ...0.8
    1000000000000000.25,
    1000000000000000.75,
]
CELLS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.integers(0, 2**64 - 1).map(_bits),
)


def _kernel_text(values):
    """The kernel's text of each value, %.17g where it leaves a value, and
    the indices it left."""
    rows, rest = cli._g17(np.array(values, float))
    text = [row.tobytes().rstrip(b"\0").decode("ascii") for row in rows]
    for i in rest:
        text[i] = "%.17g" % values[i]
    return text, rest


def _tie_distance(x: float) -> Fraction:
    """The exact distance from |x| 10^(16 - k), k = floor(log10 |x|), to
    the nearest half-integer: how close the 17-digit rounding is to a tie."""
    q = abs(Fraction(x)) * Fraction(10) ** (16 - Decimal(x).adjusted())
    return abs(q - math.floor(q) - Fraction(1, 2))


def _neighbours(xs):
    xs = np.asarray(xs, float)
    return np.concatenate((xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf)))


def test_kernel_matches_percent_g_on_random_bits():
    values = np.random.default_rng(37).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = values.view(np.float64).tolist()
    text, rest = [], []
    for sl in blocks(len(values)):  # the kernel's flat index takes 200 bytes a value
        t, r = _kernel_text(values[sl])
        text += t
        rest += [i + sl.start for i in r]
    assert text == ["%.17g" % x for x in values]
    # every exponent of a normal float occurs, and the kernel leaves only
    # what it must: values outside its range and roundings within 2**-40
    # of a tie
    assert {math.frexp(x)[1] for x in values} >= set(range(-1021, 1025))
    left = [values[i] for i in rest if 1e-280 <= abs(values[i]) < 1e280]
    assert len(rest) - len(left) == sum(not 1e-280 <= abs(x) < 1e280 for x in values)
    assert len(left) < 500
    assert all(_tie_distance(x) < Fraction(1, 2**40) for x in left)


def test_kernel_matches_percent_g_at_powers_of_ten():
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    values = _neighbours(powers + [-x for x in powers]).tolist()
    text, _ = _kernel_text(values)
    assert text == ["%.17g" % x for x in values]


def test_kernel_matches_percent_g_at_switches_and_ends():
    edges = [
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1e-5, 1e-4, 9.9999999999999991e-05, 1e16, 1e17, 9.999999999999999e16,
        1e-280, 1e280, 1e308,
    ]
    subnormals = [math.ldexp(m, -1074) for m in (1, 2, 3, 2**51 + 1, 2**52 - 1)]
    values = np.append(_neighbours(edges + subnormals), 1.7976931348623157e308)
    values = np.concatenate((values, -values)).tolist()
    text, _ = _kernel_text(values)
    assert text == ["%.17g" % x for x in values]


def test_kernel_leaves_exact_ties_to_percent_g():
    values = [1000000000000000.25, 1000000000000000.75, 0.5, 2.5]
    text, rest = _kernel_text(values)
    assert text == ["1000000000000000.2", "1000000000000000.8", "0.5", "2.5"]
    assert rest == [0, 1]  # the two ties; 0.5 and 2.5 have fewer than 17 digits


def _report(rows, columns):
    return {"columns": columns, "rows": rows}


def _emitted(table, columns, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(_report(table, columns), columns, fmt, None)
    return buf.getvalue()


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(CELLS, min_size=k, max_size=k), max_size=24)
    ),
    st.data(),
)
def test_table_writer_matches_per_value_writer(rows, data):
    # one column mixes 0.0 and -0.0, at drawn rows
    k = len(rows[0]) if rows else data.draw(st.integers(1, 6))
    for z in (0.0, -0.0):
        rows.insert(data.draw(st.integers(0, len(rows))), [z] * k)
    columns = [f"c{i}" for i in range(k)]
    table = np.array(rows, float)
    assert table.shape == (len(rows), k)
    for fmt in ("csv", "json"):
        want = render(_report(rows, columns), columns, fmt)
        assert _emitted(table, columns, fmt) == want


def test_table_writer_keeps_bits_apart_across_blocks():
    # values repeat within and across blocks; 0.0/-0.0 and NaNs of every
    # sign and payload sit in one column
    n = 2 * JET_BLOCK + 3
    col = np.array([SPECIAL[i % len(SPECIAL)] for i in range(n)])
    table = np.column_stack((col, col[::-1], np.arange(n) * 0.1))
    rows = table.tolist()
    columns = ["a", "b", "c"]
    for fmt in ("csv", "json"):
        assert _emitted(table, columns, fmt) == render(_report(rows, columns), columns, fmt)


@pytest.mark.parametrize(
    "values",
    [
        [x for x in SPECIAL if not math.isfinite(x)],  # every distinct value non-finite
        [x for x in SPECIAL if math.isfinite(x)],  # none
    ],
    ids=["all-non-finite", "all-finite"],
)
def test_table_writer_blocks_of_one_kind(values):
    # a whole block, and a block and a row, of one kind of value
    for n in (JET_BLOCK, JET_BLOCK + 1):
        col = np.array([values[i % len(values)] for i in range(n)])
        table = np.column_stack((col, col[::-1]))
        rows = table.tolist()
        columns = ["a", "b"]
        for fmt in ("csv", "json"):
            assert _emitted(table, columns, fmt) == render(_report(rows, columns), columns, fmt)


@pytest.mark.parametrize(
    "name, seed, steps, ds",
    [
        ("cylinder", (1.0, 0.0), 2000, 1e-3),  # stops at domain exits
        ("paraboloid", (0.5, 0.25), 300, 1e-3),
        ("cone_lower", (-1.0, 0.7), 40, 1e-2),
        ("paraboloid", (0.5, 0.25), 5, 10.0),  # one point: both legs exit the domain
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_flow_stdout_matches_reference_writer(capsys, name, seed, steps, ds, fmt):
    argv = ["flow", name, "--seed", repr(seed[0]), repr(seed[1]),
            "--ds", repr(ds), "--steps", str(steps), "--format", fmt]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out

    surface = catalog_get(name)
    trace = integrate_flow(surface, *seed, ds=ds, max_steps=steps)
    cols = (trace.params, *trace.uv.T, *trace.points.T, trace.arc)
    columns = ["s", "u", "v", "x", "y", "t", "arc"]
    report = {
        "surface": surface.label or name,
        "seed": list(seed),
        "ds": ds,
        "steps": steps,
        "seed_index": trace.seed_index,
        "stop_backward": trace.stop_backward,
        "stop_forward": trace.stop_forward,
        "columns": columns,
        "rows": [list(r) for r in zip(*(c.tolist() for c in cols))],
    }
    assert got == render(report, columns, fmt)


@pytest.mark.parametrize(
    "name, grid",
    [
        ("cone_lower", (101, 101)),  # no characteristic point: 0 rows
        ("plane_t0", (101, 101)),  # one row
        ("paraboloid", (100, 100)),
        ("cylinder(1e300)", (21, 21)),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_locus_stdout_matches_reference_writer(capsys, name, grid, fmt):
    argv = ["locus", name, "--grid", f"{grid[0]}x{grid[1]}", "--format", fmt]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out

    surface = catalog_get(name)
    pts = characteristic_locus(surface, grid=grid)
    columns = ["u", "v", "x", "y", "t", "nh_norm"]
    report = {
        "surface": surface.label or name,
        "grid": list(grid),
        "refine": 60,
        "count": len(pts),
        "columns": columns,
        "rows": [[p.u, p.v, p.x, p.y, p.t, p.nh_norm] for p in pts],
    }
    assert got == render(report, columns, fmt)
    if name == "cone_lower":  # the empty table: the CSV header alone, or []
        assert not pts
        if fmt == "csv":
            assert got == "u,v,x,y,t,nh_norm\n"
        else:
            assert got.endswith('  "rows": []\n}\n')


@pytest.mark.parametrize(
    "name, grid",
    [
        ("paraboloid", (121, 121)),  # 15 blocks
        ("plane_t0", (101, 101)),  # H is NaN at the characteristic origin
        ("cylinder(1e300)", (5, 5)),  # values past the kernel's range
        ("cylinder(2.0)", (81, 81)),  # about 120 distinct values a block, most cells shared
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eval_stdout_matches_reference_writer(capsys, name, grid, fmt):
    argv = ["eval", name, "--grid", f"{grid[0]}x{grid[1]}", "--format", fmt]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out

    surface = catalog_get(name)
    dom = surface.domain
    nu, nv = grid
    axes = [
        [min(lo + (hi - lo) * i / (n - 1), hi) for i in range(n)]
        for lo, hi, n in ((dom.u_min, dom.u_max, nu), (dom.v_min, dom.v_max, nv))
    ]
    us, vs = grid_points(*axes)
    cols = []
    for sl in blocks(len(us)):
        jets = eval_jets(surface, us[sl], vs[sl])
        cols.append((us[sl], vs[sl], *jets[:, 0].T, *horizontal_normal_batch(jets),
                     *induced_form_batch(jets), mean_curvature_batch(jets).H))
    columns = ["u", "v", "x", "y", "t", "n1", "n2", "nh_norm", "p_u", "p_v", "H"]
    rows = [list(r) for c in cols for r in zip(*(a.tolist() for a in c))]
    report = {
        "surface": surface.label or name,
        "grid": [nu, nv],
        "urange": [dom.u_min, dom.u_max],
        "vrange": [dom.v_min, dom.v_max],
        "eps_char": EPS_CHAR,
        "columns": columns,
        "rows": rows,
    }
    assert got == render(report, columns, fmt)
    if name == "plane_t0":
        assert any(math.isnan(r[-1]) for r in rows)
    if name == "cylinder(1e300)":
        assert any(abs(x) >= 1e280 for r in rows for x in r)
