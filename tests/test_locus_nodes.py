"""The locus node and root rows, and ruled loci against closed-form roots.

``locus._fields`` writes the rows (n1, n2, keep threshold, x, y, t) from one
call of the 2-jet formula: ``locus._node_fields`` calls it once per block of
whole grid rows, on the axes ``us[rows, None]`` and ``vs[None, :]`` for a
builder's formula and on flat points for other handles, and the roots call
it on flat points.  The test-side flat reference :func:`reference` composes
the rows from ``eval_jets``, ``_normal_components`` and ``char_threshold``
at ``grid_points(us, vs)``: node and root rows must agree with it bit for
bit, and anything raised must have the same type and message.  Spies record
the shapes the formula receives and check that ``eval_jets`` runs only
where an entry is not finite.

On a ruled patch ``||N^h|| = |c0 + c1 v + c2 v^2|`` with the coefficients of
``ruling_form_coefficients``, so the characteristic points on the grid
column ``u = us[i]`` are the real roots of a quadratic in v: an exact oracle
for the whole search, node pass included.
"""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CYLINDER, ENTRIES, GRAPH, RULED, locus_row_blocks, poisoned
from heisflow import horizontal, locus, patch
from heisflow.builders import (
    CATALOG,
    catalog_get,
    random_ruled_patch,
    ruling_form_coefficients,
    surface_from_dict,
)
from heisflow.cli import main
from heisflow.errors import HeisflowError
from heisflow.horizontal import _normal_components, char_threshold
from heisflow.patch import (
    JET_BLOCK,
    Domain,
    blocks,
    eval_jets,
    grid_points,
    reparametrize_affine,
)
from heisflow.rng import Lcg64

# 1000 x 7 has a short last row block (585 rows, then 415)
GRIDS = [(2, 2), (2, 1000), (1000, 2), (40, 37), (100, 100), (101, 101), (1000, 7)]
CYLINDERS = ["cylinder(0.5)", "cylinder(2.0)", "cylinder(1e150)", "cylinder(1e200)",
             "cylinder(1e300)"]


def outcome(run):
    """The shape and int64 bits of the rows ``run()`` returns, or the type
    and message of what it raises."""
    try:
        rows = run()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return rows.shape, rows.view(np.int64).tobytes()


def reference(surface, u, v):
    """The rows n1, n2, keep threshold, x, y, t at the points (u[i], v[i]),
    from blocked eval_jets calls: the flat pass the locus once ran."""
    out = np.empty((6, len(u)))
    for sl in blocks(len(u)):
        jets = eval_jets(surface, u[sl], v[sl])
        out[:2, sl] = _normal_components(jets)
        out[2, sl] = char_threshold(jets, locus.KEEP_TOL)
        out[3:, sl] = jets[:, 0].T
    return out


def node_rows(surface, us, vs):
    """``locus._node_fields`` under the errstate characteristic_locus holds."""
    with np.errstate(all="ignore"):
        return locus._node_fields(surface, us, vs)


def spied(surface):
    """``surface`` with a formula that records the shapes of the u and v it
    receives, and keeps ``stage`` if the formula has one; and the record."""
    shapes, fields = [], surface.fields

    def recording(u, v, *order):
        shapes.append((np.shape(u), np.shape(v), *order))
        return fields(u, v, *order)

    if hasattr(fields, "stage"):
        recording.stage = fields.stage
    return dataclasses.replace(surface, fields=recording), shapes


@pytest.fixture
def eval_calls(monkeypatch):
    """The point counts of every ``eval_jets`` call the locus makes."""
    calls = []
    monkeypatch.setattr(locus, "eval_jets", lambda s, u, v: (
        calls.append(np.size(u)), eval_jets(s, u, v))[1])
    return calls


def assert_node_pass_matches(surface, grid):
    """The node pass at ``grid`` against the flat reference; returns the
    outcome and the shapes of the u and v that the formula received."""
    us, vs = surface.domain.linspace(*grid)
    spy, shapes = spied(surface)
    got = outcome(lambda: node_rows(spy, us, vs))
    assert got == outcome(lambda: reference(surface, *grid_points(us, vs))), grid
    return got, shapes


def assert_scan_rows_match(surface, grid):
    """Every row block a scan at ``grid`` writes, nodes and roots, against the
    flat reference at its points, errors included; returns the number of
    root points."""
    written = locus_row_blocks(surface, grid)
    for u, v, rows in written:
        got = rows if isinstance(rows, tuple) else outcome(lambda: rows)
        assert got == outcome(lambda: reference(surface, u, v)), grid
    return sum(len(u) for u, _, _ in written) - grid[0] * grid[1]


def assert_on_the_axes(shapes, nu, nv):
    """The formula got the grid axes, whole rows at a time, once per row."""
    assert [su[1:] + sv for su, sv in shapes] == [(1, 1, nv)] * len(shapes)
    assert sum(su[0] for su, _ in shapes) == nu


def random_ruled(n):
    """Patches 0 .. n - 1 of one Lcg64(3) stream, drawn in sequence, with
    their specs."""
    rng = Lcg64(3)
    return [random_ruled_patch(rng, i) for i in range(n)]


@pytest.mark.parametrize("name", [*CATALOG, *CYLINDERS])
def test_node_pass_matches_the_flat_pass_on_the_catalog(name, eval_calls):
    # cylinder(1e200) and cylinder(1e300) take char_threshold's hypot path,
    # on entries of shape (rows, 1) and Python floats
    surface, roots = catalog_get(name), 0
    for grid in GRIDS:
        assert_on_the_axes(assert_node_pass_matches(surface, grid)[1], *grid)
        roots += assert_scan_rows_match(surface, grid)
    assert eval_calls == []
    # every scan but those of the plane x = 0 bisects some edge to a root
    assert (roots > 0) == (name != "vertical_plane_x0"), roots


def test_node_pass_matches_the_flat_pass_on_random_ruled_patches(eval_calls):
    roots = 0
    for _, surface in random_ruled(20):
        for grid in GRIDS:
            assert_on_the_axes(assert_node_pass_matches(surface, grid)[1], *grid)
            roots += assert_scan_rows_match(surface, grid)
    assert eval_calls == []
    assert roots


def developable_file(k, e, a, b, lo, span, v0):
    """The developable over the horizontal unit-speed lift of the circle of
    radius 1/k about (a, b), counterclockwise for e = 1 and clockwise for
    e = -1: x = a + cos(k s) / k, y = b + e sin(k s) / k and t = -2 e a
    sin(k s) / k + 2 b cos(k s) / k - 2 e s / k, on s in [lo, lo + span]
    and v in [v0, v0 + 1.2]."""
    def terms(*ts):
        return [{"kind": kind, "coeff": c, "k": f} for kind, c, f in ts]

    return {
        "type": "developable", "v_range": [v0, v0 + 1.2],
        "curve": {"domain": [lo, lo + span],
                  "x": terms(("poly", a, 0), ("cos", 1.0 / k, k)),
                  "y": terms(("poly", b, 0), ("sin", e / k, k)),
                  "t": terms(("sin", -2.0 * e * a / k, k), ("cos", 2.0 * b / k, k),
                             ("poly", -2.0 * e / k, 1))},
    }


DEVELOPABLE = st.builds(developable_file, st.integers(1, 3), st.sampled_from([1.0, -1.0]),
                        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                        st.sampled_from([0.5, 2.0, 6.0]), st.sampled_from([0.1, -1.5]))


@pytest.mark.parametrize("args", [(1, 1.0, 0.0, 0.0, 0.0, 6.0, 0.1),
                                  (3, -1.0, 1.9, -2.0, -3.0, 0.5, -1.5)])
def test_developable_files_pass_the_builder(args):
    # the files the strategy below draws are surfaces, not rejected files
    assert surface_from_dict(developable_file(*args)).label == "developable"


@settings(max_examples=80, suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=st.one_of(RULED, GRAPH, CYLINDER, DEVELOPABLE),
       grid=st.sampled_from([(2, 2), (3, 5), (9, 2), (40, 37), (7, 600), (1000, 7)]))
def test_node_pass_matches_the_flat_pass_on_files(spec, grid):
    try:
        surface = surface_from_dict(spec)
    except (HeisflowError, ValueError):
        assume(False)
    assert_node_pass_matches(surface, grid)
    assert_scan_rows_match(surface, grid)


def test_affine_reparametrisation_takes_the_flat_pass(eval_calls):
    # no stage: the formula runs on the flat points of each row block
    surface = reparametrize_affine(catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)),
                                   (-1.25, 3.0), Domain(-0.25, 0.25, -0.9, 0.9))
    assert not hasattr(surface.fields, "stage")
    assert assert_node_pass_matches(surface, (40, 37))[1] == [((40 * 37,), (40 * 37,))]
    shapes = assert_node_pass_matches(surface, (200, 37))[1]
    assert shapes == [((110 * 37,), (110 * 37,)), ((90 * 37,), (90 * 37,))]
    assert_scan_rows_match(surface, (40, 37))
    assert eval_calls == []


def test_rows_longer_than_a_block_take_a_block_of_one_row(eval_calls):
    # a row past 4 * JET_BLOCK points is a block of its own, still on the axes
    nv = 4 * JET_BLOCK + 1
    surface = catalog_get("paraboloid")
    assert assert_node_pass_matches(surface, (2, nv))[1] == [((1, 1), (1, nv))] * 2
    assert assert_node_pass_matches(surface, (2, nv - 1))[1] == [((1, 1), (1, nv - 1))] * 2
    assert eval_calls == []


# u**6 with a coefficient of 1e308 overflows the value at u = -2; at 1.5e307
# on [-1, 1] the value and first partials stay finite and only duu = 30 *
# 1.5e307 * u**4 overflows, at u = -1: the node pass screens the whole 2-jet.
OVERFLOWS = {
    "value": ({"type": "graph", "domain": {"u": [-2, 2], "v": [-1, 1]},
               "fu": [{"kind": "poly", "coeff": 1e308, "k": 6}],
               "fv": [{"kind": "poly", "coeff": 0.5, "k": 2}]},
              "101x101", "value: array([-2., -1., inf])"),
    "duu": ({"type": "graph", "domain": {"u": [-1, 1], "v": [-1, 1]},
             "fu": [{"kind": "poly", "coeff": 1.5e307, "k": 6}],
             "fv": [{"kind": "poly", "coeff": 0.5, "k": 2}]},
            "30x31", "duu: array([ 0.,  0., inf])"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_non_finite_nodes_raise_what_the_flat_pass_raises(case, tmp_path, capsys, eval_calls):
    # eval_jets runs once, on the flat points of the first failing row block
    spec, grid, field = OVERFLOWS[case]
    nu, nv = map(int, grid.split("x"))
    got, _ = assert_node_pass_matches(surface_from_dict(spec), (nu, nv))
    assert got == (ValueError, f"non-finite jet component in {field}")
    assert eval_calls == [min(nu, 4 * JET_BLOCK // nv) * nv]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(spec))
    assert main(["locus", str(path), "--grid", grid]) == 2
    assert capsys.readouterr() == ("", f"heisflow: non-finite jet component in {field}\n")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", range(9), ids=ENTRIES)
def test_a_non_finite_node_entry_raises_what_the_flat_pass_raises(entry, bad, eval_calls):
    # A handle without stage, poisoned on the grid column u = us[50], in the
    # second of three row blocks (40 rows of 101 each): the first block is
    # finite, and eval_jets runs once, on the second block's flat points.
    us, _ = Domain(0.0, 1.0, 0.0, 1.0).linspace(101, 101)
    surface = poisoned(entry, bad, us[50])
    got, _ = assert_node_pass_matches(surface, (101, 101))
    assert got[0] is ValueError and "non-finite jet component in" in got[1]
    assert eval_calls == [40 * 101]
    with pytest.raises(ValueError) as scan:
        locus.characteristic_locus(surface, (101, 101))
    assert str(scan.value) == got[1]


def column_roots(spec, us, vs):
    """The real roots of c0 + c1 v + c2 v^2 in [vs[0], vs[-1]] on each grid
    column u = us[i], and the columns whose roots do not each get a grid
    edge on which c changes sign (a double root, or two roots in one edge),
    named by their u."""
    c0, c1, c2 = (np.broadcast_to(c, us.shape).tolist()
                  for c in ruling_form_coefficients(spec, us))
    roots, double = [], []
    for u, a, b, c in zip(us.tolist(), c0, c1, c2):
        disc = b * b - 4.0 * c * a
        if c == 0.0:
            found = [-a / b] if b != 0.0 else []
        elif disc < 0.0:
            found = []
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            found = sorted({q / c, a / q}) if q != 0.0 else [0.0]
        found = [r for r in found if vs[0] <= r <= vs[-1]]
        edges = set(np.searchsorted(vs, found).tolist())
        if len(edges) < len(found) or (found and c != 0.0 and disc == 0.0):
            double.append(u)
        roots.append(found)
    return roots, double


@pytest.mark.parametrize("grid", [(101, 101), (100, 100), (40, 37)], ids=lambda g: "%dx%d" % g)
def test_ruled_locus_finds_every_column_root(grid):
    # Every real root of c on a grid column is a locus point on that column,
    # and every locus point on a column is a root: the points are v-edge
    # bisection roots, at the grid column's own u.
    worst, unmatched, doubles = 0.0, [], []
    for index, (spec, surface) in enumerate(random_ruled(20)):
        us, vs = surface.domain.linspace(*grid)
        roots, double = column_roots(spec, us, vs)
        doubles += [(index, u) for u in double]
        on_column = {}
        for p in locus.characteristic_locus(surface, grid):
            on_column.setdefault(p.u, []).append(p.v)
        for u, want in zip(us.tolist(), roots):
            got = sorted(on_column.pop(u, []))
            if len(got) != len(want):
                unmatched.append((index, u, got, want))
                continue
            worst = max([worst, *(abs(p - q) for p, q in zip(got, want))])
    assert doubles == [], f"double roots (patch, u): {doubles}"
    assert unmatched == [], f"columns without a match (patch, u, found, roots): {unmatched}"
    assert worst <= 1e-12


def test_node_pass_runs_with_the_public_horizontal_functions_wrapped(monkeypatch):
    # the benchmark's traced pass replaces every public function of each
    # layer, by identity, with a plain wrapper that keeps no attributes; the
    # locus reads attributes only of the formulas on entries, which stay
    surface = catalog_get("paraboloid")
    want = locus.characteristic_locus(surface, (40, 37))
    public = [getattr(m, n) for m in (horizontal, patch) for n in m.__all__]
    wrapped = sorted(name for name, f in vars(locus).items()
                     if isinstance(f, types.FunctionType) and any(f is p for p in public))
    for name in wrapped:
        f = getattr(locus, name)
        monkeypatch.setattr(locus, name, lambda *args, f=f: f(*args))
    assert wrapped == ["blocks", "eval_jets", "grid_points", "jet2_batch"]
    assert locus.characteristic_locus(surface, (40, 37)) == want
