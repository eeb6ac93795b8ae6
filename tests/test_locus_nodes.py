"""The locus node pass on the grid axes, and ruled loci against closed-form roots.

``locus._node_fields`` runs a builder's formula once per block of whole grid
rows, on the axes ``us[rows, None]`` and ``vs[None, :]``, and composes the
node rows (n1, n2, keep threshold, x, y, t) from the broadcast entries.  The
flat pass ``locus._fields`` on ``grid_points(us, vs)`` is its reference: the
rows must agree bit for bit, and anything raised must have the same type and
message.  Handles without ``stage``, rows longer than a block and failing
nodes must take the flat pass itself.

On a ruled patch ``||N^h|| = |c0 + c1 v + c2 v^2|`` with the coefficients of
``ruling_form_coefficients``, so the characteristic points on the grid
column ``u = us[i]`` are the real roots of a quadratic in v: an exact oracle
for the whole search, node pass included.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CYLINDER, GRAPH, RULED
from heisflow import locus
from heisflow.builders import (
    CATALOG,
    catalog_get,
    random_ruled_patch,
    ruling_form_coefficients,
    surface_from_dict,
)
from heisflow.cli import main
from heisflow.errors import HeisflowError
from heisflow.patch import JET_BLOCK, Domain, grid_points, reparametrize_affine
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


@pytest.fixture
def flat_calls(monkeypatch):
    """The point counts of every call of the flat pass ``locus._fields``."""
    calls, flat = [], locus._fields

    def counting(surface, u, v):
        calls.append(len(u))
        return flat(surface, u, v)

    monkeypatch.setattr(locus, "_fields", counting)
    return calls, flat


def assert_node_pass_matches(surface, grid, flat):
    """The node pass at ``grid`` against the flat pass ``flat``; returns the
    outcome."""
    us, vs = surface.domain.linspace(*grid)
    got = outcome(lambda: locus._node_fields(surface, us, vs))
    assert got == outcome(lambda: flat(surface, *grid_points(us, vs))), grid
    return got


def random_ruled(n):
    """Patches 0 .. n - 1 of one Lcg64(3) stream, drawn in sequence, with
    their specs."""
    rng = Lcg64(3)
    return [random_ruled_patch(rng, i) for i in range(n)]


@pytest.mark.parametrize("name", [*CATALOG, *CYLINDERS])
def test_node_pass_matches_the_flat_pass_on_the_catalog(name, flat_calls):
    # cylinder(1e200) and cylinder(1e300) take char_threshold's hypot path,
    # on entries of shape (rows, 1) and Python floats
    calls, flat = flat_calls
    surface = catalog_get(name)
    for grid in GRIDS:
        assert_node_pass_matches(surface, grid, flat)
    assert calls == []


def test_node_pass_matches_the_flat_pass_on_random_ruled_patches(flat_calls):
    calls, flat = flat_calls
    for _, surface in random_ruled(20):
        for grid in GRIDS:
            assert_node_pass_matches(surface, grid, flat)
    assert calls == []


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
    assert_node_pass_matches(surface, grid, locus._fields)


def test_affine_reparametrisation_takes_the_flat_pass(flat_calls):
    calls, flat = flat_calls
    surface = reparametrize_affine(catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)),
                                   (-1.25, 3.0), Domain(-0.25, 0.25, -0.9, 0.9))
    assert not hasattr(surface.fields, "stage")
    assert_node_pass_matches(surface, (40, 37), flat)
    assert calls == [40 * 37]


def test_rows_longer_than_a_block_take_the_flat_pass(flat_calls):
    calls, flat = flat_calls
    nv = 4 * JET_BLOCK + 1
    assert_node_pass_matches(catalog_get("paraboloid"), (2, nv), flat)
    assert calls == [2 * nv]
    del calls[:]
    assert_node_pass_matches(catalog_get("paraboloid"), (2, nv - 1), flat)
    assert calls == []


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
def test_non_finite_nodes_raise_what_the_flat_pass_raises(case, tmp_path, capsys, flat_calls):
    calls, flat = flat_calls
    spec, grid, field = OVERFLOWS[case]
    nu, nv = map(int, grid.split("x"))
    got = assert_node_pass_matches(surface_from_dict(spec), (nu, nv), flat)
    assert got == (ValueError, f"non-finite jet component in {field}")
    assert calls == [nu * nv]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(spec))
    assert main(["locus", str(path), "--grid", grid]) == 2
    assert capsys.readouterr() == ("", f"heisflow: non-finite jet component in {field}\n")


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
    # bisection roots, at u = 0.5 * (u + u) = u exactly.
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
    # the benchmark's traced pass replaces every public function by a plain
    # wrapper; the node pass must not read attributes of char_threshold
    surface = catalog_get("paraboloid")
    want = locus.characteristic_locus(surface, (40, 37))
    threshold = locus.char_threshold
    monkeypatch.setattr(locus, "char_threshold", lambda *args: threshold(*args))
    assert locus.characteristic_locus(surface, (40, 37)) == want
