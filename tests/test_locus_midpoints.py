"""The locus bisection step: ``locus._midpoint_components`` and
``locus._midpoints``.

The reference for the components is ``np.where(second, n2, n1)`` over
``_normal_components`` of the first three fields of ``eval_jets``, on points
whose 2-jets are finite wherever their first-order entries are (drawn files
whose second partials alone overflow are skipped): the rows must agree bit
for bit, and anything raised must have the same type and message.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CYLINDER, ENTRIES, GRAPH, RULED, locus_row_blocks, poisoned
from heisflow import locus
from heisflow.builders import CATALOG, catalog_get, random_ruled_patch, surface_from_dict
from heisflow.errors import HeisflowError
from heisflow.horizontal import _normal_components, _threshold
from heisflow.patch import (
    JET_BLOCK,
    Domain,
    SurfaceHandle,
    eval_jets,
    jet2_batch,
    reparametrize_affine,
)
from heisflow.rng import Lcg64

# cylinder(1.5e308) has finite entries, but 2 y overflows where |y| > 2**1023,
# and so do some sums n1 + n2: those blocks take the fallback.
CYLINDERS = ["cylinder(0.5)", "cylinder(2.0)", "cylinder(1e150)", "cylinder(1e300)",
             "cylinder(1.5e308)"]
GRIDS = [(101, 101), (100, 100), (40, 37), (7, 5)]

# A ruled file over s in [9e307, 9.5e307], past half the float range: the sum
# of two bracket ends overflows there.
HUGE = {"type": "ruled",
        "curve": {"x": [{"kind": "cos", "coeff": 1.0, "k": 1}],
                  "y": [{"kind": "sin", "coeff": 1.0, "k": 1}],
                  "t": [{"kind": "sin", "coeff": 0.5, "k": 1}], "domain": [9.0e307, 9.5e307]},
        "theta": [{"kind": "poly", "coeff": 0.3, "k": 0}, {"kind": "sin", "coeff": 1.0, "k": 1}],
        "v_range": [0.25, 1.25]}


def outcome(run):
    """The int64 bits of the row ``run()`` returns, or the type and message of
    what it raises."""
    try:
        row = run()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return np.asarray(row, float).view(np.int64).tolist()


def components(surface, u, v, second):
    """``locus._midpoint_components`` under the errstate the bisection loop
    holds."""
    with np.errstate(all="ignore"):
        return locus._midpoint_components(surface, u, v, second)


def reference(surface, u, v, second):
    """The bisection step's component row from the first three fields of
    eval_jets, block by block."""
    out = np.empty(len(u))
    for i in range(0, len(u), JET_BLOCK):
        sl = slice(i, i + JET_BLOCK)
        n1, n2 = _normal_components(eval_jets(surface, u[sl], v[sl])[:, :3])
        out[sl] = np.where(second[sl], n2, n1)
    return out


def scanned(surface, grids):
    """The points and component flags of every bisection step of the scans
    at ``grids``."""
    seen, evaluate = [], locus._midpoint_components

    def recording(surface, u, v, second):
        seen.append((u, v, second))
        return evaluate(surface, u, v, second)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locus, "_midpoint_components", recording)
        for grid in grids:
            try:
                locus.characteristic_locus(surface, grid)
            except (HeisflowError, ValueError):
                pass
    return seen


def midpoints_of(surface):
    """The steps of the scans at 40x37 and 7x5, and the cell centres of a
    53x47 grid (2392 points, three blocks) with a component flag."""
    us, vs = surface.domain.linspace(53, 47)
    cu, cv = np.meshgrid(0.5 * (us[:-1] + us[1:]), 0.5 * (vs[:-1] + vs[1:]), indexing="ij")
    cells = (cu.ravel(), cv.ravel(), np.arange(cu.size) % 3 == 0)
    return [*scanned(surface, ((40, 37), (7, 5))), cells]


def assert_matches_eval_jets(surface):
    for u, v, second in midpoints_of(surface):
        got = outcome(lambda: components(surface, u, v, second))
        assert got == outcome(lambda: reference(surface, u, v, second))


def random_ruled(n):
    rng = Lcg64(3)
    return [random_ruled_patch(rng, i)[1] for i in range(n)]


def affine_cone():
    return reparametrize_affine(catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)),
                                (-1.25, 3.0), Domain(-0.25, 0.25, -0.9, 0.9))


@pytest.mark.parametrize("name", [*CATALOG, *CYLINDERS])
def test_midpoint_row_matches_eval_jets_on_the_catalog(name):
    assert_matches_eval_jets(catalog_get(name))


def test_finite_entries_with_overflowing_components_take_the_fallback(monkeypatch):
    # the 1.5e308 cylinder's entries are finite, so the finite check of its
    # first-order jets passes and the row keeps its bits (the tests above)
    checked, surface = [], catalog_get("cylinder(1.5e308)")
    u, v, second = midpoints_of(surface)[-1]
    check = locus._check_finite
    monkeypatch.setattr(locus, "_check_finite", lambda jets: (
        checked.append(jets.shape[1:]), check(jets))[1])
    components(surface, u, v, second)
    assert checked and set(checked) == {(6, 3)}


def test_midpoint_row_matches_eval_jets_on_random_ruled_patches():
    for surface in random_ruled(20):
        assert_matches_eval_jets(surface)


def test_midpoint_row_matches_eval_jets_on_an_affine_reparametrisation():
    surface = affine_cone()
    assert not hasattr(surface.fields, "stage")
    assert_matches_eval_jets(surface)


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=st.one_of(RULED, GRAPH, CYLINDER))
def test_midpoint_row_matches_eval_jets_on_files(spec):
    try:
        surface = surface_from_dict(spec)
    except (HeisflowError, ValueError):
        assume(False)
    for u, v, _ in midpoints_of(surface):
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(jet2_batch(len(u), *surface.fields(u, v))).all(axis=2)
        assume(not (bad[:, 3:].any(axis=1) & ~bad[:, :3].any(axis=1)).any())
    assert_matches_eval_jets(surface)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", range(9), ids=ENTRIES)
def test_a_non_finite_entry_raises_what_eval_jets_raises(entry, bad):
    # The poisoned points are the 700th and 1500th of 2000, one in each of
    # two blocks; the other points of each block are finite.  Where only t is
    # not finite, n1 and n2 are: the screen reads t for that case.
    u = np.linspace(0.0, 1.0, 2000)
    v, second = np.full_like(u, 0.375), np.arange(len(u)) % 2 == 0
    surface = poisoned(entry, bad, u[700])
    u[1500] = u[700]
    got = outcome(lambda: components(surface, u, v, second))
    want = outcome(lambda: reference(surface, u, v, second))
    assert got == want
    assert want[0] is ValueError and "non-finite jet component in" in want[1]


def float32_fields(u, v, order=2):
    """x = u, y = v, t = u v / 3 in float32, with zero second partials."""
    u, v = np.asarray(u, np.float32), np.asarray(v, np.float32)
    one, zero = np.ones_like(u), np.zeros_like(u)
    return (u, v, u * v / 3), (one, zero, v / 7), (zero, one, u / 3)


def test_float32_entries_are_read_as_they_are():
    # Array entries are float64 or floats by the SurfaceHandle contract.  The
    # step does not copy them to float64 as eval_jets does, so a formula
    # that returns float32 arrays gets its components in float32.
    u, v = np.linspace(0.1, 0.9, 50), np.linspace(0.2, 0.8, 50)
    second = np.arange(50) % 2 == 0
    (x, y, _), du, dv = float32_fields(u, v)
    n1, n2 = _normal_components.entries(x, y, du, dv)
    assert n1.dtype == n2.dtype == np.float32
    got = components(SurfaceHandle(Domain(0.0, 1.0, 0.0, 1.0), float32_fields), u, v, second)
    assert got.tobytes() == np.where(second, n2, n1).astype(float).tobytes()


def test_float32_node_and_root_rows_are_read_as_they_are():
    # Nodes and roots read the entries as the formula returns them too: their
    # rows are the float32 results of the horizontal formulas, written into
    # float64 rows.  n2 = -7 u / 3 changes sign between the grid columns
    # next to u = 0, so the scan has roots.
    surface = SurfaceHandle(Domain(-1.0, 1.0, -1.0, 1.0), float32_fields)
    written = locus_row_blocks(surface, (40, 37))
    assert sum(len(u) for u, _, _ in written) > 40 * 37
    for u, v, rows in written:
        (x, y, t), du, dv = float32_fields(u, v)
        with np.errstate(all="ignore"):
            want = (*_normal_components.entries(x, y, du, dv),
                    _threshold(x, y, du, dv, locus.KEEP_TOL), x, y, t)
        assert [w.dtype for w in want] == [np.float32] * 6
        assert rows.tobytes() == np.array(want, float).tobytes()


@pytest.mark.parametrize("name", ["paraboloid", "plane_t0", "plane_flow_patch", "cone_lower",
                                  "circle_lift_developable", "ruled"])
def test_scans_call_eval_jets_only_on_a_non_finite_entry(name, monkeypatch):
    # Nodes, bisection steps and roots run the formula directly, and their
    # entries are finite here: neither eval_jets nor the finite check runs,
    # though the scan bisects edges and writes the rows of their roots.
    surface = random_ruled(1)[0] if name == "ruled" else catalog_get(name)
    calls = []
    monkeypatch.setattr(locus, "eval_jets", lambda *args: calls.append(args))
    monkeypatch.setattr(locus, "_check_finite", lambda *args: calls.append(args))
    written = locus_row_blocks(surface, (101, 101))
    assert calls == []
    # plane_t0's sign changes sit on nodes, so its scan has no root
    assert (sum(len(u) for u, _, _ in written) > 101 * 101) == (name != "plane_t0")
    assert not any(isinstance(rows, tuple) for _, _, rows in written)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("name", [*CATALOG, *CYLINDERS])
def test_fixed_coordinate_is_the_node_coordinate(name, grid):
    # w is the node coordinate itself: the bits 0.5 * (w + w) had wherever
    # w + w is finite; every midpoint keeps one coordinate of a node
    us, vs = catalog_get(name).domain.linspace(*grid)
    for axis in (us, vs):
        assert (0.5 * (axis + axis)).view(np.int64).tolist() == axis.view(np.int64).tolist()
    for u, v, _ in scanned(catalog_get(name), [grid]):
        assert (np.isin(u.view(np.int64), us.view(np.int64))
                | np.isin(v.view(np.int64), vs.view(np.int64))).all()


def test_midpoints_keep_their_bits_and_guard_only_overflowing_sums():
    # bracket ends of every exponent, and 500 pairs of ends past half the
    # float range, half of them of one sign (whose sum overflows)
    rng = np.random.default_rng(7)
    small = rng.uniform(-1.0, 1.0, 500) * 2.0 ** rng.integers(-1074, 1023, 500)
    big = rng.uniform(0.5, 1.0, 500) * np.finfo(float).max * rng.choice([-1.0, 1.0], 500)
    a = np.concatenate((small, big))
    b = np.concatenate((-small * rng.uniform(0.5, 1.0, 500),
                        big * rng.choice([-1.0, 1.0], 500) * rng.uniform(0.5, 1.0, 500)))
    with np.errstate(over="ignore"):
        plain = 0.5 * (a + b)
    over = np.isinf(plain)
    assert 100 < over.sum() < 400
    with np.errstate(all="ignore"):
        got = locus._midpoints(a, b)
    assert got[~over].tobytes() == plain[~over].tobytes()
    assert got[over].tobytes() == (0.5 * a[over] + 0.5 * b[over]).tobytes()
    assert ((np.fmin(a, b) <= got) & (got <= np.fmax(a, b))).all()


@pytest.mark.parametrize("refine", [None, 5, 0])
def test_locus_past_half_the_float_range(tmp_path, refine):
    # Brackets on [9e307, 9.5e307] have ends whose sum overflows: each step's
    # midpoints and the last roots stay inside the domain, with no RuntimeWarning.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "heisflow", "locus", str(path)]
    proc = subprocess.run(argv + ([] if refine is None else ["--refine", str(refine)]),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)["rows"]
    assert all(9.0e307 <= u <= 9.5e307 and 0.25 <= v <= 1.25 for u, v, *_ in rows)
    assert rows or refine is not None
