"""The cone and the plane x = 0 on generated formulas, against the
hand-written formulas they replaced.

``cone_lower`` is one group over the term sum sin v, and
``vertical_plane_x0`` the cylinder over the line y = s.  Their jets must
equal those of the per-point formulas below bit for bit, at orders 1 and
2, on floats and on arrays, and so must their flow traces against the
references' traces through the generic slot (``conftest.generic_slot``).
The one difference is a sign of zero: a term sum starts at +0.0, so at a
parameter of exactly -0.0 the sum's entry is +0.0 where the formulas below
gave -0.0, and every product that reads it has the other sign of zero.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import generic_slot
from heisflow.builders import catalog_get
from heisflow.flow import integrate_flows
from heisflow.patch import Domain, SurfaceHandle


def cone_fields(u, v, order=2):
    """(u cos v, u sin v, u): math's cos and sin on a float, numpy's on an
    array."""
    if isinstance(v, np.ndarray):
        cv, sv = np.cos(v), np.sin(v)
    else:
        cv, sv = math.cos(v), math.sin(v)
    first = (u * cv, u * sv, u), (cv, sv, 1.0), (-u * sv, u * cv, 0.0)
    if order == 1:
        return first
    return first + ((0.0, 0.0, 0.0), (-sv, cv, 0.0), (-u * cv, -u * sv, 0.0))


REFERENCES = {
    "cone_lower": SurfaceHandle(Domain(-2.0, -0.5, 0.0, 2.0 * math.pi), cone_fields),
    "vertical_plane_x0": SurfaceHandle(
        Domain(-2.0, 2.0, -2.0, 2.0),
        lambda u, v, order=2: ((0.0, u, v), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ),
}
NAMES = sorted(REFERENCES)
# the parameter that the term sum reads, and the (field, coordinate) entries
# that read the sum's entry at that parameter: the cone's Y, Yu, Xv, duv x
# and dvv y, which read sin v, and the plane's Y = y
SUM_PARAMETER = {"cone_lower": 1, "vertical_plane_x0": 0}
READS_THE_SUM = {"cone_lower": [(0, 1), (1, 1), (2, 0), (4, 0), (5, 1)],
                 "vertical_plane_x0": [(0, 1)]}


def as_rows(fields, n):
    """Field triples as a (6, 3, n) array, the omitted ones +0.0."""
    out = np.zeros((6, 3, n))
    for f, triple in enumerate(fields):
        for c in range(3):
            out[f, c] = triple[c]
    return out


def assert_same_fields(name, u, v, order):
    """The catalog formula against the reference at the points (u, v), two
    floats or two arrays, bit for bit except for the signs of zero that
    read the term sum at a parameter of -0.0; returns those points' mask."""
    got = catalog_get(name).fields(u, v, order)
    want = REFERENCES[name].fields(u, v, order)
    if not isinstance(u, np.ndarray):
        assert all(type(x) is float for triple in got for x in triple)
    n = np.size(u)
    got, want = as_rows(got[: 3 * order], n), as_rows(want[: 3 * order], n)
    param = np.broadcast_to((u, v)[SUM_PARAMETER[name]], (n,))
    at_zero = (param == 0.0) & np.signbit(param)
    for f, c in READS_THE_SUM[name]:
        if f >= 3 * order:
            continue
        g, w = got[f, c, at_zero], want[f, c, at_zero]
        assert (g == 0.0).all() and (w == 0.0).all() and (np.signbit(g) != np.signbit(w)).all()
        got[f, c, at_zero] = w
    assert (got.view(np.int64) == want.view(np.int64)).all(), (name, order)
    return at_zero


def edge_grid(name):
    """An 11 x 13 grid over the closed domain, its edges included (the
    cone's v = 0 and v = 2 pi)."""
    dom = REFERENCES[name].domain
    us, vs = np.linspace(dom.u_min, dom.u_max, 11), np.linspace(dom.v_min, dom.v_max, 13)
    return np.repeat(us, 13), np.tile(vs, 11)


def test_catalog_formulas_match_the_closures_on_the_edge_grid():
    for name in NAMES:
        assert catalog_get(name).domain == REFERENCES[name].domain
        u, v = edge_grid(name)
        for order in (1, 2):
            assert not assert_same_fields(name, u, v, order).any()
            for p, q in zip(u.tolist(), v.tolist()):
                assert_same_fields(name, p, q, order)


def test_a_term_sum_gives_plus_zero_at_minus_zero():
    # the cone at v = -0.0: sin v is +0.0, where the closure's was -0.0, so
    # Y = u sin v is -0.0 for the cone's negative u; the plane at u = -0.0:
    # y = 0.0 + 1.0 * u is +0.0
    cone = catalog_get("cone_lower").fields(-1.0, -0.0)
    assert math.copysign(1.0, cone[1][1]) == 1.0 and math.copysign(1.0, cone[0][1]) == -1.0
    assert math.copysign(1.0, cone_fields(-1.0, -0.0)[0][1]) == 1.0
    plane = catalog_get("vertical_plane_x0").fields(-0.0, 0.5)
    assert math.copysign(1.0, plane[0][1]) == 1.0
    for name, point in (("cone_lower", (-1.0, -0.0)), ("vertical_plane_x0", (-0.0, 0.5))):
        for order in (1, 2):
            assert assert_same_fields(name, *point, order).all()
            assert assert_same_fields(name, *np.array([point]).T, order).all()


@st.composite
def points(draw, name):
    dom = REFERENCES[name].domain
    n = draw(st.integers(1, 6))
    u = draw(st.lists(st.floats(dom.u_min, dom.u_max), min_size=n, max_size=n))
    v = draw(st.lists(st.floats(dom.v_min, dom.v_max), min_size=n, max_size=n))
    return u, v


@given(data=st.data(), name=st.sampled_from(NAMES), order=st.sampled_from([1, 2]))
def test_catalog_formulas_match_the_closures_at_random_points(data, name, order):
    u, v = data.draw(points(name))
    assert_same_fields(name, np.array(u), np.array(v), order)
    for p, q in zip(u, v):
        assert_same_fields(name, p, q, order)


def assert_same_traces(name, seeds, ds, max_steps):
    got = integrate_flows(catalog_get(name), seeds, ds=ds, max_steps=max_steps)
    want = integrate_flows(generic_slot(REFERENCES[name]), seeds, ds=ds, max_steps=max_steps)
    for g, w in zip(got, want, strict=True):
        assert (g is None) == (w is None)
        if g is None:
            continue
        assert (g.stop_backward, g.stop_forward, g.seed_index) == (
            w.stop_backward, w.stop_forward, w.seed_index)
        for a, b in ((g.points, w.points), (g.uv, w.uv), (g.arc, w.arc)):
            assert a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


def test_catalog_flows_match_the_closures_on_a_seed_grid():
    for name in NAMES:
        dom = REFERENCES[name].domain
        seeds = [(dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span)
                 for fu in (0.1, 0.5, 0.9) for fv in (0.0, 0.3, 0.7, 1.0)]
        assert_same_traces(name, seeds, 1e-2, 400)


@given(data=st.data(), name=st.sampled_from(NAMES), ds=st.sampled_from([1e-3, 3e-2, 0.2]),
       max_steps=st.integers(1, 300))
def test_catalog_flows_match_the_closures_at_random_seeds(data, name, ds, max_steps):
    u, v = data.draw(points(name))
    # a seed at a parameter of -0.0 has a trace of its own, below
    seeds = [seed for seed in zip(u, v)
             if math.copysign(1.0, seed[SUM_PARAMETER[name]]) > 0.0]
    assert_same_traces(name, seeds, ds, max_steps)


def test_a_flow_from_minus_zero_differs_in_the_sign_of_its_seed_y():
    for name, seed in (("cone_lower", (-1.0, -0.0)), ("vertical_plane_x0", (-0.0, 0.5))):
        (got,) = integrate_flows(catalog_get(name), [seed])
        (want,) = integrate_flows(generic_slot(REFERENCES[name]), [seed])
        i = got.seed_index
        assert got.points[i, 1] == 0.0 and want.points[i, 1] == 0.0
        assert np.signbit(got.points[i, 1]) != np.signbit(want.points[i, 1])
        want.points[i, 1] = got.points[i, 1]
        assert (got.points.view(np.int64) == want.points.view(np.int64)).all()
        assert (got.uv.view(np.int64) == want.uv.view(np.int64)).all()
        assert (got.stop_backward, got.stop_forward) == (want.stop_backward, want.stop_forward)
