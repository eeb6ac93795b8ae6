"""Domains, 2-jets and affine reparametrization."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heisflow.builders import catalog_get, surface_from_dict
from heisflow.curvature import is_h_minimal
from scalar_curvature import scalar_jet
from heisflow.errors import NotRegular, OutOfDomain
from heisflow.patch import (
    Domain,
    SurfaceHandle,
    eval_jets,
    grid_points,
    jet2_batch,
    make_surface,
    reparametrize_affine,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


def quad_map(u, v):
    return (u * u + 0.5 * v, u * v, v * v - u)


def quad_fields(u, v, order=2):
    return (
        quad_map(u, v),
        (2.0 * u, v, -1.0),
        (0.5, u, 2.0 * v),
        (2.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 2.0),
    )


def quad_jet(u, v):
    return np.array(quad_fields(u, v), float)


def eval_one(surface, u, v):
    """The (6, 3) jet of one point, as a batch of one."""
    return eval_jets(surface, [u], [v])[0]


def test_domain_basic():
    assert DOM.u_span == 2.0 and DOM.v_span == 4.0
    assert DOM.contains(0.0, 0.0)
    assert DOM.contains(-1.0, 2.0)  # boundary included
    assert not DOM.contains(1.0001, 0.0)
    # elementwise on arrays, as eval_jets and the flow's batched field use it
    u = np.array([0.0, -1.0, 1.0001, math.nan])
    assert DOM.contains(u, np.zeros(4)).tolist() == [True, True, False, False]
    with pytest.raises(ValueError):
        Domain(1.0, -1.0, 0.0, 1.0)


def test_domain_linspace():
    us, vs = DOM.linspace(5, 3)
    assert us.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert vs.tolist() == [-2.0, 0.0, 2.0]
    ius, ivs = DOM.interior_linspace(3, 3)
    assert ius[0] > DOM.u_min and ius[-1] < DOM.u_max
    assert ivs[0] > DOM.v_min and ivs[-1] < DOM.v_max


# Domain bounds of normal, huge, tiny and subnormal size: on some subnormal
# spans np.linspace steps past its upper end.
BOUNDS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e307, 1e307),
                   st.floats(-1e-300, 1e-300), st.floats(-1e-320, 1e-320))
SUBNORMAL_SPAN = (-1.65e-321, 2.554e-321)


@given(ends=st.tuples(BOUNDS, BOUNDS).map(sorted).filter(lambda e: e[0] < e[1]),
       n=st.integers(2, 1000))
@example(ends=SUBNORMAL_SPAN, n=101)
def test_linspace_axes_stay_in_the_domain(ends, n):
    # every node in [lo, hi], the axis non-decreasing from lo to hi, and the
    # bits of np.linspace wherever it stayed inside
    dom = Domain(*ends, -1.0, 1.0)
    d = 1e-6 * dom.u_span
    for axis, lo, hi in ((dom.linspace(n, 2)[0], *ends),
                         (dom.interior_linspace(n, 2)[0], ends[0] + d, ends[1] - d)):
        raw = np.linspace(lo, hi, n)
        assert ((lo <= axis) & (axis <= hi)).all() and (np.diff(axis) >= 0.0).all()
        assert (axis[0], axis[-1]) == (lo, hi)
        inside = raw <= hi
        assert axis[inside].tobytes() == raw[inside].tobytes()


def test_linspace_clamps_a_subnormal_span():
    # np.linspace ends this axis 2.707e-321, 2.752e-321, 2.554e-321
    assert (np.linspace(*SUBNORMAL_SPAN, 101)[-3:-1] > SUBNORMAL_SPAN[1]).all()
    us, _ = Domain(*SUBNORMAL_SPAN, -1.0, 1.0).linspace(101, 2)
    assert us[-1] == us[-2] == us[-3] == SUBNORMAL_SPAN[1]
    # the grid checks read the axes too: a report, not OutOfDomain
    surface = surface_from_dict({
        "type": "graph", "domain": {"u": list(SUBNORMAL_SPAN), "v": [-1, 1]},
        "fu": [{"kind": "poly", "coeff": 0.5, "k": 2}],
        "fv": [{"kind": "poly", "coeff": 1.0, "k": 2}]})
    assert is_h_minimal(surface).grid == (101, 101)


def test_jet2_rejects_nonfinite():
    for fields, message in (
        (((0.0, math.nan, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), "in value: "),
        (((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 1.0, 0.0)), "in du: "),
    ):
        surf = SurfaceHandle(DOM, lambda u, v, fields=fields: fields)
        with pytest.raises(ValueError, match="non-finite jet component " + message):
            eval_jets(surf, [0.0], [0.0])


def test_jet2_defaults_zero_second_jets():
    j = jet2_batch(2, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert j.shape == (2, 6, 3)
    assert j[:, 0].tolist() == [[1.0, 2.0, 3.0]] * 2
    assert not j[:, 3:].any()


def test_make_surface_and_eval():
    surf = make_surface(quad_fields, DOM, label="quad")
    assert isinstance(surf, SurfaceHandle)
    assert surf.label == "quad"
    j = eval_one(surf, 0.25, -1.0)
    assert j[0].tolist() == list(quad_map(0.25, -1.0))
    with pytest.raises(OutOfDomain):
        eval_one(surf, 2.0, 0.0)


def test_make_surface_rejects_degenerate_patch():
    def collapsed(u, v):
        return (u + v, u + v, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0)

    with pytest.raises(NotRegular):
        make_surface(collapsed, DOM)


def test_reparametrize_affine_chain_rule():
    surf = make_surface(quad_fields, DOM, label="quad")
    a11, a12, a21, a22 = 0.5, 0.125, -0.25, 0.5
    b = (0.25, -0.5)
    new_dom = Domain(-1.0, 1.0, -1.0, 1.0)
    rep = reparametrize_affine(surf, ((a11, a12), (a21, a22)), b, new_dom)
    w1, w2 = 0.5, -0.75
    u = a11 * w1 + a12 * w2 + b[0]
    v = a21 * w1 + a22 * w2 + b[1]
    value, du, dv, duu, duv, dvv = eval_one(rep, w1, w2)
    b_value, b_du, b_dv, b_duu, b_duv, b_dvv = quad_jet(u, v)
    assert np.allclose(value, b_value, atol=1e-15)
    assert np.allclose(du, a11 * b_du + a21 * b_dv, atol=1e-14)
    assert np.allclose(dv, a12 * b_du + a22 * b_dv, atol=1e-14)
    assert np.allclose(
        duu,
        a11 * a11 * b_duu + 2.0 * a11 * a21 * b_duv + a21 * a21 * b_dvv,
        atol=1e-14,
    )
    assert np.allclose(
        duv,
        a11 * a12 * b_duu
        + (a11 * a22 + a12 * a21) * b_duv
        + a21 * a22 * b_dvv,
        atol=1e-14,
    )
    assert np.allclose(
        dvv,
        a12 * a12 * b_duu + 2.0 * a12 * a22 * b_duv + a22 * a22 * b_dvv,
        atol=1e-14,
    )


@pytest.mark.parametrize("name", ["vertical_plane_x0", "cylinder(1.0)"])
def test_reparametrize_affine_pads_short_formulas(name):
    # these formulas give three and four field triples; the missing second
    # partials are exact zeros and still go through the chain rule
    base = catalog_get(name)
    a11, a12, a21, a22 = 0.5, 0.125, -0.25, 0.5
    b1, b2 = 1.0, 0.0
    new_dom = Domain(-1.0, 1.0, -1.0, 1.0)
    rep = reparametrize_affine(base, ((a11, a12), (a21, a22)), (b1, b2), new_dom)
    w1, w2 = grid_points(*rep.domain.linspace(9, 7))
    want = []
    for x, y in zip(w1.tolist(), w2.tolist()):
        u, v = a11 * x + a12 * y + b1, a21 * x + a22 * y + b2
        value, du, dv, duu, duv, dvv = scalar_jet(base, u, v)
        want.append([
            value,
            a11 * du + a21 * dv,
            a12 * du + a22 * dv,
            a11 * a11 * duu + 2.0 * a11 * a21 * duv + a21 * a21 * dvv,
            a11 * a12 * duu + (a11 * a22 + a12 * a21) * duv + a21 * a22 * dvv,
            a12 * a12 * duu + 2.0 * a12 * a22 * duv + a22 * a22 * dvv,
        ])
    want = np.array(want)
    got = np.array([scalar_jet(rep, x, y) for x, y in zip(w1.tolist(), w2.tolist())])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert eval_jets(rep, w1, w2).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_reparametrize_affine_validation():
    surf = make_surface(quad_fields, DOM)
    small = Domain(-0.1, 0.1, -0.1, 0.1)
    with pytest.raises(ValueError):  # orientation-reversing
        reparametrize_affine(surf, ((-1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), small)
    with pytest.raises(OutOfDomain):  # corner image escapes the base domain
        reparametrize_affine(surf, ((1.0, 0.0), (0.0, 1.0)), (5.0, 0.0), small)
