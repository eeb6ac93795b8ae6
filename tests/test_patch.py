"""Domains, 2-jets, finite-difference jets and affine reparametrization."""

import math

import numpy as np
import pytest

from heisflow.builders import catalog_get
from heisflow.errors import NotRegular, OutOfDomain
from heisflow.patch import (
    Domain,
    Jet2,
    SurfaceHandle,
    eval_jet2,
    eval_jets,
    fd_jet2,
    fd_step,
    from_value_map,
    grid_points,
    jacobians,
    jet2,
    make_surface,
    reparametrize_affine,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


def quad_map(u, v):
    # dyadic quadratic: central differences are exact in binary arithmetic
    return (u * u + 0.5 * v, u * v, v * v - u)


def quad_fields(u, v):
    return (
        quad_map(u, v),
        (2.0 * u, v, -1.0),
        (0.5, u, 2.0 * v),
        (2.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 2.0),
    )


def quad_jet(u, v):
    return jet2(*quad_fields(u, v))


def test_domain_basic():
    assert DOM.u_span == 2.0 and DOM.v_span == 4.0
    assert DOM.contains(0.0, 0.0)
    assert DOM.contains(-1.0, 2.0)  # boundary included
    assert not DOM.contains(1.0001, 0.0)
    with pytest.raises(ValueError):
        Domain(1.0, -1.0, 0.0, 1.0)


def test_domain_linspace():
    us, vs = DOM.linspace(5, 3)
    assert us.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert vs.tolist() == [-2.0, 0.0, 2.0]
    ius, ivs = DOM.interior_linspace(3, 3)
    assert ius[0] > DOM.u_min and ius[-1] < DOM.u_max
    assert ivs[0] > DOM.v_min and ivs[-1] < DOM.v_max


def test_jet2_rejects_nonfinite():
    with pytest.raises(ValueError):
        jet2((0.0, math.nan, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        jet2((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_jet2_defaults_zero_second_jets():
    j = jet2((1.0, 2.0, 3.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert not j.duu.any() and not j.duv.any() and not j.dvv.any()


def test_jacobians_convention():
    # d(f, g) = f_u g_v - g_u f_v on du = (1, 2, 3), dv = (4, 5, 6)
    j = jet2((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    assert jacobians(j) == (2.0 * 6.0 - 3.0 * 5.0, 3.0 * 4.0 - 1.0 * 6.0, 1.0 * 5.0 - 2.0 * 4.0)


def test_fd_jet2_exact_on_dyadic_quadratic():
    # dyadic point and step keep every stencil value exactly representable
    u, v, h = 0.5, 0.25, 2.0 ** -6
    j = fd_jet2(quad_map, u, v, h=h)
    ref = quad_jet(u, v)
    for name in ("value", "du", "dv", "duu", "duv", "dvv"):
        assert getattr(j, name).tolist() == getattr(ref, name).tolist()


def test_fd_jet2_clips_to_domain():
    # near the u_max edge the u-step shrinks; quadratic FD stays exact
    j = fd_jet2(quad_map, 1.0 - 2.0 ** -8, 0.0, h=2.0 ** -4, domain=DOM)
    ref = quad_jet(1.0 - 2.0 ** -8, 0.0)
    assert j.du.tolist() == ref.du.tolist()
    assert j.duu.tolist() == ref.duu.tolist()


def test_fd_jet2_domain_errors():
    with pytest.raises(OutOfDomain):
        fd_jet2(quad_map, 1.5, 0.0, domain=DOM)
    with pytest.raises(OutOfDomain):  # pinned to the boundary: no room
        fd_jet2(quad_map, 1.0, 0.0, domain=DOM)
    with pytest.raises(ValueError):
        fd_jet2(quad_map, 0.0, 0.0, h=-1.0)


def test_fd_step_floor():
    assert fd_step(0.0, 0.0) == pytest.approx(1e-4)
    assert fd_step(1e6, 0.0) > 1.0e-4


def test_make_surface_and_eval():
    surf = make_surface(quad_fields, DOM, label="quad")
    assert isinstance(surf, SurfaceHandle)
    assert surf.label == "quad"
    j = eval_jet2(surf, 0.25, -1.0)
    assert j.value.tolist() == list(quad_map(0.25, -1.0))
    with pytest.raises(OutOfDomain):
        eval_jet2(surf, 2.0, 0.0)


def test_make_surface_rejects_degenerate_patch():
    def collapsed(u, v):
        return (u + v, u + v, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0)

    with pytest.raises(NotRegular):
        make_surface(collapsed, DOM)
    # opting out of the ambient-regularity grid check is allowed
    make_surface(collapsed, DOM, check_grid=None)


def test_from_value_map_matches_analytic_jets():
    surf = from_value_map(quad_map, DOM, h=2.0 ** -6)
    j = eval_jet2(surf, 0.125, 0.5)
    ref = quad_jet(0.125, 0.5)
    assert np.allclose(j.du, ref.du, rtol=0.0, atol=1e-12)
    assert np.allclose(j.duv, ref.duv, rtol=0.0, atol=1e-10)


def test_reparametrize_affine_chain_rule():
    surf = make_surface(quad_fields, DOM, label="quad")
    a11, a12, a21, a22 = 0.5, 0.125, -0.25, 0.5
    b = (0.25, -0.5)
    new_dom = Domain(-1.0, 1.0, -1.0, 1.0)
    rep = reparametrize_affine(surf, ((a11, a12), (a21, a22)), b, new_dom)
    w1, w2 = 0.5, -0.75
    u = a11 * w1 + a12 * w2 + b[0]
    v = a21 * w1 + a22 * w2 + b[1]
    j = eval_jet2(rep, w1, w2)
    base = quad_jet(u, v)
    assert np.allclose(j.value, base.value, atol=1e-15)
    assert np.allclose(j.du, a11 * base.du + a21 * base.dv, atol=1e-14)
    assert np.allclose(j.dv, a12 * base.du + a22 * base.dv, atol=1e-14)
    assert np.allclose(
        j.duu,
        a11 * a11 * base.duu + 2.0 * a11 * a21 * base.duv + a21 * a21 * base.dvv,
        atol=1e-14,
    )
    assert np.allclose(
        j.duv,
        a11 * a12 * base.duu
        + (a11 * a22 + a12 * a21) * base.duv
        + a21 * a22 * base.dvv,
        atol=1e-14,
    )
    assert np.allclose(
        j.dvv,
        a12 * a12 * base.duu + 2.0 * a12 * a22 * base.duv + a22 * a22 * base.dvv,
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
        j = eval_jet2(base, a11 * x + a12 * y + b1, a21 * x + a22 * y + b2)
        want.append([
            j.value,
            a11 * j.du + a21 * j.dv,
            a12 * j.du + a22 * j.dv,
            a11 * a11 * j.duu + 2.0 * a11 * a21 * j.duv + a21 * a21 * j.dvv,
            a11 * a12 * j.duu + (a11 * a22 + a12 * a21) * j.duv + a21 * a22 * j.dvv,
            a12 * a12 * j.duu + 2.0 * a12 * a22 * j.duv + a22 * a22 * j.dvv,
        ])
    want = np.array(want)
    got = [eval_jet2(rep, x, y) for x, y in zip(w1.tolist(), w2.tolist())]
    got = np.array([[j.value, j.du, j.dv, j.duu, j.duv, j.dvv] for j in got])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert eval_jets(rep, w1, w2).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_reparametrize_affine_validation():
    surf = make_surface(quad_fields, DOM)
    small = Domain(-0.1, 0.1, -0.1, 0.1)
    with pytest.raises(ValueError):  # orientation-reversing
        reparametrize_affine(surf, ((-1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), small)
    with pytest.raises(OutOfDomain):  # corner image escapes the base domain
        reparametrize_affine(surf, ((1.0, 0.0), (0.0, 1.0)), (5.0, 0.0), small)
