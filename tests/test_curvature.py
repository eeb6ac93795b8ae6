"""Mean-curvature formulas, the flow oracle and minimality reports."""

import math

import numpy as np
import pytest

from conftest import local_H, ts
from heisflow.builders import CurveSpec, build_cylinder, build_graph_separable
from heisflow import curvature, verify
from heisflow.builders import catalog_get
from heisflow.curvature import (
    MINIMALITY_BAND,
    _grid_max_error,
    _has_stencil,
    _seed_curvatures,
    _signed_curvatures,
    curvature_scan,
    is_h_minimal,
    mean_curvature_batch,
)
from heisflow.errors import CharacteristicPoint, ZeroSpeed
from heisflow.flow import integrate_flows
from heisflow.horizontal import horizontal_normal_batch
from heisflow.patch import Domain, eval_jets, reparametrize_affine
from scalar_curvature import reference_local, reference_quotient


def oracle_H(surface, u, v, ds=1e-3, n_steps=3):
    """The flow oracle at one point: the signed curvature, at the seed, of
    the projected leaf traced n_steps each way."""
    (trace,) = integrate_flows(surface, [(u, v)], ds=ds, max_steps=n_steps)
    assert _has_stencil(trace)
    return float(_seed_curvatures([trace])[0])


def unit_normal(surface, u, v):
    """(nu1, nu2) = N^h / ||N^h|| at one point."""
    (n1,), (n2,), (q,) = horizontal_normal_batch(eval_jets(surface, [u], [v]))
    return n1 / q, n2 / q


def test_signed_curvature_plane_frozen():
    def kappa(d1, d2):
        return _signed_curvatures(np.array([d1]).T, np.array([d2]).T).tolist()

    assert kappa((0.0, 1.0), (-1.0, 0.0)) == [1.0]  # ccw circle
    assert kappa((0.0, -1.0), (-1.0, 0.0)) == [-1.0]  # cw circle
    assert kappa((2.0, 0.0), (0.0, 0.0)) == [0.0]  # line
    assert kappa((1.0, 0.0), (0.0, 2.0)) == [2.0]  # parabola apex
    with pytest.raises(ZeroSpeed):
        kappa((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_cylinder_curvature_is_inverse_radius(radius):
    profile = CurveSpec(
        ts(("cos", radius, 1)), ts(("sin", radius, 1)), ts(), (0.0, 2.0 * math.pi)
    )
    surf = build_cylinder(profile, (-1.0, 1.0))
    scan = curvature_scan([surf], [0.3, 2.0, 5.5], [-0.5, 0.75, 0.0])
    assert scan.H[0].tolist() == pytest.approx([1.0 / radius] * 3, rel=1e-13, abs=0.0)
    assert not scan.char.any()


def test_parabola_profile_cylinder_curvature():
    # profile (s, s^2): plane curvature 2 / (1 + 4 s^2)^(3/2)
    profile = CurveSpec(ts(("poly", 1.0, 1)), ts(("poly", 1.0, 2)), ts(), (-1.0, 1.0))
    surf = build_cylinder(profile, (-1.0, 1.0))
    assert local_H(surf, 0.0, 0.2) == pytest.approx(2.0, rel=1e-12)
    assert local_H(surf, 0.5, -0.4) == pytest.approx(
        2.0 / (1.0 + 1.0) ** 1.5, rel=1e-12
    )


def test_cone_closed_form(cone):
    u, v = -1.0, 0.7
    batch = mean_curvature_batch(eval_jets(cone, [u], [v]))
    assert batch.H[0] == pytest.approx(-(5.0 ** -1.5), rel=1e-12)
    assert batch.nh_norm[0] == pytest.approx(math.sqrt(5.0), rel=1e-13)
    assert local_H(cone, u, v) == batch.H[0]
    r = math.sqrt(1.0 + 4.0 * u * u)
    nu1, nu2 = unit_normal(cone, u, v)
    assert nu1 == pytest.approx((math.cos(v) - 2.0 * u * math.sin(v)) / r, rel=1e-12)
    assert nu2 == pytest.approx((math.sin(v) + 2.0 * u * math.cos(v)) / r, rel=1e-12)


def test_paraboloid_curvature_vanishes_exactly(paraboloid):
    scan = curvature_scan([paraboloid], [0.5, -1.0, 1.2], [0.25, 0.3, 1.2])
    assert scan.H[0].tolist() == [0.0, 0.0, 0.0]


def test_vertical_plane_is_minimal():
    from heisflow.builders import catalog_get

    surf = catalog_get("vertical_plane_x0")
    assert local_H(surf, 0.7, -1.1) == 0.0


def test_quotient_agrees_where_projection_is_immersive(cone):
    for u, v in ((-0.8, 1.0), (-1.7, 4.2)):
        local = local_H(cone, u, v)
        quot = reference_quotient(cone, u, v)
        assert quot == pytest.approx(local, rel=1e-9)


def test_quotient_convention_on_vertical_tangency(unit_cylinder):
    # d(x,y) = 0 identically on a cylinder: the quotient form falls back to
    # 0 by convention while the directional form reports the profile value
    assert reference_quotient(unit_cylinder, 1.0, 0.5) == 0.0
    assert local_H(unit_cylinder, 1.0, 0.5) == pytest.approx(1.0)


def test_fd_normal_derivatives_close_to_exact(cone):
    # central differences of nu^h itself, through the determinant quotient
    # (d(nu1, y) + d(x, nu2)) / d(x, y), against the exact-jet local formula
    u, v, h = -1.2, 3.0, 1e-5

    def nu(uu, vv):
        return unit_normal(cone, uu, vv)

    nu1_u, nu2_u = ((a - b) / (2.0 * h) for a, b in zip(nu(u + h, v), nu(u - h, v)))
    nu1_v, nu2_v = ((a - b) / (2.0 * h) for a, b in zip(nu(u, v + h), nu(u, v - h)))
    (xu, yu, _), (xv, yv, _) = eval_jets(cone, [u], [v])[0, 1:3].tolist()
    fd = ((nu1_u * yv - nu1_v * yu) + (xu * nu2_v - xv * nu2_u)) / (xu * yv - yu * xv)
    assert fd == pytest.approx(local_H(cone, u, v), abs=1e-6)


def test_graph_divergence_identity():
    # on a graph d(x,y) = 1 and H reduces to d(nu1)/du + d(nu2)/dv
    bowl = build_graph_separable(
        ts(("poly", 1.0, 2)), ts(("poly", 1.0, 2)), Domain(-1.0, 1.0, -1.0, 1.0)
    )
    u, v, h = 0.7, -0.3, 1e-5

    def nu(uu, vv):
        return unit_normal(bowl, uu, vv)

    div = (nu(u + h, v)[0] - nu(u - h, v)[0]) / (2.0 * h) + (
        nu(u, v + h)[1] - nu(u, v - h)[1]
    ) / (2.0 * h)
    assert local_H(bowl, u, v) == pytest.approx(div, abs=1e-6)


def test_characteristic_point_raises(paraboloid):
    with pytest.raises(CharacteristicPoint) as reference:
        reference_local(paraboloid, 0.3, -0.3)
    with pytest.raises(CharacteristicPoint) as scan:
        curvature_scan([paraboloid], [0.5, 0.3], [0.25, -0.3])
    assert str(scan.value) == str(reference.value)


def test_flow_oracle_cylinder():
    profile = CurveSpec(
        ts(("cos", 2.0, 1)), ts(("sin", 2.0, 1)), ts(), (0.0, 2.0 * math.pi)
    )
    surf = build_cylinder(profile, (-1.0, 1.0))
    assert oracle_H(surf, 0.8, 0.1) == pytest.approx(0.5, abs=1e-4)


def test_flow_oracle_ruled_vanishes(ruled_parabola):
    assert abs(oracle_H(ruled_parabola, 1.2, 0.7)) <= 1e-6


def test_flow_oracle_cone(cone):
    assert oracle_H(cone, -1.0, 0.7) == pytest.approx(
        -(5.0 ** -1.5), abs=1e-4
    )


def test_flow_oracle_reads_each_trace_step(cone):
    # one call over traces of different steps: each stencil uses its own ds
    traces = [integrate_flows(cone, [(-1.0, 0.7)], ds=ds, max_steps=3)[0] for ds in (1e-3, 3e-3)]
    got = _seed_curvatures(traces).tolist()
    for t, h in zip(traces, got):
        (x0, y0), (x1, y1), (x2, y2) = t.points[t.seed_index - 1 : t.seed_index + 2, :2].tolist()
        xd, yd = (x2 - x0) / (2.0 * t.ds), (y2 - y0) / (2.0 * t.ds)
        xdd, ydd = (x2 - 2.0 * x1 + x0) / (t.ds * t.ds), (y2 - 2.0 * y1 + y0) / (t.ds * t.ds)
        speed2 = xd * xd + yd * yd
        assert h == (xd * ydd - yd * xdd) / (speed2 * math.sqrt(speed2))
    assert got == pytest.approx([-(5.0 ** -1.5)] * 2, abs=1e-4)


def test_flow_oracle_needs_room(ruled_parabola):
    # flow moves only along v here, so a seed on the v edge starves one leg
    # and the oracle has no stencil there
    (trace,) = integrate_flows(ruled_parabola, [(1.2, 0.25)], max_steps=3)
    assert not _has_stencil(trace)
    assert trace.seed_index == len(trace) - 1 and trace.stop_forward == "domain-exit"


def test_is_h_minimal_paraboloid(paraboloid):
    report = is_h_minimal(paraboloid, grid=(41, 41))
    assert report.passed
    assert report.max_abs_H == 0.0
    assert report.n_skipped > 0  # the locus diagonal crosses the grid
    assert report.n_evaluated + report.n_skipped == 41 * 41


def test_is_h_minimal_rejects_cone(cone):
    report = is_h_minimal(cone, grid=(21, 21))
    assert not report.passed
    assert report.max_abs_H > 0.01
    assert report.argmax is not None


def test_is_h_minimal_all_skipped(paraboloid):
    # a sliver along u + v = 0 keeps every sample inside the conditioning
    # band (||N^h|| = 2 sqrt2 |u+v| < MINIMALITY_BAND scale)
    half = 0.4 * MINIMALITY_BAND
    sliver = reparametrize_affine(
        paraboloid,
        ((1.0, 0.0), (-1.0, 1.0)),
        (0.0, 0.0),
        Domain(-0.5, 0.5, -half, half),
    )
    report = is_h_minimal(sliver, grid=(5, 5))
    assert not report.passed
    assert report.n_evaluated == 0
    assert math.isnan(report.max_abs_H)


def test_grid_max_error_all_skipped_is_nan():
    worst, where, n_kept, n_skipped = _grid_max_error([catalog_get("plane_t0")], (3, 3), floor=1e9)
    assert math.isnan(worst)
    assert (where, n_kept, n_skipped) == (None, 0, 9)


def test_grid_check_with_every_point_skipped_fails(monkeypatch):
    scan = curvature.curvature_scan

    def skip_all(surfaces, u, v, floor=None):
        return scan(surfaces, u, v, floor=1e9)

    monkeypatch.setattr(curvature, "curvature_scan", skip_all)
    (result,) = verify.check_random_ruled_minimality(3)
    assert not result.passed
    assert math.isnan(result.stat)
    assert result.count == 0
