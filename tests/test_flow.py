"""Flow-leaf integration, stop reasons, horizontality and cc-length."""

import math

import numpy as np
import pytest

from heisflow.errors import CharacteristicPoint, NotHorizontal, TooFewSamples
from heisflow.flow import (
    LOCKSTEP_MIN_LEGS,
    cc_length,
    horizontality_residual,
    integrate_flow,
    integrate_flows,
)
from heisflow.patch import eval_jet2


def test_trace_structure(ruled_parabola):
    tr = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=200)
    n = len(tr)
    assert tr.points.shape == (n, 3)
    assert tr.uv.shape == (n, 2)
    assert tr.params.shape == (n,)
    assert tr.arc.shape == (n,)
    assert tr.params[tr.seed_index] == 0.0
    assert tr.arc[tr.seed_index] == 0.0
    assert np.allclose(np.diff(tr.params), tr.ds)
    # embedded points are the patch evaluated along the parameter path
    k = tr.seed_index + 7
    j = eval_jet2(ruled_parabola, *tr.uv[k])
    assert np.allclose(tr.points[k], j.value, atol=0.0)


@pytest.mark.parametrize(
    "surface, seed",
    [("ruled_parabola", (1.2, 0.7)), ("paraboloid", (0.3, 0.7)), ("cone", (-1.2, 2.0))],
)
def test_points_are_the_scalar_jet_values_bit_for_bit(request, surface, seed):
    surface = request.getfixturevalue(surface)
    tr = integrate_flow(surface, *seed, max_steps=300)
    ref = np.array([eval_jet2(surface, u, v).value for u, v in tr.uv.tolist()])
    assert tr.points.view(np.int64).tolist() == ref.view(np.int64).tolist()


def test_ruled_leaves_are_rule_lines(ruled_parabola):
    # flow moves along v only: u frozen, projection an exact straight line
    tr = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=300)
    assert np.abs(tr.uv[:, 0] - 1.2).max() == 0.0
    xy = tr.points[:, :2]
    second = np.diff(xy, n=2, axis=0)
    assert np.abs(second).max() <= 1e-12


def test_stop_reasons_plane(plane_t0):
    # radial leaves: outward leg exits the domain, inward leg dies on the
    # characteristic point at the origin
    tr = integrate_flow(plane_t0, 1.0, 0.5, ds=1e-3, max_steps=3000)
    assert tr.stop_forward == "domain-exit"
    assert tr.stop_backward == "characteristic-proximity"
    r = np.hypot(tr.uv[:, 0], tr.uv[:, 1])
    assert r.min() < 1e-3  # pinned close to the locus before stopping


@pytest.mark.parametrize(
    "seed", [(0.012072293540404733, -0.2240575989740221), (-1.3105, 1.1793)]
)
def test_reversed_stage_stops_the_leg(paraboloid, seed):
    # The backward legs end next to the locus u + v = 0 with a step whose
    # k2, k3 or k4 lies across it and reverses; accepting that step left a
    # last chord of 2/3 of the step and a planar second difference of 333.
    ds = 1e-3
    tr = integrate_flow(paraboloid, *seed, ds=ds, max_steps=150)
    assert tr.stop_backward == "characteristic-proximity"
    xy = tr.points[:, :2]
    second = np.hypot(*((xy[2:] - 2.0 * xy[1:-1] + xy[:-2]) / (ds * ds)).T)
    assert second.max() <= 1e-4
    # integrate_flow steps its 2 legs one at a time; with this many legs
    # integrate_flows runs the lockstep stepper, which stops at the same point
    (lock, *_) = integrate_flows(paraboloid, [seed] * LOCKSTEP_MIN_LEGS, ds=ds, max_steps=150)
    assert lock.uv.view(np.int64).tolist() == tr.uv.view(np.int64).tolist()
    assert (lock.stop_backward, lock.stop_forward) == (tr.stop_backward, tr.stop_forward)


def test_stop_reason_step_limit(unit_cylinder):
    tr = integrate_flow(unit_cylinder, 1.0, 0.0, ds=1e-3, max_steps=5)
    assert tr.stop_forward == "step-limit"
    assert tr.stop_backward == "step-limit"
    assert len(tr) == 11
    assert tr.seed_index == 5


def test_characteristic_seed_rejected(plane_t0):
    with pytest.raises(CharacteristicPoint):
        integrate_flow(plane_t0, 1e-9, 0.0)


def test_integrate_flow_validation(unit_cylinder):
    with pytest.raises(ValueError):
        integrate_flow(unit_cylinder, 1.0, 0.0, ds=0.0)
    with pytest.raises(ValueError):
        integrate_flow(unit_cylinder, 1.0, 0.0, max_steps=0)


def test_horizontality_residual_scales(unit_cylinder, ruled_parabola):
    # helix leaves carry O(ds^2) discretization residual; rule lines are
    # horizontal to rounding
    tr = integrate_flow(unit_cylinder, 1.0, 0.2, ds=1e-3, max_steps=400)
    assert 0.0 < horizontality_residual(tr.points, tr.ds) < 1e-5
    tr2 = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=300)
    assert horizontality_residual(tr2.points, tr2.ds) < 1e-9


def test_horizontality_residual_validation():
    with pytest.raises(TooFewSamples):
        horizontality_residual(np.zeros((2, 3)), 1e-3)
    with pytest.raises(ValueError):
        horizontality_residual(np.zeros((5, 2)), 1e-3)


def test_cc_length_matches_parameter_span(ruled_parabola):
    tr = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=300)
    span = float(tr.params[-1] - tr.params[0])
    assert cc_length(tr.points, tr.ds) == pytest.approx(span, rel=1e-10)


def test_cc_length_rejects_vertical_curve():
    s = np.arange(5) * 1e-3
    pts = np.column_stack([np.zeros(5), np.zeros(5), s])  # runs along T
    with pytest.raises(NotHorizontal):
        cc_length(pts, 1e-3)
