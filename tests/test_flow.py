"""Flow-leaf integration, stop reasons, horizontality and cc-length."""

import math
import re

import numpy as np
import pytest

from heisflow.builders import catalog_get
from heisflow.errors import CharacteristicPoint
from heisflow.flow import integrate_flow, integrate_flows
from heisflow.patch import eval_jets
from scalar_curvature import scalar_jet


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
    u, v = tr.uv[k].tolist()
    assert np.allclose(tr.points[k], eval_jets(ruled_parabola, [u], [v])[0, 0], atol=0.0)


@pytest.mark.parametrize(
    "surface, seed",
    [("ruled_parabola", (1.2, 0.7)), ("paraboloid", (0.3, 0.7)), ("cone", (-1.2, 2.0))],
)
def test_points_are_the_scalar_jet_values_bit_for_bit(request, surface, seed):
    surface = request.getfixturevalue(surface)
    tr = integrate_flow(surface, *seed, max_steps=300)
    ref = np.array([scalar_jet(surface, u, v)[0] for u, v in tr.uv.tolist()])
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
    # every copy of the seed in one integrate_flows call stops at the same point
    for many in integrate_flows(paraboloid, [seed] * 3, ds=ds, max_steps=150):
        assert many.uv.view(np.int64).tolist() == tr.uv.view(np.int64).tolist()
        assert (many.stop_backward, many.stop_forward) == (tr.stop_backward, tr.stop_forward)


def test_stop_reason_step_limit(unit_cylinder):
    tr = integrate_flow(unit_cylinder, 1.0, 0.0, ds=1e-3, max_steps=5)
    assert tr.stop_forward == "step-limit"
    assert tr.stop_backward == "step-limit"
    assert len(tr) == 11
    assert tr.seed_index == 5


def test_characteristic_seed_rejected(plane_t0):
    with pytest.raises(CharacteristicPoint):
        integrate_flow(plane_t0, 1e-9, 0.0)


def test_integrate_flow_validation(unit_cylinder, paraboloid):
    with pytest.raises(ValueError):
        integrate_flow(unit_cylinder, 1.0, 0.0, ds=0.0)
    with pytest.raises(ValueError):
        integrate_flow(unit_cylinder, 1.0, 0.0, max_steps=0)
    # rounding a step moves the projected point by up to e / 2, here with
    # e = ulp(0.5) + ulp(0.25); under 2e the chord test could report a false
    # characteristic-proximity stop, so 1e-17 is refused and 1e-15 traced
    message = "ds = 1e-17 is below 2e = 3.3306690738754696e-16 at the seed (0.5, 0.25)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_flow(paraboloid, 0.5, 0.25, ds=1e-17, max_steps=5)
    tr = integrate_flow(paraboloid, 0.5, 0.25, ds=1e-15, max_steps=5)
    assert len(tr) == 11
    assert (tr.stop_backward, tr.stop_forward) == ("step-limit", "step-limit")


# The tiny-step sweep: seven seeds, each with the number of its 152 steps
# (150 from 1e-18 to 1e-13 and the steps of the two reproducers of the CLI
# tests, whose seeds come first) that lie under the seed's 2e limit.  Steps
# of up to 1.48 e there stopped falsely with characteristic-proximity.
TINY_STEP_SWEEP = [
    ("cone_lower", (-1.9, 5.9), 109),
    ("circle_lift_developable", (1.0, 0.5), 88),
    ("paraboloid", (0.5, 0.25), 78),
    ("plane_flow_patch", (1.5, 1.0), 90),
    ("cylinder(1.0)", (1.0, 0.3), 81),
    ("cone_lower", (-1.0, 0.7), 87),
    ("paraboloid", (-0.3, 1.2), 84),
]


def test_tiny_step_sweep():
    steps = [*np.geomspace(1e-18, 1e-13, 150).tolist(), 2.2539339047347933e-16,
             1.2037516980200671e-16]
    refused = []
    for name, seed, want in TINY_STEP_SWEEP:
        surface = catalog_get(name)
        count = 0
        for ds in steps:
            try:
                tr = integrate_flow(surface, *seed, ds=ds, max_steps=10)
            except ValueError:
                count += 1
                continue
            # every step the bound lets through is a clean run
            assert "characteristic-proximity" not in (tr.stop_backward, tr.stop_forward)
        refused.append((name, seed, count))
    assert refused == TINY_STEP_SWEEP
    assert sum(count for *_, count in refused) == 617


def horizontality_residual(points: np.ndarray, ds: float) -> float:
    """Max |contact form on the central-difference velocity| along a trace:
    for an exactly horizontal curve, the O(ds^2) error of the sampling."""
    vel = (points[2:] - points[:-2]) / (2.0 * ds)
    mid = points[1:-1]
    omega = vel[:, 2] + 2.0 * (mid[:, 0] * vel[:, 1] - mid[:, 1] * vel[:, 0])
    return float(np.max(np.abs(omega)))


def test_horizontality_residual_scales(unit_cylinder, ruled_parabola):
    # helix leaves carry O(ds^2) discretization residual; rule lines are
    # horizontal to rounding
    tr = integrate_flow(unit_cylinder, 1.0, 0.2, ds=1e-3, max_steps=400)
    assert 0.0 < horizontality_residual(tr.points, tr.ds) < 1e-5
    tr2 = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=300)
    assert horizontality_residual(tr2.points, tr2.ds) < 1e-9


def cc_length(points: np.ndarray, ds: float, tol: float = 1e-6) -> float:
    """Carnot-Caratheodory length of a sampled horizontal curve.

    Horizontal curves have CC length equal to the Euclidean length of their
    complex-plane projection, which is what the chord sum below computes.
    Raises ValueError when the sampled contact residual exceeds ``tol``,
    since the projection formula is meaningless for non-horizontal data.
    """
    pts = np.asarray(points, dtype=float)
    res = horizontality_residual(pts, ds)
    if res > tol:
        raise ValueError(
            f"contact residual {res:.3e} exceeds {tol:.1e}; "
            "curve is not horizontal to sampling accuracy"
        )
    return float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))


def test_cc_length_matches_parameter_span(ruled_parabola):
    tr = integrate_flow(ruled_parabola, 1.2, 0.7, ds=1e-3, max_steps=300)
    span = float(tr.params[-1] - tr.params[0])
    assert cc_length(tr.points, tr.ds) == pytest.approx(span, rel=1e-10)


def test_cc_length_rejects_vertical_curve():
    s = np.arange(5) * 1e-3
    pts = np.column_stack([np.zeros(5), np.zeros(5), s])  # runs along T
    with pytest.raises(ValueError, match="curve is not horizontal"):
        cc_length(pts, 1e-3)
