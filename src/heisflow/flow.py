"""Integration of the horizontal flow on a surface patch.

Away from the characteristic locus the kernel of the pulled-back contact
form is spanned by (p_v, -p_u); normalizing by ||N^h|| makes the pushforward
a unit horizontal vector, so the flow parameter is arc length of the
complex-plane projection.  Leaves are traced with a fixed-step classical
RK4 scheme in both directions from the seed.

A leg stops for one of three reasons:

* ``domain-exit``: an RK4 stage or the accepted point left the parameter
  rectangle;
* ``characteristic-proximity``: ||N^h|| dropped under STOP_FACTOR times the
  scale-aware threshold, or the field direction reversed between
  consecutive accepted points (the step straddled the locus, where the
  kernel field flips sign);
* ``step-limit``: max_steps completed without either event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicPoint,
    NotHorizontal,
    OutOfDomain,
    TooFewSamples,
)
from .horizontal import EPS_CHAR, _normal_components, _pullback_coeffs, char_threshold
from .patch import SurfaceHandle, eval_jet2, eval_jets

__all__ = [
    "STOP_FACTOR",
    "FlowTrace",
    "integrate_flow",
    "horizontality_residual",
    "cc_length",
]

# Legs stop when ||N^h|| falls below STOP_FACTOR times the characteristic
# threshold; tighter than the NEAR_CHAR_FACTOR reporting band so that traces
# get as close to the locus as the field stays integrable.
STOP_FACTOR = 10.0


class _LegStop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


@dataclass(frozen=True)
class FlowTrace:
    """A flow leaf sampled at uniform parameter steps.

    ``params`` is the flow parameter, zero at the seed; since the projected
    speed is 1 it doubles as projected arc length up to integration error.
    ``arc`` is the chordal projected arc length, also zero at the seed and
    negative on the backward side.
    """

    params: np.ndarray  # (n,)
    points: np.ndarray  # (n, 3) embedded surface points
    uv: np.ndarray  # (n, 2) parameter locations
    arc: np.ndarray  # (n,)
    ds: float
    seed_index: int
    stop_backward: str
    stop_forward: str

    def __len__(self) -> int:
        return self.points.shape[0]


def _field(surface: SurfaceHandle, u: float, v: float, eps_char: float):
    j = eval_jet2(surface, u, v)
    n1, n2 = _normal_components(j)
    q = math.hypot(n1, n2)
    if q < STOP_FACTOR * char_threshold(j, eps_char):
        raise _LegStop("characteristic-proximity")
    p_u, p_v = _pullback_coeffs(j)
    return p_v / q, -p_u / q, float(j.value[0]), float(j.value[1])


def _leg(surface, u0, v0, h, max_steps, eps_char):
    """One direction of the leaf; returns accepted (u, v) pairs and a reason."""
    pts: list[tuple[float, float]] = []
    try:
        f = _field(surface, u0, v0, eps_char)
    except (OutOfDomain, _LegStop):
        # Caller has already validated the seed; only reachable if the seed
        # sits exactly on the stop band edge.
        return pts, "characteristic-proximity"
    u, v = u0, v0
    reason = "step-limit"
    for _ in range(max_steps):
        try:
            k1 = f
            k2 = _field(surface, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], eps_char)
            k3 = _field(surface, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], eps_char)
            k4 = _field(surface, u + h * k3[0], v + h * k3[1], eps_char)
            un = u + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            vn = v + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            fn = _field(surface, un, vn, eps_char)
        except OutOfDomain:
            reason = "domain-exit"
            break
        except _LegStop as stop:
            reason = stop.reason
            break
        if fn[0] * f[0] + fn[1] * f[1] < 0.0:
            # Field reversed within one step: the leaf crossed the
            # characteristic locus between samples.  Reject the new point.
            reason = "characteristic-proximity"
            break
        if math.hypot(fn[2] - f[2], fn[3] - f[3]) < 0.5 * abs(h):
            # A leaf has unit projected speed; a collapsing projected chord
            # means the substeps straddle the locus and cancel, pinning the
            # integrator against a characteristic point.
            reason = "characteristic-proximity"
            break
        pts.append((un, vn))
        u, v, f = un, vn, fn
    return pts, reason


def integrate_flow(
    surface: SurfaceHandle,
    u: float,
    v: float,
    *,
    ds: float = 1e-3,
    max_steps: int = 2000,
    eps_char: float = EPS_CHAR,
) -> FlowTrace:
    """Trace the flow leaf through (u, v) in both directions."""
    if not (ds > 0.0 and math.isfinite(ds)):
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    j = eval_jet2(surface, u, v)
    n1, n2 = _normal_components(j)
    q = math.hypot(n1, n2)
    if q < STOP_FACTOR * char_threshold(j, eps_char):
        raise CharacteristicPoint(
            f"seed too close to the characteristic locus: ||N^h|| = {q:.3e}"
        )

    fwd, stop_fwd = _leg(surface, u, v, ds, max_steps, eps_char)
    bwd, stop_bwd = _leg(surface, u, v, -ds, max_steps, eps_char)

    uv = np.array(bwd[::-1] + [(u, v)] + fwd, dtype=float)
    seed_index = len(bwd)
    points = eval_jets(surface, uv[:, 0], uv[:, 1])[:, 0]
    params = (np.arange(len(uv)) - seed_index) * ds
    chords = np.hypot(np.diff(points[:, 0]), np.diff(points[:, 1]))
    arc = np.concatenate(([0.0], np.cumsum(chords)))
    arc -= arc[seed_index]
    return FlowTrace(params, points, uv, arc, ds, seed_index, stop_bwd, stop_fwd)


def horizontality_residual(points: np.ndarray, ds: float) -> float:
    """Max |contact form on the central-difference velocity| along a trace.

    For an exactly horizontal curve this is the O(ds^2) discretization error
    of the sampling, so it doubles as an integration-quality metric.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    if pts.shape[0] < 3:
        raise TooFewSamples(
            f"need at least 3 samples for a central difference, got {pts.shape[0]}"
        )
    vel = (pts[2:] - pts[:-2]) / (2.0 * ds)
    mid = pts[1:-1]
    omega = vel[:, 2] + 2.0 * (mid[:, 0] * vel[:, 1] - mid[:, 1] * vel[:, 0])
    return float(np.max(np.abs(omega)))


def cc_length(points: np.ndarray, ds: float, tol: float = 1e-6) -> float:
    """Carnot-Caratheodory length of a sampled horizontal curve.

    Horizontal curves have CC length equal to the Euclidean length of their
    complex-plane projection, which is what the chord sum below computes.
    Raises NotHorizontal when the sampled contact residual exceeds ``tol``,
    since the projection formula is meaningless for non-horizontal data.
    """
    pts = np.asarray(points, dtype=float)
    res = horizontality_residual(pts, ds)
    if res > tol:
        raise NotHorizontal(
            f"contact residual {res:.3e} exceeds {tol:.1e}; "
            "curve is not horizontal to sampling accuracy"
        )
    return float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
