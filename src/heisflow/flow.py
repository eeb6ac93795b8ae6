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
  scale-aware threshold, or the field at an RK4 stage or at the new point
  reversed against the field at the step's start (the step straddled the
  locus, where the kernel field flips sign), or the projected chord of the
  step collapsed under half the step;
* ``step-limit``: max_steps completed without either event.

:func:`integrate_flows` traces many leaves of one surface, each leg on
its own through the scalar stepper :func:`_leg`.  An RK4 stage reads the
value and first partials alone, so the flow field, :func:`_field_of`, runs
the surface's field formula at order 1 on Python floats; it is built once
per call, for the seeds and every stage, and a formula built from term
sums makes one generated jet call per stage.  The seeds and the reported
points of a trace are evaluated, and screened, with full 2-jets by
:func:`heisflow.patch.eval_jets`.  :func:`integrate_flow` is its one-seed
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CharacteristicPoint, OutOfDomain
from .horizontal import EPS_CHAR, horizontal_normal_batch
from .patch import (
    SurfaceHandle,
    _check_finite,
    _out_of_domain,
    eval_jets,
    jet2_batch,
)

__all__ = [
    "STOP_FACTOR",
    "FlowTrace",
    "integrate_flow",
    "integrate_flows",
]

# Legs stop when ||N^h|| falls below STOP_FACTOR times the characteristic
# threshold; tighter than the NEAR_CHAR_FACTOR reporting band so that traces
# get as close to the locus as the field stays integrable.
STOP_FACTOR = 10.0


class _LegStop(Exception):
    """The field is in the characteristic stop band."""


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


def _field_of(surface: SurfaceHandle):
    """The flow field of ``surface``, ``field(u, v)``: (du, dv) and the
    point's x, y from the first-order field formula on Python floats (see
    :class:`heisflow.patch.SurfaceHandle`), or _LegStop where ||N^h|| is in
    the stop band.  ||N^h||, the threshold and (p_u, p_v) are the arithmetic
    of :mod:`heisflow.horizontal`'s ``_normal_components``, ``_threshold``
    and ``_pullback_coeffs``, in their order.  The domain bounds and the
    formula are read once, here.

    It raises what :func:`heisflow.patch.eval_jets` raises about the value
    and first partials.  One sum of the nine components screens them: only
    if it is not finite does the per-component check run, so a finite jet
    whose sum overflows passes as it does in ``eval_jets``."""
    dom, fields = surface.domain, surface.fields
    u_min, u_max, v_min, v_max = dom.u_min, dom.u_max, dom.v_min, dom.v_max
    sqrt, hypot = math.sqrt, math.hypot

    def field(u: float, v: float):
        if not (u_min <= u <= u_max and v_min <= v <= v_max):
            raise _out_of_domain(dom, u, v)
        (x, y, t), (xu, yu, tu), (xv, yv, tv) = fields(u, v, 1)[:3]
        if not math.isfinite(x + y + t + xu + yu + tu + xv + yv + tv):
            _check_finite(jet2_batch(1, (x, y, t), (xu, yu, tu), (xv, yv, tv)))
        jxy = xu * yv - yu * xv
        q = hypot((yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy)
        thr = EPS_CHAR * (1.0 + sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))
        if q < STOP_FACTOR * thr:
            raise _LegStop
        return (tv + 2.0 * (x * yv - y * xv)) / q, -(tu + 2.0 * (x * yu - y * xu)) / q, x, y

    return field


def _leg(field, u, v, h, f, max_steps):
    """One direction of the leaf of ``field`` (:func:`_field_of`) from the
    seed (u, v), whose field ``f`` the caller has found finite and clear of
    the stop band; returns accepted (u, v) pairs and a reason."""
    pts: list[tuple[float, float]] = []
    reason = "step-limit"
    for _ in range(max_steps):
        try:
            k1 = f
            k2 = field(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = field(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = field(u + h * k3[0], v + h * k3[1])
            un = u + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            vn = v + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            fn = field(un, vn)
        except OutOfDomain:
            reason = "domain-exit"
            break
        except _LegStop:
            reason = "characteristic-proximity"
            break
        if (
            k2[0] * f[0] + k2[1] * f[1] < 0.0
            or k3[0] * f[0] + k3[1] * f[1] < 0.0
            or k4[0] * f[0] + k4[1] * f[1] < 0.0
            or fn[0] * f[0] + fn[1] * f[1] < 0.0
        ):
            # Field reversed within one step: a stage or the new point lies
            # across the characteristic locus, where the field flips sign.
            # Reject the new point.
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


def integrate_flows(
    surface: SurfaceHandle,
    seeds,
    *,
    ds: float = 1e-3,
    max_steps: int = 2000,
) -> list[FlowTrace | None]:
    """Trace the flow leaf through each seed (u, v) in both directions.

    Returns one :class:`FlowTrace` per seed, or None where the seed is too
    close to the characteristic locus (where :func:`integrate_flow`
    raises CharacteristicPoint).  Any other seed whose field is not finite,
    or where ``ds`` is under twice its rounding scale, raises ValueError.
    Each leg, forward then backward from each seed, is stepped on its own.
    """
    if not (ds > 0.0 and math.isfinite(ds)):
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    seeds = np.asarray(seeds, float).reshape(-1, 2)
    jets = eval_jets(surface, seeds[:, 0], seeds[:, 1])
    field = _field_of(surface)
    ok, fs = [], []  # the seeds clear of the stop band, and the field there
    for i, (u, v) in enumerate(seeds.tolist()):
        try:
            f = field(u, v)
        except _LegStop:
            continue
        if not (math.isfinite(f[0]) and math.isfinite(f[1])):
            raise ValueError(f"the field is not finite at the seed ({u}, {v})")
        ok.append(i)
        fs.append(f)
    starts = seeds[ok]
    # Rounding a step's new (u, v) moves its projected point by up to e / 2,
    # e = ulp(u) |(x_u, y_u)| + ulp(v) |(x_v, y_v)|, so a step under 2 e
    # could read as a collapsed chord, a false characteristic-proximity stop.
    with np.errstate(over="ignore"):
        lim = 2.0 * (np.spacing(np.abs(starts)) * np.hypot(*jets[ok, 1:3, :2].T).T).sum(axis=1)
    short = ds < lim
    if short.any():
        i = np.argmax(short)
        u, v = starts[i].tolist()
        raise ValueError(f"ds = {ds} is below 2e = {lim[i].item()} at the seed ({u}, {v})")
    uvs, stops = [], []  # each accepted seed's uv, and its seed index and stops
    for (u, v), f in zip(starts.tolist(), fs):
        forward, stop_forward = _leg(field, u, v, ds, f, max_steps)
        backward, stop_backward = _leg(field, u, v, -ds, f, max_steps)
        uvs.append(np.array(backward[::-1] + [(u, v)] + forward, float))
        stops.append((len(backward), stop_backward, stop_forward))
    # a copy, so that a trace does not keep the jets of every trace alive
    points = eval_jets(surface, *np.concatenate(uvs or [np.empty((0, 2))]).T)[:, 0].copy()
    traces: list[FlowTrace | None] = [None] * len(seeds)
    start = 0
    for i, uv, (seed_index, stop_backward, stop_forward) in zip(ok, uvs, stops):
        pts = points[start : start + len(uv)]
        start += len(uv)
        params = (np.arange(len(uv)) - seed_index) * ds
        chords = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        arc = np.concatenate(([0.0], np.cumsum(chords)))
        arc -= arc[seed_index]
        traces[i] = FlowTrace(params, pts, uv, arc, ds, seed_index, stop_backward, stop_forward)
    return traces


def integrate_flow(
    surface: SurfaceHandle,
    u: float,
    v: float,
    *,
    ds: float = 1e-3,
    max_steps: int = 2000,
) -> FlowTrace:
    """Trace the flow leaf through (u, v) in both directions: the one-seed
    call of :func:`integrate_flows`, raising CharacteristicPoint where that
    returns None."""
    (trace,) = integrate_flows(surface, [(u, v)], ds=ds, max_steps=max_steps)
    if trace is None:
        q = horizontal_normal_batch(eval_jets(surface, [u], [v]))[2][0]
        raise CharacteristicPoint(
            f"seed too close to the characteristic locus: ||N^h|| = {q:.3e}"
        )
    return trace

