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

:func:`integrate_flows` traces many leaves of one surface: a few legs run
one at a time through the scalar stepper :func:`_leg`, more in lockstep
on arrays through :func:`_lockstep`, with the same bits either way.  An
RK4 stage reads the value and first partials alone, so both run the
surface's field formula at order 1 and one fused stage formula,
:func:`_stage`: the scalar stepper on Python floats, the lockstep on
arrays.  The scalar stepper reads the surface's domain bounds and formula
once per leg (:func:`_field_of`), and a formula built from term sums makes
one generated jet call per stage.  The seeds and the reported points of a
trace are evaluated, and screened, with full 2-jets by
:func:`heisflow.patch.eval_jets`.  :func:`integrate_flow` is its one-seed
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CharacteristicPoint, OutOfDomain
from .heis import _per_element
from .horizontal import EPS_CHAR, horizontal_normal_batch
from .patch import (
    SurfaceHandle,
    _check_finite,
    _out_of_domain,
    _raw_jets,
    eval_jets,
    jet2_batch,
)

__all__ = [
    "STOP_FACTOR",
    "LOCKSTEP_MIN_LEGS",
    "FlowTrace",
    "integrate_flow",
    "integrate_flows",
]

# Legs stop when ||N^h|| falls below STOP_FACTOR times the characteristic
# threshold; tighter than the NEAR_CHAR_FACTOR reporting band so that traces
# get as close to the locus as the field stays integrable.
STOP_FACTOR = 10.0

# integrate_flows steps fewer legs than this one at a time through _leg,
# and more in lockstep through _lockstep; both give the same bits.  A
# batched field evaluation costs many scalar ones, so lockstep pays only
# for enough legs.  Measured with 150-step legs from random seeds on the
# five catalog surfaces of the benchmark and one random ruled patch (2
# cores, Python 3.11, numpy 2.4), median over the six of the
# lockstep/scalar time ratio, with first-order stages and one generated
# jet call per field formula, in three or four draws of seeds: 2.7-2.8 at
# 16 legs, 1.8-1.9 at 24, 1.44-1.50 at 32, 1.16-1.20 at 40, 1.05-1.10 at
# 44, 1.03-1.07 at 46, 0.97-1.05 at 48, 0.94-1.00 at 50, 0.92-0.97 at 52,
# 0.85-0.90 at 56 and 0.76-0.80 at 64.  One scalar stage (the field of
# _field_of) costs 1.0-1.9 us, _fields on 2 points 39-62 us.  At 2 legs,
# the one-seed call of ``heisflow flow``, the scalar stepper is the only
# fast one.
LOCKSTEP_MIN_LEGS = 50


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


def _stage(x, y, xu, yu, tu, xv, yv, tv, sqrt, hypot):
    """||N^h||, whether it is in the stop band, and (p_u, p_v) from one
    first-order jet, on floats or on arrays: the arithmetic of
    :mod:`heisflow.horizontal`'s ``_normal_components``, ``_threshold`` and
    ``_pullback_coeffs``, in their order, in one call."""
    jxy = xu * yv - yu * xv
    q = hypot((yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy)
    thr = EPS_CHAR * (1.0 + sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))
    return q, q < STOP_FACTOR * thr, tu + 2.0 * (x * yu - y * xu), tv + 2.0 * (x * yv - y * xv)


def _field_of(surface: SurfaceHandle):
    """The field of ``surface`` on floats, ``field(u, v)``: the field (du,
    dv) and the point's x, y at one parameter point, from the first-order
    field formula.  It gives what :func:`_field_rows` gives for the jet of
    :func:`heisflow.patch.eval_jets`, and raises what that raises about the
    value and first partials.  The domain bounds and the formula are read
    once, here, not at every stage.

    On floats a field formula returns Python floats (see
    :class:`heisflow.patch.SurfaceHandle`), read here as they are.  One sum
    of the nine components screens them: a non-finite component makes it
    non-finite, and only then does the per-component check run, so a
    finite jet whose sum overflows passes as it does in ``eval_jets``."""
    dom, fields = surface.domain, surface.fields
    u_min, u_max, v_min, v_max = dom.u_min, dom.u_max, dom.v_min, dom.v_max

    def field(u: float, v: float):
        if not (u_min <= u <= u_max and v_min <= v <= v_max):
            raise _out_of_domain(dom, u, v)
        (x, y, t), (xu, yu, tu), (xv, yv, tv) = fields(u, v, 1)[:3]
        if not math.isfinite(x + y + t + xu + yu + tu + xv + yv + tv):
            _check_finite(jet2_batch(1, (x, y, t), (xu, yu, tu), (xv, yv, tv)))
        q, near, p_u, p_v = _stage(x, y, xu, yu, tu, xv, yv, tv, math.sqrt, math.hypot)
        if near:
            raise _LegStop("characteristic-proximity")
        return p_v / q, -p_u / q, x, y

    return field


def _leg(surface, u, v, h, f, max_steps):
    """One direction of the leaf from the seed (u, v), whose field ``f`` the
    caller has found finite and clear of the stop band; returns accepted
    (u, v) pairs and a reason."""
    pts: list[tuple[float, float]] = []
    reason = "step-limit"
    field = _field_of(surface)
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
        except _LegStop as stop:
            reason = stop.reason
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


def _field_rows(jets: np.ndarray):
    """The field of :func:`_field_of` at every point of a jet array of
    order 1 or 2: a (4, N) array of (du, dv, x, y) rows, and the mask of
    the points where it stops."""
    x, y = jets[:, 0, 0], jets[:, 0, 1]
    with np.errstate(all="ignore"):
        q, near, p_u, p_v = _stage(
            x, y, *jets[:, 1].T, *jets[:, 2].T, np.sqrt, partial(_per_element, math.hypot)
        )
        return np.stack((p_v / q, -p_u / q, x, y)), near


def _fields(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray):
    """The field of :func:`_field_of` at the points (u[i], v[i]): the rows
    of :func:`_field_rows` and a stop code per point, 0 where that field
    returns, else an index into :data:`_STOPS`.  The first-order field
    formula runs once, on the points inside the domain; the rows of the
    points outside stay zero and stop as domain exits."""
    inside = surface.domain.contains(u, v)
    jets = np.zeros((3, 3, len(u))).transpose(2, 0, 1)  # the layout of jet2_batch
    if inside.any():
        with np.errstate(all="ignore"):
            jets[inside] = _raw_jets(surface, u[inside], v[inside], 1)
        _check_finite(jets)
    rows, near = _field_rows(jets)
    return rows, np.where(inside, np.where(near, 2, 0), 1)


_STOPS = ("", "domain-exit", "characteristic-proximity")


def _lockstep(surface, u, v, h, f, max_steps):
    """Every leg (u[i], v[i]) with signed step h[i], advanced together.

    ``f`` is the (4, N) field at the starts.  Each RK4 stage evaluates the
    live legs in one :func:`_fields` call, and a leg retires at its first
    stop, so each leg takes exactly the steps and the stop of :func:`_leg`.
    Returns the accepted (u, v) points of each leg as an (n, 2) array and
    the stop reasons.
    """
    reasons = ["step-limit"] * len(u)
    legs = np.arange(len(u))
    taken = []  # (legs, u, v) of the points accepted at each step

    def retire(stop, *state):
        bad = stop != 0
        if not bad.any():
            return state
        for leg, code in zip(legs[bad].tolist(), stop[bad].tolist()):
            reasons[leg] = _STOPS[code]
        return [a[..., ~bad] for a in state]

    for _ in range(max_steps):
        if not len(legs):
            break
        ks = [f[:2]]
        for c in (0.5, 0.5, 1.0):
            k = ks[-1]
            g, stop = _fields(surface, u + c * h * k[0], v + c * h * k[1])
            legs, u, v, h, f, g, *ks = retire(stop, legs, u, v, h, f, g, *ks)
            ks.append(g[:2])
        k1, k2, k3, k4 = ks
        un = u + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
        vn = v + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        fn, stop = _fields(surface, un, vn)
        # the field reversals and the chord collapse of _leg
        chord = _per_element(math.hypot, fn[2] - f[2], fn[3] - f[3])
        turned = chord < 0.5 * abs(h)
        for k in (k2, k3, k4, fn):
            turned |= k[0] * f[0] + k[1] * f[1] < 0.0
        stop = np.where(stop == 0, np.where(turned, 2, 0), stop)
        legs, un, vn, h, fn = retire(stop, legs, un, vn, h, fn)
        taken.append((legs, un, vn))
        u, v, f = un, vn, fn

    leg, uu, vv = (np.concatenate(a) for a in zip(*taken))
    order = np.argsort(leg, kind="stable")
    ends = np.cumsum(np.bincount(leg, minlength=len(reasons)))[:-1]
    return np.split(np.column_stack((uu, vv))[order], ends), reasons


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
    With fewer than :data:`LOCKSTEP_MIN_LEGS` legs to trace, each leg is
    stepped on its own; otherwise all of them advance in lockstep.  Both
    ways give the same bits.
    """
    if not (ds > 0.0 and math.isfinite(ds)):
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    seeds = np.asarray(seeds, float).reshape(-1, 2)
    jets = eval_jets(surface, seeds[:, 0], seeds[:, 1])
    rows, near = _field_rows(jets)
    ok = np.flatnonzero(~near)
    starts = seeds[ok]
    bad = ~np.isfinite(rows[:2, ok]).all(axis=0)
    if bad.any():
        u, v = starts[np.argmax(bad)].tolist()
        raise ValueError(f"the field is not finite at the seed ({u}, {v})")
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
    if 2 * len(ok) < LOCKSTEP_MIN_LEGS:
        legs = []
        for (u, v), f in zip(starts.tolist(), rows[:, ok].T.tolist()):
            for h in (ds, -ds):
                pts, reason = _leg(surface, u, v, h, f, max_steps)
                legs.append((np.array(pts, float).reshape(-1, 2), reason))
        paths, reasons = zip(*legs) if legs else ((), ())
    else:
        # legs 2i and 2i + 1 are the forward and backward legs of seed ok[i]
        u, v = np.repeat(starts, 2, axis=0).T
        h = np.tile((ds, -ds), len(ok))
        f = np.repeat(rows[:, ok], 2, axis=1)
        paths, reasons = _lockstep(surface, u, v, h, f, max_steps)

    uvs = [
        np.concatenate((paths[2 * i + 1][::-1], starts[i : i + 1], paths[2 * i]))
        for i in range(len(ok))
    ]
    # a copy, so that a trace does not keep the jets of every trace alive
    points = eval_jets(surface, *np.concatenate(uvs or [np.empty((0, 2))]).T)[:, 0].copy()
    traces: list[FlowTrace | None] = [None] * len(seeds)
    start = 0
    for i, uv in enumerate(uvs):
        pts = points[start : start + len(uv)]
        start += len(uv)
        seed_index = len(paths[2 * i + 1])
        params = (np.arange(len(uv)) - seed_index) * ds
        chords = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        arc = np.concatenate(([0.0], np.cumsum(chords)))
        arc -= arc[seed_index]
        traces[ok[i]] = FlowTrace(
            params, pts, uv, arc, ds, seed_index, reasons[2 * i + 1], reasons[2 * i]
        )
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

