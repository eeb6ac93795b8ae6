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
on arrays through :func:`_lockstep`, with the same bits either way.  The
scalar stepper runs the surface's field formula and the first-order
formulas of :mod:`heisflow.horizontal` on Python floats, the lockstep on
the jet arrays of :func:`heisflow.patch.eval_jets`.
:func:`integrate_flow` is its one-seed call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CharacteristicPoint, OutOfDomain
from .heis import _per_element
from .horizontal import (
    EPS_CHAR,
    _array_args,
    _normal_components,
    _pullback_coeffs,
    _threshold,
    horizontal_normal_batch,
)
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
# lockstep/scalar time ratio, in two draws of seeds: 14 at 2 legs, 3.4-3.5
# at 8, 2.5-2.9 at 12, 1.8-1.9 at 16, 1.5-1.6 at 20, 1.1-1.3 at 24 and 28,
# 1.0-1.1 at 32, 0.97-0.99 at 36 and 0.73-0.89 at 40 and 48.  One _field
# call costs 2.4-4.8 us, _fields on 2 points 57-112 us.  At 2 legs, the
# one-seed call of ``heisflow flow``, the scalar stepper is the only fast
# one.
LOCKSTEP_MIN_LEGS = 32


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


def _field(surface: SurfaceHandle, u: float, v: float):
    """The field (du, dv) and the point's x, y at one parameter point, from
    the field formula on floats: what :func:`_field_rows` gives for the jet
    of :func:`heisflow.patch.eval_jets`, which raises what this raises.

    On floats a field formula returns Python floats (see
    :class:`heisflow.patch.SurfaceHandle`), read here as they are.  One sum
    of every component screens them: a non-finite component makes it
    non-finite, and only then does the per-component check run, so a
    finite jet whose sum overflows passes as it does in ``eval_jets``."""
    dom = surface.domain
    if not (dom.u_min <= u <= dom.u_max and dom.v_min <= v <= dom.v_max):
        raise _out_of_domain(dom, u, v)
    fields = surface.fields(u, v)
    if not math.isfinite(sum(chain.from_iterable(fields))):
        _check_finite(jet2_batch(1, *fields))
    (x, y, _), du, dv = fields[:3]
    n1, n2 = _normal_components.formula(x, y, du, dv, math.sqrt)
    q = math.hypot(n1, n2)
    if q < STOP_FACTOR * _threshold.formula(x, y, du, dv, math.sqrt, EPS_CHAR):
        raise _LegStop("characteristic-proximity")
    p_u, p_v = _pullback_coeffs.formula(x, y, du, dv, math.sqrt)
    return p_v / q, -p_u / q, x, y


def _leg(surface, u0, v0, h, max_steps):
    """One direction of the leaf; returns accepted (u, v) pairs and a reason."""
    pts: list[tuple[float, float]] = []
    try:
        f = _field(surface, u0, v0)
    except (OutOfDomain, _LegStop):
        # Caller has already validated the seed; only reachable if the seed
        # sits exactly on the stop band edge.
        return pts, "characteristic-proximity"
    u, v = u0, v0
    reason = "step-limit"
    for _ in range(max_steps):
        try:
            k1 = f
            k2 = _field(surface, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = _field(surface, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = _field(surface, u + h * k3[0], v + h * k3[1])
            un = u + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            vn = v + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            fn = _field(surface, un, vn)
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
    """:func:`_field` at every point of a jet array: a (4, N) array of
    (du, dv, x, y) rows, and the mask of the points where it stops."""
    args = _array_args(jets)
    with np.errstate(all="ignore"):
        n1, n2 = _normal_components.formula(*args)
        q = _per_element(math.hypot, n1, n2)
        near = q < STOP_FACTOR * _threshold.formula(*args, EPS_CHAR)
        p_u, p_v = _pullback_coeffs.formula(*args)
        return np.stack((p_v / q, -p_u / q, args[0], args[1])), near


def _fields(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray):
    """:func:`_field` at the points (u[i], v[i]): the rows of
    :func:`_field_rows` and a stop code per point, 0 where ``_field``
    returns, else an index into :data:`_STOPS`.  The field formula runs
    once, on the points inside the domain; the rows of the points outside
    stay zero and stop as domain exits."""
    inside = surface.domain.contains(u, v)
    jets = np.zeros((len(u), 6, 3))
    if inside.any():
        with np.errstate(all="ignore"):
            jets[inside] = _raw_jets(surface, u[inside], v[inside])
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
    raises CharacteristicPoint).  With fewer than :data:`LOCKSTEP_MIN_LEGS`
    legs to trace, each leg is stepped on its own; otherwise all of them
    advance in lockstep.  Both ways give the same bits.
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
    # Rounding a step's new (u, v) moves its projected point by up to e / 2,
    # e = ulp(u) |(x_u, y_u)| + ulp(v) |(x_v, y_v)|, so a step under 2 e
    # could read as a collapsed chord, a false characteristic-proximity stop.
    # A seed whose field is not finite leaves at its first stage instead.
    with np.errstate(over="ignore"):
        lim = 2.0 * (np.spacing(np.abs(starts)) * np.hypot(*jets[ok, 1:3, :2].T).T).sum(axis=1)
    short = (ds < lim) & np.isfinite(rows[:2, ok]).all(axis=0)
    if short.any():
        i = np.argmax(short)
        u, v = starts[i].tolist()
        raise ValueError(f"ds = {ds} is below 2e = {lim[i].item()} at the seed ({u}, {v})")
    if 2 * len(ok) < LOCKSTEP_MIN_LEGS:
        legs = []
        for u, v in starts.tolist():
            for h in (ds, -ds):
                pts, reason = _leg(surface, u, v, h, max_steps)
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

