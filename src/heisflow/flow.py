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
its own through one generated function, :func:`_leg_of`, with its four RK4
stages inline as straight-line text on Python floats.  A stage reads the
value and first partials alone: a builder's field formula, as on every
catalog surface and surface file, gives the float text of its first order,
the group jet and the assembly, run under ``try``; only
:func:`heisflow.patch.reparametrize_affine` and handles written by callers
take the slot ``fields(u, v, 1)[:3]``, as does a stage whose text raises.
Under a memo, :func:`_split`, its lines of u alone run only when u
changes: a leaf of a ruled patch is a ruling, which keeps u bit for bit,
so its leg computes the curve and angle terms once.  The text is compiled
once per slot, that is per builder and shape of term sums.  The flow field,
:func:`_field_of`, is one stage with the same slot; it gives the seeds'
fields.  The seeds and the reported points of a trace are evaluated, and
screened, with full 2-jets by :func:`heisflow.patch.eval_jets`.
:func:`integrate_flow` is its one-seed call.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import types
from dataclasses import dataclass
from textwrap import indent

import numpy as np

from .builders import _NAMES as _JET_NAMES, _defined
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


# One stage of the flow field at (u, v), around a slot that sets the value
# and first partials X, ..., Tv: the domain test; one sum screens the nine,
# and only past it does the check of eval_jets run, so a finite jet whose sum
# overflows passes as there; ||N^h||, the threshold and (p_u, p_v) in the
# order of heisflow.horizontal's formulas; the stop band (as char_threshold,
# by hypot where the sum of squares overflows); the field (du, dv).
_STAGE = """\
if not (u_min <= u <= u_max and v_min <= v <= v_max):
    raise _out_of_domain(dom, u, v)
{slot}
if not isfinite(X + Y + T + Xu + Yu + Tu + Xv + Yv + Tv):
    _check_finite(jet2_batch(1, (X, Y, T), (Xu, Yu, Tu), (Xv, Yv, Tv)))
jxy = Xu * Yv - Yu * Xv
q = hypot((Yu * Tv - Tu * Yv) + 2.0 * Y * jxy, (Tu * Xv - Xu * Tv) - 2.0 * X * jxy)
thr = EPS_CHAR * (1.0 + sqrt(Xu * Xu + Yu * Yu + Tu * Tu + Xv * Xv + Yv * Yv + Tv * Tv))
if q < STOP_FACTOR * thr and (
        thr < inf or q < STOP_FACTOR * (EPS_CHAR * (1.0 + hypot(Xu, Yu, Tu, Xv, Yv, Tv)))):
    raise _LegStop
du, dv = (Tv + 2.0 * (X * Yv - Y * Xv)) / q, -(Tu + 2.0 * (X * Yu - Y * Xu)) / q"""
_GENERIC = "(X, Y, T), (Xu, Yu, Tu), (Xv, Yv, Tv) = fields(u, v, 1)[:3]"
# A builder's float text under try: where it raises (an overflowing ** or trig
# past the float range), the memo clears and the generic slot runs a batch of one.
_INLINE = "try:\n{}\nexcept (OverflowError, ValueError):\n    u_memo = nan\n    " + _GENERIC

# One direction of a leaf from (u0, v0), whose field k1 the caller has found
# finite and clear of the stop band, in the order of the stops above, with a
# _STAGE at each {stage}; the memo starts as NaN, so only the first stage of a
# leg along a ruling runs the lines of u alone.
_LEG = """\
def leg(u0, v0, h, f, max_steps, fields, dom, u_min, u_max, v_min, v_max{params}):
    pts = []
    reason = "step-limit"
    u_memo = nan
    k1u, k1v, k1x, k1y = f
    for _ in range(max_steps):
        try:
            u, v = u0 + 0.5 * h * k1u, v0 + 0.5 * h * k1v
            {stage}
            k2u, k2v = du, dv
            u, v = u0 + 0.5 * h * k2u, v0 + 0.5 * h * k2v
            {stage}
            k3u, k3v = du, dv
            u, v = u0 + h * k3u, v0 + h * k3v
            {stage}
            k4u, k4v = du, dv
            u = u0 + h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
            v = v0 + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            {stage}
        except OutOfDomain:
            reason = "domain-exit"
            break
        except _LegStop:
            reason = "characteristic-proximity"
            break
        if (k2u * k1u + k2v * k1v < 0.0 or k3u * k1u + k3v * k1v < 0.0
                or k4u * k1u + k4v * k1v < 0.0 or du * k1u + dv * k1v < 0.0
                or hypot(X - k1x, Y - k1y) < 0.5 * abs(h)):
            reason = "characteristic-proximity"
            break
        pts.append((u, v))
        u0, v0, k1u, k1v, k1x, k1y = u, v, du, dv, X, Y
    return pts, reason
"""
# The flow field at (u, v): one _STAGE, returning (du, dv) and the point's x, y.
_POINT = """\
def field(u, v, fields, dom, u_min, u_max, v_min, v_max{params}):
    u_memo = nan
    {stage}
    return du, dv, X, Y
"""

_NAMES = {**_JET_NAMES, "isfinite": math.isfinite, "hypot": math.hypot, "sqrt": math.sqrt,
          "inf": math.inf, "nan": math.nan, "EPS_CHAR": EPS_CHAR, "STOP_FACTOR": STOP_FACTOR,
          "_LegStop": _LegStop, "OutOfDomain": OutOfDomain, "_out_of_domain": _out_of_domain,
          "_check_finite": _check_finite, "jet2_batch": jet2_batch}


@functools.lru_cache(maxsize=None)
def _split(slot: str) -> str:
    """A builder's stage text ``slot``, assignments, with the ruling memo:
    those that read neither v nor a name set from v, of u alone, go first
    and run only when u differs from ``u_memo`` or is a zero of either sign.
    ``slot`` as it is where none is of u alone, or a name is set twice or
    after a read."""
    head, tail, of_v, seen = [], [], {"v"}, {"u", "v"}
    for node in ast.parse(slot).body:
        reads = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
        writes = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if writes & (seen | reads):
            return slot
        seen |= reads | writes
        if reads & of_v:
            of_v |= writes
        (tail if reads & of_v else head).append(ast.get_source_segment(slot, node))
    if not head:
        return slot
    return "\n".join(("if u != u_memo or u == 0.0:", indent("\n".join(head), "    "),
                      "    u_memo = u", *tail))


@functools.lru_cache(maxsize=None)
def _code(text: str, slot: str | None, params: tuple) -> types.CodeType:
    """The code of ``text``, :data:`_LEG` or :data:`_POINT`, with the
    :data:`_STAGE` of a builder's ``slot`` (:func:`_split`, :data:`_INLINE`;
    None: the generic slot) at each ``{stage}``, its indent, ``params`` last."""
    slot = _GENERIC if slot is None else _INLINE.format(indent(_split(slot), "    "))
    stage = _STAGE.format(slot=slot)
    text = re.sub(r"^( *)\{stage\}$", lambda m: indent(stage, m[1]), text, flags=re.M)
    return _defined(text.replace("{params}", "".join(f", {p}" for p in params))).__code__


def _bound(text: str, surface: SurfaceHandle):
    """The function of ``text`` for ``surface``: its slot is ``fields.stage``
    of a builder's formula, or else the generic one."""
    slot, params, plans = getattr(surface.fields, "stage", (None, (), ()))
    dom = surface.domain
    return types.FunctionType(_code(text, slot, params), _NAMES, None, (
        surface.fields, dom, dom.u_min, dom.u_max, dom.v_min, dom.v_max, *plans))


def _field_of(surface: SurfaceHandle):
    """The flow field ``field(u, v)`` of ``surface``: (du, dv) and the
    point's x, y from the value and first partials on floats (see
    :class:`heisflow.patch.SurfaceHandle`), or _LegStop in the stop band.
    It raises what :func:`heisflow.patch.eval_jets` raises about the value
    and first partials."""
    return _bound(_POINT, surface)


def _leg_of(surface: SurfaceHandle):
    """``leg(u, v, h, f, max_steps)``, the accepted (u, v) pairs and stop
    reason of one direction of a leaf of ``surface``."""
    return _bound(_LEG, surface)


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
    Each leg, forward then backward from each seed, is stepped on its own
    by the surface's generated leg.
    """
    if not (ds > 0.0 and math.isfinite(ds)):
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    seeds = np.asarray(seeds, float).reshape(-1, 2)
    jets = eval_jets(surface, seeds[:, 0], seeds[:, 1])
    field = _field_of(surface)
    leg = _leg_of(surface)
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
        forward, stop_forward = leg(u, v, ds, f, max_steps)
        backward, stop_backward = leg(u, v, -ds, f, max_steps)
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

