"""Surface patches as second-order jet evaluators over rectangular domains.

A :class:`SurfaceHandle` bundles a closed parameter rectangle with one field
formula for the full 2-jet of the parametrisation: the ambient value
(x, y, t), the six first partials and the nine second partials (mixed partials
symmetric, stored once), or at order 1 the value and first partials alone.
Every surface differentiates in closed form.  Handles are immutable;
re-parametrisation produces a fresh handle.

The formula takes floats or float arrays.  :func:`eval_jets` evaluates it
at a point set, one point being a set of one, and returns the jets as one
array of shape (N, 6, 3): rows are points, then the fields value, du, dv,
duu, duv, dvv, then the coordinates x, y, t; at order 1 only the first
three fields, (N, 3, 3).  That array is the only jet representation.  It
is stored component-major, as the transposed view of a (6, 3, N) array,
because every consumer reads it one component at a time; fancy indexing
gives point-major copies, which every consumer accepts too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotRegular, OutOfDomain

__all__ = [
    "Domain",
    "SurfaceHandle",
    "EPS_REG",
    "JET_BLOCK",
    "jet2_batch",
    "eval_jets",
    "grid_points",
    "blocks",
    "make_surface",
    "reparametrize_affine",
]

# Below this sampled value of |sigma_u x sigma_v| a patch is reported
# NotRegular instead of silently continuing.
EPS_REG = 1e-8

# Batched consumers split point sets into blocks of at most this many
# points.  mean_curvature_batch on a full block peaks at 3.0 MiB of
# temporaries where no jet component is zero on the whole block, 0.6 MiB on
# the paraboloid (tracemalloc peak of a second call on a 32x32 grid of a
# turned random ruled patch and of the paraboloid); larger blocks grow them
# in proportion and were measured no faster.
JET_BLOCK = 1024

_ZERO3 = (0.0, 0.0, 0.0)
_JET_FIELDS = ("value", "du", "dv", "duu", "duv", "dvv")


@dataclass(frozen=True)
class Domain:
    """Closed rectangle [u_min, u_max] x [v_min, v_max] in parameter space."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        vals = (self.u_min, self.u_max, self.v_min, self.v_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"domain bounds must be finite, got {vals!r}")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"empty domain {vals!r}")
        if not (math.isfinite(self.u_span) and math.isfinite(self.v_span)):
            raise ValueError(f"domain spans must be finite, got {vals!r}")

    @property
    def u_span(self) -> float:
        return self.u_max - self.u_min

    @property
    def v_span(self) -> float:
        return self.v_max - self.v_min

    def contains(self, u, v):
        """Whether (u, v) lies in the rectangle; elementwise on arrays."""
        return (self.u_min <= u) & (u <= self.u_max) & (self.v_min <= v) & (v <= self.v_max)

    def linspace(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive nu x nv grid axes over the rectangle."""
        return (
            np.linspace(self.u_min, self.u_max, nu),
            np.linspace(self.v_min, self.v_max, nv),
        )

    def interior_linspace(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid axes inset from the boundary by 1e-6 of each span."""
        du = 1e-6 * self.u_span
        dv = 1e-6 * self.v_span
        return (
            np.linspace(self.u_min + du, self.u_max - du, nu),
            np.linspace(self.v_min + dv, self.v_max - dv, nv),
        )


def jet2_batch(n: int, value, du, dv, duu=_ZERO3, duv=_ZERO3, dvv=_ZERO3) -> np.ndarray:
    """Stack per-coordinate components into an (n, 6, 3) jet array.

    Each field is a triple whose entries are length-n arrays or scalars
    (broadcast to every point); omitted second partials are zero.  The
    array is stored component-major: it is the (n, 6, 3) transposed view
    of a C-contiguous (6, 3, n) array, so each component is one contiguous
    row of n floats.
    """
    return _stack(n, (value, du, dv, duu, duv, dvv))


def _stack(n: int, fields) -> np.ndarray:
    """The field triples ``fields`` as an (n, len(fields), 3) component-major
    array: the work of :func:`jet2_batch`, for any number of fields."""
    out = np.empty((len(fields), 3, n))
    for f, field_ in enumerate(fields):
        for c in range(3):
            out[f, c] = field_[c]
    return out.transpose(2, 0, 1)


def grid_points(us, vs) -> tuple[np.ndarray, np.ndarray]:
    """The grid us x vs as flat u, v arrays, in the order of nested loops
    over us (outer) and vs (inner)."""
    us, vs = np.asarray(us, float), np.asarray(vs, float)
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


def blocks(n: int) -> list[slice]:
    """Consecutive slices of at most :data:`JET_BLOCK` points covering range(n)."""
    return [slice(i, min(i + JET_BLOCK, n)) for i in range(0, n, JET_BLOCK)]


@dataclass(frozen=True)
class SurfaceHandle:
    """Immutable surface patch: a domain plus a 2-jet field formula.

    ``fields(u, v, order=2)`` takes floats or equal-length float arrays and
    returns the three to six field triples of :func:`jet2_batch`, with
    floats standing for every point; :func:`eval_jets` checks its output.
    With ``order=1`` only the first three triples (value, du, dv) are read,
    and a formula may leave out the rest or return them anyway.  On
    floats every entry is a Python float, not a numpy scalar: the flow
    field does float arithmetic on them as they are.  A float call gives
    the bits of the array call at its one point: a builder's formula whose
    float text raises (an overflowing ``**`` or trig past the float range)
    runs as a batch of one and gives its +-inf and NaN.  A field
    formula accepts every point of its closed domain: only points outside
    it are refused, by the callers' domain test, never by the formula.
    The parameter order carries the orientation; flipping it means building
    a new handle with swapped parameters.
    """

    domain: Domain
    fields: Callable
    label: str = ""


def _raw_jets(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray, order: int = 2):
    """The unchecked (N, 6, 3) jets of ``surface`` at the points (u[i], v[i]),
    or at order 1 their (N, 3, 3) first-order part."""
    if order == 1:
        return _stack(len(u), surface.fields(u, v, 1)[:3])
    return jet2_batch(len(u), *surface.fields(u, v))


def _check_finite(jets: np.ndarray) -> None:
    """Raise a ValueError naming the field of the first non-finite jet entry,
    the first in point order and then field order.  One flat pass over the
    whole array screens it; the per-field search runs only when it fails."""
    if np.isfinite(jets).all():
        return
    i, f = np.argwhere(~np.isfinite(jets).all(axis=2))[0]
    raise ValueError(f"non-finite jet component in {_JET_FIELDS[f]}: {jets[i, f]!r}")


def _out_of_domain(domain: Domain, u, v) -> OutOfDomain:
    return OutOfDomain(
        f"(u, v) = ({u}, {v}) outside domain "
        f"[{domain.u_min}, {domain.u_max}] x [{domain.v_min}, {domain.v_max}]"
    )


def eval_jets(surface: SurfaceHandle, u, v, order: int = 2) -> np.ndarray:
    """Jets at the points (u[i], v[i]) as an (N, 6, 3) array, or with
    ``order=1`` as the (N, 3, 3) array of value, du and dv alone.

    The domain check and the finite check each run once for the whole batch
    and raise OutOfDomain or ValueError naming the first failing point in
    input order.  Bit-identical to running the formula on each point's
    floats.
    """
    u = np.asarray(u, float).reshape(-1)
    v = np.asarray(v, float).reshape(-1)
    dom = surface.domain
    inside = dom.contains(u, v)
    if not inside.all():
        i = int(np.argmin(inside))
        raise _out_of_domain(dom, float(u[i]), float(v[i]))
    if not len(u):
        return _stack(0, (_ZERO3,) * 3 * order)
    with np.errstate(all="ignore"):
        jets = _raw_jets(surface, u, v, order)
    _check_finite(jets)
    return jets


def make_surface(fields: Callable, domain: Domain, label: str = "") -> SurfaceHandle:
    """Wrap a field formula (see :class:`SurfaceHandle`), verifying sampled
    rank-2 regularity on the 21 x 21 interior grid first.  Immersions by
    construction skip the sampling by building the handle directly."""
    u, v = grid_points(*domain.interior_linspace(21, 21))
    surface = SurfaceHandle(domain=domain, fields=fields, label=label)
    with np.errstate(all="ignore"):  # huge finite jets overflow to inf
        jets = _raw_jets(surface, u, v)
        cross = np.cross(jets[:, 1], jets[:, 2])
        norm = np.hypot(np.hypot(cross[:, 0], cross[:, 1]), cross[:, 2])
    _check_finite(jets)
    bad = np.flatnonzero(norm <= EPS_REG)
    if bad.size:
        i = bad[0]
        raise NotRegular(
            f"{label or 'patch'}: |sigma_u x sigma_v| <= {EPS_REG:g} "
            f"at (u, v) = ({u[i]}, {v[i]})"
        )
    return surface


def reparametrize_affine(
    surface: SurfaceHandle,
    matrix,
    offset,
    new_domain: Domain,
    label: str = "",
) -> SurfaceHandle:
    """Precompose a handle with the affine map (u, v) = A (w1, w2) + b.

    The map must preserve orientation (det A > 0) and send the corners of
    ``new_domain`` into the base domain; by convexity the whole rectangle
    then lands inside it.
    """
    a11, a12 = float(matrix[0][0]), float(matrix[0][1])
    a21, a22 = float(matrix[1][0]), float(matrix[1][1])
    b1, b2 = float(offset[0]), float(offset[1])
    det = a11 * a22 - a12 * a21
    if det <= 0.0:
        raise ValueError(f"affine reparametrisation must preserve orientation, det = {det}")
    corners = (
        (new_domain.u_min, new_domain.v_min),
        (new_domain.u_min, new_domain.v_max),
        (new_domain.u_max, new_domain.v_min),
        (new_domain.u_max, new_domain.v_max),
    )
    for w1, w2 in corners:
        u = a11 * w1 + a12 * w2 + b1
        v = a21 * w1 + a22 * w2 + b2
        if not surface.domain.contains(u, v):
            raise OutOfDomain(
                f"affine image of corner ({w1}, {w2}) leaves the base domain"
            )

    base = surface.fields
    # (d/dw1, d/dw2) from (d/du, d/dv), and the three second partials from
    # (duu, duv, dvv), coordinate by coordinate
    first = ((a11, a21), (a12, a22))
    second = (
        (a11 * a11, 2.0 * a11 * a21, a21 * a21),
        (a11 * a12, a11 * a22 + a12 * a21, a21 * a22),
        (a12 * a12, 2.0 * a12 * a22, a22 * a22),
    )

    def fields(w1, w2, order=2):
        u = a11 * w1 + a12 * w2 + b1
        v = a21 * w1 + a22 * w2 + b2
        value, du, dv, duu, duv, dvv = (*base(u, v, order), _ZERO3, _ZERO3, _ZERO3)[:6]
        return (
            value,
            *([c * p + d * q for p, q in zip(du, dv)] for c, d in first),
            *([c * p + d * r + e * q for p, r, q in zip(duu, duv, dvv)]
              for c, d, e in (second if order == 2 else ())),
        )

    return SurfaceHandle(
        domain=new_domain,
        fields=fields,
        label=label or (surface.label + "/reparam" if surface.label else "reparam"),
    )
