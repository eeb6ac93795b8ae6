"""Surface patches as second-order jet evaluators over rectangular domains.

A :class:`SurfaceHandle` bundles a closed parameter rectangle with one field
formula for the full 2-jet of the parametrisation: the ambient value
(x, y, t), the six first partials and the nine second partials (mixed partials
symmetric, stored once).  Built-in surfaces differentiate in closed form;
value-only user maps get central-difference jets via :func:`fd_jet2` or the
:func:`from_value_map` adapter.  Handles are immutable; re-parametrisation
produces a fresh handle.

The formula takes floats or float arrays: :func:`eval_jet2` evaluates it at
one point, and :func:`eval_jets` at a point set, returning the jets as one
array of shape (N, 6, 3): rows are points, then the fields value, du, dv,
duu, duv, dvv, then the coordinates x, y, t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotRegular, OutOfDomain

__all__ = [
    "Domain",
    "Jet2",
    "SurfaceHandle",
    "EPS_REG",
    "JET_BLOCK",
    "jet2",
    "jet2_batch",
    "eval_jet2",
    "eval_jets",
    "grid_points",
    "blocks",
    "jacobians",
    "fd_jet2",
    "fd_step",
    "make_surface",
    "from_value_map",
    "reparametrize_affine",
]

# Below this sampled value of |sigma_u x sigma_v| a patch is reported
# NotRegular instead of silently continuing.
EPS_REG = 1e-8

# Batched consumers split point sets into blocks of at most this many
# points.  The curvature temporaries peak near 1.1 MiB per block; larger
# blocks grow them in proportion and were measured no faster.
JET_BLOCK = 1024

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)
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

    @property
    def u_span(self) -> float:
        return self.u_max - self.u_min

    @property
    def v_span(self) -> float:
        return self.v_max - self.v_min

    def contains(self, u: float, v: float) -> bool:
        return self.u_min <= u <= self.u_max and self.v_min <= v <= self.v_max

    def linspace(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive nu x nv grid axes over the rectangle."""
        return (
            np.linspace(self.u_min, self.u_max, nu),
            np.linspace(self.v_min, self.v_max, nv),
        )

    def interior_linspace(
        self, nu: int, nv: int, margin: float = 1e-6
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid axes inset from the boundary by ``margin`` of each span."""
        du = margin * self.u_span
        dv = margin * self.v_span
        return (
            np.linspace(self.u_min + du, self.u_max - du, nu),
            np.linspace(self.v_min + dv, self.v_max - dv, nv),
        )


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value and first/second parameter derivatives of a patch at one point.

    Every field is a length-3 array over the ambient coordinates (x, y, t).
    ``duv`` is the symmetric mixed partial, stored once.
    """

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray

    def __post_init__(self):
        for name in _JET_FIELDS:
            arr = getattr(self, name)
            for comp in arr:
                if not math.isfinite(comp):
                    raise ValueError(f"non-finite jet component in {name}: {arr!r}")


def jet2(value, du, dv, duu=_ZERO3, duv=_ZERO3, dvv=_ZERO3) -> Jet2:
    """Build a :class:`Jet2` from any length-3 sequences."""
    return Jet2(
        np.asarray(value, float),
        np.asarray(du, float),
        np.asarray(dv, float),
        np.asarray(duu, float),
        np.asarray(duv, float),
        np.asarray(dvv, float),
    )


def jet2_batch(n: int, value, du, dv, duu=_ZERO3, duv=_ZERO3, dvv=_ZERO3) -> np.ndarray:
    """Stack per-coordinate components into an (n, 6, 3) jet array.

    Each field is a triple whose entries are length-n arrays or scalars
    (broadcast to every point), in the argument order of :func:`jet2`.
    """
    out = np.empty((n, 6, 3))
    for f, field_ in enumerate((value, du, dv, duu, duv, dvv)):
        for c in range(3):
            out[:, f, c] = field_[c]
    return out


def grid_points(us, vs) -> tuple[np.ndarray, np.ndarray]:
    """The grid us x vs as flat u, v arrays, in the order of nested loops
    over us (outer) and vs (inner)."""
    us, vs = np.asarray(us, float), np.asarray(vs, float)
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


def blocks(n: int) -> list[slice]:
    """Consecutive slices of at most :data:`JET_BLOCK` points covering range(n)."""
    return [slice(i, min(i + JET_BLOCK, n)) for i in range(0, n, JET_BLOCK)]


def jacobians(j: Jet2) -> tuple[float, float, float]:
    """The three 2x2 parameter Jacobians (d(y,t), d(t,x), d(x,y)).

    Convention: d(f,g) = f_u g_v - g_u f_v.
    """
    xu, yu, tu = j.du
    xv, yv, tv = j.dv
    return (yu * tv - tu * yv, tu * xv - xu * tv, xu * yv - yu * xv)


@dataclass(frozen=True)
class SurfaceHandle:
    """Immutable surface patch: a domain plus a 2-jet field formula.

    ``fields(u, v)`` takes floats or equal-length float arrays and returns
    the three to six field triples of :func:`jet2`, with floats standing for
    every point; :func:`eval_jet2` and :func:`eval_jets` check its output.
    The parameter order carries the orientation; flipping it means building
    a new handle with swapped parameters.
    """

    domain: Domain
    fields: Callable
    label: str = ""


def _raw_jets(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The unchecked (N, 6, 3) jets of ``surface`` at the points (u[i], v[i])."""
    return jet2_batch(len(u), *surface.fields(u, v))


def _check_finite(jets: np.ndarray) -> None:
    """Raise the ValueError :class:`Jet2` raises, for the first bad point."""
    ok = np.isfinite(jets).all(axis=2)
    if not ok.all():
        i, f = np.argwhere(~ok)[0]
        raise ValueError(
            f"non-finite jet component in {_JET_FIELDS[f]}: {jets[i, f]!r}"
        )


def _out_of_domain(domain: Domain, u, v) -> OutOfDomain:
    return OutOfDomain(
        f"(u, v) = ({u}, {v}) outside domain "
        f"[{domain.u_min}, {domain.u_max}] x [{domain.v_min}, {domain.v_max}]"
    )


def eval_jet2(surface: SurfaceHandle, u: float, v: float) -> Jet2:
    """Evaluate the 2-jet, rejecting parameters outside the domain."""
    if not surface.domain.contains(u, v):
        raise _out_of_domain(surface.domain, u, v)
    return jet2(*surface.fields(u, v))


def eval_jets(surface: SurfaceHandle, u, v) -> np.ndarray:
    """Jets at the points (u[i], v[i]) as an (N, 6, 3) array.

    Bit-identical to stacking :func:`eval_jet2` over the points.  The domain
    check and the finite check each run once for the whole batch and raise
    what the scalar path raises (OutOfDomain, ValueError), naming the first
    failing point in input order.
    """
    u = np.asarray(u, float).reshape(-1)
    v = np.asarray(v, float).reshape(-1)
    dom = surface.domain
    inside = (dom.u_min <= u) & (u <= dom.u_max) & (dom.v_min <= v) & (v <= dom.v_max)
    if not inside.all():
        i = int(np.argmin(inside))
        raise _out_of_domain(dom, float(u[i]), float(v[i]))
    if not len(u):
        return np.empty((0, 6, 3))
    with np.errstate(all="ignore"):
        jets = _raw_jets(surface, u, v)
    _check_finite(jets)
    return jets


def fd_step(u: float, v: float) -> float:
    """Default central-difference step, floored for second-derivative noise."""
    return max(1e-4, _CBRT_EPS * max(1.0, abs(u), abs(v)))


def fd_jet2(
    value_map: Callable[[float, float], tuple],
    u: float,
    v: float,
    h: float | None = None,
    domain: Domain | None = None,
) -> Jet2:
    """Second-order central-difference jet of a value-only map.

    When a domain is supplied the stencil is clipped to fit inside it: the
    step shrinks per axis to the available room, and the call fails with
    OutOfDomain if the evaluation point is outside or pinned to the boundary.
    """
    if h is None:
        h = fd_step(u, v)
    if h <= 0.0 or not math.isfinite(h):
        raise ValueError(f"step must be positive and finite, got {h!r}")
    hu = hv = h
    if domain is not None:
        if not domain.contains(u, v):
            raise OutOfDomain(f"(u, v) = ({u}, {v}) outside stencil domain")
        hu = min(h, u - domain.u_min, domain.u_max - u)
        hv = min(h, v - domain.v_min, domain.v_max - v)
        if hu < 1e-12 or hv < 1e-12:
            raise OutOfDomain(
                f"no room for a width-{h:g} stencil at ({u}, {v})"
            )

    f0 = np.asarray(value_map(u, v), float)
    fpu = np.asarray(value_map(u + hu, v), float)
    fmu = np.asarray(value_map(u - hu, v), float)
    fpv = np.asarray(value_map(u, v + hv), float)
    fmv = np.asarray(value_map(u, v - hv), float)
    fpp = np.asarray(value_map(u + hu, v + hv), float)
    fpm = np.asarray(value_map(u + hu, v - hv), float)
    fmp = np.asarray(value_map(u - hu, v + hv), float)
    fmm = np.asarray(value_map(u - hu, v - hv), float)

    return Jet2(
        f0,
        (fpu - fmu) / (2.0 * hu),
        (fpv - fmv) / (2.0 * hv),
        (fpu - 2.0 * f0 + fmu) / (hu * hu),
        (fpp - fpm - fmp + fmm) / (4.0 * hu * hv),
        (fpv - 2.0 * f0 + fmv) / (hv * hv),
    )


def make_surface(
    fields: Callable,
    domain: Domain,
    label: str = "",
    check_grid: tuple[int, int] | None = (21, 21),
    eps_reg: float = EPS_REG,
) -> SurfaceHandle:
    """Wrap a field formula (see :class:`SurfaceHandle`), verifying sampled
    rank-2 regularity on a ``check_grid`` first."""
    surface = SurfaceHandle(domain=domain, fields=fields, label=label)
    if check_grid is None:
        return surface
    u, v = grid_points(*domain.interior_linspace(*check_grid))
    for sl in blocks(len(u)):
        with np.errstate(all="ignore"):  # huge finite jets overflow to inf
            jets = _raw_jets(surface, u[sl], v[sl])
            cross = np.cross(jets[:, 1], jets[:, 2])
            norm = np.hypot(np.hypot(cross[:, 0], cross[:, 1]), cross[:, 2])
        _check_finite(jets)
        bad = np.flatnonzero(norm <= eps_reg)
        if bad.size:
            i = sl.start + bad[0]
            raise NotRegular(
                f"{label or 'patch'}: |sigma_u x sigma_v| <= {eps_reg:g} "
                f"at (u, v) = ({u[i]}, {v[i]})"
            )
    return surface


def from_value_map(
    value_map: Callable[[float, float], tuple],
    domain: Domain,
    h: float | None = None,
    label: str = "",
    check_grid: tuple[int, int] | None = (21, 21),
) -> SurfaceHandle:
    """Finite-difference adapter promoting a value-only map to a handle; the
    stencil has no array form, so on arrays it runs point by point."""

    def fields(u, v):
        if not isinstance(u, np.ndarray):
            j = fd_jet2(value_map, u, v, h=h, domain=domain)
            return j.value, j.du, j.dv, j.duu, j.duv, j.dvv
        jets = [fields(a, b) for a, b in zip(u.tolist(), v.tolist())]
        return np.array(jets, float).reshape(len(u), 6, 3).transpose(1, 2, 0)

    return make_surface(fields, domain, label=label, check_grid=check_grid)


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

    def fields(w1, w2):
        u = a11 * w1 + a12 * w2 + b1
        v = a21 * w1 + a22 * w2 + b2
        value, du, dv, duu, duv, dvv = (*base(u, v), _ZERO3, _ZERO3, _ZERO3)[:6]
        return (
            value,
            *([c * p + d * q for p, q in zip(du, dv)] for c, d in first),
            *([c * p + d * r + e * q for p, r, q in zip(duu, duv, dvv)] for c, d, e in second),
        )

    return SurfaceHandle(
        domain=new_domain,
        fields=fields,
        label=label or (surface.label + "/reparam" if surface.label else "reparam"),
    )
