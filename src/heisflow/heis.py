"""Group structure, left-invariant frame and contact form of the Heisenberg group.

Points live in R^3 with coordinates (x, y, t).  The group product twists the
vertical coordinate by twice a symplectic-area term, the frame

    X = d/dx + 2y d/dt,   Y = d/dy - 2x d/dt,   T = d/dt

is left invariant, and the horizontal distribution span{X, Y} is the kernel
of the contact form omega = dt + 2(x dy - y dx), with X, Y declared
orthonormal.  All functions here are pure; concurrent use is safe.

The fields of Point3, FrameVector and HorizontalVec may be equal-length
1-D arrays: every function then acts per entry with the bits of the float
call, taking ``**`` and math.hypot per entry, as numpy's power and hypot
round differently on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasePointMismatch

__all__ = [
    "Point3",
    "FrameVector",
    "HorizontalVec",
    "group_mul",
    "group_inv",
    "koranyi_gauge",
    "kc_distance",
    "frame_to_euclidean",
    "euclidean_to_frame",
    "contact_eval",
    "h_wedge",
    "frame_x",
    "frame_y",
    "frame_t",
]


def _require_finite(kind: str, *values) -> None:
    if not np.isfinite(np.broadcast_arrays(*values)).all():
        raise ValueError(f"{kind} requires finite components, got {values!r}")


def _per_element(fn, *args):
    """``fn`` of floats, or ``fn`` entry by entry of equal-length arrays,
    returned as a float array."""
    if np.ndim(args[0]) == 0:
        return fn(*args)
    return np.fromiter(map(fn, *(np.asarray(a).tolist() for a in args)), float, len(args[0]))


@dataclass(frozen=True)
class Point3:
    """Point (x, y, t) of the Heisenberg group in global coordinates."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        _require_finite("Point3", self.x, self.y, self.t)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.t)


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector a1*X + a2*Y + a3*T at ``base``."""

    a1: float
    a2: float
    a3: float
    base: Point3

    def __post_init__(self):
        _require_finite("FrameVector", self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class HorizontalVec:
    """Horizontal tangent vector h1*X + h2*Y at ``base``."""

    h1: float
    h2: float
    base: Point3

    def __post_init__(self):
        _require_finite("HorizontalVec", self.h1, self.h2)

    def norm(self) -> float:
        return _per_element(math.hypot, self.h1, self.h2)


def group_mul(p: Point3, q: Point3) -> Point3:
    """Group product (x,y,t)*(x',y',t') = (x+x', y+y', t+t'+2(yx'-xy'))."""
    return Point3(p.x + q.x, p.y + q.y, p.t + q.t + 2.0 * (p.y * q.x - p.x * q.y))


def group_inv(p: Point3) -> Point3:
    """Group inverse; coordinates simply negate."""
    return Point3(-p.x, -p.y, -p.t)


def koranyi_gauge(p: Point3) -> float:
    """Homogeneous gauge ((x^2 + y^2)^2 + t^2)^(1/4)."""
    r2 = p.x * p.x + p.y * p.y
    s = r2 * r2 + p.t * p.t
    # np.float_power calls libm pow per entry, as float ** does; np.power does not
    return s ** 0.25 if np.ndim(s) == 0 else np.float_power(s, 0.25)


def kc_distance(p: Point3, q: Point3) -> float:
    """Left-invariant distance: the gauge of p^{-1} * q."""
    return koranyi_gauge(group_mul(group_inv(p), q))


def frame_to_euclidean(v: FrameVector) -> tuple[float, float, float]:
    """Components of a frame vector in the ambient basis (d/dx, d/dy, d/dt)."""
    x, y = v.base.x, v.base.y
    return (v.a1, v.a2, v.a3 + 2.0 * y * v.a1 - 2.0 * x * v.a2)


def euclidean_to_frame(p: Point3, w) -> FrameVector:
    """Frame components of an ambient tangent triple ``w`` at base point ``p``."""
    wx, wy, wt = w
    return FrameVector(wx, wy, wt - 2.0 * p.y * wx + 2.0 * p.x * wy, p)


def contact_eval(p: Point3, w) -> float:
    """Contact form dt + 2(x dy - y dx) applied to an ambient tangent triple."""
    wx, wy, wt = w
    return wt + 2.0 * (p.x * wy - p.y * wx)


def frame_x(p: Point3) -> FrameVector:
    return FrameVector(1.0, 0.0, 0.0, p)


def frame_y(p: Point3) -> FrameVector:
    return FrameVector(0.0, 1.0, 0.0, p)


def frame_t(p: Point3) -> FrameVector:
    return FrameVector(0.0, 0.0, 1.0, p)


def h_wedge(a: FrameVector, b: FrameVector) -> FrameVector:
    """Formal determinant product in the frame {X, Y, T}.

    Bilinear and antisymmetric, with X^Y = T, Y^T = X, T^X = Y.  Both
    factors must sit at the same base point.
    """
    if not np.array_equal(a.base.as_tuple(), b.base.as_tuple()):
        raise BasePointMismatch(
            f"wedge factors based at {a.base.as_tuple()} and {b.base.as_tuple()}"
        )
    return FrameVector(
        a.a2 * b.a3 - a.a3 * b.a2,
        a.a3 * b.a1 - a.a1 * b.a3,
        a.a1 * b.a2 - a.a2 * b.a1,
        a.base,
    )
