"""Horizontal normal field, characteristic points and the horizontal flow direction.

For a patch sigma(u, v) = (x, y, t) the pullback of the contact form is
omega_Sigma = p_u du + p_v dv with

    p_u = t_u + 2 (x y_u - y x_u),      p_v = t_v + 2 (x y_v - y x_v),

and the frame components of the horizontal normal N^h (the horizontal part
of the frame wedge sigma_u ^ sigma_v) are

    n1 = d(y,t) + 2 y d(x,y),           n2 = d(t,x) - 2 x d(x,y),

in terms of the parameter Jacobians d(.,.).  Both p_u and p_v vanish exactly
where N^h does: those are the characteristic points, where the tangent plane
is horizontal and no unit horizontal normal exists.  Away from them the
kernel direction of omega_Sigma scaled to unit horizontal push-forward is
(p_v, -p_u) / ||N^h|| in parameter space; its push-forward is the quarter
turn J(nu^h) = -nu2 X + nu1 Y of the unit horizontal normal.

The ``*_batch`` functions take an (N, 6, 3) jet array from
:func:`heisflow.patch.eval_jets` and return one value per point, bit-identical
to the scalar functions: they use only + - * / and sqrt, which numpy rounds
as Python does, and take ||N^h|| from :func:`math.hypot` per point, because
numpy's hypot rounds differently on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CharacteristicPoint
from .heis import HorizontalVec, Point3
from .patch import Jet2, jacobians

__all__ = [
    "EPS_CHAR",
    "HorizontalNormal",
    "InducedFormCoeffs",
    "FlowDirection",
    "CharCheck",
    "char_threshold",
    "horizontal_normal",
    "horizontal_normal_batch",
    "unit_horizontal_normal",
    "is_characteristic",
    "induced_form",
    "induced_form_batch",
    "induced_form_curl",
    "flow_direction",
    "normal_compatibility",
    "nh_euclidean",
]

# Base tolerance deciding when ||N^h|| counts as zero.  The effective
# threshold is scale aware: EPS_CHAR * (1 + Frobenius norm of the first
# derivatives), so stretching a patch does not change what is flagged.
EPS_CHAR = 1e-9


@dataclass(frozen=True)
class HorizontalNormal:
    """Frame components and length of the horizontal normal at a point."""

    n1: float
    n2: float
    norm: float
    base: Point3


@dataclass(frozen=True)
class InducedFormCoeffs:
    """Coefficients (p_u, p_v) of the pulled-back contact form."""

    p_u: float
    p_v: float


@dataclass(frozen=True)
class FlowDirection:
    """Parameter-space direction (du, dv) of unit-speed horizontal flow."""

    du: float
    dv: float


class CharCheck(NamedTuple):
    is_characteristic: bool
    nh_norm: float


def _first_order(formula):
    """Evaluate ``formula(x, y, (xu, yu, tu), (xv, yv, tv), sqrt, *args)`` on
    the Python floats of one :class:`Jet2` with math.sqrt, or on the entries
    of an (N, 6, 3) jet array with np.sqrt under np.errstate(all="ignore"):
    huge but finite jets overflow there, as float arithmetic does silently."""

    def on_jets(j, *args):
        if isinstance(j, Jet2):
            x, y, _ = j.value.tolist()
            return formula(x, y, j.du.tolist(), j.dv.tolist(), math.sqrt, *args)
        with np.errstate(all="ignore"):
            return formula(*_array_args(j), *args)

    on_jets.formula = formula  # for callers that fuse several under one errstate
    return on_jets


def _array_args(j: np.ndarray):
    """The leading arguments of a first-order formula on an (N, 6, 3) jet array."""
    return j[:, 0, 0], j[:, 0, 1], j[:, 1].T, j[:, 2].T, np.sqrt


@_first_order
def _threshold(x, y, du, dv, sqrt, eps_char):
    (xu, yu, tu), (xv, yv, tv) = du, dv
    return eps_char * (1.0 + sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))


def char_threshold(j, eps_char: float = EPS_CHAR):
    """Scale-aware vanishing threshold eps_char * (1 + ||d1||_F) for ||N^h||,
    at one :class:`Jet2` or at every point of an (N, 6, 3) jet array."""
    return _threshold(j, eps_char)


@_first_order
def _normal_components(x, y, du, dv, sqrt):
    """(n1, n2) of one jet, or of every point of a jet array."""
    (xu, yu, tu), (xv, yv, tv) = du, dv
    jxy = xu * yv - yu * xv
    return (yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy


@_first_order
def _pullback_coeffs(x, y, du, dv, sqrt):
    """(p_u, p_v) of one jet, or of every point of a jet array."""
    (xu, yu, tu), (xv, yv, tv) = du, dv
    return tu + 2.0 * (x * yu - y * xu), tv + 2.0 * (x * yv - y * xv)


def horizontal_normal_batch(jets: np.ndarray):
    """(n1, n2, ||N^h||) at every point, as :func:`horizontal_normal` gives them."""
    n1, n2 = _normal_components(jets)
    norm = np.fromiter(map(math.hypot, n1.tolist(), n2.tolist()), float, len(n1))
    return n1, n2, norm


def horizontal_normal(j: Jet2) -> HorizontalNormal:
    """Horizontal normal in frame components; well defined at every point."""
    n1, n2 = _normal_components(j)
    base = Point3(float(j.value[0]), float(j.value[1]), float(j.value[2]))
    return HorizontalNormal(n1, n2, math.hypot(n1, n2), base)


def unit_horizontal_normal(j: Jet2, eps_char: float = EPS_CHAR) -> HorizontalVec:
    """Unit horizontal normal nu^h = N^h / ||N^h||.

    Raises CharacteristicPoint when ||N^h|| falls under the scale-aware
    threshold.
    """
    nh = horizontal_normal(j)
    if nh.norm < char_threshold(j, eps_char):
        raise CharacteristicPoint(f"||N^h|| = {nh.norm:.3e} at characteristic point")
    return HorizontalVec(nh.n1 / nh.norm, nh.n2 / nh.norm, nh.base)


def is_characteristic(j: Jet2, eps_char: float = EPS_CHAR) -> CharCheck:
    """Flag plus ||N^h||, using the scale-aware threshold."""
    n1, n2 = _normal_components(j)
    q = math.hypot(n1, n2)
    return CharCheck(q < char_threshold(j, eps_char), q)


def induced_form(j: Jet2) -> InducedFormCoeffs:
    """Pullback coefficients of the contact form on the patch."""
    p_u, p_v = _pullback_coeffs(j)
    return InducedFormCoeffs(p_u, p_v)


def induced_form_batch(jets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_u, p_v) at every point, as :func:`induced_form` gives them."""
    return _pullback_coeffs(jets)


def induced_form_curl(j: Jet2) -> float:
    """Exterior-derivative coefficient d(p_u)/dv - d(p_v)/du of omega_Sigma.

    Expanding the cross terms this always equals -4 d(x,y); the literal
    difference of second-jet expressions is returned so closedness can be
    verified without invoking that simplification.
    """
    x, y = float(j.value[0]), float(j.value[1])
    xu, yu, _tu = j.du
    xv, yv, _tv = j.dv
    _xuu, _yuu, _tuu = j.duu
    xuv, yuv, tuv = j.duv
    _xvv, _yvv, _tvv = j.dvv
    dpu_dv = tuv + 2.0 * (xv * yu + x * yuv - yv * xu - y * xuv)
    dpv_du = tuv + 2.0 * (xu * yv + x * yuv - yu * xv - y * xuv)
    return dpu_dv - dpv_du


def flow_direction(j: Jet2, eps_char: float = EPS_CHAR) -> FlowDirection:
    """Unit-horizontal-speed flow direction (p_v, -p_u) / ||N^h||.

    The push-forward of this parameter vector is -nu2 X + nu1 Y, the
    quarter turn of the unit horizontal normal, so omega_Sigma annihilates
    it and its horizontal length is one.
    """
    char, q = is_characteristic(j, eps_char)
    if char:
        raise CharacteristicPoint(f"flow direction undefined: ||N^h|| = {q:.3e}")
    p_u, p_v = _pullback_coeffs(j)
    return FlowDirection(p_v / q, -p_u / q)


def nh_euclidean(j: Jet2) -> np.ndarray:
    """Ambient coordinates of N^h under the frame-to-ambient identification."""
    x, y = float(j.value[0]), float(j.value[1])
    n1, n2 = _normal_components(j)
    return np.array((n1, n2, 2.0 * y * n1 - 2.0 * x * n2))


def normal_compatibility(j: Jet2) -> float:
    """Ambient dot product N . N^h of the Euclidean and horizontal normals.

    Writing N = (d(y,t), d(t,x), d(x,y)) and embedding N^h in ambient
    coordinates, the product collapses to n1^2 + n2^2; returning the
    uncollapsed dot product lets callers verify that identity.
    """
    jyt, jtx, jxy = jacobians(j)
    nh = nh_euclidean(j)
    return jyt * float(nh[0]) + jtx * float(nh[1]) + jxy * float(nh[2])
