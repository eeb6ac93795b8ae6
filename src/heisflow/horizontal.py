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

Every function here takes an (N, 6, 3) jet array from
:func:`heisflow.patch.eval_jets`, or its (N, 3, 3) first-order part, and
returns one value per point.  The formulas use only + - * / and sqrt, which
numpy rounds as Python does, and ||N^h|| comes from :func:`math.hypot` per
point, because numpy's hypot rounds differently on some inputs; so the flow
field of :mod:`heisflow.flow`, which writes their arithmetic out on floats,
gets their bits.
"""

from __future__ import annotations

import math

import numpy as np

from .heis import _per_element

__all__ = [
    "EPS_CHAR",
    "char_threshold",
    "horizontal_normal_batch",
    "induced_form_batch",
    "normal_compatibility",
]

# Base tolerance deciding when ||N^h|| counts as zero.  The effective
# threshold is scale aware: EPS_CHAR * (1 + Frobenius norm of the first
# derivatives), so stretching a patch does not change what is flagged.
EPS_CHAR = 1e-9


def _first_order(formula):
    """Evaluate ``formula(x, y, (xu, yu, tu), (xv, yv, tv), *args)`` on the
    entries of a jet array under np.errstate(all="ignore"): huge but finite
    jets overflow there, as float arithmetic does silently.  ``formula``
    itself stays reachable as ``.entries``, for entries that are floats or
    arrays broadcasting together, as a formula returns them on grid axes."""

    def on_jets(j, *args):
        with np.errstate(all="ignore"):
            return formula(j[:, 0, 0], j[:, 0, 1], j[:, 1].T, j[:, 2].T, *args)

    on_jets.__name__, on_jets.__doc__ = formula.__name__, formula.__doc__
    on_jets.entries = formula
    return on_jets


@_first_order
def char_threshold(x, y, du, dv, eps: float = EPS_CHAR):
    """Scale-aware vanishing threshold eps * (1 + ||d1||_F) for ||N^h|| at
    each point of a jet array (math.hypot's norm where squares overflow)."""
    (xu, yu, tu), (xv, yv, tv) = du, dv
    thr = eps * (1.0 + np.sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))
    if np.isinf(thr).any():  # broadcast first: entries may be floats or axis arrays
        *d, thr = np.broadcast_arrays(*du, *dv, thr)
        thr, huge = thr.copy(), np.isinf(thr)
        thr[huge] = eps * (1.0 + _per_element(math.hypot, *(c[huge] for c in d)))
    return thr


# The threshold on entries under its own name, which stays the formula where
# char_threshold is wrapped (as the benchmark's traced pass wraps it).
_threshold = char_threshold.entries


@_first_order
def _normal_components(x, y, du, dv):
    """(n1, n2) at every point of a jet array."""
    (xu, yu, tu), (xv, yv, tv) = du, dv
    jxy = xu * yv - yu * xv
    return (yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy


@_first_order
def induced_form_batch(x, y, du, dv):
    """Pullback coefficients (p_u, p_v) of the contact form at every point."""
    (xu, yu, tu), (xv, yv, tv) = du, dv
    return tu + 2.0 * (x * yu - y * xu), tv + 2.0 * (x * yv - y * xv)


def horizontal_normal_batch(jets: np.ndarray):
    """(n1, n2, ||N^h||) at every point: the frame components of the
    horizontal normal and its length, well defined at every point."""
    n1, n2 = _normal_components(jets)
    return n1, n2, _per_element(math.hypot, n1, n2)


@_first_order
def normal_compatibility(x, y, du, dv):
    """Ambient dot product N . N^h of the Euclidean and horizontal normals
    at every point of an (N, 6, 3) jet array.

    Writing N = (d(y,t), d(t,x), d(x,y)) and embedding N^h in ambient
    coordinates, the product collapses to n1^2 + n2^2; returning the
    uncollapsed dot product lets callers verify that identity.
    """
    (xu, yu, tu), (xv, yv, tv) = du, dv
    jxy = xu * yv - yu * xv
    n1, n2 = (yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy
    nh_t = 2.0 * y * n1 - 2.0 * x * n2  # the t entry of N^h in ambient coordinates
    return (yu * tv - tu * yv) * n1 + (tu * xv - xu * tv) * n2 + jxy * nh_t
