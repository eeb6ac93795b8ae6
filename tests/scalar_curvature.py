"""The float path: jets, first-order fields and the local curvature formula,
one point at a time on Python floats.

The jet of one point comes from a surface's field formula run on floats,
the first-order quantities from this file's copies of the formulas of
heisflow.horizontal run on those floats with math.sqrt and math.hypot, in
their order of operations, and the curvature from the
per-point math.fsum path that heisflow.curvature.mean_curvature_batch
replaced; :func:`reference_local` is that path, and raises
CharacteristicPoint with the message of the strict
heisflow.curvature.curvature_scan.  The array path must match all of it
bit for bit.  The curvature code keeps its own copy of the term lists and
of the threshold, so a change to either in the package shows up as a
difference here.
"""

import math
from typing import NamedTuple

import numpy as np

from heisflow.errors import CharacteristicPoint
from heisflow.horizontal import EPS_CHAR

_SPLIT = 134217729.0  # 2**27 + 1


class LocalSample(NamedTuple):
    """The curvature of one point and the ||N^h|| its gate tested."""

    H: float
    nh_norm: float


def scalar_jet(surface, u, v):
    """The (6, 3) jet at one point inside the domain, from the field formula
    on floats; second partials a formula leaves out are zero."""
    assert surface.domain.contains(u, v)
    fields = surface.fields(u, v)
    return np.array([[float(c) for c in f] for f in fields] + [[0.0] * 3] * (6 - len(fields)))


def scalar_normal(j):
    """(n1, n2, ||N^h||) of one (6, 3) or (3, 3) jet, on floats."""
    (x, y, _), (xu, yu, tu), (xv, yv, tv) = np.asarray(j, float)[:3].tolist()
    jxy = xu * yv - yu * xv
    n1, n2 = (yu * tv - tu * yv) + 2.0 * y * jxy, (tu * xv - xu * tv) - 2.0 * x * jxy
    return n1, n2, math.hypot(n1, n2)


def scalar_pullback(j):
    """(p_u, p_v) of one (6, 3) or (3, 3) jet, on floats."""
    (x, y, _), (xu, yu, tu), (xv, yv, tv) = np.asarray(j, float)[:3].tolist()
    return tu + 2.0 * (x * yu - y * xu), tv + 2.0 * (x * yv - y * xv)


def scalar_threshold(j, eps_char=EPS_CHAR):
    """char_threshold of one (6, 3) or (3, 3) jet, on floats."""
    _, (xu, yu, tu), (xv, yv, tv) = np.asarray(j, float)[:3].tolist()
    thr = eps_char * (1.0 + math.sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))
    if thr == math.inf:  # the sum of squares overflowed: the norm by hypot
        thr = eps_char * (1.0 + math.hypot(xu, yu, tu, xv, yv, tv))
    return thr


def _two_prod(a, b):
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def fsum_terms(pairs, triples=()):
    """Correctly rounded sum of a*b pairs and c*a*b triples (c exact)."""
    acc = []
    for a, b in pairs:
        acc.extend(_two_prod(a, b))
    for c, a, b in triples:
        p, e = _two_prod(a, b)
        acc.extend(_two_prod(c, p))
        acc.append(c * e)
    return math.fsum(acc)


def threshold(j, eps_char):
    xu, yu, tu = j[1].tolist()
    xv, yv, tv = j[2].tolist()
    return eps_char * (1.0 + math.sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))


def normal_jet(j):
    """n1, n2, their u- and v-derivatives, and d(x,y), from one (6, 3) jet."""
    (x, y, _), (xu, yu, tu), (xv, yv, tv), (xuu, yuu, tuu), (xuv, yuv, tuv), (
        xvv, yvv, tvv) = j.tolist()
    x2, y2 = 2.0 * x, 2.0 * y
    xu2, yu2, xv2, yv2 = 2.0 * xu, 2.0 * yu, 2.0 * xv, 2.0 * yv
    n1 = fsum_terms(((yu, tv), (-tu, yv)), ((y2, xu, yv), (-y2, yu, xv)))
    n2 = fsum_terms(((tu, xv), (-xu, tv)), ((-x2, xu, yv), (x2, yu, xv)))
    n1_u = fsum_terms(
        ((yuu, tv), (yu, tuv), (-tuu, yv), (-tu, yuv)),
        ((yu2, xu, yv), (-yu2, yu, xv),
         (y2, xuu, yv), (y2, xu, yuv), (-y2, yuu, xv), (-y2, yu, xuv)),
    )
    n1_v = fsum_terms(
        ((yuv, tv), (yu, tvv), (-tuv, yv), (-tu, yvv)),
        ((yv2, xu, yv), (-yv2, yu, xv),
         (y2, xuv, yv), (y2, xu, yvv), (-y2, yuv, xv), (-y2, yu, xvv)),
    )
    n2_u = fsum_terms(
        ((tuu, xv), (tu, xuv), (-xuu, tv), (-xu, tuv)),
        ((-xu2, xu, yv), (xu2, yu, xv),
         (-x2, xuu, yv), (-x2, xu, yuv), (x2, yuu, xv), (x2, yu, xuv)),
    )
    n2_v = fsum_terms(
        ((tuv, xv), (tu, xvv), (-xuv, tv), (-xu, tvv)),
        ((-xv2, xu, yv), (xv2, yu, xv),
         (-x2, xuv, yv), (-x2, xu, yvv), (x2, yuv, xv), (x2, yu, xvv)),
    )
    jxy = fsum_terms(((xu, yv), (-yu, xv)))
    return n1, n2, n1_u, n1_v, n2_u, n2_v, jxy


def _gate(j, n1, n2, eps_char):
    q2 = n1 * n1 + n2 * n2
    q = math.sqrt(q2)
    thr = threshold(j, eps_char)
    if q < thr:
        raise CharacteristicPoint(f"curvature undefined: ||N^h|| = {q:.3e}")
    return q2, q


def reference_local(surface, u, v, eps_char=EPS_CHAR):
    """The curvature of one point by the per-point math.fsum path, raising
    CharacteristicPoint under the threshold."""
    return local_of_jet(scalar_jet(surface, u, v), eps_char)


def local_of_jet(j, eps_char=EPS_CHAR):
    """:func:`reference_local` of one (6, 3) jet."""
    n1, n2, n1_u, n1_v, n2_u, n2_v, _ = normal_jet(j)
    q2, q = _gate(j, n1, n2, eps_char)
    (x, y, _), (xu, yu, tu), (xv, yv, tv) = j[:3].tolist()
    x2, y2 = 2.0 * x, 2.0 * y
    p_u = fsum_terms(((tu, 1.0), (x2, yu), (-y2, xu)))
    p_v = fsum_terms(((tv, 1.0), (x2, yv), (-y2, xv)))
    a_u = fsum_terms(((n1, n2_u), (-n2, n1_u)))
    a_v = fsum_terms(((n1, n2_v), (-n2, n1_v)))
    H = fsum_terms(((p_v, a_u), (-p_u, a_v))) / (q2 * q)
    return LocalSample(H, q)


def reference_quotient(surface, u, v, eps_char=EPS_CHAR, eps_jacobian=1e-10):
    """The determinant form (d(nu1,y) + d(x,nu2)) / d(x,y) of the local
    formula, 0 by convention where |d(x,y)| < eps_jacobian."""
    j = scalar_jet(surface, u, v)
    n1, n2, n1_u, n1_v, n2_u, n2_v, jxy = normal_jet(j)
    q2, q = _gate(j, n1, n2, eps_char)
    if abs(jxy) < eps_jacobian:
        return 0.0
    q3 = q2 * q
    nu1_u = n2 * (n2 * n1_u - n1 * n2_u) / q3
    nu1_v = n2 * (n2 * n1_v - n1 * n2_v) / q3
    nu2_u = n1 * (n1 * n2_u - n2 * n1_u) / q3
    nu2_v = n1 * (n1 * n2_v - n2 * n1_v) / q3
    (xu, yu, _), (xv, yv, _) = j[1:3].tolist()
    return ((nu1_u * yv - nu1_v * yu) + (xu * nu2_v - xv * nu2_u)) / jxy
