"""The scalar local curvature formula, one point at a time with math.fsum.

This is the per-point path that heisflow.curvature.mean_curvature_batch
replaced: the batch kernel and the functions built on it must match it bit
for bit.  It keeps its own copy of the term lists and of the threshold, so
a change to either in the package shows up as a difference here.
"""

import math

from heisflow.curvature import NEAR_CHAR_FACTOR, CurvatureSample
from heisflow.errors import CharacteristicPoint
from heisflow.horizontal import EPS_CHAR
from heisflow.patch import eval_jet2

_SPLIT = 134217729.0  # 2**27 + 1


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
    xu, yu, tu = j.du
    xv, yv, tv = j.dv
    return eps_char * (1.0 + math.sqrt(xu * xu + yu * yu + tu * tu + xv * xv + yv * yv + tv * tv))


def normal_jet(j):
    """n1, n2, their u- and v-derivatives, and d(x,y), from one 2-jet."""
    x2, y2 = 2.0 * float(j.value[0]), 2.0 * float(j.value[1])
    xu, yu, tu = map(float, j.du)
    xv, yv, tv = map(float, j.dv)
    xuu, yuu, tuu = map(float, j.duu)
    xuv, yuv, tuv = map(float, j.duv)
    xvv, yvv, tvv = map(float, j.dvv)
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
    return q2, q, q < NEAR_CHAR_FACTOR * thr


def reference_local(surface, u, v, eps_char=EPS_CHAR):
    """mean_curvature_local as the scalar path computed it (no warning)."""
    j = eval_jet2(surface, u, v)
    n1, n2, n1_u, n1_v, n2_u, n2_v, _ = normal_jet(j)
    q2, q, near = _gate(j, n1, n2, eps_char)
    x2, y2 = 2.0 * float(j.value[0]), 2.0 * float(j.value[1])
    xu, yu, tu = map(float, j.du)
    xv, yv, tv = map(float, j.dv)
    p_u = fsum_terms(((tu, 1.0), (x2, yu), (-y2, xu)))
    p_v = fsum_terms(((tv, 1.0), (x2, yv), (-y2, xv)))
    a_u = fsum_terms(((n1, n2_u), (-n2, n1_u)))
    a_v = fsum_terms(((n1, n2_v), (-n2, n1_v)))
    H = fsum_terms(((p_v, a_u), (-p_u, a_v))) / (q2 * q)
    return CurvatureSample(u, v, H, "local-formula", q, near)


def reference_quotient(surface, u, v, eps_char=EPS_CHAR, eps_jacobian=1e-10):
    """mean_curvature_jacobian_quotient as the scalar path computed it."""
    j = eval_jet2(surface, u, v)
    n1, n2, n1_u, n1_v, n2_u, n2_v, jxy = normal_jet(j)
    q2, q, _ = _gate(j, n1, n2, eps_char)
    if abs(jxy) < eps_jacobian:
        return 0.0
    q3 = q2 * q
    nu1_u = n2 * (n2 * n1_u - n1 * n2_u) / q3
    nu1_v = n2 * (n2 * n1_v - n1 * n2_v) / q3
    nu2_u = n1 * (n1 * n2_u - n2 * n1_u) / q3
    nu2_v = n1 * (n1 * n2_v - n2 * n1_v) / q3
    xu, yu, _ = map(float, j.du)
    xv, yv, _ = map(float, j.dv)
    return ((nu1_u * yv - nu1_v * yu) + (xu * nu2_v - xv * nu2_u)) / jxy
