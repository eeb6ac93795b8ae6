"""The term jets as a per-term loop: the reference for the generated jets.

heisflow.builders generates one straight-line function per group of term
sum shapes: TermSum.jet runs the group of one sum, a field formula the group
of the sums it reads.  This module keeps the per-term loop those functions
replaced, with its own copy of the multipliers, and the ruling direction
(a, b) = (cos theta, sin theta) with its derivatives, so a change to either
the generator or the plans in the package shows up as a difference here.  On a float a polynomial power is
Python's ``**``, +-inf where ``**`` raises on overflow, and cosine and sine
are math's, NaN past the float range; on an array both run entry by entry
as on floats, except that cosine and sine are numpy's and ``s**1`` is s.
"""

import math

import numpy as np

# pow(x, 2) != x * x at the first two (glibc pow is not correctly rounded
# there), and pow(x, 3) != np.power(x, 3) at the third
POW_DIFFERS = [-2.8239505176090614, 4.309727835887987, 3.710839689613895]
# 1e60 ** 6 and 1e300 ** 2 overflow, where float ** raises
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e60, -1e60, 1e300, -1e300]


def _pow(s, p):
    try:
        return s**p
    except OverflowError:
        return math.copysign(math.inf, s) ** p


def _power(s, p):
    if not isinstance(s, np.ndarray):
        return _pow(s, p)
    if p == 1:
        return s
    return np.array([_pow(x, p) for x in s.ravel().tolist()], float).reshape(s.shape)


def _cos_sin(w):
    if isinstance(w, np.ndarray):
        return np.cos(w), np.sin(w)
    try:
        return math.cos(w), math.sin(w)
    except ValueError:
        return math.nan, math.nan


def term_jet(term, s):
    """(f, f', f'', f''') of one term at s, a float or a float array."""
    c, k = term.coeff, term.k
    if term.kind == "poly":
        out, fac = [0.0, 0.0, 0.0, 0.0], 1.0
        for i, p in enumerate(range(k, max(k - 4, -1), -1)):
            out[i] = c * fac * _power(s, p) if p else c * fac
            fac *= p
        return tuple(out)
    cw, sw = _cos_sin(k * s)
    if term.kind == "cos":
        return c * cw, -c * k * sw, -c * k * k * cw, c * k**3 * sw
    return c * sw, c * k * cw, -c * k * k * sw, -c * k**3 * cw


def term_sum_jet(term_sum, s):
    """The jet of a term sum: each entry starts at 0.0 and adds its terms'."""
    f = f1 = f2 = f3 = 0.0
    for term in term_sum.terms:
        g, g1, g2, g3 = term_jet(term, s)
        f += g
        f1 += g1
        f2 += g2
        f3 += g3
    return f, f1, f2, f3


def direction_jet(theta, s, n):
    """The first n of (a, b), (a', b'), (a'', b'') for a = cos theta and
    b = sin theta, from the jet of the term sum theta."""
    th, th1, th2, _ = term_sum_jet(theta, s)
    a, b = _cos_sin(th)
    return (a, b, -b * th1, a * th1,
            -a * th1 * th1 - b * th2, -b * th1 * th1 + a * th2)[: 2 * n]
