"""Horizontal mean curvature from local data or from an integrated flow leaf.

The horizontal mean curvature H of a surface at a non-characteristic point
equals the signed curvature of the complex-plane projection of the horizontal
flow leaf through that point.  With nu = (nu1, nu2) the unit horizontal
normal, differentiating nu along the flow direction gives the local formula

    H = (p_v * A_u - p_u * A_v) / ||N^h||^3,
    A_u = n1 d(n2)/du - n2 d(n1)/du,   A_v = n1 d(n2)/dv - n2 d(n1)/dv.

Whenever the projected parameter Jacobian d(x,y) is nonzero this agrees
algebraically with the determinant quotient

    H = (d(nu1, y) + d(x, nu2)) / d(x, y),

but unlike the quotient it stays well conditioned near the characteristic
locus and remains meaningful when d(x,y) vanishes identically, e.g. on
cylinders over plane curves, where it returns the signed curvature of the
profile instead of a conventional zero.

Sign conventions: a unit-speed plane curve with velocity (-nu2, nu1) and
acceleration kappa * (-nu1, -nu2) has signed curvature kappa; the
counterclockwise unit circle has kappa = +1.

:func:`mean_curvature_batch` evaluates the local formula at every point of
a jet array; it is the only curvature kernel, and a single point is a
batch of one.  Near the characteristic locus the sums of the formula
cancel to far below the size of their terms, so every product is expanded
error-free and each sum is correctly rounded.  :func:`_fsum_columns` sums a
column of terms by TwoSum distillation (Ogita, Rump and Oishi, "Accurate
sum and dot product", SIAM J. Sci. Comput. 26(6), 2005) in tiers, each
kept only where a bound on the residual proves the result correctly
rounded: on every column, one distillation of the products' high parts,
their low parts added in floats, as in the paper's Dot2; two
distillations of all terms only on the columns the first tier leaves open
(0 to 18.3% of the columns on the catalog grids); and math.fsum only on
those the second leaves too (0 to 1.11%).  Each distinct inner product
a*b of the c*a*b terms is expanded once per call.  Sums of one shape
share one call: a dense batch makes four, for n1 and n2, their four
derivatives, the four factors of the numerator, and the numerator.

On a block whose jet entries are all at most ``_SAFE``, a jet component
constant on the block is a float.  A product with the factor 0.0 is never
expanded, and a sum left with none is +0.0 (ruled patches have sigma_vv =
0, the paraboloid 9 zero jet components of 18).  A product whose factors
all but one are powers of two of magnitude at least 1 is exact, and a sum
of at most two exact products is their float sum, which round to nearest
even makes correctly rounded; a sum of floats alone stays a float.  On the
graphs and planes x_u = y_v = 1, and the paraboloid's t_uu and t_vv are
-2 and 2, so its blocks sum nothing by columns and plane_t0's only the
numerator.

:func:`curvature_scan` runs it over one or more surfaces on a shared sample
set, with the skip rule of a grid check, in blocks of ``JET_BLOCK`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CharacteristicPoint, ZeroSpeed
from .horizontal import EPS_CHAR, char_threshold, horizontal_normal_batch
from .patch import SurfaceHandle, blocks, eval_jets, grid_points

__all__ = [
    "MINIMALITY_BAND",
    "NEAR_CHAR_FACTOR",
    "CurvatureBatch",
    "CurvatureScan",
    "HMinimalityReport",
    "mean_curvature_batch",
    "curvature_scan",
    "is_h_minimal",
]

# Conditioning margin: within NEAR_CHAR_FACTOR * threshold of the
# characteristic locus the local formula loses accuracy, and the "band"
# skip rule of curvature_scan drops the point.
NEAR_CHAR_FACTOR = 100.0

# Grid minimality checks skip a wider conditioning band.  The jet entries
# themselves carry relative rounding, which perturbs H by roughly
# eps * scale^3 / ||N^h||^2 at first order, so absolute-1e-8 claims need
# ||N^h|| >= MINIMALITY_BAND * (1 + ||d1||_F); no rearrangement of the
# formula can do better with rounded inputs.
MINIMALITY_BAND = 1e-3

# The bound on max |H| of is_h_minimal, the absolute claim the band allows.
MINIMALITY_TOL = 1e-8

# Dekker splitting constant, 2**27 + 1.
_SPLIT = 134217729.0

# Batched sums are certified only on points whose jet entries are at most
# _SAFE in magnitude, which keeps every product and intermediate sum of the
# formula far from overflow, and only for results of magnitude at least
# _TINY, whose half-ulp is a normal number.  Everything else goes to fsum.
_SAFE = 2.0**100
_TINY = 2.0**-960


class CurvatureBatch(NamedTuple):
    """Local-formula curvature at every point of a jet array.

    ``H`` is NaN where ``char`` is set, that is where ``nh_norm``, the
    ||N^h|| of the point, falls under the characteristic threshold.
    """

    H: np.ndarray
    nh_norm: np.ndarray
    char: np.ndarray


class CurvatureScan(NamedTuple):
    """Curvature of S surfaces at N shared points, each field of shape (S, N);
    H is NaN where the skip rule dropped the point and where it is
    characteristic, as in :class:`CurvatureBatch`."""

    H: np.ndarray
    skip: np.ndarray
    char: np.ndarray


@dataclass(frozen=True)
class HMinimalityReport:
    """Grid summary of |H| away from the characteristic locus."""

    max_abs_H: float
    argmax: tuple[float, float] | None
    n_evaluated: int
    n_skipped: int
    tol: float
    passed: bool
    grid: tuple[int, int]


def _signed_curvatures(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Signed curvature (x' y'' - y' x'') / |(x', y')|^3 of the plane curve
    velocities and accelerations in the columns of the (2, K) arrays d1 and
    d2; raises ZeroSpeed if any column has zero or non-finite speed."""
    (xd, yd), (xdd, ydd) = d1, d2
    with np.errstate(all="ignore"):
        speed2 = xd * xd + yd * yd
        if np.any((speed2 <= 0.0) | ~np.isfinite(speed2)):
            raise ZeroSpeed("signed curvature undefined at zero velocity")
        return (xd * ydd - yd * xdd) / (speed2 * np.sqrt(speed2))


def _two_prod(a, b, p, e) -> None:
    """Error-free product into p and e: p = fl(a*b) and p + e = a*b exactly.
    p and e may be a and b.  Dekker's operations, each into one of the four
    halves as soon as its old value is spent."""
    ah = _SPLIT * a
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    bh = _SPLIT * b
    bl = bh - b
    bh -= bl
    np.subtract(b, bh, out=bl)
    np.multiply(a, b, out=p)
    np.multiply(ah, bh, out=e)
    e -= p
    e += np.multiply(ah, bl, out=ah)
    e += np.multiply(al, bh, out=bh)
    e += np.multiply(al, bl, out=al)


def _two_sum(a, b):
    """Error-free sum: (s, e) with s = fl(a+b) and s + e = a+b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _distil(t: np.ndarray):
    """Pairwise TwoSum over the rows of t: (s, e) with s + sum(e) = sum(t).

    The same operations as :func:`_two_sum`, done in place to halve the
    temporaries.
    """
    errs = np.empty((len(t) - 1, t.shape[1]))
    done = 0
    while len(t) > 1:
        h = len(t) // 2
        a, b = t[:h], t[h:2 * h]
        s = a + b
        bb = s - a
        e = errs[done:done + h]
        np.subtract(s, bb, out=e)
        np.subtract(a, e, out=e)
        np.subtract(b, bb, out=bb)
        e += bb
        done += h
        t = np.concatenate((s, t[2 * h:])) if len(t) % 2 else s
    return t[0], errs


def _certify(s, s2, r):
    """(hi, ok): hi = fl(s + s2), and ok where every sum in s + s2 + [-r, r]
    rounds to hi (ties to even, as in fsum): r is zero, or lo + [-r, r] stays
    strictly inside half the gap to each neighbour of hi, (hi, lo) being the
    exact TwoSum of s and s2."""
    hi, lo = _two_sum(s, s2)
    half = 0.5 * (1.0 - 2.0**-40)
    up = (np.nextafter(hi, np.inf) - hi) * half
    down = (hi - np.nextafter(hi, -np.inf)) * half
    inside = (np.abs(hi) >= _TINY) & (lo + r < up) & (lo - r > -down)
    return hi, (r == 0.0) | inside


def _fsum_columns(t: np.ndarray, safe: np.ndarray, need: np.ndarray | None = None,
                  n_high: int | None = None, order=slice(None)) -> np.ndarray:
    """math.fsum of every column of the (terms, M) array t, with two or more
    terms, bit for bit.

    The first ``n_high`` rows (all by default) are high parts, the rest low
    parts; ``t[order]`` holds the terms in their interleaved order.
    Certification runs in two tiers; an exact zero sum gives +0.0, as fsum
    does.
    - Tier 1, every column: one distillation of the high parts only (Dot2
      of Ogita, Rump and Oishi) leaves sum(t) = s + sum(e) + sum(lows)
      exactly.  s2, that sum of e and lows in floats, in any order, is
      within gamma * sum(|e| + |lows|) of it, and the bound r of that,
      rounded up, is zero only where every e and low part is; hi =
      fl(s + s2) is kept where :func:`_certify` holds.
    - Tier 2, only the safe columns tier 1 left: two distillations of their
      terms in the interleaved order leave sum(t) = s + s2 + sum(e2)
      exactly, with r bounding |sum(e2)|, and :func:`_certify` again.
    Other columns are summed by math.fsum, terms in the interleaved order,
    but only where ``need`` is set; the rest are NaN, as are the columns
    where fsum raises (inf - inf, or an intermediate overflow of huge
    finite terms).
    """
    with np.errstate(all="ignore"):
        high = t[:n_high]
        s, e = _distil(high)
        low = t[len(high) :]
        s2 = e.sum(axis=0) + low.sum(axis=0)
        r = np.abs(e, out=e).sum(axis=0) + np.abs(low).sum(axis=0)
        # with m float-summed rows, gamma_{m-1} / (1 - gamma_{m-1}) < m * 2**-52
        # bounds the error of s2 against the rounded mass; the product is
        # rounded up, so it stays nonzero where it underflows
        mass = r > 0.0
        r *= (len(e) + len(low)) * 2.0**-52
        np.nextafter(r, np.inf, out=r, where=mass)
        del e
        hi, ok = _certify(s, s2, r)
        ok &= safe
        again = np.flatnonzero(safe & ~ok)
        if again.size:
            s, e = _distil(t[:, again][order])
            s2, e2 = _distil(e)
            del e
            r = np.abs(e2, out=e2).sum(axis=0) * (1.0 + 2.0**-30)
            hi[again], ok[again] = _certify(s, s2, r)
    out = np.where(hi == 0.0, 0.0, hi)
    redo = ~ok
    if need is not None:
        out[redo & ~need] = math.nan
        redo &= need
    redo = np.flatnonzero(redo)
    for i, terms in zip(redo.tolist(), t[:, redo][order].T.tolist()):
        try:
            out[i] = math.fsum(terms)
        except (ValueError, OverflowError):
            out[i] = math.nan
    return out


def _exact_product(factors):
    """The product of the factors, a float or an array, when it is exact:
    all but at most one are float powers of two of magnitude at least 1,
    by which a product neither rounds nor, under ``_SAFE``, overflows.
    None otherwise."""
    scale, rest = 1.0, []
    for x in factors:
        if type(x) is float and abs(math.frexp(x)[0]) == 0.5 and abs(x) >= 1.0:
            scale *= x
        else:
            rest.append(x)
    if len(rest) > 1:
        return None
    return scale * rest[0] if rest else scale


def _sums(sums, safe: np.ndarray, need: np.ndarray | None = None) -> list:
    """Correctly rounded sums of a*b pairs and c*a*b triples: one value per
    point, an array or a float, for each of the K ``(pairs, triples)`` in
    ``sums``, each factor an array of one value per point or a float.

    A product with the float factor 0.0 is dropped: its rows would be exact
    zeros, so no sum changes, and a sum left with no product is +0.0.  On a
    block with no unsafe point, a product whose factors all but one are
    float powers of two of magnitude at least 1 is exact, and a sum of at
    most two exact products is their float sum, which round to nearest even
    makes correctly rounded (-0.0 becomes +0.0, as in fsum); a sum of floats
    alone stays a float.  Every other product is expanded error-free into
    the rows of one (terms, k*N) array for the k sums left, shorter sums
    padded with exact-zero products, so one :func:`_fsum_columns` call adds
    them all and cancellation between terms costs no accuracy.  A pair a*b
    gives the terms p + e, a triple c*a*b gives q + f + c*e where a*b = p +
    e and c*p = q + f; each distinct (a, b) of the triples is expanded once.
    The high parts p and q lead the rows.  Triples assume c is an exact
    double (here always +-2x, +-2y or a doubled jet entry, and doubling is
    exact).
    """
    sums = [tuple([f for f in terms if not any(type(x) is float and x == 0.0 for x in f)]
                  for terms in s) for s in sums]
    out, live = [0.0] * len(sums), []
    exact = bool(safe.all())
    for i, (pairs, triples) in enumerate(sums):
        terms = pairs + triples
        products = [_exact_product(f) for f in terms] if exact and len(terms) <= 2 else [None]
        if any(x is None for x in products):
            live.append(i)
        else:
            out[i] = sum(products, 0.0)
    if not live:
        return out
    left = [sums[i] for i in live]
    k, n = len(left), len(safe)
    n_pairs = max(len(pairs) for pairs, _ in left)
    n_triples = max(len(triples) for _, triples in left)
    n_high = n_pairs + n_triples
    # rows p, q, e, f, c*e: each product's factors go into the rows its
    # terms take and are expanded there, a, b -> p, e and c, p_ab, e_ab ->
    # q, f, c*e
    t = np.zeros((2 * n_high + n_triples, k, n))
    p, q, e = t[:n_pairs], t[n_pairs:n_high], t[n_high : n_high + n_pairs]
    f, ce = t[n_high + n_pairs : 2 * n_high], t[2 * n_high :]
    for i, (pairs, _) in enumerate(left):
        for r, (a, b) in enumerate(pairs):
            p[r, i], e[r, i] = a, b
    _two_prod(p, e, p, e)
    if n_triples:
        # the distinct inner products p_ab + e_ab = a*b in rows 1.. of ab,
        # and in row 0 a zero one that pads short sums
        inner, slot = {}, np.zeros((n_triples, k), int)
        for i, (_, triples) in enumerate(left):
            for r, (c, a, b) in enumerate(triples):
                q[r, i] = c
                slot[r, i] = inner.setdefault((id(a), id(b)), (len(inner) + 1, a, b))[0]
        ab = np.zeros((2, len(inner) + 1, n))
        for j, a, b in inner.values():
            ab[0, j], ab[1, j] = a, b
        _two_prod(ab[0], ab[1], ab[0], ab[1])
        np.take(ab[0], slot, axis=0, out=f, mode="clip")
        np.take(ab[1], slot, axis=0, out=ce, mode="clip")
        np.multiply(q, ce, out=ce)
        _two_prod(q, f, q, f)
    # the interleaved order: p, e of each pair, then q, f, c*e of each triple
    order = [r for j in range(n_pairs) for r in (j, n_high + j)]
    order += [r for j in range(n_pairs, n_high) for r in (j, n_high + j, n_high + n_triples + j)]
    need = None if need is None else np.tile(need, k)
    t = t.reshape(len(t), k * n)
    done = _fsum_columns(t, np.tile(safe, k), need, n_high, order).reshape(k, n)
    for i, row in zip(live, done):
        out[i] = row
    return out


def _raise_if_characteristic(nh_norm: np.ndarray, char: np.ndarray) -> None:
    """Raise the CharacteristicPoint of the first flagged point, if any."""
    if char.any():
        q = nh_norm[np.argmax(char)]
        raise CharacteristicPoint(f"curvature undefined: ||N^h|| = {q:.3e}")


def mean_curvature_batch(jets: np.ndarray) -> CurvatureBatch:
    """Local-formula curvature at every point of an (N, 6, 3) jet array;
    characteristic points get H = NaN instead of an exception.  Callers pass
    blocks of at most ``JET_BLOCK`` points to bound the temporaries.
    """
    if not len(jets):
        return CurvatureBatch(np.empty(0), np.empty(0), np.empty(0, bool))
    safe = np.abs(jets).max(axis=(1, 2)) <= _SAFE
    # on a block with no unsafe point, a factor that is constant on the
    # block is a float: _sums drops the products of 0.0 and adds exact
    # products in floats; elsewhere a zero factor may meet an infinite one,
    # and 0 * inf is NaN
    sparse = bool(safe.all())
    const = (sparse & (jets.min(axis=0) == jets.max(axis=0))).tolist()
    first = jets[0].tolist()

    def lean(x):
        return x if not sparse or type(x) is float or x.any() else 0.0

    (x, y, _), (xu, yu, tu), (xv, yv, tv), (xuu, yuu, tuu), (xuv, yuv, tuv), (xvv, yvv, tvv) = (
        [first[f][i] if const[f][i] else jets[:, f, i] for i in range(3)] for f in range(6)
    )
    with np.errstate(all="ignore"):
        x2, y2 = 2.0 * x, 2.0 * y
        xu2, yu2, xv2, yv2 = 2.0 * xu, 2.0 * yu, 2.0 * xv, 2.0 * yv
        # N^h = (jyt + 2y*jxy, jtx - 2x*jxy) in jacobian shorthand, then its
        # u- and v-derivatives by the product rule
        n1, n2 = _sums([
            (((yu, tv), (-tu, yv)), ((y2, xu, yv), (-y2, yu, xv))),
            (((tu, xv), (-xu, tv)), ((-x2, xu, yv), (x2, yu, xv))),
        ], safe)
        n1_u, n1_v, n2_u, n2_v = map(lean, _sums([
            (((yuu, tv), (yu, tuv), (-tuu, yv), (-tu, yuv)),
             ((yu2, xu, yv), (-yu2, yu, xv),
              (y2, xuu, yv), (y2, xu, yuv), (-y2, yuu, xv), (-y2, yu, xuv))),
            (((yuv, tv), (yu, tvv), (-tuv, yv), (-tu, yvv)),
             ((yv2, xu, yv), (-yv2, yu, xv),
              (y2, xuv, yv), (y2, xu, yvv), (-y2, yuv, xv), (-y2, yu, xvv))),
            (((tuu, xv), (tu, xuv), (-xuu, tv), (-xu, tuv)),
             ((-xu2, xu, yv), (xu2, yu, xv),
              (-x2, xuu, yv), (-x2, xu, yuv), (x2, yuu, xv), (x2, yu, xuv))),
            (((tuv, xv), (tu, xvv), (-xuv, tv), (-xu, tvv)),
             ((-xv2, xu, yv), (xv2, yu, xv),
              (-x2, xuv, yv), (-x2, xu, yvv), (x2, yuv, xv), (x2, yu, xvv))),
        ], safe))
        # an N-array even where n1 and n2 are both constant
        q2 = np.broadcast_to(n1 * n1 + n2 * n2, len(jets))
        q = np.sqrt(q2)
        char = q < char_threshold(jets, EPS_CHAR)
        # numerator p_v A_u - p_u A_v, with p_u, p_v, A_u and A_v each
        # correctly rounded first
        m1, m2 = lean(n1), lean(n2)
        p_u, p_v, a_u, a_v = map(lean, _sums([
            (((tu, 1.0), (x2, yu), (-y2, xu)), ()),
            (((tv, 1.0), (x2, yv), (-y2, xv)), ()),
            (((m1, n2_u), (-m2, n1_u)), ()),
            (((m1, n2_v), (-m2, n1_v)), ()),
        ], safe, ~char))
        (num,) = _sums([(((p_v, a_u), (-p_u, a_v)), ())], safe, ~char)
        H = np.where(char, math.nan, num / (q2 * q))
    return CurvatureBatch(H, q, char)


def _running_max(values: np.ndarray, worst: float):
    """Fold ``values`` into ``worst`` as the loop ``if x > worst: worst = x``.

    Returns the new worst and the flat (C order) index of the value that set
    it, the first of equal maxima, or None when no value exceeds ``worst``;
    NaN never does.
    """
    values = np.ravel(values)
    above = values > worst
    if not above.any():
        return worst, None
    i = int(np.argmax(np.where(above, values, -np.inf)))
    return float(values[i]), i


def curvature_scan(surfaces, u, v, *, floor=None, strict: bool = True) -> CurvatureScan:
    """:func:`mean_curvature_batch` of every surface at the points (u[i], v[i]).

    ``floor`` is the skip rule, on the ||N^h|| of horizontal_normal_batch:
    None skips nothing; "band" skips the minimality checks' conditioning
    band, below max(NEAR_CHAR_FACTOR * threshold, MINIMALITY_BAND * (1 +
    ||d1||_F)); a float skips below that fixed value.  The work runs in
    ``JET_BLOCK`` slices of the flat (surface, point) index, so small
    surfaces share blocks.  With ``strict``, the first characteristic point
    kept, in flat order, raises CharacteristicPoint with its ||N^h||;
    otherwise it is flagged in ``char``.
    """
    if not (floor is None or isinstance(floor, float) or floor == "band"):
        raise ValueError(f"floor must be None, 'band' or a float, got {floor!r}")
    u = np.asarray(u, float).reshape(-1)
    v = np.asarray(v, float).reshape(-1)
    n = len(u)
    H = np.full(len(surfaces) * n, math.nan)
    skip = np.zeros(len(H), bool)
    char = np.zeros(len(H), bool)
    for sl in blocks(len(H)):
        jets = []
        for s in range(sl.start // n, (sl.stop - 1) // n + 1):
            a, b = max(sl.start - s * n, 0), min(sl.stop - s * n, n)
            jets.append(eval_jets(surfaces[s], u[a:b], v[a:b]))
        jets = np.concatenate(jets)
        if floor == "band":
            skip[sl] = horizontal_normal_batch(jets)[2] < np.maximum(
                NEAR_CHAR_FACTOR * char_threshold(jets, EPS_CHAR),
                char_threshold(jets, MINIMALITY_BAND),
            )
        elif floor is not None:
            skip[sl] = horizontal_normal_batch(jets)[2] < floor
        kept = np.flatnonzero(~skip[sl])
        # frees the whole block before the curvature temporaries; a take along
        # the point axis of the storage keeps the component-major layout
        jets = np.take(jets.transpose(1, 2, 0), kept, axis=2).transpose(2, 0, 1)
        batch = mean_curvature_batch(jets)
        if strict:
            _raise_if_characteristic(batch.nh_norm, batch.char)
        H[sl.start + kept] = batch.H
        char[sl.start + kept] = batch.char
    return CurvatureScan(*(a.reshape(len(surfaces), n) for a in (H, skip, char)))


def _has_stencil(trace) -> bool:
    """Whether a flow trace has a sample on each side of its seed."""
    return 1 <= trace.seed_index <= len(trace) - 2


def _seed_curvatures(traces) -> np.ndarray:
    """The flow oracle's curvature of each trace: the signed curvature of
    its planar projection at the seed, from central differences over the
    neighbouring samples, the trace's own ``ds`` apart.  Every trace must
    pass :func:`_has_stencil`."""
    p = np.array([t.points[t.seed_index - 1 : t.seed_index + 2, :2] for t in traces])
    p_prev, p_mid, p_next = p.reshape(-1, 3, 2).transpose(1, 2, 0)
    ds = np.array([t.ds for t in traces])
    d1 = (p_next - p_prev) / (2.0 * ds)
    d2 = (p_next - 2.0 * p_mid + p_prev) / (ds * ds)
    return _signed_curvatures(d1, d2)


def _grid_max_error(surfaces, grid, *, floor=None, target=0.0):
    """The worst |H - target| of the surfaces on a grid over their shared
    domain, from the strict :func:`curvature_scan` with skip rule ``floor``:
    (worst, (k, u, v) of surfaces[k] where it occurred, the number of points
    kept, the number skipped).  ``target`` is the exact H, one value for
    every surface or one per surface.  The fold starts below zero, so any
    finite H counts; with none, worst is NaN and there is no argmax.
    """
    u, v = grid_points(*surfaces[0].domain.linspace(*grid))
    scan = curvature_scan(surfaces, u, v, floor=floor)
    worst, i = _running_max(np.abs(scan.H - np.reshape(target, (-1, 1))), -1.0)
    n_skipped = int(scan.skip.sum())
    if i is None:
        return math.nan, None, scan.H.size - n_skipped, n_skipped
    k, p = divmod(i, len(u))
    return worst, (k, float(u[p]), float(v[p])), scan.H.size - n_skipped, n_skipped


def is_h_minimal(
    surface: SurfaceHandle,
    grid: tuple[int, int] = (101, 101),
) -> HMinimalityReport:
    """Grid test of horizontal minimality: max |H| <= tol off the locus,
    with tol = :data:`MINIMALITY_TOL`.

    Cells too close to the characteristic locus for an absolute claim at
    tol (the ``"band"`` rule of :func:`curvature_scan`) are skipped and
    counted; a grid without a finite H yields a failed report with max_abs_H
    NaN rather than an error.
    """
    worst, where, n_eval, n_skip = _grid_max_error([surface], grid, floor="band")
    argmax = None if where is None else where[1:]
    tol = MINIMALITY_TOL
    return HMinimalityReport(worst, argmax, n_eval, n_skip, tol, worst <= tol, grid)
