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
profile instead of a conventional zero.  The quotient form is kept as
:func:`mean_curvature_jacobian_quotient` for cross-checks.

Sign conventions: a unit-speed plane curve with velocity (-nu2, nu1) and
acceleration kappa * (-nu1, -nu2) has signed curvature kappa; the
counterclockwise unit circle has kappa = +1.

:func:`mean_curvature_batch` evaluates the local formula at every point of
a jet array; it is the only curvature kernel, and
:func:`mean_curvature_local` is a batch of one.  Near the characteristic
locus the sums of the formula cancel to far below the size of their terms,
so every product is expanded error-free and each sum is correctly rounded:
a column of terms is summed by TwoSum distillation (Ogita, Rump and Oishi,
"Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005) and kept
only where a bound on the residual proves the result correctly rounded.
The remaining columns, typically under 1%, go to the exact fallback of
:func:`_fsum_columns`.

:func:`curvature_scan` runs it over one or more surfaces on a shared sample
set, with the skip rule of a grid check, in blocks of ``JET_BLOCK`` points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    CharacteristicPoint,
    FlowEscapedDomain,
    NearCharacteristicWarning,
    ZeroSpeed,
)
from .horizontal import EPS_CHAR, char_threshold, horizontal_normal_batch, is_characteristic
from .patch import SurfaceHandle, blocks, eval_jet2, eval_jets, grid_points

__all__ = [
    "EPS_JACOBIAN",
    "MINIMALITY_BAND",
    "NEAR_CHAR_FACTOR",
    "CurvatureSample",
    "CurvatureBatch",
    "CurvatureScan",
    "HMinimalityReport",
    "signed_curvature_plane",
    "mean_curvature_local",
    "mean_curvature_batch",
    "curvature_scan",
    "mean_curvature_jacobian_quotient",
    "mean_curvature_flow_oracle",
    "is_h_minimal",
]

# Below this |d(x,y)| the determinant-quotient form switches to its
# vertical-tangency convention.
EPS_JACOBIAN = 1e-10

# Conditioning margin: within NEAR_CHAR_FACTOR * threshold of the
# characteristic locus the local formula is flagged as degraded.
NEAR_CHAR_FACTOR = 100.0

# Grid minimality checks skip a wider conditioning band.  The jet entries
# themselves carry relative rounding, which perturbs H by roughly
# eps * scale^3 / ||N^h||^2 at first order, so absolute-1e-8 claims need
# ||N^h|| >= MINIMALITY_BAND * (1 + ||d1||_F); no rearrangement of the
# formula can do better with rounded inputs.
MINIMALITY_BAND = 1e-3

# Dekker splitting constant, 2**27 + 1.
_SPLIT = 134217729.0

# Batched sums are certified only on points whose jet entries are at most
# _SAFE in magnitude, which keeps every product and partial sum of the
# formula far from overflow, and only for results of magnitude at least
# _TINY, whose half-ulp is a normal number.  Everything else goes to fsum.
_SAFE = 2.0**100
_TINY = 2.0**-960


@dataclass(frozen=True)
class CurvatureSample:
    """One curvature evaluation: parameters, value and provenance."""

    u: float
    v: float
    H: float
    method: str  # "local-formula" | "flow-oracle"
    nh_norm: float
    near_char: bool = False


class CurvatureBatch(NamedTuple):
    """Local-formula curvature at every point of a jet array.

    ``H`` is NaN where ``char`` is set, that is where
    :func:`mean_curvature_local` raises CharacteristicPoint; ``nh_norm`` is
    the ||N^h|| that gate tests, as in :attr:`CurvatureSample.nh_norm`.
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


def signed_curvature_plane(d1, d2) -> float:
    """Signed curvature (x' y'' - y' x'') / |(x', y')|^3 of a plane curve."""
    d1, d2 = (np.array([[float(d[0])], [float(d[1])]]) for d in (d1, d2))
    return float(_signed_curvatures(d1, d2)[0])


def _signed_curvatures(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """:func:`signed_curvature_plane` of every column of the (2, K) arrays
    d1 and d2; raises ZeroSpeed if any column has zero or non-finite speed."""
    (xd, yd), (xdd, ydd) = d1, d2
    with np.errstate(all="ignore"):
        speed2 = xd * xd + yd * yd
        if np.any((speed2 <= 0.0) | ~np.isfinite(speed2)):
            raise ZeroSpeed("signed curvature undefined at zero velocity")
        return (xd * ydd - yd * xdd) / (speed2 * np.sqrt(speed2))


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: (p, e) with p = fl(a*b) and p + e = a*b exactly."""
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _fsum_terms(pairs, triples=(), *, total):
    """Correctly rounded sum of a*b pairs and c*a*b triples, one per point.

    The entries are arrays of one value per point.  Every product is
    expanded error-free before ``total``, a column summer such as
    :func:`_fsum_columns`, adds the terms, so cancellation between terms
    costs no accuracy; triples assume c is an exact double (here always
    +-2x, +-2y or a doubled jet entry, and doubling is exact).
    """
    acc = []
    for a, b in pairs:
        p, e = _two_prod(a, b)
        acc.append(p)
        acc.append(e)
    for c, a, b in triples:
        p, e = _two_prod(a, b)
        q, f = _two_prod(c, p)
        acc.append(q)
        acc.append(f)
        acc.append(c * e)
    return total(acc)


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


def _fsum_columns(acc, safe: np.ndarray, need: np.ndarray | None = None) -> np.ndarray:
    """math.fsum of every column of the term rows ``acc`` (two or more), bit
    for bit.  Consumes ``acc``.

    Two distillation passes leave sum(t) = hi + lo + sum(e2) exactly, with
    (hi, lo) an exact TwoSum, so hi is the correctly rounded sum (ties to
    even, as in fsum) where the bound r on |sum(e2)| is zero, and also
    where lo + [-r, r] stays strictly inside half the gap to each
    neighbour of hi.  An exact zero sum gives +0.0, as fsum does.  Other
    columns are summed by math.fsum, which also raises its own errors
    there, but only where ``need`` is set; the rest are NaN.
    """
    t = np.stack(acc)
    acc.clear()  # the term arrays live on in t
    with np.errstate(all="ignore"):
        s, e = _distil(t)
        s2, e2 = _distil(e)
        del e
        hi, lo = _two_sum(s, s2)
        r = np.abs(e2, out=e2).sum(axis=0) * (1.0 + 2.0**-30)
        half = 0.5 * (1.0 - 2.0**-40)
        up = (np.nextafter(hi, np.inf) - hi) * half
        down = (hi - np.nextafter(hi, -np.inf)) * half
        inside = (np.abs(hi) >= _TINY) & (lo + r < up) & (lo - r > -down)
        ok = safe & ((r == 0.0) | inside)
    out = np.where(hi == 0.0, 0.0, hi)
    redo = ~ok
    if need is not None:
        out[redo & ~need] = math.nan
        redo &= need
    for i in np.flatnonzero(redo).tolist():
        out[i] = math.fsum(t[:, i].tolist())
    return out


def _normal_sums(x2, y2, du, dv, duu, duv, dvv, *, total):
    """n1, n2 and their u- and v-derivatives from the jet entries.

    With N^h = (jyt + 2y*jxy, jtx - 2x*jxy) in jacobian shorthand, the six
    outputs are that pair and its u- and v-derivatives by the product rule,
    each summed by ``total``.
    """
    xu, yu, tu = du
    xv, yv, tv = dv
    xuu, yuu, tuu = duu
    xuv, yuv, tuv = duv
    xvv, yvv, tvv = dvv
    xu2, yu2, xv2, yv2 = 2.0 * xu, 2.0 * yu, 2.0 * xv, 2.0 * yv
    fsum = partial(_fsum_terms, total=total)

    n1 = fsum(
        ((yu, tv), (-tu, yv)),
        ((y2, xu, yv), (-y2, yu, xv)),
    )
    n2 = fsum(
        ((tu, xv), (-xu, tv)),
        ((-x2, xu, yv), (x2, yu, xv)),
    )
    n1_u = fsum(
        ((yuu, tv), (yu, tuv), (-tuu, yv), (-tu, yuv)),
        ((yu2, xu, yv), (-yu2, yu, xv),
         (y2, xuu, yv), (y2, xu, yuv), (-y2, yuu, xv), (-y2, yu, xuv)),
    )
    n1_v = fsum(
        ((yuv, tv), (yu, tvv), (-tuv, yv), (-tu, yvv)),
        ((yv2, xu, yv), (-yv2, yu, xv),
         (y2, xuv, yv), (y2, xu, yvv), (-y2, yuv, xv), (-y2, yu, xvv)),
    )
    n2_u = fsum(
        ((tuu, xv), (tu, xuv), (-xuu, tv), (-xu, tuv)),
        ((-xu2, xu, yv), (xu2, yu, xv),
         (-x2, xuu, yv), (-x2, xu, yuv), (x2, yuu, xv), (x2, yu, xuv)),
    )
    n2_v = fsum(
        ((tuv, xv), (tu, xvv), (-xuv, tv), (-xu, tvv)),
        ((-xv2, xu, yv), (xv2, yu, xv),
         (-x2, xuv, yv), (-x2, xu, yvv), (x2, yuv, xv), (x2, yu, xvv)),
    )
    return n1, n2, n1_u, n1_v, n2_u, n2_v


def _local_sums(x2, y2, du, dv, n1, n2, n1_u, n1_v, n2_u, n2_v, *, total):
    """Numerator p_v A_u - p_u A_v of the local formula, with p_u, p_v, A_u
    and A_v each correctly rounded first."""
    xu, yu, tu = du
    xv, yv, tv = dv
    fsum = partial(_fsum_terms, total=total)
    p_u = fsum(((tu, 1.0), (x2, yu), (-y2, xu)))
    p_v = fsum(((tv, 1.0), (x2, yv), (-y2, xv)))
    a_u = fsum(((n1, n2_u), (-n2, n1_u)))
    a_v = fsum(((n1, n2_v), (-n2, n1_v)))
    return fsum(((p_v, a_u), (-p_u, a_v)))


def _jet_columns(jets: np.ndarray):
    """2x, 2y and the five derivative columns of a jet array, and the column
    summer that certifies points whose entries are at most _SAFE."""
    safe = np.abs(jets).max(axis=(1, 2)) <= _SAFE
    cols = (2.0 * jets[:, 0, 0], 2.0 * jets[:, 0, 1], *(jets[:, f].T for f in range(1, 6)))
    return cols, partial(_fsum_columns, safe=safe)


def _raise_if_characteristic(nh_norm: np.ndarray, char: np.ndarray) -> None:
    """Raise the CharacteristicPoint of the first flagged point, if any."""
    if char.any():
        q = nh_norm[np.argmax(char)]
        raise CharacteristicPoint(f"curvature undefined: ||N^h|| = {q:.3e}")


def mean_curvature_local(
    surface: SurfaceHandle,
    u: float,
    v: float,
    *,
    eps_char: float = EPS_CHAR,
    warn: bool = True,
) -> CurvatureSample:
    """Horizontal mean curvature from the local formula at one point.

    A batch of one through :func:`mean_curvature_batch`, whose fixed cost
    is most of what a hundred-point batch costs: evaluate point sets with
    :func:`curvature_scan` instead.
    """
    jets = eval_jets(surface, [u], [v])
    batch = mean_curvature_batch(jets, eps_char=eps_char)
    _raise_if_characteristic(batch.nh_norm, batch.char)
    q = float(batch.nh_norm[0])
    near = q < NEAR_CHAR_FACTOR * float(char_threshold(jets, eps_char)[0])
    if near and warn:
        warnings.warn(
            f"||N^h|| = {q:.3e} within {NEAR_CHAR_FACTOR:g}x of the "
            "characteristic threshold; curvature accuracy degrades",
            NearCharacteristicWarning,
            stacklevel=2,
        )
    return CurvatureSample(u, v, float(batch.H[0]), "local-formula", q, near)


def mean_curvature_batch(jets: np.ndarray, *, eps_char: float = EPS_CHAR) -> CurvatureBatch:
    """Local-formula curvature at every point of an (N, 6, 3) jet array;
    characteristic points get H = NaN instead of an exception.  Callers pass
    blocks of at most ``JET_BLOCK`` points to bound the temporaries.
    """
    (x2, y2, du, dv, duu, duv, dvv), total = _jet_columns(jets)
    with np.errstate(all="ignore"):
        sums = _normal_sums(x2, y2, du, dv, duu, duv, dvv, total=total)
        n1, n2 = sums[:2]
        q2 = n1 * n1 + n2 * n2
        q = np.sqrt(q2)
        char = q < char_threshold(jets, eps_char)
        num = _local_sums(x2, y2, du, dv, *sums, total=partial(total, need=~char))
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


def curvature_scan(
    surfaces, u, v, *, eps_char: float = EPS_CHAR, floor=None, strict: bool = True
) -> CurvatureScan:
    """:func:`mean_curvature_batch` of every surface at the points (u[i], v[i]).

    ``floor`` is the skip rule, on the ||N^h|| of horizontal_normal_batch:
    None skips nothing; "band" skips the minimality checks' conditioning
    band, below max(NEAR_CHAR_FACTOR * threshold, MINIMALITY_BAND * (1 +
    ||d1||_F)); a float skips below that fixed value.  The work runs in
    ``JET_BLOCK`` slices of the flat (surface, point) index, so small
    surfaces share blocks.  With ``strict``, the first characteristic point
    kept, in flat order, raises the CharacteristicPoint of
    :func:`mean_curvature_local`; otherwise it is flagged in ``char``.
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
                NEAR_CHAR_FACTOR * char_threshold(jets, eps_char),
                char_threshold(jets, MINIMALITY_BAND),
            )
        elif floor is not None:
            skip[sl] = horizontal_normal_batch(jets)[2] < floor
        kept = np.flatnonzero(~skip[sl])
        jets = jets[kept]  # frees the whole block before the curvature temporaries
        batch = mean_curvature_batch(jets, eps_char=eps_char)
        if strict:
            _raise_if_characteristic(batch.nh_norm, batch.char)
        H[sl.start + kept] = batch.H
        char[sl.start + kept] = batch.char
    return CurvatureScan(*(a.reshape(len(surfaces), n) for a in (H, skip, char)))


def mean_curvature_jacobian_quotient(
    surface: SurfaceHandle,
    u: float,
    v: float,
    *,
    eps_char: float = EPS_CHAR,
    eps_jacobian: float = EPS_JACOBIAN,
) -> float:
    """Determinant form (d(nu1,y) + d(x,nu2)) / d(x,y) of the local formula.

    By convention returns 0 when |d(x,y)| < ``eps_jacobian``, which is only
    geometrically meaningful when the patch genuinely sits inside a plane
    containing the vertical direction; see the module docstring.  Kept for
    cross-checking :func:`mean_curvature_local`.
    """
    jets = eval_jets(surface, [u], [v])
    cols, total = _jet_columns(jets)
    (xu, yu, _), (xv, yv, _) = cols[2:4]
    with np.errstate(all="ignore"):
        sums = _normal_sums(*cols, total=total)
        jxy = _fsum_terms(((xu, yv), (-yu, xv)), total=total)
    n1, n2, n1_u, n1_v, n2_u, n2_v, jxy, xu, yu, xv, yv = (
        float(a[0]) for a in (*sums, jxy, xu, yu, xv, yv)
    )
    q2 = n1 * n1 + n2 * n2
    q = math.sqrt(q2)
    _raise_if_characteristic(np.array([q]), q < char_threshold(jets, eps_char))
    if abs(jxy) < eps_jacobian:
        return 0.0
    q3 = q2 * q
    nu1_u = n2 * (n2 * n1_u - n1 * n2_u) / q3
    nu1_v = n2 * (n2 * n1_v - n1 * n2_v) / q3
    nu2_u = n1 * (n1 * n2_u - n2 * n1_u) / q3
    nu2_v = n1 * (n1 * n2_v - n2 * n1_v) / q3
    num = (nu1_u * yv - nu1_v * yu) + (xu * nu2_v - xv * nu2_u)
    return num / jxy


def mean_curvature_flow_oracle(
    surface: SurfaceHandle,
    u: float,
    v: float,
    *,
    ds: float = 1e-3,
    n_steps: int = 3,
    eps_char: float = EPS_CHAR,
) -> CurvatureSample:
    """Curvature via the geometric definition: integrate the horizontal flow
    through (u, v), project the leaf to the complex plane, and estimate the
    signed curvature of the projection at the seed by central differences.

    Independent of the local formula; agreement between the two validates
    both.  Needs at least one completed flow step on each side of the seed,
    otherwise FlowEscapedDomain is raised.
    """
    from .flow import integrate_flow

    trace = integrate_flow(
        surface, u, v, ds=ds, max_steps=n_steps, eps_char=eps_char
    )
    if not _has_stencil(trace):
        raise FlowEscapedDomain(
            "flow leaf too short on one side of the seed for a curvature stencil"
        )
    (kappa,) = _seed_curvatures([trace], ds).tolist()
    q = is_characteristic(eval_jet2(surface, u, v), eps_char).nh_norm
    return CurvatureSample(u, v, kappa, "flow-oracle", q)


def _has_stencil(trace) -> bool:
    """Whether a flow trace has a sample on each side of its seed."""
    return 1 <= trace.seed_index <= len(trace) - 2


def _seed_curvatures(traces, ds: float) -> np.ndarray:
    """The flow oracle's curvature of each trace: the signed curvature of
    its planar projection at the seed, from central differences over the
    neighbouring samples.  Every trace must pass :func:`_has_stencil`."""
    p = np.array([t.points[t.seed_index - 1 : t.seed_index + 2, :2] for t in traces])
    p_prev, p_mid, p_next = p.reshape(-1, 3, 2).transpose(1, 2, 0)
    d1 = (p_next - p_prev) / (2.0 * ds)
    d2 = (p_next - 2.0 * p_mid + p_prev) / (ds * ds)
    return _signed_curvatures(d1, d2)


def is_h_minimal(
    surface: SurfaceHandle,
    grid: tuple[int, int] = (101, 101),
    tol: float = 1e-8,
    eps_char: float = EPS_CHAR,
) -> HMinimalityReport:
    """Grid test of horizontal minimality: max |H| <= tol off the locus.

    Cells too close to the characteristic locus for an absolute claim at
    tol (the ``"band"`` rule of :func:`curvature_scan`) are skipped and
    counted; an all-skipped grid yields an empty, failed report rather
    than an error.
    """
    u, v = grid_points(*surface.domain.linspace(*grid))
    scan = curvature_scan([surface], u, v, eps_char=eps_char, floor="band")
    n_skip = int(scan.skip.sum())
    n_eval = len(u) - n_skip
    if n_eval == 0:
        return HMinimalityReport(math.nan, None, 0, n_skip, tol, False, grid)
    worst, i = _running_max(np.abs(scan.H[0]), -1.0)
    argmax = None if i is None else (float(u[i]), float(v[i]))
    return HMinimalityReport(worst, argmax, n_eval, n_skip, tol, worst <= tol, grid)
