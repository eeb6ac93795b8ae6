"""Characteristic locus extraction by sign tracking on a parameter grid.

The locus is the zero set of the horizontal normal (n1, n2).  Its norm
||N^h|| never changes sign, so root finding runs on the components instead:
every grid edge on which n1 or n2 changes sign is bisected to the component
root, and the candidate survives only if the full norm vanishes there too.
Isolated characteristic points sitting exactly on grid nodes are caught by
a direct node test.  Curve-shaped loci are recovered as point chains at
edge resolution; isolated points off the node lattice can be missed when
the grid is too coarse, so refine the grid rather than the bisection when
points seem absent.  The search is batched: one pass over the nodes, then
lockstep bisection on compact arrays, one entry per live edge.  The node
pass runs a builder's formula on the grid axes, a block of whole grid rows
at a time, so its terms of u alone and of v alone run once per u and per
v; other handles take blocked :func:`heisflow.patch.eval_jets` calls over
the flat grid, with the same bits.  Each step evaluates the live
midpoints in blocks, with the domain and finite checks of ``eval_jets``,
from first-order jets: a midpoint needs only the sign of one component.
Each edge bisects only the coordinate it runs along, and leaves the live
arrays at an exact root or once bisection can no longer move it, so the
search ends before ``refine`` steps when every edge has converged.
Nodes and roots keep their 2-jets; their candidate rows (u, v, x, y, t,
||N^h||) become points only once the merge keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heis import _per_element
from .horizontal import _normal_components, _threshold, char_threshold
from .patch import JET_BLOCK, Domain, SurfaceHandle, blocks, eval_jets, grid_points

__all__ = ["LocusPoint", "characteristic_locus"]

# Candidates are kept where ||N^h|| <= KEEP_TOL times a first-jet scale.
KEEP_TOL = 1e-8


@dataclass(frozen=True)
class LocusPoint:
    """A characteristic point in parameters and in ambient coordinates."""

    u: float
    v: float
    x: float
    y: float
    t: float
    nh_norm: float


def _fields(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows n1, n2, keep threshold, x, y, t at the points (u[i], v[i])."""
    out = np.empty((6, len(u)))
    for sl in blocks(len(u)):
        jets = eval_jets(surface, u[sl], v[sl])
        out[:2, sl] = _normal_components(jets)
        out[2, sl] = char_threshold(jets, KEEP_TOL)
        out[3:, sl] = jets[:, 0].T
    return out


def _node_fields(surface: SurfaceHandle, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """:func:`_fields` at the nodes of the grid us x vs, in the order of
    :func:`grid_points`, from one call of a builder's formula (one with
    ``stage``) per block of whole grid rows, on the axes ``us[rows, None]``
    and ``vs[None, :]``: broadcasting runs its lines of u alone once per u
    and of v alone once per v, with the same bits, and the rows come from
    the broadcast entries through the horizontal formulas.  Other handles,
    rows longer than a block, nodes outside the domain and non-finite
    entries take the flat :func:`_fields`, which raises what eval_jets
    raises."""
    dom, nv = surface.domain, len(vs)
    # Blocks of at most 4 * JET_BLOCK points: at 101 x 101 on a random ruled
    # patch the pass peaks at 1.11 MiB (tracemalloc; the flat pass 0.97, one
    # block 1.56, JET_BLOCK points a block 0.63 at twice the time).
    step = 4 * JET_BLOCK // nv
    if step and hasattr(surface.fields, "stage") and dom.contains(us, vs[0]).all() \
            and dom.contains(us[0], vs).all():
        out = np.empty((6, len(us), nv))
        with np.errstate(all="ignore"):
            for i in range(0, len(us), step):
                value, du, dv, *second = surface.fields(us[i:i + step, None], vs[None, :])
                if not all(np.isfinite(e).all() for f in (value, du, dv, *second) for e in f):
                    break
                o, (x, y, _) = out[:, i:i + step], value
                o[0], o[1] = _normal_components.entries(x, y, du, dv)
                o[2] = _threshold(x, y, du, dv, KEEP_TOL)
                o[3], o[4], o[5] = value
            else:
                return out.reshape(6, -1)
    return _fields(surface, *grid_points(us, vs))


def _kept(u: np.ndarray, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The rows (u, v, x, y, t, ||N^h||) where ||N^h|| <= keep threshold, in
    point order, from their :func:`_fields` ``f``.  math.hypot runs only where
    max(|n1|, |n2|) <= threshold: it is never below that max, NaN included."""
    near = np.flatnonzero(np.fmax(abs(f[0]), abs(f[1])) <= f[2])
    nh = _per_element(math.hypot, f[0, near], f[1, near])
    ok = nh <= f[2, near]
    return np.column_stack((u[near[ok]], v[near[ok]], f[3:, near[ok]].T, nh[ok]))


def characteristic_locus(
    surface: SurfaceHandle,
    grid: tuple[int, int] = (101, 101),
    refine: int = 60,
) -> list[LocusPoint]:
    """Locate characteristic points on a (nu x nv) grid of the domain.

    ``refine`` bisection steps at most per sign-changing edge; candidates
    are kept when ||N^h|| falls under :data:`KEEP_TOL` times a first-jet
    scale factor.  Returns points sorted by (u, v), deduplicated at 1e-6 of
    the spans.
    """
    nu, nv = grid
    if nu < 2 or nv < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    us, vs = surface.domain.linspace(nu, nv)
    u, v = grid_points(us, vs)
    f = _node_fields(surface, us, vs)

    # change[i, k, d, c]: component c changes sign along the u-edge (d = 0)
    # or the v-edge (d = 1) leaving node (i, k); flat order lists candidates
    # node by node, u-edge before v-edge, n1 before n2.  Signs are compared
    # rather than multiplied, because a product can underflow to 0.
    g = f[:2].T.reshape(nu, nv, 2)
    nz, neg = g != 0.0, g < 0.0
    change = np.zeros((nu, nv, 2, 2), bool)
    change[:-1, :, 0] = nz[:-1] & nz[1:] & (neg[:-1] != neg[1:])
    change[:, :-1, 1] = nz[:, :-1] & nz[:, 1:] & (neg[:, :-1] != neg[:, 1:])
    i, k, d, comp = np.unravel_index(np.flatnonzero(change), change.shape)
    on_v, neg = d == 1, neg[i, k, comp]

    # Lockstep bisection of the coordinate each edge runs along, on compact
    # arrays with one entry per live edge: the bracket ends a, which keeps
    # the component's sign at the edge's first node, and b; the edge index,
    # the other coordinate w (the bits 0.5 * (lo + hi) of every midpoint),
    # the axis and component flags and the start sign.  An edge is done at
    # an exact root, or once its midpoint equals an end, whose sign is known
    # and nonzero, so no later step could move it: either way its midpoint
    # is its root.  Only a step where some edge is done stores those roots
    # and compacts the live arrays.
    a, b = np.where(on_v, vs[k], us[i]), np.where(on_v, vs[k + d], us[i + 1 - d])
    w = 0.5 * np.where(on_v, us[i] + us[i], vs[k] + vs[k])
    root, fixed = np.empty(len(d)), (np.arange(len(d)), w, on_v, comp == 1, neg)
    for _ in range(refine):
        if not len(a):
            break
        edge, lw, lv, l2, lneg = fixed
        m = 0.5 * (a + b)
        mu, mv, gm = np.where(lv, lw, m), np.where(lv, m, lw), np.empty(len(m))
        for sl in blocks(len(m)):
            n1, n2 = _normal_components(eval_jets(surface, mu[sl], mv[sl], 1))
            gm[sl] = np.where(l2[sl], n2, n1)
        flip = lneg != (gm < 0.0)
        done = (gm == 0.0) | (m == a) | (m == b)
        a, b = np.where(flip, a, m), np.where(flip, m, b)
        if done.any():
            root[edge[done]] = m[done]
            a, b, *fixed = (x[~done] for x in (a, b, *fixed))
    root[fixed[0]] = 0.5 * (a + b)
    ru, rv = np.where(on_v, w, root), np.where(on_v, root, w)

    # Candidates in the order nodes, then roots, stably sorted by (u, v).
    rows = np.concatenate((_kept(u, v, f), _kept(ru, rv, _fields(surface, ru, rv))))
    keys = rows[:, :2].tolist()
    rows = rows[sorted(range(len(keys)), key=keys.__getitem__)]
    return list(map(LocusPoint, *_merge(rows, surface.domain).T.tolist()))


def _merge(rows: np.ndarray, domain: Domain) -> np.ndarray:
    """The rows (u, v, ...) of points of the domain, sorted by (u, v), that a
    greedy merge keeps: each row is kept unless an earlier kept row lies
    within 1e-6 of the spans on both axes.

    A row more than that past the previous row in u is kept with no
    comparison: rounding is monotone, so every earlier row is at least as
    far.  Kept rows are hashed into cells twice that box wide, counted from
    the domain corner, so every kept row in range lies in the 3 x 3 cells
    around the new one: rounding moves a cell coordinate by far less than
    half a cell.
    """
    merge_u, merge_v = (1e-6 * max(span, 1e-300) for span in (domain.u_span, domain.v_span))
    u, v = rows[:, 0], rows[:, 1]
    fresh = np.diff(u, prepend=-math.inf) > merge_u
    cu = np.floor((u - domain.u_min) / (2.0 * merge_u))
    cv = np.floor((v - domain.v_min) / (2.0 * merge_v))
    cells, kept = {}, []
    for j, (p, q, new, i, k) in enumerate(np.column_stack((u, v, fresh, cu, cv)).tolist()):
        if not new and any(abs(p - pk) <= merge_u and abs(q - qk) <= merge_v
                           for a in (i - 1, i, i + 1) for b in (k - 1, k, k + 1)
                           for pk, qk in cells.get((a, b), ())):
            continue
        kept.append(j)
        cells.setdefault((i, k), []).append((p, q))
    return rows[kept]
