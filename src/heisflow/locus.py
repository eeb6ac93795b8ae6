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
lockstep bisection on compact arrays, one entry per live edge.  Nodes and
roots call the surface's 2-jet formula, and each step the first-order
formula at the live midpoints, whose sign is all it needs; the checks of
:func:`heisflow.patch.eval_jets` run only where an entry is not finite.
Each edge bisects only the coordinate it runs along, and leaves the live
arrays at an exact root or once bisection can no longer move it, so the
search ends before ``refine`` steps when every edge has converged.
The candidate rows (u, v, x, y, t, ||N^h||) of nodes and roots become
points only once the merge keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heis import _per_element
from .horizontal import _normal_components, _threshold
from .patch import (JET_BLOCK, Domain, SurfaceHandle, _check_finite, blocks, eval_jets,
                    grid_points, jet2_batch)

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


def _fields(surface: SurfaceHandle, u, v, out: np.ndarray) -> None:
    """Write the rows n1, n2, keep threshold, x, y, t at the points (u, v),
    which broadcast to ``out[0]``, from one call of the 2-jet formula; where an
    entry is not finite, eval_jets at the same flat points raises its error."""
    value, du, dv, *second = surface.fields(u, v)
    if not all(np.isfinite(e).all() for f in (value, du, dv, *second) for e in f):
        eval_jets(surface, *np.broadcast_arrays(u, v))
    x, y, _ = out[3], out[4], out[5] = value
    out[0], out[1] = _normal_components.entries(x, y, du, dv)
    out[2] = _threshold(x, y, du, dv, KEEP_TOL)


def _node_fields(surface: SurfaceHandle, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The (6, nu * nv) :func:`_fields` rows at the nodes of the grid us x vs,
    in the order of :func:`grid_points`, in blocks of whole grid rows: a
    builder's formula (one with ``stage``) runs on the axes ``us[rows, None]``
    and ``vs[None, :]``, so its lines of u alone run once per u and of v
    alone once per v, with the same bits; other handles on flat points."""
    nv = len(vs)
    out = np.empty((6, len(us) * nv))
    # Blocks of at most 4 * JET_BLOCK points: at 101 x 101 on a random ruled
    # patch the pass peaks at 1.11 MiB (tracemalloc; one block 1.56,
    # JET_BLOCK points a block 0.63 at twice the time).
    step = max(1, 4 * JET_BLOCK // nv)
    for i in range(0, len(us), step):
        o = out[:, i * nv:(i + step) * nv]
        if hasattr(surface.fields, "stage"):
            _fields(surface, us[i:i + step, None], vs[None, :], o.reshape(6, -1, nv))
        else:
            _fields(surface, *grid_points(us[i:i + step], vs), o)
    return out


def _midpoint_components(surface: SurfaceHandle, u: np.ndarray, v: np.ndarray,
                         second: np.ndarray) -> np.ndarray:
    """n2 where ``second``, else n1, at points between in-domain bracket ends,
    from the first-order formula.  n1 and n2 read every entry but t, and + - *
    make no finite result of a non-finite operand, so only a block where
    n1 + n2 + t is not finite needs the finite check of eval_jets.  Runs under
    the errstate of :func:`characteristic_locus`, as :func:`_fields` does."""
    out = np.empty(len(u))
    for sl in blocks(len(u)):
        (x, y, t), du, dv = first = surface.fields(u[sl], v[sl], 1)[:3]
        n1, n2 = _normal_components.entries(x, y, du, dv)
        if not np.isfinite(n1 + n2 + t).all():
            _check_finite(jet2_batch(len(out[sl]), *first))
        out[sl] = np.where(second[sl], n2, n1)
    return out


def _midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * (a + b), or 0.5 * a + 0.5 * b where a + b overflows."""
    m = 0.5 * (a + b)
    return np.where(np.isinf(m), 0.5 * a + 0.5 * b, m)


def _kept(f: np.ndarray, uv) -> np.ndarray:
    """The rows (u, v, x, y, t, ||N^h||) where ||N^h|| <= keep threshold, in
    point order, from their :func:`_fields` ``f`` and ``uv``, which maps
    point indices to their u and v.  math.hypot runs only where max(|n1|,
    |n2|) <= threshold: it is never below that max, NaN included."""
    near = np.flatnonzero(np.fmax(abs(f[0]), abs(f[1])) <= f[2])
    nh = _per_element(math.hypot, f[0, near], f[1, near])
    ok = nh <= f[2, near]
    return np.column_stack((*uv(near[ok]), f[3:, near[ok]].T, nh[ok]))


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
    with np.errstate(all="ignore"):  # one errstate covers every formula call
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
        # the other coordinate w (the node's, which every midpoint keeps), the
        # axis and component flags and the start sign.  An edge is done at
        # an exact root, or once its midpoint equals an end, whose sign is known
        # and nonzero, so no later step could move it: either way its midpoint
        # is its root.  Only a step where some edge is done stores those roots
        # and compacts the live arrays.
        a, b = np.where(on_v, vs[k], us[i]), np.where(on_v, vs[k + d], us[i + 1 - d])
        w = np.where(on_v, us[i], vs[k])
        root, fixed = np.empty(len(d)), (np.arange(len(d)), w, on_v, comp == 1, neg)
        for _ in range(refine):
            if not len(a):
                break
            edge, lw, lv, l2, lneg = fixed
            m = _midpoints(a, b)
            gm = _midpoint_components(surface, np.where(lv, lw, m), np.where(lv, m, lw), l2)
            flip = lneg != (gm < 0.0)
            done = (gm == 0.0) | (m == a) | (m == b)
            a, b = np.where(flip, a, m), np.where(flip, m, b)
            if done.any():
                root[edge[done]] = m[done]
                a, b, *fixed = (x[~done] for x in (a, b, *fixed))
        root[fixed[0]] = _midpoints(a, b)
        ru, rv = np.where(on_v, w, root), np.where(on_v, root, w)
        r = np.empty((6, len(ru)))
        for sl in blocks(len(ru)):
            _fields(surface, ru[sl], rv[sl], r[:, sl])

    # Candidates in the order nodes, then roots, stably sorted by (u, v).
    rows = np.concatenate((
        _kept(f, lambda j: (us[j // nv], vs[j % nv])),
        _kept(r, lambda j: (ru[j], rv[j])),
    ))
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
