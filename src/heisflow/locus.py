"""Characteristic locus extraction by sign tracking on a parameter grid.

The locus is the zero set of the horizontal normal (n1, n2).  Its norm
||N^h|| never changes sign, so root finding runs on the components instead:
every grid edge on which n1 or n2 changes sign is bisected to the component
root, and the candidate survives only if the full norm vanishes there too.
Isolated characteristic points sitting exactly on grid nodes are caught by
a direct node test.  Curve-shaped loci are recovered as point chains at
edge resolution; isolated points off the node lattice can be missed when
the grid is too coarse, so refine the grid rather than the bisection when
points seem absent.  The search is batched: one blocked pass of
:func:`heisflow.patch.eval_jets` over the nodes, then lockstep bisection of
every sign-changing edge with one batch of midpoints per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .horizontal import char_threshold, horizontal_normal_batch
from .patch import Domain, SurfaceHandle, blocks, eval_jets, grid_points

__all__ = ["LocusPoint", "characteristic_locus"]


@dataclass(frozen=True)
class LocusPoint:
    """A characteristic point in parameters and in ambient coordinates."""

    u: float
    v: float
    x: float
    y: float
    t: float
    nh_norm: float


def _fields(surface: SurfaceHandle, pts: np.ndarray, keep_tol: float) -> np.ndarray:
    """Rows n1, n2, ||N^h||, keep threshold, x, y, t at the (u, v) rows of ``pts``."""
    out = np.empty((7, len(pts)))
    for sl in blocks(len(pts)):
        jets = eval_jets(surface, pts[sl, 0], pts[sl, 1])
        out[:3, sl] = horizontal_normal_batch(jets)
        out[3, sl] = char_threshold(jets, keep_tol)
        out[4:, sl] = jets[:, 0].T
    return out


def characteristic_locus(
    surface: SurfaceHandle,
    grid: tuple[int, int] = (101, 101),
    refine: int = 60,
    keep_tol: float = 1e-8,
) -> list[LocusPoint]:
    """Locate characteristic points on a (nu x nv) grid of the domain.

    ``refine`` bisection steps per sign-changing edge; candidates are kept
    when ||N^h|| falls under ``keep_tol`` times a first-jet scale factor.
    Returns points sorted by (u, v), deduplicated at 1e-6 of the spans.
    """
    nu, nv = grid
    if nu < 2 or nv < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    nodes = np.column_stack(grid_points(*surface.domain.linspace(nu, nv)))
    f = _fields(surface, nodes, keep_tol)

    # change[i, k, d, c]: component c changes sign along the u-edge (d = 0)
    # or the v-edge (d = 1) leaving node (i, k); np.nonzero lists candidates
    # node by node, u-edge before v-edge, n1 before n2.  Signs are compared
    # rather than multiplied, because a product can underflow to 0.
    g = f[:2].T.reshape(nu, nv, 2)
    nz, neg = g != 0.0, g < 0.0
    change = np.zeros((nu, nv, 2, 2), bool)
    change[:-1, :, 0] = nz[:-1] & nz[1:] & (neg[:-1] != neg[1:])
    change[:, :-1, 1] = nz[:, :-1] & nz[:, 1:] & (neg[:, :-1] != neg[:, 1:])
    i, k, d, comp = np.nonzero(change)
    lo, hi = nodes[i * nv + k], nodes[(i + 1 - d) * nv + k + d]
    neg = neg[i, k, comp]

    # Lockstep bisection: ``lo`` keeps the sign the component has at the
    # edge's first node and ``hi`` the other.  An edge whose midpoint is an
    # exact root stops there (lo = hi = midpoint) and leaves the live set.
    live = np.arange(len(comp))
    for _ in range(refine):
        mid = 0.5 * (lo[live] + hi[live])
        gm = _fields(surface, mid, keep_tol)[comp[live], np.arange(live.size)]
        to_hi = neg[live] != (gm < 0.0)
        hi[live[to_hi]] = mid[to_hi]
        lo[live[~to_hi]] = mid[~to_hi]
        hit = gm == 0.0
        lo[live[hit]] = hi[live[hit]] = mid[hit]
        live = live[~hit]
    roots = 0.5 * (lo + hi)

    # Candidates in the order nodes, then roots, stably sorted by (u, v).
    pts = np.concatenate((nodes, roots))
    f = np.concatenate((f, _fields(surface, roots, keep_tol)), axis=1)
    keep = f[2] <= f[3]
    u, v = pts[keep].T.tolist()
    nh, x, y, t = f[[2, 4, 5, 6]][:, keep].tolist()
    found = sorted(map(LocusPoint, u, v, x, y, t, nh), key=lambda p: (p.u, p.v))
    return _merge(found, surface.domain)


def _merge(found: list[LocusPoint], domain: Domain) -> list[LocusPoint]:
    """Greedy merge of points of the domain sorted by (u, v): each point is
    kept unless an earlier kept point lies within 1e-6 of the spans on both
    axes.

    Kept points are hashed into cells twice that box wide, counted from the
    domain corner, so every kept point in range lies in the 3 x 3 cells
    around the new one: rounding moves a cell coordinate by far less than
    half a cell.  An infinite span puts every point in one cell on its axis.
    """
    merge_u = 1e-6 * max(domain.u_span, 1e-300)
    merge_v = 1e-6 * max(domain.v_span, 1e-300)

    def cell(x: float, lo: float, merge: float) -> int:
        return math.floor((x - lo) / (2.0 * merge)) if merge < math.inf else 0

    cells: dict[tuple[int, int], list[LocusPoint]] = {}
    kept: list[LocusPoint] = []
    for p in found:
        i, k = cell(p.u, domain.u_min, merge_u), cell(p.v, domain.v_min, merge_v)
        near = (q for a in (i - 1, i, i + 1) for b in (k - 1, k, k + 1)
                for q in cells.get((a, b), ()))
        if not any(abs(p.u - q.u) <= merge_u and abs(p.v - q.v) <= merge_v for q in near):
            kept.append(p)
            cells.setdefault((i, k), []).append(p)
    return kept
