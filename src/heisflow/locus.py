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
every sign-changing edge with one batch of midpoints per step.  A midpoint
needs only the sign of one component, so it gets (n1, n2) from its
first-order jet and nothing else; each edge bisects only the coordinate it
runs along, and leaves the batch at an exact root or once bisection can no
longer move it, so the search ends before ``refine`` steps when every edge
has converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heis import _per_element
from .horizontal import _normal_components, char_threshold
from .patch import Domain, SurfaceHandle, blocks, eval_jets, grid_points

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


def _fields(surface: SurfaceHandle, pts: np.ndarray) -> np.ndarray:
    """Rows n1, n2, keep threshold, x, y, t at the (u, v) rows of ``pts``."""
    out = np.empty((6, len(pts)))
    for sl in blocks(len(pts)):
        jets = eval_jets(surface, pts[sl, 0], pts[sl, 1])
        out[:2, sl] = _normal_components(jets)
        out[2, sl] = char_threshold(jets, KEEP_TOL)
        out[3:, sl] = jets[:, 0].T
    return out


def _components(surface: SurfaceHandle, pts: np.ndarray) -> np.ndarray:
    """Rows n1, n2 at the (u, v) rows of ``pts``, from first-order jets: all
    a midpoint's sign needs."""
    out = np.empty((2, len(pts)))
    for sl in blocks(len(pts)):
        out[:, sl] = _normal_components(eval_jets(surface, pts[sl, 0], pts[sl, 1], 1))
    return out


def _kept(pts: np.ndarray, f: np.ndarray) -> list[LocusPoint]:
    """The rows of ``pts`` where ||N^h|| <= keep threshold, in row order,
    from their :func:`_fields` ``f``.  math.hypot runs only where
    max(|n1|, |n2|) <= threshold: it is never below that max, NaN included."""
    near = np.flatnonzero(np.fmax(abs(f[0]), abs(f[1])) <= f[2])
    nh = _per_element(math.hypot, f[0, near], f[1, near])
    ok = nh <= f[2, near]
    u, v = pts[near[ok]].T.tolist()
    x, y, t = f[3:, near[ok]].tolist()
    return list(map(LocusPoint, u, v, x, y, t, nh[ok].tolist()))


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
    nodes = np.column_stack(grid_points(*surface.domain.linspace(nu, nv)))
    f = _fields(surface, nodes)

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

    # Lockstep bisection of coordinate d, the one each edge runs along: ``a``
    # keeps the sign the component has at the edge's first node and ``b``
    # the other.  The other coordinate of ``mid`` keeps the bits
    # 0.5 * (lo + hi) that every midpoint has.  An edge leaves the live set
    # at an exact root (a = b = midpoint), or once its midpoint equals one
    # of its ends: each end's sign is known and nonzero, so no later step
    # could move it.
    live = e = np.arange(len(comp))
    a, b, mid = lo[e, d], hi[e, d], 0.5 * (lo + hi)
    for _ in range(refine):
        if not live.size:
            break
        m = 0.5 * (a[live] + b[live])
        mid[live, d[live]] = m
        gm = _components(surface, mid[live])[comp[live], np.arange(live.size)]
        hit = gm == 0.0
        to_b = (neg[live] != (gm < 0.0)) | hit
        to_a = ~to_b | hit
        done = hit | (m == a[live]) | (m == b[live])
        b[live[to_b]] = m[to_b]
        a[live[to_a]] = m[to_a]
        live = live[~done]
    mid[e, d] = 0.5 * (a + b)

    # Candidates in the order nodes, then roots, stably sorted by (u, v).
    found = _kept(nodes, f) + _kept(mid, _fields(surface, mid))
    found.sort(key=lambda p: (p.u, p.v))
    return _merge(found, surface.domain)


def _merge(found: list[LocusPoint], domain: Domain) -> list[LocusPoint]:
    """Greedy merge of points of the domain sorted by (u, v): each point is
    kept unless an earlier kept point lies within 1e-6 of the spans on both
    axes.

    Kept points are hashed into cells twice that box wide, counted from the
    domain corner, so every kept point in range lies in the 3 x 3 cells
    around the new one: rounding moves a cell coordinate by far less than
    half a cell.
    """
    merge_u = 1e-6 * max(domain.u_span, 1e-300)
    merge_v = 1e-6 * max(domain.v_span, 1e-300)

    def cell(x: float, lo: float, merge: float) -> int:
        return math.floor((x - lo) / (2.0 * merge))

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
