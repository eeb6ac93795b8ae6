"""The locus merge's cell hash against the greedy loop it replaced.

``locus._merge`` takes candidate rows (u, v, x, y, t, ||N^h||), skips the
comparison for rows past every earlier one in u and prunes the rest by
cell; the greedy loop compares each point with every point kept so far.
Both must keep the same points, in the same order.
"""

import math
from dataclasses import astuple

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from heisflow.locus import LocusPoint, _merge
from heisflow.patch import Domain


def cell_merge(found, domain):
    """``_merge`` on the rows of the points ``found``, as points."""
    rows = np.array([astuple(p) for p in found]).reshape(-1, 6)
    return [LocusPoint(*row) for row in _merge(rows, domain).tolist()]


def greedy_merge(found, domain):
    """The merge as a loop over every kept point."""
    merge_u = 1e-6 * max(domain.u_span, 1e-300)
    merge_v = 1e-6 * max(domain.v_span, 1e-300)
    kept = []
    for p in found:
        if not any(abs(p.u - q.u) <= merge_u and abs(p.v - q.v) <= merge_v for q in kept):
            kept.append(p)
    return kept


LOWS = st.sampled_from([0.0, -1.0, 2.5, -3e5, 1e10, -1e-300])
SPANS = st.sampled_from([1.0, 2.0 * math.pi, 3.7e-3, 1e-12, 6e5, 1e300, 1.5e308, 5e-324])


def _bounds(lo: float, span: float) -> tuple[float, float]:
    """(lo, lo + span), the upper bound at least one ulp above lo."""
    return lo, max(lo + span, math.nextafter(lo, math.inf))


# an axis from a lower bound and a span
BOUNDS = st.builds(_bounds, LOWS, SPANS)


def _axis(lo: float, hi: float):
    """Coordinates in [lo, hi]: whole and half steps of the merge distance
    from the lower edge (exactly a merge apart, and on the edges of cells
    two merges wide), their neighbours one ulp away, and uniform draws."""
    merge = 1e-6 * max(hi - lo, 1e-300)
    drawn = st.floats(lo, hi)
    stepped = st.tuples(st.integers(0, 12), st.sampled_from([-1, 0, 1])).map(
        lambda a: _nudge(lo + a[0] * 0.5 * merge, a[1])
    )
    return st.one_of(stepped, stepped, drawn).map(lambda x: min(max(x, lo), hi))


def _nudge(x: float, ulps: int) -> float:
    return x if ulps == 0 else math.nextafter(x, math.copysign(math.inf, ulps))


@st.composite
def merge_inputs(draw):
    (u0, u1), (v0, v1) = draw(BOUNDS), draw(BOUNDS)
    domain = Domain(u0, u1, v0, v1)
    # a vertical-line locus puts every point at one u
    u_axis = st.just(draw(_axis(u0, u1))) if draw(st.booleans()) else _axis(u0, u1)
    uv = draw(st.lists(st.tuples(u_axis, _axis(v0, v1)), min_size=12, max_size=80))
    pts = [LocusPoint(u, v, 0.0, 0.0, 0.0, float(i)) for i, (u, v) in enumerate(uv)]
    return sorted(pts, key=lambda p: (p.u, p.v)), domain


@given(merge_inputs())
def test_cell_merge_keeps_what_the_greedy_loop_keeps(inputs):
    found, domain = inputs
    assert cell_merge(found, domain) == greedy_merge(found, domain)


def test_cell_merge_on_a_dense_vertical_line():
    domain = Domain(0.0, 1.0, 0.0, 1.0)
    step = 1e-6 * 0.25
    found = [LocusPoint(0.5, i * step, 0.0, 0.0, 0.0, 0.0) for i in range(4000)]
    kept = cell_merge(found, domain)
    assert kept == greedy_merge(found, domain)
    assert 0 < len(kept) < len(found)


def test_row_exactly_a_merge_past_the_last_is_compared():
    # 1e-6 - 0.0 is exactly the merge distance of the unit square: the
    # second point merges into the first, and its upper neighbour does not
    domain = Domain(0.0, 1.0, 0.0, 1.0)
    for u, n_kept in ((1e-6, 1), (math.nextafter(1e-6, 1.0), 2)):
        found = [LocusPoint(0.0, 0.5, 0.0, 0.0, 0.0, 0.0), LocusPoint(u, 0.5, 0.0, 0.0, 0.0, 1.0)]
        assert cell_merge(found, domain) == greedy_merge(found, domain) == found[:n_kept]
