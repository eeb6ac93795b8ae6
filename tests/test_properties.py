"""Property tests for the algebraic invariants of the group and the frame."""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ORIGIN, j_rotate, jet_field
from heisflow.heis import (
    FrameVector,
    HorizontalVec,
    Point3,
    contact_eval,
    frame_to_euclidean,
    frame_x,
    frame_y,
    group_inv,
    group_mul,
    h_wedge,
    kc_distance,
    koranyi_gauge,
)
from heisflow.horizontal import (
    horizontal_normal_batch,
    induced_form_batch,
    normal_compatibility,
)

# magnitudes below 1e-60 collapse to exact zero: fourth powers of anything
# smaller underflow into the subnormal range, where rounding breaks the
# scaling identities below (zero itself stays covered as an edge case)
def _squash(x: float) -> float:
    return 0.0 if abs(x) < 1e-60 else x


coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(_squash)
small = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).map(_squash)
points = st.builds(Point3, coord, coord, coord)


def _close(a: Point3, b: Point3, tol: float) -> bool:
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.t - b.t)) <= tol


@given(points, points, points)
def test_group_associative(p, q, r):
    left = group_mul(group_mul(p, q), r)
    right = group_mul(p, group_mul(q, r))
    scale = 1.0 + max(abs(c) for g in (p, q, r) for c in (g.x, g.y, g.t)) ** 2
    assert _close(left, right, 1e-12 * scale)


@given(points)
def test_group_identity_and_inverse(p):
    assert group_mul(p, ORIGIN) == p
    assert group_mul(ORIGIN, p) == p
    assert _close(group_mul(p, group_inv(p)), ORIGIN, 0.0)
    assert _close(group_mul(group_inv(p), p), ORIGIN, 0.0)


@given(points)
def test_gauge_symmetric_under_inverse(p):
    assert koranyi_gauge(group_inv(p)) == koranyi_gauge(p)


@given(points, st.floats(min_value=1e-6, max_value=32.0))
def test_gauge_dilation_homogeneous(p, lam):
    scaled = Point3(lam * p.x, lam * p.y, lam * lam * p.t)
    expected = lam * koranyi_gauge(p)
    assert math.isclose(koranyi_gauge(scaled), expected, rel_tol=1e-12, abs_tol=0.0)


@given(points, points)
def test_distance_left_invariant_and_symmetric(p, q):
    d = kc_distance(p, q)
    assert d >= 0.0
    assert kc_distance(q, p) == d
    # translation cancels catastrophically when d is far below the
    # coordinate scale, so invariance is only well conditioned away from it
    scale = 1.0 + max(abs(c) for g in (p, q) for c in (g.x, g.y, g.t))
    assume(d > 1e-3 * scale)
    g = Point3(0.25, -0.5, 1.0)
    shifted = kc_distance(group_mul(g, p), group_mul(g, q))
    assert math.isclose(shifted, d, rel_tol=1e-9)


@given(points)
def test_frame_fields_span_contact_kernel(p):
    assert contact_eval(p, frame_to_euclidean(frame_x(p))) == 0.0
    assert contact_eval(p, frame_to_euclidean(frame_y(p))) == 0.0


@given(points, small, small, small, small, small, small)
def test_wedge_antisymmetric_and_bilinear(p, a1, a2, a3, b1, b2, b3):
    a = FrameVector(a1, a2, a3, p)
    b = FrameVector(b1, b2, b3, p)
    w = h_wedge(a, b)
    flipped = h_wedge(b, a)
    assert (w.a1, w.a2, w.a3) == (-flipped.a1, -flipped.a2, -flipped.a3)
    doubled = h_wedge(FrameVector(2 * a1, 2 * a2, 2 * a3, p), b)
    assert (doubled.a1, doubled.a2, doubled.a3) == (2 * w.a1, 2 * w.a2, 2 * w.a3)
    zero = h_wedge(a, a)
    assert (zero.a1, zero.a2, zero.a3) == (0.0, 0.0, 0.0)


@given(points, small, small)
def test_j_rotation_squares_to_minus_one(p, h1, h2):
    v = HorizontalVec(h1, h2, p)
    w = j_rotate(j_rotate(v))
    assert (w.h1, w.h2) == (-h1, -h2)
    assert j_rotate(v).h1 * v.h1 + j_rotate(v).h2 * v.h2 == 0.0


@given(points, small, small)
def test_frame_embedding_preserves_contact_pairing(p, h1, h2):
    w = frame_to_euclidean(FrameVector(h1, h2, 0.0, p))
    assert abs(contact_eval(p, w)) <= 1e-12 * (1.0 + abs(p.x) + abs(p.y)) * (
        abs(h1) + abs(h2)
    )


jets = st.lists(small, min_size=18, max_size=18).map(lambda e: np.array(e).reshape(1, 6, 3))


@given(jets)
def test_normal_compatibility_is_squared_norm(j):
    q = horizontal_normal_batch(j)[2][0]
    assert math.isclose(normal_compatibility(j)[0], q**2, rel_tol=1e-12, abs_tol=1e-12)


@given(jets)
def test_flow_direction_annihilates_induced_form(j):
    q = horizontal_normal_batch(j)[2][0]
    du, dv = j[0, 1], j[0, 2]
    if q <= 1e-3 * (1.0 + math.sqrt(float(du @ du) + float(dv @ dv))):
        return
    d_u, d_v, _, _ = jet_field(j[0])  # clear of the stop band, or it raises
    (p_u,), (p_v,) = induced_form_batch(j)
    pairing = p_u * d_u + p_v * d_v
    scale = math.hypot(p_u, p_v)
    assert abs(pairing) <= 1e-12 * (1.0 + scale)
    assert math.isclose(math.hypot(d_u, d_v) * q, scale, rel_tol=1e-9)
