"""Group operations, gauge distance and the contact frame."""

import math

import numpy as np
import pytest

from conftest import ORIGIN, j_rotate
from heisflow.errors import BasePointMismatch
from heisflow.heis import (
    FrameVector,
    HorizontalVec,
    Point3,
    contact_eval,
    euclidean_to_frame,
    frame_t,
    frame_to_euclidean,
    frame_x,
    frame_y,
    group_inv,
    group_mul,
    h_wedge,
    kc_distance,
    koranyi_gauge,
)
from heisflow.rng import Lcg64

P = Point3(1.0, 2.0, 3.0)
Q = Point3(-0.5, 0.25, 1.5)


def test_group_mul_frozen():
    # t = 3 + 1.5 + 2*(2*(-0.5) - 1*0.25) = 2; dyadic inputs make it exact
    assert group_mul(P, Q) == Point3(0.5, 2.25, 2.0)
    assert group_mul(Q, P) == Point3(0.5, 2.25, 7.0)


def test_identity_and_inverse_exact():
    assert group_mul(P, ORIGIN) == P
    assert group_mul(ORIGIN, P) == P
    assert group_inv(P) == Point3(-1.0, -2.0, -3.0)
    assert group_mul(P, group_inv(P)) == ORIGIN
    assert group_mul(group_inv(P), P) == ORIGIN


def test_point_validation():
    with pytest.raises(ValueError):
        Point3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Point3(0.0, math.inf, 0.0)
    assert P.as_tuple() == (1.0, 2.0, 3.0)


@pytest.mark.parametrize(
    "p, expected",
    [
        (Point3(3.0, 4.0, 0.0), 5.0),  # (25^2)^(1/4)
        (Point3(0.0, 0.0, 4.0), 2.0),  # purely vertical: |t|^(1/2)
        (Point3(1.0, 1.0, 2.0), 2.0 ** 0.75),  # (4 + 4)^(1/4)
        (ORIGIN, 0.0),
    ],
)
def test_koranyi_gauge_frozen(p, expected):
    assert koranyi_gauge(p) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_gauge_inverse_symmetry():
    assert koranyi_gauge(group_inv(P)) == koranyi_gauge(P)


def test_kc_distance_frozen():
    # p^-1 q = (-1.5, -1.75, 1.0), gauge = (5.3125^2 + 1)^(1/4)
    assert kc_distance(P, Q) == pytest.approx(2.3250372882046815, rel=1e-15)
    assert kc_distance(P, P) == 0.0
    # vertical separation: gauge of (0, 0, 4)
    assert kc_distance(Point3(1.0, 0.0, 0.0), Point3(1.0, 0.0, 4.0)) == 2.0


def test_kc_distance_left_invariant():
    g = Point3(0.3, -1.2, 0.7)
    d = kc_distance(P, Q)
    assert kc_distance(group_mul(g, P), group_mul(g, Q)) == pytest.approx(d, rel=1e-13)


def test_frame_fields_annihilate_contact_form():
    for p in (P, Q, Point3(-2.0, 0.5, -4.0)):
        assert contact_eval(p, frame_to_euclidean(frame_x(p))) == 0.0
        assert contact_eval(p, frame_to_euclidean(frame_y(p))) == 0.0
        assert contact_eval(p, frame_to_euclidean(frame_t(p))) == 1.0


def test_frame_euclidean_round_trip():
    w = FrameVector(0.5, -1.25, 2.0, P)
    back = euclidean_to_frame(P, frame_to_euclidean(w))
    assert (back.a1, back.a2, back.a3) == (w.a1, w.a2, w.a3)
    assert back.base == P


def test_frame_to_euclidean_twists_t_component():
    # (a1, a2, a3) -> (a1, a2, a3 + 2 y a1 - 2 x a2) at (x, y) = (1, 2)
    assert frame_to_euclidean(FrameVector(1.0, 0.0, 0.0, P)) == (1.0, 0.0, 4.0)
    assert frame_to_euclidean(FrameVector(0.0, 1.0, 0.0, P)) == (0.0, 1.0, -2.0)


def test_wedge_clock_rule_exact():
    x, y, t = frame_x(P), frame_y(P), frame_t(P)

    def comps(v):
        return (v.a1, v.a2, v.a3)

    assert comps(h_wedge(x, y)) == (0.0, 0.0, 1.0)
    assert comps(h_wedge(y, t)) == (1.0, 0.0, 0.0)
    assert comps(h_wedge(t, x)) == (0.0, 1.0, 0.0)


def test_wedge_antisymmetry_and_base():
    a = FrameVector(0.5, -1.0, 2.0, P)
    b = FrameVector(1.5, 0.25, -0.5, P)
    ab, ba = h_wedge(a, b), h_wedge(b, a)
    assert (ab.a1, ab.a2, ab.a3) == (-ba.a1, -ba.a2, -ba.a3)
    assert ab.base == P
    with pytest.raises(BasePointMismatch):
        h_wedge(a, FrameVector(1.0, 0.0, 0.0, Q))


def test_j_rotate_quarter_turn():
    v = HorizontalVec(0.75, -2.0, P)
    jv = j_rotate(v)
    assert (jv.h1, jv.h2) == (2.0, 0.75)
    jjv = j_rotate(jv)
    assert (jjv.h1, jjv.h2) == (-v.h1, -v.h2)
    assert jv.base == P


def test_contact_eval_frozen():
    # omega_p(w) = w_t + 2 (x w_y - y w_x) at p = (1, 2, 3)
    assert contact_eval(P, (1.0, 1.0, 1.0)) == 1.0 + 2.0 * (1.0 - 2.0)
    assert contact_eval(ORIGIN, (5.0, -3.0, 0.25)) == 0.25


# ---------------------------------------------------------------------------
# array-valued points: every function acts per entry, bit for bit

# Two points whose gauge argument ((x^2 + y^2)^2 + t^2) numpy's power, on
# AVX-512 builds, raises to 1/4 with a different last bit than Python's **.
POWER_ROWS = [
    (-0.29064601783967436, -1.4659056543924707, -1.240613411546804),
    (0.994129738459125, -0.7772092749936724, 1.2360492768590374),
]


def seeded(seed, n=300, width=3):
    """An (n + 2, width) array of seeded uniforms in [-1.5, 1.5); the last two
    rows are the POWER_ROWS, padded or cut to ``width``."""
    draw = Lcg64(seed).uniforms(n * width, -1.5, 1.5).reshape(n, width)
    extra = np.resize(np.array(POWER_ROWS), (2, width))
    return np.vstack((draw, extra))


def test_uniforms_are_the_stream_of_uniform():
    one, many = Lcg64(9), Lcg64(9)
    want = [one.uniform(-1.5, 1.5) for _ in range(50)]
    assert many.uniforms(50, -1.5, 1.5).tolist() == want
    assert many.state == one.state
    # array bounds broadcast per draw: alternating bounds are alternating calls
    lo, hi = (-1.5, 0.25), (2.0, 0.75)
    want = [one.uniform(lo[i % 2], hi[i % 2]) for i in range(50)]
    got = many.uniforms(50, np.tile(lo, 25), np.tile(hi, 25))
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    assert many.state == one.state


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65, 90_000])
def test_jump_ahead_uniforms_match_the_draw_loop(seed, n):
    # the states are built by composing the step map; the bits and the final
    # state must be those of n single draws
    one, many = Lcg64(seed), Lcg64(seed)
    want = np.array([one.uniform(-1.5, 1.5) for _ in range(n)], float).reshape(-1)
    got = many.uniforms(n, -1.5, 1.5)
    assert got.shape == (n,) and got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert many.state == one.state and type(many.state) is int


def fields(obj):
    """The float fields of a heis value, as a tuple."""
    if isinstance(obj, Point3):
        return obj.as_tuple()
    if isinstance(obj, FrameVector):
        return (obj.a1, obj.a2, obj.a3, *obj.base.as_tuple())
    if isinstance(obj, HorizontalVec):
        return (obj.h1, obj.h2, *obj.base.as_tuple())
    return tuple(obj) if isinstance(obj, tuple) else (obj,)


def assert_per_entry(fn, *args):
    """fn on array-valued args equals fn on each entry, bit for bit."""
    got = np.broadcast_arrays(*fields(fn(*args)))
    n = len(got[0])

    def entry(arg, i):
        if isinstance(arg, Point3):
            return Point3(*(float(c[i]) for c in arg.as_tuple()))
        if isinstance(arg, FrameVector):
            a1, a2, a3 = (float(c[i]) for c in (arg.a1, arg.a2, arg.a3))
            return FrameVector(a1, a2, a3, entry(arg.base, i))
        if isinstance(arg, HorizontalVec):
            return HorizontalVec(float(arg.h1[i]), float(arg.h2[i]), entry(arg.base, i))
        return tuple(float(c[i]) for c in arg)

    want = np.array([fields(fn(*(entry(a, i) for a in args))) for i in range(n)], float).T
    assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_group_functions_on_arrays_match_scalar_calls():
    p, q = Point3(*seeded(1).T), Point3(*seeded(2).T)
    for fn, args in [
        (group_mul, (p, q)),
        (group_inv, (p,)),
        (koranyi_gauge, (p,)),
        (kc_distance, (p, q)),
    ]:
        assert_per_entry(fn, *args)


def test_frame_functions_on_arrays_match_scalar_calls():
    p = Point3(*seeded(3).T)
    a1, a2, a3, b1, b2, b3 = seeded(4, width=6).T
    u, v = FrameVector(a1, a2, a3, p), FrameVector(b1, b2, b3, p)
    w = tuple(seeded(5).T)
    for fn, args in [
        (frame_to_euclidean, (u,)),
        (euclidean_to_frame, (p, w)),
        (contact_eval, (p, w)),
        (h_wedge, (u, v)),
        (j_rotate, (HorizontalVec(a1, a2, p),)),
        (HorizontalVec.norm, (HorizontalVec(a1, a2, p),)),
    ]:
        assert_per_entry(fn, *args)
    for frame in (frame_x, frame_y, frame_t):
        assert_per_entry(lambda q: frame_to_euclidean(frame(q)), p)


def test_gauge_of_arrays_rounds_like_python_pow():
    p = Point3(*np.array(POWER_ROWS).T)
    want = [((x * x + y * y) * (x * x + y * y) + t * t) ** 0.25 for x, y, t in POWER_ROWS]
    assert koranyi_gauge(p).tolist() == want


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_one_non_finite_entry_raises(bad):
    ok, broken = np.zeros(4), np.array([0.0, 1.0, bad, 2.0])
    p = Point3(ok, ok, ok)
    for make in (
        lambda: Point3(ok, broken, ok),
        lambda: FrameVector(ok, ok, broken, p),
        lambda: HorizontalVec(broken, ok, p),
    ):
        with pytest.raises(ValueError, match="requires finite components"):
            make()


def test_wedge_on_mismatched_array_bases_raises():
    x, y, t = seeded(6).T
    p = Point3(x, y, t)
    a = FrameVector(x, y, t, p)
    # equal entries in other arrays count as the same base
    h_wedge(a, FrameVector(t, x, y, Point3(x.copy(), y.copy(), t.copy())))
    moved = t.copy()
    moved[-1] = np.nextafter(moved[-1], 2.0)
    for base in (Point3(x, y, moved), Point3(x[:-1], y[:-1], t[:-1]), Point3(0.0, 0.0, 0.0)):
        with pytest.raises(BasePointMismatch):
            h_wedge(a, FrameVector(1.0, 0.0, 0.0, base))
