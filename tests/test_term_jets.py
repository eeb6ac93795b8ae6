"""The generated term-sum jets against the per-term loop they replaced.

tests/term_reference.py keeps that loop.  On floats and on float arrays
the generated jet of a sum, and of a group of sums, must give its bits, NaN
where it gives NaN, and the same shape of each entry: a float where the
loop adds no array.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisflow import builders
from heisflow.builders import Term, TermSum, _jet_code, random_ruled_patch
from heisflow.rng import Lcg64
from term_reference import EXTREMES, POW_DIFFERS, direction_jet, term_sum_jet

SPECIAL = EXTREMES + POW_DIFFERS + [math.inf, -math.inf, math.nan]

points = st.one_of(st.floats(), st.sampled_from(SPECIAL))
samples = st.lists(st.floats(), max_size=8).map(lambda xs: np.array(xs + SPECIAL))
coeffs = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))
terms = st.one_of(
    st.builds(Term, st.just("poly"), coeffs, st.integers(0, 6)),
    st.builds(Term, st.sampled_from(["cos", "sin"]), coeffs, st.integers(1, 6)),
)
term_sums = st.lists(terms, max_size=4).map(TermSum)


def assert_same_jet(got, want):
    assert len(got) == len(want) == 4
    assert_same_entries(got, want)


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) and isinstance(g, float) == isinstance(w, float)
        g, w = np.asarray(g, float), np.asarray(w, float)
        same = (g.view(np.int64) == w.view(np.int64)) | (np.isnan(g) & np.isnan(w))
        assert same.all(), (g, w)


@settings(max_examples=300)
@given(ts=term_sums, s=points)
@example(ts=TermSum((Term("poly", 1.5, 2),)), s=POW_DIFFERS[0])
@example(ts=TermSum((Term("poly", -0.0, 6), Term("cos", 1e300, 6))), s=1e60)
def test_term_sum_jet_matches_the_loop_on_floats(ts, s):
    assert_same_jet(ts.jet(s), term_sum_jet(ts, s))


@settings(max_examples=100)
@given(ts=term_sums, s=samples)
def test_term_sum_jet_matches_the_loop_on_arrays(ts, s):
    with np.errstate(all="ignore"):
        assert_same_jet(ts.jet(s), term_sum_jet(ts, s))


@settings(max_examples=200)
@given(term=terms, s=points)
def test_term_jet_is_the_jet_of_a_one_term_sum(term, s):
    # the sum adds each entry to 0.0, which turns a term's -0.0 into 0.0
    one = TermSum((term,))
    assert_same_jet(one.jet(s), term_sum_jet(one, s))


def test_the_guarded_path():
    # 1e60 ** 6 raises OverflowError and math.sin(6e308) raises ValueError;
    # the jet then runs again with +-inf powers and NaN trig
    poly, sin = TermSum((Term("poly", 1.0, 6),)), TermSum((Term("sin", 1.0, 6),))
    assert poly.jet(1e60)[0] == math.inf
    assert all(math.isnan(x) for x in sin.jet(1e308))
    for ts, s in [(poly, 1e60), (sin, 1e308), (poly, 0.75), (sin, 0.75)]:
        assert_same_jet(ts.jet(s), term_sum_jet(ts, s))


def test_sums_of_one_shape_keep_their_own_constants():
    a = TermSum((Term("poly", 1.0, 0), Term("poly", 2.0, 3), Term("sin", 0.5, 1)))
    b = TermSum((Term("poly", -3.0, 0), Term("poly", 0.25, 3), Term("sin", 1.5, 4)))
    for n in range(1, 5):
        assert a._jet(n)[0].__code__ is b._jet(n)[0].__code__
    for s in [0.3, np.array([0.3, -1.2]), -1.2, 1e60, np.array([1e308])]:
        with np.errstate(all="ignore"):
            got_a, got_b = a.jet(s), b.jet(s)
            want_a, want_b = term_sum_jet(a, s), term_sum_jet(b, s)
        assert_same_jet(got_a, want_a)
        assert_same_jet(got_b, want_b)
    # so do groups of sums of one shape each, and ruled specs of one shape
    for n in range(1, 4):
        ab, ba = builders._group_jet((a, b), n), builders._group_jet((b, a), n)
        assert ab[0].__code__ is ba[0].__code__ is ab[1].__code__
        for s in [0.3, np.array([0.3, -1.2]), 1e60]:
            with np.errstate(all="ignore"):
                want = [term_sum_jet(ts, s)[:n] for ts in (a, b)]
                assert_same_entries(ab[isinstance(s, np.ndarray)](s), want[0] + want[1])
                assert_same_entries(ba[isinstance(s, np.ndarray)](s), want[1] + want[0])
    rng = Lcg64(5)
    one, other = (random_ruled_patch(rng, i)[0] for i in range(2))
    for order in (1, 2):
        assert (builders._ruled_jets(one)[order][0].__code__
                is builders._ruled_jets(other)[order][0].__code__)


def test_random_ruled_specs_compile_few_shapes(monkeypatch):
    # a code is compiled once per group of shapes and entry count; a build
    # reads two entries of each sum in its ruling-form scan, and binds the
    # group of x, y, t and theta at two (order 1) and three (order 2)
    before = _jet_code.cache_info().misses
    asked = set()
    monkeypatch.setattr(builders, "_jet_code", lambda *key: asked.add(key) or _jet_code(*key))
    rng = Lcg64(2024)
    specs = [random_ruled_patch(rng, i)[0] for i in range(100)]
    sums = {key for key in asked if len(key[0]) == 1}
    groups = asked - sums
    assert len({shapes for shapes, *_ in sums}) <= 3 and {n for _, n, *_ in sums} == {2}
    assert len({shapes for shapes, *_ in groups}) == 1 and {n for _, n, *_ in groups} == {2, 3}
    assert _jet_code.cache_info().misses - before <= len(asked)
    for spec in specs[:10]:
        for ts in (spec.curve.x, spec.curve.y, spec.curve.t, spec.angle.theta):
            assert_same_jet(ts.jet(0.7), term_sum_jet(ts, 0.7))


def unsigned_nan_bits(a):
    """The bits of a, with the sign bit of each NaN cleared: a NaN's sign is
    not part of the documented contract, and CPython's specialised float
    add can flip it after some calls.  Every other bit stays."""
    b = a.view(np.int64)
    return np.where(np.isnan(a), b & np.int64(0x7FFF_FFFF_FFFF_FFFF), b)


def assert_same_prefix(got, full, n):
    assert len(got) == n
    for g, w in zip(got, full[:n]):
        assert np.shape(g) == np.shape(w) and isinstance(g, float) == isinstance(w, float)
        g, w = np.asarray(g, float), np.asarray(w, float)
        assert (unsigned_nan_bits(g) == unsigned_nan_bits(w)).all(), (n, g, w)


def test_prefix_check_ignores_only_the_sign_of_nan():
    # the jet of this sum at -inf is NaN, and CPython's specialised float add
    # flips its sign once a generated jet has run often enough
    ts = TermSum((Term("poly", 1.38, 1), Term("poly", 1.38, 4),
                  Term("cos", 0.0, 3), Term("cos", 0.0, 3)))
    with np.errstate(all="ignore"):
        for n in range(1, 5):
            for _ in range(10):
                ts.jet(-math.inf, n)
            assert_same_prefix(ts.jet(-math.inf, n), ts.jet(-math.inf), n)
    quiet, negative, payload = np.array([0x7FF8 << 48, 0xFFF8 << 48, (0x7FF8 << 48) + 1],
                                        np.uint64).view(float)
    assert unsigned_nan_bits(quiet) == unsigned_nan_bits(negative)
    assert unsigned_nan_bits(quiet) != unsigned_nan_bits(payload)
    assert unsigned_nan_bits(np.float64(0.0)) != unsigned_nan_bits(np.float64(-0.0))


ONE_TERM_SUMS = [TermSum()] + [
    TermSum((Term(kind, c, k),))
    for kind, ks in (("poly", range(7)), ("cos", (1, 2, 5)), ("sin", (1, 2, 5)))
    for k in ks
    for c in (1.5, -0.0, 1e300)
]


def test_every_entry_count_is_a_prefix_of_the_full_jet():
    # the empty sum, each polynomial degree and both trigonometric kinds,
    # on floats (the guarded path included) and on arrays
    s_array = np.array([0.0, -0.0, 0.3, -1.7, 1e60, 1e308, math.inf, math.nan] + POW_DIFFERS)
    for ts in ONE_TERM_SUMS + [TermSum(tuple(t.terms[0] for t in ONE_TERM_SUMS[1::3]))]:
        for s in [0.3, -1.7, 0.0, 1e60, 1e308, math.inf, s_array]:
            with np.errstate(all="ignore"):
                full = ts.jet(s)
                for n in range(1, 5):
                    assert_same_prefix(ts.jet(s, n), full, n)


@settings(max_examples=150)
@given(ts=term_sums, s=st.one_of(points, samples), n=st.integers(1, 4))
def test_entry_counts_match_the_full_jet(ts, s, n):
    with np.errstate(all="ignore"):
        assert_same_prefix(ts.jet(s, n), ts.jet(s), n)


def group_reference(group, n, direction, s):
    """The per-sum loop's entries of a group: the first n of each sum's jet,
    and for a direction group the direction of its last sum instead."""
    want = [e for ts in group[: len(group) - direction] for e in term_sum_jet(ts, s)[:n]]
    return want + list(direction_jet(group[-1], s, n) if direction else ())


# 1e60 ** 6 raises OverflowError and math.sin(6 * 1e308) ValueError, so the
# whole group runs again in the twin body
GUARDED = [TermSum((Term("poly", 1.0, 6),)), TermSum((Term("sin", 1.0, 6),))]


@settings(max_examples=300)
@given(group=st.lists(term_sums, min_size=1, max_size=4), n=st.integers(1, 3),
       direction=st.booleans(), s=st.one_of(points, samples))
@example(group=GUARDED, n=2, direction=False, s=1e60)
@example(group=GUARDED, n=3, direction=True, s=1e308)
@example(group=GUARDED[::-1], n=1, direction=True, s=1e60)
@example(group=GUARDED, n=3, direction=False, s=np.array([1e60, 1e308, 0.5]))
@example(group=[TermSum((Term("poly", 0.5, 0),))], n=3, direction=True, s=np.array([0.3, 0.7]))
def test_group_jet_matches_the_per_sum_loop(group, n, direction, s):
    # a constant angle is a float on either path, with math's direction
    jet = builders._group_jet(tuple(group), n, direction=direction)[isinstance(s, np.ndarray)]
    with np.errstate(all="ignore"):
        assert_same_entries(jet(s), group_reference(group, n, direction, s))


@settings(max_examples=100)
@given(fu=term_sums, fv=term_sums, n=st.integers(1, 3), u=points, v=points)
@example(fu=GUARDED[0], fv=GUARDED[1], n=2, u=1e60, v=0.5)
@example(fu=GUARDED[0], fv=GUARDED[1], n=2, u=0.5, v=1e308)
def test_two_variable_group_jet_matches_the_per_sum_loop(fu, fv, n, u, v):
    # the graph's group reads f_u at u and f_v at v
    want = list(term_sum_jet(fu, u)[:n] + term_sum_jet(fv, v)[:n])
    floats, arrays = builders._group_jet((fu, fv), n, ("u", "v"))
    assert_same_entries(floats(u, v), want)
    ua, va = np.array([u, 0.25]), np.array([v, -0.5])
    with np.errstate(all="ignore"):
        want = list(term_sum_jet(fu, ua)[:n] + term_sum_jet(fv, va)[:n])
        assert_same_entries(arrays(ua, va), want)
