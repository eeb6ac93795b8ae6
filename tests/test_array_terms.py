"""The curve code on float arrays equals its float calls bit for bit.

Term jets, their sums, curves, ruling directions, the ruling-form
coefficients and the contact factor take a float or a float array.  The
array call must return, entry by entry, exactly the float call's bits; the
builders' batch jets rely on it.  NaN sign bits are not part of the
contract: math.nan is positive, NaN made by the hardware need not be.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisflow.builders import (
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_graph_separable,
    plane_contact_factor,
    ruling_form_coefficients,
)
from heisflow.errors import CharacteristicPoint, ConstantRulingDirection
from heisflow.flow import _field
from heisflow.patch import Domain
from term_reference import EXTREMES, POW_DIFFERS

values = st.floats(allow_nan=False, allow_infinity=False)
samples = st.lists(values, min_size=1, max_size=8).map(
    lambda xs: np.array(xs + EXTREMES + POW_DIFFERS)
)
coeffs = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))
terms = st.one_of(
    st.builds(Term, st.just("poly"), coeffs, st.integers(0, 6)),
    st.builds(Term, st.sampled_from(["cos", "sin"]), coeffs, st.integers(1, 6)),
)
term_sums = st.lists(terms, max_size=3).map(TermSum)


def assert_same(array_call, float_calls):
    """Each output of array_call, an array or a scalar for every entry, has
    the bits of that output's float calls, or NaN where they are NaN."""
    want = np.array(float_calls, float)
    got = np.array([np.broadcast_to(out, want.shape[1:]) for out in array_call], float)
    both_nan = np.isnan(got) & np.isnan(want)
    same = got.view(np.int64) == want.view(np.int64)
    assert (same | both_nan).all(), (got[~(same | both_nan)], want[~(same | both_nan)])


def per_entry(fn, *arrays):
    """fn of the float entries, stacked output by output: shape (outputs, n)."""
    rows = [fn(*args) for args in zip(*(a.tolist() for a in arrays))]
    return np.array(rows, float).T


def test_power_one_returns_its_argument():
    rng = np.random.default_rng(11)
    x = np.concatenate((
        rng.uniform(-1e6, 1e6, 100_000),
        rng.standard_normal(100_000) * 10.0 ** rng.integers(-300, 300, 100_000),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        2.0 ** np.arange(-1074, 1024),
        -(2.0 ** np.arange(-1074, 1024)),
    ))
    assert all(math.copysign(1.0, s**1) == math.copysign(1.0, s) and s**1 == s
               for s in x.tolist())


@pytest.mark.parametrize("span", [10.0, 1e4, 1e8, 1e300])
def test_numpy_cos_sin_match_math(span):
    w = np.random.default_rng(17).uniform(-span, span, 100_000)
    np.testing.assert_array_equal(np.cos(w).view(np.int64),
                                  np.array([math.cos(x) for x in w.tolist()]).view(np.int64))
    np.testing.assert_array_equal(np.sin(w).view(np.int64),
                                  np.array([math.sin(x) for x in w.tolist()]).view(np.int64))


def test_float_trig_past_the_float_range_is_nan():
    # math.sin(inf) raises; the float call gives NaN, as np.sin does
    assert all(math.isnan(x) for x in Term("sin", 1.0, 6).jet(1e308))
    assert all(math.isnan(x) for x in AngleField(TermSum((Term("poly", 1.0, 6),))).direction_jet(1e60))
    surface = build_graph_separable(
        TermSum((Term("sin", 1.0, 6),)), TermSum(), Domain(0.0, 1e308, 0.0, 1.0)
    )
    with pytest.raises(ValueError, match="^non-finite jet component in value: "):
        _field(surface, 1e308, 0.5)


@settings(max_examples=200)
@given(term=terms, s=samples)
@example(term=Term("poly", 1.5, 2), s=np.array(POW_DIFFERS))
@example(term=Term("poly", -0.0, 6), s=np.array(EXTREMES))
@example(term=Term("sin", 1.0, 6), s=np.array([1e308, -1e308, 0.5]))
def test_term_jet_on_arrays(term, s):
    with np.errstate(all="ignore"):
        got = term.jet(s)
    assert_same(got, per_entry(term.jet, s))


@settings(max_examples=100)
@given(ts=term_sums, s=samples)
def test_term_sum_jet_on_arrays(ts, s):
    with np.errstate(all="ignore"):
        got = ts.jet(s)
    assert_same(got, per_entry(ts.jet, s))


@settings(max_examples=100)
@given(x=term_sums, y=term_sums, t=term_sums, s=samples)
def test_curve_jet3_on_arrays(x, y, t, s):
    curve = CurveSpec(x, y, t, (0.0, 1.0))
    with np.errstate(all="ignore"):
        got = [entry for jet in curve.jet3(s) for entry in jet]
    assert_same(got, per_entry(lambda si: [e for jet in curve.jet3(si) for e in jet], s))


@settings(max_examples=100)
@given(theta=term_sums, s=samples)
def test_direction_jet_on_arrays(theta, s):
    angle = AngleField(theta)
    with np.errstate(all="ignore"):
        got = angle.direction_jet(s)
    assert_same(got, per_entry(angle.direction_jet, s))


@settings(max_examples=100)
@given(x=term_sums, y=term_sums, t=term_sums, theta=term_sums, s=samples)
def test_ruling_form_coefficients_on_arrays(x, y, t, theta, s):
    spec = RuledSpec(CurveSpec(x, y, t, (0.0, 1.0)), AngleField(theta), (0.25, 1.25))
    with np.errstate(all="ignore"):
        got = ruling_form_coefficients(spec, s)
    assert_same(got, per_entry(lambda si: ruling_form_coefficients(spec, si), s))


turning = st.lists(terms, max_size=2).map(
    lambda extra: TermSum((Term("poly", 0.7, 1), *extra))
)
moderate = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=16).map(np.array)


@settings(max_examples=100)
@given(x=term_sums, y=term_sums, t=term_sums, theta=turning, s=moderate, data=st.data())
def test_plane_contact_factor_on_arrays(x, y, t, theta, s, data):
    spec = RuledSpec(CurveSpec(x, y, t, (0.0, 2.0)), AngleField(theta), (0.25, 1.25))
    v = np.array(data.draw(st.lists(st.floats(0.25, 1.25), min_size=len(s), max_size=len(s))))
    try:
        want = [plane_contact_factor(spec, si, vi) for si, vi in zip(s.tolist(), v.tolist())]
    except (CharacteristicPoint, ConstantRulingDirection) as scalar:
        with np.errstate(all="ignore"), pytest.raises(type(scalar)) as batch:
            plane_contact_factor(spec, s, v)
        assert str(batch.value) == str(scalar)
        return
    with np.errstate(all="ignore"):
        assert_same((plane_contact_factor(spec, s, v),), [want])


def test_plane_contact_factor_array_raises_at_the_first_failing_point():
    # c = t' + 2 theta' v^2 = -0.5 + 2 v^2 vanishes at v = 0.5 only
    spec = RuledSpec(
        CurveSpec(TermSum(), TermSum(), TermSum((Term("poly", -0.5, 1),)), (0.0, 2.0)),
        AngleField(TermSum((Term("poly", 1.0, 1),))),
        (0.25, 1.25),
    )
    s = np.array([0.3, 0.9, 1.1, 1.7])
    v = np.array([1.0, 0.5, 0.5, 0.5])
    with pytest.raises(CharacteristicPoint) as scalar:
        plane_contact_factor(spec, 0.9, 0.5)
    with pytest.raises(CharacteristicPoint) as batch:
        plane_contact_factor(spec, s, v)
    assert str(batch.value) == str(scalar.value)
