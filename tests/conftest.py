"""Shared constructors and fixtures for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from heisflow import flow
from heisflow.builders import (
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_straight_ruled,
    catalog_get,
    random_ruled_patch,
)
from heisflow.curvature import curvature_scan
from heisflow.heis import HorizontalVec, Point3
from heisflow.horizontal import char_threshold, horizontal_normal_batch, induced_form_batch
from heisflow.patch import Domain, SurfaceHandle, reparametrize_affine
from heisflow.rng import Lcg64

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


ORIGIN = Point3(0.0, 0.0, 0.0)


def j_rotate(v: HorizontalVec) -> HorizontalVec:
    """Positive quarter turn of the horizontal plane: X -> Y, Y -> -X."""
    return HorizontalVec(-v.h2, v.h1, v.base)


def ts(*terms) -> TermSum:
    """TermSum from (kind, coeff, k) triples; ts() is the zero sum."""
    return TermSum(tuple(Term(kind, coeff, k) for kind, coeff, k in terms))


def term_list(*entries) -> list:
    """The file entries of (kind, coeff, k) triples."""
    return [{"kind": kind, "coeff": coeff, "k": k} for kind, coeff, k in entries]


# Random ruled, graph and cylinder files: terms of every kind, with huge
# coefficients, a frequency of 2**53 and domains out to 1e293 among them, so
# that many builds fail and many jets overflow.
coeffs = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-20, 1e150, 1e300]))
entries = st.lists(
    st.one_of(
        st.tuples(st.just("poly"), coeffs, st.integers(0, 6)),
        st.tuples(st.sampled_from(["cos", "sin"]), coeffs,
                  st.one_of(st.integers(1, 4), st.just(2**53))),
    ),
    max_size=3,
).map(lambda ts: term_list(*ts))
ranges = st.sampled_from([[0.0, 2.0], [-1.5, 1.0], [0.5, 1e60], [0.0, 1e293]])
RULED = st.fixed_dictionaries({
    "type": st.just("ruled"),
    "curve": st.fixed_dictionaries({"x": entries, "y": entries, "t": entries, "domain": ranges}),
    "theta": entries, "v_range": st.sampled_from([[0.25, 1.25], [-1.0, 1.0]]),
})
GRAPH = st.fixed_dictionaries({
    "type": st.just("graph"),
    "domain": st.fixed_dictionaries(
        {"u": ranges, "v": st.sampled_from([[0.0, 1.0], [-2.0, 2.0]])}
    ),
    "fu": entries, "fv": entries,
})
CYLINDER = st.fixed_dictionaries({
    "type": st.just("cylinder"),
    "profile": st.fixed_dictionaries({"x": entries, "y": entries, "domain": ranges}),
    "height": st.just([-1.0, 1.0]),
})


def spec_dict(spec: RuledSpec) -> dict:
    """The ruled surface file of ``spec``, as the file readers take it."""

    def terms(term_sum: TermSum) -> list:
        return term_list(*((t.kind, t.coeff, t.k) for t in term_sum.terms))

    curve = spec.curve
    out = {
        "type": "ruled",
        "curve": {"x": terms(curve.x), "y": terms(curve.y), "t": terms(curve.t),
                  "domain": list(curve.domain)},
        "theta": terms(spec.angle.theta),
        "v_range": list(spec.v_range),
    }
    return {**out, "name": spec.name} if spec.name else out


def field_rows(jets):
    """The flow field as arrays, composed from the horizontal formulas at
    every point of a jet array: the (4, N) rows (p_v / q, -p_u / q, x, y),
    q = ||N^h||, and the mask of the points in the stop band."""
    with np.errstate(all="ignore"):
        q = horizontal_normal_batch(jets)[2]
        p_u, p_v = induced_form_batch(jets)
        near = q < flow.STOP_FACTOR * char_threshold(jets)
        return np.stack((p_v / q, -p_u / q, jets[:, 0, 0], jets[:, 0, 1])), near


def jet_field(jet):
    """The flow's float field (du, dv, x, y) at a surface literal whose
    value, du and dv rows are those of ``jet``; flow._LegStop in the stop
    band."""
    first = np.asarray(jet, float)[:3].tolist()
    surface = SurfaceHandle(Domain(0.0, 1.0, 0.0, 1.0), lambda u, v, order=2: first)
    return flow._field_of(surface)(0.0, 0.0)


def generic_slot(surface):
    """``surface`` with its formula behind a wrapper that has no ``stage``,
    so that the flow's field and legs read it through the generic slot
    ``fields(u, v, 1)[:3]``: a reference that does not run a builder's
    inline stage text."""
    return SurfaceHandle(surface.domain, lambda u, v, order=2: surface.fields(u, v, order),
                         surface.label)


def unsigned_nan_bits(a):
    """The bits of a, with the sign bit of each NaN cleared: a NaN's sign is
    not part of the documented contract, and CPython's specialised float
    add can flip it after some calls.  Every other bit stays."""
    b = a.view(np.int64)
    return np.where(np.isnan(a), b & np.int64(0x7FFF_FFFF_FFFF_FFFF), b)


def turned_ruled():
    """The first random ruled patch of seed 3, turned by half a radian about
    (1.0, 0.75) on [-0.2, 0.2]^2: no jet component of it is zero anywhere,
    where a ruled patch has sigma_vv = 0."""
    _, ruled = random_ruled_patch(Lcg64(3), 0)
    c, s = math.cos(0.5), math.sin(0.5)
    return reparametrize_affine(ruled, ((c, -s), (s, c)), (1.0, 0.75), Domain(-0.2, 0.2, -0.2, 0.2))


def local_H(surface, u, v) -> float:
    """The local-formula H at one point, a strict scan of one point."""
    return float(curvature_scan([surface], [u], [v]).H[0, 0])


def circle_lift_curve(domain=(0.0, 2.0 * math.pi)) -> CurveSpec:
    """Unit-speed horizontal lift of the unit circle: (cos s, sin s, -2s)."""
    return CurveSpec(
        ts(("cos", 1.0, 1)), ts(("sin", 1.0, 1)), ts(("poly", -2.0, 1)), domain
    )


def ruled_parabola_spec() -> RuledSpec:
    """gamma = (0, s, s^2) ruled at theta = pi/4: form coeff c = 2s + 2 sqrt2 v."""
    curve = CurveSpec(ts(), ts(("poly", 1.0, 1)), ts(("poly", 1.0, 2)), (0.5, 2.0))
    angle = AngleField(ts(("poly", math.pi / 4.0, 0)))
    return RuledSpec(curve, angle, (0.25, 1.25), name="ruled-parabola")


def circle_lift_ruled_spec() -> RuledSpec:
    """theta = s over the circle lift: c = 4v + 2v^2, lambda = v/(2+v)."""
    angle = AngleField(ts(("poly", 1.0, 1)))
    return RuledSpec(circle_lift_curve(), angle, (0.2, 1.5), name="circle-lift-ruled")


@pytest.fixture(scope="session")
def paraboloid():
    return catalog_get("paraboloid")


@pytest.fixture(scope="session")
def cone():
    return catalog_get("cone_lower")


@pytest.fixture(scope="session")
def plane_t0():
    return catalog_get("plane_t0")


@pytest.fixture(scope="session")
def unit_cylinder():
    return catalog_get("cylinder(1.0)")


@pytest.fixture(scope="session")
def ruled_parabola():
    return build_straight_ruled(ruled_parabola_spec())
