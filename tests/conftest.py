"""Shared constructors and fixtures for the test suite."""

import math

import pytest
from hypothesis import settings

from heisflow.builders import (
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_straight_ruled,
    catalog_get,
)
from heisflow.curvature import curvature_scan
from heisflow.heis import HorizontalVec, Point3

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


ORIGIN = Point3(0.0, 0.0, 0.0)


def j_rotate(v: HorizontalVec) -> HorizontalVec:
    """Positive quarter turn of the horizontal plane: X -> Y, Y -> -X."""
    return HorizontalVec(-v.h2, v.h1, v.base)


def ts(*terms) -> TermSum:
    """TermSum from (kind, coeff, k) triples; ts() is the zero sum."""
    return TermSum(tuple(Term(kind, coeff, k) for kind, coeff, k in terms))


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
