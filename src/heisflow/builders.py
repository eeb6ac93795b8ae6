"""Surface constructors: ruled patches, developables, cylinders, graphs.

A small closed-form term language (polynomials up to degree 6 plus integer-
frequency sine/cosine) describes curves and ruling-angle fields.  Everything
built from it carries exact 2-jets, so curvature evaluations downstream are
free of finite-difference error.  The same term data round-trips through
plain dicts for the JSON file format used by the command line tools.

The central construction is the straight ruled patch over a base curve
gamma(s) = (x, y, t) with ruling direction (a, b) = (cos theta, sin theta):

    sigma(s, v) = (x + v a, y + v b, t + 2 v (y a - x b)),

whose rule lines are group translates of horizontal lines.  Its pulled-back
contact form is c(s, v) ds with

    c = c0 + c1 v + c2 v^2,
    c0 = t' + 2 (x y' - y x'),   c1 = 4 (a y' - b x'),   c2 = 2 theta',

so the patch is characteristic exactly where c vanishes and is horizontally
minimal everywhere else.

The term jets and every formula built on them take a float or a float
array, so each builder hands :func:`heisflow.patch.make_surface` one field
formula, which the flow's scalar stepper runs on floats and
:func:`heisflow.patch.eval_jets` on arrays.  Both calls run the same
floating-point operations in the same order and agree bit for bit: cosine
and sine are math's for a float and numpy's for an array, and ``**`` is
Python's, entry by entry, except for the exponent 1.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CharacteristicPoint,
    ConstantRulingDirection,
    DegenerateRuling,
    NotHorizontal,
    NotRegular,
    NotRegularProfile,
    NotUnitSpeed,
    SpecError,
    StraightLine,
    UnknownName,
    ZeroInRange,
)
from .heis import _per_element
from .patch import Domain, SurfaceHandle, make_surface
from .rng import Lcg64

__all__ = [
    "Term",
    "TermSum",
    "CurveSpec",
    "AngleField",
    "RuledSpec",
    "build_straight_ruled",
    "ruling_form_coefficients",
    "ruling_form_coeff",
    "plane_contact_factor",
    "build_plane_flow_patch",
    "build_tangent_developable",
    "build_cylinder",
    "build_graph_separable",
    "catalog_get",
    "CATALOG",
    "H_MINIMAL_CATALOG",
    "random_ruled_spec",
    "term_to_dict",
    "term_from_dict",
    "terms_to_list",
    "terms_from_list",
    "curve_to_dict",
    "curve_from_dict",
    "spec_to_dict",
    "surface_from_dict",
    "load_surface_file",
    "resolve_surface",
]

_MAX_POLY_DEGREE = 6


@dataclass(frozen=True)
class Term:
    """One closed-form summand: coeff * s^k, coeff * cos(k s) or sin(k s)."""

    kind: str  # "poly" | "cos" | "sin"
    coeff: float
    k: int
    # The multipliers of the jet entries: (c k!/(k-i)!, k-i) pairs for a
    # polynomial, otherwise the four signed c k^i.
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("poly", "cos", "sin"):
            raise SpecError(f"unknown term kind {self.kind!r}")
        if not math.isfinite(self.coeff):
            raise SpecError(f"term coefficient must be finite, got {self.coeff!r}")
        if self.kind == "poly":
            if not 0 <= self.k <= _MAX_POLY_DEGREE:
                raise SpecError(
                    f"polynomial degree must lie in 0..{_MAX_POLY_DEGREE}, "
                    f"got {self.k}"
                )
        elif self.k < 1:
            raise SpecError(f"trigonometric frequency must be >= 1, got {self.k}")
        c, k = self.coeff, self.k
        if self.kind == "poly":
            plan, fac = [], 1.0
            for p in range(k, max(k - 4, -1), -1):
                plan.append((c * fac, p))
                fac *= p
        elif self.kind == "cos":
            plan = (c, -c * k, -c * k * k, c * k**3)
        else:
            plan = (c, c * k, -c * k * k, -c * k**3)
        object.__setattr__(self, "_plan", tuple(plan))

    def jet(self, s):
        """Value and first three derivatives at s, a float or a float array."""
        if self.kind == "poly":
            power = _array_pow if isinstance(s, np.ndarray) else _pow
            out = [0.0, 0.0, 0.0, 0.0]
            for i, (m, p) in enumerate(self._plan):
                out[i] = m * power(s, p) if p else m
            return tuple(out)
        m0, m1, m2, m3 = self._plan
        cw, sw = _cos_sin(self.k * s)
        if self.kind == "cos":
            return m0 * cw, m1 * sw, m2 * cw, m3 * sw
        return m0 * sw, m1 * cw, m2 * sw, m3 * cw


def _pow(s: float, p: int) -> float:
    """Python's float ``s ** p``, with +-inf where ``**`` raises on overflow."""
    try:
        return s**p
    except OverflowError:
        return math.copysign(math.inf, s) ** p


def _array_pow(s: np.ndarray, p: int) -> np.ndarray:
    """:func:`_pow` entry by entry, as np.power rounds differently; s**1 is s."""
    if p == 1:
        return s
    return _per_element(lambda x: _pow(x, p), s.ravel()).reshape(s.shape)


def _cos_sin(w):
    """(cos w, sin w): math's for a float, with NaN past the float range where
    math raises, and numpy's, which round the same, for an array."""
    if isinstance(w, np.ndarray):
        return np.cos(w), np.sin(w)
    try:
        return math.cos(w), math.sin(w)
    except ValueError:
        return math.nan, math.nan


@dataclass(frozen=True)
class TermSum:
    """A finite sum of terms of one variable; the empty sum is zero."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def jet(self, s):
        f = f1 = f2 = f3 = 0.0
        for term in self.terms:
            g, g1, g2, g3 = term.jet(s)
            f += g
            f1 += g1
            f2 += g2
            f3 += g3
        return f, f1, f2, f3

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def _as_range(pair, name: str) -> tuple[float, float]:
    try:
        if not isinstance(pair, (list, tuple)):
            raise TypeError
        lo, hi = (float(x) for x in pair)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{name} must be a finite increasing pair, got {pair!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SpecError(f"{name} must be a finite increasing pair, got {pair!r}")
    return lo, hi


@dataclass(frozen=True)
class CurveSpec:
    """A closed-form space curve s -> (x(s), y(s), t(s)) on [s_min, s_max]."""

    x: TermSum
    y: TermSum
    t: TermSum
    domain: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "domain", _as_range(self.domain, "curve domain"))

    def jet3(self, s):
        """((x..x'''), (y..y'''), (t..t''')) stacked as three 4-tuples."""
        return self.x.jet(s), self.y.jet(s), self.t.jet(s)


@dataclass(frozen=True)
class AngleField:
    """Ruling angle theta(s); exposes the direction (a, b) with 2-jets."""

    theta: TermSum

    def direction_jet(self, s):
        """(a, b, a', b', a'', b'') for a = cos theta, b = sin theta."""
        th, th1, th2, _ = self.theta.jet(s)
        a, b = _cos_sin(th)
        a1, b1 = -b * th1, a * th1
        a2 = -a * th1 * th1 - b * th2
        b2 = -b * th1 * th1 + a * th2
        return a, b, a1, b1, a2, b2


@dataclass(frozen=True)
class RuledSpec:
    """Base curve, angle field and rule-parameter range of a ruled patch."""

    curve: CurveSpec
    angle: AngleField
    v_range: tuple[float, float]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "v_range", _as_range(self.v_range, "v_range"))


def _ruled_fields(spec: RuledSpec, s, v):
    (x, x1, x2, _), (y, y1, y2, _), (t, t1, t2, _) = spec.curve.jet3(s)
    a, b, a1, b1, a2, b2 = spec.angle.direction_jet(s)
    g = y * a - x * b
    g1 = y1 * a + y * a1 - x1 * b - x * b1
    g2 = y2 * a + 2.0 * y1 * a1 + y * a2 - x2 * b - 2.0 * x1 * b1 - x * b2
    return (
        (x + v * a, y + v * b, t + 2.0 * v * g),
        (x1 + v * a1, y1 + v * b1, t1 + 2.0 * v * g1),
        (a, b, 2.0 * g),
        (x2 + v * a2, y2 + v * b2, t2 + 2.0 * v * g2),
        (a1, b1, 2.0 * g1),
    )


def _samples(lo: float, hi: float, n: int) -> np.ndarray:
    """The n + 1 points lo + (hi - lo) * i / n, i = 0..n, of a sample scan."""
    return lo + (hi - lo) * np.arange(n + 1) / n


def _fold_max(a) -> float:
    """max(0.0, *a) as Python's max takes it, which skips NaN (np.max does not)."""
    return float(np.fmax.reduce(a, axis=None, initial=0.0))


def _hypot(x, y, like: np.ndarray) -> np.ndarray:
    """math.hypot entry by entry (np.hypot rounds differently), broadcast to
    the shape of ``like``."""
    return _per_element(math.hypot, *np.broadcast_arrays(x, y, like)[:2])


def ruling_form_coefficients(spec: RuledSpec, s) -> tuple[float, float, float]:
    """(c0, c1, c2) of the induced-form coefficient c = c0 + c1 v + c2 v^2,
    at s a float or a float array."""
    (x, x1, _, _), (y, y1, _, _), (t, t1, _, _) = spec.curve.jet3(s)
    th, th1, _, _ = spec.angle.theta.jet(s)
    a, b = _cos_sin(th)
    c0 = t1 + 2.0 * (x * y1 - y * x1)
    c1 = 4.0 * (a * y1 - b * x1)
    c2 = 2.0 * th1
    return c0, c1, c2


def ruling_form_coeff(spec: RuledSpec, s, v) -> float:
    """The coefficient c(s, v) with sigma^* omega = c ds."""
    c0, c1, c2 = ruling_form_coefficients(spec, s)
    return c0 + v * (c1 + v * c2)


def build_straight_ruled(
    spec: RuledSpec,
    label: str | None = None,
    check_grid: tuple[int, int] | None = (21, 21),
) -> SurfaceHandle:
    """Assemble the ruled patch of ``spec`` with exact jets.

    Raises DegenerateRuling when c(s, v) vanishes identically on samples,
    i.e. the whole patch is characteristic (this happens exactly when the
    base curve is a horizontal line ruled along itself, so no surface-like
    patch exists); NotRegular when the sampled immersion check fails.
    """
    s0, s1 = spec.curve.domain
    v0, v1 = spec.v_range
    v = _samples(v0, v1, 8)
    with np.errstate(all="ignore"):
        c0, c1, c2 = ruling_form_coefficients(spec, _samples(s0, s1, 32)[:, None])
        cscale = _fold_max(abs(c0) + abs(c1) + abs(c2))
        cmax = _fold_max(abs(c0 + v * (c1 + v * c2)))
    if cmax <= 1e-12 * (1.0 + cscale):
        raise DegenerateRuling(
            "induced-form coefficient vanishes identically; "
            "the ruled patch is characteristic everywhere"
        )
    return make_surface(
        lambda s, v: _ruled_fields(spec, s, v),
        Domain(s0, s1, v0, v1),
        label if label is not None else (spec.name or "ruled"),
        check_grid,
    )


def plane_contact_factor(spec: RuledSpec, s, v) -> float:
    """Conformal contact factor relating the patch to its plane normal form.

    Straightening the rule lines maps the patch onto the plane patch
    (v cos theta(s), v sin theta(s), 0); the pulled-back contact forms then
    differ by the factor lambda = 2 v^2 theta'(s) / c(s, v) returned here.
    Requires a genuinely turning ruling direction: theta' identically zero
    means the normal-form target degenerates to a single line.  s and v are
    floats or equal-length float arrays; an array call raises at the first
    failing point.
    """
    s0, s1 = spec.curve.domain
    with np.errstate(all="ignore"):
        th1max = _fold_max(abs(spec.angle.theta.jet(_samples(s0, s1, 32))[1]))
    if th1max < 1e-12:
        raise ConstantRulingDirection(
            "theta' vanishes identically; no plane normal form with this factor"
        )
    c = ruling_form_coeff(spec, s, v)
    _, th1, _, _ = spec.angle.theta.jet(s)
    bad = abs(c) < 1e-12 * (1.0 + abs(2.0 * v * v * th1))
    if np.any(bad):
        s, v, c = (float(np.ravel(a)[np.argmax(bad)]) for a in np.broadcast_arrays(s, v, c))
        raise CharacteristicPoint(
            f"contact factor undefined where c vanishes: c({s}, {v}) = {c:.3e}"
        )
    return 2.0 * v * v * th1 / c


def build_plane_flow_patch(
    angle: AngleField,
    s_range: tuple[float, float],
    v_range: tuple[float, float],
    label: str = "plane-flow-patch",
) -> SurfaceHandle:
    """Ruled patch (v cos theta, v sin theta, 0) inside the plane t = 0."""
    zero = TermSum()
    spec = RuledSpec(CurveSpec(zero, zero, zero, s_range), angle, v_range, label)
    return build_straight_ruled(spec, label=label)


def build_tangent_developable(
    curve: CurveSpec,
    v_range: tuple[float, float],
    label: str = "developable",
    check_grid: tuple[int, int] | None = (21, 21),
) -> SurfaceHandle:
    """Tangent developable sigma(s, v) = gamma(s) + v gamma'(s).

    Requires gamma horizontal with unit-speed projection (checked on 65
    samples to 1e-10) so the rule lines are unit-speed horizontal lines and
    the patch is horizontally minimal.  The curve must bend: where gamma''
    vanishes consecutive tangent lines coincide and the patch degenerates,
    so straight curves are rejected, as is any v-range containing 0 (the
    curve itself is the singular edge of the developable).
    """
    v0, v1 = _as_range(v_range, "v_range")
    if v0 <= 0.0 <= v1:
        raise ZeroInRange(
            f"v range [{v0}, {v1}] contains 0, the singular edge of the developable"
        )
    s0, s1 = curve.domain
    s = _samples(s0, s1, 64)
    with np.errstate(all="ignore"):
        (x, x1, x2, _), (y, y1, y2, _), (_, t1, _, _) = curve.jet3(s)
        horiz = np.broadcast_to(t1 + 2.0 * (x * y1 - y * x1), s.shape)
    speed = _hypot(x1, y1, s)
    bad = (abs(horiz) > 1e-10) | (abs(speed - 1.0) > 1e-10)
    if bad.any():
        i = int(np.argmax(bad))
        if abs(horiz[i]) > 1e-10:
            raise NotHorizontal(
                f"curve fails the contact condition at s = {s[i]}: "
                f"omega(gamma') = {horiz[i]:.3e}"
            )
        raise NotUnitSpeed(
            f"projected speed {float(speed[i])!r} at s = {s[i]} is not 1; "
            "reparametrize the curve by horizontal arc length"
        )
    # min over the samples as Python's min takes it, skipping NaN
    if np.fmin.reduce(_hypot(x2, y2, s), initial=math.inf) <= 1e-8:
        raise StraightLine(
            "gamma'' vanishes somewhere; the tangent developable of a "
            "straight segment is not an immersed patch"
        )

    def fields(s, v):
        (x, x1, x2, x3), (y, y1, y2, y3), (t, t1, t2, t3) = curve.jet3(s)
        return (
            (x + v * x1, y + v * y1, t + v * t1),
            (x1 + v * x2, y1 + v * y2, t1 + v * t2),
            (x1, y1, t1),
            (x2 + v * x3, y2 + v * y3, t2 + v * t3),
            (x2, y2, t2),
        )

    return make_surface(fields, Domain(s0, s1, v0, v1), label, check_grid)


def build_cylinder(
    profile: CurveSpec,
    height_range: tuple[float, float],
    label: str = "cylinder",
    check_grid: tuple[int, int] | None = (21, 21),
) -> SurfaceHandle:
    """Vertical cylinder sigma(u, v) = (x(u), y(u), v) over a plane profile.

    The profile must have an empty t component and nonvanishing projected
    speed.  The patch is characteristic-free, and its horizontal mean
    curvature equals the signed plane curvature of the profile, oriented so
    a counterclockwise circle of radius R gives +1/R.
    """
    if len(profile.t):
        raise SpecError("cylinder profile must be a plane curve: t terms present")
    h0, h1 = _as_range(height_range, "height_range")
    s0, s1 = profile.domain
    s = _samples(s0, s1, 64)
    with np.errstate(all="ignore"):
        (_, x1, _, _), (_, y1, _, _), _ = profile.jet3(s)
    slow = _hypot(x1, y1, s) <= 1e-8
    if slow.any():
        raise NotRegularProfile(
            f"profile speed vanishes near s = {s[np.argmax(slow)]}; cylinder not immersed"
        )

    def fields(u, v):
        (x, x1, x2, _), (y, y1, y2, _), _ = profile.jet3(u)
        return (x, y, v), (x1, y1, 0.0), (0.0, 0.0, 1.0), (x2, y2, 0.0)

    return make_surface(fields, Domain(s0, s1, h0, h1), label, check_grid)


def build_graph_separable(
    f_of_u: TermSum,
    f_of_v: TermSum,
    domain: Domain,
    label: str = "graph",
) -> SurfaceHandle:
    """Graph of the separable function f(u, v) = f_of_u(u) + f_of_v(v)."""

    def fields(u, v):
        fu0, fu1, fu2, _ = f_of_u.jet(u)
        fv0, fv1, fv2, _ = f_of_v.jet(v)
        return (
            (u, v, fu0 + fv0),
            (1.0, 0.0, fu1),
            (0.0, 1.0, fv1),
            (0.0, 0.0, fu2),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, fv2),
        )

    # Graphs are immersions unconditionally, so no regularity sampling is run.
    return make_surface(fields, domain, label, check_grid=None)


def _poly(*coeff_deg: tuple[float, int]) -> TermSum:
    return TermSum(tuple(Term("poly", c, k) for c, k in coeff_deg))


def _circle_profile(radius: float, arc: tuple[float, float]) -> CurveSpec:
    return CurveSpec(
        TermSum((Term("cos", radius, 1),)),
        TermSum((Term("sin", radius, 1),)),
        TermSum(),
        arc,
    )


def _cone_lower() -> SurfaceHandle:
    def fields(u, v):
        cv, sv = _cos_sin(v)
        return (
            (u * cv, u * sv, u),
            (cv, sv, 1.0),
            (-u * sv, u * cv, 0.0),
            (0.0, 0.0, 0.0),
            (-sv, cv, 0.0),
            (-u * cv, -u * sv, 0.0),
        )

    return make_surface(fields, Domain(-2.0, -0.5, 0.0, 2.0 * math.pi), "cone_lower")


_CYLINDER_RE = re.compile(r"^cylinder\((?P<radius>[^)]+)\)$")

# Instantiable named surfaces; cylinder accepts any radius via cylinder(R).
CATALOG = (
    "paraboloid",
    "cone_lower",
    "vertical_plane_x0",
    "plane_t0",
    "plane_flow_patch",
    "cylinder(1.0)",
    "circle_lift_developable",
)

# The subset with identically vanishing horizontal mean curvature.
H_MINIMAL_CATALOG = (
    "paraboloid",
    "vertical_plane_x0",
    "plane_t0",
    "plane_flow_patch",
    "circle_lift_developable",
)


def catalog_get(name: str) -> SurfaceHandle:
    """Build a named reference surface; see CATALOG for the choices."""
    m = _CYLINDER_RE.match(name)
    if m:
        try:
            radius = float(m.group("radius"))
        except ValueError:
            raise UnknownName(f"bad cylinder radius in {name!r}") from None
        if not (math.isfinite(radius) and radius > 0.0):
            raise UnknownName(f"cylinder radius must be positive, got {name!r}")
        profile = _circle_profile(radius, (0.0, 2.0 * math.pi))
        return build_cylinder(profile, (-1.0, 1.0), label=name)
    if name == "cylinder":
        return catalog_get("cylinder(1.0)")
    if name == "paraboloid":
        # t = y^2 - x^2, the classical minimal graph; characteristic on x + y = 0.
        return build_graph_separable(
            _poly((-1.0, 2)),
            _poly((1.0, 2)),
            Domain(-1.5, 1.5, -1.5, 1.5),
            label=name,
        )
    if name == "vertical_plane_x0":
        return make_surface(
            lambda u, v: ((0.0, u, v), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            Domain(-2.0, 2.0, -2.0, 2.0),
            name,
        )
    if name == "plane_t0":
        return build_graph_separable(
            TermSum(), TermSum(), Domain(-2.0, 2.0, -2.0, 2.0), label=name
        )
    if name == "plane_flow_patch":
        return build_plane_flow_patch(
            AngleField(_poly((1.0, 1))), (0.0, 3.0), (0.2, 2.0), label=name
        )
    if name == "cone_lower":
        return _cone_lower()
    if name == "circle_lift_developable":
        curve = CurveSpec(
            TermSum((Term("cos", 1.0, 1),)),
            TermSum((Term("sin", 1.0, 1),)),
            _poly((-2.0, 1)),
            (0.0, 2.0 * math.pi),
        )
        return build_tangent_developable(curve, (0.1, 1.2), label=name)
    raise UnknownName(
        f"no catalog surface named {name!r}; choices: {', '.join(CATALOG)}"
    )


def random_ruled_spec(rng: Lcg64, index: int = 0) -> RuledSpec:
    """Draw a smooth random ruled spec; rejection keeps only immersed patches.

    Each attempt consumes exactly 14 uniforms, in this order: x constant,
    x slope, x cosine amplitude, x frequency selector; the same four for y
    with a sine term; t slope, t sine amplitude, t frequency selector;
    theta offset in [0, 2 pi), theta slope in [0.4, 1.2], theta sine
    amplitude.  Frequency selectors pick k = 1 below 0.5 and k = 2 above.
    Rejected attempts (non-immersed or fully characteristic patches) simply
    advance the stream, so a fixed seed yields a fixed spec sequence.
    """
    for _ in range(64):
        xc = rng.uniform(-1.5, 1.5)
        xs = rng.uniform(-1.5, 1.5)
        xa = rng.uniform(-1.0, 1.0)
        xk = 1 if rng.uniform(0.0, 1.0) < 0.5 else 2
        yc = rng.uniform(-1.5, 1.5)
        ys = rng.uniform(-1.5, 1.5)
        ya = rng.uniform(-1.0, 1.0)
        yk = 1 if rng.uniform(0.0, 1.0) < 0.5 else 2
        ts = rng.uniform(-1.5, 1.5)
        ta = rng.uniform(-1.0, 1.0)
        tk = 1 if rng.uniform(0.0, 1.0) < 0.5 else 2
        th0 = rng.uniform(0.0, 2.0 * math.pi)
        th1 = rng.uniform(0.4, 1.2)
        tha = rng.uniform(-0.5, 0.5)
        spec = RuledSpec(
            CurveSpec(
                TermSum((Term("poly", xc, 0), Term("poly", xs, 1), Term("cos", xa, xk))),
                TermSum((Term("poly", yc, 0), Term("poly", ys, 1), Term("sin", ya, yk))),
                TermSum((Term("poly", ts, 1), Term("sin", ta, tk))),
                (0.0, 2.0),
            ),
            AngleField(
                TermSum((Term("poly", th0, 0), Term("poly", th1, 1), Term("sin", tha, 1)))
            ),
            (0.25, 1.25),
            name=f"random-ruled-{index}",
        )
        try:
            build_straight_ruled(spec, check_grid=(17, 7))
        except (DegenerateRuling, NotRegular):
            continue
        return spec
    raise RuntimeError("rejection sampling failed to produce an immersed ruled patch")


# ---------------------------------------------------------------------------
# dict / JSON round-trip


def term_to_dict(term: Term) -> dict:
    return {"kind": term.kind, "coeff": term.coeff, "k": term.k}


def term_from_dict(d: dict) -> Term:
    try:
        kind, coeff, k = str(d["kind"]), float(d["coeff"]), d["k"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SpecError(f"bad term entry {d!r}: {e}") from e
    # JSON reads 1e400 as inf; bool is an int subclass; int() would truncate.
    # Past 2**53 JSON numbers are not exact integers, and k**3 overflows.
    if isinstance(k, bool) or not (
        isinstance(k, int) or (isinstance(k, float) and k.is_integer())
    ) or abs(k) > 2**53:
        raise SpecError(
            f"bad term entry {d!r}: k must be an integer of magnitude at most "
            f"2**53, got {k!r}"
        )
    return Term(kind, coeff, int(k))


def terms_to_list(ts: TermSum) -> list:
    return [term_to_dict(t) for t in ts]


def terms_from_list(entries) -> TermSum:
    if not isinstance(entries, list):
        raise SpecError(f"expected a list of terms, got {type(entries).__name__}")
    return TermSum(tuple(term_from_dict(d) for d in entries))


def curve_to_dict(curve: CurveSpec) -> dict:
    return {
        "x": terms_to_list(curve.x),
        "y": terms_to_list(curve.y),
        "t": terms_to_list(curve.t),
        "domain": list(curve.domain),
    }


def curve_from_dict(d: dict, require_plane: bool = False) -> CurveSpec:
    if not isinstance(d, dict):
        raise SpecError(f"curve entry must be an object, got {type(d).__name__}")
    try:
        t_entries = d.get("t", [])
        if require_plane and t_entries:
            raise SpecError("profile curve must not carry t terms")
        return CurveSpec(
            terms_from_list(d["x"]),
            terms_from_list(d["y"]),
            terms_from_list(t_entries),
            d["domain"],
        )
    except KeyError as e:
        raise SpecError(f"curve entry missing key {e}") from e


def spec_to_dict(spec: RuledSpec) -> dict:
    out = {
        "type": "ruled",
        "curve": curve_to_dict(spec.curve),
        "theta": terms_to_list(spec.angle.theta),
        "v_range": list(spec.v_range),
    }
    if spec.name:
        out["name"] = spec.name
    return out


def surface_from_dict(d: dict) -> SurfaceHandle:
    """Dispatch a parsed surface description to the matching builder."""
    if not isinstance(d, dict):
        raise SpecError(f"surface description must be an object, got {type(d).__name__}")
    kind = d.get("type")
    name = str(d.get("name", "")) or None
    try:
        if kind == "ruled":
            spec = RuledSpec(
                curve_from_dict(d["curve"]),
                AngleField(terms_from_list(d["theta"])),
                d["v_range"],
                name=name or "",
            )
            return build_straight_ruled(spec)
        if kind == "developable":
            return build_tangent_developable(
                curve_from_dict(d["curve"]),
                d["v_range"],
                label=name or "developable",
            )
        if kind == "cylinder":
            return build_cylinder(
                curve_from_dict(d["profile"], require_plane=True),
                d["height"],
                label=name or "cylinder",
            )
        if kind == "graph":
            dom = d["domain"]
            if not (isinstance(dom, dict) and "u" in dom and "v" in dom):
                raise SpecError(
                    f"graph domain must be an object with u and v pairs, got {dom!r}"
                )
            domain = Domain(
                *_as_range(dom["u"], "graph domain u"),
                *_as_range(dom["v"], "graph domain v"),
            )
            return build_graph_separable(
                terms_from_list(d.get("fu", [])),
                terms_from_list(d.get("fv", [])),
                domain,
                label=name or "graph",
            )
        if kind == "catalog":
            return catalog_get(str(d["name"]))
    except KeyError as e:
        raise SpecError(f"surface of type {kind!r} missing key {e}") from e
    raise SpecError(
        f"unknown surface type {kind!r}; expected ruled, developable, "
        "cylinder, graph or catalog"
    )


def load_surface_file(path: str) -> SurfaceHandle:
    """Read a JSON surface description from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return surface_from_dict(data)


def resolve_surface(arg: str) -> SurfaceHandle:
    """Interpret a CLI argument as a file path or a catalog name."""
    if os.path.exists(arg):
        return load_surface_file(arg)
    try:
        return catalog_get(arg)
    except UnknownName:
        raise UnknownName(
            f"{arg!r} is neither a readable file nor a catalog name; "
            f"catalog: {', '.join(CATALOG)}"
        ) from None
