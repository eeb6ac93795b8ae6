"""Surface constructors: ruled patches, developables, cylinders, graphs.

A small closed-form term language (polynomials up to degree 6 plus integer-
frequency sine/cosine) describes curves and ruling-angle fields.  Everything
built from it carries exact 2-jets, so curvature evaluations downstream are
free of finite-difference error, and gives the first-order jet alone where
nothing more is read.  The JSON file format of the command line
tools is read from plain dicts into the same term data; nothing writes it.

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
formula, which the flow field runs on floats and
:func:`heisflow.patch.eval_jets` on arrays.  Both calls run the same
floating-point operations in the same order and agree bit for bit: cosine
and sine are math's for a float and numpy's for an array, and ``**`` is
Python's, entry by entry, except for the exponent 1.  The term sums a
formula reads are one group.  One generator, :func:`_code`, writes one
straight-line function per group of term shapes (kinds and polynomial
degrees) and number of entries: the jet of a term sum, or the field formula
itself, which runs the builder's text for the value and partials after the
group's jet text.  That text runs on arrays as it is, and on floats under
``try``: a float call that raises (an overflowing ``**`` or trig past the
float range) runs again as a batch of one.  The flow's generated stages
put the float text of the first order inline.  Coefficients and
frequencies are bound as values, so no file content reaches the text.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import types
from dataclasses import dataclass, field
from textwrap import indent

import numpy as np

from .errors import (
    CharacteristicPoint,
    ConstantRulingDirection,
    DegenerateRuling,
    NotRegular,
    SpecError,
    UnknownName,
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
    "random_ruled_patch",
    "term_from_dict",
    "terms_from_list",
    "curve_from_dict",
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
    # The values its jet binds: the multipliers c k!/(k-i)! of a polynomial's
    # entries that are not identically zero, otherwise k and the four
    # signed c k^i.
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
                plan.append(c * fac)
                fac *= p
        elif self.kind == "cos":
            plan = (k, c, -c * k, -c * k * k, c * k**3)
        else:
            plan = (k, c, c * k, -c * k * k, -c * k**3)
        object.__setattr__(self, "_plan", tuple(plan))


def _array_pow(s: np.ndarray, p: int) -> np.ndarray:
    """Float ``**`` on an array, +-inf where it raises: np.float_power calls
    libm pow per entry, as ``**`` does (np.power rounds differently); s**1 is s."""
    if p == 1:
        return s
    with np.errstate(over="ignore"):
        return np.float_power(s, float(p))


def _floats(entries) -> tuple:
    """A batch of one's entries, tuples of them included, as Python floats."""
    return tuple(_floats(e) if isinstance(e, tuple) else float(np.ravel(e)[0]) for e in entries)


# The names a generated body reads.  Its jet text calls {pow}, {cos} and
# {sin}: on arrays apow, acos and asin, which never raise; on floats pow,
# cos and sin, where an overflowing ** or trig past the float range raises,
# and the call then runs again on a batch of one (array, errstate, floats).
_NAMES = {"ndarray": np.ndarray, "apow": _array_pow, "acos": np.cos, "asin": np.sin,
          "pow": pow, "cos": math.cos, "sin": math.sin,
          "array": np.array, "errstate": np.errstate, "floats": _floats}


def _defined(text: str, **names):
    """The function that ``text`` defines, with ``names`` as its globals."""
    namespace = dict(names)
    exec(compile(text, "<generated>", "exec"), namespace)
    return namespace.popitem()[1]  # bound last, after __builtins__


@functools.lru_cache(maxsize=None)
def _jet_text(shapes: tuple, n: int, args: tuple, direction: bool = False) -> tuple:
    """The plan parameters, body lines and returned entries of the jet of
    :func:`_code`, with ``{pow}``, ``{cos}`` and ``{sin}`` left to fill."""
    params, lines, out = [], [], []
    for g, (shape, s) in enumerate(zip(shapes, args)):
        sums = [[] for _ in range(n)]
        for i, (kind, k) in enumerate(shape):
            m = [f"m{g}_{i}_{j}" for j in range(n)]
            if kind == "poly":
                for j, p in enumerate(range(k, max(k - n, -1), -1)):
                    params.append(m[j])
                    sums[j].append(m[j] if p == 0 else f"{m[j]} * {s}" if p == 1
                                   else f"{m[j]} * {{pow}}({s}, {p})")
                continue
            params += [f"k{g}_{i}", *m]
            calls = {f"c{g}_{i}": "{cos}", f"n{g}_{i}": "{sin}"}
            pair = list(calls) if kind == "cos" else list(calls)[::-1]
            lines.append(f"w{g}_{i} = k{g}_{i} * {s}")
            lines += [f"{name} = {calls[name]}(w{g}_{i})" for name in pair[:n]]
            for j in range(n):
                sums[j].append(f"{m[j]} * {pair[j % 2]}")
        entries = [" + ".join(["0.0", *terms]) for terms in sums]
        if direction and g == len(shapes) - 1:
            th = [f"e{g}_{j}" for j in range(n)]
            lines += [f"{e} = {entry}" for e, entry in zip(th, entries)]
            lines += [f"a = {{cos}}({th[0]})", f"b = {{sin}}({th[0]})"]
            entries = ["a", "b"]
            if n > 1:
                entries += [f"-b * {th[1]}", f"a * {th[1]}"]
            if n > 2:
                entries += [f"-a * {th[1]} * {th[1]} - b * {th[2]}",
                            f"-b * {th[1]} * {th[1]} + a * {th[2]}"]
        out += entries
    return tuple(params), tuple(lines), tuple(out)


def _outs(names: tuple, n: int, direction: bool) -> list:
    """The names of a group jet's n entries of each sum: x, x1, ... for a
    sum named x, and a, b, a1, b1, ... for a direction."""
    outs = [f"{name}{j or ''}" for name in names for j in range(n)]
    return outs + ([f"{c}{j or ''}" for j in range(n) for c in "ab"] if direction else [])


@functools.lru_cache(maxsize=None)
def _code(shapes: tuple, n: int, args: tuple, direction: bool, names: tuple, first: str,
          second: str) -> tuple:
    """The code and closure of the straight-line function of a group of term
    sums, its plan parameters, and the text of its first order on floats.

    A sum's shape is a (kind, polynomial degree or 0) pair per term, and
    ``args`` names the variable each sum reads.  The function sets the
    first n entries of each sum, the sums in order, to the names of
    :func:`_outs` (:func:`_jet_text`; with ``direction`` the last sum is an
    angle theta, whose entries give way to those of (a, b) = (cos theta,
    sin theta)).  Without ``first`` it is ``jet(*variables, *plans)`` and
    returns them.  With it, it is the field formula ``fields(u, v, order=2,
    *plans)``: it sets n + order - 1 entries, runs ``first``, which sets
    the value and first partials X, Y, T, Xu, ..., Tv, and returns them,
    with the second partials ``second`` at order 2.  The jet text calls the
    array names of :data:`_NAMES` on arrays and the float names on floats,
    under ``try``: where a float call raises, the function calls itself on
    its variables as a batch of one, and its plans, under
    ``np.errstate(all="ignore")`` and returns that call's entries as Python
    floats.

    Each entry sums its terms as ``0.0 + g0 + g1 + ...``.  A polynomial's
    entry is m, ``m * s`` or ``m * pow(s, p)``; a trigonometric term takes
    cos and sin of ``k * s`` once, each only if an entry reads it.  An entry
    that is identically 0.0 is not added: the sum starts at +0.0, so it is
    never -0.0, and x + 0.0 is x.  The text holds only kinds, degrees,
    indices and variable names, so no coefficient, frequency or file
    content reaches ``compile``; the plans are bound as defaults."""
    value = "(X, Y, T), (Xu, Yu, Tu), (Xv, Yv, Tv)"
    tails = ([f"{first}\nreturn {value}", f"{first}\nreturn {value}, {second}"] if first
             else [f"return {', '.join(_outs(names, n, direction))},"])
    func, variables = ("fields", ("u", "v")) if first else ("jet", tuple(dict.fromkeys(args)))
    params = _jet_text(shapes, n + bool(first), args, direction)[0]
    order = ("order",) if first else ()
    call = f"{func}({', '.join((*(f'array([{x}])' for x in variables), *order, *params))})"
    bodies, slots = [], []
    for m, tail in zip((n, n + 1), tails):
        _, lines, out = _jet_text(shapes, m, args, direction)
        text = "\n".join((*lines, *(f"{name} = {entry}" for name, entry
                                    in zip(_outs(names, m, direction), out) if name != entry)))
        slots.append(text.format(pow="pow", cos="cos", sin="sin"))
        bodies.append(f"if isinstance({args[0]}, ndarray):\n"
                      f"{indent(text.format(pow='apow', cos='acos', sin='asin'), '    ')}\nelse:\n"
                      f"    try:\n{indent(slots[-1], '        ')}\n"
                      f"    except (OverflowError, ValueError):\n"
                      f"        with errstate(all=\"ignore\"):\n"
                      f"            return floats({call})\n{tail}")
    body = f"if order == 1:\n{indent(bodies[0], '    ')}\n{bodies[1]}" if first else bodies[0]
    text = f"def {func}({', '.join((*variables, *order, *params))}):\n{indent(body, '    ')}\n"
    # Defined inside outer, its name is a closure cell, which holds it with no
    # plans bound; the batch of one passes the plans, so that no bound
    # function refers to itself and each is freed without the cyclic GC.
    shared = _defined(f"def outer():\n{indent(text, '    ')}    return {func}\n", **_NAMES)()
    return shared.__code__, shared.__closure__, params, f"{slots[0]}\n{first}"


def _group(sums, n: int, args: tuple, direction: bool, names: tuple, first: str = "",
           second: str = ""):
    """The function of :func:`_code` for the term sums ``sums``, with their
    plans bound as the defaults after its variables (and ``order=2``).  A
    field formula's ``stage`` holds the text of its first order on floats,
    its plan parameters and its plans, which the flow's stages put inline."""
    code, closure, params, slot = _code(tuple(ts._shape for ts in sums), n, args, direction, names,
                               first, second)
    # what the last order reads: a polynomial's first multipliers, or k and
    # the first of the four signed c k^i of a trigonometric term
    n += bool(first)
    plans = tuple(value for ts in sums for t in ts.terms
                  for value in t._plan[: n if t.kind == "poly" else n + 1])
    fields = types.FunctionType(code, _NAMES, None, (2, *plans) if first else plans, closure)
    if first:
        fields.stage = slot, params, plans
    return fields


@dataclass(frozen=True)
class TermSum:
    """A finite sum of terms of one variable; the empty sum is zero."""

    terms: tuple[Term, ...] = ()
    # Its one-sum group jets by number of entries and direction, each bound
    # on first use.
    _jets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "_jets", {})

    @property
    def _shape(self) -> tuple:
        """The (kind, polynomial degree or 0) pair of each term."""
        return tuple((t.kind, t.k if t.kind == "poly" else 0) for t in self.terms)

    def _jet(self, n: int, direction: bool = False):
        jet = self._jets.get((n, direction))
        if jet is None:
            jet = self._jets[n, direction] = _group((self,), n, ("s",), direction,
                                                    () if direction else ("f",))
        return jet

    def jet(self, s, n: int = 4):
        """The first n of (f, f', f'', f''') at s, a float or a float array."""
        return self._jet(n)(s)

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

    def jet3(self, s, n: int = 4):
        """The first n of ((x..x'''), (y..y'''), (t..t''')), as three n-tuples."""
        return self.x.jet(s, n), self.y.jet(s, n), self.t.jet(s, n)


@dataclass(frozen=True)
class AngleField:
    """Ruling angle theta(s); exposes the direction (a, b) with 2-jets."""

    theta: TermSum

    def direction_jet(self, s, order: int = 2):
        """(a, b, a', b', a'', b'') for a = cos theta, b = sin theta, or its
        first four entries at order 1, or (a, b) at order 0."""
        return self.theta._jet(order + 1, direction=True)(s)


@dataclass(frozen=True)
class RuledSpec:
    """Base curve, angle field and rule-parameter range of a ruled patch."""

    curve: CurveSpec
    angle: AngleField
    v_range: tuple[float, float]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "v_range", _as_range(self.v_range, "v_range"))


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
    (x, x1), (y, y1), (t, t1) = spec.curve.jet3(s, 2)
    _, th1 = spec.angle.theta.jet(s, 2)
    a, b = spec.angle.direction_jet(s, 0)
    c0 = t1 + 2.0 * (x * y1 - y * x1)
    c1 = 4.0 * (a * y1 - b * x1)
    c2 = 2.0 * th1
    return c0, c1, c2


def ruling_form_coeff(spec: RuledSpec, s, v) -> float:
    """The coefficient c(s, v) with sigma^* omega = c ds."""
    c0, c1, c2 = ruling_form_coefficients(spec, s)
    return c0 + v * (c1 + v * c2)


def build_straight_ruled(spec: RuledSpec) -> SurfaceHandle:
    """Assemble the ruled patch of ``spec`` with exact jets.

    Raises DegenerateRuling when c(s, v) vanishes identically on samples,
    i.e. the whole patch is characteristic (this happens exactly when the
    base curve is a horizontal line ruled along itself, so no surface-like
    patch exists); NotRegular when the sampled immersion check fails.
    """
    s0, s1 = spec.curve.domain
    v0, v1 = spec.v_range
    domain = Domain(s0, s1, v0, v1)
    v = _samples(v0, v1, 8)
    with np.errstate(all="ignore"):
        c0, c1, c2 = ruling_form_coefficients(spec, _samples(s0, s1, 32)[:, None])
        cscale = abs(c0) + abs(c1) + abs(c2)
        cmax = _fold_max(abs(c0 + v * (c1 + v * c2)))
    # a non-finite coefficient skips the test and fails make_surface's finite check
    if np.isfinite(cscale).all() and cmax <= 1e-12 * (1.0 + _fold_max(cscale)):
        raise DegenerateRuling(
            "induced-form coefficient vanishes identically; "
            "the ruled patch is characteristic everywhere"
        )
    curve = spec.curve
    fields = _group((curve.x, curve.y, curve.t, spec.angle.theta), 2, ("u",) * 4, True,
                    ("x", "y", "t"), """\
g = y * a - x * b
g1 = y1 * a + y * a1 - x1 * b - x * b1
X, Y, T = x + v * a, y + v * b, t + 2.0 * v * g
Xu, Yu, Tu = x1 + v * a1, y1 + v * b1, t1 + 2.0 * v * g1
Xv, Yv, Tv = a, b, 2.0 * g""", "(x2 + v * a2, y2 + v * b2, t2 + 2.0 * v * (y2 * a + 2.0 * y1 * a1"
                    " + y * a2 - x2 * b - 2.0 * x1 * b1 - x * b2)), (a1, b1, 2.0 * g1)")
    return make_surface(fields, domain, spec.name or "ruled")


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
        th1max = _fold_max(abs(spec.angle.theta.jet(_samples(s0, s1, 32), 2)[1]))
    if th1max < 1e-12:
        raise ConstantRulingDirection(
            "theta' vanishes identically; no plane normal form with this factor"
        )
    c = ruling_form_coeff(spec, s, v)
    _, th1 = spec.angle.theta.jet(s, 2)
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
    return build_straight_ruled(spec)


def build_tangent_developable(
    curve: CurveSpec,
    v_range: tuple[float, float],
    label: str = "developable",
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
        raise SpecError(
            f"v range [{v0}, {v1}] contains 0, the singular edge of the developable"
        )
    s0, s1 = curve.domain
    domain = Domain(s0, s1, v0, v1)
    s = _samples(s0, s1, 64)
    with np.errstate(all="ignore"):
        (x, x1, x2), (y, y1, y2), (_, t1, _) = curve.jet3(s, 3)
        horiz = np.broadcast_to(t1 + 2.0 * (x * y1 - y * x1), s.shape)
    speed = _hypot(x1, y1, s)
    bad = (abs(horiz) > 1e-10) | (abs(speed - 1.0) > 1e-10)
    if bad.any():
        i = int(np.argmax(bad))
        if abs(horiz[i]) > 1e-10:
            raise SpecError(
                f"curve fails the contact condition at s = {s[i]}: "
                f"omega(gamma') = {horiz[i]:.3e}"
            )
        raise SpecError(
            f"projected speed {float(speed[i])!r} at s = {s[i]} is not 1; "
            "reparametrize the curve by horizontal arc length"
        )
    # min over the samples as Python's min takes it, skipping NaN
    if np.fmin.reduce(_hypot(x2, y2, s), initial=math.inf) <= 1e-8:
        raise SpecError(
            "gamma'' vanishes somewhere; the tangent developable of a "
            "straight segment is not an immersed patch"
        )

    fields = _group((curve.x, curve.y, curve.t), 3, ("u",) * 3, False, ("x", "y", "t"), """\
X, Y, T = x + v * x1, y + v * y1, t + v * t1
Xu, Yu, Tu = x1 + v * x2, y1 + v * y2, t1 + v * t2
Xv, Yv, Tv = x1, y1, t1""", "(x2 + v * x3, y2 + v * y3, t2 + v * t3), (x2, y2, t2)")
    return make_surface(fields, domain, label)


def build_cylinder(
    profile: CurveSpec,
    height_range: tuple[float, float],
    label: str = "cylinder",
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
    domain = Domain(s0, s1, h0, h1)
    s = _samples(s0, s1, 64)
    with np.errstate(all="ignore"):
        (_, x1), (_, y1), _ = profile.jet3(s, 2)
    slow = _hypot(x1, y1, s) <= 1e-8
    if slow.any():
        raise SpecError(
            f"profile speed vanishes near s = {s[np.argmax(slow)]}; cylinder not immersed"
        )

    fields = _group((profile.x, profile.y), 2, ("u", "u"), False, ("x", "y"), """\
X, Y, T = x, y, v
Xu, Yu, Tu = x1, y1, 0.0
Xv, Yv, Tv = 0.0, 0.0, 1.0""", "(x2, y2, 0.0)")
    return make_surface(fields, domain, label)


def build_graph_separable(
    f_of_u: TermSum,
    f_of_v: TermSum,
    domain: Domain,
    label: str = "graph",
) -> SurfaceHandle:
    """Graph of the separable function f(u, v) = f_of_u(u) + f_of_v(v)."""
    fields = _group((f_of_u, f_of_v), 2, ("u", "v"), False, ("fu", "fv"), """\
X, Y, T = u, v, fu + fv
Xu, Yu, Tu = 1.0, 0.0, fu1
Xv, Yv, Tv = 0.0, 1.0, fv1""", "(0.0, 0.0, fu2), (0.0, 0.0, 0.0), (0.0, 0.0, fv2)")
    # Graphs are immersions unconditionally, so no regularity sampling is run.
    return SurfaceHandle(domain, fields, label)


def _terms(*terms: tuple) -> TermSum:
    """The sum of the terms given as (kind, coeff, k) triples."""
    return TermSum(tuple(Term(*t) for t in terms))


_CYLINDER_RE = re.compile(r"^cylinder\((?P<radius>[^)]+)\)$")

# The horizontal lift of the unit circle, (cos s, sin s, -2s) on [0, 2 pi].
_CIRCLE_LIFT = CurveSpec(_terms(("cos", 1.0, 1)), _terms(("sin", 1.0, 1)),
                         _terms(("poly", -2.0, 1)), (0.0, 2.0 * math.pi))


def _cylinder(name: str) -> SurfaceHandle:
    """The catalog surface cylinder(R): the vertical cylinder over the circle
    of radius R > 0."""
    try:
        radius = float(_CYLINDER_RE.match(name)["radius"])
    except ValueError:
        raise UnknownName(f"bad cylinder radius in {name!r}") from None
    if not (math.isfinite(radius) and radius > 0.0):
        raise UnknownName(f"cylinder radius must be positive, got {name!r}")
    profile = CurveSpec(_terms(("cos", radius, 1)), _terms(("sin", radius, 1)), TermSum(),
                        (0.0, 2.0 * math.pi))
    return build_cylinder(profile, (-1.0, 1.0), label=name)


def _cone_lower(name: str) -> SurfaceHandle:
    """The cone (u cos v, u sin v, u), the control with H != 0: one group over
    the sum sin v, whose entries 0 and 1 are sin v and cos v."""
    fields = _group((_terms(("sin", 1.0, 1)),), 2, ("v",), False, ("s",), """\
X, Y, T = u * s1, u * s, u
Xu, Yu, Tu = s1, s, 1.0
Xv, Yv, Tv = -u * s, u * s1, 0.0""", "(0.0, 0.0, 0.0), (-s, s1, 0.0), (-u * s1, -u * s, 0.0)")
    return make_surface(fields, Domain(-2.0, -0.5, 0.0, 2.0 * math.pi), name)


# Each named surface, whether it is horizontally minimal, and its build from
# its name; cylinder(R) builds a cylinder of any radius R > 0.
_CATALOG = {
    # t = y^2 - x^2, the classical minimal graph; characteristic on x + y = 0.
    "paraboloid": (True, lambda name: build_graph_separable(
        _terms(("poly", -1.0, 2)), _terms(("poly", 1.0, 2)), Domain(-1.5, 1.5, -1.5, 1.5),
        label=name)),
    "cone_lower": (False, _cone_lower),
    # the plane x = 0, a cylinder over the line y = s
    "vertical_plane_x0": (True, lambda name: build_cylinder(
        CurveSpec(TermSum(), _terms(("poly", 1.0, 1)), TermSum(), (-2.0, 2.0)), (-2.0, 2.0),
        label=name)),
    "plane_t0": (True, lambda name: build_graph_separable(
        TermSum(), TermSum(), Domain(-2.0, 2.0, -2.0, 2.0), label=name)),
    "plane_flow_patch": (True, lambda name: build_plane_flow_patch(
        AngleField(_terms(("poly", 1.0, 1))), (0.0, 3.0), (0.2, 2.0), label=name)),
    "cylinder(1.0)": (False, _cylinder),
    "circle_lift_developable": (True, lambda name: build_tangent_developable(
        _CIRCLE_LIFT, (0.1, 1.2), label=name)),
}

# Instantiable named surfaces, and the subset with identically vanishing
# horizontal mean curvature.
CATALOG = tuple(_CATALOG)
H_MINIMAL_CATALOG = tuple(name for name, (minimal, _) in _CATALOG.items() if minimal)


def catalog_get(name: str) -> SurfaceHandle:
    """Build a named reference surface: a name of CATALOG, cylinder(R) for
    any radius R > 0, or cylinder, which is cylinder(1.0)."""
    if name == "cylinder":
        name = "cylinder(1.0)"
    if name in _CATALOG:
        return _CATALOG[name][1](name)
    if _CYLINDER_RE.match(name):
        return _cylinder(name)
    raise UnknownName(
        f"no catalog surface named {name!r}; choices: {', '.join(CATALOG)}"
    )


def random_ruled_patch(rng: Lcg64, index: int = 0) -> tuple[RuledSpec, SurfaceHandle]:
    """Draw a smooth random ruled patch and its spec; rejection keeps only
    immersed patches.

    Each attempt consumes exactly 14 uniforms, in this order: x constant,
    x slope, x cosine amplitude, x frequency selector; the same four for y
    with a sine term; t slope, t sine amplitude, t frequency selector;
    theta offset in [0, 2 pi), theta slope in [0.4, 1.2], theta sine
    amplitude.  Frequency selectors pick k = 1 below 0.5 and k = 2 above.
    Rejected attempts (non-immersed or fully characteristic patches) simply
    advance the stream, so a fixed seed yields a fixed patch sequence.
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
            return spec, build_straight_ruled(spec)
        except (DegenerateRuling, NotRegular):
            continue
    raise RuntimeError("rejection sampling failed to produce an immersed ruled patch")


# ---------------------------------------------------------------------------
# the dict / JSON file format


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


def terms_from_list(entries) -> TermSum:
    if not isinstance(entries, list):
        raise SpecError(f"expected a list of terms, got {type(entries).__name__}")
    return TermSum(tuple(term_from_dict(d) for d in entries))


def curve_from_dict(d: dict) -> CurveSpec:
    if not isinstance(d, dict):
        raise SpecError(f"curve entry must be an object, got {type(d).__name__}")
    try:
        return CurveSpec(
            terms_from_list(d["x"]),
            terms_from_list(d["y"]),
            terms_from_list(d.get("t", [])),
            d["domain"],
        )
    except KeyError as e:
        raise SpecError(f"curve entry missing key {e}") from e


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
                curve_from_dict(d["profile"]),
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
    except RecursionError:  # the decoder recurses once per nested array or object
        raise SpecError(f"{path}: JSON nested too deeply to parse") from None
    return surface_from_dict(data)


def resolve_surface(arg: str) -> SurfaceHandle:
    """Interpret a CLI argument as a file path or a catalog name."""
    if os.path.exists(arg):
        return load_surface_file(arg)
    try:
        return catalog_get(arg)
    except UnknownName:
        if _CYLINDER_RE.match(arg):  # keep the message about its radius
            raise
        raise UnknownName(
            f"{arg!r} is neither a readable file nor a catalog name; "
            f"catalog: {', '.join(CATALOG)}"
        ) from None
