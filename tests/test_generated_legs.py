"""Generated flow legs against the reference stepper ``scalar_flow.leg``.

``flow._leg_of`` gives each surface one generated leg: a builder's field
formula puts its order-1 text inline in the four RK4 stages, and every other
handle takes the generic slot, its formula at order 1.  The reference
steps the flow field of the same surface through the generic slot
(``conftest.generic_slot``), so it runs the builder's formula rather than
the text inlined in the leg.  On random ruled,
graph and cylinder files, on a fixed ruled file and four random ruled
patches, on developables, on every catalog surface, on an affine
reparametrisation and on a surface literal, each leg must give the
reference's accepted points bit for bit, its stop reason, and the type and
message of anything it raises.  A NaN's sign is outside the contract, so
points compare with it cleared.  The stage's ruling memo is checked by the
trig calls of ruled and cylinder legs, by legs seeded at u = -0.0 and 0.0,
and on stage texts directly.
"""

import collections
import math
from textwrap import indent

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import generic_slot, term_list, unsigned_nan_bits
from scalar_flow import leg as reference_leg
from heisflow import flow
from heisflow.builders import CATALOG, catalog_get, random_ruled_patch, surface_from_dict
from heisflow.errors import SpecError
from heisflow.patch import Domain, SurfaceHandle, reparametrize_affine
from heisflow.rng import Lcg64

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
fractions = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.99, 1.0]))
steps = st.sampled_from([1e-3, 3e-2, 0.2, 1e290])

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
DEVELOPABLE_FILE = {
    "type": "developable",
    "curve": {"x": term_list(("cos", 0.5, 2), ("poly", 0.3, 0)),
              "y": term_list(("sin", 0.5, 2)), "t": term_list(("sin", -0.3, 2), ("poly", -1.0, 1)),
              "domain": [0.0, 3.0]},
    "v_range": [-1.5, -0.2],
}
# a ruled file whose x, y, t and theta each have poly, cos and sin terms
RULED_ALL_KINDS = {
    "type": "ruled", "v_range": [0.25, 1.25],
    "theta": term_list(("poly", 0.5, 0), ("poly", 0.8, 1), ("cos", 0.2, 2), ("sin", -0.3, 1)),
    "curve": {"domain": [0.0, 2.0],
              "x": term_list(("poly", 0.3, 0), ("poly", -0.7, 1), ("cos", 0.4, 2), ("sin", 0.1, 3)),
              "y": term_list(("poly", 0.9, 1), ("poly", 0.25, 2), ("sin", -0.6, 1), ("cos", 0.2, 1)),
              "t": term_list(("poly", 0.5, 1), ("poly", -0.1, 3), ("sin", 0.3, 2), ("cos", 0.15, 1))},
}
# the seed's jet is finite, and cos of a stage past it leaves the float range
COS_PAST_THE_SEED = {
    "type": "graph", "domain": {"u": [0, 1e293], "v": [0, 1]},
    "fu": term_list(("cos", 1e-20, 2**53)),
}


def outcome(run):
    """The accepted points, with NaN signs cleared, and the stop reason of a
    leg, or the type and message of what it raises."""
    try:
        pts, reason = run()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return unsigned_nan_bits(np.array(pts, float).reshape(-1, 2)).tolist(), reason


def assert_legs_match(surface, fu, fv, ds, max_steps):
    """Both legs from the point at fractions (fu, fv) of the domain, forward
    and backward, through the generated leg and the reference; False where
    the seed's field raises or stops, so that no leg starts."""
    dom = surface.domain
    u = min(dom.u_min + fu * dom.u_span, dom.u_max)
    v = min(dom.v_min + fv * dom.v_span, dom.v_max)
    return assert_legs_match_at(surface, u, v, ds, max_steps)


def assert_legs_match_at(surface, u, v, ds, max_steps):
    """:func:`assert_legs_match` from the seed (u, v).  The seed's field
    from the surface's own slot is the reference's too."""
    field = flow._field_of(generic_slot(surface))
    # (du, dv, x, y) as two pairs of points
    own = outcome(lambda: (flow._field_of(surface)(u, v), ""))
    assert own == outcome(lambda: (field(u, v), ""))
    try:
        f = field(u, v)
    except (flow._LegStop, ValueError):
        return False
    generated = flow._leg_of(surface)
    for h in (ds, -ds):
        want = outcome(lambda: reference_leg(field, u, v, h, f, max_steps))
        assert outcome(lambda: generated(u, v, h, f, max_steps)) == want, (u, v, h)
    return True


def built(spec):
    try:
        return surface_from_dict(spec)
    except (SpecError, ValueError):
        assume(False)


LEGS = settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])


@LEGS
@given(spec=st.one_of(RULED, GRAPH, CYLINDER), fu=fractions, fv=fractions, ds=steps,
       max_steps=st.integers(1, 40))
@example(spec=COS_PAST_THE_SEED, fu=1.98e292 / 1e293, fv=0.5, ds=1e290, max_steps=1000)
@example(spec=RULED_ALL_KINDS, fu=0.8, fv=0.55, ds=3e-2, max_steps=40)
@example(spec={"type": "graph", "domain": {"u": [0, 1e60], "v": [0, 1]},
               "fu": term_list(("poly", 1.0, 6))}, fu=1e-11, fv=0.5, ds=3e48, max_steps=40)
def test_generated_legs_match_the_reference_on_files(spec, fu, fv, ds, max_steps):
    assert_legs_match(built(spec), fu, fv, ds, max_steps)


def test_guard_past_the_seed_is_reached_inside_a_leg():
    # the example above: the generated leg raises the reference's error
    surface = surface_from_dict(COS_PAST_THE_SEED)
    field = flow._field_of(generic_slot(surface))
    f = field(1.98e292, 0.5)
    got = outcome(lambda: flow._leg_of(surface)(1.98e292, 0.5, 1e290, f, 1000))
    assert got == outcome(lambda: reference_leg(field, 1.98e292, 0.5, 1e290, f, 1000))
    assert got[0] is ValueError and got[1].startswith("non-finite jet component in value: ")


def literal():
    """The plane t = 0 scaled by 1e160 past u = 0.9, from a formula that
    returns all six field triples: the generic slot, and a field that is
    not finite there."""

    def fields(u, v, order=2):
        a = 1e160 if u > 0.9 else 1.0
        return (a * u, a * v, 0.0), (a, 0.0, 0.0), (0.0, a, 0.0), *((0.0, 0.0, 0.0),) * 3

    return SurfaceHandle(Domain(-1.0, 1.0, -1.0, 1.0), fields, "literal")


HANDLES = {
    **{name: (lambda name=name: catalog_get(name)) for name in CATALOG},
    "developable-file": lambda: surface_from_dict(DEVELOPABLE_FILE),
    "reparametrized-cone": lambda: reparametrize_affine(
        catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)), (-1.25, 3.0),
        Domain(-0.25, 0.25, -0.9, 0.9),
    ),
    "literal": literal,
}


def random_ruled(i):
    """Patch i of the seed-3 stream of random_ruled_patch."""
    rng = Lcg64(3)
    for k in range(i + 1):
        _, surface = random_ruled_patch(rng, k)
    return surface


RULED_HANDLES = {"ruled-all-kinds": lambda: surface_from_dict(RULED_ALL_KINDS),
                 **{f"random-ruled-{i}": (lambda i=i: random_ruled(i)) for i in range(4)}}


@pytest.mark.parametrize("fu, fv", [(0.8, 0.55), (0.3, 0.2), (0.5, 0.9)])
@pytest.mark.parametrize("name", sorted(RULED_HANDLES))
def test_generated_legs_match_the_reference_on_ruled_patches(name, fu, fv):
    # the random files above seldom build a ruled patch, so every run steps
    # these: legs of 10 to 89 points, each way, along the rulings
    assert assert_legs_match(RULED_HANDLES[name](), fu, fv, 1e-2, 300)


@LEGS
@given(name=st.sampled_from(sorted(HANDLES)), fu=fractions, fv=fractions,
       ds=st.sampled_from([1e-3, 3e-2, 0.2]), max_steps=st.integers(1, 300))
@example(name="literal", fu=0.4, fv=0.6, ds=0.2, max_steps=20)
def test_generated_legs_match_the_reference_on_handles(name, fu, fv, ds, max_steps):
    assert_legs_match(HANDLES[name](), fu, fv, ds, max_steps)


def test_handles_take_the_slot_of_their_formula():
    # builders' formulas, the whole catalog among them, carry their order-1
    # text; a reparametrized handle and a literal take the generic slot, so
    # the legs above run both
    inline = {name for name, build in HANDLES.items() if hasattr(build().fields, "stage")}
    assert inline == {*CATALOG, "developable-file"}
    assert set(HANDLES) - inline == {"reparametrized-cone", "literal"}


# The ruling memo: a stage runs the lines of its builder's text that are of
# u alone only when u changes, and a leaf of a ruled patch keeps u.
RULED_ACROSS_ZERO = {**RULED_ALL_KINDS, "curve": {**RULED_ALL_KINDS["curve"], "domain": [-1.0, 1.0]}}


def centre(surface):
    dom = surface.domain
    return 0.5 * (dom.u_min + dom.u_max), 0.5 * (dom.v_min + dom.v_max)


def trig_calls(monkeypatch, surface, steps=100):
    """The calls of cos and sin, which the generated fields and legs read
    from flow._NAMES, in one field at the centre of ``surface`` and in a
    step-limit leaf pair of ``steps`` steps from there; and its trace."""
    calls = collections.Counter()
    for name in ("cos", "sin"):
        def call(w, name=name, fn=flow._NAMES[name]):
            calls[name] += 1
            return fn(w)
        monkeypatch.setitem(flow._NAMES, name, call)
    u, v = centre(surface)
    flow._field_of(surface)(u, v)
    per_field = dict(calls)
    calls.clear()
    trace = flow.integrate_flow(surface, u, v, ds=1e-3, max_steps=steps)
    assert (trace.stop_backward, trace.stop_forward) == ("step-limit", "step-limit")
    return per_field, dict(calls), trace


@pytest.mark.parametrize("build", [lambda: catalog_get("plane_flow_patch"),
                                   lambda: catalog_get("circle_lift_developable"),
                                   lambda: random_ruled(0)],
                         ids=["plane_flow_patch", "circle_lift_developable", "random-ruled-0"])
def test_ruled_legs_take_their_trig_once_per_leg(monkeypatch, build):
    surface = build()
    per_field, calls, trace = trig_calls(monkeypatch, surface)
    assert per_field["cos"] and per_field["sin"]
    assert (trace.uv[:, 0] == centre(surface)[0]).all()
    # the seed's field, then one run of the memo in each leg of 400 stages
    assert calls == {name: 3 * n for name, n in per_field.items()}


def test_cylinder_legs_take_at_most_half_the_trig(monkeypatch, unit_cylinder):
    # the field is constant in (u, v): the two midpoint stages of a step
    # share their u, and so do the endpoint stage and the new point; past
    # the seed's field, at most half of the trig of the 2 * 4 * 100 stages
    per_field, calls, _ = trig_calls(monkeypatch, unit_cylinder)
    for name, n in per_field.items():
        assert 0 < calls[name] - n <= 2 * 4 * 100 * n // 2


@pytest.mark.parametrize("u", [-0.0, 0.0])
@pytest.mark.parametrize("build", [lambda: surface_from_dict(RULED_ACROSS_ZERO),
                                   lambda: catalog_get("plane_flow_patch")],
                         ids=["ruled-across-zero", "plane_flow_patch"])
def test_legs_seeded_at_a_signed_zero_u_match_the_reference(build, u):
    surface = build()
    assert assert_legs_match_at(surface, u, centre(surface)[1], 1e-2, 60)


def test_memo_split_moves_the_lines_of_u_alone_first():
    text = "a = v * 2.0\nb = u + 1.0\nc = a + b\nd = cos(b)\nX, Y = d, c"
    assert flow._split(text) == ("if u != u_memo or u == 0.0:\n    b = u + 1.0\n    d = cos(b)\n"
                                 "    u_memo = u\na = v * 2.0\nc = a + b\nX, Y = d, c")
    # no line of u alone, a name set twice, or a name set after a read: as given
    for text in ("a = v\nb = a", "a = u\na = v", "b = a\na = u"):
        assert flow._split(text) == text


def test_memo_reruns_its_lines_at_a_zero_of_either_sign():
    # -0.0 == 0.0, so u != u_memo alone would keep the +0.0 line at -0.0
    text = flow._split("X = u * 1.0\nY = v")
    names = {"u_memo": math.nan, "v": 0.5}
    for u in (0.0, -0.0, -0.0, 0.0, 2.0, 2.0):
        names["u"] = u
        exec(text, names)
        assert math.copysign(1.0, names["X"]) == math.copysign(1.0, u) and names["X"] == u


def test_a_raising_stage_text_leaves_no_memo():
    # the second stage raises after s is set; the generic slot takes it, and
    # the third, back at the first u, runs the lines again rather than
    # reading s of the second
    text = flow._INLINE.format(indent(flow._split(
        "s = u * 2.0\np = pow(u, 400)\nX, Y, T = s + 0.0 * p, v, 0.0\n"
        "Xu, Yu, Tu = 1.0, 0.0, 0.0\nXv, Yv, Tv = 0.0, 1.0, 0.0"), "    "))
    names = {"pow": pow, "nan": math.nan, "u_memo": math.nan, "v": 0.5,
             "fields": lambda u, v, order: ((u, v, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))}
    for u, x in ((1.0, 2.0), (10.0, 10.0), (1.0, 2.0)):
        names["u"] = u
        exec(text, names)
        assert names["X"] == x
