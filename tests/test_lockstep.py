"""``integrate_flows``: its legs, stops and fields, bit for bit.

``integrate_flows`` traces the leaf through each seed, and steps each leg
on its own with the generated leg of ``flow._leg_of``.  The reference
stepper ``scalar_flow.leg`` is called directly here, on the flow field
through the generic slot (``conftest.generic_slot``), with the generated
leg beside it on every input, and the inputs put every stop reason and a
domain exit at each RK4 stage into play.  The float field
``flow._field_of``, the one the seeds use, compiled from the surface's own
slot as the leg is, is compared with the array composition of the
horizontal formulas (``field_rows``), and ``integrate_flows`` with its
one-seed calls; comparisons are on bit patterns.
"""

import contextlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import field_rows, generic_slot
from scalar_curvature import scalar_normal, scalar_pullback, scalar_threshold
from scalar_flow import leg
from heisflow import flow
from heisflow.builders import (
    CATALOG,
    catalog_get,
    random_ruled_patch,
    surface_from_dict,
)
from heisflow.errors import CharacteristicPoint, OutOfDomain
from heisflow.flow import integrate_flow, integrate_flows
from heisflow.patch import Domain, SurfaceHandle, eval_jets, grid_points, reparametrize_affine
from heisflow.rng import Lcg64

DS = 1e-2
STAGES = ("k2", "k3", "k4", "accepted point")


SURFACES = {
    **{name: (lambda name=name: catalog_get(name)) for name in CATALOG},
    **{f"cylinder({r})": (lambda r=r: catalog_get(f"cylinder({r})")) for r in (0.5, 2.0, 5.0)},
    **{f"random-ruled-{k}": (lambda k=k: random_ruled_patch(Lcg64(k), k)[1]) for k in range(20)},
}


def edge_seeds(dom):
    """Seeds at 12 offsets, up to 1.4 steps, inside each of the four edges."""
    seeds = []
    for f in (0.2, 0.5, 0.8):
        u = dom.u_min + f * dom.u_span
        v = dom.v_min + f * dom.v_span
        for k in range(12):
            o = DS * k / 8.0
            seeds += [(dom.u_min + o, v), (dom.u_max - o, v), (u, dom.v_min + o), (u, dom.v_max - o)]
    return seeds


def interior_seeds(dom):
    return [
        (dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span)
        for fu in (0.25, 0.5, 0.75)
        for fv in (0.3, 0.5, 0.7)
    ]


def locus_seeds(name, dom):
    """Seeds next to the characteristic locus, where it is known in closed form."""
    if name == "paraboloid":  # locus u + v = 0
        return [(a, -a + e) for a in (-0.5, 0.2, 0.9) for e in (1e-12, 3e-3, 2e-2)]
    if name == "plane_t0":  # isolated point at the origin
        return [(r, 0.7 * r) for r in (1e-12, 2e-3, 5e-2)]
    return []


def seeds_of(name, surface):
    dom = surface.domain
    return edge_seeds(dom), interior_seeds(dom) + locus_seeds(name, dom)


def starts(surface, seeds):
    """The seeds that pass the STOP_FACTOR test, and the field there."""
    field = flow._field_of(generic_slot(surface))
    kept = []
    for u, v in seeds:
        with contextlib.suppress(flow._LegStop):
            kept.append(((u, v), field(u, v)))
    return kept


def scalar_legs(surface, seeded, steps):
    """Each leg through the reference stepper from its seed and the field
    there, forward then backward, with the RK4 stage (counted from the calls
    of the field that it makes) and the domain edge of each domain exit, and
    the number of legs that only a k2, k3 or k4 reversed against k1 stops.
    The generated leg gives each leg's points and reason too, bit for bit."""
    legs, exits = [], []
    reversed_stages = 0
    field = flow._field_of(generic_slot(surface))
    generated = flow._leg_of(surface)
    calls = []  # the field each call returned, None where it raised
    point = []  # the (u, v) of the last call

    def counted(*args):
        calls.append(None)
        point[:] = args
        calls[-1] = field(*args)
        return calls[-1]

    for (u, v), f in seeded:
        for h in (DS, -DS):
            calls[:] = [f]
            pts, reason = leg(counted, u, v, h, f, steps)
            legs.append((np.array(pts, float).reshape(-1, 2), reason))
            got, got_reason = generated(u, v, h, f, steps)
            assert bits(np.array(got, float).reshape(-1, 2)) == bits(legs[-1][0])
            assert got_reason == reason
            if reason == "domain-exit":
                # call 0 is the seed, then k2, k3, k4 and the new point per step
                exits.append((STAGES[(len(calls) - 2) % 4], exit_edge(surface.domain, *point)))
            last = calls[-5:]
            if reason == "characteristic-proximity" and len(last) == 5 and None not in last:
                # only a reversed stage stops this step: the new point
                # keeps the direction and the chord does not collapse
                k1, *ks, fn = last
                reversed_stages += (
                    any(k[0] * k1[0] + k[1] * k1[1] < 0.0 for k in ks)
                    and fn[0] * k1[0] + fn[1] * k1[1] >= 0.0
                    and math.hypot(fn[2] - k1[2], fn[3] - k1[3]) >= 0.5 * DS
                )
    return legs, exits, reversed_stages


def exit_edge(dom, u, v):
    """The first edge of the domain, in u_min, u_max, v_min, v_max order,
    that the point (u, v) lies past."""
    edges = {"u_min": u < dom.u_min, "u_max": u > dom.u_max,
             "v_min": v < dom.v_min, "v_max": v > dom.v_max}
    return next(name for name, past in edges.items() if past)


def bits(a):
    return np.ascontiguousarray(a, float).view(np.int64).tolist()


def test_inputs_reach_every_stop_and_every_exit_stage():
    # every surface: the legs, the exit stages and edges, and the number of
    # legs stopped by a reversed stage alone
    runs = {}
    for name, build in SURFACES.items():
        surface = build()
        edge, rest = seeds_of(name, surface)
        legs, exits, reversals = [], [], 0
        # short legs from the edge seeds, long ones from the rest
        for s, steps in ((edge, 3), (rest, 120)):
            run = scalar_legs(surface, starts(surface, s), steps)
            legs += run[0]
            exits += run[1]
            reversals += run[2]
        runs[name] = (legs, exits, reversals)
    reasons = Counter(r for legs, _, _ in runs.values() for _, r in legs)
    stages = Counter(s for _, exits, _ in runs.values() for s, _ in exits)
    assert set(reasons) == {"domain-exit", "characteristic-proximity", "step-limit"}
    assert set(stages) == set(STAGES)
    # some leg stops on an RK4 stage reversed across the locus
    assert sum(run[2] for run in runs.values()) > 0
    # a leg exits only past an edge, since a field formula accepts its whole
    # closed domain; on these surfaces legs leave through all four edges
    for name in ("paraboloid", "cone_lower", "plane_t0", "cylinder(1.0)"):
        edges = {edge for _, edge in runs[name][1]}
        assert edges == {"u_min", "u_max", "v_min", "v_max"}, (name, edges)


def trace_bits(t):
    if t is None:
        return None
    return (
        bits(t.uv), bits(t.points), bits(t.arc), bits(t.params),
        t.seed_index, t.stop_backward, t.stop_forward,
    )


@pytest.mark.parametrize(
    "name", ["paraboloid", "plane_t0", "cylinder(5.0)", "random-ruled-3"]
)
def test_integrate_flows_matches_one_seed_calls(name):
    # each seed of a batch, next to the locus too, gets the trace of its
    # own integrate_flow call
    surface = SURFACES[name]()
    dom = surface.domain
    offset = [
        (dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span)
        for fu in (0.4, 0.45, 0.6)
        for fv in (0.15, 0.3, 0.4, 0.6, 0.7, 0.85)
    ]
    seeds = interior_seeds(dom) + offset + locus_seeds(name, dom)
    got = integrate_flows(surface, seeds, ds=DS, max_steps=120)
    want = []
    for u, v in seeds:
        try:
            want.append(integrate_flow(surface, u, v, ds=DS, max_steps=120))
        except CharacteristicPoint:
            want.append(None)
    assert [trace_bits(t) for t in got] == [trace_bits(t) for t in want]
    if name in ("paraboloid", "plane_t0"):
        assert None in got  # the 1e-12 seed fails the STOP_FACTOR test


def scaled_plane():
    """The plane t = 0 as (a u, a v, 0): a = 1 on |u| <= 0.9, where the field
    is radial from the isolated characteristic point at the origin; a = 1e15
    past u = -0.9, where a step of 1e-2 is under 2e; and a = 1e160 past
    u = 0.9, where the jet is finite but the field is not."""

    def fields(u, v, order=2):
        if isinstance(u, np.ndarray):
            a = np.where(u > 0.9, 1e160, np.where(u < -0.9, 1e15, 1.0))
        else:
            a = 1e160 if u > 0.9 else 1e15 if u < -0.9 else 1.0
        return (a * u, a * v, 0.0), (a, 0.0, 0.0), (0.0, a, 0.0)

    return SurfaceHandle(Domain(-1.0, 1.0, -1.0, 1.0), fields, "scaled-plane")


def test_integrate_flows_screens_seeds_in_order():
    # one call over accepted seeds, a characteristic seed, a seed under 2e
    # and, after it, two seeds whose field is not finite: the first of those
    # is named, since the finite screen runs over every seed before the 2e
    # check; without them the 2e seed is named; without it, every trace is
    # the trace of its own one-seed call
    surface = scaled_plane()
    accepted = [(0.3, 0.4), (1e-12, 0.0), (0.5, -0.1), (-0.2, 0.5)]
    under_2e, not_finite = [(-0.95, 0.2)], [(0.95, 0.5), (0.97, -0.5)]
    kw = {"ds": DS, "max_steps": 20}
    with pytest.raises(ValueError, match=r"^the field is not finite at the seed \(0\.95, 0\.5\)$"):
        integrate_flows(surface, accepted[:2] + under_2e + accepted[2:] + not_finite, **kw)
    with pytest.raises(ValueError, match=r"^ds = 0\.01 is below 2e = .* at the seed \(-0\.95, 0\.2\)$"):
        integrate_flows(surface, accepted[:2] + under_2e + accepted[2:], **kw)
    got = integrate_flows(surface, accepted, **kw)
    assert got[1] is None
    want = [trace_bits(t) for t in got]
    assert want[0] and want[2] and want[3]
    for (u, v), w in zip(accepted, want):
        assert [trace_bits(t) for t in integrate_flows(surface, [(u, v)], **kw)] == [w]


def test_integrate_flows_edge_cases(paraboloid):
    assert integrate_flows(paraboloid, []) == []
    assert integrate_flows(paraboloid, [(0.3, -0.3)]) == [None]
    with pytest.raises(OutOfDomain):
        integrate_flows(paraboloid, [(0.3, 0.2), (3.0, 0.0)])
    with pytest.raises(ValueError):
        integrate_flows(paraboloid, [(0.3, 0.2)], ds=math.inf)
    with pytest.raises(ValueError):
        integrate_flows(paraboloid, [(0.3, 0.2)], max_steps=0)


def test_characteristic_seed_message_is_unchanged(plane_t0):
    with pytest.raises(CharacteristicPoint) as exc:
        integrate_flow(plane_t0, 1e-12, 0.0)
    assert str(exc.value) == "seed too close to the characteristic locus: ||N^h|| = 2.000e-12"


def reparametrized_cone():
    return reparametrize_affine(
        catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)), (-1.25, 3.0),
        Domain(-0.25, 0.25, -0.9, 0.9),
    )


FIELD_SURFACES = {**SURFACES, "reparametrized-cone": reparametrized_cone}


def stop_band_seeds(name):
    """Points next to the locus whose ||N^h|| runs from under the threshold
    to past STOP_FACTOR times it."""
    offsets = np.geomspace(1e-10, 1e-7, 13).tolist()
    if name == "paraboloid":
        return [(a, -a + e) for a in (-0.5, 0.2) for e in offsets]
    if name == "plane_t0":
        return [(r, 0.7 * r) for r in offsets]
    return []


def field_or_stop(surface, u, v):
    """The bits of the field of flow._field_of on floats, or the stop where
    it raises."""
    try:
        return bits(flow._field_of(surface)(u, v))
    except OutOfDomain:
        return "domain-exit"
    except flow._LegStop:
        return "characteristic-proximity"


@pytest.mark.parametrize("name", list(FIELD_SURFACES))
def test_scalar_field_matches_field_rows(name):
    surface = FIELD_SURFACES[name]()
    dom = surface.domain
    # a grid reaching past every edge, next to it and onto it, and the locus
    u, v = grid_points(
        np.linspace(dom.u_min - 0.05 * dom.u_span, dom.u_max + 0.05 * dom.u_span, 23),
        np.linspace(dom.v_min - 0.05 * dom.v_span, dom.v_max + 0.05 * dom.v_span, 19),
    )
    extra = np.array(
        [(dom.u_min, dom.v_min), (dom.u_max, dom.v_max)]
        + locus_seeds(name, dom) + stop_band_seeds(name), float
    ).reshape(-1, 2)
    u, v = np.concatenate((u, extra[:, 0])), np.concatenate((v, extra[:, 1]))
    # the rows of the first-order jets inside the domain; outside, a domain exit
    inside = dom.contains(u, v)
    rows, near = field_rows(eval_jets(surface, u[inside], v[inside], 1))
    fields = iter(
        "characteristic-proximity" if n else bits(r) for r, n in zip(rows.T, near.tolist())
    )
    want = [next(fields) if i else "domain-exit" for i in inside.tolist()]
    assert [field_or_stop(surface, a, b) for a, b in zip(u.tolist(), v.tolist())] == want
    assert inside.any() and not inside.all()
    if name in ("paraboloid", "plane_t0"):
        assert near.any()


def test_scalar_field_raises_what_eval_jets_raises():
    overflow = surface_from_dict(
        {"type": "graph", "domain": {"u": [0, 1e60], "v": [0, 1]},
         "fu": [{"kind": "poly", "coeff": 1, "k": 6}]}
    )
    for u, v, error in ((1e59, 0.5, ValueError), (2e60, 0.5, OutOfDomain), (0.5, -1.0, OutOfDomain)):
        with pytest.raises(error) as scalar:
            flow._field_of(overflow)(u, v)
        with pytest.raises(error) as batch:
            eval_jets(overflow, [u], [v])
        assert str(scalar.value) == str(batch.value)
    assert str(scalar.value).startswith("(u, v) = (0.5, -1.0) outside domain")
    with pytest.raises(ValueError, match="^non-finite jet component in value: "):
        flow._field_of(overflow)(1e59, 0.5)


def stop_edge(a):
    """The jet x = y = 0, du = (a, 0, 0), dv = (0, 0, c), ||N^h|| = |a c|,
    at the least float c > 0 that is not in the stop band, and the jet at
    the float before it."""
    def jet(bits):
        return [[0.0, 0.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, float(np.int64(bits).view(float))]]

    def stops(j):
        return scalar_normal(j)[2] < flow.STOP_FACTOR * scalar_threshold(j)

    lo, hi = int(np.float64(1e-12).view(np.int64)), int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stops(jet(mid)) else (lo, mid)
    return [jet(lo), jet(hi)]


def test_stage_formula_is_the_three_horizontal_formulas():
    # seeded first-order jets over many scales, a quarter of them with dv
    # nearly parallel to du and x = y = 0, so that ||N^h|| runs through the
    # stop band, and pairs of jets on either side of its edge: the float
    # field of a surface literal that returns them stops where, and gives
    # the bits that scalar_curvature's float copies of the horizontal
    # formulas (n1, n2 with math.hypot, the threshold, p_u and p_v) give,
    # and so does the array composition of the package formulas
    rng = np.random.default_rng(29)
    n = 4000
    jets = rng.standard_normal((n, 3, 3)) * 10.0 ** rng.integers(-6, 7, (n, 3, 3))
    near = np.arange(n) % 4 == 0
    jets[near, 2] = jets[near, 1] * rng.uniform(-2.0, 2.0, (near.sum(), 1)) + 10.0 ** rng.integers(
        -15, -6, (near.sum(), 1)
    ) * rng.standard_normal((near.sum(), 3))
    jets[near, 0, :2] = 0.0
    edges = [j for a in rng.uniform(0.1, 10.0, 200).tolist() for j in stop_edge(a)]
    # and where the threshold's sum of squares overflows, so that it takes hypot's norm
    edges += [j for a in (10.0 ** rng.uniform(155.0, 300.0, 50)).tolist() for j in stop_edge(a)]
    jets = np.concatenate((jets, edges))
    n = len(jets)
    jets = jets.transpose(1, 2, 0).copy().transpose(2, 0, 1)  # the layout of jet2_batch
    table = jets.tolist()
    literal = SurfaceHandle(Domain(0.0, n - 1.0, 0.0, 1.0), lambda u, v, order=2: table[int(u)])
    field = flow._field_of(literal)
    want = []
    for k, j in enumerate(table):
        (x, y, _), du, dv = j
        q = scalar_normal(j)[2]
        thr = scalar_threshold(j)
        p_u, p_v = scalar_pullback(j)
        want.append((q, q < flow.STOP_FACTOR * thr, p_u, p_v))
        if want[-1][1]:
            with pytest.raises(flow._LegStop):
                field(float(k), 0.0)
        else:
            assert bits(field(float(k), 0.0)) == bits((p_v / q, -p_u / q, x, y))
    want = np.array(want).T
    assert 0 < want[1].sum() < n  # both sides of the stop band
    rows, stop = field_rows(jets)
    assert (stop == want[1].astype(bool)).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        fields = np.stack((want[3] / want[0], -want[2] / want[0]))
    assert bits(rows[:2]) == bits(fields)
