"""The lockstep flow driver against the scalar stepper, bit for bit.

``flow._leg`` steps one leg at a time and is the reference; ``flow._lockstep``
advances many legs together.  Both are called directly, so the cutoff that
picks between them in ``integrate_flows`` hides neither.  Comparisons are
on bit patterns, and the inputs put every stop reason and a domain exit at
each RK4 stage into play.
"""

import math
from collections import Counter

import numpy as np
import pytest

from heisflow import flow
from heisflow.builders import (
    CATALOG,
    catalog_get,
    random_ruled_patch,
    surface_from_dict,
)
from heisflow.errors import CharacteristicPoint, OutOfDomain
from heisflow.flow import LOCKSTEP_MIN_LEGS, integrate_flow, integrate_flows
from heisflow.horizontal import EPS_CHAR, _normal_components, _pullback_coeffs, _threshold
from heisflow.patch import Domain, eval_jets, grid_points, reparametrize_affine
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
    seeds = np.asarray(seeds, float)
    jets = eval_jets(surface, *seeds.T)
    rows, near = flow._field_rows(jets)
    return seeds[~near], rows[:, ~near]


def scalar_legs(surface, seeds, rows, steps):
    """Each leg through flow._leg from its seed and the field there (a column
    of rows), forward then backward, with the RK4 stage (counted from the
    calls of the field that flow._field_of makes for the leg) and the
    domain edge of each domain exit, and the number of legs that only a k2,
    k3 or k4 reversed against k1 stops."""
    legs, exits = [], []
    reversed_stages = 0
    real = flow._field_of
    calls = []  # the field each call returned, None where it raised
    point = []  # the (u, v) of the last call

    def counted_field_of(surface):
        field = real(surface)

        def counted(*args):
            calls.append(None)
            point[:] = args
            calls[-1] = field(*args)
            return calls[-1]

        return counted

    flow._field_of = counted_field_of
    try:
        for (u, v), f in zip(seeds.tolist(), rows.T.tolist()):
            for h in (DS, -DS):
                calls[:] = [tuple(f)]
                pts, reason = flow._leg(surface, u, v, h, f, steps)
                legs.append((np.array(pts, float).reshape(-1, 2), reason))
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
    finally:
        flow._field_of = real
    return legs, exits, reversed_stages


def exit_edge(dom, u, v):
    """The first edge of the domain, in u_min, u_max, v_min, v_max order,
    that the point (u, v) lies past."""
    edges = {"u_min": u < dom.u_min, "u_max": u > dom.u_max,
             "v_min": v < dom.v_min, "v_max": v > dom.v_max}
    return next(name for name, past in edges.items() if past)


def lockstep_legs(surface, seeds, rows, steps):
    u, v = np.repeat(seeds, 2, axis=0).T
    h = np.tile((DS, -DS), len(seeds))
    paths, reasons = flow._lockstep(surface, u, v, h, np.repeat(rows, 2, axis=1), steps)
    return list(zip(paths, reasons))


def bits(a):
    return np.ascontiguousarray(a, float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def leg_runs():
    """Every surface: the scalar and the lockstep legs, the exit stages and
    edges, and the number of legs stopped by a reversed stage alone."""
    runs = {}
    for name, build in SURFACES.items():
        surface = build()
        edge, rest = seeds_of(name, surface)
        scalar, lockstep, exits, reversals = [], [], [], 0
        # short legs from the edge seeds, long ones from the rest
        for s, steps in ((edge, 3), (rest, 120)):
            s, r = starts(surface, s)
            legs, e, rev = scalar_legs(surface, s, r, steps)
            scalar += legs
            exits += e
            reversals += rev
            lockstep += lockstep_legs(surface, s, r, steps)
        runs[name] = (scalar, lockstep, exits, reversals)
    return runs


@pytest.mark.parametrize("name", list(SURFACES))
def test_lockstep_legs_match_scalar_legs(leg_runs, name):
    scalar, lockstep, _, _ = leg_runs[name]
    assert len(scalar) == len(lockstep)
    for (want_uv, want_reason), (got_uv, got_reason) in zip(scalar, lockstep):
        assert got_reason == want_reason
        assert bits(got_uv) == bits(want_uv)


def test_inputs_reach_every_stop_and_every_exit_stage(leg_runs):
    reasons = Counter(r for scalar, _, _, _ in leg_runs.values() for _, r in scalar)
    stages = Counter(s for _, _, exits, _ in leg_runs.values() for s, _ in exits)
    assert set(reasons) == {"domain-exit", "characteristic-proximity", "step-limit"}
    assert set(stages) == set(STAGES)
    # some leg stops on an RK4 stage reversed across the locus
    assert sum(run[3] for run in leg_runs.values()) > 0
    # a leg exits only past an edge, since a field formula accepts its whole
    # closed domain; on these surfaces legs leave through all four edges
    for name in ("paraboloid", "cone_lower", "plane_t0", "cylinder(1.0)"):
        edges = {edge for _, edge in leg_runs[name][2]}
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
    # integrate_flow traces 2 legs, under the cutoff: the scalar stepper;
    # these batches are over it, so integrate_flows runs in lockstep
    surface = SURFACES[name]()
    dom = surface.domain
    # a second, offset grid keeps the batch over the cutoff
    offset = [
        (dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span)
        for fu in (0.4, 0.45, 0.6)
        for fv in (0.15, 0.3, 0.4, 0.6, 0.7, 0.85)
    ]
    seeds = interior_seeds(dom) + offset + locus_seeds(name, dom)
    got = integrate_flows(surface, seeds, ds=DS, max_steps=120)
    assert 2 * sum(t is not None for t in got) >= LOCKSTEP_MIN_LEGS
    want = []
    for u, v in seeds:
        try:
            want.append(integrate_flow(surface, u, v, ds=DS, max_steps=120))
        except CharacteristicPoint:
            want.append(None)
    assert [trace_bits(t) for t in got] == [trace_bits(t) for t in want]
    if name in ("paraboloid", "plane_t0"):
        assert None in got  # the 1e-12 seed fails the STOP_FACTOR test


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
    """The bits of the field of flow._field_of on floats, or the stop code
    of flow._fields where it raises."""
    try:
        return bits(flow._field_of(surface)(u, v))
    except OutOfDomain:
        return 1
    except flow._LegStop:
        return 2


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
    rows, stop = flow._fields(surface, u, v)
    got = [bits(r) if code == 0 else code for r, code in zip(rows.T, stop.tolist())]
    assert got == [field_or_stop(surface, a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert {1, 0} <= set(stop.tolist())
    if name in ("paraboloid", "plane_t0"):
        assert 2 in stop.tolist()


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
    with pytest.raises(ValueError, match="^non-finite jet component in value: ") as scalar:
        flow._field_of(overflow)(1e59, 0.5)
    # the lockstep's field raises it too; a point outside the domain only stops
    with pytest.raises(ValueError) as lockstep:
        flow._fields(overflow, np.array([2e60, 0.5, 1e59]), np.array([0.5, 0.5, 0.5]))
    assert str(lockstep.value) == str(scalar.value)


def stop_edge(a):
    """The jet x = y = 0, du = (a, 0, 0), dv = (0, 0, c), ||N^h|| = |a c|,
    at the least float c > 0 that is not in the stop band, and the jet at
    the float before it."""
    def jet(bits):
        return [[0.0, 0.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, float(np.int64(bits).view(float))]]

    def stops(j):
        (x, y, _), du, dv = j
        n1, n2 = _normal_components.formula(x, y, du, dv, math.sqrt)
        return math.hypot(n1, n2) < flow.STOP_FACTOR * _threshold.formula(
            x, y, du, dv, math.sqrt, EPS_CHAR
        )

    lo, hi = int(np.float64(1e-12).view(np.int64)), int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stops(jet(mid)) else (lo, mid)
    return [jet(lo), jet(hi)]


def test_stage_formula_is_the_three_horizontal_formulas():
    # seeded first-order jets over many scales, a quarter of them with dv
    # nearly parallel to du and x = y = 0, so that ||N^h|| runs through the
    # stop band, and pairs of jets on either side of its edge: flow._stage
    # on floats and on arrays gives the bits of _normal_components,
    # math.hypot, _threshold and _pullback_coeffs
    rng = np.random.default_rng(29)
    n = 4000
    jets = rng.standard_normal((n, 3, 3)) * 10.0 ** rng.integers(-6, 7, (n, 3, 3))
    near = np.arange(n) % 4 == 0
    jets[near, 2] = jets[near, 1] * rng.uniform(-2.0, 2.0, (near.sum(), 1)) + 10.0 ** rng.integers(
        -15, -6, (near.sum(), 1)
    ) * rng.standard_normal((near.sum(), 3))
    jets[near, 0, :2] = 0.0
    edges = [j for a in rng.uniform(0.1, 10.0, 200).tolist() for j in stop_edge(a)]
    jets = np.concatenate((jets, edges))
    n = len(jets)
    jets = jets.transpose(1, 2, 0).copy().transpose(2, 0, 1)  # the layout of jet2_batch
    want = []
    for j in jets.tolist():
        (x, y, _), du, dv = j
        n1, n2 = _normal_components.formula(x, y, du, dv, math.sqrt)
        q = math.hypot(n1, n2)
        thr = _threshold.formula(x, y, du, dv, math.sqrt, EPS_CHAR)
        p_u, p_v = _pullback_coeffs.formula(x, y, du, dv, math.sqrt)
        want.append((q, q < flow.STOP_FACTOR * thr, p_u, p_v))
        got = flow._stage(x, y, *du, *dv, math.sqrt, math.hypot)
        assert bits(got) == bits(want[-1])
    want = np.array(want).T
    assert 0 < want[1].sum() < n  # both sides of the stop band
    with np.errstate(all="ignore"):
        got = flow._stage(
            jets[:, 0, 0], jets[:, 0, 1], *jets[:, 1].T, *jets[:, 2].T, np.sqrt,
            lambda a, b: np.fromiter(map(math.hypot, a.tolist(), b.tolist()), float, len(a)),
        )
    for g, w in zip(got, want, strict=True):
        assert bits(g) == bits(w)
    rows, stop = flow._field_rows(jets)
    assert (stop == want[1].astype(bool)).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        field = np.stack((want[3] / want[0], -want[2] / want[0]))
    assert bits(rows[:2]) == bits(field)
