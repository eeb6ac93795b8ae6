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
    build_straight_ruled,
    catalog_get,
    random_ruled_spec,
)
from heisflow.errors import CharacteristicPoint, OutOfDomain
from heisflow.flow import LOCKSTEP_MIN_LEGS, integrate_flow, integrate_flows
from heisflow.patch import Domain, eval_jets, make_surface
from heisflow.rng import Lcg64

DS = 1e-2
EPS = 1e-9
STAGES = ("k2", "k3", "k4", "accepted point")


def refusing_surface():
    """The plane t = 0 whose field formula raises OutOfDomain when any point
    has u > 0.9, as a finite-difference stencil does next to the edge."""

    def fields(u, v):
        if np.any(np.asarray(u) > 0.9):
            raise OutOfDomain(f"no stencil at ({u}, {v})")
        return (u, v, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)

    return make_surface(fields, Domain(-1.0, 1.0, -1.0, 1.0), "refusing-plane", check_grid=None)


SURFACES = {
    **{name: (lambda name=name: catalog_get(name)) for name in CATALOG},
    **{f"cylinder({r})": (lambda r=r: catalog_get(f"cylinder({r})")) for r in (0.5, 2.0, 5.0)},
    **{
        f"random-ruled-{k}": (
            lambda k=k: build_straight_ruled(random_ruled_spec(Lcg64(k), k), check_grid=None)
        )
        for k in range(20)
    },
    "refusing-plane": refusing_surface,
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
    if name in ("plane_t0", "refusing-plane"):  # isolated point at the origin
        return [(r, 0.7 * r) for r in (1e-12, 2e-3, 5e-2)]
    return []


def seeds_of(name, surface):
    dom = surface.domain
    edge = edge_seeds(dom)
    if name == "refusing-plane":  # the refused band u > 0.9 takes the edge's place
        edge = [(0.9 - DS * k / 8.0, v) for k in range(12) for v in (-0.3, 0.02, 0.4)]
        edge += [(u, v) for u, v in edge_seeds(dom) if u <= 0.9]
    return edge, interior_seeds(dom) + locus_seeds(name, dom)


def starts(surface, seeds):
    """The seeds that pass the STOP_FACTOR test, and the field there."""
    seeds = np.asarray(seeds, float)
    jets = eval_jets(surface, *seeds.T)
    rows, near = flow._field_rows(jets, EPS)
    return seeds[~near], rows[:, ~near]


def scalar_legs(surface, seeds, steps):
    """Each leg through flow._leg, forward then backward, with the RK4 stage
    of each domain exit (counted from the flow._field calls of the leg) and
    the number of legs that only a k2, k3 or k4 reversed against k1 stops."""
    legs, exit_stages = [], []
    reversed_stages = 0
    real = flow._field
    calls = []  # the field each call returned, None where it raised

    def counted(*args):
        calls.append(None)
        calls[-1] = real(*args)
        return calls[-1]

    flow._field = counted
    try:
        for u, v in seeds.tolist():
            for h in (DS, -DS):
                calls.clear()
                pts, reason = flow._leg(surface, u, v, h, steps, EPS)
                legs.append((np.array(pts, float).reshape(-1, 2), reason))
                if reason == "domain-exit":
                    # call 0 is the seed, then k2, k3, k4 and the new point per step
                    exit_stages.append(STAGES[(len(calls) - 2) % 4])
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
        flow._field = real
    return legs, exit_stages, reversed_stages


def lockstep_legs(surface, seeds, rows, steps):
    u, v = np.repeat(seeds, 2, axis=0).T
    h = np.tile((DS, -DS), len(seeds))
    paths, reasons = flow._lockstep(
        surface, u, v, h, np.repeat(rows, 2, axis=1), steps, EPS
    )
    return list(zip(paths, reasons))


def bits(a):
    return np.ascontiguousarray(a, float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def leg_runs():
    """Every surface: the scalar and the lockstep legs, and the exit stages."""
    runs = {}
    for name, build in SURFACES.items():
        surface = build()
        edge, rest = seeds_of(name, surface)
        scalar, lockstep, stages, reversals = [], [], [], 0
        # short legs from the edge seeds, long ones from the rest
        for s, steps in ((edge, 3), (rest, 120)):
            s, r = starts(surface, s)
            legs, exits, rev = scalar_legs(surface, s, steps)
            scalar += legs
            stages += exits
            reversals += rev
            lockstep += lockstep_legs(surface, s, r, steps)
        runs[name] = (scalar, lockstep, stages, reversals)
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
    stages = Counter(s for _, _, exits, _ in leg_runs.values() for s in exits)
    assert set(reasons) == {"domain-exit", "characteristic-proximity", "step-limit"}
    assert set(stages) == set(STAGES)
    # some leg stops on an RK4 stage reversed across the locus
    assert sum(run[3] for run in leg_runs.values()) > 0
    # the jet function of refusing-plane refuses stage points in u > 0.9,
    # a step or more from the edges of its domain
    assert any(
        r == "domain-exit" and len(uv) and np.abs(uv[-1]).max() < 0.95
        for uv, r in leg_runs["refusing-plane"][0]
    )


def trace_bits(t):
    if t is None:
        return None
    return (
        bits(t.uv), bits(t.points), bits(t.arc), bits(t.params),
        t.seed_index, t.stop_backward, t.stop_forward,
    )


@pytest.mark.parametrize(
    "name", ["paraboloid", "plane_t0", "cylinder(5.0)", "random-ruled-3", "refusing-plane"]
)
def test_integrate_flows_matches_one_seed_calls(name):
    # integrate_flow traces 2 legs, under the cutoff: the scalar stepper;
    # these batches are over it, so integrate_flows runs in lockstep
    surface = SURFACES[name]()
    seeds = interior_seeds(surface.domain) + locus_seeds(name, surface.domain)
    got = integrate_flows(surface, seeds, ds=DS, max_steps=120, eps_char=EPS)
    assert 2 * sum(t is not None for t in got) >= LOCKSTEP_MIN_LEGS
    want = []
    for u, v in seeds:
        try:
            want.append(integrate_flow(surface, u, v, ds=DS, max_steps=120, eps_char=EPS))
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
