"""Batched evaluation against the scalar reference path, bit for bit.

Every comparison is on bit patterns, so NaN positions and the sign of zero
count as differences.  The float path of ``scalar_curvature`` is the
reference: each point's jet from the field formula on floats, the
first-order formulas on those floats, and the per-point curvature.
"""

import contextlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisflow import cli, curvature, flow, verify
from conftest import field_rows, local_H, spec_dict, term_list, turned_ruled
from reference_writer import render
from scalar_curvature import (
    reference_local,
    scalar_jet,
    scalar_normal,
    scalar_pullback,
    scalar_threshold,
)
from heisflow.builders import (
    CATALOG,
    Term,
    TermSum,
    build_graph_separable,
    catalog_get,
    load_surface_file,
    random_ruled_patch,
)
from heisflow.curvature import (
    MINIMALITY_BAND,
    NEAR_CHAR_FACTOR,
    _fsum_columns,
    _running_max,
    curvature_scan,
    is_h_minimal,
    mean_curvature_batch,
)
from heisflow.errors import CharacteristicPoint, NotRegular, OutOfDomain
from heisflow.flow import _field_of
from heisflow.horizontal import (
    char_threshold,
    horizontal_normal_batch,
    induced_form_batch,
    normal_compatibility,
)
from heisflow.patch import (
    JET_BLOCK,
    Domain,
    SurfaceHandle,
    blocks,
    eval_jets,
    grid_points,
    jet2_batch,
    make_surface,
    reparametrize_affine,
)
from heisflow.rng import Lcg64


def bits(values):
    return np.asarray(values, float).view(np.int64)


def sample_points(surface, n=(17, 13), extra=64, seed=0):
    """A grid including the domain edges plus uniform interior points."""
    u, v = grid_points(*surface.domain.linspace(*n))
    rng = np.random.default_rng(seed)
    dom = surface.domain
    ru = rng.uniform(dom.u_min, dom.u_max, extra)
    rv = rng.uniform(dom.v_min, dom.v_max, extra)
    return np.concatenate((u, ru)), np.concatenate((v, rv))


def scalar_columns(surface, u, v):
    jets, cols, H, q, char = [], [], [], [], []
    for a, b in zip(u.tolist(), v.tolist()):
        j = scalar_jet(surface, a, b)
        jets.append(j)
        cols.append((*scalar_normal(j), *scalar_pullback(j)))
        try:
            sample = reference_local(surface, a, b)
        except CharacteristicPoint:
            H.append(math.nan)
            q.append(math.nan)
            char.append(True)
        else:
            H.append(sample.H)
            q.append(sample.nh_norm)
            char.append(False)
    jets = np.array(jets).reshape(-1, 6, 3)
    cols = np.array(cols).reshape(-1, 5).T
    return jets, cols, np.array(H), np.array(q), np.array(char, bool)


def assert_batch_matches_scalar(surface, u, v):
    jets_ref, cols_ref, H_ref, q_ref, char_ref = scalar_columns(surface, u, v)
    jets = eval_jets(surface, u, v)
    batch = mean_curvature_batch(jets)
    cols = (*horizontal_normal_batch(jets), *induced_form_batch(jets))
    np.testing.assert_array_equal(bits(jets), bits(jets_ref))
    for name, got, want in zip(("n1", "n2", "nh_norm", "p_u", "p_v"), cols, cols_ref):
        np.testing.assert_array_equal(bits(got), bits(want), err_msg=name)
    np.testing.assert_array_equal(batch.char, char_ref)
    np.testing.assert_array_equal(bits(batch.H), bits(H_ref), err_msg="H")
    live = ~char_ref
    np.testing.assert_array_equal(bits(batch.nh_norm[live]), bits(q_ref[live]))


@pytest.mark.parametrize(
    "name", CATALOG + ("cylinder(0.5)", "cylinder(2.0)", "cylinder(5.0)")
)
def test_catalog_batch_bit_identical(name):
    surface = catalog_get(name)
    assert_batch_matches_scalar(surface, *sample_points(surface))


@pytest.mark.parametrize(
    "points",
    [(), ((0.001, 0.3),), ((0.001, 0.3), (0.0, 0.0), (1.0, 0.5), (-0.0005, -0.4))],
    ids=["empty", "one-point", "mixed"],
)
def test_edge_batches_bit_identical(points):
    # t = 1e40 u^6: the origin is characteristic, so its numerator sums are
    # not needed, and at u = 1 the jet entries pass 2**100, so that point's
    # sums all go to math.fsum; curvature_scan passes an empty batch when a
    # whole block is skipped
    surface = build_graph_separable(
        TermSum((Term("poly", 1e40, 6),)), TermSum(), Domain(-1.0, 1.0, -1.0, 1.0)
    )
    u, v = np.array(points, float).reshape(-1, 2).T
    assert_batch_matches_scalar(surface, u, v)
    if len(points) > 1:
        jets = eval_jets(surface, u, v)
        assert mean_curvature_batch(jets).char.tolist() == [False, True, False, False]
        assert (np.abs(jets).max(axis=(1, 2)) > 2.0**100).tolist() == [False, False, True, False]


def test_batch_makes_one_column_sum_per_term_shape(monkeypatch, paraboloid):
    shapes = []

    def counting(t, *args):
        shapes.append(t.shape)
        return fsum_columns(t, *args)

    fsum_columns = curvature._fsum_columns
    monkeypatch.setattr(curvature, "_fsum_columns", counting)
    # no jet component is zero on the block, so every product is expanded
    jets = eval_jets(turned_ruled(), [0.1, -0.05, 0.15], [0.0, 0.1, -0.12])
    assert jets.all()
    mean_curvature_batch(jets)
    # n1 and n2; their four derivatives; p_u, p_v, A_u and A_v; the numerator
    assert shapes == [(10, 6), (26, 12), (6, 12), (4, 3)]
    # the paraboloid's block has 9 zero components and 4 constant ones,
    # x_u = y_v = 1, t_uu = -2 and t_vv = 2: n1 and n2 keep one pair and one
    # triple each, each derivative one pair or one triple, and p_u, p_v, A_u
    # and A_v two pairs each, all of them exact, so every sum is a float
    # sum and makes no call; A_u and A_v sum to zero at every point, so the
    # numerator has no term left, makes no call either and is +0.0
    shapes.clear()
    H = mean_curvature_batch(eval_jets(paraboloid, [0.5, 0.1, -0.3], [0.25, -0.3, 0.7])).H
    assert shapes == []
    assert bits(H).tolist() == [0, 0, 0]


def test_batch_expands_each_distinct_inner_product_once(monkeypatch):
    calls = []

    def spying(a, b, p, e):
        calls.append((np.array(a), np.array(b)))
        return two_prod(a, b, p, e)

    two_prod = curvature._two_prod
    monkeypatch.setattr(curvature, "_two_prod", spying)
    jets = eval_jets(turned_ruled(), [0.1, -0.05, 0.15], [0.0, 0.1, -0.12])
    assert jets.all()
    mean_curvature_batch(jets)
    # per sum call, the pairs as (pairs, sums, points), the inner products of
    # the triples as (products, points), and c times those as (triples, sums,
    # points): n1 and n2, their derivatives, p_u, p_v, A_u and A_v, and the
    # numerator
    assert [a.shape for a, _ in calls] == [
        (2, 2, 3), (3, 3), (2, 2, 3),
        (4, 4, 3), (11, 3), (6, 4, 3),
        (3, 4, 3),
        (2, 1, 3),
    ]
    # row 0 of an inner table is the zero product that pads short sums; the
    # others are the distinct a*b of the triples, 2 in the n1/n2 group and
    # 10 in the derivative group of 24 triples
    _, (xu, yu, _), (xv, yv, _), (xuu, yuu, _), (xuv, yuv, _), (xvv, yvv, _) = (
        jets.transpose(1, 2, 0)
    )
    want = [
        [(xu, yv), (yu, xv)],
        [(xu, yv), (yu, xv), (xuu, yv), (xu, yuv), (yuu, xv), (yu, xuv),
         (xuv, yv), (xu, yvv), (yuv, xv), (yu, xvv)],
    ]
    for (a, b), pairs in zip([calls[1], calls[4]], want):
        assert not a[0].any() and not b[0].any()
        assert len({(f.tobytes(), g.tobytes()) for f, g in zip(a[1:], b[1:])}) == len(pairs)
        np.testing.assert_array_equal(bits(a[1:]), bits([f for f, _ in pairs]))
        np.testing.assert_array_equal(bits(b[1:]), bits([g for _, g in pairs]))


def test_random_ruled_batch_bit_identical():
    rng = Lcg64(0)
    for i in range(100):
        _, surface = random_ruled_patch(rng, i)
        assert_batch_matches_scalar(surface, *sample_points(surface, (7, 5), 8, i))


def test_reparametrized_cone_batch_bit_identical(cone):
    rep = reparametrize_affine(
        cone, ((1.1, -0.15), (0.2, 0.9)), (-1.25, 3.0), Domain(-0.25, 0.25, -0.9, 0.9)
    )
    assert_batch_matches_scalar(rep, *sample_points(rep))


terms = st.one_of(
    st.tuples(st.just("poly"), st.floats(-2.0, 2.0), st.integers(0, 6)),
    st.tuples(st.sampled_from(("cos", "sin")), st.floats(-2.0, 2.0), st.integers(1, 3)),
)


@given(st.lists(terms, max_size=3), st.lists(terms, max_size=3))
def test_separable_graph_batch_bit_identical(fu, fv):
    def term_sum(entries):
        return TermSum(tuple(Term(*e) for e in entries))

    surface = build_graph_separable(
        term_sum(fu), term_sum(fv), Domain(-1.5, 1.25, -1.0, 1.5)
    )
    assert_batch_matches_scalar(surface, *sample_points(surface, (7, 6), 16))


def one_point_H(local, surface, u, v):
    """The hex of the H that ``local`` gives at one point, or its error message."""
    try:
        return float(local(surface, u, v)).hex()
    except CharacteristicPoint as e:
        return str(e)


def reference_H(surface, u, v):
    return reference_local(surface, u, v).H


@pytest.mark.parametrize(
    "name", CATALOG + ("cylinder(0.5)", "random-ruled", "reparametrized-cone")
)
def test_one_point_functions_match_scalar_reference(name, cone):
    if name == "random-ruled":
        _, surface = random_ruled_patch(Lcg64(7), 3)
    elif name == "reparametrized-cone":
        surface = reparametrize_affine(
            cone, ((1.1, -0.15), (0.2, 0.9)), (-1.25, 3.0), Domain(-0.25, 0.25, -0.9, 0.9)
        )
    else:
        surface = catalog_get(name)
    # one point is a strict scan of one point: the same H or the same message
    u, v = sample_points(surface, (5, 4), 6)
    for a, b in zip(u.tolist(), v.tolist()):
        got = one_point_H(local_H, surface, a, b)
        assert got == one_point_H(reference_H, surface, a, b), (a, b)


jet_entries = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.lists(jet_entries, min_size=18, max_size=18), min_size=1, max_size=12),
    st.sampled_from((1e-9, 1e-8, 1e-3, 0.1, 1.0, 3.0, 100.0)),
)
def test_char_threshold_array_matches_per_jet(rows, eps_char):
    jets = np.array(rows).reshape(-1, 6, 3)
    want = [scalar_threshold(j, eps_char) for j in jets]
    assert all(type(w) is float for w in want)
    np.testing.assert_array_equal(bits(char_threshold(jets, eps_char)), bits(want))


def test_eval_jets_empty_batch(paraboloid):
    assert eval_jets(paraboloid, [], []).shape == (0, 6, 3)
    assert mean_curvature_batch(np.empty((0, 6, 3))).H.shape == (0,)


def test_eval_jets_errors_match_scalar(paraboloid):
    with pytest.raises(OutOfDomain) as scalar:
        _field_of(paraboloid)(1.6, 0.0)
    with pytest.raises(OutOfDomain) as batch:
        eval_jets(paraboloid, [0.0, 1.6, 2.0], [0.0, 0.0, 0.0])
    assert str(batch.value) == str(scalar.value)

    huge = build_graph_separable(
        TermSum((Term("poly", 1e300, 2),)), TermSum(), Domain(-1e10, 1e10, -1.0, 1.0)
    )
    with pytest.raises(ValueError) as scalar:
        _field_of(huge)(1e10, 0.5)
    with pytest.raises(ValueError) as batch:
        eval_jets(huge, [0.0, 1e10], [0.5, 0.5])
    assert str(batch.value) == str(scalar.value)


def six_triple_plane(bad, value):
    """The plane t = 0 from a formula that returns all six field triples,
    with ``value`` put at flat position ``bad`` (field * 3 + coordinate)."""

    def fields(u, v, order=2):
        entries = [u, v, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0] + [0.0] * 9
        entries[bad] = value
        return tuple(tuple(entries[i : i + 3]) for i in range(0, 18, 3))

    return SurfaceHandle(Domain(-1.0, 1.0, -1.0, 1.0), fields, "six-triple-plane")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(18))
def test_field_screen_raises_what_eval_jets_raises(position, value, monkeypatch, capsys):
    surface = six_triple_plane(position, value)
    with pytest.raises(ValueError) as batch:
        eval_jets(surface, [0.3], [0.4])
    field = ("value", "du", "dv", "duu", "duv", "dvv")[position // 3]
    assert str(batch.value).startswith(f"non-finite jet component in {field}: ")
    if position < 9:
        # a stage reads the value and first partials and screens them
        with pytest.raises(ValueError) as scalar:
            _field_of(surface)(0.3, 0.4)
        assert str(scalar.value) == str(batch.value)
        return
    # a stage reads no second partial, but the seed's 2-jet is screened: the
    # flow refuses the surface there, with eval_jets's message
    with pytest.raises(ValueError) as seeded:
        flow.integrate_flows(surface, [(0.3, 0.4)], max_steps=5)
    assert str(seeded.value) == str(batch.value)
    monkeypatch.setattr(cli, "resolve_surface", lambda arg: surface)
    assert cli.main(["flow", "six-triple-plane", "--seed", "0.3", "0.4", "--steps", "5"]) == 2
    assert capsys.readouterr().err == f"heisflow: {batch.value}\n"


def test_field_screen_passes_finite_jets_whose_sum_overflows():
    surface = catalog_get("cylinder(1.5e308)")
    fields = surface.fields(1.0, 0.3)
    # every component is finite, but their one sum is not: the full check runs
    assert all(math.isfinite(c) for f in fields for c in f)
    assert not math.isfinite(sum(map(sum, fields)))
    got = _field_of(surface)(1.0, 0.3)
    rows, near = field_rows(eval_jets(surface, [1.0], [0.3]))
    assert not near[0]
    assert bits(got).tolist() == bits(rows[:, 0]).tolist()


# surface files of every type but catalog, each a builder's formula as the
# file format reaches it
SURFACE_FILES = {
    "ruled-file": spec_dict(random_ruled_patch(Lcg64(4), 4)[0]),
    "developable-file": {
        "type": "developable",
        "curve": {"x": term_list(("cos", 1.0, 1)), "y": term_list(("sin", 1.0, 1)),
                  "t": term_list(("poly", -2.0, 1)), "domain": [0.0, 3.0]},
        "v_range": [0.1, 1.2],
    },
    "cylinder-file": {
        "type": "cylinder",
        "profile": {"x": term_list(("cos", 1.5, 1)),
                    "y": term_list(("sin", 0.75, 2), ("poly", 0.5, 1)),
                    "domain": [0.0, 2.0]},
        "height": [-1.0, 0.5],
    },
    "graph-file": {
        "type": "graph",
        "domain": {"u": [-1.5, 1.25], "v": [-1.0, 2.0]},
        "fu": term_list(("poly", 0.5, 3), ("sin", 1.0, 2)),
        "fv": term_list(("cos", -0.25, 1), ("poly", 1.0, 2)),
    },
}
CONTRACT_SURFACES = CATALOG + tuple(SURFACE_FILES) + (
    "reparametrized-cone", "plane-map-source", "plane-map-image"
)


def contract_surface(name, tmp_path):
    if name.startswith("plane-map-"):
        # the two handles check_plane_map_ratio makes from its own formulas
        made = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "make_surface", lambda *a: made.append(make_surface(*a)) or made[-1])
            verify.check_plane_map_ratio(0)
        return made[name == "plane-map-image"]
    if name == "reparametrized-cone":
        return reparametrize_affine(
            catalog_get("cone_lower"), ((1.1, -0.15), (0.2, 0.9)), (-1.25, 3.0),
            Domain(-0.25, 0.25, -0.9, 0.9),
        )
    if name in SURFACE_FILES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SURFACE_FILES[name]))
        return load_surface_file(str(path))
    return catalog_get(name)


@pytest.mark.parametrize("name", CONTRACT_SURFACES)
def test_field_formula_accepts_its_closed_domain(name, tmp_path):
    # the corners and edge midpoints of the domain: finite on floats and on
    # arrays, with the same bits, and never a domain exit of the flow; at
    # order 1 the first three triples of the 2-jet, bit for bit
    surface = contract_surface(name, tmp_path)
    dom = surface.domain
    (u0, u1), (v0, v1) = (dom.u_min, dom.u_max), (dom.v_min, dom.v_max)
    um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    u, v = np.array(
        [(u0, v0), (u1, v0), (u0, v1), (u1, v1), (um, v0), (um, v1), (u0, vm), (u1, vm)]
    ).T
    want = []
    for a, b in zip(u.tolist(), v.tolist()):
        fields = surface.fields(a, b)
        assert all(math.isfinite(c) for f in fields for c in f), (a, b)
        assert bits(surface.fields(a, b, 1)[:3]).tolist() == bits(fields[:3]).tolist()
        want.append(scalar_jet(surface, a, b))
    jets = eval_jets(surface, u, v)
    assert np.isfinite(jets).all()
    np.testing.assert_array_equal(bits(jets), bits(want))
    first = jet2_batch(len(u), *surface.fields(u, v, 1)[:3])  # the locus step's finite check
    np.testing.assert_array_equal(bits(first[:, :3]), bits(jets[:, :3]))
    for got, full in zip(surface.fields(u, v, 1)[:3], surface.fields(u, v)[:3], strict=True):
        for g, f in zip(got, full, strict=True):
            assert np.shape(g) == np.shape(f) and bits(g).tolist() == bits(f).tolist()
    field = flow._field_of(surface)
    for a, b in zip(u.tolist(), v.tolist()):
        with contextlib.suppress(flow._LegStop):  # a stop, but no domain exit
            field(a, b)


def test_field_formulas_return_python_floats_on_floats(tmp_path):
    for name in CONTRACT_SURFACES:
        surface = contract_surface(name, tmp_path)
        dom = surface.domain
        for fu, fv in ((0.3, 0.6), (0.5, 0.5), (0.8, 0.1)):
            u, v = dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span
            for fields in (surface.fields(u, v), surface.fields(u, v, 1)[:3]):
                types = {type(c) for f in fields for c in f}
                assert types == {float}, (name, types)


def test_fsum_columns_matches_fsum():
    rng = np.random.default_rng(5)
    n = 4000
    for k in (3, 10, 26):
        wide = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-30, 30, (k, n))
        half = rng.standard_normal((k // 2, n)) * 1e10
        cancel = np.concatenate(
            (half, -half * (1 + rng.integers(-3, 3, half.shape) * 2.0**-52),
             rng.standard_normal((k % 2, n)) * 1e-20)
        )
        ties = rng.integers(-(2**54), 2**54, (k, n)) + rng.integers(0, 2, (k, n)) * 0.5
        tiny = rng.standard_normal((k, n)) * 2.0 ** rng.integers(-1074, -1000, (k, n))
        zeros = np.where(rng.integers(0, 2, (k, n)) == 1, -0.0, 0.0)
        for t in (wide, cancel, ties, tiny, zeros):
            got = _fsum_columns(t, np.ones(n, bool))
            want = [math.fsum(t[:, i].tolist()) for i in range(n)]
            np.testing.assert_array_equal(bits(got), bits(want))


def test_fsum_columns_give_nan_where_fsum_raises():
    t = np.ones((3, 4))
    t[:, 2] = (math.inf, -math.inf, 1.0)
    t[:, 3] = (1e308, 1e308, -1e308)
    with pytest.raises(ValueError, match="inf"):
        math.fsum(t[:, 2].tolist())
    with pytest.raises(OverflowError):
        math.fsum(t[:, 3].tolist())
    got = _fsum_columns(t, np.zeros(4, bool))
    assert got[:2].tolist() == [3.0, 3.0] and np.isnan(got[2:]).all()
    t[:, 3] = 1.0
    need = np.array([True, True, False, True])
    got = _fsum_columns(t, np.zeros(4, bool), need)
    assert got[[0, 1, 3]].tolist() == [3.0, 3.0, 3.0] and math.isnan(got[2])


def _fsum_tiers(t, safe, *args):
    """``_fsum_columns(t, safe, *args)``, the (s, s2, r) that each tier passes
    to ``_certify``, the rows that each ``_distil`` call gets, and the terms
    of each math.fsum call."""
    seen, distils, fsums = [], [], []
    certify, distil, fsum = curvature._certify, curvature._distil, math.fsum

    def spy(s, s2, r):
        seen.append((s.copy(), s2.copy(), r.copy()))
        return certify(s, s2, r)

    def distilling(rows):
        distils.append(rows.copy())
        return distil(rows)

    def counting(terms):
        fsums.append(list(terms))
        return fsum(terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "_certify", spy)
        mp.setattr(curvature, "_distil", distilling)
        mp.setattr(math, "fsum", counting)
        out = _fsum_columns(t, safe, *args)
    return out, seen, distils, fsums


def _exact(x) -> Fraction:
    return Fraction(float(x))


def _ulp(x: float) -> float:
    return math.nextafter(abs(x), math.inf) - abs(x)


SAFE_FLOATS = st.floats(-(2.0**200), 2.0**200, allow_nan=False)
SUBNORMAL = st.integers(-(2**40), 2**40).map(lambda k: k * 5e-324)


def _column(kind: str, k: int):
    """A strategy for one column of k >= 2 terms that takes the named path."""
    if kind == "wide":
        return st.lists(SAFE_FLOATS, min_size=k, max_size=k)
    if kind == "zero":  # exact-zero sums
        return st.lists(SAFE_FLOATS, min_size=k // 2, max_size=k // 2).map(
            lambda xs: (xs + [-x for x in reversed(xs)] + [0.0] * (k % 2))
        )
    if kind == "tie":  # a, half an ulp of a, a tiny term that breaks the tie or not
        m = max(k - 3, 0)
        return st.tuples(
            st.floats(2.0**-900, 2.0**200), st.sampled_from([0.0, 5e-324, -5e-324, 1e-300]),
            st.lists(SAFE_FLOATS, min_size=m // 2, max_size=m // 2),
        ).map(lambda a: ([a[0], 0.5 * _ulp(a[0]), a[1]][:k] + a[2] + [-x for x in a[2]]
                         + [0.0] * (m % 2)))
    # subnormal: a normal head whose ulp dwarfs the subnormal rest, so the
    # first distillation's errors have a mass whose bound underflows
    return st.tuples(
        st.floats(2.0**-900, 2.0**200), st.lists(SUBNORMAL, min_size=k - 1, max_size=k - 1)
    ).map(lambda a: [a[0]] + a[1])


@given(
    st.integers(2, 12).flatmap(
        lambda k: st.lists(
            st.tuples(st.sampled_from(["wide", "zero", "tie", "subnormal"]), st.booleans())
            .flatmap(lambda ks: st.tuples(_column(ks[0], k), st.just(ks[1]))),
            min_size=1, max_size=12,
        )
    )
)
def test_fsum_column_tiers_match_fsum(columns):
    t = np.array([c for c, _ in columns], float).T
    safe = np.array([sf for _, sf in columns], bool)
    out, seen, _, fsums = _fsum_tiers(t, safe)
    want = [math.fsum(col) for col, _ in columns]
    np.testing.assert_array_equal(bits(out), bits(want))

    # tier 1: r bounds the error of s2 = fl(sum e), and is zero only where
    # every error term is
    (s, s2, r), *tier2 = seen
    _, e = curvature._distil(t)
    for i in range(t.shape[1]):
        err = abs(sum(map(_exact, e[:, i])) - _exact(s2[i]))
        assert err <= _exact(r[i])
        assert (r[i] == 0.0) == (not e[:, i].any())
    # tier 2 gets the safe columns tier 1 left, and fsum the rest
    _, ok1 = curvature._certify(s, s2, r)
    again = safe & ~ok1
    n2 = len(tier2[0][0]) if tier2 else 0
    assert n2 == again.sum()
    ok2 = curvature._certify(*tier2[0])[1].sum() if tier2 else 0
    assert len(fsums) == (~safe).sum() + n2 - ok2


@given(
    st.integers(2, 12).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.tuples(st.sampled_from(["wide", "zero", "tie", "subnormal"]),
                          st.booleans(), st.booleans())
                .flatmap(lambda ks: st.tuples(_column(ks[0], k), *map(st.just, ks[1:]))),
                min_size=1, max_size=12,
            ),
            st.lists(st.booleans(), min_size=k, max_size=k).filter(any),
        )
    )
)
def test_fsum_columns_on_high_low_splits(case):
    # the rows of t are the terms in their interleaved order; a random split
    # leads with the high rows, and order puts the terms back
    columns, high = case
    t = np.array([c for c, _, _ in columns], float).T
    safe = np.array([sf for _, sf, _ in columns], bool)
    need = np.array([nd for _, _, nd in columns], bool)
    laid = np.concatenate((np.flatnonzero(high), np.flatnonzero(np.logical_not(high))))
    n_high, order = sum(high), np.argsort(laid)
    out, seen, distils, fsums = _fsum_tiers(t[laid], safe, need, n_high, order)

    # tier 1: r bounds the error of s2 against the exact sum of the
    # distillation's errors and the low rows, and is zero only where all are
    (s, s2, r), *tier2 = seen
    _, e = curvature._distil(t[laid][:n_high])
    rest = np.concatenate((e, t[laid][n_high:]))
    for i in range(t.shape[1]):
        err = abs(sum(map(_exact, rest[:, i])) - _exact(s2[i]))
        assert err <= _exact(r[i])
        assert (r[i] == 0.0) == (not rest[:, i].any())
    # tier 2 gets the safe columns tier 1 left, and fsum the needed columns
    # that neither tier certified, both with their terms in the interleaved order
    _, ok = curvature._certify(s, s2, r)
    ok &= safe
    again = np.flatnonzero(safe & ~ok)
    assert len(tier2) == (again.size > 0) and len(distils) == 1 + 2 * len(tier2)
    if tier2:
        np.testing.assert_array_equal(bits(distils[1]), bits(t[:, again]))
        ok[again] = curvature._certify(*tier2[0])[1]
    assert fsums == [t[:, i].tolist() for i in np.flatnonzero(~ok & need)]
    # the certified and needed columns equal fsum bit for bit, the rest are NaN
    want = np.array([math.fsum(col) for col, _, _ in columns])
    want[~ok & ~need] = math.nan
    np.testing.assert_array_equal(bits(out), bits(want))


@pytest.mark.parametrize(
    "column, tier",
    [
        ([1.0, 2.0**-60, 2.0**-61, 3.0], 1),  # an inexact first sum, certified by its bound
        ([2.0**-900, 5e-324, -1e-320, 3e-322], 1),  # the error mass's bound underflows
        ([1.0, 1e-20], 1),  # two terms, one error row
        ([0.1, -0.7, 0.7, -0.1], 2),  # an exact zero: the second level cancels
        ([1.0, 2.0**-53, 2.0**-110, -(2.0**-110)], 2),  # a tie that the first bound straddles
        # a sum under _TINY that neither distillation makes exact: math.fsum
        ([0.4, -1e-46, 1e-46, -5e-12, -0.4, 2.0**-1000, 5e-12], 3),
    ],
)
def test_fsum_columns_reach_each_tier(column, tier):
    # (_certify calls, math.fsum calls): an unsafe column skips tier 2
    want = {1: (1, 0), 2: (2, 0), 3: (2, 1)}[tier]
    t = np.array([column], float).T
    for safe, calls in ((True, want), (False, (1, 1))):
        out, seen, _, fsums = _fsum_tiers(t, np.array([safe]))
        assert bits(out).tolist() == bits([math.fsum(column)]).tolist()
        assert (len(seen), len(fsums)) == calls


# math.fsum calls of a strict=False curvature scan of each catalog grid:
# the counts of the two-tier certification (tier 1 distils the high parts
# of the products, tier 2 all terms in their interleaved order) on the sums
# left after the products with a factor zero on the whole block are
# dropped, which tier 1 alone exceeds on five of these grids (on plane_t0
# and plane_flow_patch by 9,216 and 20,059: sums that cancel below the
# float error bound of their low parts, on plane_t0 all exact zeros)
FSUM_CALLS = [
    ("paraboloid", 121, 0),
    ("cone_lower", 81, 2),
    ("circle_lift_developable", 81, 803),
    ("cylinder(2.0)", 81, 0),
    ("plane_t0", 101, 0),
    ("vertical_plane_x0", 81, 0),
    ("plane_flow_patch", 101, 0),
]


@pytest.mark.parametrize("name, n, calls", FSUM_CALLS)
def test_fsum_fallback_calls_on_catalog_grids(monkeypatch, name, n, calls):
    count = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: count.append(1) or fsum(terms))
    surface = catalog_get(name)
    curvature_scan([surface], *grid_points(*surface.domain.linspace(n, n)), strict=False)
    assert len(count) == calls


def old_eval_rows(surface, us, vs):
    """The per-point loop the eval command used before batching."""
    rows = []
    for u in us:
        for v in vs:
            j = scalar_jet(surface, u, v)
            try:
                h = reference_local(surface, u, v).H
            except CharacteristicPoint:
                h = math.nan
            rows.append([u, v, *j[0].tolist(), *scalar_normal(j), *scalar_pullback(j), h])
    return rows


@pytest.mark.parametrize(
    "name, grid, fmt, sub",
    [
        ("plane_t0", (9, 9), "json", None),
        ("paraboloid", (31, 24), "csv", None),
        ("cone_lower", (70, 61), "json", None),  # more than one block
        ("circle_lift_developable", (8, 5), "csv", ((0.5, 2.5), (0.2, 1.1))),
        # table sizes at the edges: one row, one block, one block and a row
        ("paraboloid", (1, 1), "json", None),
        ("paraboloid", (1, 1), "csv", None),
        ("paraboloid", (32, 32), "csv", None),
        ("paraboloid", (32, 32), "json", None),
        ("paraboloid", (41, 25), "csv", None),
        ("paraboloid", (41, 25), "json", None),
    ],
)
def test_eval_stdout_matches_per_point_loop(capsys, name, grid, fmt, sub):
    nu, nv = grid
    argv = ["eval", name, "--grid", f"{nu}x{nv}", "--format", fmt]
    surface = catalog_get(name)
    dom = surface.domain
    (u0, u1), (v0, v1) = sub or ((dom.u_min, dom.u_max), (dom.v_min, dom.v_max))
    if sub:
        argv += ["--urange", repr(u0), repr(u1), "--vrange", repr(v0), repr(v1)]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out

    rows = old_eval_rows(
        surface, cli._axis_points(u0, u1, nu), cli._axis_points(v0, v1, nv)
    )
    columns = ["u", "v", "x", "y", "t", "n1", "n2", "nh_norm", "p_u", "p_v", "H"]
    report = {
        "surface": name,
        "grid": [nu, nv],
        "urange": [u0, u1],
        "vrange": [v0, v1],
        "eps_char": 1e-9,
        "columns": columns,
        "rows": rows,
    }
    assert got == render(report, columns, fmt)


def old_is_h_minimal(surface, grid):
    """The per-point loop of is_h_minimal before batching."""
    us, vs = surface.domain.linspace(*grid)
    worst, argmax, n_eval, n_skip = -1.0, None, 0, 0
    for u in us:
        for v in vs:
            j = scalar_jet(surface, float(u), float(v))
            q = scalar_normal(j)[2]
            band = max(
                NEAR_CHAR_FACTOR * scalar_threshold(j), scalar_threshold(j, MINIMALITY_BAND)
            )
            if q < band:
                n_skip += 1
                continue
            h = reference_local(surface, float(u), float(v)).H
            n_eval += 1
            if abs(h) > worst:
                worst, argmax = abs(h), (float(u), float(v))
    if n_eval == 0:
        return math.nan, None, 0, n_skip
    return worst, argmax, n_eval, n_skip


@pytest.mark.parametrize(
    "name, grid",
    [
        ("paraboloid", (41, 41)),
        ("paraboloid", (70, 61)),  # more than one block
        ("cone_lower", (70, 61)),  # worst point in the last block
        ("cone_lower", (21, 21)),
        ("plane_t0", (20, 20)),
        ("circle_lift_developable", (15, 9)),
    ],
)
def test_is_h_minimal_matches_per_point_loop(name, grid):
    assert JET_BLOCK < 70 * 61
    surface = catalog_get(name)
    report = is_h_minimal(surface, grid=grid)
    got = (report.max_abs_H, report.argmax, report.n_evaluated, report.n_skipped)
    want = old_is_h_minimal(surface, grid)
    assert bits(got[0]) == bits(want[0])
    assert got[1:] == want[1:]


def test_not_regular_names_the_same_point():
    dom = Domain(-1.0, 1.0, -1.0, 1.0)

    def late_fold(u, v):
        # collapses where u > 0.75 and v > 0.1: late in the 21x21 check
        fold = np.where((u > 0.75) & (v > 0.1), 0.0, 1.0)
        return (u, fold * v, 0.0), (1.0, 0.0, 0.0), (0.0, fold, 0.0)

    us, vs = dom.interior_linspace(21, 21)
    want = None
    for u in us:
        for v in vs:
            _, du, dv = (np.array(f, float) for f in late_fold(float(u), float(v)))
            cross = np.cross(du, dv)
            if float(np.hypot(np.hypot(cross[0], cross[1]), cross[2])) <= 1e-8:
                want = f"fold: |sigma_u x sigma_v| <= 1e-08 at (u, v) = ({u}, {v})"
                break
        if want:
            break
    with pytest.raises(NotRegular) as exc:
        make_surface(late_fold, dom, label="fold")
    assert str(exc.value) == want


@pytest.mark.parametrize(
    "check, stat, count, detail",
    [
        (verify.check_cylinder_curvature, 4.440892098500626e-16, 40804,
         "R=0.5, u=0.314159, v=-1"),
        (verify.check_cone_curvature, 6.661338147750939e-16, 2601, "51x51 grid"),
        (verify.check_paraboloid_minimality, 0.0, 10100, "||N^h|| >= 1e-4 kept"),
        (verify.check_developable_minimality, 1.751852084787191e-15, 441,
         "circle_lift_developable"),
        (verify.check_random_ruled_minimality, 7.238564373564601e-11, 18886,
         "14 near-characteristic points skipped; worst random-ruled-25 at u=0.2, v=0.375"),
    ],
)
def test_verify_grid_checks_match_per_point_results(check, stat, count, detail):
    # stat, count and detail as the per-point loops reported them at seed 0
    (result,) = check(0)
    assert (bits(result.stat), result.count, result.detail) == (bits(stat), count, detail)
    assert result.passed


@pytest.mark.parametrize(
    "check, seed, stat, count, detail",
    [
        (verify.check_random_ruled_minimality, 5, 2.433380646451381e-11, 18892,
         "8 near-characteristic points skipped; worst random-ruled-50 at u=1.2, v=0.625"),
        (verify.check_contact_factor, 0, 3.8010922508393467e-16, 441, "circle-lift-ruled"),
        (verify.check_plane_map_ratio, 0, 0.0, 441, "strip u in [0.25, 2]"),
        (verify.check_ruled_form_identity, 0, 2.0701926888010976e-15, 10000,
         "random-ruled-0 at s=1.58433, v=1.05913"),
        (verify.check_ruled_form_identity, 3, 1.7633421911486509e-15, 10000,
         "random-ruled-2 at s=1.1686, v=1.20188"),
        (verify.check_ruled_form_identity, 5, 2.3975505088530373e-15, 10000,
         "random-ruled-2 at s=1.80213, v=0.501529"),
        (verify.check_flow_straightness, 0, 3.14018491736755e-10, 24406,
         "41 traces over 5 surfaces"),
        (verify.check_flow_straightness, 3, 3.14018491736755e-10, 24406,
         "41 traces over 5 surfaces"),
        (verify.check_flow_straightness, 5, 3.14018491736755e-10, 24406,
         "41 traces over 5 surfaces"),
        (verify.check_oracle_agreement, 0, 6.374931985630994e-07, 1400,
         "cone_lower at u=-0.54492, v=1.82622"),
        (verify.check_oracle_agreement, 3, 6.795482934141006e-07, 1400,
         "cone_lower at u=-0.531671, v=4.37705"),
        (verify.check_oracle_agreement, 5, 6.719424887613457e-07, 1400,
         "cone_lower at u=-0.534022, v=2.77725"),
    ],
)
def test_verify_checks_keep_per_point_results(check, seed, stat, count, detail):
    # stat, count and detail as the per-point loops reported them
    (result,) = check(seed)
    assert (bits(result.stat), result.count, result.detail) == (bits(stat), count, detail)
    assert result.passed


# The eight core results of the per-point loops, in report order, with
# core-reparam-invariance last; every count except the reparam one is 10,000.
CORE_STATS = {
    0: (7.508600483441594e-16, 2.9128955656795915e-15, 0.0, 0.0,
        5.119488672144363e-16, 2.398081733190338e-14, 5.551115123125783e-15),
    3: (7.863998755363356e-16, 1.1915686101402392e-15, 0.0, 0.0,
        3.934884703703329e-16, 3.042011087472929e-14, 1.9761969838327786e-14),
    5: (7.609223791770574e-16, 9.35321780201266e-16, 0.0, 0.0,
        4.2045157996922453e-16, 1.6542323066914832e-14, 6.106226635438361e-15),
}
CORE_NAMES = ("associativity", "left-invariance", "contact-frame", "wedge-clock",
              "normal-compatibility", "kernel-direction", "pushforward-unit",
              "reparam-invariance")


@pytest.mark.parametrize("seed, stat", [
    (0, 2.34480050356066e-16), (3, 2.476658748199107e-16), (5, 2.6025733012013484e-16),
])
def test_reparam_invariance_keeps_per_point_result(seed, stat):
    results = verify.check_core_invariants(seed)
    want = [(f"core-{name}", bits(s), 10000, "")
            for name, s in zip(CORE_NAMES, CORE_STATS[seed])]
    want.append(("core-reparam-invariance", bits(stat), 400, ""))
    assert [(r.name, bits(r.stat), r.count, r.detail) for r in results] == want
    assert all(r.passed for r in results)


def scan_surfaces():
    """Four graphs over one domain: two minimal, one with a locus line, two
    with isolated characteristic points, and H far from zero on the last two."""
    dom = Domain(-1.5, 1.5, -1.5, 1.5)

    def graph(fu, fv):
        return build_graph_separable(TermSum(fu), TermSum(fv), dom)

    return [
        catalog_get("paraboloid"),
        graph((), ()),
        graph((Term("poly", 1.0, 2),), (Term("poly", 1.0, 2),)),
        graph((Term("sin", 1.0, 2),), (Term("cos", 0.5, 1), Term("poly", 0.25, 3))),
    ]


def scalar_scan(surfaces, u, v, floor):
    """The per-point loop a scan replaces: H, skip and char, surface by surface."""
    H, skip, char = [], [], []
    for surface in surfaces:
        for a, b in zip(u.tolist(), v.tolist()):
            j = scalar_jet(surface, a, b)
            q = scalar_normal(j)[2]
            if floor == "band":
                lim = max(NEAR_CHAR_FACTOR * scalar_threshold(j),
                          scalar_threshold(j, MINIMALITY_BAND))
            else:
                lim = -math.inf if floor is None else floor
            h, skipped, flagged = math.nan, q < lim, False
            if not skipped:
                try:
                    h = reference_local(surface, a, b).H
                except CharacteristicPoint:
                    flagged = True
            H.append(h)
            skip.append(skipped)
            char.append(flagged)
    shape = (len(surfaces), len(u))
    return (np.reshape(H, shape), np.reshape(skip, shape), np.reshape(char, shape))


def sequential_fold(surfaces, H):
    """max |H| by the loop ``if x > worst``, surface after surface, and the
    (surface, point) where it was set."""
    worst, where = 0.0, None
    for k in range(len(surfaces)):
        for p, h in enumerate(H[k].tolist()):
            if abs(h) > worst:
                worst, where = abs(h), (k, p)
    return worst, where


@pytest.mark.parametrize("floor", [None, 1e-4, "band"])
def test_curvature_scan_matches_per_point_loop(floor):
    surfaces = scan_surfaces()
    u, v = grid_points(*surfaces[0].domain.linspace(25, 25))
    assert len(surfaces) * len(u) > 2 * JET_BLOCK  # surfaces straddle blocks
    scan = curvature_scan(surfaces, u, v, floor=floor, strict=False)
    H, skip, char = scalar_scan(surfaces, u, v, floor)
    np.testing.assert_array_equal(bits(scan.H), bits(H))
    np.testing.assert_array_equal(scan.skip, skip)
    np.testing.assert_array_equal(scan.char, char)
    # each rule acts here: None keeps the locus points, the others skip them
    if floor is None:
        assert scan.char.any() and not scan.skip.any()
    else:
        assert scan.skip.any() and not scan.char.any()

    # the worst point lies past a block boundary and maps back to the
    # (surface, point) of a sequential per-surface fold
    worst, i = _running_max(np.abs(scan.H), 0.0)
    assert i >= JET_BLOCK
    want_worst, want_where = sequential_fold(surfaces, H)
    assert (bits(worst), divmod(i, len(u))) == (bits(want_worst), want_where)


def test_curvature_scan_skip_rules_differ():
    surfaces = scan_surfaces()[:1]
    u, v = grid_points(*surfaces[0].domain.linspace(60, 61))
    counts = [
        int(curvature_scan(surfaces, u, v, floor=floor, strict=False).skip.sum())
        for floor in (None, 1e-4, "band")
    ]
    assert counts[0] == 0 < counts[1] < counts[2]


def test_curvature_scan_strict_raises_like_reference_local(plane_t0):
    u, v = grid_points(*plane_t0.domain.linspace(101, 101))
    with pytest.raises(CharacteristicPoint) as scalar:
        reference_local(plane_t0, 0.0, 0.0)
    with pytest.raises(CharacteristicPoint) as scan:
        curvature_scan([plane_t0], u, v)
    assert str(scan.value) == str(scalar.value)
    # without strict the origin is flagged, and only the origin
    scan = curvature_scan([plane_t0], u, v, strict=False)
    assert np.flatnonzero(scan.char).tolist() == [50 * 101 + 50]
    with pytest.raises(ValueError, match="floor"):
        curvature_scan([plane_t0], u, v, floor="wide")


# Jet arrays are stored component-major: the (N, 6, 3) view of a C-contiguous
# (6, 3, N) array.  Every test below uses at least two points, since with one
# point both layouts are contiguous at once.

_ZERO = (0.0, 0.0, 0.0)


def component_major(jets) -> bool:
    return jets.transpose(1, 2, 0).flags.c_contiguous


def test_jet_arrays_are_component_major(paraboloid, monkeypatch):
    n = 5
    jets = jet2_batch(n, (np.arange(n, dtype=float), 1.0, 2.0), (1.0, 0.0, 0.0), _ZERO)
    assert jets.shape == (n, 6, 3) and component_major(jets)
    assert not component_major(np.ascontiguousarray(jets))
    u, v = grid_points(*paraboloid.domain.linspace(9, 7))
    assert component_major(eval_jets(paraboloid, u, v))

    seen = []

    def spy(real):
        def wrapped(jets, *args, **kwargs):
            seen.append(jets)
            return real(jets, *args, **kwargs)
        return wrapped

    # the kept subsets of a scan whose band skips points
    monkeypatch.setattr(curvature, "mean_curvature_batch", spy(mean_curvature_batch))
    surfaces = scan_surfaces()
    u, v = grid_points(*surfaces[0].domain.linspace(25, 25))
    scan = curvature_scan(surfaces, u, v, floor="band", strict=False)
    assert scan.skip.any() and len(seen) == len(blocks(scan.skip.size))
    for jets in seen:
        assert len(jets) >= 2 and component_major(jets)


def layout_outputs(jets):
    """Every batched consumer of a jet array, as one list of arrays."""
    batch = mean_curvature_batch(jets)
    return [
        *horizontal_normal_batch(jets), char_threshold(jets),
        *induced_form_batch(jets), normal_compatibility(jets),
        batch.H, batch.nh_norm, batch.char,
    ]


@pytest.mark.parametrize("name", CATALOG + tuple(SURFACE_FILES))
def test_consumers_ignore_jet_layout(name, tmp_path):
    surface = contract_surface(name, tmp_path)
    jets = eval_jets(surface, *sample_points(surface))
    copy = np.ascontiguousarray(jets)
    assert component_major(jets) and not component_major(copy)
    for got, want in zip(layout_outputs(jets), layout_outputs(copy), strict=True):
        np.testing.assert_array_equal(bits(got), bits(want))


def two_bad_points():
    """Six points of the plane t = 0 whose jets are finite but at point 3,
    where dvv is NaN, and at point 5, where the value is infinite."""

    def fields(u, v, order=2):
        k = np.rint(10.0 * u)
        value = (np.where(k == 5.0, math.inf, u), v, 0.0)
        return value, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), _ZERO, _ZERO, (
            np.where(k == 3.0, math.nan, 0.0), 0.0, 0.0
        )

    return SurfaceHandle(Domain(-1.0, 1.0, -1.0, 1.0), fields, "two-bad-points")


def test_finite_screen_names_the_first_point_not_the_first_field():
    # in storage order the value of point 5 comes before the dvv of point 3;
    # the screen names the first bad point in input order, then its first
    # bad field
    u = np.arange(6) / 10.0
    want = f"non-finite jet component in dvv: {np.array([math.nan, 0.0, 0.0])!r}"
    with pytest.raises(ValueError) as batch:
        eval_jets(two_bad_points(), u, np.zeros(6))
    assert str(batch.value) == want
    # the flow's stages read no second partial: they pass point 3, and
    # name point 5's value
    field = flow._field_of(two_bad_points())
    field(u[3].item(), 0.0)
    with pytest.raises(ValueError) as stage:
        field(u[5].item(), 0.0)
    inf_value = np.array([math.inf, 0.0, 0.0])
    assert str(stage.value) == f"non-finite jet component in value: {inf_value!r}"
    # but the flow screens the 2-jets of its seeds, and names point 3's dvv
    with pytest.raises(ValueError) as seeded:
        flow.integrate_flows(two_bad_points(), np.column_stack((u, np.zeros(6))), max_steps=5)
    assert str(seeded.value) == want


def test_finite_screen_passes_huge_finite_jets():
    surface = catalog_get("cylinder(1.5e308)")
    u, v = grid_points(*surface.domain.linspace(9, 9))
    jets = eval_jets(surface, u, v)
    assert np.isfinite(jets).all() and np.abs(jets).max() > 1e308
