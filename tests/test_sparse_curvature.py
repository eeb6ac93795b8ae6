"""The curvature kernel's dropped and exact products against the per-point
reference.

On a block whose jet entries are all at most 2**100, mean_curvature_batch
passes every jet component that is constant on the block as a float: it
drops every product with a factor that is zero (+0.0 or -0.0) at every
point of the block, a sum left with no term is +0.0, and a sum of at most
two exact products (all factors but one powers of two of magnitude at
least 1) is their float sum.  A block with a point past 2**100 keeps every
product, since 0 * inf is NaN there.  Either way H, nh_norm and char must
equal ``scalar_curvature.local_of_jet``, the per-point math.fsum path over
all the terms, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import turned_ruled
from scalar_curvature import fsum_terms, local_of_jet, normal_jet, scalar_jet
from heisflow import curvature
from heisflow.builders import catalog_get
from heisflow.curvature import curvature_scan, mean_curvature_batch
from heisflow.errors import CharacteristicPoint
from heisflow.patch import grid_points


def bits(values):
    return np.asarray(values, float).view(np.int64)


def reference(jets):
    """(H, nh_norm, char) of every (6, 3) jet, one point at a time."""
    H, q, char = [], [], []
    for j in np.asarray(jets, float).reshape(-1, 6, 3):
        n1, n2 = normal_jet(j)[:2]
        q.append(math.sqrt(n1 * n1 + n2 * n2))
        try:
            H.append(local_of_jet(j).H)
            char.append(False)
        except CharacteristicPoint:
            H.append(math.nan)
            char.append(True)
    return np.array(H), np.array(q), np.array(char, bool)


def assert_matches_reference(jets):
    got = mean_curvature_batch(jets)
    H, q, char = reference(jets)
    np.testing.assert_array_equal(got.char, char)
    np.testing.assert_array_equal(bits(got.H), bits(H), err_msg="H")
    np.testing.assert_array_equal(bits(got.nh_norm), bits(q), err_msg="nh_norm")


def component_major(jets):
    """An (N, 6, 3) view of (6, 3, N) storage, the layout of curvature_scan."""
    return np.ascontiguousarray(np.asarray(jets, float).transpose(1, 2, 0)).transpose(2, 0, 1)


values = st.one_of(
    st.floats(-2.0, 2.0),
    # small integers and halves cancel exactly, so live sums can be zero too
    st.sampled_from([0.5, 1.0, -1.0, 2.0, -3.0]),
)
# each of the 18 components: live, +0.0 or -0.0 at every point, a zero of
# either sign at some points only, or one nonzero value at every point
kinds = st.sampled_from(["live", "live", "+0", "-0", "some", "constant"])
# powers of two of magnitude at least 1 scale a product exactly; 3.0, 0.5
# and 0.1 do not make it exact, whatever their partner
constants = st.sampled_from([1.0, -1.0, 2.0, -2.0, 2.0**40, -(2.0**40), 3.0, 0.5, 0.1])


@st.composite
def jet_blocks(draw, max_points=8):
    n = draw(st.integers(1, max_points))
    jets = np.array(draw(st.lists(values, min_size=18 * n, max_size=18 * n))).reshape(n, 6, 3)
    for f, kind in enumerate(draw(st.lists(kinds, min_size=18, max_size=18))):
        col = jets[:, f // 3, f % 3]
        if kind == "+0":
            col[:] = 0.0
        elif kind == "-0":
            col[:] = -0.0
        elif kind == "constant":
            col[:] = draw(constants)
        elif kind == "some":
            zero = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=n, max_size=n))
            for i, z in enumerate(zero):
                if z is not None:
                    col[i] = z
    return component_major(jets)


@given(jet_blocks())
def test_zero_patterns_match_the_reference(jets):
    assert_matches_reference(jets)


@given(jet_blocks(max_points=1))
def test_one_point_blocks_match_the_reference(jets):
    # every component of a one-point block is constant, so every factor is
    # a float
    assert_matches_reference(jets)


def plane_jets(n):
    """The plane x = 0, (0, u, v), at n points: n2, its derivatives and
    the numerator lose every term."""
    u = np.linspace(-1.0, 1.0, n)
    jets = np.zeros((n, 6, 3))
    jets[:, 0, 1], jets[:, 0, 2] = u, 0.5 - u
    jets[:, 1, 1] = jets[:, 2, 2] = 1.0
    return jets


def signed_zero_jets():
    """Two points whose H is one exact product, (p_v = 1) * A_u with A_u =
    -4 n1, and n1 = +0.0 at the first: A_u is -0.0 there unless its float
    sum maps -0.0 to +0.0, and then H would be -0.0 where the reference
    gives +0.0.  x = 0, x_u = y_v = t_u = t_v = 1 and t_uv = 2 on the block,
    y = 0.5 and 1.5."""
    jets = np.zeros((2, 6, 3))
    jets[:, 0, 1] = 0.5, 1.5
    jets[:, 1, 0] = jets[:, 1, 2] = jets[:, 2, 1] = jets[:, 2, 2] = 1.0
    jets[:, 4, 2] = 2.0
    return jets


@pytest.mark.parametrize(
    "jets",
    [
        np.zeros((0, 6, 3)),
        plane_jets(1),
        plane_jets(5),
        -plane_jets(4),
        signed_zero_jets(),
        # every sum dead: each point is characteristic, with nh_norm +0.0
        np.zeros((3, 6, 3)),
        -np.zeros((2, 6, 3)),
    ],
    ids=["empty", "one-point", "dead-n2", "negated", "signed-zero", "all-zero", "all-minus-zero"],
)
def test_edge_blocks_match_the_reference(jets):
    assert_matches_reference(component_major(jets))


def test_exact_products_need_a_block_without_unsafe_points():
    # 2 * 2**1023 is exact in the reals but overflows; on a block with a
    # point past 2**100 the product takes the tiers, whose unsafe column is
    # NaN like the per-point reference, not the inf of a float product
    a = np.array([2.0**1023, 1.0])
    with np.errstate(all="ignore"):
        (got,) = curvature._sums([(((a, 2.0),), ())], np.array([False, True]))
    want = [fsum_terms(((x, 2.0),)) for x in a.tolist()]
    assert math.isnan(want[0])
    np.testing.assert_array_equal(bits(got), bits(want))


def test_block_with_an_unsafe_point_keeps_every_product():
    # a cylinder of radius 1e300 and one point of radius 1: xv, yv and tu
    # are zero on the whole block, and at the huge point Dekker's split of
    # 2y = 2e300 is infinite, so (2y) * xu * yv gives NaN rows, which the
    # reference keeps
    a = np.array([0.3, 1.1, 2.0])
    r = np.array([1.0, 1e300, 1e300])
    jets = np.zeros((3, 6, 3))
    jets[:, 0] = np.stack((r * np.cos(a), r * np.sin(a), 0.25 + a), axis=1)
    jets[:, 1, :2] = np.stack((-r * np.sin(a), r * np.cos(a)), axis=1)
    jets[:, 2, 2] = 1.0
    jets[:, 3, :2] = np.stack((-r * np.cos(a), -r * np.sin(a)), axis=1)
    assert_matches_reference(component_major(jets))
    H = mean_curvature_batch(component_major(jets)).H
    assert math.isfinite(H[0]) and np.isnan(H[1:]).all()


def test_catalog_block_with_an_unsafe_point_keeps_every_product():
    surface = catalog_get("cylinder(1e300)")
    u, v = grid_points(*surface.domain.linspace(5, 5))
    jets = np.array([scalar_jet(surface, a, b) for a, b in zip(u.tolist(), v.tolist())])
    assert_matches_reference(component_major(jets))


@pytest.mark.parametrize(
    "names",
    [("vertical_plane_x0", "vertical_plane_x0", "turned"), ("paraboloid", "turned", "plane_t0")],
)
def test_scan_blocks_mixing_sparse_and_zero_free_surfaces(names):
    # 600 points each: the first block holds the first surface's points and
    # 424 of the second's, the second block the rest and the third's
    surfaces = [turned_ruled() if n == "turned" else catalog_get(n) for n in names]
    rng = np.random.default_rng(7)
    u, v = rng.uniform(-0.2, 0.2, (2, 600))
    scan = curvature_scan(surfaces, u, v, strict=False)
    for k, surface in enumerate(surfaces):
        jets = np.array([scalar_jet(surface, a, b) for a, b in zip(u.tolist(), v.tolist())])
        H, _, char = reference(jets)
        np.testing.assert_array_equal(scan.char[k], char)
        np.testing.assert_array_equal(bits(scan.H[k]), bits(H), err_msg=names[k])


# the numerator's two pairs give p and e rows of each; on the paraboloid
# A_u and A_v vanish at every point, so it has no term left and no call
@pytest.mark.parametrize("name, calls", [("paraboloid", 0), ("plane_t0", 1)])
def test_graph_blocks_sum_only_the_numerator_by_columns(monkeypatch, name, calls):
    # x_u = y_v = 1 and t_uu = -2, t_vv = 2 on the paraboloid, x_u = y_v = 1
    # on the plane: every other sum has at most two exact products
    shapes = []

    def counting(t, *args):
        shapes.append(t.shape)
        return fsum_columns(t, *args)

    fsum_columns = curvature._fsum_columns
    monkeypatch.setattr(curvature, "_fsum_columns", counting)
    surface = catalog_get(name)
    u, v = grid_points(*surface.domain.linspace(21, 20))
    jets = component_major([scalar_jet(surface, a, b) for a, b in zip(u.tolist(), v.tolist())])
    assert_matches_reference(jets)
    assert shapes == [(4, len(u))] * calls
