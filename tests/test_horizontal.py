"""Horizontal normals, the induced contact form and the flow direction."""

import math

import numpy as np
import pytest

from heisflow import verify
from heisflow.errors import CharacteristicPoint
from heisflow.flow import _field_rows, integrate_flow
from heisflow.heis import (
    FrameVector,
    Point3,
    contact_eval,
    euclidean_to_frame,
    frame_to_euclidean,
    h_wedge,
)
from heisflow.horizontal import (
    EPS_CHAR,
    char_threshold,
    horizontal_normal_batch,
    induced_form_batch,
    normal_compatibility,
)
from heisflow.patch import eval_jets, jet2_batch

# jyt = -3, jtx = 6, jxy = -3 at (x, y) = (0.5, -1):
# n1 = -3 + 2(-1)(-3) = 3, n2 = 6 - 2(0.5)(-3) = 9
MESSY = jet2_batch(
    1,
    (0.5, -1.0, 0.25),
    (1.0, 2.0, 3.0),
    (4.0, 5.0, 6.0),
    (0.5, -0.25, 1.0),
    (2.0, 0.0, -1.0),
    (0.0, 1.5, 0.5),
)


def test_normal_components_frozen():
    n1, n2, q = horizontal_normal_batch(MESSY)
    assert (n1[0], n2[0]) == (3.0, 9.0)
    assert q[0] == pytest.approx(math.sqrt(90.0), rel=1e-15)


def test_paraboloid_normals(paraboloid):
    # graph of f = v^2 - u^2: n1 = 2(u + v), n2 = -2(u + v), exactly
    n1, n2, q = horizontal_normal_batch(eval_jets(paraboloid, [0.5], [0.25]))
    assert (n1[0], n2[0]) == (1.5, -1.5)
    nu = (n1[0] / q[0], n2[0] / q[0])
    assert nu == pytest.approx((1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)))
    assert math.hypot(*nu) == pytest.approx(1.0, rel=1e-15)


def test_char_threshold_scale_aware():
    flat = jet2_batch(1, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert char_threshold(flat, 1e-9)[0] == pytest.approx(1e-9 * (1.0 + math.sqrt(2.0)))
    assert char_threshold(MESSY, 1e-6)[0] > char_threshold(flat, 1e-6)[0]


def test_is_characteristic_on_paraboloid_locus(paraboloid):
    jets = eval_jets(paraboloid, [0.3, 0.5], [-0.3, 0.25])
    q = horizontal_normal_batch(jets)[2]
    assert (q < char_threshold(jets, EPS_CHAR)).tolist() == [True, False]
    assert q[0] == 0.0
    assert q[1] == pytest.approx(1.5 * math.sqrt(2.0))


def test_unit_normal_raises_at_characteristic(paraboloid, monkeypatch):
    with pytest.raises(CharacteristicPoint, match="seed too close"):
        integrate_flow(paraboloid, 0.3, -0.3)
    # the plane t = 0 is characteristic at its origin, a node of the cone
    # check's 51x51 grid: there it has no unit normal and no curvature, and
    # the check's strict curvature scan names it
    plane = verify.catalog_get("plane_t0")
    monkeypatch.setattr(verify, "catalog_get", lambda name: plane)
    with pytest.raises(CharacteristicPoint) as exc:
        verify.check_cone_curvature(0)
    assert str(exc.value) == "curvature undefined: ||N^h|| = 0.000e+00"


def test_induced_form_frozen():
    # p_u = tu + 2(x yu - y xu), p_v likewise on the dv column
    p_u, p_v = induced_form_batch(MESSY)
    assert p_u[0] == 3.0 + 2.0 * (0.5 * 2.0 + 1.0 * 1.0)
    assert p_v[0] == 6.0 + 2.0 * (0.5 * 5.0 + 1.0 * 4.0)


def test_flow_direction_in_kernel():
    (du, dv, x, y), near = _field_rows(MESSY)
    (p_u,), (p_v,) = induced_form_batch(MESSY)
    q = horizontal_normal_batch(MESSY)[2][0]
    assert not near[0] and (x[0], y[0]) == (0.5, -1.0)
    assert du[0] == pytest.approx(p_v / q, rel=1e-15)
    assert dv[0] == pytest.approx(-p_u / q, rel=1e-15)
    assert p_u * du[0] + p_v * dv[0] == pytest.approx(0.0, abs=1e-13)


def test_nh_is_horizontal_part_of_frame_wedge(cone):
    jets = eval_jets(cone, [-1.3], [2.1])
    value, du, dv = jets[0, :3]
    p = Point3(*value.tolist())
    wu = euclidean_to_frame(p, du)
    wv = euclidean_to_frame(p, dv)
    w = h_wedge(wu, wv)
    n1, n2, _ = horizontal_normal_batch(jets)
    assert (w.a1, w.a2) == pytest.approx((n1[0], n2[0]), rel=1e-12)
    # the full wedge is orthogonal to both tangents in the frame metric
    assert w.a1 * wu.a1 + w.a2 * wu.a2 + w.a3 * wu.a3 == pytest.approx(0.0, abs=1e-12)
    assert w.a1 * wv.a1 + w.a2 * wv.a2 + w.a3 * wv.a3 == pytest.approx(0.0, abs=1e-12)


def test_nh_euclidean_embedding(cone):
    # the ambient N^h whose t entry normal_compatibility uses,
    # (n1, n2, 2y n1 - 2x n2), is the frame vector (n1, n2, 0)
    jets = eval_jets(cone, [-1.3], [2.1])
    base = Point3(*jets[0, 0].tolist())
    (n1,), (n2,), _ = horizontal_normal_batch(jets)
    nh = (n1, n2, 2.0 * base.y * n1 - 2.0 * base.x * n2)
    ref = frame_to_euclidean(FrameVector(n1, n2, 0.0, base))
    assert np.allclose(nh, ref, rtol=0.0, atol=1e-13)
    # dropping the T component leaves an honestly horizontal ambient vector
    assert contact_eval(base, nh) == pytest.approx(0.0, abs=1e-12)


def test_normal_compatibility_identity():
    q = horizontal_normal_batch(MESSY)[2][0]
    assert normal_compatibility(MESSY)[0] == pytest.approx(q**2, rel=1e-13)
