"""Term language, surface constructors, catalog and the JSON file format."""

import json
import math

import pytest

from conftest import (
    circle_lift_curve, circle_lift_ruled_spec, local_H, ruled_parabola_spec, spec_dict, ts,
)
from heisflow.builders import (
    CATALOG,
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_cylinder,
    build_plane_flow_patch,
    build_straight_ruled,
    build_tangent_developable,
    catalog_get,
    curve_from_dict,
    load_surface_file,
    plane_contact_factor,
    random_ruled_patch,
    resolve_surface,
    ruling_form_coeff,
    ruling_form_coefficients,
    surface_from_dict,
    term_from_dict,
)
from heisflow.errors import (
    CharacteristicPoint,
    ConstantRulingDirection,
    DegenerateRuling,
    SpecError,
    UnknownName,
)
from heisflow.horizontal import horizontal_normal_batch, induced_form_batch
from heisflow.patch import eval_jets
from heisflow.rng import Lcg64


def test_term_jets_frozen():
    assert ts(("poly", 1.5, 3)).jet(2.0) == (12.0, 18.0, 18.0, 9.0)
    assert ts(("poly", 4.0, 0)).jet(7.0) == (4.0, 0.0, 0.0, 0.0)
    assert ts(("cos", 2.0, 2)).jet(0.3) == pytest.approx(
        (1.6506712298193567, -2.2585698935801415, -6.602684919277427, 9.034279574320566),
        rel=1e-14,
    )
    assert ts(("sin", 0.5, 3)).jet(0.4) == pytest.approx(
        (0.46601954298361314, 0.5435366317150104, -4.194175886852518, -4.891829685435094),
        rel=1e-14,
    )


def test_term_validation():
    with pytest.raises(SpecError):
        Term("tan", 1.0, 1)
    with pytest.raises(SpecError):
        Term("poly", 1.0, 7)
    with pytest.raises(SpecError):
        Term("cos", 1.0, 0)
    with pytest.raises(SpecError):
        Term("poly", math.nan, 1)


def test_term_sum_adds_and_defaults_to_zero():
    assert TermSum().jet(3.0) == (0.0, 0.0, 0.0, 0.0)
    s = ts(("poly", 1.0, 1), ("poly", -2.0, 0))
    assert s.jet(1.5) == (-0.5, 1.0, 0.0, 0.0)
    assert len(s) == 2


def test_angle_field_direction_jet():
    a, b, a1, b1, a2, b2 = AngleField(ts(("poly", 1.0, 1))).direction_jet(0.5)
    assert (a, b) == (math.cos(0.5), math.sin(0.5))
    assert (a1, b1) == (-math.sin(0.5), math.cos(0.5))
    assert (a2, b2) == pytest.approx((-math.cos(0.5), -math.sin(0.5)))
    flat = AngleField(ts(("poly", math.pi / 4.0, 0))).direction_jet(2.0)
    assert flat[2:] == (0.0, 0.0, -0.0, 0.0) or flat[2:] == (0.0, 0.0, 0.0, 0.0)


def test_ruling_form_coefficients_frozen():
    # gamma = (0, s, s^2) at 45 degrees: c0 = 2s, c1 = 2 sqrt2, c2 = 0
    c0, c1, c2 = ruling_form_coefficients(ruled_parabola_spec(), 1.3)
    assert c0 == pytest.approx(2.6, rel=1e-15)
    assert c1 == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert c2 == 0.0
    # circle lift with theta = s: c0 = 0, c1 = 4, c2 = 2
    c0, c1, c2 = ruling_form_coefficients(circle_lift_ruled_spec(), 1.1)
    assert c0 == pytest.approx(0.0, abs=1e-14)
    assert c1 == pytest.approx(4.0, rel=1e-14)
    assert c2 == 2.0


def test_ruling_form_coeff_and_induced_form_agree():
    spec = ruled_parabola_spec()
    surf = build_straight_ruled(spec)
    s, v = 1.3, 0.6
    c = ruling_form_coeff(spec, s, v)
    assert c == pytest.approx(4.297056274847714, rel=1e-14)
    (p_u,), (p_v,) = induced_form_batch(eval_jets(surf, [s], [v]))
    assert p_u == pytest.approx(c, rel=1e-13)
    assert abs(p_v) < 1e-13
    assert ruling_form_coeff(circle_lift_ruled_spec(), 2.0, 0.8) == pytest.approx(4.48)


def test_ruled_patch_is_minimal_with_norm_equal_coeff():
    spec = circle_lift_ruled_spec()
    surf = build_straight_ruled(spec)
    for s, v in ((0.5, 0.4), (3.0, 1.2)):
        (q,) = horizontal_normal_batch(eval_jets(surf, [s], [v]))[2]
        assert q == pytest.approx(abs(ruling_form_coeff(spec, s, v)), rel=1e-12)
        assert abs(local_H(surf, s, v)) < 1e-12


def test_degenerate_ruling_rejected():
    # gamma = (s, 0, 0) ruled along itself: c identically zero
    curve = CurveSpec(ts(("poly", 1.0, 1)), ts(), ts(), (0.0, 1.0))
    spec = RuledSpec(curve, AngleField(ts()), (0.25, 1.0))
    with pytest.raises(DegenerateRuling):
        build_straight_ruled(spec)


def test_plane_contact_factor_frozen():
    # lambda = 2 v^2 / (4v + 2v^2) = v / (2 + v) on the circle-lift spec
    lam = plane_contact_factor(circle_lift_ruled_spec(), 2.0, 0.8)
    assert lam == pytest.approx(0.8 / 2.8, rel=1e-13)


def test_plane_contact_factor_needs_turning_ruling():
    with pytest.raises(ConstantRulingDirection):
        plane_contact_factor(ruled_parabola_spec(), 1.0, 0.5)


def test_plane_contact_factor_undefined_on_locus():
    # t = -6s shifts the form to c = 2v^2 + 4v - 4, vanishing inside the range
    curve = CurveSpec(
        ts(("cos", 1.0, 1)), ts(("sin", 1.0, 1)), ts(("poly", -6.0, 1)), (0.0, 6.0)
    )
    spec = RuledSpec(curve, AngleField(ts(("poly", 1.0, 1))), (0.2, 1.5))
    v_root = math.sqrt(3.0) - 1.0
    with pytest.raises(CharacteristicPoint):
        plane_contact_factor(spec, 1.0, v_root)


def test_plane_flow_patch_form():
    # sigma = (v cos s, v sin s, 0): p_u = 2 v^2, p_v = 0
    surf = build_plane_flow_patch(AngleField(ts(("poly", 1.0, 1))), (0.0, 3.0), (0.2, 2.0))
    (p_u,), (p_v,) = induced_form_batch(eval_jets(surf, [0.7], [1.0]))
    assert p_u == pytest.approx(2.0, rel=1e-14)
    assert abs(p_v) < 1e-14


def test_developable_requires_horizontal_curve():
    bad = CurveSpec(
        ts(("cos", 1.0, 1)), ts(("sin", 1.0, 1)), ts(("poly", 2.0, 1)), (0.0, 2.0)
    )
    with pytest.raises(SpecError, match=r"^curve fails the contact condition at s = 0\.0: "):
        build_tangent_developable(bad, (0.1, 1.0))


def test_developable_requires_unit_speed():
    # horizontal lift of a double-speed circle: omega fine, speed 2
    bad = CurveSpec(
        ts(("cos", 1.0, 2)), ts(("sin", 1.0, 2)), ts(("poly", -4.0, 1)), (0.0, 2.0)
    )
    with pytest.raises(SpecError, match=r"^projected speed 2\.0 at s = 0\.0 is not 1; "):
        build_tangent_developable(bad, (0.1, 1.0))


def test_developable_rejects_straight_lines():
    line = CurveSpec(ts(("poly", 1.0, 1)), ts(), ts(), (0.0, 1.0))
    with pytest.raises(SpecError, match=r"^gamma'' vanishes somewhere; "):
        build_tangent_developable(line, (0.1, 1.0))


def test_developable_rejects_singular_edge():
    with pytest.raises(SpecError, match=r"^v range \[-0\.5, 1\.0\] contains 0, "):
        build_tangent_developable(circle_lift_curve(), (-0.5, 1.0))


def test_developable_circle_lift_minimal():
    surf = build_tangent_developable(circle_lift_curve(), (0.1, 1.2))
    assert abs(local_H(surf, 1.0, 0.6)) < 1e-12


def test_cylinder_profile_validation():
    lifted = CurveSpec(
        ts(("cos", 1.0, 1)), ts(("sin", 1.0, 1)), ts(("poly", 1.0, 1)), (0.0, 2.0)
    )
    with pytest.raises(SpecError):
        build_cylinder(lifted, (-1.0, 1.0))
    stuck = CurveSpec(ts(("poly", 1.0, 0)), ts(("poly", 2.0, 0)), ts(), (0.0, 1.0))
    with pytest.raises(SpecError, match=r"^profile speed vanishes near s = 0\.0; "):
        build_cylinder(stuck, (-1.0, 1.0))


def test_catalog_names_all_build():
    for name in CATALOG:
        surf = catalog_get(name)
        assert surf.label == name


def test_catalog_cylinder_radius_parse():
    surf = catalog_get("cylinder(2.5)")
    assert local_H(surf, 1.0, 0.0) == pytest.approx(0.4, rel=1e-12)
    assert catalog_get("cylinder").label == "cylinder(1.0)"
    with pytest.raises(UnknownName):
        catalog_get("cylinder(abc)")
    with pytest.raises(UnknownName):
        catalog_get("cylinder(-1.0)")


def test_catalog_unknown_name_lists_choices():
    with pytest.raises(UnknownName, match="paraboloid"):
        catalog_get("klein_bottle")


def test_random_ruled_spec_deterministic():
    a, patch = random_ruled_patch(Lcg64(123), 7)
    b, _ = random_ruled_patch(Lcg64(123), 7)
    assert a == b
    assert a.name == "random-ruled-7"
    c, _ = random_ruled_patch(Lcg64(124), 7)
    assert c != a
    rebuilt = build_straight_ruled(a)  # regular and non-degenerate by construction
    # the returned patch is the accepted attempt's: the one its spec builds
    assert (patch.label, patch.domain) == (a.name, rebuilt.domain)
    u, v = [0.0, 0.7, 2.0], [0.25, 1.1, 1.25]
    assert eval_jets(patch, u, v).tobytes() == eval_jets(rebuilt, u, v).tobytes()


def test_spec_round_trips_through_json():
    spec = circle_lift_ruled_spec()
    blob = json.dumps(spec_dict(spec))
    d = json.loads(blob)
    assert d["type"] == "ruled"
    rebuilt = RuledSpec(
        curve_from_dict(d["curve"]),
        AngleField(curve_from_dict({"x": d["theta"], "y": [], "t": [], "domain": d["curve"]["domain"]}).x),
        tuple(d["v_range"]),
        name=d.get("name", ""),
    )
    assert rebuilt.curve == spec.curve
    assert rebuilt.angle == spec.angle
    assert rebuilt.v_range == spec.v_range


def test_curve_round_trip():
    curve = circle_lift_curve()
    ruled = RuledSpec(curve, AngleField(ts()), (0.1, 1.0))
    assert curve_from_dict(spec_dict(ruled)["curve"]) == curve


def test_term_from_dict_errors():
    with pytest.raises(SpecError):
        term_from_dict({"kind": "poly", "coeff": "x", "k": 1})
    with pytest.raises(SpecError):
        term_from_dict({"coeff": 1.0, "k": 1})
    for k in (1.7, True, "2", None, math.inf, 1e300, 10**400):
        with pytest.raises(SpecError, match="k must be an integer"):
            term_from_dict({"kind": "poly", "coeff": 1.0, "k": k})
    assert term_from_dict({"kind": "poly", "coeff": 1.0, "k": 2.0}).k == 2


def test_surface_from_dict_dispatch(tmp_path):
    spec = ruled_parabola_spec()
    direct = build_straight_ruled(spec)
    via_dict = surface_from_dict(spec_dict(spec))
    j1 = eval_jets(direct, [1.0], [0.5])[0]
    j2 = eval_jets(via_dict, [1.0], [0.5])[0]
    assert j1[0].tolist() == j2[0].tolist()
    assert j1[1].tolist() == j2[1].tolist()

    graph = surface_from_dict(
        {
            "type": "graph",
            "fu": [{"kind": "poly", "coeff": -1.0, "k": 2}],
            "fv": [{"kind": "poly", "coeff": 1.0, "k": 2}],
            "domain": {"u": [-1.0, 1.0], "v": [-1.0, 1.0]},
        }
    )
    assert local_H(graph, 0.5, 0.25) == 0.0

    named = surface_from_dict({"type": "catalog", "name": "cone_lower"})
    assert named.label == "cone_lower"

    with pytest.raises(SpecError, match="missing key"):
        surface_from_dict({"type": "ruled"})
    with pytest.raises(SpecError, match="unknown surface type"):
        surface_from_dict({"type": "torus"})
    with pytest.raises(SpecError):
        surface_from_dict([1, 2, 3])


def test_load_surface_file_reports_position(tmp_path):
    good = tmp_path / "patch.json"
    good.write_text(json.dumps(spec_dict(ruled_parabola_spec())))
    surf = load_surface_file(str(good))
    assert surf.domain.u_min == 0.5

    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "type": "ruled",\n  oops\n}\n')
    with pytest.raises(SpecError, match=r"broken\.json:3:3"):
        load_surface_file(str(bad))


def test_resolve_surface(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"type": "catalog", "name": "paraboloid"}))
    assert resolve_surface(str(path)).label == "paraboloid"
    assert resolve_surface("plane_t0").label == "plane_t0"
    with pytest.raises(UnknownName, match="catalog"):
        resolve_surface("no_such_thing")
