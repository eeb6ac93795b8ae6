"""Characteristic locus extraction and the command line front end."""

import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisflow import cli, locus
from heisflow.builders import (
    CATALOG,
    catalog_get,
    random_ruled_patch,
    surface_from_dict,
)
from heisflow.cli import main
from heisflow.locus import LocusPoint, characteristic_locus
from heisflow.rng import Lcg64
from conftest import term_list
from scalar_curvature import scalar_jet, scalar_normal, scalar_threshold

# c(s, v) = 2 v (v - 2 sin s): the locus is the curve v = 2 sin s.
TURNING_LINE = {
    "type": "ruled",
    "name": "turning-line",
    "curve": {"x": [{"kind": "poly", "coeff": 1.0, "k": 1}], "y": [], "t": [], "domain": [0.0, 2.0]},
    "theta": [{"kind": "poly", "coeff": 1.0, "k": 1}],
    "v_range": [0.25, 1.25],
}


CIRCLE = {"x": term_list(("cos", 1.0, 1)), "y": term_list(("sin", 1.0, 1))}
LINE = {"x": term_list(("poly", 1.0, 1)), "y": [], "t": [], "domain": [0.0, 1.0]}
# Surface files that a builder refuses, with the message it gives.
REJECTED_FILES = {
    "developable-not-horizontal": (
        {"type": "developable", "curve": {**CIRCLE, "t": term_list(("poly", 2.0, 1)),
                                          "domain": [0.0, 2.0]}, "v_range": [0.1, 1.0]},
        "curve fails the contact condition at s = 0.0: omega(gamma') = 4.000e+00",
    ),
    "developable-not-unit-speed": (
        {"type": "developable",
         "curve": {"x": term_list(("cos", 1.0, 2)), "y": term_list(("sin", 1.0, 2)),
                   "t": term_list(("poly", -4.0, 1)), "domain": [0.0, 2.0]},
         "v_range": [0.1, 1.0]},
        "projected speed 2.0 at s = 0.0 is not 1; "
        "reparametrize the curve by horizontal arc length",
    ),
    "developable-straight": (
        {"type": "developable", "curve": LINE, "v_range": [0.1, 1.0]},
        "gamma'' vanishes somewhere; the tangent developable of a straight "
        "segment is not an immersed patch",
    ),
    "developable-zero-in-range": (
        {"type": "developable", "curve": {**CIRCLE, "t": term_list(("poly", -2.0, 1)),
                                          "domain": [0.0, 2.0]}, "v_range": [-0.5, 1.0]},
        "v range [-0.5, 1.0] contains 0, the singular edge of the developable",
    ),
    "cylinder-profile-not-plane": (
        {"type": "cylinder", "height": [-1.0, 1.0],
         "profile": {**CIRCLE, "t": term_list(("poly", 1.0, 1)), "domain": [0.0, 1.0]}},
        "cylinder profile must be a plane curve: t terms present",
    ),
    "cylinder-stalled-profile": (
        {"type": "cylinder", "height": [-1.0, 1.0],
         "profile": {"x": term_list(("poly", 1.0, 0)), "y": term_list(("poly", 2.0, 0)),
                     "domain": [0.0, 1.0]}},
        "profile speed vanishes near s = 0.0; cylinder not immersed",
    ),
    "ruled-degenerate": (
        {"type": "ruled", "curve": LINE, "theta": [], "v_range": [0.25, 1.0]},
        "induced-form coefficient vanishes identically; "
        "the ruled patch is characteristic everywhere",
    ),
    # (v cos s, v sin s, 0) with v through 0, where the patch folds
    "ruled-not-immersed": (
        {"type": "ruled", "curve": {"x": [], "y": [], "t": [], "domain": [0.0, 3.0]},
         "theta": term_list(("poly", 1.0, 1)), "v_range": [-1.0, 1.0]},
        "ruled: |sigma_u x sigma_v| <= 1e-08 at (u, v) = (3e-06, -1.1102230246251565e-16)",
    ),
}


def _bisect_edge(surface, ua, va, ga, ub, vb, gb, comp, refine):
    for _ in range(refine):
        um, vm = 0.5 * (ua + ub), 0.5 * (va + vb)
        gm = scalar_normal(scalar_jet(surface, um, vm))[comp]
        if gm == 0.0:
            return um, vm
        if (ga < 0.0) != (gm < 0.0):
            ub, vb, gb = um, vm, gm
        else:
            ua, va, ga = um, vm, gm
    return 0.5 * (ua + ub), 0.5 * (va + vb)


def reference_locus(surface, grid, refine=60, keep_tol=1e-8):
    """The per-point search, one scalar jet per node and per bisection step:
    the reference the batched characteristic_locus must match exactly."""
    nu, nv = grid
    us, vs = surface.domain.linspace(nu, nv)
    n1g = [[0.0] * nv for _ in range(nu)]
    n2g = [[0.0] * nv for _ in range(nu)]
    found = []

    def consider(u, v):
        j = scalar_jet(surface, u, v)
        q = scalar_normal(j)[2]
        if q <= scalar_threshold(j, keep_tol):
            x, y, t = j[0].tolist()
            found.append(LocusPoint(u, v, x, y, t, q))

    for i, u in enumerate(us):
        for k, v in enumerate(vs):
            j = scalar_jet(surface, float(u), float(v))
            n1, n2, q = scalar_normal(j)
            n1g[i][k] = n1
            n2g[i][k] = n2
            if q <= scalar_threshold(j, keep_tol):
                x, y, t = j[0].tolist()
                found.append(LocusPoint(float(u), float(v), x, y, t, q))

    def scan_edge(ua, va, ub, vb, comp_vals_a, comp_vals_b):
        for comp in (0, 1):
            ga, gb = comp_vals_a[comp], comp_vals_b[comp]
            if ga == 0.0 or gb == 0.0 or (ga < 0.0) == (gb < 0.0):
                continue
            ur, vr = _bisect_edge(surface, ua, va, ga, ub, vb, gb, comp, refine)
            consider(ur, vr)

    for i in range(nu):
        for k in range(nv):
            a = (n1g[i][k], n2g[i][k])
            if i + 1 < nu:
                b = (n1g[i + 1][k], n2g[i + 1][k])
                scan_edge(float(us[i]), float(vs[k]), float(us[i + 1]), float(vs[k]), a, b)
            if k + 1 < nv:
                b = (n1g[i][k + 1], n2g[i][k + 1])
                scan_edge(float(us[i]), float(vs[k]), float(us[i]), float(vs[k + 1]), a, b)

    found.sort(key=lambda p: (p.u, p.v))
    merge_u = 1e-6 * max(surface.domain.u_span, 1e-300)
    merge_v = 1e-6 * max(surface.domain.v_span, 1e-300)
    kept = []
    for p in found:
        if any(abs(p.u - q.u) <= merge_u and abs(p.v - q.v) <= merge_v for q in kept):
            continue
        kept.append(p)
    return kept


def as_bits(points):
    """LocusPoint fields as exact float reprs, so -0.0 and 0.0 differ."""
    return [tuple(map(float.hex, (p.u, p.v, p.x, p.y, p.t, p.nh_norm))) for p in points]


class TestLocus:
    def test_paraboloid_locus_on_antidiagonal(self, paraboloid):
        pts = characteristic_locus(paraboloid, grid=(61, 61))
        assert len(pts) > 50
        assert max(abs(p.x + p.y) for p in pts) <= 1e-6
        assert max(p.nh_norm for p in pts) <= 1e-6

    def test_plane_single_point_at_origin(self, plane_t0):
        pts = characteristic_locus(plane_t0, grid=(101, 101))
        assert len(pts) == 1
        p = pts[0]
        assert (p.u, p.v, p.x, p.y, p.t, p.nh_norm) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_locus_empty_off_characteristic_surfaces(self, cone, unit_cylinder):
        assert characteristic_locus(cone, grid=(31, 31)) == []
        assert characteristic_locus(unit_cylinder, grid=(31, 31)) == []

    @pytest.mark.parametrize("name", ["cylinder(1e200)", "cylinder(1e300)"])
    def test_locus_empty_on_cylinders_whose_threshold_sum_overflows(self, name):
        # the first partials pass 1.3e154, so the sum of their squares is inf;
        # the threshold then takes math.hypot's norm and flags no point
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert characteristic_locus(catalog_get(name), grid=(3, 3)) == []
            assert characteristic_locus(catalog_get(name), grid=(31, 31)) == []

    def test_grid_validation(self, plane_t0):
        with pytest.raises(ValueError):
            characteristic_locus(plane_t0, grid=(1, 5))

    # The paraboloid and turning-line cases stop many bisections at a
    # midpoint where the component is exactly zero, and keep those points.
    @pytest.mark.parametrize("grid", [(2, 2), (3, 7), (60, 61), (100, 100), (101, 101)])
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_matches_per_point_search(self, name, grid):
        surface = catalog_get(name)
        assert as_bits(characteristic_locus(surface, grid=grid)) == as_bits(
            reference_locus(surface, grid)
        )

    def test_random_ruled_match_per_point_search(self):
        for k in range(20):
            _, surface = random_ruled_patch(Lcg64(k))
            assert as_bits(characteristic_locus(surface, grid=(41, 37))) == as_bits(
                reference_locus(surface, (41, 37))
            ), k

    @pytest.mark.parametrize("grid", [(40, 37), (101, 101)])
    def test_random_ruled_match_per_point_search_at_refine_100(self, grid):
        for k in range(10):
            _, surface = random_ruled_patch(Lcg64(k))
            assert as_bits(characteristic_locus(surface, grid=grid, refine=100)) == as_bits(
                reference_locus(surface, grid, 100)
            ), k

    # Edges of small odd, even and mixed grids finish on different steps at
    # refine 60, so the live arrays are compacted in many orders; at refine
    # 0, 1 and 7 the roots are the brackets that no step finished.
    @given(st.integers(0, 2**64 - 1), st.integers(2, 15), st.integers(2, 15),
           st.sampled_from([0, 1, 7, 60]))
    def test_random_ruled_small_grids_match_per_point_search(self, seed, nu, nv, refine):
        _, surface = random_ruled_patch(Lcg64(seed))
        assert as_bits(characteristic_locus(surface, grid=(nu, nv), refine=refine)) == as_bits(
            reference_locus(surface, (nu, nv), refine)
        )

    @pytest.mark.parametrize("name", ["paraboloid", "turning-line"])
    def test_bisection_stops_once_every_edge_converges(self, name, monkeypatch):
        # At 101x101 every edge's bisection ends before step 60: on the
        # paraboloid at an exact root (by step 48), on the turning line also
        # at midpoints equal to an end.  More steps evaluate no more points
        # and change no bit.
        surface = surface_from_dict(TURNING_LINE) if name == "turning-line" else catalog_get(name)
        evaluated, midpoint_components = [0], locus._midpoint_components

        def counting(surface, u, v, second):
            evaluated[0] += len(u)
            return midpoint_components(surface, u, v, second)

        monkeypatch.setattr(locus, "_midpoint_components", counting)

        def run(refine):
            evaluated[0] = 0
            return as_bits(characteristic_locus(surface, grid=(101, 101), refine=refine)), evaluated[0]

        (_, n40), at60, at100 = run(40), run(60), run(100)
        assert at60 == at100
        assert n40 < at60[1]

    @pytest.mark.parametrize("refine", [0, 1, 20, 60, 100])
    @pytest.mark.parametrize("name", ["paraboloid", "turning-line"])
    def test_refine_matches_per_point_search(self, name, refine):
        surface = surface_from_dict(TURNING_LINE) if name == "turning-line" else catalog_get(name)
        got = characteristic_locus(surface, grid=(33, 29), refine=refine)
        assert as_bits(got) == as_bits(reference_locus(surface, (33, 29), refine))

    @pytest.mark.parametrize("grid, count", [("101x101", 128), ("100x100", 127), ("37x64", 74)])
    def test_turning_line_locus_on_closed_form_curve(self, tmp_path, capsys, grid, count):
        path = tmp_path / "turning-line.json"
        path.write_text(json.dumps(TURNING_LINE))
        assert main(["locus", str(path), "--grid", grid]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == count
        assert max(abs(v - 2.0 * math.sin(u)) for u, v, *_ in rows) <= 1e-12


class TestCli:
    def test_eval_json_marks_characteristic_points_null(self, capsys):
        assert main(["eval", "plane_t0", "--grid", "3x3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["columns"][-1] == "H"
        assert len(report["rows"]) == 9
        by_uv = {(r[0], r[1]): r for r in report["rows"]}
        assert by_uv[(0.0, 0.0)][-1] is None
        assert by_uv[(2.0, 2.0)][-1] == 0.0

    def test_eval_csv_row_count(self, capsys):
        assert main(["eval", "cylinder", "--grid", "4x5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 20
        assert lines[0].startswith("u,v,x,y,t,")

    def test_eval_subrange_validation(self, capsys):
        assert main(["eval", "plane_t0", "--urange", "1", "3"]) == 2
        assert "urange" in capsys.readouterr().err
        assert main(["eval", "plane_t0", "--vrange", "1", "-1"]) == 2

    def test_locus_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "locus.json"
        code = main(["locus", "paraboloid", "--grid", "21x21", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["count"] == len(report["rows"])
        assert all(abs(r[2] + r[3]) <= 1e-6 for r in report["rows"])

    def test_flow_subcommand(self, capsys):
        code = main(
            ["flow", "cylinder", "--seed", "1.0", "0.0", "--ds", "0.01", "--steps", "40"]
        )
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["seed_index"] == 40
        assert len(report["rows"]) == 81
        assert report["stop_forward"] == "step-limit"
        assert "traced 81 points" in captured.err

    def test_flow_characteristic_seed_exits_one(self, capsys):
        assert main(["flow", "plane_t0", "--seed", "0", "0"]) == 1
        assert "characteristic" in capsys.readouterr().err.lower()

    def test_flow_step_below_seed_resolution_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "flow", "paraboloid", "--seed", "0.5", "0.25",
             "--ds", "1e-17", "--steps", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "heisflow: ds = 1e-17 is below 2e = 3.3306690738754696e-16 at the seed (0.5, 0.25)\n"
        )

    def test_flow_seed_with_a_non_finite_field_exits_two(self, capsys):
        # the field components of this huge cylinder overflow at the seed;
        # without the check the flow reports a false domain exit
        argv = ["flow", "cylinder(1.5e308)", "--seed", "1.0", "0.3", "--steps", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "heisflow: the field is not finite at the seed (1.0, 0.3)\n"

    @pytest.mark.parametrize(
        "name, seed, ds, limit",
        [
            ("cone_lower", ("-1.9", "5.9"), "2.2539339047347933e-16", "3.819167204710538e-15"),
            ("circle_lift_developable", ("1.0", "0.5"), "1.2037516980200671e-16",
             "7.185514355744859e-16"),
        ],
    )
    def test_flow_tiny_step_under_twice_the_rounding_scale_exits_two(
        self, capsys, name, seed, ds, limit
    ):
        # steps this short move the seed, but without the limit both runs
        # stop falsely with characteristic-proximity, far from the locus
        assert main(["flow", name, "--seed", *seed, "--ds", ds, "--steps", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"heisflow: ds = {ds} is below 2e = {limit} at the seed ({seed[0]}, {seed[1]})\n"
        )

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "--suite", "examples"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True
        assert report["n_checks"] == captured.err.count("PASS ")

    @pytest.mark.parametrize(
        "spec, axis, hi",
        [
            ({"type": "graph", "domain": {"u": [-1, 1.2], "v": [-1, 1]}}, 0, 1.2),
            (
                {
                    "type": "developable",
                    "curve": {
                        "x": [{"kind": "cos", "coeff": 1.0, "k": 1}],
                        "y": [{"kind": "sin", "coeff": 1.0, "k": 1}],
                        "t": [{"kind": "poly", "coeff": -2.0, "k": 1}],
                        "domain": [0.0, 3.0],
                    },
                    "v_range": [-1.0, -0.1],
                },
                1,
                -0.1,
            ),
        ],
    )
    def test_eval_grid_ends_on_the_domain_edge(self, tmp_path, capsys, spec, axis, hi):
        # lo + (hi - lo) * i / (n - 1) lands one ulp past hi on these ranges
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(spec))
        for grid in ("25x25", "7x9", "2x2"):
            assert main(["eval", str(path), "--grid", grid]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert max(r[axis] for r in rows) == rows[-1][axis] == hi

    def test_verify_out_file_matches_stdout(self, tmp_path, capsys, monkeypatch):
        from heisflow import verify

        monkeypatch.setitem(verify.SUITES, "core", (verify.check_plane_map_ratio,))
        assert main(["verify", "--suite", "core"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "core", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_unknown_surface_exits_two(self, capsys):
        assert main(["eval", "no_such_surface"]) == 2
        assert "catalog" in capsys.readouterr().err

    def test_unknown_name_message_is_not_quoted(self, capsys):
        assert main(["eval", "nope"]) == 2
        assert capsys.readouterr().err == (
            "heisflow: 'nope' is neither a readable file nor a catalog name; "
            f"catalog: {', '.join(CATALOG)}\n"
        )

    @pytest.mark.parametrize(
        "name, err",
        [("cylinder(0)", "cylinder radius must be positive, got 'cylinder(0)'"),
         ("cylinder(inf)", "cylinder radius must be positive, got 'cylinder(inf)'"),
         ("cylinder(abc)", "bad cylinder radius in 'cylinder(abc)'")],
        ids=["zero", "inf", "abc"],
    )
    def test_cylinder_name_keeps_its_radius_message(self, capsys, name, err):
        assert main(["eval", name]) == 2
        assert capsys.readouterr().err == f"heisflow: {err}\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["eval", "cylinder(1e300)", "--grid", "5x5"], 0, ""),
            (["locus", "cylinder(1e300)"], 0, ""),
            (["flow", "cylinder(1e300)", "--seed", "1", "0"], 2,
             "heisflow: the field is not finite at the seed (1.0, 0.0)\n"),
        ],
    )
    def test_huge_finite_surface_raises_no_runtime_warning(self, capsys, argv, code, err):
        # the first-order formulas overflow to inf on this radius
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == code
        assert capsys.readouterr().err == err

    def test_regularity_check_overflow_raises_no_runtime_warning(self, tmp_path, capsys):
        # y = 1e300 s: sigma_u x sigma_v overflows to inf, a regular patch
        spec = {"type": "ruled", "theta": [], "v_range": [0.25, 1.25],
                "curve": {"x": [], "y": [{"kind": "poly", "coeff": 1e300, "k": 1}], "t": [],
                          "domain": [0.5, 2.0]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["locus", str(path), "--grid", "3x3"]) == 0

    def test_verify_core_at_eps_char_one_stops_at_the_reparam_check(self, capsys, monkeypatch):
        # a threshold scale of 1 flags cone points that the default leaves
        # alone; the reparam check's strict curvature scan of the base cone
        # names the first of them
        monkeypatch.setattr("heisflow.verify.EPS_CHAR", 1.0)
        monkeypatch.setattr("heisflow.curvature.EPS_CHAR", 1.0)
        assert main(["verify", "--suite", "core"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "heisflow: curvature undefined: ||N^h|| = 2.730e+00\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"fu": [{"kind": "poly", "coeff": 1.0, "k": 1e400}]}, "k must be an integer"),
            ({"fu": [{"kind": "poly", "coeff": 1.0, "k": 1.7}]}, "k must be an integer"),
            ({"fu": [{"kind": "sin", "coeff": 1.0, "k": True}]}, "k must be an integer"),
            ({"fu": [{"kind": "sin", "coeff": 1.0, "k": 1e300}]}, "k must be an integer"),
            ({"domain": [[-1, 1], [-1, 1]]}, "u and v pairs"),
            ({"domain": {"u": [-1, 1]}}, "u and v pairs"),
            ({"domain": {"u": [-1], "v": [-1, 1]}}, "increasing pair"),
            ({"domain": {"u": [-1, 10**400], "v": [-1, 1]}}, "increasing pair"),
            ({"fu": [{"kind": "poly", "coeff": 10**400, "k": 1}]}, "bad term entry"),
        ],
    )
    def test_malformed_surface_file_exits_two(self, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"type": "graph", "domain": {"u": [-1, 1], "v": [-1, 1]}, **spec})
        )
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "eval", str(path), "--grid", "2x2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", sorted(REJECTED_FILES))
    @pytest.mark.parametrize(
        "argv",
        [["eval"], ["locus"], ["flow", "--seed", "0.5", "0.5"]],
        ids=["eval", "locus", "flow"],
    )
    def test_file_a_builder_rejects_exits_two(self, tmp_path, capsys, case, argv):
        spec, message = REJECTED_FILES[case]
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(spec))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"heisflow: {message}\n"

    @pytest.mark.parametrize(
        "kind, message",
        [("directory", "cannot read {}: "), ("not-utf8", "{}: not UTF-8 text")],
        ids=["directory", "not-utf8"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["eval"], ["locus"], ["flow", "--seed", "0", "0"]],
        ids=["eval", "locus", "flow"],
    )
    def test_unreadable_surface_file_exits_two(self, tmp_path, kind, message, argv):
        path = tmp_path / "surface.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", argv[0], str(path), *argv[1:]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("heisflow: " + message.format(path))
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "graph", "domain": {"u": [0, 1e60], "v": [0, 1]},
             "fu": [{"kind": "poly", "coeff": 1, "k": 6}]},
            {**TURNING_LINE, "curve": {**TURNING_LINE["curve"], "domain": [0, 1e60],
                                       "t": [{"kind": "poly", "coeff": 1.0, "k": 6}]}},
        ],
        ids=["graph", "ruled"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--grid", "3x3"], ["locus", "--grid", "3x3"],
         ["flow", "--seed", "1e59", "0.5", "--steps", "3"]],
        ids=["eval", "locus", "flow"],
    )
    def test_overflowing_power_exits_two(self, tmp_path, spec, argv):
        # s**6 overflows at s = 1e59: the jet is non-finite, not an OverflowError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", argv[0], str(path), *argv[1:]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("heisflow: non-finite jet component in ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spec, bounds",
        [
            ({"type": "graph", "domain": {"u": [-1e308, 1e308], "v": [-1, 1]},
              "fu": term_list(("poly", 1.0, 1))}, (-1e308, 1e308, -1.0, 1.0)),
            ({**TURNING_LINE, "v_range": [-1e308, 1e308]}, (0.0, 2.0, -1e308, 1e308)),
            ({"type": "developable", "curve": {**CIRCLE, "t": term_list(("poly", -2.0, 1)),
                                               "domain": [-1e308, 1e308]}, "v_range": [0.5, 1.0]},
             (-1e308, 1e308, 0.5, 1.0)),
            ({"type": "cylinder", "height": [-1e308, 1e308],
              "profile": {**CIRCLE, "t": [], "domain": [0.0, 1.0]}}, (0.0, 1.0, -1e308, 1e308)),
        ],
        ids=["graph", "ruled", "developable", "cylinder"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["eval"], ["locus"], ["flow", "--seed", "0.5", "0.5", "--steps", "3"]],
        ids=["eval", "locus", "flow"],
    )
    def test_overflowing_domain_span_exits_two(self, tmp_path, spec, bounds, argv):
        # finite bounds whose difference overflows: the domain is refused
        # before any sample scan or grid spacing can read its span
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "heisflow", argv[0], str(path),
             *argv[1:]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"heisflow: domain spans must be finite, got {bounds!r}\n"

    def test_guard_reached_past_the_seed_exits_two(self, tmp_path):
        # the seed's jet is finite, and an RK4 stage past it takes cos past
        # the float range: the stage takes the generic slot, whose formula
        # runs as a batch of one, and the finite screen names its NaN, exit
        # exactly 2 and no RuntimeWarning
        path = tmp_path / "cos.json"
        path.write_text(json.dumps(
            {"type": "graph", "domain": {"u": [0, 1e293], "v": [0, 1]},
             "fu": [{"kind": "cos", "coeff": 1e-20, "k": 9007199254740992}]}
        ))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "heisflow", "flow", str(path),
             "--seed", "1.98e292", "0.5", "--ds", "1e290", "--steps", "1000"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "heisflow: non-finite jet component in value: "
            "array([2.0000000e+292, 5.0505081e-001,            nan])\n"
        )

    @pytest.mark.parametrize(
        "spec, seed",
        [
            ({"type": "graph", "domain": {"u": [0, 1e308], "v": [0, 1]},
              "fu": [{"kind": "sin", "coeff": 1, "k": 6}]}, "1e308"),
            ({"type": "ruled", "theta": [{"kind": "poly", "coeff": 1, "k": 6}],
              "v_range": [0.25, 1.25],
              "curve": {"x": [], "y": [{"kind": "poly", "coeff": 1, "k": 1}], "t": [],
                        "domain": [0.5, 1e60]}}, "5e59"),
        ],
        ids=["sin", "theta"],
    )
    @pytest.mark.parametrize("command", ["eval", "locus", "flow"])
    def test_trig_past_the_float_range_exits_two(self, tmp_path, capsys, spec, seed, command):
        # cos and sin of inf are NaN, so the jet is non-finite: no math domain error
        path = tmp_path / "trig.json"
        path.write_text(json.dumps(spec))
        argv = {
            "eval": ["eval", str(path), "--grid", "3x3"],
            "locus": ["locus", str(path), "--grid", "3x3"],
            "flow": ["flow", str(path), "--seed", seed, "0.5", "--steps", "3"],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heisflow: non-finite jet component in ")

    @pytest.mark.parametrize(
        "argv",
        [["eval"], ["locus"], ["flow", "--seed", "0.5", "0.5"]],
        ids=["eval", "locus", "flow"],
    )
    def test_overflowing_angle_sum_exits_with_the_finite_check(self, tmp_path, capsys, argv):
        # theta = 1e308 + 1e308 is inf, so the ruling direction and the
        # induced-form coefficients are NaN: the finite check names the jet
        # entry; the vanishing test must not call the patch characteristic
        spec = {**TURNING_LINE, "theta": term_list(("poly", 1e308, 0), ("poly", 1e308, 0))}
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "heisflow: non-finite jet component in value: array([nan, nan, nan])\n"

    def test_huge_finite_jets_give_null_curvature(self, tmp_path, capsys):
        # y = 1e300 s: the curvature sums meet inf - inf, which fsum rejects
        spec = {"type": "ruled", "theta": [], "v_range": [0.25, 1.25],
                "curve": {"x": [], "y": [{"kind": "poly", "coeff": 1e300, "k": 1}], "t": [],
                          "domain": [0.5, 2.0]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["eval", str(path), "--grid", "3x3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)["rows"]
        assert len(rows) == 9 and all(row[-1] is None for row in rows)

    def test_bad_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "plane_t0", "--grid", "3by3"])
        assert exc.value.code == 2

    def test_eval_output_is_deterministic(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["eval", "cone_lower", "--grid", "7x7", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_characteristic_threshold_is_not_an_option(self, capsys, monkeypatch):
        # the threshold scale is the constant EPS_CHAR: no flag sets it
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "--eps-char", "1e-9", "verify"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: heisflow")
        assert "Traceback" not in proc.stderr
        # and no environment variable either
        monkeypatch.delenv("HEISFLOW_EPS_CHAR", raising=False)
        assert main(["eval", "cylinder", "--grid", "2x2"]) == 0
        want = capsys.readouterr()
        monkeypatch.setenv("HEISFLOW_EPS_CHAR", "junk")
        assert main(["eval", "cylinder", "--grid", "2x2"]) == 0
        assert capsys.readouterr() == want
        assert json.loads(want.out)["eps_char"] == 1e-9

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "eval", "plane_t0", "--grid", "2x2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["surface"] == "plane_t0"


class TestOutputAndLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "paraboloid", "--grid", "3x3"],
            ["locus", "paraboloid", "--grid", "5x5"],
            ["flow", "paraboloid", "--seed", "0.3", "0.7", "--steps", "3"],
            ["verify", "--suite", "core"],
        ],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        from heisflow import verify

        monkeypatch.setitem(verify.SUITES, "core", (verify.check_plane_map_ratio,))
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"heisflow: cannot write {out}: No such file or directory\n")

    def test_unwritable_out_prints_no_traceback(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "flow", "paraboloid", "--seed", "0.3", "0.7",
             "--steps", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"heisflow: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv, ok",
        [
            (["locus", "paraboloid", "--refine", "-3"], False),
            (["locus", "paraboloid", "--refine", "0"], True),
            (["locus", "paraboloid", "--refine", str(cli.MAX_REFINE)], True),
            (["locus", "paraboloid", "--refine", str(cli.MAX_REFINE + 1)], False),
            (["locus", "paraboloid", "--refine", "100000000"], False),
            (["locus", "paraboloid", "--refine", "2.5"], False),
            (["flow", "paraboloid", "--seed", "0", "1", "--steps", "0"], False),
            (["flow", "paraboloid", "--seed", "0", "1", "--steps", "1"], True),
            (["flow", "paraboloid", "--seed", "0", "1", "--steps", str(cli.MAX_STEPS)], True),
            (["flow", "paraboloid", "--seed", "0", "1", "--steps", str(cli.MAX_STEPS + 1)], False),
            (["eval", "paraboloid", "--grid", "1x1"], True),
            (["eval", "paraboloid", "--grid", "0x5"], False),
            (["eval", "paraboloid", "--grid", f"{cli.MAX_GRID_AXIS}x{cli.MAX_GRID_AXIS}"], True),
            (["eval", "paraboloid", "--grid", f"{cli.MAX_GRID_AXIS + 1}x5"], False),
            (["locus", "paraboloid", "--grid", f"5x{cli.MAX_GRID_AXIS + 1}"], False),
        ],
    )
    def test_size_limits_by_parsing_alone(self, capsys, argv, ok):
        # parse only: an accepted limit value is never run
        parser = cli._build_parser()
        if ok:
            parser.parse_args(argv)
            return
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be between" in err or "invalid int value" in err

    @pytest.mark.parametrize(
        "argv, option, want",
        [
            (["flow", "paraboloid", "--seed", "-1e-3", "0.5"], "seed", [-1e-3, 0.5]),
            (["flow", "paraboloid", "--seed", "0.5", "-2.5e-1"], "seed", [0.5, -0.25]),
            (["flow", "paraboloid", "--seed", "-inf", "-1_0.5"], "seed", [-math.inf, -10.5]),
            (["eval", "paraboloid", "--urange", "-1e-1", "1"], "urange", [-0.1, 1.0]),
            (["eval", "paraboloid", "--vrange", "-5E-1", "-1e-2"], "vrange", [-0.5, -0.01]),
            (["flow", "paraboloid", "--seed", "0", "1", "--ds", "-1e-3"], "ds", -1e-3),
        ],
    )
    def test_negative_float_literals_are_values(self, argv, option, want):
        # argparse alone takes -1e-3 for an option and stops --seed short
        assert getattr(cli._build_parser().parse_args(argv), option) == want

    def test_negative_exponent_seed_runs_like_its_decimal_form(self, capsys):
        assert main(["flow", "paraboloid", "--seed", "-1e-3", "0.5", "--steps", "5"]) == 0
        got = capsys.readouterr()
        assert main(["flow", "paraboloid", "--seed", "-0.001", "0.5", "--steps", "5"]) == 0
        assert capsys.readouterr() == got
        assert main(["eval", "paraboloid", "--urange", "-1e-1", "1", "--grid", "3x3"]) == 0
        assert '"urange": [-0.10000000000000001, 1]' in capsys.readouterr().out

    def test_negative_exponent_ds_reaches_the_ds_check(self, capsys):
        argv = ["flow", "paraboloid", "--seed", "0.5", "0.5", "--ds", "-1e-3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "heisflow: ds must be positive and finite, got -0.001\n"

    def test_dash_word_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["flow", "paraboloid", "--seed", "-x", "0.5"])
        assert exc.value.code == 2
        assert "expected 2 arguments" in capsys.readouterr().err

    @given(st.lists(st.one_of(st.floats(), st.integers(), st.none(), st.booleans()), max_size=12))
    def test_json_rows_match_the_atom_writer(self, row):
        buf = io.StringIO()
        cli._json_dump(row, buf)
        want = "[" + ", ".join(cli._json_atom(v) for v in row) + "]" if row else "[]"
        assert buf.getvalue() == want

    @given(st.lists(st.floats(), min_size=1, max_size=12))
    def test_json_float_rows_match_the_atom_writer(self, row):
        # the second row is finite when the first is, but its sum overflows
        for r in (row, row + [1e308, 1e308]):
            buf = io.StringIO()
            cli._json_dump(r, buf)
            assert buf.getvalue() == "[" + ", ".join(map(cli._json_atom, r)) + "]"

    def test_cached_parser_gives_fresh_process_output(self, capsys, monkeypatch):
        # the parser is built once per process; argparse wraps usage text at
        # $COLUMNS, so both sides get the same width
        monkeypatch.setenv("COLUMNS", "80")
        flow_csv = ["flow", "paraboloid", "--seed", "0.3", "0.7", "--steps", "20", "--format", "csv"]
        calls = [
            flow_csv,
            ["eval", "paraboloid"],
            ["flow", "paraboloid", "--seed", "0.3", "0.7", "--steps", "0"],
            flow_csv,
        ]
        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "heisflow", *argv], capture_output=True, text=True
            )
            assert (code, captured.out, captured.err) == (
                proc.returncode, proc.stdout, proc.stderr
            ), argv
        assert codes == [0, 0, 2, 0]
        assert proc.stdout.startswith("s,u,v,x,y,t,arc\n")
