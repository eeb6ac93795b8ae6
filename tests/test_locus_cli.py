"""Characteristic locus extraction and the command line front end."""

import json
import subprocess
import sys

import pytest

from heisflow.cli import main
from heisflow.locus import characteristic_locus


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

    def test_grid_validation(self, plane_t0):
        with pytest.raises(ValueError):
            characteristic_locus(plane_t0, grid=(1, 5))


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

    def test_bad_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "plane_t0", "--grid", "3by3"])
        assert exc.value.code == 2

    def test_eval_output_is_deterministic(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["eval", "cone_lower", "--grid", "7x7", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eps_char_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HEISFLOW_EPS_CHAR", "1e9")
        assert main(["eval", "cylinder", "--grid", "2x2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eps_char"] == 1e9
        assert all(r[-1] is None for r in report["rows"])

    def test_eps_char_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HEISFLOW_EPS_CHAR", "not-a-number")
        assert main(["eval", "cylinder", "--grid", "2x2"]) == 2
        assert main(["--eps-char", "1e-9", "eval", "cylinder", "--grid", "2x2"]) == 0

    def test_eps_char_must_be_positive(self, capsys):
        assert main(["--eps-char", "-1.0", "verify"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heisflow", "eval", "plane_t0", "--grid", "2x2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["surface"] == "plane_t0"
