"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test drives the matching verification check at its stated tolerance
and prints a single line so a plain ``pytest -v -s`` run doubles as the
release checklist.  Statistics are worst-case over the check's sample set.
"""

import importlib
import pkgutil

import pytest

import heisflow
from heisflow.verify import (
    check_cone_curvature,
    check_contact_factor,
    check_core_invariants,
    check_cylinder_curvature,
    check_developable_minimality,
    check_flow_straightness,
    check_oracle_agreement,
    check_paraboloid_locus,
    check_paraboloid_minimality,
    check_plane_map_ratio,
    check_random_ruled_minimality,
    check_ruled_form_identity,
)

SEED = 0


def _run(check_fn):
    results = check_fn(SEED)
    assert results, "check produced no results"
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: stat={r.stat:.3e} tol={r.tol:.1e} n={r.count}")
    bad = [r for r in results if not r.passed]
    assert not bad, "; ".join(f"{r.name} stat={r.stat} tol={r.tol}" for r in bad)
    return results


def test_cylinder_family_curvature_within_1e10():
    # |H - 1/R| <= 1e-10 for R in {0.5, 1, 2, 5} over 101 x 101 grids
    results = _run(check_cylinder_curvature)
    assert all(r.tol == 1e-10 for r in results)
    assert all(r.count >= 101 * 101 for r in results)


def test_cone_curvature_and_unit_normal_within_1e10():
    # closed forms: H = 1/(u (1 + 4 u^2)^{3/2}) and the unit normal components
    results = _run(check_cone_curvature)
    assert all(r.tol == 1e-10 for r in results)
    names = {r.name for r in results}
    assert any("normal" in n for n in names)


def test_paraboloid_locus_and_minimality():
    # refined locus points satisfy |x + y| <= 1e-6; |H| <= 1e-8 off the locus
    locus = _run(check_paraboloid_locus)
    assert all(r.tol <= 1e-6 for r in locus)
    minimal = _run(check_paraboloid_minimality)
    assert all(r.tol == 1e-8 for r in minimal)


def test_random_ruled_surfaces_are_minimal():
    # 100 seeded random ruled specs, |H| <= 1e-8 on non-characteristic grids
    results = _run(check_random_ruled_minimality)
    assert all(r.tol == 1e-8 for r in results)
    assert sum(r.count for r in results) >= 100


def test_flow_leaves_project_to_straight_lines():
    # second difference of leaf projections <= 1e-4 on every catalog
    # surface with vanishing curvature
    results = _run(check_flow_straightness)
    assert all(r.tol == 1e-4 for r in results)


def test_flow_oracle_matches_local_curvature():
    # |H_local - kappa_s(flow projection)| <= 1e-3, 200 random points/surface
    results = _run(check_oracle_agreement)
    assert all(r.tol == 1e-3 for r in results)
    assert sum(r.count for r in results) >= 1400  # 200 per catalog surface


def test_ruled_form_identity():
    # induced form is (eta, 0) and ||N^h|| = |eta| to 1e-10 relative
    results = _run(check_ruled_form_identity)
    assert all(r.tol == 1e-10 for r in results)
    assert sum(r.count for r in results) >= 10_000


def test_contact_factor_and_plane_map():
    # pullback factor matches the direct ratio to 1e-10; the plane map
    # (0, u, v) -> (uv, u, 0) carries the form with ratio -2 u^2
    _run(check_contact_factor)
    _run(check_plane_map_ratio)


def test_circle_lift_developable_is_minimal():
    # curvature-1 horizontal unit-speed lift builds; |H| <= 1e-8 on its grid
    results = _run(check_developable_minimality)
    assert all(r.tol <= 1e-8 for r in results)


def test_core_algebraic_invariants():
    # group axioms, gauge, contact kernel, wedge and J identities, 1e4 samples
    results = _run(check_core_invariants)
    assert sum(r.count for r in results) >= 10_000


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(heisflow.__path__) if m.name[0] != "_")
)
def test_every_public_name_resolves(module):
    # the benchmark's traced run looks up every name of each layer's __all__
    mod = importlib.import_module(f"heisflow.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
