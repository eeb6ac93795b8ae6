"""Output checks for every benchmark call, at the acceptance tolerances.

A call fails on an unexpected exit code, a traceback, or an output that
fails its check.  Failures are counted, never filtered.  A failure that
matches one of two known defects carries its name; any other failure makes
the run incorrect.

* ``locus-grid-parity``: plane_t0 at an even grid finds no point, because
  an isolated characteristic point is caught only on a grid node.
* ``leaf-last-step``: a leaf ending in characteristic-proximity keeps a
  last step whose projected chord is short, which fails the straightness
  check at that end.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from workloads import H_MINIMAL, LEAF_DS, ruled_point, ruling_coeffs

H_TOL = 1e-10  # closed-form curvature (cone, cylinder)
MINIMAL_TOL = 1e-8  # |H| on H-minimal surfaces off the skip band
MINIMALITY_BAND = 1e-3  # skip ||N^h|| < band * (1 + ||d1||_F)
CONTACT_TOL = 1e-6  # contact residual of an emitted leaf
STRAIGHT_TOL = 1e-4  # planar second differences of a leaf on an H-minimal surface
LOCUS_TOL = 1e-6  # paraboloid locus |x + y|; ruled locus |c| relative
STOP_REASONS = ("domain-exit", "characteristic-proximity", "step-limit")

_TRACED_RE = re.compile(
    r"traced (\d+) points; stopped backward: (\S+), forward: (\S+)\s*$", re.M
)


@dataclass
class Failure:
    input: str
    reason: str
    known: str | None = None  # name of the known defect it matches


@dataclass
class Outcome:
    ops: int = 1  # operations the call stands for
    items: int = 0
    failures: list[Failure] = field(default_factory=list)


def check(call, code, out: str, err: str, traceback: str | None) -> Outcome:
    """Check one call's exit code and output."""
    res = Outcome()
    fail = lambda reason, known=None: res.failures.append(  # noqa: E731
        Failure(call.label, reason, known))
    if traceback is not None:
        fail("traceback: " + traceback.strip().splitlines()[-1])
        return res
    if call.kind == "verify":
        return _check_verify(call, code, out, res, fail)
    if code != 0:
        fail(f"exit code {code}: {err.strip()[-200:]}")
        return res
    try:
        {"eval": _check_eval, "flow": _check_flow, "locus": _check_locus}[call.kind](
            call, out, err, res, fail)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        fail(f"unparsable output: {type(exc).__name__}: {exc}")
    return res


def _rows(call, out: str) -> tuple[list[str], list[list[float]]]:
    """Columns and rows of a JSON or CSV report; null and nan become nan."""
    if call.fmt == "csv":
        lines = list(csv.reader(io.StringIO(out)))
        return lines[0], [[float(x) for x in row] for row in lines[1:]]
    report = json.loads(out)
    rows = [[math.nan if x is None else float(x) for x in row] for row in report["rows"]]
    return report["columns"], rows


# ---------------------------------------------------------------------------
# eval


def _check_eval(call, out, err, res, fail):
    nu, nv = call.grid
    res.items = nu * nv
    columns, rows = _rows(call, out)
    if len(rows) != nu * nv:
        fail(f"{len(rows)} rows, expected {nu * nv}")
        return
    a = np.array(rows).reshape(nu, nv, len(columns))
    col = {name: a[:, :, i] for i, name in enumerate(columns)}
    H = col["H"]
    if call.surface == "cone_lower":
        u = col["u"]
        ref = 1.0 / (u * (1.0 + 4.0 * u * u) ** 1.5)
        _bound(fail, "cone H vs 1/(u(1+4u^2)^1.5)", np.abs(H - ref), H_TOL)
    elif call.surface.startswith("cylinder("):
        radius = float(call.surface[len("cylinder("):-1])
        _bound(fail, f"cylinder H vs 1/{radius:g}", np.abs(H - 1.0 / radius), H_TOL)
    elif call.surface in H_MINIMAL:
        band = MINIMALITY_BAND * (1.0 + _d1_norm(col))
        keep = col["nh_norm"] >= band
        _bound(fail, "|H| off the skip band", np.abs(H[keep]), MINIMAL_TOL)


def _d1_norm(col) -> np.ndarray:
    """||(sigma_u, sigma_v)||_F from finite differences of the emitted points."""
    us, vs = col["u"][:, 0], col["v"][0, :]
    total = 0.0
    for c in ("x", "y", "t"):
        total = total + np.gradient(col[c], us, axis=0) ** 2 + np.gradient(col[c], vs, axis=1) ** 2
    return np.sqrt(total)


def _bound(fail, what: str, err: np.ndarray, tol: float) -> None:
    bad = ~(err <= tol)  # nan counts as a failure
    if bad.any():
        worst = float(np.nanmax(err)) if np.isfinite(err).any() else math.nan
        fail(f"{what}: {int(bad.sum())} points beyond {tol:g} (worst {worst:.3g})")


# ---------------------------------------------------------------------------
# flow


def _check_flow(call, out, err, res, fail):
    columns, rows = _rows(call, out)
    res.items = len(rows)
    m = _TRACED_RE.search(err)
    if m is None:
        fail("no stop reasons on stderr")
        return
    n, back, fwd = int(m.group(1)), m.group(2), m.group(3)
    if n != len(rows):
        fail(f"stderr reports {n} points, stdout has {len(rows)}")
    for side, reason in (("backward", back), ("forward", fwd)):
        if reason not in STOP_REASONS:
            fail(f"invalid {side} stop reason {reason!r}")
    if len(rows) < 3:
        return
    a = np.array(rows)
    x, y, t = (a[:, columns.index(c)] for c in ("x", "y", "t"))
    ds = LEAF_DS
    vx, vy, vt = ((c[2:] - c[:-2]) / (2.0 * ds) for c in (x, y, t))
    omega = vt + 2.0 * (x[1:-1] * vy - y[1:-1] * vx)
    _bound(fail, "contact residual", np.abs(omega), CONTACT_TOL)
    if call.surface not in H_MINIMAL:
        return
    second = np.hypot(*((c[2:] - 2.0 * c[1:-1] + c[:-2]) / (ds * ds) for c in (x, y)))
    bad = np.flatnonzero(~(second <= STRAIGHT_TOL)) + 1  # index of the middle point
    if bad.size:
        # The known defect: only the stencil at a leaf end that stopped in
        # characteristic-proximity fails.
        ends = set()
        if back == "characteristic-proximity":
            ends.add(1)
        if fwd == "characteristic-proximity":
            ends.add(len(rows) - 2)
        known = "leaf-last-step" if set(bad.tolist()) <= ends else None
        fail(f"planar second difference {float(np.nanmax(second)):.3g} > {STRAIGHT_TOL:g} "
             f"at points {bad.tolist()[:4]} of {len(rows)} (stops {back}/{fwd})", known)


# ---------------------------------------------------------------------------
# locus


def _check_locus(call, out, err, res, fail):
    nu, nv = call.grid
    res.items = nu * nv
    report = json.loads(out)
    rows = report["rows"]
    if report["count"] != len(rows):
        fail(f"count {report['count']} but {len(rows)} rows")
    pts = {c: [r[i] for r in rows] for i, c in enumerate(report["columns"])}
    if call.surface == "paraboloid":
        _paraboloid_locus(pts, nu, fail)
    elif call.surface == "plane_t0":
        if len(rows) == 1 and max(abs(pts[c][0]) for c in ("x", "y", "t")) <= 1e-12:
            return
        known = "locus-grid-parity" if not rows and (nu % 2 == 0 or nv % 2 == 0) else None
        fail(f"expected exactly the origin, got {len(rows)} points", known)
    elif call.surface == "cone_lower":
        if rows:
            fail(f"cone_lower has no characteristic point, got {len(rows)}")
    elif call.surface == "ruled":
        _ruled_locus(call.spec, pts, fail)


def _paraboloid_locus(pts, n, fail):
    """Points on x + y = 0 that cover the line across the domain."""
    if not pts["u"]:
        fail("no locus points")
        return
    off = max(abs(x + y) for x, y in zip(pts["x"], pts["y"]))
    if not off <= LOCUS_TOL:
        fail(f"|x + y| = {off:.3g} > {LOCUS_TOL:g}")
    # The locus is the diagonal v = -u of [-1.5, 1.5]^2; grid edges cross
    # it at least once per cell, so no gap along it exceeds a cell diagonal.
    h = 3.0 / (n - 1)
    us = sorted(pts["u"])
    gaps = [b - a for a, b in zip(us, us[1:])] + [us[0] + 1.5, 1.5 - us[-1]]
    if max(gaps) > 1.5 * h:
        fail(f"locus gap {max(gaps):.3g} along the characteristic line (cell {h:.3g})")


def _ruled_locus(spec, pts, fail):
    if not pts["u"]:
        fail("no locus points on a patch whose c(s, v) changes sign")
        return
    worst_c = worst_p = 0.0
    for s, v, x, y, t in zip(*(pts[c] for c in ("u", "v", "x", "y", "t"))):
        c0, c1, c2 = ruling_coeffs(spec, s)
        worst_c = max(worst_c, abs(c0 + v * (c1 + v * c2)) / (1.0 + abs(c0) + abs(c1) + abs(c2)))
        ref = ruled_point(spec, s, v)
        worst_p = max(worst_p, max(abs(a - b) / (1.0 + abs(b)) for a, b in zip((x, y, t), ref)))
    if not worst_c <= LOCUS_TOL:
        fail(f"locus point with relative |c(s, v)| = {worst_c:.3g} > {LOCUS_TOL:g}")
    if not worst_p <= 1e-9:
        fail(f"locus point off the surface by {worst_p:.3g}")


# ---------------------------------------------------------------------------
# verify


def _check_verify(call, code, out, res, fail):
    try:
        report = json.loads(out)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        fail(f"exit code {code}, unparsable report: {exc}")
        return res
    res.ops = res.items = max(len(checks), 1)
    for c in checks:
        if c["passed"] is not True:
            res.failures.append(Failure(
                f"{call.label} :: {c['name']}",
                f"stat {c['stat']} > tol {c['tol']} ({c['detail']})"))
    if not checks:
        fail("report lists no checks")
    if code != (0 if report.get("passed") else 1):
        fail(f"exit code {code} with passed={report.get('passed')}")
    return res
