#!/usr/bin/env python3
"""Survey every catalog surface: curvature range, locus size, minimality.

Prints one row per surface.  The H column shows the observed range of the
mean curvature over an evaluation grid (characteristic points skipped);
``locus`` counts the characteristic points a 101 x 101 sign-tracking scan
finds; ``max|H|`` is reported only where the surface is expected minimal.

Usage:
    python3 scripts/catalog_report.py [--grid N] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import math

from heisflow.builders import CATALOG, H_MINIMAL_CATALOG, catalog_get
from heisflow.curvature import curvature_scan, is_h_minimal
from heisflow.locus import characteristic_locus
from heisflow.patch import grid_points


def survey(name: str, grid: int) -> dict:
    surf = catalog_get(name)
    u, v = grid_points(*surf.domain.linspace(grid, grid))
    scan = curvature_scan([surf], u, v, strict=False)
    h = scan.H[~scan.char].tolist()
    # min and max keep the first of equal values (0.0 before -0.0), as a
    # running fold over the grid does
    h_lo, h_hi = min([math.inf, *h]), max([-math.inf, *h])
    skipped = int(scan.char.sum())
    row = {
        "name": name,
        "domain": [
            surf.domain.u_min,
            surf.domain.u_max,
            surf.domain.v_min,
            surf.domain.v_max,
        ],
        "h_min": h_lo,
        "h_max": h_hi,
        "grid_points_skipped": skipped,
        "locus_points": len(characteristic_locus(surf, grid=(101, 101))),
    }
    if name in H_MINIMAL_CATALOG:
        report = is_h_minimal(surf, grid=(grid, grid))
        row["max_abs_h"] = report.max_abs_H
        row["is_minimal"] = report.passed
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=61, help="evaluation grid per axis")
    ap.add_argument("--json", default=None, help="also write rows to this JSON file")
    args = ap.parse_args()

    rows = [survey(name, args.grid) for name in sorted(CATALOG)]
    header = f"{'surface':26s} {'H range':>24s} {'locus':>6s} {'minimal':>18s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        h_range = f"[{row['h_min']:+.3e}, {row['h_max']:+.3e}]"
        if "max_abs_h" in row:
            minimal = f"max|H|={row['max_abs_h']:.2e}"
        else:
            minimal = "-"
        print(f"{row['name']:26s} {h_range:>24s} {row['locus_points']:6d} {minimal:>18s}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
