#!/usr/bin/env python3
"""Trace a fan of horizontal flow leaves and measure their straightness.

Seeds a grid of leaves over the surface's parameter domain, integrates all
of them in both directions in one call, and reports the worst second
difference of the (x, y) projection per leaf.  On an H-minimal surface
every leaf projects to a straight segment, so the residual column is an
end-to-end integrator check.

Usage:
    python3 scripts/trace_leaves.py paraboloid --leaves 5 --csv leaves.csv
"""

from __future__ import annotations

import argparse
import csv
import math

import numpy as np

from heisflow.builders import resolve_surface
from heisflow.flow import integrate_flows


def straightness(points: np.ndarray) -> float:
    """Max second difference of the planar projection, 0.0 for short traces."""
    xy = points[:, :2]
    if len(xy) < 3:
        return 0.0
    return float(np.abs(np.diff(xy, n=2, axis=0)).max())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("surface", help="catalog name or surface JSON file")
    ap.add_argument("--leaves", type=int, default=5, help="seeds per axis")
    ap.add_argument("--ds", type=float, default=1e-3)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--csv", default=None, help="write all traced points here")
    args = ap.parse_args()

    surf = resolve_surface(args.surface)
    us, vs = surf.domain.interior_linspace(args.leaves, args.leaves)
    writer = None
    fh = None
    if args.csv:
        fh = open(args.csv, "w", newline="", encoding="utf-8")
        writer = csv.writer(fh)
        writer.writerow(["leaf", "s", "u", "v", "x", "y", "t"])

    print(f"{'seed':>18s} {'points':>7s} {'stops':>42s} {'max 2nd diff':>13s}")
    worst = 0.0
    leaf_id = 0
    seeds = [(u, v) for u in us.tolist() for v in vs.tolist()]
    traces = integrate_flows(surf, seeds, ds=args.ds, max_steps=args.steps)
    for (u, v), trace in zip(seeds, traces):
        if trace is None:
            print(f"({u:7.3f},{v:7.3f})  characteristic seed, skipped")
            continue
        resid = straightness(trace.points)
        worst = max(worst, resid)
        stops = f"{trace.stop_backward} / {trace.stop_forward}"
        print(f"({u:7.3f},{v:7.3f}) {len(trace):7d} {stops:>42s} {resid:13.3e}")
        if writer:
            for i in range(len(trace)):
                writer.writerow(
                    [leaf_id, trace.params[i], trace.uv[i, 0], trace.uv[i, 1]]
                    + [trace.points[i, k] for k in range(3)]
                )
        leaf_id += 1

    if fh:
        fh.close()
        print(f"wrote {args.csv}")
    print(f"worst second difference over {leaf_id} leaves: {worst:.3e}")
    return 0 if math.isfinite(worst) else 1


if __name__ == "__main__":
    raise SystemExit(main())
