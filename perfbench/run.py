"""heisflow benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload {grid,leaves,locus,verify,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in fresh single-threaded
worker processes (perfbench/worker.py) that import ``heisflow`` from
``src/`` and call ``heisflow.cli.main(argv)`` on inputs generated from the
seed.  Every output is checked.  The report lists each metric with its
unit, every failed operation by its input, and the provenance of the run;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced pass plus the tracing overhead.
``correct`` is false when any failure is not one of the known defects in
perfbench/checks.py; known failures still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import cpuspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "leaves", "locus", "verify")
SETUP_PROBES = 5  # set-up-only worker processes per run
DEADLINE_S = 170.0
SPANS_SHOWN = 15
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one worker process; returns (spawn time, its report)."""
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def _provenance(seed: int, worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:  # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            commit = head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": worker["python"], "numpy": worker["numpy"], "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "seed": seed}


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Measure one workload; returns (report lines, result object)."""
    lines = []
    extra = {}
    if trace:
        _, plain = _spawn(workload, seed, "run", 0.0, deadline)
        _, measured = _spawn(workload, seed, "trace", 0.0, deadline)
        metrics = {k: tuple(v) for k, v in measured["layers"].items()}
        metrics["trace.overhead_s"] = (measured["run_s"] - plain["run_s"], "s")
        lines.append(f"traced pass {measured['run_s']:.3f} s, untraced pass {plain['run_s']:.3f} s; "
                     "heaviest spans by self time (name <- parent: calls, total s, self s):")
        lines += [f"    {n} <- {p}: {c}, {tot:.4f}, {own:.4f}"
                  for n, p, c, tot, own in measured["spans"][:SPANS_SHOWN]]
    else:
        setup, setup_wall = [], []
        for _ in range(SETUP_PROBES):
            cpuspeed.pin_fastest_cpu()  # the worker inherits this CPU
            before = cpuspeed.probe_s()
            started, probe = _spawn(workload, seed, "setup", 0.0, deadline)
            setup_wall.append(probe["ready_at"] - started)
            setup.append(cpuspeed.to_ref(setup_wall[-1], [before, cpuspeed.probe_s()]))
        cpuspeed.unpin()
        _, measured = _spawn(workload, seed, "run", seconds, deadline)
        run_s = measured["run_s"]
        calls = measured["call_ms"]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "items_per_s": (measured["items"] / run_s, "items/s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MiB"),
        }
        # Printed, not gated: raw wall times, and call percentiles, which
        # only the leaves workload has enough calls (100) to make steady.
        extra = {"wall_setup_s": (statistics.median(setup_wall), "s"),
                 "wall_run_s": (measured["wall_run_s"], "s"),
                 "call_p50_ms": (statistics.median(calls), "ms"),
                 "call_p90_ms": (_percentile(calls, 90), "ms")}
        lines.append(f"{measured['passes']} pass(es) of {measured['calls']} calls; times in "
                     f"reference seconds (cpuspeed.py) unless marked wall; call percentiles "
                     f"over the {len(calls)} calls' median latencies; set-up median of "
                     f"{len(setup)} process starts")
    prov = _provenance(seed, measured)
    lines.insert(0, "provenance " + json.dumps(prov))
    lines.insert(1, f"inputs sha256={measured['digest']} files={measured['files']} "
                    f"redraws={measured['redraws']} (not regular) "
                    f"+ {measured['locus_redraws']} (locus not spanning the patch)")
    attempted, failed = measured["attempted"], measured["failed"]
    lines.append(f"  {'failed_frac':<40} {failed / attempted:<22.6g} ratio "
                 f"({failed} of {attempted} operations)")
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {name:<40} {value:<22.10g} {unit}")
    unknown = [f for f in measured["failures"] if not f["known"]]
    for f in measured["failures"]:
        tag = f"known: {f['known']}" if f["known"] else "UNEXPECTED"
        lines.append(f"  FAILED [{tag}] {f['input']}: {f['reason']} "
                     f"({f['passes']} pass(es))")
    result = {
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "heisflow", "cli.py")):
        print(f"run.py: no heisflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"== {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
                  flush=True)
            deadline = time.monotonic() + DEADLINE_S
            lines, results[name] = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), deadline)
            print("\n".join(lines))
            if len(names) > 1:
                print(json.dumps(results[name]), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
