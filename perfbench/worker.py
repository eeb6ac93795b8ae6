"""One workload run in a fresh process; started by run.py, not by hand.

Modes:
  setup  generate the inputs, report when set-up ended, exit;
  run    untraced passes over the workload's calls: as many as fit in
         --seconds at the workload's nominal pass time, at least one; the
         run time is the sum over calls of each call's median latency in
         reference seconds (see cpuspeed.py);
  trace  one pass with the span wrappers installed, its calls probed only
         before and after.

Each call goes through ``heisflow.cli.main(argv)`` in this process with
stdout and stderr captured in memory.  The last line of stdout is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy

import checks
import cpuspeed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def _call(cli, argv, clock):
    """Run one CLI call; returns (exit code, stdout, stderr, traceback, wall s, reference s)."""
    out, err = io.StringIO(), io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv), None
            except SystemExit as exc:
                return (exc.code if isinstance(exc.code, int) else 2), None
            except Exception:  # a traceback is a failed operation, not a crash
                return None, traceback.format_exc()

    (code, tb), wall_s, ref_s = clock.time(run)
    return code, out.getvalue(), err.getvalue(), tb, wall_s, ref_s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import heisflow
    import heisflow.cli as cli

    if not os.path.abspath(heisflow.__file__).startswith(SRC + os.sep):
        print(f"worker: heisflow imported from {heisflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        inputs = workloads.build(args.workload, args.seed, work_dir)
        ready_at = time.monotonic()
        report = {
            "ready_at": ready_at,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "digest": inputs.digest(),
            "files": len(inputs.files),
            "redraws": inputs.redraws,
            "locus_redraws": inputs.locus_redraws,
        }
        if args.mode != "setup":
            report.update(_measure(args, cli, inputs))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only if no other worker is using it
    print(json.dumps(report))
    return 0


def _one_pass(cli, inputs, sample):
    """Call every input once, then check the outputs.

    Returns the per-call wall seconds, the per-call reference seconds, the
    peak RSS in MiB read after the calls and before the checks, the check
    outcomes and the bytes written.  The outputs die with this frame, so a
    pass never holds the previous pass's output.
    """
    cpuspeed.pin_fastest_cpu()
    clock = cpuspeed.RefClock(sample)
    results = [_call(cli, call.argv, clock) for call in inputs.calls]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [checks.check(call, *r[:4]) for call, r in zip(inputs.calls, results)]
    out_bytes = sum(len(r[1].encode()) + len(r[2].encode()) for r in results)
    return [r[4] for r in results], [r[5] for r in results], rss_mb, outcomes, out_bytes


def _measure(args, cli, inputs) -> dict:
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.install()
    passes = 1 if tracer else max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
    wall, ref = [], []  # [pass][call] seconds
    attempted = failed = 0
    failures: dict[tuple, dict] = {}
    while len(wall) < passes:
        # The traced pass is timed without probes inside its calls, so that
        # no probe lands in a span.
        wall_s, ref_s, rss_mb, outcomes, out_bytes = _one_pass(cli, inputs, tracer is None)
        wall.append(wall_s)
        ref.append(ref_s)
        if len(wall) == 1:  # before any check ran; later passes add only fragmentation
            peak_rss_mb = rss_mb
        for res in outcomes:
            attempted += res.ops
            failed += min(len(res.failures), res.ops)
            for f in res.failures:
                entry = failures.setdefault(
                    (f.input, f.reason), {"input": f.input, "reason": f.reason,
                                          "known": f.known, "passes": 0})
                entry["passes"] += 1
    call_s = [statistics.median(col) for col in zip(*ref)]
    out = {
        "passes": passes,
        "run_s": sum(call_s),
        "wall_run_s": sum(statistics.median(col) for col in zip(*wall)),
        "call_ms": [1e3 * t for t in call_s],
        "calls": len(inputs.calls),
        "peak_rss_mb": peak_rss_mb,
        "items": sum(res.items for res in outcomes),
        "attempted": attempted,
        "failed": failed,
        "failures": list(failures.values()),
    }
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, out["items"], out_bytes)
        out["layers"] = {k: list(vu) for k, vu in metrics.items()}
        out["spans"] = tracer.dump()
    return out


if __name__ == "__main__":
    sys.exit(main())
