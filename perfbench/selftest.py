"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Corrupted outputs fail their checks: one H moved by 1e-6, a dropped
   row or locus point, a non-zero exit, a traceback, a failed verify check.
2. Every count metric of the traced run repeats exactly across two traced
   runs with seed 0, on every workload.
Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import heisflow.cli as cli  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Call, draw_ruled, ruled_point, ruling_coeffs  # noqa: E402
from cpuspeed import RefClock  # noqa: E402
from worker import _call  # noqa: E402

SEED = 0
FAILED = []
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = {m["name"] for m in json.load(_fh)["per_layer"]}


def expect(name: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + name)
    if not ok:
        FAILED.append(name)


def _run(call: Call):
    return _call(cli, call.argv, RefClock())[:4]


def _outcome(call, code, out, err, tb=None):
    return checks.check(call, code, out, err, tb).failures


def _edit_json(out: str, edit) -> str:
    report = json.loads(out)
    edit(report)
    return json.dumps(report)


def corrupted_outputs_fail() -> None:
    cone = Call("eval", "cone_lower", ["eval", "cone_lower", "--grid", "9x9"], (9, 9))
    code, out, err, tb = _run(cone)
    expect("cone eval passes", not _outcome(cone, code, out, err, tb))

    def bump_h(r):
        r["rows"][40][-1] += 1e-6

    expect("cone H moved by 1e-6 fails", bool(_outcome(cone, 0, _edit_json(out, bump_h), err)))
    expect("dropped eval row fails",
           bool(_outcome(cone, 0, _edit_json(out, lambda r: r["rows"].pop()), err)))
    expect("non-zero exit fails", bool(_outcome(cone, 1, out, err)))
    failures = _outcome(cone, None, "", "", "Traceback ...\nZeroDivisionError: x")
    expect("traceback fails", bool(failures) and failures[0].known is None)

    para = Call("eval", "paraboloid", ["eval", "paraboloid", "--grid", "21x21"], (21, 21))
    code, out, err, tb = _run(para)
    expect("paraboloid eval passes", not _outcome(para, code, out, err, tb))

    def bump_min(r):
        r["rows"][30][-1] = 1e-6  # (u, v) = (-1.35, -0.15), far from u + v = 0

    expect("minimal-surface H moved by 1e-6 fails",
           bool(_outcome(para, 0, _edit_json(out, bump_min), err)))

    csv_call = Call("eval", "cylinder(2.0)",
                    ["eval", "cylinder(2.0)", "--grid", "5x5", "--format", "csv"], (5, 5), "csv")
    code, out, err, tb = _run(csv_call)
    expect("csv cylinder eval passes", not _outcome(csv_call, code, out, err, tb))
    lines = out.splitlines()
    last = lines[-1].split(",")
    last[-1] = repr(float(last[-1]) + 1e-6)
    bad = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    expect("csv cylinder H moved by 1e-6 fails", bool(_outcome(csv_call, 0, bad, err)))

    locus = Call("locus", "paraboloid", ["locus", "paraboloid", "--grid", "101x101"], (101, 101))
    code, out, err, tb = _run(locus)
    expect("paraboloid locus passes", not _outcome(locus, code, out, err, tb))

    def drop_point(r):
        del r["rows"][len(r["rows"]) // 2]
        r["count"] -= 1

    expect("dropped locus point fails",
           bool(_outcome(locus, 0, _edit_json(out, drop_point), err)))

    plane = Call("locus", "plane_t0", ["locus", "plane_t0", "--grid", "101x101"], (101, 101))
    code, out, err, tb = _run(plane)
    expect("plane_t0 odd-grid locus passes", not _outcome(plane, code, out, err, tb))

    def drop_all(r):
        r["rows"], r["count"] = [], 0

    failures = _outcome(plane, 0, _edit_json(out, drop_all), err)
    expect("plane_t0 odd grid without the origin fails as an unknown failure",
           bool(failures) and failures[0].known is None)

    spec = draw_ruled(random.Random(7), "ruled-selftest")
    ruled_locus = Call("locus", "ruled", [], (41, 41), spec=spec)
    c0, c1, c2 = ruling_coeffs(spec, 1.0)
    fake = {"count": 1, "columns": ["u", "v", "x", "y", "t", "nh_norm"],
            "rows": [[1.0, 0.5, *ruled_point(spec, 1.0, 0.5), 0.0]]}
    expect(f"ruled locus point with c = {c0 + 0.5 * (c1 + 0.5 * c2):.3g} fails",
           bool(_outcome(ruled_locus, 0, json.dumps(fake), "")))

    leaf = Call("flow", "paraboloid",
                ["flow", "paraboloid", "--seed", "0.3", "0.8", "--steps", "50", "--format", "csv"],
                fmt="csv")
    code, out, err, tb = _run(leaf)
    expect("paraboloid leaf passes", not _outcome(leaf, code, out, err, tb))
    rows = out.splitlines()
    mid = rows[30].split(",")
    mid[5] = repr(float(mid[5]) + 1e-6)  # t
    bad = "\n".join(rows[:30] + [",".join(mid)] + rows[31:]) + "\n"
    expect("leaf with t moved by 1e-6 fails the contact check", bool(_outcome(leaf, 0, bad, err)))
    expect("leaf with an invalid stop reason fails",
           bool(_outcome(leaf, 0, out, err.replace("step-limit", "gave-up"))))

    verify = Call("verify", "all", ["verify", "--suite", "core"])
    code, out, err, tb = _run(verify)
    expect("verify core passes", not _outcome(verify, code, out, err, tb))

    def fail_check(r):
        r["checks"][0]["passed"] = False
        r["passed"] = False

    expect("a failed verify check fails",
           bool(_outcome(verify, 1, _edit_json(out, fail_check), err)))


COUNT_SUFFIXES = (".calls", ".points", ".char_rejects")


def is_count(name: str) -> bool:
    return (name.endswith(COUNT_SUFFIXES) or ".jets_per_" in name
            or name.startswith("flow.stop."))


def counts_repeat(seed: int, names: list[str]) -> None:
    for workload in names:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "1"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                expect(f"{workload}: traced run exits 0", False)
                print(proc.stderr[-2000:])
                break
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        if len(runs) < 2:
            continue
        expect(f"{workload}: traced metrics are the per_layer list of BENCHMARK.json",
               set(runs[0]) == PER_LAYER)
        counts = sorted(k for k in runs[0] if is_count(k))
        differ = [k for k in counts if runs[0][k]["value"] != runs[1][k]["value"]]
        expect(f"{workload}: {len(counts)} count metrics repeat exactly"
               + (f" (differ: {differ})" if differ else ""), not differ)


def main() -> int:
    corrupted_outputs_fail()
    counts_repeat(SEED, WORKLOADS)
    print(f"{len(FAILED)} self-test(s) failed" if FAILED else "all self-tests passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
