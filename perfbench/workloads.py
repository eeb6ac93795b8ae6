"""Seeded inputs for the benchmark workloads.

Every input is derived from the benchmark seed: the ruled-surface files
(README ``ruled`` format), the flow-leaf seeds and the ``verify --seed``.
The program under test only ever sees the generated argv and files.  The
ruled surfaces are drawn here, not through ``heisflow.builders``, so that a
change to the program's own random generator cannot change the inputs; the
program is asked only whether a draw is regular, and a rejected draw is
redrawn and counted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid", "leaves", "locus", "verify")

# Wall seconds one pass takes on the 2-vCPU VM the benchmark was tuned on,
# in its slower phases.  A run makes round(--seconds / this) passes, at
# least one: a count fixed in advance, so that the median-of-passes
# estimate does not depend on how fast the host happens to be.
NOMINAL_PASS_S = {"grid": 6.5, "leaves": 6.5, "locus": 10.0, "verify": 19.0}

# Parameter rectangles of the catalog surfaces, (u_min, u_max, v_min, v_max).
TWO_PI = 2.0 * math.pi
DOMAINS = {
    "paraboloid": (-1.5, 1.5, -1.5, 1.5),
    "plane_flow_patch": (0.0, 3.0, 0.2, 2.0),
    "circle_lift_developable": (0.0, TWO_PI, 0.1, 1.2),
    "cone_lower": (-2.0, -0.5, 0.0, TWO_PI),
    "cylinder(1.0)": (0.0, TWO_PI, -1.0, 1.0),
}
RULED_DOMAIN = (0.0, 2.0, 0.25, 1.25)

# Surfaces whose horizontal mean curvature vanishes identically; ruled
# files are straight ruled and therefore belong here too.
H_MINIMAL = ("paraboloid", "plane_flow_patch", "circle_lift_developable", "ruled")

LEAF_SURFACES = (
    "paraboloid",
    "plane_flow_patch",
    "circle_lift_developable",
    "cone_lower",
    "cylinder(1.0)",
    "ruled",
)
N_LEAVES = 100
LEAF_STEPS = 150
LEAF_DS = 1e-3  # the CLI default; the checks need it
LEAF_INSET = 0.05  # seeds lie inside the central 90% of each axis

GRID_CALLS = (
    ("paraboloid", 121, "json"),
    ("cone_lower", 81, "json"),
    ("circle_lift_developable", 81, "json"),
    ("cylinder(2.0)", 81, "csv"),
    ("ruled", 41, "json"),
)
LOCUS_SURFACES = ("paraboloid", "plane_t0", "cone_lower", "ruled", "ruled", "ruled")
LOCUS_GRIDS = (101, 100)


@dataclass
class Call:
    """One CLI invocation and what its checks need to know about it."""

    kind: str  # eval | flow | locus | verify
    surface: str  # catalog name, or the file name of a ruled surface
    argv: list[str]
    grid: tuple[int, int] = (0, 0)
    fmt: str = "json"
    spec: dict | None = None  # generated ruled surface, for the checks

    @property
    def label(self) -> str:
        """The argv with file paths reduced to file names."""
        return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in self.argv)


@dataclass
class Inputs:
    calls: list[Call]
    files: dict[str, str] = field(default_factory=dict)  # file name -> text
    redraws: int = 0  # ruled draws the program rejected as not regular
    locus_redraws: int = 0  # ruled draws whose locus curve does not span the patch

    def digest(self) -> str:
        """sha256 over the argv (file names, not paths) and file contents."""
        h = hashlib.sha256()
        for call in self.calls:
            h.update(call.label.encode())
            h.update(b"\n")
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# ruled surfaces


def _term(kind: str, coeff: float, k: int) -> dict:
    return {"kind": kind, "coeff": coeff, "k": k}


def draw_ruled(rng: random.Random, name: str, quarter_turn: bool = False) -> dict:
    """A smooth ruled surface over a base curve, in the README file format.

    x = xc + xs s + xa cos(kx s), y = yc + ys s + ya sin(ky s),
    t = ts s + ta sin(kt s), theta = th0 + th1 s + tha sin s on s in [0, 2].

    With ``quarter_turn`` th1 is set so that theta turns by exactly pi/2
    over the patch.  The components n1 ~ c sin(theta) and n2 ~ c cos(theta)
    of the horizontal normal then have exactly one zero line besides the
    locus, where a free th1 gives zero to two; that fixes most of the
    locus search's bisection work.
    """
    u = rng.uniform
    k = lambda: rng.choice((1, 2))  # noqa: E731
    s0, s1, v0, v1 = RULED_DOMAIN
    spec = {
        "type": "ruled",
        "name": name,
        "curve": {
            "x": [_term("poly", u(-1.5, 1.5), 0), _term("poly", u(-1.5, 1.5), 1),
                  _term("cos", u(-1.0, 1.0), k())],
            "y": [_term("poly", u(-1.5, 1.5), 0), _term("poly", u(-1.5, 1.5), 1),
                  _term("sin", u(-1.0, 1.0), k())],
            "t": [_term("poly", u(-1.5, 1.5), 1), _term("sin", u(-1.0, 1.0), k())],
            "domain": [s0, s1],
        },
        "theta": [_term("poly", u(0.0, TWO_PI), 0), _term("poly", u(0.4, 1.2), 1),
                  _term("sin", u(-0.5, 0.5), 1)],
        "v_range": [v0, v1],
    }
    if quarter_turn:
        tha = spec["theta"][2]["coeff"]
        spec["theta"][1]["coeff"] = (0.5 * math.pi - tha * (math.sin(s1) - math.sin(s0))) / (s1 - s0)
    return spec


def _sum_jet1(terms: list[dict], s: float) -> tuple[float, float]:
    f = f1 = 0.0
    for t in terms:
        c, k = t["coeff"], t["k"]
        if t["kind"] == "poly":
            f += c * s**k
            f1 += c * k * s ** (k - 1) if k else 0.0
        elif t["kind"] == "cos":
            f += c * math.cos(k * s)
            f1 -= c * k * math.sin(k * s)
        else:
            f += c * math.sin(k * s)
            f1 += c * k * math.cos(k * s)
    return f, f1


def ruled_point(spec: dict, s: float, v: float) -> tuple[float, float, float]:
    """sigma(s, v) = gamma(s) + v (a, b, 2 (y a - x b)), a + ib = exp(i theta)."""
    x, _ = _sum_jet1(spec["curve"]["x"], s)
    y, _ = _sum_jet1(spec["curve"]["y"], s)
    t, _ = _sum_jet1(spec["curve"]["t"], s)
    th, _ = _sum_jet1(spec["theta"], s)
    a, b = math.cos(th), math.sin(th)
    return x + v * a, y + v * b, t + 2.0 * v * (y * a - x * b)


def ruling_coeffs(spec: dict, s: float) -> tuple[float, float, float]:
    """(c0, c1, c2) with ||N^h|| = |c0 + c1 v + c2 v^2| on the ruled patch."""
    x, x1 = _sum_jet1(spec["curve"]["x"], s)
    y, y1 = _sum_jet1(spec["curve"]["y"], s)
    _, t1 = _sum_jet1(spec["curve"]["t"], s)
    th, th1 = _sum_jet1(spec["theta"], s)
    a, b = math.cos(th), math.sin(th)
    return t1 + 2.0 * (x * y1 - y * x1), 4.0 * (a * y1 - b * x1), 2.0 * th1


def locus_spans_patch(spec: dict) -> bool:
    """True when c(s, v) changes sign in v at every sampled s.

    The characteristic locus is then a curve running across the whole
    patch, which keeps the bisection work of the locus search (and with it
    the run time) from depending on whether a draw only clips a corner.
    """
    s0, s1, v0, v1 = RULED_DOMAIN
    for i in range(33):
        c0, c1, c2 = ruling_coeffs(spec, s0 + (s1 - s0) * i / 32.0)
        if (c0 + v0 * (c1 + v0 * c2) > 0.0) == (c0 + v1 * (c1 + v1 * c2) > 0.0):
            return False
    return True


class RuledSource:
    """Draws ruled files, redrawing those the program rejects as not regular."""

    def __init__(self, rng: random.Random, work_dir: str, inputs: Inputs):
        from heisflow.builders import load_surface_file
        from heisflow.errors import DegenerateRuling, NotRegular

        self._load = load_surface_file
        self._rejected = (DegenerateRuling, NotRegular)
        self.rng = rng
        self.work_dir = work_dir
        self.inputs = inputs

    def new(self, need_locus: bool = False) -> tuple[str, dict]:
        """Write the next ruled file; ``need_locus`` asks for a locus-search file."""
        name = f"ruled-{len(self.inputs.files)}"
        path = os.path.join(self.work_dir, name + ".json")
        while True:
            spec = draw_ruled(self.rng, name, quarter_turn=need_locus)
            if need_locus and not locus_spans_patch(spec):
                self.inputs.locus_redraws += 1
                continue
            text = json.dumps(spec, indent=1) + "\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                self._load(path)
            except self._rejected:
                self.inputs.redraws += 1
                continue
            self.inputs.files[name + ".json"] = text
            return path, spec


# ---------------------------------------------------------------------------
# workloads


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of the inset interval."""
    a = lo + LEAF_INSET * (hi - lo)
    w = (1.0 - 2.0 * LEAF_INSET) * (hi - lo) / n
    return [a + w * (i + rng.random()) for i in range(n)]


def _grid(ruled: RuledSource) -> list[Call]:
    calls = []
    for surface, n, fmt in GRID_CALLS:
        target, spec = ruled.new() if surface == "ruled" else (surface, None)
        argv = ["eval", target, "--grid", f"{n}x{n}"] + (["--format", "csv"] if fmt == "csv" else [])
        calls.append(Call("eval", surface, argv, (n, n), fmt, spec))
    return calls


def _leaves(rng: random.Random, ruled: RuledSource) -> list[Call]:
    calls = []
    per, extra = divmod(N_LEAVES, len(LEAF_SURFACES))
    for idx, surface in enumerate(LEAF_SURFACES):
        n = per + (1 if idx < extra else 0)
        target, spec = ruled.new() if surface == "ruled" else (surface, None)
        dom = DOMAINS.get(surface, RULED_DOMAIN)
        # Latin-hypercube seeds: stratified on each axis, strata paired at random.
        us = _stratified(rng, n, dom[0], dom[1])
        vs = _stratified(rng, n, dom[2], dom[3])
        rng.shuffle(vs)
        for u, v in zip(us, vs):
            argv = ["flow", target, "--seed", repr(u), repr(v),
                    "--steps", str(LEAF_STEPS), "--format", "csv"]
            calls.append(Call("flow", surface, argv, fmt="csv", spec=spec))
    rng.shuffle(calls)
    return calls


def _locus(ruled: RuledSource) -> list[Call]:
    # Each grid gets its own ruled files: their bisection cost varies from
    # draw to draw, and more independent draws steady the workload's total.
    calls = []
    for n in LOCUS_GRIDS:
        for surface in LOCUS_SURFACES:
            target, spec = ruled.new(need_locus=True) if surface == "ruled" else (surface, None)
            argv = ["locus", target, "--grid", f"{n}x{n}"]
            calls.append(Call("locus", surface, argv, (n, n), "json", spec))
    return calls


def build(workload: str, seed: int, work_dir: str) -> Inputs:
    """Generate the calls and files of one workload from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
    rng = random.Random(f"heisflow-bench:{workload}:{seed}")
    inputs = Inputs([])
    ruled = RuledSource(rng, work_dir, inputs)
    if workload == "grid":
        inputs.calls = _grid(ruled)
    elif workload == "leaves":
        inputs.calls = _leaves(rng, ruled)
    elif workload == "locus":
        inputs.calls = _locus(ruled)
    else:
        inputs.calls = [Call("verify", "all", ["verify", "--suite", "all", "--seed", str(seed)])]
    return inputs
