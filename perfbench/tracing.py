"""Span tracing installed from outside the package, for the traced run only.

Every public function of the layer modules is wrapped, and the wrapper is
bound in place of the original under every name any ``heisflow`` module
holds it by (``from .patch import eval_jet2`` copies the name into ``cli``,
``curvature``, ``flow``, ``locus`` and ``verify``), and in the tuples of
``verify.SUITES``.  Spans are aggregated in memory per (name, parent) and
read out when the run ends; a span's self time is its duration minus that
of its direct child spans.  Exceptions propagate unchanged, because
``CharacteristicPoint`` is control flow, and are counted per type.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "builders", "patch", "horizontal", "curvature", "flow", "locus", "verify", "heis")
ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]  # [span name, time covered by child spans]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.raised: Counter = Counter()  # (span name, exception type)
        self.counts: Counter = Counter()  # results observed at layer boundaries

    def wrap(self, name, fn, observe=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if observe is not None:
                observe(self.counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- aggregate views -------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(a[0] for (n, p), a in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def total_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.spans.items() if n == name)

    def layer_calls(self, layer: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n.split(".")[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(a[2] for (n, _), a in self.spans.items() if n.split(".")[0] == layer)

    def dump(self) -> list:
        """Aggregated spans, heaviest self time first."""
        rows = [[n, p, a[0], a[1], a[2]] for (n, p), a in self.spans.items()]
        rows.sort(key=lambda r: -r[4])
        return rows


def _observe_flow(counts, trace, args, kwargs):
    counts["flow.points"] += len(trace)
    counts["flow.stop." + trace.stop_backward] += 1
    counts["flow.stop." + trace.stop_forward] += 1


def _locus_observer(fn):
    sig = inspect.signature(fn)

    def observe(counts, points, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        nu, nv = bound.arguments["grid"]
        counts["locus.nodes"] += nu * nv
        counts["locus.points"] += len(points)

    return observe


def install() -> Tracer:
    """Wrap the public functions of every layer module; return the tracer."""
    import heisflow  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "heisflow" or name.startswith("heisflow.")]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules["heisflow." + layer]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            observe = None
            if fn.__name__ == "integrate_flow":
                observe = _observe_flow
            elif fn.__name__ == "characteristic_locus":
                observe = _locus_observer(fn)
            wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn, observe)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    suites = sys.modules["heisflow.verify"].SUITES
    for key, fns in suites.items():
        suites[key] = tuple(wrapped.get(fn, fn) for fn in fns)
    return tracer


def verify_check_names() -> list[str]:
    """The check functions of the full verify suite, in suite order."""
    from heisflow.verify import SUITES

    return [getattr(fn, "__wrapped__", fn).__name__ for fn in SUITES["all"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    t = tracer
    c = t.counts
    jets = t.calls("patch.eval_jet2")
    local = t.calls("curvature.mean_curvature_local")
    flow_points = c["flow.points"]
    m = {
        "cli.calls": (t.calls("cli.main"), "count"),
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "cli.out_mb": (out_bytes / 2**20, "MiB"),
        "builders.resolve.calls": (t.calls("builders.resolve_surface"), "count"),
        "builders.resolve_s": (t.total_s("builders.resolve_surface"), "s"),
        "patch.make_surface.calls": (t.calls("patch.make_surface"), "count"),
        "patch.make_surface_s": (t.total_s("patch.make_surface"), "s"),
        "patch.eval_jet2.calls": (jets, "count"),
        "patch.eval_jet2_us": (1e6 * _ratio(t.total_s("patch.eval_jet2"), jets), "us"),
        "patch.jets_per_item": (_ratio(jets, items), "ratio"),
        "horizontal.calls": (t.layer_calls("horizontal"), "count"),
        "horizontal.self_s": (t.layer_self_s("horizontal"), "s"),
        "curvature.local.calls": (local, "count"),
        "curvature.local_self_us": (
            1e6 * _ratio(t.self_s("curvature.mean_curvature_local"), local), "us"),
        "curvature.local.char_rejects": (
            t.raised["curvature.mean_curvature_local", "CharacteristicPoint"], "count"),
        "curvature.oracle.calls": (t.calls("curvature.mean_curvature_flow_oracle"), "count"),
        "curvature.oracle_s": (t.total_s("curvature.mean_curvature_flow_oracle"), "s"),
        "flow.calls": (t.calls("flow.integrate_flow"), "count"),
        "flow.points": (flow_points, "count"),
        "flow.self_s": (t.self_s("flow.integrate_flow"), "s"),
        "flow.self_us_per_point": (1e6 * _ratio(t.self_s("flow.integrate_flow"), flow_points), "us"),
        "flow.jets_per_point": (
            _ratio(t.calls("patch.eval_jet2", "flow.integrate_flow"), flow_points), "ratio"),
    }
    for reason in ("domain-exit", "characteristic-proximity", "step-limit"):
        m["flow.stop." + reason] = (c["flow.stop." + reason], "count")
    m["locus.calls"] = (t.calls("locus.characteristic_locus"), "count")
    m["locus.self_s"] = (t.self_s("locus.characteristic_locus"), "s")
    m["locus.jets_per_node"] = (
        _ratio(t.calls("patch.eval_jet2", "locus.characteristic_locus"), c["locus.nodes"]), "ratio")
    m["locus.points"] = (c["locus.points"], "count")
    for check in verify_check_names():
        m[f"verify.{check}_s"] = (t.total_s("verify." + check), "s")
    m["heis.calls"] = (t.layer_calls("heis"), "count")
    m["heis.self_s"] = (t.layer_self_s("heis"), "s")
    return m
