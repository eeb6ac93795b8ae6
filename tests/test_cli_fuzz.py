"""Surface files of any JSON shape end in a documented exit code, never a traceback.

Exit 0 is a result, 1 a computation without one and 2 an input error; a
non-zero exit carries a ``heisflow: ...`` message on stderr.  Every file a
builder refuses is an input error, so eval and locus end in 0 or 2, and flow
ends in 1 only for a seed on the characteristic locus.  The files are
mostly well formed, with magnitudes up to 1e300, so the builders, the jet
checks and the three commands all see extreme but legal input.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisflow.builders import CATALOG
from heisflow.cli import main

# s^6 overflows at s = 1e60, where float ** raises instead of giving inf
OVERFLOW_GRAPH = {
    "type": "graph",
    "domain": {"u": [0, 1e60], "v": [0, 1]},
    "fu": [{"kind": "poly", "coeff": 1, "k": 6}],
}
# sin(6 u) past the float range, where math.sin raises
TRIG_GRAPH = {
    "type": "graph",
    "domain": {"u": [0, 1e308], "v": [0, 1]},
    "fu": [{"kind": "sin", "coeff": 1, "k": 6}],
}
# a ruling angle theta = s^6 that overflows, so cos theta is taken of inf
TRIG_THETA = {
    "type": "ruled",
    "curve": {"x": [], "y": [{"kind": "poly", "coeff": 1, "k": 1}], "t": [], "domain": [0.5, 1e60]},
    "theta": [{"kind": "poly", "coeff": 1, "k": 6}],
    "v_range": [0.25, 1.25],
}
# finite jets whose curvature sums overflow: inf - inf inside math.fsum
HUGE_RULED = {
    "type": "ruled",
    "curve": {"x": [], "y": [{"kind": "poly", "coeff": 1e300, "k": 1}], "t": [], "domain": [0.5, 2.0]},
    "theta": [],
    "v_range": [0.25, 1.25],
}

numbers = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1e-300, 2.0, 1e60, -1e60, 1e300]),
)
good_terms = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("poly"), "coeff": numbers, "k": st.integers(0, 6)}
        ),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["cos", "sin"]), "coeff": numbers, "k": st.integers(1, 6)}
        ),
    ),
    max_size=3,
)
bad_terms = st.lists(
    st.dictionaries(st.sampled_from(["kind", "coeff", "k"]), st.none() | numbers), max_size=2
)


def mostly(good, bad):
    """``good``, or ``bad`` one time in eight."""
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


terms = mostly(good_terms, bad_terms)
pairs = mostly(
    st.tuples(numbers, numbers).filter(lambda p: p[0] != p[1]).map(sorted),
    st.lists(numbers, max_size=3),
)
curves = st.fixed_dictionaries({"x": terms, "y": terms, "t": terms, "domain": pairs})
surface_files = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("graph"),
        "domain": st.fixed_dictionaries({"u": pairs, "v": pairs}),
        "fu": terms,
        "fv": terms,
    }),
    st.fixed_dictionaries({
        "type": st.just("ruled"), "curve": curves, "theta": terms, "v_range": pairs,
    }),
    st.fixed_dictionaries({"type": st.just("developable"), "curve": curves, "v_range": pairs}),
    st.fixed_dictionaries({
        "type": st.just("cylinder"),
        "profile": st.fixed_dictionaries({"x": terms, "y": terms, "domain": pairs}),
        "height": pairs,
    }),
    st.fixed_dictionaries({
        "type": st.just("catalog"), "name": st.sampled_from([*CATALOG, "nope"]),
    }),
)

def parameter_ranges(spec):
    """The (u, v) ranges a file declares, or None where it declares none."""
    kind = spec["type"]
    if kind == "graph":
        return spec["domain"]["u"], spec["domain"]["v"]
    if kind in ("ruled", "developable"):
        return spec["curve"]["domain"], spec["v_range"]
    if kind == "cylinder":
        return spec["profile"]["domain"], spec["height"]
    return None


def seed_args(spec, fu, fv):
    """--seed values at fractions (fu, fv) of the declared ranges, written
    without exponents, which argparse would take for options when negative."""
    ranges = parameter_ranges(spec)
    if ranges is None or any(len(r) != 2 for r in ranges):
        return ["0.5", "0.5"]
    return [f"{lo + f * (hi - lo):f}" for (lo, hi), f in zip(ranges, (fu, fv))]


@settings(max_examples=100)
@given(
    spec=surface_files,
    command=st.sampled_from(["eval", "locus", "flow"]),
    fu=st.floats(0.0, 1.0),
    fv=st.floats(0.0, 1.0),
)
@example(spec=OVERFLOW_GRAPH, command="eval", fu=0.5, fv=0.5)
@example(spec=OVERFLOW_GRAPH, command="locus", fu=0.5, fv=0.5)
@example(spec=OVERFLOW_GRAPH, command="flow", fu=0.5, fv=0.5)
@example(spec=TRIG_GRAPH, command="eval", fu=0.5, fv=0.5)
@example(spec=TRIG_GRAPH, command="locus", fu=0.5, fv=0.5)
@example(spec=TRIG_GRAPH, command="flow", fu=0.5, fv=0.5)
@example(spec=TRIG_THETA, command="eval", fu=0.5, fv=0.5)
@example(spec=TRIG_THETA, command="locus", fu=0.5, fv=0.5)
@example(spec=TRIG_THETA, command="flow", fu=0.5, fv=0.5)
@example(spec=HUGE_RULED, command="eval", fu=0.5, fv=0.5)
@example(spec=HUGE_RULED, command="locus", fu=0.5, fv=0.5)
@example(spec=HUGE_RULED, command="flow", fu=0.5, fv=0.5)
def test_surface_files_end_in_a_documented_exit(spec, command, fu, fv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        argv = {
            "eval": ["eval", path, "--grid", "3x3"],
            "locus": ["locus", path, "--grid", "4x4", "--refine", "4"],
            "flow": ["flow", path, "--seed", *seed_args(spec, fu, fv), "--steps", "3"],
        }[command]
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(argv + ["--out", os.path.join(tmp, "out.json")])
    assert code in ((0, 1, 2) if command == "flow" else (0, 2))
    if code:
        assert err.getvalue().startswith("heisflow: ")
    if code == 1:
        assert err.getvalue().startswith("heisflow: seed too close to the characteristic locus")


@pytest.mark.parametrize("command", ["eval", "locus", "flow"])
def test_deeply_nested_file_is_an_input_error(command):
    # the JSON decoder recurses once per nested array, so 200,000 of them
    # exceed the recursion limit: a message and exit 2, not a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nested.json")
        with open(path, "w") as fh:
            fh.write("[" * 200_000)
        seed = ["--seed", "0.5", "0.5"] if command == "flow" else []
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([command, path, *seed])
    assert code == 2
    assert err.getvalue() == f"heisflow: {path}: JSON nested too deeply to parse\n"
