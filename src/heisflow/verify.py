"""Self-verification suites: closed-form references, cross-checks, invariants.

Every check compares computed quantities against an independent target (a
closed-form value, a second derivation route, or an algebraic identity) and
reports the worst deviation against a fixed tolerance.  Randomized checks
draw from the deterministic generator in :mod:`heisflow.rng`, so a given
seed always examines the same sample set.

Suites group the checks:

* ``core``:     group law, frame, wedge and normal/pushforward identities;
* ``examples``: named surfaces with known curvature, locus and contact data;
* ``minimal``:  minimality of ruled patches, flow straightness, and
                agreement between the curvature formula and the flow oracle;
* ``all``:      union of the above.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .builders import (
    CATALOG,
    H_MINIMAL_CATALOG,
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_plane_flow_patch,
    build_straight_ruled,
    catalog_get,
    plane_contact_factor,
    ruling_form_coeff,
    random_ruled_patch,
)
from .curvature import (
    _grid_max_error,
    _has_stencil,
    _running_max,
    _seed_curvatures,
    curvature_scan,
)
from .flow import integrate_flows
from .heis import (
    HorizontalVec,
    Point3,
    contact_eval,
    euclidean_to_frame,
    frame_t,
    frame_x,
    frame_y,
    frame_to_euclidean,
    group_mul,
    h_wedge,
    kc_distance,
)
from .horizontal import (
    EPS_CHAR,
    horizontal_normal_batch,
    induced_form_batch,
    normal_compatibility,
)
from .locus import characteristic_locus
from .patch import (
    Domain,
    eval_jets,
    grid_points,
    jet2_batch,
    make_surface,
    reparametrize_affine,
)
from .rng import Lcg64

__all__ = [
    "DEFAULT_SEED",
    "CheckResult",
    "SUITES",
    "run_suite",
    "check_cylinder_curvature",
    "check_cone_curvature",
    "check_paraboloid_locus",
    "check_paraboloid_minimality",
    "check_random_ruled_minimality",
    "check_flow_straightness",
    "check_oracle_agreement",
    "check_ruled_form_identity",
    "check_contact_factor",
    "check_plane_map_ratio",
    "check_developable_minimality",
    "check_core_invariants",
]

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: worst observed statistic against its tolerance."""

    name: str
    passed: bool
    stat: float
    tol: float
    count: int
    detail: str = ""


def _pairs(rng: Lcg64, n: int, lo, hi) -> np.ndarray:
    """n pairs of draws (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1],
    hi[1])) as an (n, 2) array, the bits and final state of those 2n calls."""
    return rng.uniforms(2 * n, np.tile(lo, n), np.tile(hi, n)).reshape(n, 2)


def _mk(name: str, stat: float, tol: float, count: int, detail: str = "") -> CheckResult:
    stat = float(stat)  # numpy scalars would break the JSON writer
    passed = bool(math.isfinite(stat) and stat <= tol)
    return CheckResult(name, passed, stat, tol, count, detail)


# ---------------------------------------------------------------------------
# example-surface checks


def check_cylinder_curvature(seed: int) -> list[CheckResult]:
    """H on circular cylinders must equal 1/R for every radius and point."""
    radii = (0.5, 1.0, 2.0, 5.0)
    surfs = [catalog_get(f"cylinder({radius})") for radius in radii]
    # Every radius shares one domain, hence one sample set.
    worst, at, count, _ = _grid_max_error(surfs, (101, 101), target=1.0 / np.array(radii))
    where = "" if at is None else f"R={radii[at[0]]}, u={at[1]:.6g}, v={at[2]:.6g}"
    return [_mk("cylinder-curvature", worst, 1e-10, count, where)]


def _cone_reference(u: float, v: float) -> tuple[float, float, float]:
    root = math.sqrt(1.0 + 4.0 * u * u)
    nu1 = (math.cos(v) - 2.0 * u * math.sin(v)) / root
    nu2 = (math.sin(v) + 2.0 * u * math.cos(v)) / root
    return 1.0 / (u * root**3), nu1, nu2


def _curvature_and_normal(surf, u, v):
    """H and the unit horizontal normal (nu1, nu2) at the points (u[i], v[i]);
    the strict curvature_scan raises CharacteristicPoint at the first point
    where they are undefined."""
    h = curvature_scan([surf], u, v).H[0]
    n1, n2, q = horizontal_normal_batch(eval_jets(surf, u, v))
    return h, n1 / q, n2 / q


def check_cone_curvature(seed: int) -> list[CheckResult]:
    """Lower cone: H and nu^h against their closed forms."""
    surf = catalog_get("cone_lower")
    u, v = grid_points(*surf.domain.linspace(51, 51))
    h, nu1, nu2 = _curvature_and_normal(surf, u, v)
    ref = np.array([_cone_reference(a, b) for a, b in zip(u.tolist(), v.tolist())])
    err = np.stack((h - ref[:, 0], nu1 - ref[:, 1], nu2 - ref[:, 2]))
    worst = _running_max(np.abs(err), 0.0)[0]
    return [_mk("cone-curvature-and-normal", worst, 1e-10, len(u), "51x51 grid")]


def check_paraboloid_locus(seed: int) -> list[CheckResult]:
    """Characteristic locus of t = y^2 - x^2 must land on the line x + y = 0."""
    surf = catalog_get("paraboloid")
    pts = characteristic_locus(surf, grid=(101, 101), refine=60)
    if not pts:
        return [_mk("paraboloid-locus", math.inf, 1e-6, 0, "no locus points found")]
    worst = max(abs(p.x + p.y) for p in pts)
    return [_mk("paraboloid-locus", worst, 1e-6, len(pts), f"{len(pts)} locus points")]


def check_paraboloid_minimality(seed: int) -> list[CheckResult]:
    """|H| of the paraboloid away from its locus (||N^h|| >= 1e-4)."""
    worst, _, count, _ = _grid_max_error([catalog_get("paraboloid")], (101, 101), floor=1e-4)
    return [_mk("paraboloid-minimality", worst, 1e-8, count, "||N^h|| >= 1e-4 kept")]


def _plane_flow_spec() -> RuledSpec:
    zero = TermSum()
    return RuledSpec(
        CurveSpec(zero, zero, zero, (0.0, 3.0)),
        AngleField(TermSum((Term("poly", 1.0, 1),))),
        (0.2, 2.0),
        name="plane-flow",
    )


def _ruled_paraboloid_spec() -> RuledSpec:
    return RuledSpec(
        CurveSpec(
            TermSum(),
            TermSum((Term("poly", 1.0, 1),)),
            TermSum((Term("poly", 1.0, 2),)),
            (0.5, 2.0),
        ),
        AngleField(TermSum((Term("poly", math.pi / 4.0, 0),))),
        (0.25, 1.25),
        name="ruled-paraboloid",
    )


def _circle_lift_ruled_spec() -> RuledSpec:
    return RuledSpec(
        CurveSpec(
            TermSum((Term("cos", 1.0, 1),)),
            TermSum((Term("sin", 1.0, 1),)),
            TermSum((Term("poly", -2.0, 1),)),
            (0.0, 2.0 * math.pi),
        ),
        AngleField(TermSum((Term("poly", 1.0, 1),))),
        (0.2, 1.5),
        name="circle-lift-ruled",
    )


def check_ruled_form_identity(seed: int) -> list[CheckResult]:
    """On ruled patches (p_s, p_v) = (c, 0) and ||N^h|| = |c| pointwise."""
    rng = Lcg64(seed)
    patches = [(spec, build_straight_ruled(spec))
               for spec in (_plane_flow_spec(), _ruled_paraboloid_spec())]
    patches += [random_ruled_patch(rng, i) for i in range(3)]
    worst = 0.0
    where = ""
    for spec, surf in patches:
        dom = surf.domain
        s, v = _pairs(rng, 2000, (dom.u_min, dom.v_min), (dom.u_max, dom.v_max)).T
        c = ruling_form_coeff(spec, s, v)
        jets = eval_jets(surf, s, v)
        p_u, p_v = induced_form_batch(jets)
        q = horizontal_normal_batch(jets)[2]
        # Dividing by the positive scale after the max rounds the same.
        err = np.max([abs(p_u - c), abs(p_v), abs(q - abs(c))], axis=0) / (1.0 + abs(c))
        worst, i = _running_max(err, worst)
        if i is not None:
            where = f"{spec.name} at s={float(s[i]):.6g}, v={float(v[i]):.6g}"
    return [_mk("ruled-form-identity", worst, 1e-10, len(patches) * len(s), where)]


def check_random_ruled_minimality(seed: int) -> list[CheckResult]:
    """Random ruled patches are horizontally minimal off the locus."""
    rng = Lcg64(seed)
    specs, surfs = zip(*(random_ruled_patch(rng, i) for i in range(100)))
    # Every patch shares the domain of random_ruled_patch, hence one sample set.
    worst, at, count, skipped = _grid_max_error(surfs, (21, 9), floor="band")
    where = "" if at is None else f"{specs[at[0]].name} at u={at[1]:.6g}, v={at[2]:.6g}"
    detail = f"{skipped} near-characteristic points skipped; worst {where}"
    return [_mk("random-ruled-minimality", worst, 1e-8, count, detail)]


def check_flow_straightness(seed: int) -> list[CheckResult]:
    """Flow leaves of minimal surfaces project onto straight lines."""
    worst = 0.0
    count = 0
    n_traces = 0
    ds = 1e-3
    for name in H_MINIMAL_CATALOG:
        surf = catalog_get(name)
        dom = surf.domain
        seeds = [
            (dom.u_min + fu * dom.u_span, dom.v_min + fv * dom.v_span)
            for fu in (0.25, 0.5, 0.75)
            for fv in (0.25, 0.5, 0.75)
        ]
        for trace in integrate_flows(surf, seeds, ds=ds, max_steps=300):
            if trace is None or len(trace) < 5:
                continue
            n_traces += 1
            pts = trace.points[:, :2]
            second = (pts[2:] - 2.0 * pts[1:-1] + pts[:-2]) / (ds * ds)
            count += second.shape[0]
            mags = (second[:, 0] ** 2 + second[:, 1] ** 2) ** 0.5
            worst = max(worst, float(mags.max()))
    detail = f"{n_traces} traces over {len(H_MINIMAL_CATALOG)} surfaces"
    return [_mk("flow-leaf-straightness", worst, 1e-4, count, detail)]


def check_oracle_agreement(seed: int) -> list[CheckResult]:
    """Local curvature formula against the integrated-flow oracle."""
    rng = Lcg64(seed)
    worst = 0.0
    count = 0
    shortfall = []
    where = ""
    for name in CATALOG:
        surf = catalog_get(name)
        dom = surf.domain
        mu = 0.02 * dom.u_span
        mv = 0.02 * dom.v_span
        seeds, oracle = [], []
        tried = 0
        while len(seeds) < 200 and tried < 4000:
            # Draw ahead on a copy of the stream, trace every candidate that
            # passes the ||N^h|| screen, then accept in draw order and
            # advance the stream by the draws the accepted ones used up, so
            # later surfaces see the seeds a one-at-a-time loop would.  Nearly
            # every candidate is accepted (on the catalog at seeds 0, 3, 5, 7
            # and 11, at most one of the first 201 is rejected), so a
            # sixteenth more than the number still needed usually ends the
            # search in one round.
            need = 200 - len(seeds)
            cand = _pairs(
                Lcg64(rng.state), min(4000 - tried, need + need // 16),
                (dom.u_min + mu, dom.v_min + mv), (dom.u_max - mu, dom.v_max - mv),
            )
            q = horizontal_normal_batch(eval_jets(surf, *cand.T))[2]
            screened = np.flatnonzero(~(q < 1e-2))
            # the oracle reads the samples next to the seed alone: one step
            traces = integrate_flows(surf, cand[screened], ds=1e-3, max_steps=1)
            good = [(k, t) for k, t in zip(screened.tolist(), traces)
                    if t is not None and _has_stencil(t)][:need]
            used = good[-1][0] + 1 if len(good) == need else len(cand)
            rng.uniforms(2 * used)
            tried += used
            if good:
                seeds.extend(cand[[k for k, _ in good]].tolist())
                oracle.extend(_seed_curvatures([t for _, t in good]).tolist())
        # The flow accepts a seed only at ||N^h|| >= STOP_FACTOR (10) times
        # the characteristic threshold, so the local formula, which needs 1x,
        # is defined at every accepted seed.
        u, v = np.array(seeds).reshape(-1, 2).T
        local = curvature_scan([surf], u, v).H[0]
        worst, i = _running_max(np.abs(local - np.array(oracle)), worst)
        if i is not None:
            where = f"{name} at u={u[i]:.6g}, v={v[i]:.6g}"
        count += len(seeds)
        if len(seeds) < 200:
            shortfall.append(f"{name}:{len(seeds)}")
    if shortfall:
        return [
            _mk(
                "local-vs-flow-oracle",
                math.inf,
                1e-3,
                count,
                "under 200 accepted points on " + ", ".join(shortfall),
            )
        ]
    return [_mk("local-vs-flow-oracle", worst, 1e-3, count, where)]


def check_contact_factor(seed: int) -> list[CheckResult]:
    """Straightening factor: target pullback = lambda * source pullback."""
    spec = _circle_lift_ruled_spec()
    source = build_straight_ruled(spec)
    target = build_plane_flow_patch(
        spec.angle, spec.curve.domain, spec.v_range, label="normal-form"
    )
    u, v = grid_points(*source.domain.linspace(21, 21))
    lam = plane_contact_factor(spec, u, v)
    src_u, src_v = induced_form_batch(eval_jets(source, u, v))
    tgt_u, tgt_v = induced_form_batch(eval_jets(target, u, v))
    err = np.abs(np.stack((tgt_u - lam * src_u, tgt_v - lam * src_v)))
    worst = _running_max(err / (1.0 + np.abs(tgt_u)), 0.0)[0]
    return [_mk("contact-factor-pullback", worst, 1e-10, len(u), spec.name)]


def check_plane_map_ratio(seed: int) -> list[CheckResult]:
    """(0, u, v) -> (uv, u, 0) scales the induced form by exactly -2u^2."""

    def source_fields(u, v, order=2):
        return (0.0, u, v), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)

    def image_fields(u, v, order=2):
        return (
            (u * v, u, 0.0),
            (v, 1.0, 0.0),
            (u, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
        )

    dom = Domain(0.25, 2.0, -2.0, 2.0)
    source = make_surface(source_fields, dom, "vertical-plane-strip")
    image = make_surface(image_fields, dom, "graph-image")
    u, v = grid_points(*dom.linspace(21, 21))
    ratio = -2.0 * u * u
    src_u, src_v = induced_form_batch(eval_jets(source, u, v))
    img_u, img_v = induced_form_batch(eval_jets(image, u, v))
    err = np.abs(np.stack((img_u - ratio * src_u, img_v - ratio * src_v)))
    worst = _running_max(err / (1.0 + np.abs(ratio)), 0.0)[0]
    return [_mk("plane-map-contact-ratio", worst, 1e-10, len(u), "strip u in [0.25, 2]")]


def check_developable_minimality(seed: int) -> list[CheckResult]:
    """The circle-lift tangent developable is horizontally minimal."""
    surf = catalog_get("circle_lift_developable")
    worst, _, count, _ = _grid_max_error([surf], (21, 21))
    return [_mk("developable-minimality", worst, 1e-8, count, surf.label)]


# ---------------------------------------------------------------------------
# core invariants


def _worst(err) -> float:
    return _running_max(err, 0.0)[0]


def _point_invariants(draw: np.ndarray) -> list[CheckResult]:
    """Group law, gauge and contact frame on an (n, 3, 3) draw: its rows as
    point triples, and its first n points."""
    n = len(draw)
    a, b, c = (Point3(*draw[:, k].T) for k in range(3))
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    scale = 1.0 + np.max(np.abs(lhs.as_tuple()), axis=0)
    assoc = np.abs(np.subtract(lhs.as_tuple(), rhs.as_tuple())) / scale
    d0 = kc_distance(b, c)
    d1 = kc_distance(group_mul(a, b), group_mul(a, c))
    p = Point3(*draw.reshape(-1, 3)[:n].T)
    ex, ey, et = frame_x(p), frame_y(p), frame_t(p)
    wx, wy, wt = (frame_to_euclidean(e) for e in (ex, ey, et))
    contact = np.abs((contact_eval(p, wx), contact_eval(p, wy), contact_eval(p, wt) - 1.0))
    clock = [
        (abs(got.a1 - want.a1), abs(got.a2 - want.a2), abs(got.a3 - want.a3))
        for got, want in ((h_wedge(ex, ey), et), (h_wedge(ey, et), ex), (h_wedge(et, ex), ey))
    ]
    return [
        _mk("core-associativity", _worst(assoc), 1e-12, n),
        _mk("core-left-invariance", _worst(np.abs(d0 - d1) / (1.0 + d0)), 1e-10, n),
        _mk("core-contact-frame", _worst(contact), 1e-14, n),
        _mk("core-wedge-clock", _worst(clock), 0.0, n),
    ]


def _jet_invariants(jets: np.ndarray) -> list[CheckResult]:
    """Normal compatibility, and the kernel direction of the induced form
    with its unit push-forward where ||N^h|| >= 1e-2."""
    n1, n2, nh = horizontal_normal_batch(jets)
    square = n1 * n1 + n2 * n2
    compat = np.abs(normal_compatibility(jets) - square) / (1.0 + square)
    keep = nh >= 1e-2
    used = int(keep.sum())
    p_u, p_v = induced_form_batch(jets)
    alpha, beta = p_v[keep] / nh[keep], -p_u[keep] / nh[keep]
    w = alpha * jets[keep, 1].T + beta * jets[keep, 2].T  # push-forward of (alpha, beta)
    pts = Point3(*jets[keep, 0].T)
    fv = euclidean_to_frame(pts, w)
    kernel, unit = contact_eval(pts, w), HorizontalVec(fv.a1, fv.a2, pts).norm() - 1.0
    return [
        _mk("core-normal-compatibility", _worst(compat), 1e-10, len(jets)),
        _mk("core-kernel-direction", _worst(np.abs(kernel)), 1e-12, used),
        _mk("core-pushforward-unit", _worst(np.abs(unit)), 1e-10, used),
    ]


def check_core_invariants(seed: int) -> list[CheckResult]:
    n = 10000
    # One draw: its rows of nine serve as point triples and as jets (value,
    # du, dv).  Each half runs in its own function, which frees its arrays.
    draw = Lcg64(seed).uniforms(9 * n, -1.5, 1.5).reshape(n, 3, 3)
    results = _point_invariants(draw) + _jet_invariants(jet2_batch(n, *draw.transpose(1, 2, 0)))

    rng = Lcg64(seed)
    base = catalog_get("cone_lower")
    bd = base.domain
    a11, a22 = rng.uniform(0.7, 1.3), rng.uniform(0.7, 1.3)
    a12, a21 = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
    wu = 0.175 * bd.u_span
    wv = 0.175 * bd.v_span
    new_dom = Domain(-wu, wu, -wv, wv)
    b1 = bd.u_min + 0.5 * bd.u_span
    b2 = bd.v_min + 0.5 * bd.v_span
    repar = reparametrize_affine(
        base, ((a11, a12), (a21, a22)), (b1, b2), new_dom, "cone-reparam"
    )
    m = 400
    w1, w2 = _pairs(rng, m, (-wu, -wv), (wu, wv)).T
    u = a11 * w1 + a12 * w2 + b1
    v = a21 * w1 + a22 * w2 + b2
    bh, bnu1, bnu2 = _curvature_and_normal(base, u, v)
    rh, rnu1, rnu2 = _curvature_and_normal(repar, w1, w2)
    h_err = np.abs(bh - rh) / (1.0 + np.abs(bh))
    nu_err = np.abs(np.stack((bnu1 - rnu1, bnu2 - rnu2)))
    worst = _running_max(np.stack((h_err, *nu_err)), 0.0)[0]
    results.append(_mk("core-reparam-invariance", worst, 1e-10, m))

    return results


# ---------------------------------------------------------------------------
# suites

SUITES = {
    "core": (check_core_invariants,),
    "examples": (
        check_cylinder_curvature,
        check_cone_curvature,
        check_paraboloid_locus,
        check_paraboloid_minimality,
        check_ruled_form_identity,
        check_contact_factor,
        check_plane_map_ratio,
        check_developable_minimality,
    ),
    "minimal": (
        check_random_ruled_minimality,
        check_flow_straightness,
        check_oracle_agreement,
    ),
}
SUITES["all"] = SUITES["examples"] + SUITES["minimal"] + SUITES["core"]


def run_suite(
    suite: str = "all",
    seed: int = DEFAULT_SEED,
) -> dict:
    """Run one suite and return a JSON-ready report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choices: {sorted(SUITES)}")
    checks: list[CheckResult] = []
    for fn in SUITES[suite]:
        checks.extend(fn(seed))
    return {
        "suite": suite,
        "seed": seed,
        "eps_char": EPS_CHAR,
        "passed": all(c.passed for c in checks),
        "n_checks": len(checks),
        "checks": [asdict(c) for c in checks],
    }
