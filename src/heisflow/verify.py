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
    ruling_form_coefficients,
    random_ruled_spec,
)
from .curvature import (
    CurvatureBatch,
    _raise_if_characteristic,
    _running_max,
    curvature_scan,
    mean_curvature_batch,
    mean_curvature_flow_oracle,
    mean_curvature_local,
)
from .errors import CharacteristicPoint, FlowEscapedDomain, OutOfDomain
from .flow import integrate_flow
from .heis import (
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
    char_threshold,
    horizontal_normal,
    horizontal_normal_batch,
    induced_form,
    induced_form_batch,
    normal_compatibility,
    unit_horizontal_normal,
)
from .locus import characteristic_locus
from .patch import (
    Domain,
    Jet2,
    blocks,
    eval_jet2,
    eval_jets,
    grid_points,
    jet2,
    make_surface,
    per_value,
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


def _mk(name: str, stat: float, tol: float, count: int, detail: str = "") -> CheckResult:
    stat = float(stat)  # numpy scalars would break the JSON writer
    passed = bool(math.isfinite(stat) and stat <= tol)
    return CheckResult(name, passed, stat, tol, count, detail)


# ---------------------------------------------------------------------------
# example-surface checks


def check_cylinder_curvature(seed: int, eps_char: float) -> list[CheckResult]:
    """H on circular cylinders must equal 1/R for every radius and point."""
    radii = (0.5, 1.0, 2.0, 5.0)
    surfs = [catalog_get(f"cylinder({radius})") for radius in radii]
    # Every radius shares one domain, hence one sample set.
    u, v = grid_points(*surfs[0].domain.linspace(101, 101))
    h = curvature_scan(surfs, u, v, eps_char=eps_char).H
    err = np.abs(h - 1.0 / np.array(radii)[:, None])
    worst, i = _running_max(err, 0.0)
    where = ""
    if i is not None:
        k, p = divmod(i, len(u))
        where = f"R={radii[k]}, u={u[p]:.6g}, v={v[p]:.6g}"
    return [_mk("cylinder-curvature", worst, 1e-10, h.size, where)]


def _cone_reference(u: float, v: float) -> tuple[float, float, float]:
    root = math.sqrt(1.0 + 4.0 * u * u)
    nu1 = (math.cos(v) - 2.0 * u * math.sin(v)) / root
    nu2 = (math.sin(v) + 2.0 * u * math.cos(v)) / root
    return 1.0 / (u * root**3), nu1, nu2


def _normal_and_curvature(surf, u, v, eps_char: float):
    """From one jet evaluation at the points (u[i], v[i]): n1, n2, ||N^h||,
    the mask where unit_horizontal_normal raises, and mean_curvature_batch
    run block by block."""
    jets = eval_jets(surf, u, v)
    n1, n2, q = horizontal_normal_batch(jets)
    parts = [mean_curvature_batch(jets[sl], eps_char=eps_char) for sl in blocks(len(u))]
    batch = CurvatureBatch(*map(np.concatenate, zip(*parts)))
    return n1, n2, q, q < char_threshold(jets, eps_char), batch


def check_cone_curvature(seed: int, eps_char: float) -> list[CheckResult]:
    """Lower cone: H and nu^h against their closed forms."""
    surf = catalog_get("cone_lower")
    u, v = grid_points(*surf.domain.linspace(51, 51))
    n1, n2, q, char, batch = _normal_and_curvature(surf, u, v, eps_char)
    if char.any():  # unit_horizontal_normal raises at the first such point
        i = int(np.argmax(char))
        unit_horizontal_normal(eval_jet2(surf, float(u[i]), float(v[i])), eps_char)
    _raise_if_characteristic(batch.nh_norm, batch.char)  # as the strict scan raises
    ref = np.array([_cone_reference(a, b) for a, b in zip(u.tolist(), v.tolist())])
    err = np.stack((batch.H - ref[:, 0], n1 / q - ref[:, 1], n2 / q - ref[:, 2]))
    worst = _running_max(np.abs(err), 0.0)[0]
    return [_mk("cone-curvature-and-normal", worst, 1e-10, len(u), "51x51 grid")]


def check_paraboloid_locus(seed: int, eps_char: float) -> list[CheckResult]:
    """Characteristic locus of t = y^2 - x^2 must land on the line x + y = 0."""
    surf = catalog_get("paraboloid")
    pts = characteristic_locus(surf, grid=(101, 101), refine=60)
    if not pts:
        return [_mk("paraboloid-locus", math.inf, 1e-6, 0, "no locus points found")]
    worst = max(abs(p.x + p.y) for p in pts)
    return [_mk("paraboloid-locus", worst, 1e-6, len(pts), f"{len(pts)} locus points")]


def check_paraboloid_minimality(seed: int, eps_char: float) -> list[CheckResult]:
    """|H| of the paraboloid away from its locus (||N^h|| >= 1e-4)."""
    surf = catalog_get("paraboloid")
    u, v = grid_points(*surf.domain.linspace(101, 101))
    scan = curvature_scan([surf], u, v, eps_char=eps_char, floor=1e-4)
    worst = _running_max(np.abs(scan.H), 0.0)[0]
    count = int(scan.skip.size - scan.skip.sum())
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


def check_ruled_form_identity(seed: int, eps_char: float) -> list[CheckResult]:
    """On ruled patches (p_s, p_v) = (c, 0) and ||N^h|| = |c| pointwise."""
    rng = Lcg64(seed)
    specs = [_plane_flow_spec(), _ruled_paraboloid_spec()]
    specs += [random_ruled_spec(rng, i) for i in range(3)]
    worst = 0.0
    where = ""
    for spec in specs:
        surf = build_straight_ruled(spec, check_grid=None)
        dom = surf.domain
        sv = np.array([
            (rng.uniform(dom.u_min, dom.u_max), rng.uniform(dom.v_min, dom.v_max))
            for _ in range(2000)
        ])
        for s, v in (sv[sl].T for sl in blocks(len(sv))):
            c0, c1, c2 = per_value(lambda x: ruling_form_coefficients(spec, x), s)
            c = c0 + v * (c1 + v * c2)  # as ruling_form_coeff evaluates it
            jets = eval_jets(surf, s, v)
            p_u, p_v = induced_form_batch(jets)
            q = horizontal_normal_batch(jets)[2]
            # Dividing by the positive scale after the max rounds the same.
            err = np.max([abs(p_u - c), abs(p_v), abs(q - abs(c))], axis=0) / (1.0 + abs(c))
            worst, i = _running_max(err, worst)
            if i is not None:
                where = f"{spec.name} at s={float(s[i]):.6g}, v={float(v[i]):.6g}"
    return [_mk("ruled-form-identity", worst, 1e-10, len(specs) * len(sv), where)]


def check_random_ruled_minimality(seed: int, eps_char: float) -> list[CheckResult]:
    """Random ruled patches are horizontally minimal off the locus."""
    rng = Lcg64(seed)
    specs = [random_ruled_spec(rng, i) for i in range(100)]
    surfs = [build_straight_ruled(spec, check_grid=None) for spec in specs]
    # Every patch shares the domain of random_ruled_spec, hence one sample set.
    u, v = grid_points(*surfs[0].domain.linspace(21, 9))
    scan = curvature_scan(surfs, u, v, eps_char=eps_char, floor="band")
    skipped = int(scan.skip.sum())
    worst, i = _running_max(np.abs(scan.H), 0.0)
    where = ""
    if i is not None:
        k, p = divmod(i, len(u))
        where = f"{specs[k].name} at u={u[p]:.6g}, v={v[p]:.6g}"
    detail = f"{skipped} near-characteristic points skipped; worst {where}"
    return [_mk("random-ruled-minimality", worst, 1e-8, scan.skip.size - skipped, detail)]


def check_flow_straightness(seed: int, eps_char: float) -> list[CheckResult]:
    """Flow leaves of minimal surfaces project onto straight lines."""
    worst = 0.0
    count = 0
    n_traces = 0
    ds = 1e-3
    for name in H_MINIMAL_CATALOG:
        surf = catalog_get(name)
        dom = surf.domain
        for fu in (0.25, 0.5, 0.75):
            for fv in (0.25, 0.5, 0.75):
                u = dom.u_min + fu * dom.u_span
                v = dom.v_min + fv * dom.v_span
                try:
                    trace = integrate_flow(
                        surf, u, v, ds=ds, max_steps=300, eps_char=eps_char
                    )
                except CharacteristicPoint:
                    continue
                if len(trace) < 5:
                    continue
                n_traces += 1
                pts = trace.points[:, :2]
                second = (pts[2:] - 2.0 * pts[1:-1] + pts[:-2]) / (ds * ds)
                count += second.shape[0]
                mags = (second[:, 0] ** 2 + second[:, 1] ** 2) ** 0.5
                worst = max(worst, float(mags.max()))
    detail = f"{n_traces} traces over {len(H_MINIMAL_CATALOG)} surfaces"
    return [_mk("flow-leaf-straightness", worst, 1e-4, count, detail)]


def check_oracle_agreement(seed: int, eps_char: float) -> list[CheckResult]:
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
        for _ in range(4000):
            if len(seeds) >= 200:
                break
            u = rng.uniform(dom.u_min + mu, dom.u_max - mu)
            v = rng.uniform(dom.v_min + mv, dom.v_max - mv)
            j = eval_jet2(surf, u, v)
            if horizontal_normal(j).norm < 1e-2:
                continue
            try:
                oracle.append(mean_curvature_flow_oracle(
                    surf, u, v, ds=1e-3, n_steps=3, eps_char=eps_char
                ).H)
            except (CharacteristicPoint, FlowEscapedDomain, OutOfDomain):
                continue
            seeds.append((u, v))
        # The flow accepts a seed only at ||N^h|| >= STOP_FACTOR (10) times
        # the characteristic threshold, so the local formula, which needs 1x,
        # is defined at every accepted seed.
        u, v = np.array(seeds).reshape(-1, 2).T
        local = curvature_scan([surf], u, v, eps_char=eps_char).H[0]
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


def check_contact_factor(seed: int, eps_char: float) -> list[CheckResult]:
    """Straightening factor: target pullback = lambda * source pullback."""
    spec = _circle_lift_ruled_spec()
    source = build_straight_ruled(spec)
    target = build_plane_flow_patch(
        spec.angle, spec.curve.domain, spec.v_range, label="normal-form"
    )
    u, v = grid_points(*source.domain.linspace(21, 21))
    lam = np.array([plane_contact_factor(spec, *p) for p in zip(u.tolist(), v.tolist())])
    src_u, src_v = induced_form_batch(eval_jets(source, u, v))
    tgt_u, tgt_v = induced_form_batch(eval_jets(target, u, v))
    err = np.abs(np.stack((tgt_u - lam * src_u, tgt_v - lam * src_v)))
    worst = _running_max(err / (1.0 + np.abs(tgt_u)), 0.0)[0]
    return [_mk("contact-factor-pullback", worst, 1e-10, len(u), spec.name)]


def check_plane_map_ratio(seed: int, eps_char: float) -> list[CheckResult]:
    """(0, u, v) -> (uv, u, 0) scales the induced form by exactly -2u^2."""

    def source_jet(u: float, v: float) -> Jet2:
        return jet2((0.0, u, v), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def image_jet(u: float, v: float) -> Jet2:
        return jet2(
            (u * v, u, 0.0),
            (v, 1.0, 0.0),
            (u, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
        )

    dom = Domain(0.25, 2.0, -2.0, 2.0)
    source = make_surface(source_jet, dom, "vertical-plane-strip")
    image = make_surface(image_jet, dom, "graph-image")
    u, v = grid_points(*dom.linspace(21, 21))
    ratio = -2.0 * u * u
    src_u, src_v = induced_form_batch(eval_jets(source, u, v))
    img_u, img_v = induced_form_batch(eval_jets(image, u, v))
    err = np.abs(np.stack((img_u - ratio * src_u, img_v - ratio * src_v)))
    worst = _running_max(err / (1.0 + np.abs(ratio)), 0.0)[0]
    return [_mk("plane-map-contact-ratio", worst, 1e-10, len(u), "strip u in [0.25, 2]")]


def check_developable_minimality(seed: int, eps_char: float) -> list[CheckResult]:
    """The circle-lift tangent developable is horizontally minimal."""
    surf = catalog_get("circle_lift_developable")
    u, v = grid_points(*surf.domain.linspace(21, 21))
    h = curvature_scan([surf], u, v, eps_char=eps_char).H
    worst = _running_max(np.abs(h), 0.0)[0]
    return [_mk("developable-minimality", worst, 1e-8, h.size, surf.label)]


# ---------------------------------------------------------------------------
# core invariants


def _rand_point(rng: Lcg64) -> Point3:
    return Point3(
        rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    )


def _rand_jet(rng: Lcg64) -> Jet2:
    vals = [rng.uniform(-1.5, 1.5) for _ in range(9)]
    return jet2(vals[0:3], vals[3:6], vals[6:9])


def check_core_invariants(seed: int, eps_char: float) -> list[CheckResult]:
    n = 10000
    results = []

    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(n):
        p, q, r = _rand_point(rng), _rand_point(rng), _rand_point(rng)
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        scale = 1.0 + max(abs(lhs.x), abs(lhs.y), abs(lhs.t))
        worst = max(
            worst,
            abs(lhs.x - rhs.x) / scale,
            abs(lhs.y - rhs.y) / scale,
            abs(lhs.t - rhs.t) / scale,
        )
    results.append(_mk("core-associativity", worst, 1e-12, n))

    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(n):
        g, p, q = _rand_point(rng), _rand_point(rng), _rand_point(rng)
        d0 = kc_distance(p, q)
        d1 = kc_distance(group_mul(g, p), group_mul(g, q))
        worst = max(worst, abs(d0 - d1) / (1.0 + d0))
    results.append(_mk("core-left-invariance", worst, 1e-10, n))

    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(n):
        p = _rand_point(rng)
        wx = frame_to_euclidean(frame_x(p))
        wy = frame_to_euclidean(frame_y(p))
        wt = frame_to_euclidean(frame_t(p))
        worst = max(
            worst,
            abs(contact_eval(p, wx)),
            abs(contact_eval(p, wy)),
            abs(contact_eval(p, wt) - 1.0),
        )
    results.append(_mk("core-contact-frame", worst, 1e-14, n))

    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(n):
        p = _rand_point(rng)
        ex, ey, et = frame_x(p), frame_y(p), frame_t(p)
        for got, want in (
            (h_wedge(ex, ey), et),
            (h_wedge(ey, et), ex),
            (h_wedge(et, ex), ey),
        ):
            worst = max(
                worst,
                abs(got.a1 - want.a1),
                abs(got.a2 - want.a2),
                abs(got.a3 - want.a3),
            )
    results.append(_mk("core-wedge-clock", worst, 0.0, n))

    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(n):
        j = _rand_jet(rng)
        nh = horizontal_normal(j)
        rhs = nh.n1 * nh.n1 + nh.n2 * nh.n2
        worst = max(worst, abs(normal_compatibility(j) - rhs) / (1.0 + rhs))
    results.append(_mk("core-normal-compatibility", worst, 1e-10, n))

    rng = Lcg64(seed)
    worst_kernel = 0.0
    worst_unit = 0.0
    used = 0
    for _ in range(n):
        j = _rand_jet(rng)
        nh = horizontal_normal(j)
        if nh.norm < 1e-2:
            continue
        used += 1
        coeffs = induced_form(j)
        alpha, beta = coeffs.p_v / nh.norm, -coeffs.p_u / nh.norm
        w = (
            alpha * float(j.du[0]) + beta * float(j.dv[0]),
            alpha * float(j.du[1]) + beta * float(j.dv[1]),
            alpha * float(j.du[2]) + beta * float(j.dv[2]),
        )
        worst_kernel = max(worst_kernel, abs(contact_eval(nh.base, w)))
        fv = euclidean_to_frame(nh.base, w)
        worst_unit = max(worst_unit, abs(math.hypot(fv.a1, fv.a2) - 1.0))
    results.append(_mk("core-kernel-direction", worst_kernel, 1e-12, used))
    results.append(_mk("core-pushforward-unit", worst_unit, 1e-10, used))

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
    w1, w2 = np.array([(rng.uniform(-wu, wu), rng.uniform(-wv, wv)) for _ in range(m)]).T
    u = a11 * w1 + a12 * w2 + b1
    v = a21 * w1 + a22 * w2 + b2
    bn1, bn2, bq, bchar, bh = _normal_and_curvature(base, u, v, eps_char)
    rn1, rn2, rq, rchar, rh = _normal_and_curvature(repar, w1, w2, eps_char)
    bad = bh.char | rh.char | bchar | rchar
    if bad.any():  # the per-point calls raise what the per-point loop met first
        i = int(np.argmax(bad))
        ub, vb, ur, vr = (float(a[i]) for a in (u, v, w1, w2))
        mean_curvature_local(base, ub, vb, eps_char=eps_char, warn=False)
        mean_curvature_local(repar, ur, vr, eps_char=eps_char, warn=False)
        unit_horizontal_normal(eval_jet2(base, ub, vb), eps_char)
        unit_horizontal_normal(eval_jet2(repar, ur, vr), eps_char)
    h_err = np.abs(bh.H - rh.H) / (1.0 + np.abs(bh.H))
    nu_err = np.abs(np.stack((bn1 / bq - rn1 / rq, bn2 / bq - rn2 / rq)))
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
    eps_char: float = EPS_CHAR,
) -> dict:
    """Run one suite and return a JSON-ready report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choices: {sorted(SUITES)}")
    checks: list[CheckResult] = []
    for fn in SUITES[suite]:
        checks.extend(fn(seed, eps_char))
    return {
        "suite": suite,
        "seed": seed,
        "eps_char": eps_char,
        "passed": all(c.passed for c in checks),
        "n_checks": len(checks),
        "checks": [asdict(c) for c in checks],
    }
