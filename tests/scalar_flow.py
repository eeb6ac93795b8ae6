"""The reference flow stepper: one direction of a leaf, one RK4 stage at a
time through a float flow field ``heisflow.flow._field_of``, which the tests
take through the generic slot (``conftest.generic_slot``).

``heisflow.integrate_flows`` steps each leg with a generated function whose
four stages are straight-line text; :func:`leg` is the loop that it
replaced, kept here, as ``scalar_curvature`` keeps the per-point curvature.
The generated legs must give its accepted points bit for bit, its stop
reasons, and what it raises.
"""

import math

from heisflow.errors import OutOfDomain
from heisflow.flow import _LegStop


def leg(field, u, v, h, f, max_steps):
    """One direction of the leaf of ``field`` (:func:`_field_of`) from the
    seed (u, v), whose field ``f`` the caller has found finite and clear of
    the stop band; returns accepted (u, v) pairs and a reason."""
    pts: list[tuple[float, float]] = []
    reason = "step-limit"
    for _ in range(max_steps):
        try:
            k1 = f
            k2 = field(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = field(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = field(u + h * k3[0], v + h * k3[1])
            un = u + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            vn = v + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            fn = field(un, vn)
        except OutOfDomain:
            reason = "domain-exit"
            break
        except _LegStop:
            reason = "characteristic-proximity"
            break
        if (
            k2[0] * f[0] + k2[1] * f[1] < 0.0
            or k3[0] * f[0] + k3[1] * f[1] < 0.0
            or k4[0] * f[0] + k4[1] * f[1] < 0.0
            or fn[0] * f[0] + fn[1] * f[1] < 0.0
        ):
            # Field reversed within one step: a stage or the new point lies
            # across the characteristic locus, where the field flips sign.
            # Reject the new point.
            reason = "characteristic-proximity"
            break
        if math.hypot(fn[2] - f[2], fn[3] - f[3]) < 0.5 * abs(h):
            # A leaf has unit projected speed; a collapsing projected chord
            # means the substeps straddle the locus and cancel, pinning the
            # integrator against a characteristic point.
            reason = "characteristic-proximity"
            break
        pts.append((un, vn))
        u, v, f = un, vn, fn
    return pts, reason
