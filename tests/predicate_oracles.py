"""The shadow predicates of `hypgeom` written straight from the public
definitions, `gromov_product`, `in_shadow` and `Shadow`: every membership
is its own `in_shadow` call, so a distance is read once per Gromov product
that needs it.  The package's predicates read each distance once and must
return the same bool, or raise the same `PreconditionError` message, on
every instance."""

from __future__ import annotations

from hypwalk.errors import PreconditionError
from hypwalk.hypgeom import Shadow, gromov_product, in_shadow


def in_set_shadow(model, viewpoint, centers, radius, y):
    return any(gromov_product(model, viewpoint, t, y) >= radius for t in centers)


def shadow_product_bound_check(model, s, y, z2):
    if not in_shadow(model, s, y) or not in_shadow(model, s, z2):
        raise PreconditionError("both points must lie in the shadow")
    return gromov_product(model, s.viewpoint, y, z2) >= s.radius - 2.0 * model.delta


def verify_nested_shadow_separation(model, z, x, r, gap, a_pt, b_pt, slack=0.0):
    if model.distance(x, z) < gap + r + 2.0 * slack:
        raise PreconditionError("need d(x, z) >= gap + r + 2*slack")
    if not in_shadow(model, Shadow(z, x, r), a_pt):
        raise PreconditionError("a_pt must lie in S_z(x, r)")
    if in_shadow(model, Shadow(z, x, r - gap - slack), b_pt):
        raise PreconditionError("b_pt must lie outside S_z(x, r - gap - slack)")
    return model.distance(a_pt, b_pt) >= gap


def verify_basepoint_change(model, x, y, z, r, probe, product_slack=0.0, radius_slack=0.0):
    if gromov_product(model, z, x, y) > r - product_slack:
        raise PreconditionError("need (x . y)_z <= r - product_slack")
    if not in_shadow(model, Shadow(z, x, r), probe):
        raise PreconditionError("probe must lie in S_z(x, r)")
    s = model.distance(x, y) - model.distance(x, z) + r - radius_slack
    return in_shadow(model, Shadow(y, x, s), probe)


def verify_shadow_complement(model, x, z, r, probe, slack=0.0):
    d = model.distance(x, z)
    if r < slack or d < r + 2.0 * slack:
        raise PreconditionError("need r >= slack and d(x, z) >= r + 2*slack")
    in_main = in_shadow(model, Shadow(z, x, r), probe)
    in_inner = in_shadow(model, Shadow(x, z, d - r + slack), probe)
    in_outer = in_shadow(model, Shadow(x, z, d - r - slack), probe)
    if in_inner and in_main:
        return False  # inner shadow must avoid S_z(x, r)
    if not in_main and not in_outer:
        return False  # complement must land in the outer shadow
    return True
