"""Coarse geometry over any model exposing the improper metric.

Everything here is computed purely from distances, so it works unchanged
for the exact tree metric of F2 and the improper Farey metric of SL(2,Z).
A "shadow" S_z(x, r) is the set of y whose Gromov product (x . y)_z is at
least r: a coarse cone behind x as seen from z.  Shadows are closed (ties
at exactly r are members).

The predicates `verify_*` implement inclusion/separation statements that
hold in any delta-hyperbolic space once their slack constants are large
enough.  The constants are existential, so they are treated as calibration
outputs (`suites.calibrate_constants`).

Everything is finite-time: boundary points, boundary metrics, and closure
statements about limit sets are deliberately out of scope, so products and
memberships are always evaluated on group elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class Shadow:
    """S_viewpoint(center, radius) = {y : (center . y)_viewpoint >= radius}.

    Membership is monotone in the radius: shrinking radius enlarges the
    shadow, and radius <= 0 gives the whole space.
    """

    viewpoint: object
    center: object
    radius: float


@dataclass(frozen=True)
class QuasiGeodesicParams:
    """Multiplicative constant K >= 1 and additive constant c >= 0."""

    K: float
    c: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.c < 0:
            raise ValueError("c must be >= 0")


def gromov_product(model, z, x, y) -> float:
    """(x . y)_z = (d(z,x) + d(z,y) - d(x,y)) / 2."""
    return 0.5 * (model.distance(z, x) + model.distance(z, y) - model.distance(x, y))


def in_shadow(model, s: Shadow, y) -> bool:
    return gromov_product(model, s.viewpoint, s.center, y) >= s.radius


def in_set_shadow(model, viewpoint, centers: Iterable, radius: float, y) -> bool:
    """Membership in the union of shadows over a finite set of centers."""
    return any(
        gromov_product(model, viewpoint, t, y) >= radius for t in centers
    )


def shadow_product_bound_check(model, s: Shadow, y, z2) -> bool:
    """For y, z2 both in the shadow s, their mutual Gromov product at the
    viewpoint is at least radius - 2*delta.  Raises PreconditionError if
    either point is outside s."""
    if not in_shadow(model, s, y) or not in_shadow(model, s, z2):
        raise PreconditionError("both points must lie in the shadow")
    return (
        gromov_product(model, s.viewpoint, y, z2) >= s.radius - 2.0 * model.delta
    )


def verify_metric_nest(model, centers: Iterable, r: float, neighborhood: float, probe) -> bool:
    """A point within distance D of the r-shadow of a set lies in the
    (r - D)-shadow of the set.  The caller guarantees the probe is within
    `neighborhood` of some shadow member; the check itself is just the
    enlarged-shadow membership, which must then always hold."""
    one = model.identity()
    return in_set_shadow(model, one, centers, r - neighborhood, probe)


def verify_nested_shadow_separation(
    model, z, x, r: float, gap: float, a_pt, b_pt, slack: float = 0.0
) -> bool:
    """Points of S_z(x, r) are at distance >= gap from points outside
    S_z(x, r - gap - slack), provided d(x, z) >= gap + r + 2*slack.

    Raises PreconditionError when the configuration does not satisfy the
    hypotheses (so harness searches can distinguish invalid instances from
    counterexamples).
    """
    if model.distance(x, z) < gap + r + 2.0 * slack:
        raise PreconditionError("need d(x, z) >= gap + r + 2*slack")
    if not in_shadow(model, Shadow(z, x, r), a_pt):
        raise PreconditionError("a_pt must lie in S_z(x, r)")
    if in_shadow(model, Shadow(z, x, r - gap - slack), b_pt):
        raise PreconditionError("b_pt must lie outside S_z(x, r - gap - slack)")
    return model.distance(a_pt, b_pt) >= gap


def verify_basepoint_change(
    model, x, y, z, r: float, probe, product_slack: float = 0.0, radius_slack: float = 0.0
) -> bool:
    """S_z(x, r) is contained in S_y(x, s) with
    s = d(x, y) - d(x, z) + r - radius_slack, provided (x . y)_z <= r - product_slack.
    """
    if gromov_product(model, z, x, y) > r - product_slack:
        raise PreconditionError("need (x . y)_z <= r - product_slack")
    if not in_shadow(model, Shadow(z, x, r), probe):
        raise PreconditionError("probe must lie in S_z(x, r)")
    s = model.distance(x, y) - model.distance(x, z) + r - radius_slack
    return in_shadow(model, Shadow(y, x, s), probe)


def verify_shadow_complement(model, x, z, r: float, probe, slack: float = 0.0) -> bool:
    """The complement of S_z(x, r) is squeezed between two shadows from x:

        S_x(z, d - r + slack)  <=  complement of S_z(x, r)  <=  S_x(z, d - r - slack)

    with d = d(x, z), valid for r >= slack and d >= r + 2*slack.  The probe
    is checked against whichever inclusion applies to it.
    """
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


def shadow_composition_check(model, centers: Iterable, s: float, r: float, probe) -> bool:
    """The r-shadow of an s-shadow of a set lies in the min(r, s) - 2*delta
    shadow of the set.  The caller guarantees the probe lies in the iterated
    shadow; the check is the outer membership, which must then always hold."""
    one = model.identity()
    return in_set_shadow(model, one, centers, min(r, s) - 2.0 * model.delta, probe)


def quasigeodesic_check(model, path: Sequence, params: QuasiGeodesicParams) -> bool:
    """Check the two-sided quasigeodesic inequality for every pair of path
    vertices, with the path parameterized by cumulative distance along it:

        |t_i - t_j| / K - c  <=  d(p_i, p_j)  <=  K |t_i - t_j| + c.

    All distances come from one `model.distances(path)` matrix, and the
    times t are running float sums of its consecutive distances.  Both
    inequalities are tested over the whole matrix at once: it and
    |t_i - t_j| are symmetric, so each pair is tested twice alike, and the
    diagonal (distance 0 at span 0) never fails.
    """
    if not path:
        raise PreconditionError("path must be non-empty")
    dist = model.distances(path)
    times = np.concatenate(([0.0], np.cumsum(np.diagonal(dist, 1), dtype=float)))
    span = np.abs(times[:, None] - times[None, :])
    bad = (dist > params.K * span + params.c) | (dist < span / params.K - params.c)
    return not bad.any()


def estimate_delta(model, sample_count: int, radius: int, rng) -> float:
    """Empirical hyperbolicity defect: the largest value of

        min((x . z)_w, (y . z)_w) - (x . y)_w

    over random quadruples within the given radius, clamped at 0, drawn
    from `rng` (a `walk.StreamDraws`).  This estimates 2*delta in the
    four-point formulation; deterministic for a fixed stream."""
    if sample_count < 1 or radius < 1:
        raise ValueError("sample_count and radius must be >= 1")
    worst = 0.0
    for _ in range(sample_count):
        w = model.sample_element(rng, radius)
        x = model.sample_element(rng, radius)
        y = model.sample_element(rng, radius)
        z = model.sample_element(rng, radius)
        defect = min(
            gromov_product(model, w, x, z), gromov_product(model, w, y, z)
        ) - gromov_product(model, w, x, y)
        if defect > worst:
            worst = defect
    return worst
