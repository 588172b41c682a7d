"""Randomized verification suites for the shadow-geometry predicates.

Each suite is one `trial()` that draws a seeded instance of one
inclusion/separation statement and returns None for an invalid instance,
otherwise whether the statement held; `_tally` runs it until it has the
requested number of valid instances or its draw budget is spent.  A
statement's slack constants are existential, so `calibrate_constants`
first searches for the smallest values (on a half-integer grid, matching
the value lattice of both models) that produce no counterexample, and the
suites then verify at those fitted values.

Everything that differs between the models is one `_Shape` in `_SHAPES`,
its shadow-member and far-pair samplers included.  Free-model instances
are built by word surgery (exact membership by construction); Farey
instances are built by rejection sampling against the exact improper
metric, with small radii so acceptance stays usable.  The conjugator
suites need the tree's exact conjugacy and run on F2 only.

Instances come from the models' scalar samplers, which draw a free word
in two RNG calls and a Farey product as one counted run; the helpers here
continue those walks the same way (the tree wander; the Farey far pair, one
pass over `StreamDraws.runs` that measures its distance only after a run
that moves the slope), so every draw matches the per-letter, per-generator
samplers of `tests/scalar_samplers.py` value for value.  `rng` is a
`walk.StreamDraws` on the namespace `ENSEMBLE_PROPS` or
`ENSEMBLE_CALIBRATE`.  `_tally` counts every trial it runs
(`SuiteResult.attempts`), accepted or not; calibration stops a slack's run
at its first counterexample, and `props` fits only the slacks it verifies at.
A trial returns None as soon as its draws make the instance invalid; nested
separation does so right after `gap` and `r` when its inner shadow holds
every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import hypgeom
from .engines import ENSEMBLE_CALIBRATE, ENSEMBLE_PROPS
from .errors import PreconditionError, UnsatisfiableConfigError
from .hypgeom import QuasiGeodesicParams, Shadow, gromov_product
from .models.farey import FareyElement, random_product_entries
from .models.free import FreeWord, cyclic_reduce, random_conjugacy_instance, random_reduced_letters
from .walk import StreamDraws

SLACK_GRID = tuple(x / 2.0 for x in range(0, 13))
# conjugacy instances g = v s v^-1: |s| in 1..CORE_MAX, |v| in 0..CONJ_MAX
CORE_MAX = 3
CONJ_MAX = 20
_TREE_RADIUS = 20
# trials per requested instance of the suites that calibration fits
_REJECTION_BUDGET = 120


@dataclass
class SuiteResult:
    name: str
    instances: int
    failures: int
    fitted: dict = field(default_factory=dict)
    attempts: int = 0  # trials run, valid or not; not part of the outputs' bytes

    @property
    def passed(self) -> bool:
        return self.failures == 0


# --- instance construction helpers ---


def _shadow_member_tree(model, rng, z, x, r: float):
    """A point of S_z(x, r) in the tree: follow the geodesic z -> x past
    depth r, then wander up to 6 letters without cancelling."""
    u = model.multiply(model.invert(z), x)
    lo = int(np.ceil(max(r, 0.0)))
    if lo > len(u):
        raise UnsatisfiableConfigError("radius exceeds d(z, x); shadow has no such member")
    letters = list(u.letters[:int(rng.integers(lo, len(u) + 1))])
    wander = int(rng.integers(0, 7))
    letters += random_reduced_letters(rng, wander, letters[-1] if letters else None)
    return model.multiply(z, FreeWord(letters, _reduced=True))


def _shadow_member_farey(model, rng, z, x, r: float):
    """A point of S_z(x, r) by rejection: 40 tries, two of three near x."""
    d_zx = model.distance(z, x)  # `gromov_product`'s terms, d(z, x) once
    for t in range(40):
        if t % 3 < 2:
            # points near x have product against x close to d(z, x)
            y = model.multiply(x, model.sample_element(rng, 3))
        else:
            y = model.sample_element(rng, 8)
        if 0.5 * (d_zx + model.distance(z, y) - model.distance(x, y)) >= r:
            return y
    raise UnsatisfiableConfigError("rejection sampling found no shadow member")


def _far_pair_tree(model, rng, min_d: float):
    """(z, x) with d(z, x) >= min_d, exactly: x = z u with |u| >= min_d."""
    z = model.sample_element(rng, _TREE_RADIUS)
    gap = int(np.ceil(min_d))
    u = model.sample_word(rng, int(rng.integers(gap, max(gap + 1, _TREE_RADIUS + 1))))
    return z, model.multiply(z, u)


def _far_pair_farey(model, rng, min_d: float):
    """(z, x) with d(z, x) >= min_d by an outward random product (positive
    drift reaches min_d quickly).

    x = z u grows u by one `sample_element(rng, 2)` product a step, all in
    one `random_product_entries` call over `rng.runs(2, 4)`; d(z, x) is the
    ladder on u's first column, the value `FareyModel.distance(z, x)`
    computes, measured only after a run with L^+-1, and x is built once.
    """
    for _ in range(40):
        z = model.sample_element(rng, 4)
        u = random_product_entries(rng, 2, 12 * max(1, int(min_d)), min_d)
        if u is not None:
            return z, model.multiply(z, FareyElement(*u))
    raise UnsatisfiableConfigError(f"no pair at distance >= {min_d} found")


class _Shape(NamedTuple):
    """What the suites draw on one model."""

    radius: int  # instance elements lie within this radius of 1
    shadow_cap: float  # drawn shadow radii are at most this
    viewpoint_radius: int  # product-bound viewpoints
    nest_r_hi: int  # nested-separation radii are drawn below this
    complement_span: int  # shadow-complement radii span this many values
    defect_radius: int  # four-point-defect quadruples
    member: Callable  # (model, rng, z, x, r) -> a point of S_z(x, r)
    far_pair: Callable  # (model, rng, min_d) -> (z, x), d(z, x) >= min_d
    tree: bool  # run the conjugator suites


_SHAPES = {
    "free": _Shape(_TREE_RADIUS, math.inf, _TREE_RADIUS, 6, 5, 16,
                   _shadow_member_tree, _far_pair_tree, True),
    "farey": _Shape(8, 4, 4, 4, 4, 8, _shadow_member_farey, _far_pair_farey, False),
}


def _draw_shadow_radius(shape: _Shape, rng, d: float) -> float:
    return float(rng.integers(0, min(int(d), shape.shadow_cap) + 1))


def _tally(name: str, instances: int, trial, budget: int, fitted=None,
           stop_at_failure: bool = False) -> SuiteResult:
    """Run `trial` at most `budget * instances` times, stopping at
    `instances` valid instances (or at the first failure, when asked); None
    from a trial marks an invalid one."""
    produced = failures = attempts = 0
    while produced < instances and attempts < budget * instances:
        attempts += 1
        held = trial()
        if held is not None:
            produced += 1
            if not held:
                failures += 1
                if stop_at_failure:
                    break
    return SuiteResult(name, produced, failures, fitted or {}, attempts)


def _require_tree(model, suite: str) -> None:
    if not _SHAPES[model.name].tree:
        raise UnsatisfiableConfigError(f"{suite} suite runs on the free model")


# --- suites ---


def gromov_product_suite(model, instances: int, rng) -> SuiteResult:
    """Symmetry, range bounds, the 2*delta inequality, isometry invariance,
    and left-invariance of the metric."""
    radius = _SHAPES[model.name].radius
    two_delta = 2.0 * model.delta

    def trial():
        g, z, x, y, w = (model.sample_element(rng, radius) for _ in range(5))
        gp_xy = gromov_product(model, z, x, y)
        gp_yx = gromov_product(model, z, y, x)
        ok = gp_xy == gp_yx
        ok &= -1e-9 <= gp_xy <= min(model.distance(z, x), model.distance(z, y)) + 1e-9
        gp_xw = gromov_product(model, z, x, w)
        gp_yw = gromov_product(model, z, y, w)
        ok &= gp_xy >= min(gp_xw, gp_yw) - two_delta - 1e-9
        ok &= model.distance(model.multiply(g, x), model.multiply(g, y)) == model.distance(x, y)
        ok &= model.distance(x, y) == model.distance(
            model.identity(), model.multiply(model.invert(x), y)
        )
        return ok

    return _tally("gromov_product", instances, trial, 1)


def shadow_monotonicity_suite(model, instances: int, rng) -> SuiteResult:
    shape = _SHAPES[model.name]
    one = model.identity()

    def trial():
        x = model.sample_element(rng, shape.radius)
        d = model.distance(one, x)
        r = _draw_shadow_radius(shape, rng, d) if d else 0.0
        try:
            y = shape.member(model, rng, one, x, r)
        except UnsatisfiableConfigError:
            return None
        ok = hypgeom.in_shadow(model, Shadow(one, x, r), y)
        r_lower = r - float(rng.integers(0, 4))
        ok &= hypgeom.in_shadow(model, Shadow(one, x, r_lower), y)
        ok &= hypgeom.in_shadow(model, Shadow(one, x, -1.0),
                                model.sample_element(rng, shape.radius))
        return ok

    return _tally("shadow_monotonicity", instances, trial, 1)


def product_bound_suite(model, instances: int, rng) -> SuiteResult:
    """Two members of a shadow have mutual product >= radius - 2*delta."""
    shape = _SHAPES[model.name]

    def trial():
        z = model.sample_element(rng, shape.viewpoint_radius)
        x = model.sample_element(rng, shape.radius)
        d = model.distance(z, x)
        if d < 1:
            return None
        r = _draw_shadow_radius(shape, rng, d)
        try:
            y = shape.member(model, rng, z, x, r)
            y2 = shape.member(model, rng, z, x, r)
        except UnsatisfiableConfigError:
            return None
        return hypgeom.shadow_product_bound_check(model, Shadow(z, x, r), y, y2)

    return _tally("product_bound", instances, trial, 60)


def metric_nest_suite(model, instances: int, rng) -> SuiteResult:
    """D-neighbourhood of an r-shadow sits inside the (r - D)-shadow."""
    shape = _SHAPES[model.name]
    one = model.identity()

    def trial():
        centers = [model.sample_element(rng, shape.radius)
                   for _ in range(int(rng.integers(1, 4)))]
        t = centers[int(rng.integers(0, len(centers)))]
        d = model.distance(one, t)
        if d < 1:
            return None
        r = _draw_shadow_radius(shape, rng, d)
        try:
            h = shape.member(model, rng, one, t, r)
        except UnsatisfiableConfigError:
            return None
        hop = int(rng.integers(0, 4))
        probe = model.multiply(h, model.sample_element(rng, hop) if hop else one)
        reach = model.distance(h, probe)
        return hypgeom.verify_metric_nest(model, centers, r, float(reach), probe)

    return _tally("metric_nest", instances, trial, 60)


def composition_suite(model, instances: int, rng) -> SuiteResult:
    """The r-shadow of an s-shadow sits inside the min(r,s) - 2*delta shadow."""
    shape = _SHAPES[model.name]
    one = model.identity()

    def trial():
        centers = [model.sample_element(rng, shape.radius)
                   for _ in range(int(rng.integers(1, 4)))]
        t = centers[int(rng.integers(0, len(centers)))]
        d = model.distance(one, t)
        if d < 1:
            return None
        s = _draw_shadow_radius(shape, rng, d)
        try:
            mid = shape.member(model, rng, one, t, s)
            r = _draw_shadow_radius(shape, rng, model.distance(one, mid))
            probe = shape.member(model, rng, one, mid, r)
        except UnsatisfiableConfigError:
            return None
        return hypgeom.shadow_composition_check(model, centers, s, r, probe)

    return _tally("shadow_composition", instances, trial, 60)


def _nested_separation_trial(model, rng: StreamDraws, slack: float):
    """A trial that draws `gap` and `r`, then a far pair (z, x), a member
    `a_pt` of S_z(x, r) and a point `b_pt`.  When r - gap - slack <= 0 every
    point lies in the inner shadow (Gromov products are >= 0), so the trial
    is invalid after its first two words and draws nothing else."""
    shape = _SHAPES[model.name]

    def trial():
        gap = float(rng.integers(1, 4))
        r = float(rng.integers(1, shape.nest_r_hi))
        if r - gap - slack <= 0:
            return None
        try:
            z, x = shape.far_pair(model, rng, gap + r + 2 * slack)
            a_pt = shape.member(model, rng, z, x, r)
        except UnsatisfiableConfigError:
            return None
        b_pt = model.sample_element(rng, shape.radius)
        try:
            return hypgeom.verify_nested_shadow_separation(
                model, z, x, r, gap, a_pt, b_pt, slack=slack
            )
        except PreconditionError:
            return None  # b_pt landed inside the inner shadow

    return trial


def nested_separation_suite(model, instances: int, rng, slack: float) -> SuiteResult:
    """Members of S_z(x, r) sit at distance >= gap from non-members of
    S_z(x, r - gap - slack)."""
    return _tally("nested_separation", instances,
                  _nested_separation_trial(model, rng, slack),
                  _REJECTION_BUDGET, fitted={"slack": slack})


def _basepoint_change_trial(model, rng, product_slack: float, radius_slack: float):
    shape = _SHAPES[model.name]

    def trial():
        z, x, y = (model.sample_element(rng, shape.radius) for _ in range(3))
        d = model.distance(z, x)
        if d < 1:
            return None
        r = max(1.0, _draw_shadow_radius(shape, rng, d))
        if gromov_product(model, z, x, y) > r - product_slack:
            return None
        try:
            probe = shape.member(model, rng, z, x, r)
            return hypgeom.verify_basepoint_change(
                model, x, y, z, r, probe,
                product_slack=product_slack, radius_slack=radius_slack,
            )
        except (UnsatisfiableConfigError, PreconditionError):
            return None

    return trial


def basepoint_change_suite(model, instances: int, rng, product_slack: float,
                           radius_slack: float) -> SuiteResult:
    """S_z(x, r) lands inside S_y(x, d(x,y) - d(x,z) + r - radius_slack)
    whenever (x . y)_z <= r - product_slack."""
    return _tally("basepoint_change", instances,
                  _basepoint_change_trial(model, rng, product_slack, radius_slack),
                  _REJECTION_BUDGET,
                  fitted={"product_slack": product_slack, "radius_slack": radius_slack})


def _shadow_complement_trial(model, rng: StreamDraws, slack: float):
    shape = _SHAPES[model.name]
    r_lo = int(np.ceil(slack))

    def trial():
        r = float(rng.integers(r_lo, r_lo + shape.complement_span))
        try:
            z, x = shape.far_pair(model, rng, r + 2 * slack)
        except UnsatisfiableConfigError:
            return None
        probe = model.sample_element(rng, shape.radius)
        try:
            return hypgeom.verify_shadow_complement(model, x, z, r, probe, slack=slack)
        except PreconditionError:
            return None

    return trial


def shadow_complement_suite(model, instances: int, rng, slack: float) -> SuiteResult:
    """The complement of S_z(x, r) is squeezed between two shadows from x."""
    return _tally("shadow_complement", instances,
                  _shadow_complement_trial(model, rng, slack),
                  _REJECTION_BUDGET, fitted={"slack": slack})


def _prefixes(w: FreeWord) -> list[FreeWord]:
    return [FreeWord(w.letters[:i], _reduced=True) for i in range(1, len(w) + 1)]


def quasigeodesic_suite(model, instances: int, rng) -> SuiteResult:
    """Shortest-conjugator paths 1 -> v -> vs -> vsv^-1 are quasigeodesics;
    in the tree they are genuine geodesics, so (K, c) = (1, 0) fits."""
    _require_tree(model, "quasigeodesic")
    params = QuasiGeodesicParams(K=1.0, c=0.0)

    def trial():
        g, v, s = random_conjugacy_instance(model, rng, CORE_MAX, CONJ_MAX)
        vs = model.multiply(v, s)
        path = [model.identity(), *_prefixes(v),
                *(model.multiply(v, p) for p in _prefixes(s)),
                *(model.multiply(vs, p) for p in _prefixes(model.invert(v)))]
        return hypgeom.quasigeodesic_check(model, path, params)

    return _tally("quasigeodesic_conjugator", instances, trial, 1,
                  fitted={"K": 1.0, "c": 0.0})


def _conjugacy_shortfalls(model, g, v, s) -> tuple[float, float, float]:
    """For a conjugacy g = v s v^-1, how far each of the three shadow
    conditions satisfied by shortest conjugators is from holding at slack 0:

      1. d(1, g)/2 - d(1, v), for d(1, v) >= d(1, g)/2 - slack
      2. d(1, v) - (v . g)_1, for g in the shadow of v based at 1 with
         radius d(1, v) - slack
      3. d(1, v) - (gv . 1)_g, for 1 in the shadow of g*v based at g with
         radius d(1, v) - slack

    Condition i holds at a slack iff shortfall i <= slack.  Raises
    PreconditionError unless g = v s v^-1 holds exactly.
    """
    recomposed = model.multiply(model.multiply(v, s), model.invert(v))
    if recomposed != g:
        raise PreconditionError("g != v s v^-1")
    one = model.identity()
    dv = model.distance(one, v)
    return (0.5 * model.distance(one, g) - dv,
            dv - gromov_product(model, one, v, g),
            dv - gromov_product(model, g, model.multiply(g, v), one))


def conjugacy_suite(model, instances: int, rng, slack: float = 2.0) -> SuiteResult:
    """g = v s v^-1 cyclically reduces to the core s with the shortest
    conjugator v, and the three conjugator shadow conditions hold at the
    given slack.  Also reports the smallest slack that would have sufficed
    for the sampled instances."""
    _require_tree(model, "conjugacy")
    needed = 0.0

    def trial():
        nonlocal needed
        g, v, s = random_conjugacy_instance(model, rng, CORE_MAX, CONJ_MAX)
        shortfalls = _conjugacy_shortfalls(model, g, v, s)
        needed = max(needed, *shortfalls)
        return cyclic_reduce(g) == (s, v) and max(shortfalls) <= slack

    result = _tally("conjugacy_shadow_conditions", instances, trial, 1)
    result.fitted = {"slack": slack, "smallest_sufficient": max(0.0, needed)}
    return result


# --- calibration ---


def _fit_slacks(model, seed: int, instances: int) -> dict[str, float]:
    """Smallest slack values on the half-integer grid at which the
    nested-separation, shadow-complement and basepoint-change suites have
    zero failures over `instances` valid seeded instances; a run that spends
    its draw budget short of `instances` does not pass, so a slack at which
    nothing was tested is never accepted.

    Each search reads the stream of `seed` on `ENSEMBLE_CALIBRATE` from its
    start; a slack's run stops at its first counterexample, which settles
    that slack, so only the passing run draws all its instances."""

    def search(name, trial_at) -> float:
        for slack in SLACK_GRID:
            trial = trial_at(slack, StreamDraws(seed, ENSEMBLE_CALIBRATE))
            run = _tally(name, instances, trial, _REJECTION_BUDGET, stop_at_failure=True)
            if run.passed and run.instances == instances:
                return slack
        raise UnsatisfiableConfigError(f"no slack on {SLACK_GRID} fits {name}")

    fitted = {
        "nested_separation": search(
            "nested_separation", lambda s, rng: _nested_separation_trial(model, rng, s)),
        "shadow_complement": search(
            "shadow_complement", lambda s, rng: _shadow_complement_trial(model, rng, s)),
    }
    fitted["basepoint_product_slack"] = fitted["basepoint_radius_slack"] = search(
        "basepoint_change", lambda s, rng: _basepoint_change_trial(model, rng, s, s))
    return fitted


def calibrate_constants(model, seed: int, instances: int = 800) -> dict[str, float]:
    """The fitted slacks (`_fit_slacks`), the four-point defect and, on the
    tree, the smallest sufficient conjugator slack, each read from the start
    of the stream of `seed` on `ENSEMBLE_CALIBRATE`."""
    shape = _SHAPES[model.name]
    fitted = _fit_slacks(model, seed, instances)
    fitted["four_point_defect"] = hypgeom.estimate_delta(
        model, max(1000, instances), shape.defect_radius, StreamDraws(seed, ENSEMBLE_CALIBRATE))
    if shape.tree:
        fitted["conjugator_slack"] = conjugacy_suite(
            model, instances, StreamDraws(seed, ENSEMBLE_CALIBRATE), 6.0
        ).fitted["smallest_sufficient"]
    return fitted


def run_all_suites(model, instances: int, seed: int,
                   constants: dict[str, float] | None = None) -> list[SuiteResult]:
    """The full verification battery at fitted (or supplied) constants, drawn
    in turn from the stream of `seed` on `ENSEMBLE_PROPS`.  Only the slacks
    are fitted here, the values `calibrate_constants` reports for them."""
    if constants is None:
        constants = _fit_slacks(model, seed, max(200, instances // 10))
    rng = StreamDraws(seed, ENSEMBLE_PROPS)
    results = [
        gromov_product_suite(model, instances, rng),
        shadow_monotonicity_suite(model, instances, rng),
        product_bound_suite(model, instances, rng),
        metric_nest_suite(model, instances, rng),
        composition_suite(model, instances, rng),
        nested_separation_suite(model, instances, rng,
                                slack=constants["nested_separation"]),
        basepoint_change_suite(model, instances, rng,
                               product_slack=constants["basepoint_product_slack"],
                               radius_slack=constants["basepoint_radius_slack"]),
        shadow_complement_suite(model, instances, rng,
                                slack=constants["shadow_complement"]),
    ]
    if _SHAPES[model.name].tree:
        results.append(quasigeodesic_suite(model, instances, rng))
        results.append(conjugacy_suite(model, instances, rng, slack=2.0))
    return results
