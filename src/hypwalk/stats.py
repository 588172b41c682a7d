"""Estimators turning walk samples into quantitative decay claims.

Tail probabilities counted among plain samples carry exact Clopper-Pearson
intervals (normal approximations are useless at the tiny counts these
experiments produce).  `midpoint_failure_tilted` samples by importance
instead: its estimate is a weighted mean over thousands of hits, so it
carries a normal interval on that mean.
Exponential laws p ~ K * c^x are fitted by least squares on (x, log p)
with zero-count bins excluded and the exclusion count reported.
Backtrack, z-sum and bernstein read the segment lengths Y and backtracks Z
of one k-iterated walk (`_iterated_increments`), never the increments Y - Z.
Each estimator reduces a block of samples to counts, and Y and Z to exact
sums (they hold integers), as the block finishes (`engines.observe`).  Only
drift keeps its one checkpoint's rows, and z-sum and bernstein each row's
partial sums at their grid points until the pooled mean is known.

Both kinds of interval use the standard library alone.  The normal quantile
is `statistics.NormalDist().inv_cdf`.  A Clopper-Pearson bound is a quantile
of a beta law with integer shapes: a closed form when the count is 0, 1,
trials - 1 or trials, and otherwise the root of the regularised incomplete
beta that `_beta_quantile` finds.  Those roots are good to 1e-13 relative out
to 10^7 trials.  scipy's `betaincinv` agrees to 1e-13 up to 10^4 trials and
to 2e-10 at 10^7, where the error is scipy's; replacing it moved the bounds
once, in their last digits (README, "Determinism").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from statistics import NormalDist
from typing import Sequence

import numpy as np

from . import engines
from .walk import (StepDistribution, assert_nonelementary, block_words, check_samples,
                   reflected, uniforms)

DEFAULT_CONFIDENCE = 0.95

_NORMAL = NormalDist()
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def clopper_pearson(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial confidence interval (every counting estimator's check
    of its confidence)."""
    k, n = int(successes), int(trials)
    if n != trials or n <= 0:
        raise ValueError("trials must be a positive integer")
    if k != successes or not 0 <= k <= n:
        raise ValueError("successes must be an integer in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    tail = 0.5 * (1.0 - confidence)
    # the bounds are beta quantiles: lo solves I_x(k, n - k + 1) = tail and hi
    # solves I_x(k + 1, n - k) = 1 - tail; a shape of 1 has a closed form, as
    # I_x(1, n) = 1 - (1 - x)^n and I_x(n, 1) = x^n
    if k == 0:
        lo = 0.0
    elif k == 1:
        lo = -math.expm1(math.log1p(-tail) / n)
    elif k == n:
        lo = math.exp(math.log(tail) / n)
    else:
        lo = _beta_quantile(k, n - k + 1, tail)
    if k == n:
        hi = 1.0
    elif k == 0:
        hi = -math.expm1(math.log(tail) / n)
    elif k == n - 1:
        hi = math.exp(math.log1p(-tail) / n)
    else:
        hi = _beta_quantile(k + 1, n - k, 1.0 - tail)
    return lo, hi


def _beta_quantile(a: int, b: int, p: float) -> float:
    """The x with I_x(a, b) = p, for integers a, b >= 2 and 0 < p < 1.

    The guess is Abramowitz and Stegun 26.5.22 with the exact normal quantile
    z of p, the start of Numerical Recipes' `invbetai` (3rd ed., 6.14).  Each
    step evaluates I_x once and moves by the Taylor inversion of I_x about x
    to fourth order: Halley's step and the next two terms, whose derivatives
    are the beta density's.  Once the Newton step u = (I_x - p) / density
    has (1 + |z|) |u| below 1e-3 standard deviations (sd) of the law, the
    step taken is the last: what it leaves measured below
    0.6 ((1 + |z|) |u| / sd)^5 sd, under 1e-15 sd.  Where a and b both
    exceed about 150 the guess is already that close, so one evaluation
    suffices.  A step that would leave the bracket found so far bisects it
    instead.
    """
    a, b = float(a), float(b)  # the fraction's loop runs faster on floats
    z = _NORMAL.inv_cdf(p)
    lam = (z * z - 3.0) / 6.0
    ra, rb = 1.0 / (2 * a - 1), 1.0 / (2 * b - 1)
    h = 2.0 / (ra + rb)
    w = -z * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * math.exp(2.0 * w))
    if not 0.0 < x < 1.0:  # past 10^11 trials the guess can round to 1
        x = a / (a + b)
    tolerance = 1e-3 / (1.0 + abs(z)) / math.sqrt(a + b)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        y = 1.0 - x
        # x^a y^b / B(a, b), which is a * y times the binomial term at a
        front = a * y * math.exp(_log_binomial_term(a + b - 1.0, a, x, y))
        if x * (a + b) < a:
            f = front / _beta_fraction(a, b, x, y) - p
        else:
            f = (1.0 - p) - front / _beta_fraction(b, a, y, x)
        density = front / (x * y)
        if f < 0.0:
            lo = x
        else:
            hi = x
        if density == 0.0:
            x = 0.5 * (lo + hi)
            continue
        u = f / density
        # d^k log(density) / dx^k for k = 1, 2, 3
        g1 = (a - 1) / x - (b - 1) / y
        g2 = -(a - 1) / (x * x) - (b - 1) / (y * y)
        g3 = 2.0 * ((a - 1) / (x * x * x) - (b - 1) / (y * y * y))
        c2 = 0.5 * g1
        c3 = (g1 * g1 + g2) / 6.0
        c4 = (g1 * g1 * g1 + 3.0 * g1 * g2 + g3) / 24.0
        step = u * (1.0 + u * (c2 + u * (2.0 * c2 * c2 - c3 + u * (5.0 * c2 * (c2 * c2 - c3) + c4))))
        # past about 10^11 trials a bound near 1 reaches the rounding of x first
        if abs(u) <= max(tolerance * math.sqrt(x * y), 4e-16 * x):
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"beta quantile did not converge (a={a}, b={b}, p={p})")


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction F with I_x(a, b) = x^a y^b / (B(a, b) F), where
    y = 1 - x and x < a / (a + b): the form of DiDonato and Morris (1992),
    evaluated by the modified Lentz method (Numerical Recipes 3rd ed., 5.2
    and 6.4).  With the shapes swapped, x is 1 - x' rounded near 1, and it
    enters only as a factor or times the small shape, so the rounding costs
    no digits.  Numerical Recipes' own `betacf` form lost up to 1e-10 of a
    bound there at 10^7 trials."""
    s = a * y - b * x + 1.0
    t = 2.0 - x
    a1, ab1 = a - 1.0, a + b - 1.0
    f = c = a * s / (a + 1.0)
    d = 0.0
    m = 1.0
    den = a + 1.0
    while True:
        q = m * (b - m) * x / den
        an = q * (a1 + m) * (ab1 + m) * x / den
        den += 2.0
        bn = m + q + (a + m) * (s + m * t) / den
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        de = c * d
        f *= de
        if abs(de - 1.0) < 1e-15:
            return f
        m += 1.0


def _log_binomial_term(n: float, k: float, x: float, y: float) -> float:
    """log(C(n, k) x^k y^(n - k)) for 0 < k < n and y = 1 - x, in Loader's
    form: the Stirling errors and the two log1p terms are small where the
    lgamma terms would cancel (at n = 10^7, lgamma alone loses 8 digits).
    d = n x - k is taken from the smaller of x and y, which is exact."""
    m = n - k
    d = n * x - k if x < 0.5 else m - n * y
    return (_stirling_error(n) - _stirling_error(k) - _stirling_error(m)
            + k * math.log1p(d / k) + m * math.log1p(-d / m)
            + 0.5 * math.log(n / (k * m)) - _LOG_SQRT_2PI)


def _stirling_error(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n), by its asymptotic series past 15."""
    if n > 15:
        nn = 1.0 / (n * n)
        return (1 / 12 - nn * (1 / 360 - nn * (1 / 1260 - nn * (1 / 1680 - nn / 1188)))) / n
    return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI


@dataclass(frozen=True)
class TailEstimate:
    """Empirical probabilities with confidence bounds along an ascending
    grid of thresholds (or experiment sizes)."""

    thresholds: tuple[float, ...]
    probabilities: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    sample_count: int

    @classmethod
    def from_counts(cls, xs: Sequence[float], counts: Sequence[int], trials: int,
                    confidence: float = DEFAULT_CONFIDENCE) -> "TailEstimate":
        """Per-x binomial frequencies of counts among trials."""
        bounds = [clopper_pearson(int(k), trials, confidence) for k in counts]
        return cls(tuple(float(x) for x in xs), tuple(int(k) / trials for k in counts),
                   tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds), trials)

    def rows(self):
        return list(zip(self.thresholds, self.probabilities, self.ci_low, self.ci_high))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line on (x, log p): p ~ K * c^x with R^2 on log scale."""

    slope: float
    intercept: float
    c: float
    K: float
    r_squared: float
    points_used: int
    points_excluded: int


@dataclass(frozen=True)
class DriftEstimate:
    rate: float
    ci_low: float
    ci_high: float
    n: int
    samples: int


@dataclass(frozen=True)
class DecayResult:
    """A tail/series estimate together with its exponential fit (None when
    fewer than three positive bins survive) and run diagnostics."""

    series: TailEstimate
    fit: DecayFit | None
    diagnostics: dict = field(default_factory=dict)


def fit_exponential_decay(series: Sequence[tuple[float, float]]) -> DecayFit:
    """Fit p = K * c^x on the positive-p points of (x, p) pairs."""
    xs = [float(x) for x, p in series if p > 0.0]
    ps = [float(p) for x, p in series if p > 0.0]
    excluded = len(list(series)) - len(xs)
    if len(xs) < 3:
        raise ValueError("need at least 3 points with p > 0 to fit")
    x = np.asarray(xs)
    y = np.log(np.asarray(ps))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        c=float(np.exp(slope)),
        K=float(np.exp(intercept)),
        r_squared=r2,
        points_used=len(xs),
        points_excluded=excluded,
    )


def tail_counter(thresholds: Sequence[float]):
    """counter(values): how many values are >= each of the finite, ascending
    thresholds, so a tail counted from it never increases along them."""
    thresholds = [float(t) for t in thresholds]
    if not all(map(math.isfinite, thresholds)) or sorted(thresholds) != thresholds:
        raise ValueError("thresholds must be finite and ascending")
    return lambda values: len(values) - np.searchsorted(np.sort(values), thresholds, side="left")


def _counted(xs, count, observer, model, dist: StepDistribution, checkpoints, samples: int,
             seed: int, confidence: float, **kwargs) -> TailEstimate:
    """The frequencies along xs of count(rows), added over the blocks, where
    rows maps each checkpoint to a block's rows of `observer`."""
    def reducer(geom, walk):
        return count(dict(zip(sorted(set(checkpoints)), observer(geom, walk))))  # `observe`'s order

    parts = engines.observe(model, dist, checkpoints, reducer, samples, seed, **kwargs)
    return TailEstimate.from_counts(xs, np.sum(parts, axis=0), samples, confidence)


def _decay(series: TailEstimate, **diagnostics) -> DecayResult:
    """`series` with its exponential fit (None below three positive points)."""
    try:
        fit = fit_exponential_decay(list(zip(series.thresholds, series.probabilities)))
    except ValueError:
        fit = None
    return DecayResult(series=series, fit=fit, diagnostics=diagnostics)


def drift(model, dist: StepDistribution, n: int, samples: int, seed: int,
          confidence: float = DEFAULT_CONFIDENCE, threads: int = 1) -> DriftEstimate:
    """Mean of d(1, w_n)/n with a normal-approximation interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    d = np.concatenate(engines.observe(model, dist, [n], lambda g, w: next(engines.DISTANCE(g, w)),
                                       samples, seed, threads=threads))
    rates = d / n
    rate = float(rates.mean())
    half = _NORMAL.inv_cdf(0.5 + 0.5 * confidence) * float(rates.std(ddof=1)) / math.sqrt(samples)
    return DriftEstimate(rate=rate, ci_low=rate - half, ci_high=rate + half,
                         n=n, samples=samples)


def linear_progress_decay(model, dist: StepDistribution, L: float,
                          n_grid: Sequence[int], samples: int, seed: int,
                          confidence: float = DEFAULT_CONFIDENCE,
                          threads: int = 1) -> DecayResult:
    """P(d(1, w_n) <= L*n) along n_grid, with its exponential fit."""
    if not math.isfinite(L):
        raise ValueError("L must be a finite number")
    n_grid = [int(n) for n in n_grid]
    return _decay(_counted(n_grid, lambda d: [np.count_nonzero(d[n] <= L * n) for n in n_grid],
                           engines.DISTANCE, model, dist, n_grid, samples, seed, confidence,
                           threads=threads), L=L)


def translation_decay(model, dist: StepDistribution, B: float,
                      n_grid: Sequence[int], samples: int, seed: int,
                      confidence: float = DEFAULT_CONFIDENCE,
                      threads: int = 1) -> DecayResult:
    """P(translation length of w_n <= B) along n_grid, all read off one walk
    per sample.  Exact on both models (`engines.translation_at_most`).
    """
    if not B >= 0:  # NaN too
        raise ValueError("B must be >= 0")
    assert_nonelementary(model, dist)
    n_grid = [int(n) for n in n_grid]
    return _decay(_counted(n_grid, lambda hit: [np.count_nonzero(hit[n]) for n in n_grid],
                           engines.translation_at_most(B), model, dist, n_grid, samples, seed,
                           confidence, threads=threads), B=B)


# centers of the shadow experiment: powers of one loxodromic per model
_SHADOW_CENTER_STEP = {"free": "a", "farey": "[[2,1],[1,1]]"}


def shadow_measure_decay(model, dist: StepDistribution, n_grid: Sequence[int],
                         center_distance: int, r_grid: Sequence[float], samples: int,
                         seed: int, confidence: float = DEFAULT_CONFIDENCE,
                         threads: int = 1) -> list[DecayResult]:
    """P(w_n lies in the r-shadow of a fixed far center) along r_grid, one
    result per n of n_grid, in its order.  The i-th n walks its own
    ensemble, ENSEMBLE_GRID_BASE + i, so the sweep compares independent
    draws.

    The center is a^center_distance in the free model and the n-th power of
    [[2,1],[1,1]] in the Farey model (both at distance center_distance from
    the identity).  Radii beyond d(1, x) + 2*delta give empty shadows and
    are flagged in the diagnostics.
    """
    r_grid = [float(r) for r in r_grid]
    count = tail_counter(r_grid)
    step = model.parse(_SHADOW_CENTER_STEP[model.name])
    center = model.identity()
    for _ in range(center_distance):
        center = model.multiply(center, step)
    empty = [r for r in r_grid if r > center_distance + 2.0 * model.delta]
    return [_decay(_counted(r_grid, lambda gp: count(gp[n]), engines.center_product(center),
                            model, dist, [n], samples, seed, confidence, threads=threads,
                            ensemble=engines.ENSEMBLE_GRID_BASE + i),
                   n=n, center_distance=center_distance, empty_shadow_radii=empty)
            for i, n in enumerate(n_grid)]


def _iterated_increments(model, dist, k, n_iter, reduce, samples, seed, threads):
    """reduce(increments) of each block of the k-iterated walk; increments
    yields (Y_i, Z_i), i < n_iter: Y_i = d(w_ik, w_(i+1)k) and the backtrack
    Z_i = Y_i - (|w_(i+1)k| - |w_ik|) = 2 (|w_ik| - (w_ik . w_(i+1)k)_1)."""
    previous = {t: t - k for t in range(k, k * n_iter + 1, k)}
    products = engines.pair_products(previous)

    def increments(geom, walk):
        before = 0.0  # |w_ik|
        for dw, gp in products(geom, walk):
            z = 2.0 * (before - gp)
            yield z + dw - before, z
            before = dw

    # ensemble keyed by k: sweeps over k compare independent draws
    return engines.observe(model, dist, previous,
                           lambda geom, walk: reduce(increments(geom, walk)), samples, seed,
                           ensemble=engines.ENSEMBLE_ITERATED_BASE + k, threads=threads)


def _partial_sums(model, dist, k, n_grid, samples, seed, threads, which, value, factor, name):
    """(n_grid, sums, mean, threshold): sums[m] is each row's sum of its first
    m of Y (which = 0) or Z (which = 1), mean their exact mean over all rows
    at max(n_grid), and the threshold `value`, or `factor` times the mean."""
    if (value is None) == (factor is None):
        raise ValueError(f"pass exactly one of {name} and {name}_factor")
    if factor is not None and not 0 < factor < math.inf:  # NaN too
        raise ValueError(f"{name}_factor must be > 0")
    n_grid = [int(m) for m in n_grid]
    if not n_grid or min(n_grid) < 1:
        raise ValueError("n_grid must be a non-empty list of step counts >= 1")
    points = sorted(set(n_grid))

    def reduce(increments):
        running = accumulate(pair[which] for pair in increments)
        return [row_sums for m, row_sums in enumerate(running, 1) if m in points]

    parts = _iterated_increments(model, dist, k, points[-1], reduce, samples, seed, threads)
    sums = dict(zip(points, np.concatenate(parts, axis=1)))
    mean = float(sums[points[-1]].sum() / (points[-1] * samples))
    return n_grid, sums, mean, value if factor is None else factor * mean


def backtrack_tail(model, dist: StepDistribution, k: int, n: int, samples: int,
                   seed: int, thresholds: Sequence[float] | None = None,
                   confidence: float = DEFAULT_CONFIDENCE,
                   threads: int = 1) -> DecayResult:
    """Pooled tail of the backtracks Z_i of the k-iterated walk.

    Z is twice a Gromov product, so it lives on the even integers in the
    tree model (on the integers on the Farey graph); even thresholds make
    the cleanest fit grid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_iter = n // k
    if n_iter < 1:
        raise ValueError("n must be at least k")
    thresholds = range(0, 14, 2) if thresholds is None else thresholds
    count = tail_counter(thresholds)

    def reduce(increments):  # the counts, then the sums of Y and Z: integers, so exact
        return sum(np.concatenate([count(z), [y.sum(), z.sum()]]) for y, z in increments)

    *counts, sum_y, sum_z = np.sum(
        _iterated_increments(model, dist, k, n_iter, reduce, samples, seed, threads), axis=0)
    size = n_iter * samples
    # mean_y alongside mean_z supports the k sweep: the smallest usable k is
    # the first whose segment drift clears the backtrack mean
    return _decay(TailEstimate.from_counts(thresholds, counts, size, confidence), k=k,
                  increments=size, mean_z=float(sum_z / size), mean_y=float(sum_y / size))


def z_sum_deviation(model, dist: StepDistribution, k: int, L: float | None,
                    n_grid: Sequence[int], samples: int, seed: int,
                    L_factor: float | None = None,
                    confidence: float = DEFAULT_CONFIDENCE,
                    threads: int = 1) -> DecayResult:
    """P(Z_1 + ... + Z_m >= L*m) along a grid of iterated-step counts m.

    The threshold slope L should exceed the mean backtrack; pass either L
    or L_factor, which sets L = L_factor * (measured mean of Z).
    """
    if L is not None and not math.isfinite(L):
        raise ValueError("L must be a finite number")
    n_grid, sums, mean_z, L = _partial_sums(model, dist, k, n_grid, samples, seed, threads, 1,
                                            L, L_factor, "L")
    counts = [np.count_nonzero(sums[m] >= L * m) for m in n_grid]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), k=k, L=L,
                  mean_z=mean_z)


def bernstein_check(model, dist: StepDistribution, k: int, epsilon: float | None,
                    n_grid: Sequence[int], samples: int, seed: int,
                    epsilon_factor: float | None = None,
                    confidence: float = DEFAULT_CONFIDENCE,
                    threads: int = 1) -> DecayResult:
    """P(|sum_{i<=m} (Y_i - mean Y)| >= epsilon*m) along n_grid; the mean is
    the pooled estimate over all increments.  Pass either epsilon or
    epsilon_factor, which sets epsilon = epsilon_factor * mean."""
    if epsilon is not None and not 0 < epsilon < math.inf:  # NaN too
        raise ValueError("epsilon must be > 0")
    n_grid, sums, mean_y, epsilon = _partial_sums(model, dist, k, n_grid, samples, seed,
                                                  threads, 0, epsilon, epsilon_factor, "epsilon")
    if epsilon <= 0:  # the factor times a zero mean
        raise ValueError("epsilon must be positive")
    counts = [np.count_nonzero(np.abs(sums[m] - m * mean_y) >= epsilon * m) for m in n_grid]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), k=k,
                  epsilon=epsilon, mean_y=mean_y)


def chernoff_bound(t: float, n: int) -> float:
    """((1 + t) / e^t)^n: the exceedance bound for sums of n i.i.d.
    exponential variables at (1 + t) times their mean."""
    if not 0 <= t < math.inf:  # NaN too
        raise ValueError("t must be finite and >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(((1.0 + t) / math.exp(t)) ** n)


def chernoff_empirical(rate_mean: float, t: float, n: int, samples: int,
                       seed: int) -> tuple[float, float]:
    """Empirical P(sum of n exponentials >= (1 + t) * n * mean) next to the
    closed-form bound.  Sample r's i-th exponential is -mean * log1p(-u) on
    its step-i word of the `ENSEMBLE_AUX` block streams, summed a block at a
    time, so every (t, n) reads a prefix of the same draws."""
    check_samples(samples)
    if not 0 < rate_mean < math.inf:  # NaN too
        raise ValueError("rate_mean must be finite and positive")
    bound = chernoff_bound(t, n)

    def hits(lo: int, hi: int) -> int:
        total = np.zeros(hi - lo)
        for words in block_words(seed, lo, hi, engines.ENSEMBLE_AUX, n):
            total -= rate_mean * np.log1p(-uniforms(words))
        return int(np.count_nonzero(total >= (1.0 + t) * n * rate_mean))

    return sum(engines._run_blocks(hits, samples)) / samples, bound


# Tilts (theta_1, theta_2) of the midpoint estimator, from the law of the
# increment D = |xg| - |x| for g ~ mu and x far from the identity in a
# uniformly random direction: a word of length m then cancels c >= t >= 1
# letters with probability (1/4) 3^(1-t), D = m - 2c, and
# phi(theta) = E[exp(-theta D)] obeys phi(log 3) = 1 and
# phi(theta) = phi(log 3 - theta) for every word (the uniform boundary
# measure is conformal of dimension log 3).  So for every law, theta_1 =
# log(3)/2 minimises phi (zero tilted drift) and theta_2 = log 3 is its
# nonzero root (Siegmund's reversal: the tilted walk retracts at the rate
# the plain walk escapes).  For the uniform law on a, A, b, B the tilted
# walk shortens with probability 1/2 and 3/4.
MIDPOINT_TILTS = (0.5 * math.log(3.0), math.log(3.0))


def _even_lengths(two_n_grid: Sequence[int]) -> list[int]:
    two_n_grid = [int(x) for x in two_n_grid]
    if any(two_n % 2 for two_n in two_n_grid):
        raise ValueError("walk length must be even")
    return two_n_grid


def midpoint_failure_decay(model, dist: StepDistribution, two_n_grid: Sequence[int],
                           samples: int, seed: int,
                           confidence: float = DEFAULT_CONFIDENCE,
                           threads: int = 1) -> DecayResult:
    """P((w_n . w_2n)_1 < d(1, w_n)/2) along a grid of even walk lengths:
    hits counted among plain mu-walks, with Clopper-Pearson intervals and
    empty diagnostics.  The `midpoint` CLI subcommand runs it, so each row
    is hits/samples of plain walks, on both models.
    """
    two_n_grid = _even_lengths(two_n_grid)
    # one walk to the longest 2n: d(1, w_n) at each n, (w_n . w_2n)_1 at each 2n
    pairs = {two_n // 2: 0 for two_n in two_n_grid}
    pairs.update({two_n: two_n // 2 for two_n in two_n_grid})
    return _decay(_counted(
        two_n_grid, lambda out: [np.count_nonzero(out[t][1] < 0.5 * out[t // 2][0])
                                 for t in two_n_grid],
        engines.pair_products(pairs), model, dist, pairs, samples, seed, confidence,
        threads=threads))


def midpoint_failure_tilted(model, dist: StepDistribution, two_n_grid: Sequence[int],
                            samples: int, seed: int,
                            confidence: float = DEFAULT_CONFIDENCE,
                            threads: int = 1) -> DecayResult:
    """`midpoint_failure_decay`'s probabilities by importance sampling: walks
    from `engines.free_midpoint_tilted` with the tilts MIDPOINT_TILTS,
    estimate = mean of weight * hit, and a normal interval (clipped at 0)
    on that weighted mean.  Diagnostics carry, per grid point, the relative
    standard error, the hit count and the effective sample size
    (sum w)^2 / sum w^2 over the hits.  It stays accurate where the
    probability is far below 1/samples (about 2e-8 at 2n = 200).  Its
    tilts are derived on the tree, so it runs on the free model only.
    """
    two_n_grid = _even_lengths(two_n_grid)
    if model.name != "free":
        raise ValueError("the tilted estimator walks the tree: use midpoint_failure_decay")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = _NORMAL.inv_cdf(0.5 + 0.5 * confidence)
    probs, lows, highs, rel, hits, ess = [], [], [], [], [], []
    for two_n in two_n_grid:
        hit, log_w = engines.free_midpoint_tilted(dist, two_n, samples, seed, MIDPOINT_TILTS,
                                                  threads=threads)
        w = np.where(hit, np.exp(log_w), 0.0)
        p = float(w.mean())
        se = float(w.std(ddof=1)) / math.sqrt(samples)
        probs.append(p)
        lows.append(max(0.0, p - z * se))
        highs.append(p + z * se)
        rel.append(se / p if p > 0.0 else None)
        hits.append(int(hit.sum()))
        ess.append(float(w.sum() ** 2 / np.sum(w * w)) if p > 0.0 else 0.0)
    series = TailEstimate(tuple(float(x) for x in two_n_grid), tuple(probs),
                          tuple(lows), tuple(highs), samples)
    return _decay(series, estimator="tilted", relative_error=rel, hits=hits,
                  effective_samples=ess)


def diagonal_event_decay(model, dist: StepDistribution, n: int,
                         r_grid: Sequence[float], samples: int, seed: int,
                         confidence: float = DEFAULT_CONFIDENCE,
                         threads: int = 1) -> DecayResult:
    """P((v_n . w_n)_1 >= r - 2*delta) along r_grid for independent walks
    v ~ mu and w ~ reflected mu."""
    r_grid = [float(r) for r in r_grid]
    count = tail_counter([r - 2.0 * model.delta for r in r_grid])
    return _decay(_counted(r_grid, lambda gp: count(gp[n]),
                           engines.product_with_walk(reflected(dist), engines.ENSEMBLE_REFLECTED),
                           model, dist, [n], samples, seed, confidence, threads=threads), n=n)
