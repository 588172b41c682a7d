"""Estimators turning walk samples into quantitative decay claims.

Tail probabilities counted among plain samples carry exact Clopper-Pearson
intervals (normal approximations are useless at the tiny counts these
experiments produce).  The midpoint estimator's default is importance
sampling instead: its estimate is a weighted mean over thousands of hits,
so it carries a normal interval on that mean.
Exponential laws p ~ K * c^x are fitted by least squares on (x, log p)
with zero-count bins excluded and the exclusion count reported.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import betaincinv, ndtri

from . import engines
from .walk import (StepDistribution, assert_nonelementary, check_samples, reflected,
                   stream_generator)

DEFAULT_CONFIDENCE = 0.95


def clopper_pearson(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial confidence interval."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    alpha = 1.0 - confidence
    k, n = successes, trials
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


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
    def from_values(cls, values: Sequence[float], thresholds: Sequence[float],
                    confidence: float = DEFAULT_CONFIDENCE) -> "TailEstimate":
        """P(value >= t) per threshold; monotone non-increasing by
        construction."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("values must be non-empty")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        thresholds = [float(t) for t in thresholds]
        if sorted(thresholds) != thresholds:
            raise ValueError("thresholds must be ascending")
        counts = values.size - np.searchsorted(np.sort(values), thresholds, side="left")
        return cls.from_counts(thresholds, counts, values.size, confidence)

    @classmethod
    def from_counts(cls, xs: Sequence[float], counts: Sequence[int], trials: int,
                    confidence: float = DEFAULT_CONFIDENCE) -> "TailEstimate":
        """Per-x binomial frequencies (a series over n rather than a value
        tail, so monotonicity is not forced)."""
        probs, lows, highs = [], [], []
        for k in counts:
            lo, hi = clopper_pearson(int(k), trials, confidence)
            probs.append(int(k) / trials)
            lows.append(lo)
            highs.append(hi)
        return cls(tuple(float(x) for x in xs), tuple(probs), tuple(lows), tuple(highs), trials)

    def rows(self):
        return list(zip(self.thresholds, self.probabilities, self.ci_low, self.ci_high))

    def rows_xy(self):
        return list(zip(self.thresholds, self.probabilities))


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


def _decay(series: TailEstimate, **diagnostics) -> DecayResult:
    """`series` with its exponential fit (None below three positive points)."""
    try:
        fit = fit_exponential_decay(series.rows_xy())
    except ValueError:
        fit = None
    return DecayResult(series=series, fit=fit, diagnostics=diagnostics)


def empirical_tail(values: Sequence[float], thresholds: Sequence[float],
                   confidence: float = DEFAULT_CONFIDENCE) -> TailEstimate:
    return TailEstimate.from_values(values, thresholds, confidence)


def drift(model, dist: StepDistribution, n: int, samples: int, seed: int,
          confidence: float = DEFAULT_CONFIDENCE, threads: int = 1) -> DriftEstimate:
    """Mean of d(1, w_n)/n with a normal-approximation interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    d = engines.observe(model, dist, [n], engines.DISTANCE, samples, seed, threads=threads)[n]
    rates = d / n
    rate = float(rates.mean())
    half = float(ndtri(0.5 + 0.5 * confidence)) * float(rates.std(ddof=1)) / math.sqrt(samples)
    return DriftEstimate(rate=rate, ci_low=rate - half, ci_high=rate + half,
                         n=n, samples=samples)


def linear_progress_decay(model, dist: StepDistribution, L: float,
                          n_grid: Sequence[int], samples: int, seed: int,
                          confidence: float = DEFAULT_CONFIDENCE,
                          threads: int = 1) -> DecayResult:
    """P(d(1, w_n) <= L*n) along n_grid, with its exponential fit."""
    n_grid = [int(n) for n in n_grid]
    d = engines.observe(model, dist, n_grid, engines.DISTANCE, samples, seed, threads=threads)
    counts = [int(np.sum(d[n] <= L * n)) for n in n_grid]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), L=L)


def translation_decay(model, dist: StepDistribution, B: float,
                      n_grid: Sequence[int], samples: int, seed: int,
                      confidence: float = DEFAULT_CONFIDENCE,
                      threads: int = 1) -> DecayResult:
    """P(translation length of w_n <= B) along n_grid, all read off one walk
    per sample.  Exact on both models (`engines.translation_at_most`).
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    assert_nonelementary(model, dist)
    n_grid = [int(n) for n in n_grid]
    out = engines.observe(model, dist, n_grid, engines.translation_at_most(B), samples, seed,
                          threads=threads)
    counts = [int(np.sum(out[n])) for n in n_grid]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), B=B)


# centers of the shadow experiment: powers of one loxodromic per model
_SHADOW_CENTER_STEP = {"free": "a", "farey": "[[2,1],[1,1]]"}


def shadow_measure_decay(model, dist: StepDistribution, n: int, center_distance: int,
                         r_grid: Sequence[float], samples: int, seed: int,
                         confidence: float = DEFAULT_CONFIDENCE,
                         ensemble: int = engines.ENSEMBLE_PRIMARY,
                         threads: int = 1) -> DecayResult:
    """P(w_n lies in the r-shadow of a fixed far center) along r_grid.

    The center is a^center_distance in the free model and the n-th power of
    [[2,1],[1,1]] in the Farey model (both at distance center_distance from
    the identity).  Radii beyond d(1, x) + 2*delta give empty shadows and
    are flagged in the diagnostics.
    """
    r_grid = [float(r) for r in r_grid]
    step = model.parse(_SHADOW_CENTER_STEP[model.name])
    center = model.identity()
    for _ in range(center_distance):
        center = model.multiply(center, step)
    gp = engines.observe(model, dist, [n], engines.center_product(center), samples, seed,
                         ensemble=ensemble, threads=threads)[n]
    empty = [r for r in r_grid if r > center_distance + 2.0 * model.delta]
    return _decay(TailEstimate.from_values(gp, r_grid, confidence), n=n,
                  center_distance=center_distance, empty_shadow_radii=empty)


def _iterated_increments(model, dist, k, n_iter, samples, seed, threads=1):
    """(Y, X, Z), each of shape (n_iter, samples), of the k-iterated walk:
    Y[i] = d(w_ik, w_(i+1)k), X[i] = |w_(i+1)k| - |w_ik| and the backtrack
    Z = Y - X."""
    previous = {t: t - k for t in range(k, k * n_iter + 1, k)}
    # ensemble keyed by k: sweeps over k compare independent draws
    out = engines.observe(model, dist, previous, engines.pair_products(previous), samples,
                          seed, ensemble=engines.ENSEMBLE_ITERATED_BASE + k, threads=threads)
    pairs = np.stack(list(out.values()))
    D, gp = pairs[..., 0], pairs[..., 1]
    before = np.vstack([np.zeros((1, samples), dtype=np.int64), D[:-1]])
    Y = before + D - 2 * gp
    X = D - before
    return Y, X, Y - X


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
    Y, _, Z = _iterated_increments(model, dist, k, n_iter, samples, seed, threads)
    pooled = Z.reshape(-1)
    if thresholds is None:
        thresholds = [float(t) for t in range(0, 14, 2)]
    # mean_y alongside mean_z supports the k sweep: the smallest usable k is
    # the first whose segment drift clears the backtrack mean
    return _decay(TailEstimate.from_values(pooled, thresholds, confidence), k=k,
                  increments=int(pooled.size), mean_z=float(pooled.mean()),
                  mean_y=float(Y.mean()))


def z_sum_deviation(model, dist: StepDistribution, k: int, n: int,
                    L: float | None, samples: int, seed: int,
                    n_grid: Sequence[int] | None = None,
                    L_factor: float | None = None,
                    confidence: float = DEFAULT_CONFIDENCE,
                    threads: int = 1) -> DecayResult:
    """P(Z_1 + ... + Z_m >= L*m) along a grid of iterated-step counts m.

    The threshold slope L should exceed the mean backtrack; either pass it
    directly or pass L_factor to use L = L_factor * (measured mean of Z).
    """
    if n_grid is None:
        n_grid = sorted({max(1, (n // k) * j // 8) for j in range(1, 9)})
    n_grid = [int(m) for m in n_grid]
    m_max = max(n_grid)
    _, _, Z = _iterated_increments(model, dist, k, m_max, samples, seed, threads)
    mean_z = float(Z.mean())
    if L is None:
        if L_factor is None:
            raise ValueError("pass L or L_factor")
        L = L_factor * mean_z
    csum = np.cumsum(Z, axis=0)
    counts = [int(np.sum(csum[m - 1] >= L * m)) for m in n_grid]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), k=k, L=L,
                  mean_z=mean_z)


def bernstein_check(model, dist: StepDistribution, k: int, epsilon: float | None,
                    n_grid: Sequence[int], samples: int, seed: int,
                    epsilon_factor: float | None = None,
                    confidence: float = DEFAULT_CONFIDENCE,
                    threads: int = 1) -> DecayResult:
    """P(|sum_{i<=m} (Y_i - mean Y)| >= epsilon*m) along n_grid; the mean is
    the pooled estimate over all increments.  Pass epsilon directly or
    epsilon_factor to use epsilon = epsilon_factor * mean."""
    n_grid = [int(m) for m in n_grid]
    m_max = max(n_grid)
    Y, _, _ = _iterated_increments(model, dist, k, m_max, samples, seed, threads)
    mean_y = float(Y.mean())
    if epsilon is None:
        if epsilon_factor is None:
            raise ValueError("pass epsilon or epsilon_factor")
        epsilon = epsilon_factor * mean_y
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    csum = np.cumsum(Y, axis=0)
    counts = [
        int(np.sum(np.abs(csum[m - 1] - m * mean_y) >= epsilon * m)) for m in n_grid
    ]
    return _decay(TailEstimate.from_counts(n_grid, counts, samples, confidence), k=k,
                  epsilon=epsilon, mean_y=mean_y)


def chernoff_bound(t: float, n: int) -> float:
    """((1 + t) / e^t)^n: the exceedance bound for sums of n i.i.d.
    exponential variables at (1 + t) times their mean."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(((1.0 + t) / math.exp(t)) ** n)


def chernoff_empirical(rate_mean: float, t: float, n: int, samples: int,
                       seed: int, stream: int = 0) -> tuple[float, float]:
    """Empirical P(sum of n exponentials >= (1 + t) * n * mean) next to the
    closed-form bound."""
    check_samples(samples)
    if rate_mean <= 0:
        raise ValueError("rate_mean must be positive")
    bound = chernoff_bound(t, n)
    gen = stream_generator(seed, stream, engines.ENSEMBLE_AUX)
    draws = gen.exponential(scale=rate_mean, size=(samples, n))
    empirical = float(np.mean(draws.sum(axis=1) >= (1.0 + t) * n * rate_mean))
    return empirical, bound


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


def midpoint_failure_decay(model, dist: StepDistribution, two_n_grid: Sequence[int],
                           samples: int, seed: int,
                           confidence: float = DEFAULT_CONFIDENCE,
                           threads: int = 1, estimator: str = "tilted") -> DecayResult:
    """P((w_n . w_2n)_1 < d(1, w_n)/2) along a grid of even walk lengths.

    estimator="tilted" (the default) is importance sampling: walks from
    `engines.free_midpoint_tilted` with the tilts MIDPOINT_TILTS,
    estimate = mean of weight * hit, and a normal interval (clipped at 0)
    on that weighted mean.  Diagnostics carry, per grid point, the relative
    standard error, the hit count and the effective sample size
    (sum w)^2 / sum w^2 over the hits.  It stays accurate where the
    probability is far below 1/samples (about 2e-8 at 2n = 200).  Its
    tilts are derived on the tree, so it runs on the free model only.

    estimator="frequency" counts hits among plain mu-walks, with
    Clopper-Pearson intervals and empty diagnostics; the `midpoint` CLI
    subcommand uses it, so its outputs keep their sample-by-sample meaning.
    """
    two_n_grid = [int(x) for x in two_n_grid]
    if any(two_n % 2 for two_n in two_n_grid):
        raise ValueError("walk length must be even")
    if estimator == "frequency":
        # one walk to the longest 2n: d(1, w_n) at each n, (w_n . w_2n)_1 at each 2n
        pairs = {two_n // 2: 0 for two_n in two_n_grid}
        pairs.update({two_n: two_n // 2 for two_n in two_n_grid})
        out = engines.observe(model, dist, pairs, engines.pair_products(pairs), samples, seed,
                              threads=threads)
        counts = [int(np.sum(out[two_n][:, 1] < 0.5 * out[two_n // 2][:, 0]))
                  for two_n in two_n_grid]
        return _decay(TailEstimate.from_counts(two_n_grid, counts, samples, confidence))
    if estimator != "tilted":
        raise ValueError(f"unknown estimator {estimator!r}: use 'tilted' or 'frequency'")
    if model.name != "free":
        raise ValueError("the tilted estimator walks the tree: use estimator='frequency'")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = float(ndtri(0.5 + 0.5 * confidence))
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
    gp = engines.observe(model, dist, [n],
                         engines.product_with_walk(reflected(dist), engines.ENSEMBLE_REFLECTED),
                         samples, seed, threads=threads)[n]
    shifted = [r - 2.0 * model.delta for r in r_grid]
    series = dataclasses.replace(TailEstimate.from_values(gp, shifted, confidence),
                                 thresholds=tuple(r_grid))
    return _decay(series, n=n)
