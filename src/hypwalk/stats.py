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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.stats import beta as _beta
from scipy.stats import norm as _norm

from . import engines
from .models.farey import translation_length_detail
from .walk import StepDistribution, assert_nonelementary, reflected, stream_generator

DEFAULT_CONFIDENCE = 0.95


def clopper_pearson(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial confidence interval."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(_beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(_beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
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
        n = values.size
        srt = np.sort(values)
        probs, lows, highs = [], [], []
        for t in thresholds:
            k = int(n - np.searchsorted(srt, t, side="left"))
            lo, hi = clopper_pearson(k, n, confidence)
            probs.append(k / n)
            lows.append(lo)
            highs.append(hi)
        return cls(tuple(thresholds), tuple(probs), tuple(lows), tuple(highs), n)

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


def _try_fit(series) -> DecayFit | None:
    try:
        return fit_exponential_decay(series)
    except ValueError:
        return None


def empirical_tail(values: Sequence[float], thresholds: Sequence[float],
                   confidence: float = DEFAULT_CONFIDENCE) -> TailEstimate:
    return TailEstimate.from_values(values, thresholds, confidence)


def _distance_samples(model, dist: StepDistribution, checkpoints, samples, seed, threads=1):
    if model.name == "free":
        return engines.free_distance_trajectories(dist, checkpoints, samples, seed, threads=threads)
    stats = engines.farey_checkpoint_stats(dist, checkpoints, samples, seed,
                                           want_distance=True, threads=threads)
    return {c: stats[c]["distance"] for c in stats}


def drift(model, dist: StepDistribution, n: int, samples: int, seed: int,
          threads: int = 1) -> DriftEstimate:
    """Mean of d(1, w_n)/n with a normal-approximation interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    d = _distance_samples(model, dist, [n], samples, seed, threads)[n]
    rates = d / n
    rate = float(rates.mean())
    half = 1.959963984540054 * float(rates.std(ddof=1)) / math.sqrt(samples)
    return DriftEstimate(rate=rate, ci_low=rate - half, ci_high=rate + half,
                         n=n, samples=samples)


def linear_progress_decay(model, dist: StepDistribution, L: float,
                          n_grid: Sequence[int], samples: int, seed: int,
                          confidence: float = DEFAULT_CONFIDENCE,
                          threads: int = 1) -> DecayResult:
    """P(d(1, w_n) <= L*n) along n_grid, with its exponential fit."""
    n_grid = [int(n) for n in n_grid]
    d = _distance_samples(model, dist, n_grid, samples, seed, threads)
    counts = [int(np.sum(d[n] <= L * n)) for n in n_grid]
    series = TailEstimate.from_counts(n_grid, counts, samples, confidence)
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit, diagnostics={"L": L})


def translation_decay(model, dist: StepDistribution, B: float,
                      n_grid: Sequence[int], samples: int, seed: int,
                      horizon: int = 64, confidence: float = DEFAULT_CONFIDENCE,
                      threads: int = 1) -> DecayResult:
    """P(translation length of w_n <= B) along n_grid.

    Farey with B = 0 uses the exact trace classifier.  Otherwise translation
    lengths are computed directly; Farey estimates that fail to stabilize
    within the horizon are counted conservatively (as <= B) and reported.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    assert_nonelementary(model, dist)
    n_grid = [int(n) for n in n_grid]
    non_stabilized = {n: 0 for n in n_grid}
    if model.name == "free":
        taus = engines.free_translation_lengths(dist, n_grid, samples, seed, threads=threads)
        counts = [int(np.sum(taus[n] <= B)) for n in n_grid]
    elif B == 0:
        stats = engines.farey_checkpoint_stats(dist, n_grid, samples, seed, threads=threads)
        counts = [int(stats[n]["trace_small"].sum()) for n in n_grid]
    else:
        counts = []
        for n in n_grid:
            cnt = 0
            steps = engines._draw_index_block(dist, n, 0, samples, seed, engines.ENSEMBLE_PRIMARY)
            for idx in steps:
                w = model.identity()
                for j in idx:
                    w = model.multiply(w, dist.support[int(j)])
                detail = translation_length_detail(w, horizon)
                if not detail.stabilized:
                    non_stabilized[n] += 1
                    cnt += 1  # conservative: counted as tau <= B
                elif detail.value <= B:
                    cnt += 1
            counts.append(cnt)
    series = TailEstimate.from_counts(n_grid, counts, samples, confidence)
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit,
                       diagnostics={"B": B, "non_stabilized": non_stabilized})


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
    if model.name == "free":
        center = tuple([1] * center_distance)
        gp = engines.free_center_products(dist, center, [n], samples, seed,
                                          ensemble=ensemble, threads=threads)[n]
    else:
        m = (1, 0, 0, 1)
        step = (2, 1, 1, 1)
        for _ in range(center_distance):
            a, b, c, d = m
            e, f, g, h = step
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        gp = engines.farey_center_products(dist, m, [n], samples, seed,
                                           ensemble=ensemble, threads=threads)[n]
    series = TailEstimate.from_values(gp, r_grid, confidence)
    empty = [r for r in r_grid if r > center_distance + 2.0 * model.delta]
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit,
                       diagnostics={"n": n, "center_distance": center_distance,
                                    "empty_shadow_radii": empty})


def _free_backtracks(dist, k, n_iter, samples, seed, threads=1):
    # ensemble keyed by k: sweeps over k compare independent draws
    ensemble = engines.ENSEMBLE_ITERATED_BASE + k
    Y, D = engines.free_segment_increments(dist, k, n_iter, samples, seed,
                                           ensemble=ensemble, threads=threads)
    X = np.diff(np.vstack([np.zeros((1, samples), dtype=np.int64), D]), axis=0)
    return Y, X, Y - X


def backtrack_tail(model, dist: StepDistribution, k: int, n: int, samples: int,
                   seed: int, thresholds: Sequence[float] | None = None,
                   confidence: float = DEFAULT_CONFIDENCE,
                   threads: int = 1) -> DecayResult:
    """Pooled tail of the backtracks Z_i of the k-iterated walk.

    Z is twice a Gromov product, so it lives on the even integers in the
    tree model; even thresholds make the cleanest fit grid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_iter = n // k
    if n_iter < 1:
        raise ValueError("n must be at least k")
    if model.name != "free":
        raise NotImplementedError("backtrack estimation is implemented for the free model")
    Y, _, Z = _free_backtracks(dist, k, n_iter, samples, seed, threads)
    pooled = Z.reshape(-1)
    if thresholds is None:
        thresholds = [float(t) for t in range(0, 14, 2)]
    series = TailEstimate.from_values(pooled, thresholds, confidence)
    fit = _try_fit(series.rows_xy())
    # mean_y alongside mean_z supports the k sweep: the smallest usable k is
    # the first whose segment drift clears the backtrack mean
    return DecayResult(series=series, fit=fit,
                       diagnostics={"k": k, "increments": int(pooled.size),
                                    "mean_z": float(pooled.mean()),
                                    "mean_y": float(Y.mean())})


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
    if model.name != "free":
        raise NotImplementedError("z-sum estimation is implemented for the free model")
    _, _, Z = _free_backtracks(dist, k, m_max, samples, seed, threads)
    mean_z = float(Z.mean())
    if L is None:
        if L_factor is None:
            raise ValueError("pass L or L_factor")
        L = L_factor * mean_z
    csum = np.cumsum(Z, axis=0)
    counts = [int(np.sum(csum[m - 1] >= L * m)) for m in n_grid]
    series = TailEstimate.from_counts(n_grid, counts, samples, confidence)
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit,
                       diagnostics={"k": k, "L": L, "mean_z": mean_z})


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
    if model.name != "free":
        raise NotImplementedError("bernstein estimation is implemented for the free model")
    Y, _ = engines.free_segment_increments(
        dist, k, m_max, samples, seed,
        ensemble=engines.ENSEMBLE_ITERATED_BASE + k, threads=threads,
    )
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
    series = TailEstimate.from_counts(n_grid, counts, samples, confidence)
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit,
                       diagnostics={"k": k, "epsilon": epsilon, "mean_y": mean_y})


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
    probability is far below 1/samples (about 2e-8 at 2n = 200).

    estimator="frequency" counts hits among plain mu-walks, with
    Clopper-Pearson intervals and empty diagnostics; the `midpoint` CLI
    subcommand uses it, so its outputs keep their sample-by-sample meaning.
    """
    two_n_grid = [int(x) for x in two_n_grid]
    if model.name != "free":
        raise NotImplementedError("midpoint estimation is implemented for the free model")
    if estimator == "frequency":
        counts = []
        for two_n in two_n_grid:
            gp, mid = engines.free_midpoint_events(dist, two_n, samples, seed, threads=threads)
            counts.append(int(np.sum(gp < 0.5 * mid)))
        series = TailEstimate.from_counts(two_n_grid, counts, samples, confidence)
        return DecayResult(series=series, fit=_try_fit(series.rows_xy()), diagnostics={})
    if estimator != "tilted":
        raise ValueError(f"unknown estimator {estimator!r}: use 'tilted' or 'frequency'")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = float(_norm.ppf(0.5 + 0.5 * confidence))
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
    return DecayResult(series=series, fit=_try_fit(series.rows_xy()),
                       diagnostics={"estimator": "tilted", "relative_error": rel,
                                    "hits": hits, "effective_samples": ess})


def diagonal_event_decay(model, dist: StepDistribution, n: int,
                         r_grid: Sequence[float], samples: int, seed: int,
                         confidence: float = DEFAULT_CONFIDENCE,
                         threads: int = 1) -> DecayResult:
    """P((v_n . w_n)_1 >= r - 2*delta) along r_grid for independent walks
    v ~ mu and w ~ reflected mu."""
    r_grid = [float(r) for r in r_grid]
    if model.name != "free":
        raise NotImplementedError("diagonal estimation is implemented for the free model")
    gp = engines.free_diagonal_products(dist, reflected(dist), n, samples, seed,
                                        threads=threads)
    shifted = [r - 2.0 * model.delta for r in r_grid]
    values = np.asarray(gp, dtype=np.float64)
    n_total = values.size
    probs, lows, highs = [], [], []
    for thr in shifted:
        kcnt = int(np.sum(values >= thr))
        lo, hi = clopper_pearson(kcnt, n_total, confidence)
        probs.append(kcnt / n_total)
        lows.append(lo)
        highs.append(hi)
    series = TailEstimate(tuple(r_grid), tuple(probs), tuple(lows), tuple(highs), n_total)
    fit = _try_fit(series.rows_xy())
    return DecayResult(series=series, fit=fit, diagnostics={"n": n})
