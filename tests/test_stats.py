"""Estimators against closed-form oracles and forced small cases."""

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta, binom, gamma, norm

from hypwalk import engines, stats, walk
from hypwalk.errors import ElementaryDistributionError
from hypwalk.models.farey import FareyElement, FareyModel, L, R
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.walk import StepDistribution, iterated_decomposition, sample_walk

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str


def uniform_free():
    return StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)


def test_empirical_tail_counting():
    est = stats.TailEstimate.from_values([0, 1, 2, 3], [0, 2])
    assert est.probabilities == (1.0, 0.5)
    est2 = stats.TailEstimate.from_values([0.1, 0.2], [5.0])
    assert est2.probabilities == (0.0,)
    with pytest.raises(ValueError):
        stats.TailEstimate.from_values([], [1.0])
    with pytest.raises(ValueError):
        stats.TailEstimate.from_values([1.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        stats.TailEstimate.from_values([1.0], [1.0], confidence=1.5)


def test_tail_monotone_and_ci_order():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=5000)
    est = stats.TailEstimate.from_values(vals, [-2, -1, 0, 1, 2])
    probs = est.probabilities
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    for p, lo, hi in zip(probs, est.ci_low, est.ci_high):
        assert lo <= p <= hi


def test_exponential_tail_oracle():
    """The tail intervals against the closed form P(X >= t) = exp(-t) of a
    mean-1 exponential, at t = 0..8 over 40 seeds of 100 000 values each,
    drawn by inversion, -log1p(-u), of the keyed Philox stream of the seed.

    At t = 0 every value counts, so that interval reaches 1 and covers.  The
    other 320 each cover with probability at least 0.95, so at most 28 of
    them may miss.  Were they independent, a false failure would have
    chance P(Bin(320, 0.05) > 28) = 1.7e-3; the thresholds of one sample
    are positively correlated, which widens the spread a little.  20 missed
    when this test was written.
    """
    ts = range(0, 9)
    assert binom.sf(28, 320, 0.05) < 2e-3
    misses = 0
    for seed in range(40):
        words = walk._philox(walk._stream_key(seed, 0)).random_raw(100_000)
        est = stats.TailEstimate.from_values(-np.log1p(-walk.uniforms(words)),
                                             [float(t) for t in ts])
        assert est.ci_high[0] == 1.0
        misses += sum(not lo <= math.exp(-t) <= hi
                      for t, lo, hi in zip(ts, est.ci_low, est.ci_high))
    assert misses <= 28, misses


def test_clopper_pearson_edges():
    lo, hi = stats.clopper_pearson(0, 100, 0.95)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = stats.clopper_pearson(100, 100, 0.95)
    assert hi == 1.0 and lo > 0.95


@pytest.mark.parametrize("successes,trials", [(5, 3), (-1, 10), (2.5, 10), (3, 2.5), (0, 0)])
def test_clopper_pearson_rejects_impossible_counts(successes, trials):
    # checked before the iterative solver runs, which such input could stall
    with pytest.raises(ValueError):
        stats.clopper_pearson(successes, trials, 0.95)


@pytest.mark.parametrize("trials", [2, 3, 10, 8192, 10 ** 7])
@pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999])
def test_clopper_pearson_closed_forms(trials, confidence):
    """Where a beta shape is 1 the bounds are closed forms, taken exactly:
    I_x(1, n) = 1 - (1 - x)^n and I_x(n, 1) = x^n."""
    n, tail = trials, 0.5 * (1.0 - confidence)
    hi0 = -math.expm1(math.log(tail) / n)
    lo1 = -math.expm1(math.log1p(-tail) / n)
    hi_last = math.exp(math.log1p(-tail) / n)
    lo_n = math.exp(math.log(tail) / n)
    assert stats.clopper_pearson(0, n, confidence) == (0.0, hi0)
    assert stats.clopper_pearson(1, n, confidence)[0] == lo1
    assert stats.clopper_pearson(n - 1, n, confidence)[1] == hi_last
    assert stats.clopper_pearson(n, n, confidence) == (lo_n, 1.0)
    # and each solves the tail it stands for to within 4 ulps of itself: the
    # tail's miss over its slope (a bound rounded near 1 moves x^n by n ulps,
    # so the tails themselves are compared through the slope)
    for x, tail_at_x, slope in (
            (hi0, math.exp(n * math.log1p(-hi0)), n * math.exp((n - 1) * math.log1p(-hi0))),
            (lo1, -math.expm1(n * math.log1p(-lo1)), n * math.exp((n - 1) * math.log1p(-lo1))),
            (hi_last, -math.expm1(n * math.log(hi_last)), n * hi_last ** (n - 1)),
            (lo_n, lo_n ** n, n * lo_n ** (n - 1))):
        assert abs(tail_at_x - tail) <= 4 * 2.2e-16 * x * slope


@st.composite
def counts(draw):
    """(successes, trials) with trials up to 10^7 and the count anywhere,
    drawn often near either end."""
    trials = draw(st.integers(1, 10 ** 7))
    k = draw(st.one_of(st.integers(0, min(trials, 50)), st.integers(0, trials),
                       st.integers(max(0, trials - 50), trials)))
    return k, trials


@settings(max_examples=300, deadline=None)
@given(count=counts(), confidence=st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]))
@example(count=(0, 1), confidence=0.95)
@example(count=(150, 3000), confidence=0.95)
@example(count=(3, 10 ** 7), confidence=0.5)
@example(count=(2, 7_114_158), confidence=0.5)
@example(count=(10 ** 7 - 3, 10 ** 7), confidence=0.5)
def test_quantiles_match_scipy_stats(count, confidence):
    """The standard-library quantiles against scipy.stats, to a relative
    1e-9 for the bounds and 1e-15 for the normal quantile.

    Up to 10^4 trials the bounds agree to about 1e-13.  The gap grows to
    1.6e-10 at 10^7 trials with a count of 2 or 3, and there it is scipy's
    error: test_small_count_bounds_solve_the_binomial_tail puts these bounds
    within 1e-13 of the root, while scipy's `beta.ppf` misses it by 1.2e-10
    at (3, 10^7, 0.5) and 1.6e-10 at (2, 7 114 158, 0.5).  A tolerance of
    1e-10 would fail on scipy's side.
    """
    k, trials = count
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, trials - k + 1))
    hi = 1.0 if k == trials else float(beta.ppf(1 - alpha / 2, k + 1, trials - k))
    assert stats.clopper_pearson(k, trials, confidence) == pytest.approx((lo, hi), rel=1e-9,
                                                                         abs=0.0)
    q = 0.5 + 0.5 * confidence
    assert stats._NORMAL.inv_cdf(q) == pytest.approx(float(norm.ppf(q)), rel=1e-15, abs=0.0)


def _binomial_term(i: int, n: int, x: float) -> float:
    """P(Bin(n, x) = i) from the exact coefficient, for small i."""
    return math.comb(n, i) * x ** i * math.exp((n - i) * math.log1p(-x))


@pytest.mark.parametrize("trials", [10 ** 4, 10 ** 6, 7_114_158, 10 ** 7])
@pytest.mark.parametrize("k", [2, 3, 7, 20])
@pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999])
def test_small_count_bounds_solve_the_binomial_tail(trials, k, confidence):
    """At a small count a bound can be checked against its definition: hi
    solves P(Bin(n, hi) <= k) = alpha / 2 and lo solves
    P(Bin(n, lo) >= k) = alpha / 2.  Both tails are short sums of terms with
    exact coefficients.  Dividing a tail's miss by its slope gives the
    bound's own error, which must be below 1e-13 of it.  This is where
    lgamma-based beta terms lose the most (8 digits at 10^7 trials)."""
    n, tail = trials, 0.5 * (1.0 - confidence)
    lo, hi = stats.clopper_pearson(k, n, confidence)
    lower = math.fsum(_binomial_term(i, n, hi) for i in range(k + 1))
    slope = (n - k) / (1.0 - hi) * _binomial_term(k, n, hi)
    assert abs(lower - tail) <= 1e-13 * hi * slope
    # term i + 1 is about n lo / (i + 1) < k / (i + 1) times term i, so 80
    # terms past k fall far below 1e-20 of the first
    terms = [_binomial_term(k, n, lo)]
    for i in range(k, k + 80):
        terms.append(terms[-1] * (n - i) / (i + 1) * lo / (1.0 - lo))
    upper = math.fsum(terms)
    slope = k / lo * terms[0]
    assert abs(upper - tail) <= 1e-13 * lo * slope


def test_tilted_interval_uses_the_normal_quantile():
    d, samples, seed = uniform_free(), 2000, 3
    res = stats.midpoint_failure_decay(free, d, [10], samples, seed, confidence=0.9)
    hit, log_w = engines.free_midpoint_tilted(d, 10, samples, seed, stats.MIDPOINT_TILTS)
    w = np.where(hit, np.exp(log_w), 0.0)
    p, se = float(w.mean()), float(w.std(ddof=1)) / math.sqrt(samples)
    z = NormalDist().inv_cdf(0.95)
    assert res.series.ci_low == (max(0.0, p - z * se),)
    assert res.series.ci_high == (p + z * se,)


def test_fit_exact_geometric():
    fit = stats.fit_exponential_decay([(0, 1.0), (1, 0.5), (2, 0.25)])
    assert abs(fit.c - 0.5) < 1e-12
    assert abs(fit.K - 1.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.points_used == 3 and fit.points_excluded == 0


def test_fit_constant_series():
    fit = stats.fit_exponential_decay([(0, 1.0), (1, 1.0), (2, 1.0)])
    assert fit.slope == 0.0 and fit.c == 1.0 and fit.r_squared == 1.0


def test_fit_requires_three_positive_points():
    with pytest.raises(ValueError):
        stats.fit_exponential_decay([(0, 1.0), (1, 0.5), (2, 0.0)])
    fit = stats.fit_exponential_decay([(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.25), (4, 0.125)])
    assert fit.points_excluded == 1


def test_drift_deterministic():
    d = StepDistribution([W("a")], [1.0])
    est = stats.drift(free, d, n=50, samples=10, seed=1)
    assert est.rate == 1.0
    assert est.ci_low == est.ci_high == 1.0
    # bounded by the largest step displacement
    d2 = StepDistribution([W("ab")], [1.0])
    est2 = stats.drift(free, d2, n=30, samples=5, seed=1)
    assert est2.rate == 2.0
    with pytest.raises(ValueError):
        stats.drift(free, d, n=0, samples=10, seed=1)
    with pytest.raises(ValueError):
        stats.drift(free, d, n=10, samples=1, seed=1)


def test_drift_interval_reads_its_confidence():
    d = uniform_free()
    default = stats.drift(free, d, n=20, samples=300, seed=4)
    for confidence in (0.95, 0.8, 0.99):
        est = stats.drift(free, d, n=20, samples=300, seed=4, confidence=confidence)
        assert est.rate == default.rate
        half = (est.ci_high - est.ci_low) / 2
        assert half == pytest.approx((default.ci_high - default.ci_low) / 2
                                     * norm.ppf(0.5 + confidence / 2) / norm.ppf(0.975))
    # 0.95 keeps the z it always used, bit for bit
    rates = engines.observe(free, d, [20], engines.DISTANCE, 300, 4)[20] / 20
    half = 1.959963984540054 * float(rates.std(ddof=1)) / math.sqrt(300)
    assert (default.ci_low, default.ci_high) == (default.rate - half, default.rate + half)
    with pytest.raises(ValueError, match="confidence"):
        stats.drift(free, d, n=20, samples=300, seed=4, confidence=1.0)


def test_drift_bounded_by_max_step():
    d = StepDistribution([W("ab"), W("B")], [0.5, 0.5])
    est = stats.drift(free, d, n=200, samples=200, seed=3)
    assert est.rate <= 2.0


def test_farey_drift_positive():
    d = StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)
    est = stats.drift(farey, d, n=500, samples=200, seed=5)
    est2 = stats.drift(farey, d, n=1000, samples=200, seed=5)
    assert est.rate > 0.05
    assert abs(est.rate - est2.rate) < 0.02  # stable as n doubles


def test_linear_progress_trivial_cases():
    d = StepDistribution([W("a")], [1.0])
    res = stats.linear_progress_decay(free, d, L=0.5, n_grid=[5, 10, 15],
                                      samples=20, seed=1)
    assert res.series.probabilities == (0.0, 0.0, 0.0)
    assert res.fit is None
    res0 = stats.linear_progress_decay(free, d, L=0.0, n_grid=[5, 10, 15],
                                       samples=20, seed=1)
    assert res0.series.probabilities == (0.0, 0.0, 0.0)


def test_translation_decay_free_return_probability():
    d = uniform_free()
    res = stats.translation_decay(free, d, B=0.0, n_grid=[2, 6, 10], samples=4000,
                                  seed=2)
    p = res.series.probabilities
    assert p[0] > p[1] > p[2]  # tree return probability decays
    assert p[0] == pytest.approx(0.25, abs=0.03)  # P(w_2 = 1) = 1/4


def test_translation_decay_requires_nonelementary():
    only_r = StepDistribution([R], [1.0])
    with pytest.raises(ElementaryDistributionError):
        stats.translation_decay(farey, only_r, B=0.0, n_grid=[2, 4], samples=10,
                                seed=1)


@pytest.mark.parametrize("B", [math.nan, -0.5, -math.inf])
@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
def test_translation_decay_rejects_b_not_at_least_zero(model, B):
    # NaN passes `B < 0`; the models then disagreed: F2 counted nothing and
    # SL(2,Z) every |trace| <= 2 row
    d = uniform_free() if model is free else StepDistribution([R, L, R.inverse(), L.inverse()],
                                                              [0.25] * 4)
    with pytest.raises(ValueError, match="B must be >= 0"):
        stats.translation_decay(model, d, B, [2, 4], 100, 1)


def test_translation_decay_farey_exact_classifier():
    d = StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)
    res = stats.translation_decay(farey, d, B=0.0, n_grid=[4, 8], samples=500,
                                  seed=3)
    # cross-check against a direct per-sample classification
    from hypwalk.walk import sample_walk

    direct = 0
    for i in range(500):
        ws = sample_walk(farey, d, 4, seed=3, stream=i)
        direct += abs(ws.locations[4].trace()) <= 2
    assert res.series.probabilities[0] == direct / 500


def test_translation_decay_farey_positive_B_exact_counting():
    # a non-uniform law: every grid point is read off one walk of max(n_grid)
    # steps, and each count is exact, not bounded
    d = StepDistribution([R, L, R.inverse(), L.inverse(), FareyElement(2, 1, 1, 1)],
                         [0.3, 0.2, 0.2, 0.2, 0.1])
    n_grid, samples, seed = [4, 8, 12], 80, 4
    walks = [sample_walk(farey, d, max(n_grid), seed=seed, stream=i).locations
             for i in range(samples)]
    for B in (0.5, 1.0, 2.0):
        res = stats.translation_decay(farey, d, B=B, n_grid=n_grid, samples=samples,
                                      seed=seed)
        direct = [sum(farey.translation_length(w[n]) <= B for w in walks) for n in n_grid]
        assert res.series.probabilities == tuple(k / samples for k in direct), B
        assert res.diagnostics == {"B": B}


def test_translation_decay_farey_below_one_reads_only_traces(monkeypatch):
    # a hyperbolic length on SL(2,Z) is an integer >= 1 (README, "Notes on
    # the Farey distance"), so B = 0.5 counts B = 0's rows with no exact
    # length, and B = 1 needs the exact lengths
    d = StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)
    n_grid, samples, seed = [10, 20, 40], 2000, 7
    at_zero = stats.translation_decay(farey, d, 0.0, n_grid, samples, seed).series

    def refuse(m):
        raise AssertionError("exact lengths computed")

    monkeypatch.setattr(engines, "_translation_lengths", refuse)
    assert stats.translation_decay(farey, d, 0.5, n_grid, samples, seed).series == at_zero
    with pytest.raises(AssertionError, match="exact lengths computed"):
        stats.translation_decay(farey, d, 1.0, n_grid, samples, seed)


def test_shadow_decay_trivial_radii():
    d = uniform_free()
    res = stats.shadow_measure_decay(free, d, n=30, center_distance=6,
                                     r_grid=[-1, 0, 10], samples=500, seed=5)
    p = res.series.probabilities
    assert p[0] == 1.0  # whole space at r <= 0
    assert p[2] == 0.0  # empty shadow beyond d(1, x) + 2 delta
    assert 10.0 in res.diagnostics["empty_shadow_radii"]


def test_backtrack_trivial_and_tails():
    det = StepDistribution([W("a")], [1.0])
    res = stats.backtrack_tail(free, det, k=5, n=50, samples=10, seed=6,
                               thresholds=[0, 2, 4])
    assert res.series.probabilities == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        stats.backtrack_tail(free, det, k=0, n=10, samples=5, seed=1)


def test_farey_iterated_increments_match_reference():
    # Y and Z of backtrack, z-sum and bernstein on SL(2,Z), sample by sample
    d = StepDistribution([R, L, R.inverse(), L.inverse(), FareyElement(2, 1, 1, 1)],
                         [0.3, 0.2, 0.2, 0.2, 0.1])
    k, m, samples, seed = 3, 6, 40, 12
    Y, Z = stats._iterated_increments(farey, d, k, m, samples, seed)
    for i in range(samples):
        w = sample_walk(farey, d, k * m, seed=seed, stream=i,
                        ensemble=engines.ENSEMBLE_ITERATED_BASE + k)
        ref = iterated_decomposition(farey, w, k)
        for got, want in ((Y, ref.Y), (Z, ref.Z)):
            assert got[:, i].tolist() == want.tolist(), i


def test_z_sum_trivial():
    det = StepDistribution([W("a")], [1.0])
    res = stats.z_sum_deviation(free, det, k=5, L=1.0, n_grid=[2, 4, 8], samples=10, seed=7)
    assert res.series.probabilities == (0.0, 0.0, 0.0)
    res0 = stats.z_sum_deviation(free, det, k=5, L=0.0, n_grid=[2, 4, 8], samples=10, seed=7)
    assert res0.series.probabilities == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        stats.z_sum_deviation(free, det, k=5, L=None, n_grid=[2, 4, 8], samples=10, seed=7)


def test_bernstein_trivial():
    det = StepDistribution([W("a")], [1.0])
    res = stats.bernstein_check(free, det, k=5, epsilon=0.5, n_grid=[2, 4],
                                samples=10, seed=8)
    assert res.series.probabilities == (0.0, 0.0)
    # impossible deviation: epsilon beyond the support diameter times k
    d = uniform_free()
    res2 = stats.bernstein_check(free, d, k=3, epsilon=10.0, n_grid=[2, 4],
                                 samples=50, seed=8)
    assert res2.series.probabilities == (0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda d: stats.z_sum_deviation(free, d, 2, 1.0, [1, 2], 20, 1, L_factor=3.0),
    lambda d: stats.z_sum_deviation(free, d, 2, None, [1, 2], 20, 1),
    lambda d: stats.bernstein_check(free, d, 2, 0.5, [1, 2], 20, 1, epsilon_factor=3.0),
    lambda d: stats.bernstein_check(free, d, 2, None, [1, 2], 20, 1),
], ids=["z-sum-both", "z-sum-neither", "bernstein-both", "bernstein-neither"])
def test_value_and_its_factor_are_exclusive(call, monkeypatch):
    # with both set, the factor used to be dropped without a word
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(engines, "observe", no_walk)
    with pytest.raises(ValueError, match="exactly one of"):
        call(uniform_free())


def test_backtrack_memory_is_four_increment_arrays():
    # observe's pair arrays leave as Y and Z fill, and neither X nor Y - X
    # is built: the traced peak is about four (n / k, samples) float arrays,
    # where it was eight
    d = uniform_free()
    k, n, samples = 5, 200, 8192
    stats.backtrack_tail(free, d, k, n, 64, 1)  # imports and first-call caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stats.backtrack_tail(free, d, k, n, samples, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * (n // k) * samples * 8, peak


@pytest.mark.parametrize("confidence", [1.5, float("nan"), -1.0, 0.0, 1.0])
def test_counting_estimators_reject_confidence_outside_zero_one(confidence):
    d = uniform_free()
    common = {"samples": 20, "seed": 1, "confidence": confidence}
    calls = [
        lambda: stats.clopper_pearson(3, 10, confidence),
        lambda: stats.TailEstimate.from_values([1.0], [1.0], confidence=confidence),
        lambda: stats.linear_progress_decay(free, d, 0.25, [4, 8], **common),
        lambda: stats.translation_decay(free, d, 0.0, [2, 4], **common),
        lambda: stats.z_sum_deviation(free, d, 2, 1.0, [1, 2], **common),
        lambda: stats.bernstein_check(free, d, 2, 0.5, [1, 2], **common),
        lambda: stats.midpoint_failure_decay(free, d, [4, 8], estimator="frequency", **common),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="confidence"):
            call()


@pytest.mark.parametrize("n_grid", [[-1, 2, 4], [0, 2], []])
def test_step_count_grids_reject_entries_below_one(n_grid):
    d = uniform_free()
    with pytest.raises(ValueError, match="n_grid"):
        stats.z_sum_deviation(free, d, 2, 1.0, n_grid, 20, 1)
    with pytest.raises(ValueError, match="n_grid"):
        stats.bernstein_check(free, d, 2, 0.5, n_grid, 20, 1)


def test_chernoff_bound_values():
    assert stats.chernoff_bound(0.0, 5) == 1.0
    assert stats.chernoff_bound(1.0, 1) == pytest.approx(2 / math.e, abs=1e-15)
    direct = (2 / math.e) ** 10
    assert stats.chernoff_bound(1.0, 10) == pytest.approx(direct, abs=1e-12)
    assert stats.chernoff_bound(1.0, 10) == pytest.approx(0.0465, abs=1e-4)
    with pytest.raises(ValueError):
        stats.chernoff_bound(-0.1, 5)
    with pytest.raises(ValueError):
        stats.chernoff_bound(1.0, 0)


def test_chernoff_empirical():
    emp, bound = stats.chernoff_empirical(1.0, t=0.0, n=5, samples=2000, seed=9)
    assert bound == 1.0 and emp <= 1.0
    emp2, bound2 = stats.chernoff_empirical(1.0, t=3.0, n=20, samples=2000, seed=9)
    assert bound2 == pytest.approx((4 / math.e**3) ** 20, rel=1e-12)
    assert emp2 <= bound2
    with pytest.raises(ValueError):
        stats.chernoff_empirical(0.0, t=1.0, n=5, samples=10, seed=1)


def test_chernoff_empirical_reads_the_aux_words_by_inversion():
    # sample i's exponentials are -log1p(-u) of its n ENSEMBLE_AUX words, summed in step order
    t, n, seed = 0.5, 10, 9
    hits = 0
    for i in range(300):
        total = 0.0
        for u in walk.uniforms(walk.sample_words(seed, i, engines.ENSEMBLE_AUX, n)):
            total -= np.log1p(-u)
        hits += total >= (1.0 + t) * n
    assert stats.chernoff_empirical(1.0, t, n, 300, seed)[0] == hits / 300
    # over two blocks, the estimate tracks the exact Gamma(n, 1) tail
    emp, _ = stats.chernoff_empirical(2.0, t, n, 20_000, seed)
    p = gamma.sf((1.0 + t) * n, n)
    assert abs(emp - p) <= 5 * math.sqrt(p * (1 - p) / 20_000)


def test_midpoint_failure_small_lengths():
    d = uniform_free()
    res = stats.midpoint_failure_decay(free, d, [4, 8, 16], samples=30_000, seed=10)
    p = res.series.probabilities
    # exact at 2n = 4: failure means full cancellation of a length-2 word,
    # so P = (3/4) * (1/4) * (1/4) = 3/64
    assert p[0] == pytest.approx(3 / 64, abs=0.004)
    assert p[0] > p[1] > p[2]


def test_diagonal_decay_probabilities():
    d = uniform_free()
    res = stats.diagonal_event_decay(free, d, n=40, r_grid=[-1, 0, 2, 4],
                                     samples=20_000, seed=11)
    p = res.series.probabilities
    assert p[0] == 1.0  # r <= 0 events always hold
    assert all(b <= a for a, b in zip(p, p[1:]))
