"""Estimators against closed-form oracles and forced small cases."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta, norm

from hypwalk import engines, stats
from hypwalk.errors import ElementaryDistributionError
from hypwalk.models.farey import FareyElement, FareyModel, L, R
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.walk import StepDistribution, iterated_decomposition, sample_walk, stream_generator

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str


def uniform_free():
    return StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)


def test_empirical_tail_counting():
    est = stats.empirical_tail([0, 1, 2, 3], [0, 2])
    assert est.probabilities == (1.0, 0.5)
    est2 = stats.empirical_tail([0.1, 0.2], [5.0])
    assert est2.probabilities == (0.0,)
    with pytest.raises(ValueError):
        stats.empirical_tail([], [1.0])
    with pytest.raises(ValueError):
        stats.empirical_tail([1.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        stats.empirical_tail([1.0], [1.0], confidence=1.5)


def test_tail_monotone_and_ci_order():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=5000)
    est = stats.empirical_tail(vals, [-2, -1, 0, 1, 2])
    probs = est.probabilities
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    for p, lo, hi in zip(probs, est.ci_low, est.ci_high):
        assert lo <= p <= hi


def test_exponential_tail_oracle():
    # closed form: P(X >= t) = exp(-t) for a mean-1 exponential
    gen = stream_generator(11, 0)
    vals = gen.exponential(scale=1.0, size=100_000)
    ts = list(range(0, 9))
    est = stats.empirical_tail(vals, [float(t) for t in ts])
    for t, lo, hi in zip(ts, est.ci_low, est.ci_high):
        assert lo <= math.exp(-t) <= hi


def test_clopper_pearson_edges():
    lo, hi = stats.clopper_pearson(0, 100, 0.95)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = stats.clopper_pearson(100, 100, 0.95)
    assert hi == 1.0 and lo > 0.95


@settings(max_examples=300, deadline=None)
@given(trials=st.integers(1, 10 ** 7), share=st.floats(0.0, 1.0),
       confidence=st.floats(0.5, 0.999999))
@example(trials=1, share=0.0, confidence=0.95)
@example(trials=3000, share=0.05, confidence=0.95)
@example(trials=10 ** 7, share=1.0, confidence=0.999999)
def test_quantiles_match_scipy_stats_bitwise(trials, share, confidence):
    # scipy.special's betaincinv and ndtri give exactly scipy.stats' values
    k = round(share * trials)
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, trials - k + 1))
    hi = 1.0 if k == trials else float(beta.ppf(1 - alpha / 2, k + 1, trials - k))
    assert stats.clopper_pearson(k, trials, confidence) == (lo, hi)
    q = 0.5 + 0.5 * confidence
    assert float(stats.ndtri(q)) == float(norm.ppf(q))


def test_tilted_interval_uses_the_normal_quantile():
    d, samples, seed = uniform_free(), 2000, 3
    res = stats.midpoint_failure_decay(free, d, [10], samples, seed, confidence=0.9)
    hit, log_w = engines.free_midpoint_tilted(d, 10, samples, seed, stats.MIDPOINT_TILTS)
    w = np.where(hit, np.exp(log_w), 0.0)
    p, se = float(w.mean()), float(w.std(ddof=1)) / math.sqrt(samples)
    z = float(norm.ppf(0.95))
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
    # Y, X, Z of backtrack, z-sum and bernstein on SL(2,Z), sample by sample
    d = StepDistribution([R, L, R.inverse(), L.inverse(), FareyElement(2, 1, 1, 1)],
                         [0.3, 0.2, 0.2, 0.2, 0.1])
    k, m, samples, seed = 3, 6, 40, 12
    Y, X, Z = stats._iterated_increments(farey, d, k, m, samples, seed)
    for i in range(samples):
        w = sample_walk(farey, d, k * m, seed=seed, stream=i,
                        ensemble=engines.ENSEMBLE_ITERATED_BASE + k)
        ref = iterated_decomposition(farey, w, k)
        for got, want in ((Y, ref.Y), (X, ref.X), (Z, ref.Z)):
            assert got[:, i].tolist() == want.tolist(), i


def test_z_sum_trivial():
    det = StepDistribution([W("a")], [1.0])
    res = stats.z_sum_deviation(free, det, k=5, n=50, L=1.0, samples=10, seed=7,
                                n_grid=[2, 4, 8])
    assert res.series.probabilities == (0.0, 0.0, 0.0)
    res0 = stats.z_sum_deviation(free, det, k=5, n=50, L=0.0, samples=10, seed=7,
                                 n_grid=[2, 4, 8])
    assert res0.series.probabilities == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        stats.z_sum_deviation(free, det, k=5, n=50, L=None, samples=10, seed=7)


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
