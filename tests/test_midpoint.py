"""The midpoint-failure estimators: the tilted (importance-sampling) default
against the exact oracle and against counting, and the determinism of both."""

import json
import math

import numpy as np
import pytest
from scipy.stats import binom

from hypwalk import __version__, cli, engines, exact, stats
from hypwalk.hypgeom import gromov_product
from hypwalk.models.farey import FareyModel, L, R
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.walk import StepDistribution, sample_words, uniforms

free = FreeGroupModel()
one = free.identity()
W = FreeWord.from_str

UNIFORM = StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)
# non-uniform, multi-letter, with the identity in its support
MULTI = StepDistribution([W("ab"), W("BA"), W("a"), W("A"), W("bab"), W("B"), W("")],
                         [0.2, 0.15, 0.2, 0.1, 0.15, 0.15, 0.05])


def _reference_tilted(dist, two_n, seed, index, thetas):
    """One tilted walk, step by step on FreeWord: (hit, log-weight)."""
    u = uniforms(sample_words(seed, index, engines.ENSEMBLE_TILTED, two_n))
    n = two_n // 2
    x = mid = one
    log_w = 0.0
    for t in range(two_n):
        if t == n:
            mid = x
        if t < n:
            theta = thetas[0]
        else:
            theta = thetas[1] if 2 * gromov_product(free, one, mid, x) >= len(mid) else 0.0
        deltas = [len(x * g) - len(x) for g in dist.support]
        cum, total = [], 0.0
        for mu, d in zip(dist.weights, deltas):
            total += float(mu) * math.exp(-theta * d)
            cum.append(total)
        choice = sum(c <= u[t] * total for c in cum[:-1])
        log_w += math.log(total) + theta * deltas[choice]
        x = x * dist.support[choice]
    return 2 * gromov_product(free, one, mid, x) < len(mid), log_w


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
@pytest.mark.parametrize("thetas", [stats.MIDPOINT_TILTS, (0.3, 0.8), (0.0, 0.0)])
def test_tilted_engine_matches_reference(dist, thetas):
    two_n, seed, samples = 12, 31, 150
    hit, log_w = engines.free_midpoint_tilted(dist, two_n, samples, seed, thetas)
    for i in range(samples):
        ref_hit, ref_log_w = _reference_tilted(dist, two_n, seed, i, thetas)
        assert hit[i] == ref_hit, i
        assert log_w[i] == pytest.approx(ref_log_w, rel=1e-12, abs=1e-12), i


def test_tilts_are_the_roots_of_the_increment_law():
    theta_1, theta_2 = stats.MIDPOINT_TILTS

    def phi(theta, m):
        # E exp(-theta D) for a word of length m seen from a uniform far direction
        tail = [1.0] + [0.25 * 3.0 ** (1 - t) for t in range(1, m + 1)] + [0.0]
        return sum((tail[t] - tail[t + 1]) * math.exp(-theta * (m - 2 * t))
                   for t in range(m + 1))

    for m in range(1, 7):
        assert phi(theta_2, m) == pytest.approx(1.0, rel=1e-12)
        slope = (phi(theta_1 + 1e-6, m) - phi(theta_1 - 1e-6, m)) / 2e-6
        assert slope == pytest.approx(0.0, abs=1e-8)
    # the uniform law shortens with probability 1/2, then 3/4
    for theta, shorten in ((theta_1, 0.5), (theta_2, 0.75)):
        up, down = 0.75 * math.exp(-theta), 0.25 * math.exp(theta)
        assert down / (up + down) == pytest.approx(shorten, rel=1e-12)


def test_tilted_covers_oracle_at_acceptance_lengths():
    grid = [100, 200, 400]
    res = stats.midpoint_failure_decay(free, UNIFORM, grid, samples=100_000, seed=1010)
    rel = res.diagnostics["relative_error"]
    for two_n, lo, hi, r in zip(grid, res.series.ci_low, res.series.ci_high, rel):
        p = exact.midpoint_failure_probability(two_n)
        assert lo <= p <= hi, (two_n, lo, p, hi)
        assert r <= 0.05, (two_n, r)
    assert all(ess > 1000 for ess in res.diagnostics["effective_samples"])


def test_coverage_at_small_length():
    """Both estimators over 200 seeds at 2n = 20, against the exact value.

    Counting, 500 samples a seed: its Clopper-Pearson intervals cover the
    exact value with probability 0.9586 (summed over the binomial law
    below).  At least 177 of 200 must cover; a false failure has chance
    P(Bin(200, 0.9586) <= 176) = 3.5e-6.  Tilted, 1000 samples a seed: its
    normal interval covered 747 of 800 seeds (93%) at 1000 and 2000
    samples, a little under nominal because the weights are skewed.  At
    least 172 of 200 must cover; P(Bin(200, 0.93) <= 171) = 1.6e-4.  A bias
    of one standard error would drop either coverage to about 83%.  The
    pooled estimate over all seeds must also lie within 4 standard errors
    of the exact value (a false failure has chance 6e-5 each).  This
    settles whether single seeds that came out near 3 standard errors low
    were chance: the pooled estimates carry no bias at that level.
    """
    seeds, two_n = 200, 20
    p = exact.midpoint_failure_probability(two_n)
    cp_coverage = sum(
        binom.pmf(k, 500, p) for k in range(501)
        if stats.clopper_pearson(k, 500, 0.95)[0] <= p <= stats.clopper_pearson(k, 500, 0.95)[1]
    )
    assert binom.cdf(176, seeds, cp_coverage) < 1e-5
    assert binom.cdf(171, seeds, 0.93) < 2e-4

    covered, pooled = 0, []
    for seed in range(seeds):
        hit, log_w = engines.free_midpoint_tilted(UNIFORM, two_n, 1000, seed,
                                                  stats.MIDPOINT_TILTS)
        w = np.where(hit, np.exp(log_w), 0.0)
        half = 1.959963984540054 * w.std(ddof=1) / math.sqrt(w.size)
        covered += abs(w.mean() - p) <= half
        pooled.append(w)
    pooled = np.concatenate(pooled)
    z = (pooled.mean() - p) / (pooled.std(ddof=1) / math.sqrt(pooled.size))
    assert covered >= 172 and abs(z) <= 4.0, (covered, z)

    covered, hits = 0, 0
    for seed in range(seeds):
        res = stats.midpoint_failure_decay(free, UNIFORM, [two_n], samples=500, seed=seed,
                                           estimator="frequency")
        covered += res.series.ci_low[0] <= p <= res.series.ci_high[0]
        hits += round(res.series.probabilities[0] * 500)
    z = (hits / (500 * seeds) - p) / math.sqrt(p * (1 - p) / (500 * seeds))
    assert covered >= 177 and abs(z) <= 4.0, (covered, z)


def test_tilted_agrees_with_counting_on_a_multi_letter_law():
    # no oracle for this law: the two independent estimates must have
    # overlapping 95% intervals at every length
    grid = [6, 12, 20]
    tilted = stats.midpoint_failure_decay(free, MULTI, grid, samples=10_000, seed=12)
    counted = stats.midpoint_failure_decay(free, MULTI, grid, samples=10_000, seed=12,
                                           estimator="frequency")
    assert tilted.diagnostics["estimator"] == "tilted" and counted.diagnostics == {}
    for a_lo, a_hi, b_lo, b_hi in zip(tilted.series.ci_low, tilted.series.ci_high,
                                      counted.series.ci_low, counted.series.ci_high):
        assert max(a_lo, b_lo) <= min(a_hi, b_hi)
    assert all(h > 0 for h in tilted.diagnostics["hits"])


def test_tilted_is_deterministic_and_thread_independent():
    args = (free, UNIFORM, [10, 20], 20_000, 77)  # two blocks of samples
    first = stats.midpoint_failure_decay(*args)
    again = stats.midpoint_failure_decay(*args)
    threaded = stats.midpoint_failure_decay(*args, threads=2)
    for other in (again, threaded):
        assert other.series == first.series
        assert other.diagnostics == first.diagnostics
    hit_1, log_w_1 = engines.free_midpoint_tilted(UNIFORM, 20, 20_000, 77, stats.MIDPOINT_TILTS)
    hit_2, log_w_2 = engines.free_midpoint_tilted(UNIFORM, 20, 20_000, 77, stats.MIDPOINT_TILTS,
                                                  threads=2)
    assert np.array_equal(hit_1, hit_2) and np.array_equal(log_w_1, log_w_2)


@pytest.mark.parametrize("model,dist", [
    (free, UNIFORM), (free, MULTI),
    (FareyModel(), StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)),
], ids=["uniform", "multi", "farey"])
def test_counting_one_walk_matches_one_walk_per_grid_point(model, dist):
    # one observe call over the grid gives the counts of a call per point,
    # each walking only to its own 2n
    grid, samples, seed = [4, 8, 12, 16], 600, 31
    whole = stats.midpoint_failure_decay(model, dist, grid, samples, seed,
                                         estimator="frequency")
    for j, two_n in enumerate(grid):
        single = stats.midpoint_failure_decay(model, dist, [two_n], samples, seed,
                                              estimator="frequency")
        assert single.series.rows() == whole.series.rows()[j:j + 1]


def test_estimator_validation(monkeypatch):
    with pytest.raises(ValueError):
        stats.midpoint_failure_decay(free, UNIFORM, [4], samples=100, seed=1, estimator="magic")
    # an odd length is refused before any grid point is walked
    with monkeypatch.context() as patch:
        patch.setattr(engines, "free_midpoint_tilted", None)
        patch.setattr(engines, "observe", None)
        for estimator in ("tilted", "frequency"):
            with pytest.raises(ValueError, match="even"):
                stats.midpoint_failure_decay(free, UNIFORM, [4, 7], samples=100, seed=1,
                                             estimator=estimator)
    # the tilts are derived on the tree; counting runs on SL(2,Z) too
    farey = FareyModel()
    farey_law = StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)
    with pytest.raises(ValueError, match="tilted"):
        stats.midpoint_failure_decay(farey, farey_law, [4], samples=100, seed=1)
    counted = stats.midpoint_failure_decay(farey, farey_law, [4], samples=100, seed=1,
                                           estimator="frequency")
    assert counted.series.sample_count == 100
    with pytest.raises(ValueError):
        engines.free_midpoint_tilted(UNIFORM, 5, 10, 1, stats.MIDPOINT_TILTS)


# series.csv and summary.json of the `midpoint` subcommand for this config:
# the CLI keeps counting.  Recorded before the tilted estimator existed, and
# re-recorded once when the engines moved to block-keyed, step-major streams
CLI_CONFIG = {
    "model": "free",
    "distribution": [["a", 0.25], ["A", 0.25], ["b", 0.25], ["B", 0.25]],
    "seed": 2024,
    "samples": 3000,
    "n_grid": [4, 8, 16],
    "output_path": "out",
}
CLI_SERIES = """x,p,ci_low,ci_high
4,0.053999999999999999,0.046183861209476713,0.062699536912443121
8,0.033666666666666664,0.027503978205662832,0.040759069980630315
16,0.02,0.015295943667775803,0.025669811989113413
"""
CLI_SUMMARY = {
    "assertions": {"fit": True, "strictly_decreasing": True},
    "config_digest": "e660af60fb42b3ac0d3b25f1440a0978669db79d71dc5ba54bbb8ba3c9bde9f8",
    "diagnostics": {},
    "fit": {
        "K": 0.07006140164170288,
        "c": 0.9228891715646658,
        "intercept": -2.6583832551082827,
        "points_excluded": 0,
        "points_used": 3,
        "r_squared": 0.9739664973420952,
        "slope": -0.0802461258332195,
    },
    "model": "free",
    "samples": 3000,
    "seed": 2024,
    "subcommand": "midpoint",
    "version": __version__,
}


def test_midpoint_cli_output_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the digest covers the relative output_path
    (tmp_path / "cfg.json").write_text(json.dumps(CLI_CONFIG))
    assert cli.main(["midpoint", "--config", "cfg.json"]) == 0
    assert (tmp_path / "out" / "series.csv").read_text() == CLI_SERIES
    summary = json.dumps(CLI_SUMMARY, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "out" / "summary.json").read_text() == summary
