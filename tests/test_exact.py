"""The exact oracles for the uniform walk on F2, against brute force and an
independent transfer matrix, and the translation-decay estimator's
intervals against the exact translation probability."""

from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from scipy.stats import binom

import exact
from hypwalk import stats
from hypwalk.hypgeom import gromov_product
from hypwalk.models.free import GENERATOR_LETTERS, FreeGroupModel, FreeWord
from hypwalk.walk import StepDistribution

free = FreeGroupModel()
one = free.identity()
UNIFORM = StepDistribution([FreeWord((x,)) for x in GENERATOR_LETTERS], [0.25] * 4)


def _enumerated_failure(two_n: int) -> Fraction:
    # every one of the 4^(2n) walks, each with probability 4^(-2n)
    n = two_n // 2
    gens = [FreeWord((x,)) for x in GENERATOR_LETTERS]
    fails = 0
    for first in product(gens, repeat=n):
        mid = FreeWord()
        for g in first:
            mid = mid * g
        for second in product(gens, repeat=n):
            end = mid
            for g in second:
                end = end * g
            fails += 2 * gromov_product(free, one, mid, end) < len(mid)
    return Fraction(fails, 4 ** two_n)


def _transfer_matrix_failure(two_n: int) -> float:
    # first half: the law of k = |w_n|; second half: the chain on (j, h),
    # x = w_n[:j] followed by a branch of height h off the path to w_n
    n = two_n // 2
    first = {0: 1.0}
    for _ in range(n):
        nxt = defaultdict(float)
        for k, p in first.items():
            if k == 0:
                nxt[1] += p
            else:
                nxt[k + 1] += 0.75 * p
                nxt[k - 1] += 0.25 * p
        first = nxt
    total = 0.0
    for k, pk in first.items():
        chain = {(k, 0): 1.0}
        for _ in range(n):
            nxt = defaultdict(float)
            for (j, h), p in chain.items():
                if h > 0:
                    nxt[(j, h - 1)] += 0.25 * p
                    nxt[(j, h + 1)] += 0.75 * p
                elif k == 0:
                    nxt[(0, 1)] += p
                elif j == k:
                    nxt[(k - 1, 0)] += 0.25 * p
                    nxt[(k, 1)] += 0.75 * p
                elif j == 0:
                    nxt[(1, 0)] += 0.25 * p
                    nxt[(0, 1)] += 0.75 * p
                else:
                    nxt[(j - 1, 0)] += 0.25 * p
                    nxt[(j + 1, 0)] += 0.25 * p
                    nxt[(j, 1)] += 0.5 * p
            chain = nxt
        total += pk * sum(p for (j, _), p in chain.items() if 2 * j < k)
    return total


def test_distance_law_sums_to_one_and_has_the_drift():
    law = exact.distance_law(400)
    assert sum(law) == pytest.approx(1.0, abs=1e-12)
    mean = sum(k * p for k, p in enumerate(law))
    assert mean / 400 == pytest.approx(0.5, abs=0.01)  # drift 1/2 (Woess 2000)
    assert all(p == 0.0 for p in law[1::2])  # |w_n| has the parity of n


def test_midpoint_failure_small_cases():
    assert exact.midpoint_failure_probability(0) == 0.0
    assert exact.midpoint_failure_probability(2) == 0.25
    # full cancellation of a length-2 word: (3/4) * (1/4) * (1/4)
    assert exact.midpoint_failure_probability(4) == pytest.approx(3 / 64, rel=1e-15)
    with pytest.raises(ValueError):
        exact.midpoint_failure_probability(5)


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_midpoint_failure_matches_enumeration(two_n):
    assert exact.midpoint_failure_probability(two_n) == pytest.approx(
        float(_enumerated_failure(two_n)), rel=1e-13)


@pytest.mark.parametrize("two_n", [10, 20, 30])
def test_midpoint_failure_matches_transfer_matrix(two_n):
    assert exact.midpoint_failure_probability(two_n) == pytest.approx(
        _transfer_matrix_failure(two_n), rel=1e-12)


def test_midpoint_failure_at_acceptance_lengths():
    expected = {100: 3.7999e-5, 200: 2.1312e-8, 400: 8.7787e-15}
    for two_n, p in expected.items():
        assert exact.midpoint_failure_probability(two_n) == pytest.approx(p, rel=1e-4)


def _enumerated_translation_law(n: int) -> dict[float, float]:
    # the law of w_n as a dict over reduced words, convolved step by step,
    # folded into the law of its translation length
    gens = [FreeWord((x,)) for x in GENERATOR_LETTERS]
    law = {one: 1.0}
    for _ in range(n):
        nxt = defaultdict(float)
        for w, p in law.items():
            for g in gens:
                nxt[w * g] += 0.25 * p
        law = nxt
    taus = defaultdict(float)
    for w, p in law.items():
        taus[free.translation_length(w)] += p
    return taus


@pytest.mark.parametrize("n", range(10))
def test_translation_probability_matches_enumeration(n):
    taus = _enumerated_translation_law(n)
    for B in (0, 0.5, 1, 2, 2.5, 3, 4):
        assert exact.translation_probability(n, B) == pytest.approx(
            sum(p for tau, p in taus.items() if tau <= B), abs=1e-14), B


def test_translation_probability_values_and_parity():
    assert exact.translation_probability(0, 0) == 1.0
    assert exact.translation_probability(1, 0) == 0.0
    assert exact.translation_probability(1, 1) == 1.0
    expected = {10: 1.8944e-2, 20: 2.0380e-3, 40: 4.7869e-5}
    for n, p in expected.items():
        assert exact.translation_probability(n, 0) == pytest.approx(p, rel=1e-4)
    for n in (10, 21, 40):
        # every core has the parity of n, and every word is at most n long
        assert exact.translation_probability(n, 0) == exact.translation_probability(n, 1 - n % 2)
        assert exact.translation_probability(n, 2 + n % 2) == exact.translation_probability(n, 3)
        assert exact.translation_probability(n, n) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact.translation_probability(4, -1)


def test_translation_decay_intervals_cover_the_exact_value():
    """Clopper-Pearson intervals at B = 0, 1, 2 over 20 seeds, odd n included.

    The 300 intervals whose exact value is positive (B = 0 at odd n has
    value 0, and its intervals cover 0 by construction) each cover with
    probability at least 0.95, so at most 30 of them may miss.  Were they
    independent, a false failure would have chance
    P(Bin(300, 0.05) > 30) = 1.9e-3; the grid points of one walk are
    positively correlated, which widens the spread a little.  6 missed when
    this test was written.  At even n,
    B = 1 must read the same counts as B = 0, by parity.
    """
    grid, samples, seeds = [4, 5, 8, 9, 12, 13], 2000, range(20)
    assert binom.sf(30, 300, 0.05) < 2e-3
    misses = 0
    for seed in seeds:
        series = {B: stats.translation_decay(free, UNIFORM, B, grid, samples, seed).series
                  for B in (0, 1, 2)}
        for B, s in series.items():
            for n, lo, hi in zip(grid, s.ci_low, s.ci_high):
                p = exact.translation_probability(n, B)
                assert p > 0 or lo == 0.0
                misses += p > 0 and not lo <= p <= hi
        for j, n in enumerate(grid):
            if n % 2 == 0:
                assert series[0].probabilities[j] == series[1].probabilities[j]
    assert misses <= 30, misses
