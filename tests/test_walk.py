"""Sampling engine: distributions, reproducibility, decompositions, events."""

import numpy as np
import pytest
from scipy.stats import chisquare

from hypwalk import engines
from hypwalk.errors import ElementaryDistributionError, PreconditionError
from hypwalk.models.farey import FareyElement, FareyModel, L, R
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.stats import _iterated_increments
from hypwalk.walk import (
    StepDistribution,
    assert_nonelementary,
    diagonal_shadow_event,
    find_independent_loxodromics,
    iterated_decomposition,
    midpoint_shadow_event,
    reflected,
    sample_walk,
)

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str


def uniform_free():
    return StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)


def uniform_farey():
    return StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)


def test_distribution_validation():
    with pytest.raises(ValueError):
        StepDistribution([], [])
    with pytest.raises(ValueError):
        StepDistribution([W("a")], [0.5])
    with pytest.raises(ValueError):
        StepDistribution([W("a"), W("b")], [1.0, -0.1])
    with pytest.raises(ValueError):
        StepDistribution([W("a"), W("a")], [0.5, 0.5])
    StepDistribution([W("a"), W("b")], [0.5, 0.5 + 1e-13])  # inside tolerance
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            StepDistribution([W("a"), W("A"), W("b")], [bad, 0.5, 0.5])


def test_reflected():
    d = StepDistribution([W("a"), W("b")], [0.7, 0.3])
    r = reflected(d)
    assert [w.to_str() for w in r.support] == ["A", "B"]
    assert np.allclose(r.weights, [0.7, 0.3])
    rr = reflected(r)
    assert [w.to_str() for w in rr.support] == ["a", "b"]
    sym = uniform_free()
    refl = reflected(sym)
    assert set(sym.support) == set(refl.support)
    fr = reflected(StepDistribution([R, L], [0.5, 0.5]))
    assert fr.support == (R.inverse(), L.inverse())


def test_deterministic_walk():
    d = StepDistribution([W("a")], [1.0])
    ws = sample_walk(free, d, 5, seed=0)
    assert [w.to_str() for w in ws.locations] == ["", "a", "aa", "aaa", "aaaa", "aaaaa"]
    ws0 = sample_walk(free, d, 0, seed=0)
    assert len(ws0.locations) == 1 and ws0.locations[0].is_identity()
    with pytest.raises(ValueError):
        sample_walk(free, d, -1, seed=0)


def test_reproducibility_and_stream_separation():
    d = uniform_free()
    a = sample_walk(free, d, 50, seed=123, stream=7)
    b = sample_walk(free, d, 50, seed=123, stream=7)
    c = sample_walk(free, d, 50, seed=123, stream=8)
    assert a.steps == b.steps
    assert a.steps != c.steps
    assert np.array_equal(a.distances, b.distances)


def test_walk_speed_classical():
    # simple random walk on the 4-regular tree moves at speed 1/2
    d = uniform_free()
    ws = sample_walk(free, d, 10_000, seed=42)
    rate = free.distance(free.identity(), ws.locations[-1]) / 10_000
    assert abs(rate - 0.5) <= 0.05


def test_triangle_bound_along_walk():
    d = uniform_farey()
    ws = sample_walk(farey, d, 40, seed=9)
    dist = ws.distances
    for i in range(40):
        step = farey.distance(ws.locations[i], ws.locations[i + 1])
        assert dist[i + 1] <= dist[i] + step


def test_iterated_decomposition_examples():
    from hypwalk.walk import WalkSample

    ws = WalkSample(free, 0, 0, [W("a"), W("A")])
    dec = iterated_decomposition(free, ws, 1)
    assert dec.Y.tolist() == [1, 1]
    assert dec.X.tolist() == [1, -1]
    assert dec.Z.tolist() == [0, 2]

    d = StepDistribution([W("a")], [1.0])
    ws2 = sample_walk(free, d, 12, seed=0)
    for k in (1, 2, 3):
        dec2 = iterated_decomposition(free, ws2, k)
        assert np.all(dec2.Z == 0)
        assert np.all(dec2.Y == k)
    with pytest.raises(ValueError):
        iterated_decomposition(free, ws2, 0)


def test_decomposition_invariants_random():
    d = uniform_free()
    for stream in range(5):
        ws = sample_walk(free, d, 60, seed=77, stream=stream)
        for k in (1, 2, 5, 6):
            dec = iterated_decomposition(free, ws, k)
            n_iter = 60 // k
            assert len(dec.X) == n_iter
            assert np.all(dec.Z >= 0)
            assert dec.X.sum() == ws.distances[k * n_iter]


def test_midpoint_event():
    d = StepDistribution([W("a")], [1.0])
    ws = sample_walk(free, d, 10, seed=0)
    assert midpoint_shadow_event(free, ws)
    from hypwalk.walk import WalkSample

    ws2 = WalkSample(free, 0, 0, [W("a"), W("A")])
    assert not midpoint_shadow_event(free, ws2)
    ws3 = sample_walk(free, d, 7, seed=0)
    with pytest.raises(PreconditionError):
        midpoint_shadow_event(free, ws3)


def test_diagonal_event():
    d = StepDistribution([W("a")], [1.0])
    v = sample_walk(free, d, 6, seed=0)
    w = sample_walk(free, d, 6, seed=1)
    assert diagonal_shadow_event(free, v, w, r=6.0)  # both equal a^6
    assert diagonal_shadow_event(free, v, w, r=-1.0)
    with pytest.raises(PreconditionError):
        diagonal_shadow_event(free, v, sample_walk(free, d, 5, seed=0), r=0)
    b = StepDistribution([W("B")], [1.0])
    wb = sample_walk(free, b, 6, seed=0)
    assert not diagonal_shadow_event(free, v, wb, r=3.0)


def test_nonelementarity_check():
    assert find_independent_loxodromics(free, uniform_free()) is not None
    assert find_independent_loxodromics(farey, uniform_farey()) is not None
    only_a = StepDistribution([W("a"), W("A")], [0.5, 0.5])
    assert find_independent_loxodromics(free, only_a) is None
    only_r = StepDistribution([R], [1.0])
    with pytest.raises(ElementaryDistributionError):
        assert_nonelementary(farey, only_r)
    # parabolic pair still generates a non-elementary group
    assert_nonelementary(farey, uniform_farey())


M = FareyElement(2, 1, 1, 1)  # hyperbolic: trace 3


@pytest.mark.parametrize("model,support", [
    (farey, [M, M * M, M.inverse()]),  # powers of one hyperbolic
    (farey, [M, FareyElement(-2, -1, -1, -1)]),  # M and -M share an axis
    (free, [W("ab"), W("abab"), W("BA")]),
], ids=["farey-powers", "farey-sign", "free-powers"])
def test_elementary_laws_with_loxodromic_support(model, support):
    dist = StepDistribution(support, [1 / len(support)] * len(support))
    assert find_independent_loxodromics(model, dist) is None
    with pytest.raises(ElementaryDistributionError):
        assert_nonelementary(model, dist)


def _pair_scan(model, dist):
    """The search find_independent_loxodromics shortcuts: the first pair i < j
    among the first 4096 products of length <= 6 (breadth first) that are
    both loxodromic and do not commute, exactly or up to sign."""
    products, layer = [], [model.identity()]
    for _ in range(6):
        layer = [model.multiply(g, s) for g in layer for s in dist.support]
        products += layer
        if len(products) >= 4096:
            break
    if model is farey:
        loxo = [g for g in products[:4096] if abs(g.trace()) > 2]
        minus_one = FareyElement(-1, 0, 0, -1)
    else:
        loxo = [g for g in products[:4096] if g != free.identity()]
        minus_one = free.identity()
    for i, g in enumerate(loxo):
        for h in loxo[i + 1:]:
            gh, hg = model.multiply(g, h), model.multiply(h, g)
            if gh != hg and model.multiply(gh, model.invert(hg)) != minus_one:
                return g, h
    return None


def _random_support(model, rng):
    if model is free:
        words = {free.sample_element(rng, 3) for _ in range(rng.integers(1, 5))}
        return sorted(words, key=lambda w: w.to_str())
    gens = [R, L, R.inverse(), L.inverse(), FareyElement(0, -1, 1, 0), FareyElement(-1, 0, 0, -1)]
    support = set()
    for _ in range(rng.integers(1, 4)):
        g = farey.identity()
        for j in rng.integers(0, len(gens), size=rng.integers(0, 4)):
            g = g * gens[j]
        support.add(g)
    return sorted(support, key=lambda g: g.entries())


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
def test_independent_loxodromics_match_pair_scan(model):
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(60):
        support = _random_support(model, rng)
        dist = StepDistribution(support, [1 / len(support)] * len(support))
        pair = find_independent_loxodromics(model, dist)
        assert pair == _pair_scan(model, dist)
        if pair is not None:
            g, h = pair
            assert model.translation_length(g) > 0 and model.translation_length(h) > 0
            assert model.multiply(g, h) != model.multiply(h, g)
            found += 1
    assert 0 < found < 60  # both outcomes occur


def test_alias_sampling_matches_weights():
    # 240 000 steps of one block, against the weights by a chi-square test
    weights = np.array([0.45, 0.25, 0.15, 0.1, 0.05])
    d = StepDistribution([W("a"), W("b"), W("ab"), W("ba"), W("bb")], weights)
    idx = engines._draw_index_block(d, 24, 0, 10_000, 5, 0)
    counts = np.bincount(idx.ravel(), minlength=5)
    assert chisquare(counts, weights * idx.size).pvalue > 1e-4
    assert np.allclose(counts / idx.size, weights, atol=0.005)


def test_shorter_walk_is_a_prefix():
    for model, d in ((free, StepDistribution([W("ab"), W("A"), W("b")], [0.5, 0.3, 0.2])),
                     (farey, uniform_farey())):
        for stream in (0, 3, engines.BLOCK_SIZE + 1):
            long = sample_walk(model, d, 40, seed=9, stream=stream, ensemble=4)
            for n in (0, 1, 17, 39):
                short = sample_walk(model, d, n, seed=9, stream=stream, ensemble=4)
                assert short.steps == long.steps[:n]
                assert short.locations == long.locations[:n + 1]


def test_engine_segment_increments_match_decomposition():
    d = uniform_free()
    k, n_iter, samples, seed = 5, 6, 4, 53
    Y, X, Z = _iterated_increments(free, d, k, n_iter, samples, seed)
    for i in range(samples):
        ws = sample_walk(free, d, k * n_iter, seed=seed, stream=i,
                         ensemble=engines.ENSEMBLE_ITERATED_BASE + k)
        dec = iterated_decomposition(free, ws, k)
        assert np.array_equal(Y[:, i], dec.Y.astype(np.int64))
        assert np.array_equal(X[:, i], dec.X.astype(np.int64))
        assert np.array_equal(Z[:, i], dec.Z.astype(np.int64))


def test_engine_threads_do_not_change_output():
    d = uniform_free()
    base = engines.observe(free, d, [20], engines.DISTANCE, samples=40_000, seed=3)
    threaded = engines.observe(free, d, [20], engines.DISTANCE, samples=40_000, seed=3,
                               threads=4)
    assert np.array_equal(base[20], threaded[20])
    # the Farey kernel over two blocks
    samples = engines.BLOCK_SIZE + 3000
    for observer in (engines.DISTANCE, engines.translation_at_most(0),
                     engines.translation_at_most(1)):
        base = engines.observe(farey, uniform_farey(), [10, 40], observer, samples, seed=3)
        threaded = engines.observe(farey, uniform_farey(), [10, 40], observer, samples,
                                   seed=3, threads=4)
        for t in (10, 40):
            assert np.array_equal(base[t], threaded[t])
