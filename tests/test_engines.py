"""The batch engines against the per-sample reference path.

The bulk step draw (`engines._draw_index_block`, raw Philox words converted
in numpy) must give exactly `draw_indices(stream_generator(seed, i, e), n)`
row for row, and every engine's observable must equal the one recomputed
from `sample_walk` plus the model's `distance` / `gromov_product`.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwalk import engines
from hypwalk.hypgeom import gromov_product
from hypwalk.models.farey import FareyElement, FareyModel, L, R
from hypwalk.models.free import FreeGroupModel, FreeWord, words_of_length
from hypwalk.walk import StepDistribution, reflected, sample_walk, stream_generator

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str

UNIFORM = StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)
# the benchmark's non-uniform law on multi-letter words
MULTI = StepDistribution([W("ab"), W("BA"), W("a"), W("A"), W("bab"), W("BAB"), W("b"), W("B")],
                         [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05])
FAREY_UNIFORM = StepDistribution([R, L, R.inverse(), L.inverse()], [0.25] * 4)
FAREY_FIVE = StepDistribution([R, L, R.inverse(), L.inverse(), FareyElement(2, 1, 1, 1)],
                              [0.3, 0.2, 0.2, 0.2, 0.1])


@lru_cache(maxsize=None)
def law(size: int) -> StepDistribution:
    """A non-uniform law on the first `size` reduced words of length 10
    (enough for 40 000, past the int16 range of step indices)."""
    weights = 1.0 + np.arange(size) % 7
    return StepDistribution(words_of_length(10)[:size], weights / weights.sum())


def reference_rows(dist, n, lo, hi, seed, ensemble):
    return np.array([dist.draw_indices(stream_generator(seed, i, ensemble), n)
                     for i in range(lo, hi)]).reshape(hi - lo, n)


# --- the bulk draw ---


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([1, 3, 4, 8, 40_000]),
       n=st.sampled_from([0, 1]) | st.integers(2, 41),
       lo=st.integers(0, 1 << 30),
       rows=st.integers(1, 300),  # 300 rows span two 256-row chunks
       ensemble=st.sampled_from([0, 1, 2, 3, 8, 300, (1 << 16) - 1]),
       seed=st.integers(0, (1 << 64) - 1))
@example(size=3, n=0, lo=0, rows=5, ensemble=0, seed=0)
@example(size=1, n=7, lo=5, rows=3, ensemble=2, seed=1)
@example(size=40_000, n=9, lo=(1 << 48) - 300, rows=300, ensemble=1, seed=(1 << 64) - 1)
def test_block_draw_matches_reference(size, n, lo, rows, ensemble, seed):
    dist = law(size)
    block = engines._draw_index_block(dist, n, lo, lo + rows, seed, ensemble)
    assert block.dtype == (np.int16 if size <= 32767 else np.int32)
    assert np.array_equal(block, reference_rows(dist, n, lo, lo + rows, seed, ensemble))


@pytest.mark.parametrize("threads", [1, 2])
def test_block_draw_across_blocks_and_threads(threads):
    dist, n, seed = law(3), 6, 404
    samples = engines.BLOCK_SIZE + 300

    def run_block(lo, hi):
        return engines._draw_index_block(dist, n, lo, hi, seed, engines.ENSEMBLE_AUX)

    drawn = np.concatenate(engines._run_blocks(run_block, samples, threads))
    for lo, hi in [(0, 300), (engines.BLOCK_SIZE - 200, samples)]:
        assert np.array_equal(drawn[lo:hi],
                              reference_rows(dist, n, lo, hi, seed, engines.ENSEMBLE_AUX))


def test_crafted_words_flag_a_rejection():
    size, n = 3, 4
    raw = np.zeros((2, engines._index_words(size, n)), dtype=np.uint64)
    # u = 0: (u * 3) mod 2^32 = 0 < (2^32 - 3) mod 3 = 1, so numpy redraws
    # u = 0x55555555: (u * 3) mod 2^32 = 2^32 - 1, accepted
    raw[1] = 0x5555555555555555
    idx, rejected = engines._indices_from_raw(raw, size, n, np.ones(size, np.uint64),
                                              np.zeros(size, np.int64))
    assert rejected.tolist() == [True, False]
    # power-of-two supports never reject
    _, rejected = engines._indices_from_raw(raw, 4, n, np.ones(4, np.uint64),
                                            np.zeros(4, np.int64))
    assert not rejected.any()


def test_real_rejection_is_redrawn_by_reference():
    # stream 1124 of seed 5 hits Lemire's rejection zone within 400 steps
    # of the 40 000-word law (threshold 7296 of 2^32 per step)
    dist, n, seed, index = law(40_000), 400, 5, 1124
    (_, raw), = engines._raw_chunks(seed, index, index + 1, 0, engines._index_words(dist.size(), n))
    threshold = np.ceil(dist._prob * 2.0 ** 53).astype(np.uint64)
    naive, rejected = engines._indices_from_raw(raw, dist.size(), n, threshold, dist._alias)
    reference = reference_rows(dist, n, index, index + 1, seed, 0)
    assert rejected.tolist() == [True]
    assert not np.array_equal(naive, reference)
    block = engines._draw_index_block(dist, n, index - 3, index + 2, seed, 0)
    assert np.array_equal(block, reference_rows(dist, n, index - 3, index + 2, seed, 0))


def test_flagged_rows_fall_back_to_the_reference_path(monkeypatch):
    convert = engines._indices_from_raw

    def flag_all(raw, *args):
        idx, rejected = convert(raw, *args)
        return np.full_like(idx, -1), np.ones_like(rejected)

    monkeypatch.setattr(engines, "_indices_from_raw", flag_all)
    dist = law(5)
    block = engines._draw_index_block(dist, 11, 20, 290, 9, 0)
    assert np.array_equal(block, reference_rows(dist, 11, 20, 290, 9, 0))


def test_conversion_drift_raises(monkeypatch):
    convert = engines._indices_from_raw

    def drifted(raw, size, *args):
        idx, rejected = convert(raw, size, *args)
        return (idx + 1) % size, rejected

    monkeypatch.setattr(engines, "_indices_from_raw", drifted)
    with pytest.raises(RuntimeError, match="numpy conversion"):
        engines._draw_index_block(law(3), 10, 0, 50, 1, 0)
    with pytest.raises(RuntimeError, match="numpy conversion"):
        engines.free_distance_trajectories(UNIFORM, [10], samples=50, seed=1)

    uniforms = engines._uniforms_from_raw
    monkeypatch.setattr(engines, "_uniforms_from_raw", lambda raw: uniforms(raw) / 2)
    with pytest.raises(RuntimeError, match="numpy conversion"):
        engines.free_midpoint_tilted(UNIFORM, 10, 50, 1, (0.5, 1.0))


def test_large_support_engine_rows_match_sample_walk():
    # int16 step indices used to wrap past 32767 support elements
    dist, samples, seed = law(40_000), 395, 8
    traj = engines.free_distance_trajectories(dist, [1, 3], samples, seed)
    for i in range(samples):
        ws = sample_walk(free, dist, 3, seed=seed, stream=i)
        assert traj[1][i] == ws.distances[1] and traj[3][i] == ws.distances[3], i


# --- the engines without another reference test ---


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
def test_free_center_products_match_reference(dist):
    center, samples, seed, ensemble = (1, 2, 2, -1, 2), 60, 71, engines.ENSEMBLE_GRID_BASE + 1
    x = FreeWord(center)
    gp = engines.free_center_products(dist, center, [4, 13], samples, seed, ensemble=ensemble)
    for i in range(samples):
        ws = sample_walk(free, dist, 13, seed=seed, stream=i, ensemble=ensemble)
        for n in (4, 13):
            assert gp[n][i] == gromov_product(free, free.identity(), x, ws.locations[n]), (i, n)


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
def test_free_midpoint_events_match_reference(dist):
    two_n, samples, seed = 14, 80, 72
    one = free.identity()
    gp, mid_len = engines.free_midpoint_events(dist, two_n, samples, seed)
    for i in range(samples):
        ws = sample_walk(free, dist, two_n, seed=seed, stream=i)
        mid, end = ws.locations[two_n // 2], ws.locations[two_n]
        assert gp[i] == gromov_product(free, one, mid, end), i
        assert mid_len[i] == free.distance(one, mid), i


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
def test_free_diagonal_products_match_reference(dist):
    n, samples, seed = 9, 80, 73
    one = free.identity()
    dist_w = reflected(dist)
    gp = engines.free_diagonal_products(dist, dist_w, n, samples, seed)
    for i in range(samples):
        v = sample_walk(free, dist, n, seed=seed, stream=i, ensemble=engines.ENSEMBLE_PRIMARY)
        w = sample_walk(free, dist_w, n, seed=seed, stream=i,
                        ensemble=engines.ENSEMBLE_REFLECTED)
        assert gp[i] == gromov_product(free, one, v.locations[n], w.locations[n]), i


@pytest.mark.parametrize("dist", [FAREY_UNIFORM, FAREY_FIVE], ids=["uniform", "five"])
def test_farey_center_products_match_reference(dist):
    samples, seed, ensemble = 40, 74, engines.ENSEMBLE_GRID_BASE
    x = FareyElement(2, 1, 1, 1)
    x = x * x * x
    gp = engines.farey_center_products(dist, (x.a, x.b, x.c, x.d), [5, 12], samples, seed,
                                       ensemble=ensemble)
    for i in range(samples):
        ws = sample_walk(farey, dist, 12, seed=seed, stream=i, ensemble=ensemble)
        for n in (5, 12):
            assert gp[n][i] == gromov_product(farey, farey.identity(), x, ws.locations[n]), (i, n)
