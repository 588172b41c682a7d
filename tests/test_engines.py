"""The batch engines against the per-sample reference path.

The block step draw (`engines._draw_index_block`, one word per step and
sample from the block's Philox stream) must give exactly the indices of
`sample_words(seed, i, e, n)`, which `sample_walk` reads, row for row; the
word-to-index conversion must equal the alias method in exact rationals;
and every observer of the step kernels must equal the
statistic recomputed from `sample_walk` plus the model's `distance`,
`gromov_product`, translation length or trace.  Bad checkpoints are refused
before any step is drawn.  The Farey kernel's int64
state must widen to python ints before it can overflow, and the lockstep
Farey distance and the scalar `dist_to_infinity` must both equal the
memoized recursion they replaced (`farey_recursion`).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farey_recursion import recursive_dist_to_infinity
from hypwalk import engines, walk
from hypwalk.hypgeom import gromov_product
from hypwalk.models.farey import FareyElement, FareyModel, L, R, dist_to_infinity
from hypwalk.models.free import FreeGroupModel, FreeWord, words_of_length
from hypwalk.stats import chernoff_empirical
from hypwalk.walk import (
    MAX_SAMPLES,
    StepDistribution,
    _build_alias_table,
    check_samples,
    reflected,
    sample_walk,
    sample_words,
    stream_generator,
)

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
# entries pass the int64 guard, 2^63 // (2^30 + 1), at the second step
FAREY_HUGE = StepDistribution([FareyElement(1, 1 << 30, 0, 1), FareyElement(1, 0, 1 << 30, 1),
                               FareyElement(1, -(1 << 30), 0, 1),
                               FareyElement(1, 0, -(1 << 30), 1)], [0.25] * 4)


@lru_cache(maxsize=None)
def law(size: int) -> StepDistribution:
    """A non-uniform law on the first `size` reduced words of length 10
    (enough for 40 000, past the int16 range of step indices)."""
    weights = 1.0 + np.arange(size) % 7
    return StepDistribution(words_of_length(10)[:size], weights / weights.sum())


def reference_rows(dist, n, lo, hi, seed, ensemble):
    """Step-major support indices of samples lo..hi-1 from the per-sample reader."""
    rows = [dist.indices(sample_words(seed, i, ensemble, n)) for i in range(lo, hi)]
    return np.array(rows, dtype=np.int64).reshape(hi - lo, n).T


def alias_oracle(dist, words) -> list[int]:
    """The alias draw of each word in exact rationals: u = (word >> s) / 2^(64-s)
    in [0, 1), u * size = column + fraction, and the column is kept iff the
    fraction is below its keep probability."""
    size = dist.size()
    s = size.bit_length()
    prob, alias = _build_alias_table(dist.weights)
    out = []
    for word in words:
        v = Fraction(word >> s, 1 << (64 - s)) * size
        col = math.floor(v)
        out.append(col if v - col < Fraction(float(prob[col])) else int(alias[col]))
    return out


# --- the block draw ---


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([1, 3, 4, 8, 40_000]),
       n=st.sampled_from([0, 1]) | st.integers(2, 41),
       block=st.integers(0, (MAX_SAMPLES - 1) // engines.BLOCK_SIZE),
       rows=st.integers(1, 300),
       ensemble=st.sampled_from([0, 1, 2, 3, 8, 300, (1 << 16) - 1]),
       seed=st.integers(0, (1 << 64) - 1))
@example(size=3, n=0, block=0, rows=5, ensemble=0, seed=0)
@example(size=1, n=7, block=5, rows=3, ensemble=2, seed=1)
@example(size=40_000, n=9, block=(MAX_SAMPLES - 1) // engines.BLOCK_SIZE, rows=300, ensemble=1,
         seed=(1 << 64) - 1)
def test_block_draw_matches_reference(size, n, block, rows, ensemble, seed):
    dist = law(size)
    lo = block * engines.BLOCK_SIZE
    drawn = engines._draw_index_block(dist, n, lo, lo + rows, seed, ensemble)
    assert drawn.dtype == (np.int16 if size <= 32767 else np.int32)
    assert drawn.shape == (n, rows)
    assert np.array_equal(drawn, reference_rows(dist, n, lo, lo + rows, seed, ensemble))


@pytest.mark.parametrize("threads", [1, 2])
def test_block_draw_across_blocks_and_threads(threads):
    dist, n, seed = law(3), 6, 404
    samples = engines.BLOCK_SIZE + 300

    def run_block(lo, hi):
        return engines._draw_index_block(dist, n, lo, hi, seed, engines.ENSEMBLE_AUX)

    drawn = np.concatenate(engines._run_blocks(run_block, samples, threads), axis=1)
    for lo, hi in [(0, 300), (engines.BLOCK_SIZE - 200, samples)]:
        assert np.array_equal(drawn[:, lo:hi],
                              reference_rows(dist, n, lo, hi, seed, engines.ENSEMBLE_AUX))


@pytest.mark.parametrize("ensemble", [engines.ENSEMBLE_PRIMARY, engines.ENSEMBLE_REFLECTED,
                                      engines.ENSEMBLE_GRID_BASE,
                                      engines.ENSEMBLE_ITERATED_BASE + 5, (1 << 16) - 1])
@pytest.mark.parametrize("model,dist", [(free, MULTI), (farey, FAREY_FIVE)],
                         ids=["free", "farey"])
def test_engine_rows_are_sample_walks(model, dist, ensemble):
    # a full block and a partial one; rows at both ends of each
    seed, n, samples = (1 << 64) - 1, 9, engines.BLOCK_SIZE + 300
    got = engines.observe(model, dist, [n], engines.DISTANCE, samples, seed, ensemble=ensemble)[n]
    drawn = np.concatenate([engines._draw_index_block(dist, n, lo, hi, seed, ensemble)
                            for lo, hi in engines._blocks(samples)], axis=1)
    one = model.identity()
    for i in [*range(12), *range(engines.BLOCK_SIZE - 6, engines.BLOCK_SIZE + 6),
              *range(samples - 6, samples)]:
        w = sample_walk(model, dist, n, seed=seed, stream=i, ensemble=ensemble)
        assert w.steps == tuple(dist.support[k] for k in drawn[:, i]), i
        assert got[i] == model.distance(one, w.locations[-1]), i


@pytest.mark.parametrize("model,dist", [(free, UNIFORM), (farey, FAREY_UNIFORM)],
                         ids=["free", "farey"])
def test_fewer_samples_give_the_first_rows(model, dist):
    # the gate's 48-sample probe of a 32 768-sample experiment
    checkpoints, seed = [7, 30], 2024
    small = engines.observe(model, dist, checkpoints, engines.DISTANCE, 48, seed)
    large = engines.observe(model, dist, checkpoints, engines.DISTANCE, 2 * engines.BLOCK_SIZE,
                            seed)
    for t in checkpoints:
        assert np.array_equal(small[t], large[t][:48])


# column 0 keeps with probability 1.32e-5, not a multiple of 2^-61, and the
# coin edge of that column falls on a reachable word: there the threshold
# must round up
TINY = StepDistribution(words_of_length(10)[:4], [3.3e-6] + [(1 - 3.3e-6) / 3] * 3)


@pytest.mark.parametrize("size", [1, 3, 4, 5, 8, 40_000, "tiny"])
def test_word_to_index_at_column_and_coin_boundaries(size):
    dist = TINY if size == "tiny" else law(size)
    size = dist.size()
    s = size.bit_length()
    m = 64 - s
    prob, _ = _build_alias_table(dist.weights)
    columns = sorted({0, 1, size // 2, size - 2, size - 1} & set(range(size)))
    ys = {0, (1 << m) - 1}
    for c in columns:
        start = -(-(c << m) // size)  # the first y of column c
        edge = math.floor((c + Fraction(float(prob[c]))) * (1 << m) / size)
        ys |= {start - 1, start, start + 1, edge - 1, edge, edge + 1, edge + 2}
    ys = sorted(y for y in ys if 0 <= y < 1 << m)
    words = [(y << s) | low for y in ys for low in (0, (1 << s) - 1)]
    got = dist.indices(np.array(words, dtype=np.uint64))
    assert got.tolist() == alias_oracle(dist, words)
    # every word on a law whose columns all keep draws the oracle's column
    if size in (4, 8) and dist is not TINY:
        uniform = StepDistribution(dist.support, [1 / size] * size)
        assert uniform._threshold is None
        assert uniform.indices(np.array(words, dtype=np.uint64)).tolist() == alias_oracle(
            uniform, words)


def test_first_row_self_check_raises(monkeypatch):
    words = walk.sample_words
    monkeypatch.setattr(walk, "sample_words", lambda *args: words(*args) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="per-sample reader"):
        engines._draw_index_block(law(3), 10, 0, 50, 1, 0)
    with pytest.raises(RuntimeError, match="per-sample reader"):
        engines.observe(free, UNIFORM, [10], engines.DISTANCE, samples=50, seed=1)
    with pytest.raises(RuntimeError, match="per-sample reader"):
        engines.free_midpoint_tilted(UNIFORM, 10, 50, 1, (0.5, 1.0))


def test_stream_generator_is_the_keyed_philox():
    # chernoff_empirical's stream: the same words as Philox(key=...)
    for seed, index, ensemble in [(0, 0, 0), (5, 3, engines.ENSEMBLE_AUX),
                                  ((1 << 64) - 1, MAX_SAMPLES - 1, (1 << 16) - 1)]:
        key = walk._stream_key(seed, index, ensemble)
        assert np.array_equal(stream_generator(seed, index, ensemble).bit_generator.random_raw(9),
                              np.random.Philox(key=key).random_raw(9))


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
def test_free_midpoint_events_match_reference(dist):
    # the midpoint map 2n -> n as midpoint_failure_decay builds it, on a grid
    # where 6 is both an n and a 2n: (w_n . w_2n)_1 and |w_n| at every n
    grid, samples, seed = [6, 12, 14], 80, 72
    pairs = {two_n // 2: 0 for two_n in grid}
    pairs.update({two_n: two_n // 2 for two_n in grid})
    assert pairs == {3: 0, 6: 3, 7: 0, 12: 6, 14: 7}
    one = free.identity()
    out = engines.observe(free, dist, pairs, engines.pair_products(pairs), samples, seed)
    assert list(out) == sorted(pairs)
    for i in range(samples):
        ws = sample_walk(free, dist, max(grid), seed=seed, stream=i).locations
        for t, s in pairs.items():
            assert out[t][i, 0] == free.distance(one, ws[t]), (i, t)
            assert out[t][i, 1] == gromov_product(free, one, ws[s], ws[t]), (i, t)


@pytest.mark.parametrize("pairs", [{4: 0, 8: 5}, {4: 4}, {4: 0, 8: 12}, {4: -1}])
def test_pair_products_refuses_a_source_that_is_no_earlier_checkpoint(pairs):
    with pytest.raises(ValueError, match="earlier checkpoint"):
        engines.pair_products(pairs)


@pytest.mark.parametrize("call", ["observe", "linear_progress", "midpoint", "pairs"])
@pytest.mark.parametrize("checkpoints", [[], [0], [-3, 4], [0, 4]],
                         ids=["empty", "zero", "negative", "zero_and_four"])
def test_bad_checkpoints_raise_before_any_draw(call, checkpoints, monkeypatch):
    from hypwalk import stats

    def no_draw(*args):
        raise AssertionError("a step was drawn")

    monkeypatch.setattr(engines, "block_words", no_draw)
    with pytest.raises(ValueError, match="checkpoint"):
        if call == "observe":
            engines.observe(free, UNIFORM, checkpoints, engines.DISTANCE, 10, seed=1)
        elif call == "linear_progress":
            stats.linear_progress_decay(free, UNIFORM, 0.5, checkpoints, 10, seed=1)
        elif call == "midpoint":
            stats.midpoint_failure_decay(free, UNIFORM, [2 * c for c in checkpoints], 10,
                                         seed=1, estimator="frequency")
        else:
            pairs = dict.fromkeys(checkpoints, 0)
            engines.observe(farey, FAREY_UNIFORM, pairs, engines.pair_products(pairs), 10,
                            seed=1)


# --- every observer against the per-sample reference path ---

CENTER_FREE = FreeWord((1, 2, 2, -1, 2))
CENTER_FAREY = FareyElement(2, 1, 1, 1) * FareyElement(2, 1, 1, 1) * FareyElement(2, 1, 1, 1)


def _center(model):
    return CENTER_FREE if model is free else CENTER_FAREY


TAUS = (0, 0.5, 1, 2, 3)


def _at_most(B):
    return lambda m, w, t, s, v: m.translation_length(w[t]) <= B


# name: for (model, law, checkpoints), a list of (observer, reference
# statistic at checkpoint t of walk w, with s the previous checkpoint and v
# an independent walk of the reflected law)
OBSERVERS = {
    "distance": lambda model, dist, cps: [
        (engines.DISTANCE, lambda m, w, t, s, v: m.distance(m.identity(), w[t]))],
    # translation_at_most on the tree: the cyclic core's length
    "cyclic_core": lambda model, dist, cps: [
        (engines.translation_at_most(B), _at_most(B)) for B in TAUS],
    # on the Farey graph at B = 0: the trace class alone
    "trace_small": lambda model, dist, cps: [
        (engines.translation_at_most(0), lambda m, w, t, s, v: abs(w[t].trace()) <= 2),
        (engines.translation_at_most(0), _at_most(0))],
    # ... and the exact length where B > 0
    "farey_translation_length": lambda model, dist, cps: [
        (engines.translation_at_most(B), _at_most(B)) for B in TAUS[1:]],
    # the iterated map: each checkpoint paired with the one before it
    "product_with_previous": lambda model, dist, cps: [(
        engines.pair_products(dict(zip(cps, [0, *cps[:-1]]))),
        lambda m, w, t, s, v: (m.distance(m.identity(), w[t]),
                               gromov_product(m, m.identity(), w[s], w[t])))],
    "center_product": lambda model, dist, cps: [(
        engines.center_product(_center(model)),
        lambda m, w, t, s, v: gromov_product(m, m.identity(), _center(m), w[t]))],
    "product_with_walk": lambda model, dist, cps: [(
        engines.product_with_walk(reflected(dist), engines.ENSEMBLE_REFLECTED),
        lambda m, w, t, s, v: gromov_product(m, m.identity(), w[t], v[t]))],
}
LAWS = {"uniform": (free, UNIFORM), "multi": (free, MULTI), "law40000": (free, None),
        "farey_uniform": (farey, FAREY_UNIFORM), "farey_five": (farey, FAREY_FIVE),
        "farey_huge": (farey, FAREY_HUGE)}
FREE_ONLY, FAREY_ONLY = {"cyclic_core"}, {"trace_small", "farey_translation_length"}
OBSERVER_CASES = (
    [(name, law_id) for name in OBSERVERS if name not in FAREY_ONLY
     for law_id in ("uniform", "multi", "law40000")]
    + [(name, law_id) for name in OBSERVERS if name not in FREE_ONLY
       for law_id in ("farey_uniform", "farey_five", "farey_huge")]
)


@pytest.mark.parametrize("name,law_id", OBSERVER_CASES,
                         ids=[f"{name}-{law_id}" for name, law_id in OBSERVER_CASES])
def test_observer_matches_reference(name, law_id):
    model, dist = LAWS[law_id]
    checkpoints, samples = ([5, 12], 40) if model is farey else ([3, 8, 13], 60)
    if law_id == "law40000":
        # int16 step indices used to wrap past 32767 support elements
        dist, checkpoints, samples = law(40_000), [1, 3], 40
    if law_id == "farey_huge":
        # int64 at the first checkpoint, python ints from the second step on
        checkpoints = [1, 5, 12]
    seed, ensemble, n = 71, engines.ENSEMBLE_GRID_BASE + 1, checkpoints[-1]
    cases = OBSERVERS[name](model, dist, checkpoints)
    outs = [engines.observe(model, dist, checkpoints, observer, samples, seed,
                            ensemble=ensemble) for observer, _ in cases]
    assert all(list(got) == checkpoints for got in outs)
    dist_v = reflected(dist) if name == "product_with_walk" else None
    for i in range(samples):
        w = sample_walk(model, dist, n, seed=seed, stream=i, ensemble=ensemble).locations
        v = None
        if dist_v is not None:
            v = sample_walk(model, dist_v, n, seed=seed, stream=i,
                            ensemble=engines.ENSEMBLE_REFLECTED).locations
        for j, t in enumerate(checkpoints):
            s = checkpoints[j - 1] if j else 0
            for got, (_, reference) in zip(outs, cases):
                assert np.array_equal(got[t][i], reference(model, w, t, s, v)), (i, t)


# --- the Farey kernel's int64 guard and the lockstep distance ---


def test_farey_kernel_widens_past_the_guard():
    states = list(engines._farey_steps(FAREY_HUGE, [1, 2, 5], 0, 50, 71, 0))
    assert [s.dtype for s in states] == [np.int64, object, object]
    # at the benchmark's shapes the whole walk stays in int64
    (state,) = engines._farey_steps(FAREY_UNIFORM, [100], 0, 2000, 5, 0)
    assert state.dtype == np.int64


def test_farey_pair_product_widens_int64_operands():
    # both states fit int64, but b * c' passes 2^63: in int64,
    # p = d a' - b c' would wrap by a multiple of 2^64, which changes p mod q
    # (q is not a power of two) and so the distance d(1, u^-1 w)
    big_b, big_c = (1 << 33) + 1, 3 ** 20
    u = FareyElement(1, big_b, 0, 1)
    ws = [FareyElement(1, 0, big_c, 1), FareyElement(1, 0, big_c + 2, 1),
          FareyElement(big_c, 1, big_c - 1, 1), FareyElement(2, 1, 1, 1)]
    u_state = np.array(u.entries(), dtype=np.int64)[:, None]
    w_state = np.array([w.entries() for w in ws], dtype=np.int64).T
    assert big_b * big_c > 1 << 63
    got = engines._farey_product(u_state, w_state)
    assert got.tolist() == [gromov_product(farey, farey.identity(), u, w) for w in ws]


def test_center_product_widens_past_the_guard():
    # the map sending x's slope 1/2^62 to infinity has a column sum 2^62 + 1
    center, checkpoints, samples, seed = FareyElement(1, 0, 1 << 62, 1), [1, 6], 30, 5
    got = engines.observe(farey, FAREY_UNIFORM, checkpoints, engines.center_product(center),
                          samples, seed)
    for i in range(samples):
        w = sample_walk(farey, FAREY_UNIFORM, 6, seed=seed, stream=i).locations
        for t in checkpoints:
            assert got[t][i] == gromov_product(farey, farey.identity(), center, w[t]), (i, t)


@st.composite
def coprime_column(draw, bits):
    """(p, q) coprime with |p|, |q| < 2^bits: q = 0, q = +-1 (residue 0),
    residues 1 and |q| - 1, or any pair."""
    bound = (1 << bits) - 1
    kind = draw(st.sampled_from(["infinity", "unit", "one", "last", "any"]))
    if kind == "infinity":
        return draw(st.sampled_from([1, -1])), 0
    if kind == "unit":
        return draw(st.integers(-bound, bound)), draw(st.sampled_from([1, -1]))
    q = draw(st.integers(-bound, bound).filter(lambda v: abs(v) > 1))
    if kind == "any":
        p = draw(st.integers(-bound, bound))
        g = math.gcd(p, q)
        return p // g, q // g
    residue = 1 if kind == "one" else abs(q) - 1
    k = draw(st.integers(1 - bound // abs(q), (bound - residue) // abs(q)))
    return k * abs(q) + residue, q


@settings(max_examples=150, deadline=None)
@given(bits=st.sampled_from([3, 20, 33, 62, 63, 200]), data=st.data())
def test_lockstep_distance_matches_scalar(bits, data):
    cols = data.draw(st.lists(coprime_column(bits), min_size=1, max_size=30))
    dtype = object if bits > 63 else data.draw(st.sampled_from([np.int64, object]))
    p, q = (np.array(v, dtype=dtype) for v in zip(*cols))
    got = engines._dists_to_infinity(p, q)
    assert got.dtype == np.int64
    expected = [recursive_dist_to_infinity(a, b) for a, b in cols]
    assert got.tolist() == expected
    assert [dist_to_infinity(a, b) for a, b in cols] == expected


def test_lockstep_distance_rejects_non_coprime_columns():
    # 2/4 would reach remainder 0 and never finish
    with pytest.raises(ValueError, match="coprime"):
        engines._dists_to_infinity(np.array([1, 2]), np.array([3, 4]))
    with pytest.raises(ValueError, match="coprime"):
        dist_to_infinity(2, 4)


@pytest.mark.parametrize("samples", [0, -1])
def test_entry_points_reject_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples"):
        engines.observe(free, UNIFORM, [4], engines.DISTANCE, samples, seed=1)
    with pytest.raises(ValueError, match="samples"):
        engines.free_midpoint_tilted(UNIFORM, 4, samples, 1, (0.5, 1.0))
    with pytest.raises(ValueError, match="samples"):
        chernoff_empirical(1.0, 0.5, 5, samples, seed=1)


def test_samples_bound_is_the_number_of_streams():
    check_samples(MAX_SAMPLES)
    with pytest.raises(ValueError, match="samples"):
        check_samples(MAX_SAMPLES + 1)
