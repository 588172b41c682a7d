"""The batch engines against the per-sample reference path.

The block step draw (`engines._draw_index_block`, one word per step and
sample from the block's Philox stream) must give exactly the indices of
`sample_words(seed, i, e, n)`, which `sample_walk` reads, row for row, in
the narrowest of uint8, int16 and int32 that holds the support; the
word-to-index conversion must equal the alias method in exact rationals;
the letter-stack kernel's state must hold, row for row, the reduced word
of `sample_walk` at every checkpoint; and every observer of the step
kernels must equal the statistic recomputed from `sample_walk` plus the
model's `distance`, `gromov_product`, translation length or trace.
`pair_products` keeps a source only until its last pair.  Bad
checkpoints are refused before any step is drawn.  The Farey kernel's
int64 state must widen to python ints before it can overflow, and the
lockstep Farey distance and the scalar `dist_to_infinity` must both equal the
memoized recursion they replaced (`farey_recursion`), and the lockstep
translation length must equal the scalar `translation_length` row for row
and raise on any column outside SL(2,Z).  Both read min(A00, A11) of the
distance ladder; README's two lemmas behind that are checked on digit
sequences, where the closed form must match too.
"""

import ast
import hashlib
import itertools
import math
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from block_rows import observe_rows
from exact import words_of_length
from farey_recursion import recursive_dist_to_infinity
from hypwalk import engines, walk
from hypwalk.hypgeom import gromov_product
from hypwalk.models.farey import (
    FareyElement,
    FareyModel,
    L,
    R,
    dist_to_infinity,
    next_quotient,
    translation_length,
)
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.stats import chernoff_empirical
from hypwalk.walk import (
    MAX_SAMPLES,
    StepDistribution,
    _build_alias_table,
    check_samples,
    reflected,
    sample_walk,
    sample_words,
)

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str

UNIFORM = StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)
# the benchmark's non-uniform law on multi-letter words
MULTI = StepDistribution([W("ab"), W("BA"), W("a"), W("A"), W("bab"), W("BAB"), W("b"), W("B")],
                         [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05])
# the identity in the support: an all-padding row of the letter table
WITH_IDENTITY = StepDistribution([FreeWord(), W("ab"), W("A"), W("bAB"), W("B")],
                                 [0.3, 0.2, 0.2, 0.2, 0.1])
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
    assert drawn.dtype == (np.uint8 if size <= 256 else np.int16 if size <= 32767 else np.int32)
    assert drawn.shape == (n, rows)
    assert np.array_equal(drawn, reference_rows(dist, n, lo, lo + rows, seed, ensemble))


@pytest.mark.parametrize("size,dtype", [(1, np.uint8), (256, np.uint8), (257, np.int16),
                                        (32_767, np.int16), (32_768, np.int32)])
def test_index_rows_are_as_narrow_as_the_support_allows(size, dtype):
    # the top index of each width must survive: the largest support indices
    # are drawn on a law that puts most of its weight on them
    weights = np.ones(size)
    weights[-2:] = size
    dist = StepDistribution(law(size).support, weights / weights.sum())
    lo, hi, seed = engines.BLOCK_SIZE, engines.BLOCK_SIZE + 40, 17
    drawn = engines._draw_index_block(dist, 6, lo, hi, seed, engines.ENSEMBLE_AUX)
    assert drawn.dtype == dtype
    assert drawn.max() == size - 1
    assert np.array_equal(drawn, reference_rows(dist, 6, lo, hi, seed, engines.ENSEMBLE_AUX))


def test_farey_passes_read_every_product_column_of_byte_indices():
    # four support matrices: passes of k = 4 steps read table columns up to
    # 4^4 - 1 = 255 from uint8 rows, which must not wrap while they combine
    n, seed, rows = 9, 29, engines.BLOCK_SIZE
    idx = engines._draw_index_block(FAREY_UNIFORM, n, 0, rows, seed, 0)
    assert idx.dtype == np.uint8
    columns = ((idx[0].astype(int) * 4 + idx[1]) * 4 + idx[2]) * 4 + idx[3]
    assert set(columns.tolist()) == set(range(256))
    (state,) = engines._farey_steps(FAREY_UNIFORM, [n], 0, rows, seed, 0)
    for i in range(rows):
        w = sample_walk(farey, FAREY_UNIFORM, n, seed=seed, stream=i).locations[-1]
        assert tuple(state[:, i].tolist()) == w.entries(), i


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
    got = observe_rows(model, dist, [n], engines.DISTANCE, samples, seed, ensemble=ensemble)[n]
    drawn = np.concatenate(engines._run_blocks(
        lambda lo, hi: engines._draw_index_block(dist, n, lo, hi, seed, ensemble), samples),
        axis=1)
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
    small = observe_rows(model, dist, checkpoints, engines.DISTANCE, 48, seed)
    large = observe_rows(model, dist, checkpoints, engines.DISTANCE, 2 * engines.BLOCK_SIZE,
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
        observe_rows(free, UNIFORM, [10], engines.DISTANCE, samples=50, seed=1)
    with pytest.raises(RuntimeError, match="per-sample reader"):
        engines.free_midpoint_tilted(UNIFORM, 10, 50, 1, (0.5, 1.0))


@pytest.mark.parametrize("dist", [UNIFORM, MULTI], ids=["uniform", "multi"])
def test_free_midpoint_events_match_reference(dist):
    # the midpoint map 2n -> n as midpoint_failure_decay builds it, on a grid
    # where 6 is both an n and a 2n: (w_n . w_2n)_1 and |w_n| at every n
    grid, samples, seed = [6, 12, 14], 80, 72
    pairs = {two_n // 2: 0 for two_n in grid}
    pairs.update({two_n: two_n // 2 for two_n in grid})
    assert pairs == {3: 0, 6: 3, 7: 0, 12: 6, 14: 7}
    one = free.identity()
    out = observe_rows(free, dist, pairs, engines.pair_products(pairs), samples, seed)
    assert list(out) == sorted(pairs)
    for i in range(samples):
        ws = sample_walk(free, dist, max(grid), seed=seed, stream=i).locations
        for t, s in pairs.items():
            assert out[t][i, 0] == free.distance(one, ws[t]), (i, t)
            assert out[t][i, 1] == gromov_product(free, one, ws[s], ws[t]), (i, t)


@pytest.mark.parametrize("lag", [1, 3], ids=["previous", "third_previous"])
@pytest.mark.parametrize("model,dist", [(free, UNIFORM), (farey, FAREY_UNIFORM)],
                         ids=["free", "farey"])
def test_pair_product_sources_die_after_their_last_pair(model, dist, lag):
    # 41 checkpoints, each paired with the checkpoint `lag` before it (the
    # iterated map at lag 1): after each yield, exactly the sources still
    # ahead keep their snapshot and distance alive
    checkpoints = list(range(2, 84, 2))
    pairs = {t: checkpoints[j - lag] if j >= lag else 0 for j, t in enumerate(checkpoints)}
    last = {s: t for t, s in sorted(pairs.items()) if s}
    geom = engines._GEOMETRIES[model.name]
    snapshots, distances = {}, {}  # checkpoint -> weak reference
    at = iter(checkpoints)

    def distance(state):
        d = geom.distance(state)
        distances[next(at)] = weakref.ref(d)
        return d

    def snapshot(state):
        snap = geom.snapshot(state)
        t = max(distances)  # the checkpoint being folded
        snapshots[t] = weakref.ref(snap[0] if model is free else snap)
        return snap

    tracked = geom._replace(distance=distance, snapshot=snapshot)

    def walk(law=dist, ens=engines.ENSEMBLE_PRIMARY):
        return geom.steps(law, checkpoints, 0, 50, 5, ens)

    for t, _ in zip(checkpoints, engines.pair_products(pairs)(tracked, walk), strict=True):
        ahead = {s for s in last if s <= t < last[s]}
        assert {s for s, ref in snapshots.items() if ref() is not None} == ahead, t
        # the fold's own distance of w_t stays bound until the next checkpoint
        assert {s for s, ref in distances.items() if ref() is not None} == ahead | {t}, t
    assert sorted(snapshots) == sorted(last)


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
                                         seed=1)
        else:
            pairs = dict.fromkeys(checkpoints, 0)
            engines.observe(farey, FAREY_UNIFORM, pairs, engines.pair_products(pairs), 10,
                            seed=1)


# --- the letter-stack kernel's state ---


@pytest.mark.parametrize("dist", [UNIFORM, MULTI, WITH_IDENTITY],
                         ids=["uniform", "multi", "with_identity"])
def test_free_kernel_state_is_the_reduced_walk(dist):
    # a partial second block, of a row count that is not a multiple of 4
    lo, rows, checkpoints, seed = engines.BLOCK_SIZE, 301, [1, 4, 11, 30], 8
    lengths, words = [], []
    for stack, length in engines._free_steps(dist, checkpoints, lo, lo + rows, seed,
                                             engines.ENSEMBLE_AUX):
        assert stack.dtype == np.int8 and stack.shape[0] == rows
        lengths.append(length)
        words.append([tuple(stack[r, :length[r]].tolist()) for r in range(rows)])
    for r in range(rows):
        w = sample_walk(free, dist, checkpoints[-1], seed=seed, stream=lo + r,
                        ensemble=engines.ENSEMBLE_AUX).locations
        for j, t in enumerate(checkpoints):
            # each yielded length is its own array: later steps leave it alone
            assert lengths[j][r] == len(w[t]), (r, t)
            assert words[j][r] == w[t].letters, (r, t)



# names the letter stacks go by; only `_letter_stacks` may write into them
_STACK_NAMES = {"flat", "above", "stack"}


def test_only_the_letter_stack_helper_writes_letter_stacks():
    """No function of `engines` but `_letter_stacks` (and the `push` it
    returns) assigns into a subscript of a letter stack, so every F2 walk
    steps through the one push/cancel pass."""
    source = Path(engines.__file__).read_text()
    tree = ast.parse(source)
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_letter_stacks")
    inside = {id(node) for node in ast.walk(helper)}

    def writes(nodes):
        return [f"line {node.lineno}: {ast.get_source_segment(source, node)}" for node in nodes
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id in _STACK_NAMES]

    assert writes(ast.walk(helper))  # the scan sees the helper's own writes
    found = writes(node for node in ast.walk(tree) if id(node) not in inside)
    assert not found, found


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
        "with_identity": (free, WITH_IDENTITY),
        "farey_uniform": (farey, FAREY_UNIFORM), "farey_five": (farey, FAREY_FIVE),
        "farey_huge": (farey, FAREY_HUGE)}
FREE_ONLY, FAREY_ONLY = {"cyclic_core"}, {"trace_small", "farey_translation_length"}
OBSERVER_CASES = (
    [(name, law_id) for name in OBSERVERS if name not in FAREY_ONLY
     for law_id in ("uniform", "multi", "law40000", "with_identity")]
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
    outs = [observe_rows(model, dist, checkpoints, observer, samples, seed,
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
    distance = engines._GEOMETRIES["farey"].distance
    got = engines._farey_product(u_state, w_state, distance(u_state), distance(w_state))
    assert got.tolist() == [gromov_product(farey, farey.identity(), u, w) for w in ws]


def test_center_product_widens_past_the_guard():
    # the map sending x's slope 1/2^62 to infinity has a column sum 2^62 + 1
    center, checkpoints, samples, seed = FareyElement(1, 0, 1 << 62, 1), [1, 6], 30, 5
    got = observe_rows(farey, FAREY_UNIFORM, checkpoints, engines.center_product(center),
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


# --- the Farey kernel's bytes, widening step and snapshots, and ladder edges ---


def _states(geom, walk):
    for state in walk():
        yield state.T  # a row per sample


def _digest(arrays) -> str:
    """sha256 over each array's dtype and contents (its python ints when the
    dtype is object, whose bytes are pointers)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(repr(a.tolist()).encode() if a.dtype == object else a.tobytes())
    return h.hexdigest()


# sha256 of the Farey kernel's states, and of d(1, w_t) and (w_s . w_t)_1
# with s the checkpoint before t (`pair_products`), at every checkpoint, at
# seed 23, recorded before the kernel and the ladder moved to column gathers,
# in-place products, the growth bound and one compaction index per rung:
# their outputs stay byte for byte, at either thread count
FAREY_DIGESTS = {
    "uniform": ("2d576a5ec85c44ab34b037f2172044780a441c581962a0013ca825793d92f776",
                "fd50bb2a4aa91b24e0e65a5fc44d7b73f75c190921649938cbacf82c40e45abe"),
    "huge": ("e81266e1c56517638c1f967ad6ba60c5c51c27fcf95749ba398755c4c56c97a9",
             "c1ef6985db28da35327e063da17afc9722bd2c6bcadc531776edd0993816e7b2"),
}
# law: (law, checkpoints, samples); the uniform law over two blocks, the
# huge one past the int64 guard from its second step on
FAREY_DIGEST_CASES = {
    "uniform": (FAREY_UNIFORM, [1, 2, 10, 33, 64, 100], 16_400),
    "huge": (FAREY_HUGE, [1, 2, 5, 12, 20], 600),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law_id", sorted(FAREY_DIGESTS))
def test_farey_engine_bytes_unchanged(law_id, threads):
    dist, checkpoints, samples = FAREY_DIGEST_CASES[law_id]
    pairs = dict(zip(checkpoints, [0, *checkpoints[:-1]]))
    states = observe_rows(farey, dist, checkpoints, _states, samples, 23, threads=threads)
    products = observe_rows(farey, dist, checkpoints, engines.pair_products(pairs),
                            samples, 23, threads=threads)
    digests = tuple(_digest(out[t] for t in checkpoints) for out in (states, products))
    assert digests == FAREY_DIGESTS[law_id]


def test_support_entries_above_int64_run_in_python_ints():
    big = FareyElement(1, 1 << 70, 0, 1)
    dist = StepDistribution([big, big.inverse(), L, L.inverse()], [0.3, 0.3, 0.2, 0.2])
    checkpoints, samples, seed = [1, 3], 40, 29
    got = observe_rows(farey, dist, checkpoints, engines.DISTANCE, samples, seed)
    for i in range(samples):
        w = sample_walk(farey, dist, 3, seed=seed, stream=i).locations
        for t in checkpoints:
            assert got[t][i] == farey.distance(farey.identity(), w[t]), (i, t)


# S = 3: the positive matrix [[2, 1], [1, 1]] and its inverse, the former
# drawn more often, so the block passes the guard in mid-walk
FAREY_S3 = StepDistribution([FareyElement(2, 1, 1, 1), FareyElement(1, -1, -1, 2)],
                            [0.8, 0.2])


@pytest.mark.parametrize("dist,n,samples", [(FAREY_HUGE, 6, 50), (FAREY_S3, 90, 200)],
                         ids=["huge", "column_sum_3"])
def test_farey_kernel_widens_at_the_step_the_max_passes_the_guard(dist, n, samples):
    # the reference rule: the block goes on in python ints from the first
    # step after which an entry exceeds _INT64_MAX // S
    seed, ensemble = 37, 0
    entries = [g.entries() for g in dist.support]
    scale = max(2, *(max(abs(e) + abs(g), abs(f) + abs(h)) for e, f, g, h in entries))
    guard = engines._INT64_MAX // scale
    idx = engines._draw_index_block(dist, n, 0, samples, seed, ensemble)
    ref = [FareyElement(1, 0, 0, 1)] * samples
    wide = False
    dtypes, expected = [], []
    for i in range(n):
        ref = [w * dist.support[s] for w, s in zip(ref, idx[i].tolist())]
        wide = wide or max(abs(x) for w in ref for x in w.entries()) > guard
        dtypes.append(np.dtype(object) if wide else np.dtype(np.int64))
        expected.append([w.entries() for w in ref])
    got = list(engines._farey_steps(dist, range(1, n + 1), 0, samples, seed, ensemble))
    assert [s.dtype for s in got] == dtypes
    assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes
    assert all(s.T.tolist() == [list(e) for e in exp] for s, exp in zip(got, expected))


R2, L2 = R * R, L * L
# the kernel's pass length k: 4 on uniform R, L and on the one-element law,
# 2 on eight elements, 1 on FAREY_HUGE; FAREY_S3 and the one-element law
# pass the int64 guard in mid-walk
GROUPED_LAWS = {
    "uniform": FAREY_UNIFORM,
    "eight": StepDistribution([R, L, R.inverse(), L.inverse(), R2, L2, R2.inverse(),
                               L2.inverse()], [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05]),
    "column_sum_3": FAREY_S3,
    "huge": FAREY_HUGE,
    "one_element": StepDistribution([FareyElement(2, 1, 1, 1)], [1.0]),
}


@pytest.mark.parametrize("law_id", sorted(GROUPED_LAWS))
def test_grouped_farey_kernel_matches_per_step_reference(law_id):
    # checkpoints off the pass length, so passes of every length 1..k end
    # on them; the reference takes one step at a time and goes on in python
    # ints from the first step after which an entry exceeds _INT64_MAX // S
    dist, samples, seed, ensemble = GROUPED_LAWS[law_id], 200, 43, 0
    checkpoints = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 90]
    entries = [g.entries() for g in dist.support]
    scale = max(2, *(max(abs(e) + abs(g), abs(f) + abs(h)) for e, f, g, h in entries))
    guard = engines._INT64_MAX // scale
    idx = engines._draw_index_block(dist, checkpoints[-1], 0, samples, seed, ensemble)
    ref, wide, expected = [FareyElement(1, 0, 0, 1)] * samples, False, []
    for i in range(checkpoints[-1]):
        ref = [w * dist.support[s] for w, s in zip(ref, idx[i].tolist())]
        wide = wide or max(abs(x) for w in ref for x in w.entries()) > guard
        if i + 1 in checkpoints:
            expected.append((np.dtype(object) if wide else np.dtype(np.int64),
                             [list(w.entries()) for w in ref]))
    got = list(engines._farey_steps(dist, checkpoints, 0, samples, seed, ensemble))
    assert [(s.dtype, s.T.tolist()) for s in got] == expected


def test_pair_products_run_two_ladders_per_checkpoint(monkeypatch):
    # d(1, w_t), and d(1, w_s^-1 w_t) for the product; d(1, w_s) is kept
    # from the checkpoint that computed it.  A checkpoint paired with 0 runs
    # only the first: (1 . w_t)_1 is 0
    calls = []
    ladder = engines._dists_to_infinity

    def counted(p, q):
        calls.append(len(p))
        return ladder(p, q)

    monkeypatch.setattr(engines, "_dists_to_infinity", counted)
    pairs = {3: 0, 5: 3, 8: 3, 13: 8, 21: 0}
    got = observe_rows(farey, FAREY_UNIFORM, pairs, engines.pair_products(pairs), 300, 47)
    assert calls == [300] * (2 * len(pairs) - 2)  # 3 -> 0 and 21 -> 0 run one
    for i in range(0, 300, 37):
        w = sample_walk(farey, FAREY_UNIFORM, 21, seed=47, stream=i).locations
        for t, s in pairs.items():
            assert got[t][i].tolist() == [farey.distance(farey.identity(), w[t]),
                                          gromov_product(farey, farey.identity(), w[s], w[t])]


def test_common_prefix_of_empty_snapshots():
    # a walk that stays at 1 keeps snapshots with no letter column, so the
    # tree's product compares zero columns
    law = StepDistribution([FreeWord()], [1.0])
    pairs = {1: 0, 2: 1}
    got = observe_rows(free, law, pairs, engines.pair_products(pairs), 50, 5)
    assert all(not got[t].any() for t in pairs)


@pytest.mark.parametrize("dist", [FAREY_UNIFORM, FAREY_HUGE], ids=["uniform", "huge"])
def test_kept_farey_states_outlive_later_steps(dist):
    # `pair_products` keeps the snapshot of a state for later checkpoints
    checkpoints = [1, 2, 3, 7, 8]
    snapshot = engines._GEOMETRIES["farey"].snapshot

    def keep(geom, walk):
        kept = []
        for state in walk():
            kept.append((snapshot(state), state.copy()))
            yield geom.distance(state)
        assert all(np.array_equal(a, b) for a, b in kept)
        assert len({id(a) for a, _ in kept}) == len(kept)

    observe_rows(farey, dist, checkpoints, keep, 300, 41)


def _fibonacci(k: int) -> tuple[int, int]:
    """(F_{k+1}, F_k): every Euclidean quotient is 1, the longest ladder for
    its size."""
    a, b = 1, 0
    for _ in range(k):
        a, b = a + b, a
    return a, b


LADDER_CASES = {
    # p = 1 mod |q| for every live row: all finish on the first rung
    "first_rung": [(1, 2), (1, 5), (4, 3), (-2, 3), (11, -5), (1, 1000)],
    # no live row: |q| <= 1
    "none_live": [(1, 0), (-1, 0), (5, 1), (-3, -1), (0, 1)],
    # long ladders beside short ones, so most rungs finish no row
    "fibonacci": [_fibonacci(90), (1, 2), _fibonacci(40), (1, 0), (3, 7),
                  (-_fibonacci(60)[0], _fibonacci(60)[1]), _fibonacci(89)[::-1], (2, 1)],
}


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_lockstep_distance_ladder_edges(case, dtype):
    cols = LADDER_CASES[case]
    if dtype is object and case == "fibonacci":
        cols = cols + [_fibonacci(300), _fibonacci(250)[::-1]]
    p, q = (np.array(v, dtype=dtype) for v in zip(*cols))
    got = engines._dists_to_infinity(p, q)
    assert got.dtype == np.int64
    assert got.tolist() == [recursive_dist_to_infinity(a, b) for a, b in cols]



# --- the lockstep translation length against the scalar one ---


def assert_lengths_match(columns):
    """`engines._translation_lengths` of hyperbolic elements (a, b, c, d)
    equals `translation_length` of each: all in one batch of python ints,
    and those whose entries are below `_LENGTH_INT64` in one int64 batch."""
    if not columns:
        return
    expected = [translation_length(FareyElement(*col)) for col in columns]
    m = np.array(columns, dtype=object).reshape(-1, 4).T
    assert engines._translation_lengths(m).tolist() == expected
    fits = [i for i, col in enumerate(columns) if max(map(abs, col)) < engines._LENGTH_INT64]
    if fits:
        got = engines._translation_lengths(m[:, fits].astype(np.int64))
        assert got.tolist() == [expected[i] for i in fits]


def assert_at_most_matches(state, bounds):
    """`_farey_translation_at_most` of a kernel state against the scalar
    length of each row, at every B in `bounds`."""
    taus = [translation_length(FareyElement(*col)) for col in state.T.tolist()]
    for B in bounds:
        got = engines._farey_translation_at_most(state, B)
        assert got.tolist() == [tau <= B for tau in taus], B


def test_lockstep_translation_length_on_uniform_walks():
    # int64 at every n, and at n = 100 a row whose entries pass _LENGTH_INT64,
    # which runs in python ints beside the int64 rows
    n = 100
    states = list(engines._farey_steps(FAREY_UNIFORM, range(1, n + 1), 0, 300, 61, 0))
    assert all(state.dtype == np.int64 for state in states)
    assert (np.abs(states[-1]) >= engines._LENGTH_INT64).any()
    for state in states:
        hyperbolic = np.abs(state[0] + state[3]) > 2
        assert_lengths_match([tuple(col) for col in state[:, hyperbolic].T.tolist()])
    for state in states[9::10]:
        assert_at_most_matches(state, [0.5, 1, 2, 3.5, 5])


def test_lockstep_translation_length_on_huge_law():
    # python ints from the second step on (the state itself widens)
    states = list(engines._farey_steps(FAREY_HUGE, [1, 2, 3, 5, 8, 12], 0, 200, 7, 0))
    assert states[-1].dtype == object
    for state in states:
        hyperbolic = np.abs(state[0] + state[3]) > 2
        assert_lengths_match([tuple(col) for col in state[:, hyperbolic].T.tolist()])
        assert_at_most_matches(state, [0.5, 1, 2, 5, 1e9])


def _product(*factors: FareyElement) -> FareyElement:
    out = FareyElement(1, 0, 0, 1)
    for g in factors:
        out = out * g
    return out


def _period(*digits: int) -> FareyElement:
    """The period matrix of `digits`, squared when their number is odd
    (det [[q, 1], [1, 0]] = -1)."""
    a, b, c, d = 1, 0, 0, 1
    for q in digits:
        a, b, c, d = a * q + b, a, c * q + d, c
    if len(digits) % 2:
        a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
    return FareyElement(a, b, c, d)


NEG = FareyElement(-1, 0, 0, -1)
CONJ = _product(R, R, L.inverse(), R.inverse(), L, L, L)
EDGE_ELEMENTS = {
    # |trace| = 3, either sign, with c of either sign
    "trace_3": [FareyElement(2, 1, 1, 1), FareyElement(1, -1, -1, 2), FareyElement(0, 1, -1, 3),
                FareyElement(2, -1, -1, 1), FareyElement(1, 1, 1, 2)],
    "trace_minus_3": [NEG * FareyElement(2, 1, 1, 1), NEG * FareyElement(0, 1, -1, 3),
                      FareyElement(-2, 1, 1, -1), FareyElement(-1, -1, -1, -2)],
    # negative traces past 3, powers and conjugates
    "negative": [NEG * _period(1, 2), NEG * _period(3, 1, 4) * _period(3, 1, 4),
                 CONJ.inverse() * NEG * _period(2, 5, 1, 1) * CONJ,
                 NEG * R * R * R * L * L],
    # odd periods (the product reaches the trace only after an even number of
    # periods), some as powers and conjugates
    "odd_period": [_period(1), _period(2), _period(7), _period(1, 2, 3), _period(5, 1, 1, 2, 9),
                   _period(1, 1, 1, 1, 1, 1, 1), _period(2, 1, 2) * _period(2, 1, 2),
                   CONJ * _period(3, 1, 4) * CONJ.inverse(),
                   CONJ.inverse() * NEG * _period(1, 4, 1) * CONJ],
    # even periods, powers (j > 1) and long pre-periods
    "even_period": [_period(1, 2), _period(4, 4), _period(1, 2) * _period(1, 2) * _period(1, 2),
                    CONJ * CONJ * _period(2, 3) * CONJ.inverse() * CONJ.inverse(),
                    _product(*[R] * 9, *[L] * 2) * CONJ],
}


@pytest.mark.parametrize("case", sorted(EDGE_ELEMENTS))
def test_lockstep_translation_length_edge_elements(case):
    elements = EDGE_ELEMENTS[case]
    assert all(abs(g.trace()) > 2 for g in elements)
    assert_lengths_match([g.entries() for g in elements])
    for g in elements:  # each alone, so no other row shares its rungs
        assert_lengths_match([g.entries()])


@st.composite
def long_period_element(draw):
    """A hyperbolic element with a long period: R^k1 L^k2 ... with random
    exponents (its attracting point's period is k1, k2, ...), or the
    consecutive-Fibonacci [[F_(k+1), F_k], [F_k, F_(k-1)]] = [[1, 1], [1, 0]]^k
    for even k; then maybe conjugated by a short word, negated and powered."""
    if draw(st.booleans()):
        bits = draw(st.sampled_from([2, 6, 20, 40]))
        exponents = draw(st.lists(st.integers(1, 1 << bits), min_size=2, max_size=24))
        g = FareyElement(1, 0, 0, 1)
        for i, k in enumerate(exponents):
            g = g * (FareyElement(1, k, 0, 1) if i % 2 == 0 else FareyElement(1, 0, k, 1))
    else:
        a, b = _fibonacci(2 * draw(st.integers(1, 60)))
        g = FareyElement(a, b, b, a - b)
    for letter in draw(st.lists(st.sampled_from([R, L, R.inverse(), L.inverse()]), max_size=8)):
        g = letter * g * letter.inverse()
    if draw(st.booleans()):
        g = NEG * g
    return _product(*[g] * draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(st.lists(long_period_element(), min_size=1, max_size=8))
def test_lockstep_translation_length_on_long_periods(elements):
    assert_lengths_match([g.entries() for g in elements])


def test_lockstep_translation_length_on_a_box():
    # every hyperbolic element of SL(2,Z) with entries in [-10, 10]
    span = range(-10, 11)
    columns = [col for col in itertools.product(span, repeat=4)
               if col[0] * col[3] - col[1] * col[2] == 1 and abs(col[0] + col[3]) > 2]
    assert len(columns) == 696
    assert_lengths_match(columns)


def cycle_digits(g: FareyElement) -> list[int]:
    """The continued-fraction digits of one cycle of hyperbolic g: the
    period of its attracting point (read until a complete quotient (P, Q)
    repeats), repeated until the product of its [[q, 1], [1, 0]] reaches
    trace |tr g|; g is conjugate to +-that product."""
    a, b, c, d = g.entries()
    t, s = abs(a + d), 1 if a + d > 0 else -1
    D = t * t - 4
    root = math.isqrt(D)
    P, Q = s * (a - d), 2 * s * c
    seen, digits = {}, []
    while (P, Q) not in seen:
        seen[P, Q] = len(digits)
        q, P, Q = next_quotient(P, Q, D, root)
        digits.append(q)
    period = digits[seen[P, Q]:]
    cycle, (m00, m01, m10, m11) = [], (1, 0, 0, 1)
    while m00 + m11 < t:
        for q in period:
            m00, m01, m10, m11 = m00 * q + m01, m00, m10 * q + m11, m10
        cycle += period
    assert m00 + m11 == t
    return cycle


def closed_form_length(cycle: list[int]) -> int:
    """The translation length by its closed form: the digits >= 2 of the
    cycle, plus floor(r / 2) for each maximal cyclic run of r ones.  It
    counts digits and runs no min-plus ladder."""
    if all(q == 1 for q in cycle):
        return len(cycle) // 2
    i = next(k for k, q in enumerate(cycle) if q >= 2)  # no run wraps from here
    tau = 0
    for one, run in itertools.groupby(cycle[i:] + cycle[:i], key=lambda q: q == 1):
        r = len(list(run))
        tau += r // 2 if one else r
    return tau


def assert_closed_form_matches(columns):
    """The closed form of each hyperbolic (a, b, c, d) against the scalar
    `translation_length`, and the lockstep against the scalar, row for
    row."""
    want = [closed_form_length(cycle_digits(FareyElement(*col))) for col in columns]
    assert [translation_length(FareyElement(*col)) for col in columns] == want
    assert_lengths_match(columns)


def test_closed_form_translation_length_on_walks_and_a_box():
    # every hyperbolic element with entries in [-10, 10], and the hyperbolic
    # rows of uniform, five-element and huge-law walks; the huge law's pass 2^27
    columns = [col for col in itertools.product(range(-10, 11), repeat=4)
               if col[0] * col[3] - col[1] * col[2] == 1 and abs(col[0] + col[3]) > 2]
    for dist, checkpoints, rows in ((FAREY_UNIFORM, range(5, 101, 5), 600),
                                    (FAREY_FIVE, range(4, 41, 4), 200),
                                    (FAREY_HUGE, [1, 2, 3, 5, 8, 12], 200)):
        for state in engines._farey_steps(dist, checkpoints, 0, rows, 3, 0):
            hyperbolic = np.abs(state[0] + state[3]) > 2
            columns += [tuple(col) for col in state[:, hyperbolic].T.tolist()]
    assert len(columns) >= 10_000
    assert sum(max(map(abs, col)) >= engines._LENGTH_INT64 for col in columns) >= 500
    assert_closed_form_matches(columns)


@st.composite
def digit_cycle(draw):
    """(digits, g): g = +-(conjugate of) _period(digits)^power, and its
    cycle as `digits` (doubled when odd) repeated `power` times.  Digits
    come as runs of ones, long ones among them, each closed by a small or a
    huge digit, or as ones alone."""
    if draw(st.integers(0, 4)) == 0:
        digits = [1] * draw(st.integers(1, 80))
    else:
        runs = draw(st.lists(st.tuples(
            st.integers(0, 40), st.one_of(st.integers(2, 5), st.integers(2, 1 << 40))),
            min_size=1, max_size=6))
        digits = [q for ones, last in runs for q in [1] * ones + [last]]
    power = draw(st.integers(1, 3))
    g = _product(*[_period(*digits)] * power)
    for letter in draw(st.lists(st.sampled_from([R, L, R.inverse(), L.inverse()]), max_size=6)):
        g = letter * g * letter.inverse()
    if draw(st.booleans()):
        g = NEG * g
    return digits * (2 if len(digits) % 2 else 1) * power, g


@settings(max_examples=150, deadline=None)
@given(st.lists(digit_cycle(), min_size=1, max_size=6))
@example([([1, 1], _period(1)), ([1, 1, 1, 2], _period(1, 1, 1, 2)), ([7, 7], _period(7))])
def test_closed_form_translation_length_on_digit_cycles(cases):
    for digits, g in cases:
        assert closed_form_length(cycle_digits(g)) == closed_form_length(digits)
    assert_closed_form_matches([g.entries() for _, g in cases])


def ladder(digits) -> tuple:
    """The distance ladder over `digits`: the min-plus product of the
    matrices [[1, q - 1], [1, q]] on (X, E), as (A00, A01, A10, A11)."""
    a00, a01, a10, a11 = 0, math.inf, math.inf, 0
    for q in digits:
        a00, a01 = min(a00, a01) + 1, min(a00 + q - 1, a01 + q)
        a10, a11 = min(a10, a11) + 1, min(a10 + q - 1, a11 + q)
    return a00, a01, a10, a11


def assert_lemmas(digits):
    """Lemma 1, A01 + A10 >= A00 + A11, and Lemma 2, min(A00, A11) is the
    closed form, on an even number of digits (README)."""
    a00, a01, a10, a11 = ladder(digits)
    assert a01 + a10 >= a00 + a11, digits
    assert min(a00, a11) == closed_form_length(list(digits)), digits


def test_lemmas_on_every_short_even_digit_sequence():
    # every sequence over {1, 2, 3} of even length 2-10 (66 429 of them)
    for k in range(2, 11, 2):
        for digits in itertools.product((1, 2, 3), repeat=k):
            assert_lemmas(digits)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(lambda half: st.lists(
    st.one_of(st.integers(1, 3), st.integers(1, 1 << 40)), min_size=2 * half, max_size=2 * half)))
def test_lemmas_on_long_even_digit_sequences(digits):
    assert_lemmas(digits)


def cross_term_wins(digits) -> bool:
    a00, a01, a10, a11 = ladder(digits)
    return (a01 + a10) / 2 < min(a00, a11)


def test_cross_term_wins_only_on_odd_runs_of_ones():
    # at an odd number of digits (A01 + A10) / 2 can be strictly smallest:
    # 1/2 < 1 on (1,) and 3/2 < 2 on (1, 1, 1); over {1, 2, 3} up to 7 digits
    # only on such runs, so both routes count an even number of digits
    assert ladder((1,)) == (1, 0, 1, 1) and ladder((1, 1, 1)) == (2, 1, 2, 2)
    wins = [digits for k in range(1, 8) for digits in itertools.product((1, 2, 3), repeat=k)
            if cross_term_wins(digits)]
    assert wins == [(1,) * k for k in (1, 3, 5, 7)]


def test_lockstep_translation_length_raises_off_sl2z():
    # a det-0 and a det-(-4) matrix have no such continued fraction; the
    # lockstep refuses them before its loops, and the scalar one's digit
    # product passes the trace; both raise (not assert)
    for col in [(-4, -4, -4, -4), (-4, -4, -4, -3)]:
        with pytest.raises(ArithmeticError, match="not in SL"):
            engines._translation_lengths(np.array([col], dtype=np.int64).T)
    with pytest.raises(ArithmeticError, match="passed the element's trace"):
        translation_length(SimpleNamespace(a=-4, b=-4, c=-4, d=-4, trace=lambda: -8))


def test_lockstep_translation_length_raises_on_every_small_non_sl2z_matrix():
    # each matrix with entries in [-4, 5], det != 1 and |trace| > 2 raises,
    # alone, in int64 and in python ints; without the det check some, such
    # as (-4, -4, -4, 1) (det -20), divide by Q = 0 in the pre-period and
    # never leave it
    span = range(-4, 6)
    columns = [col for col in itertools.product(span, repeat=4)
               if col[0] * col[3] - col[1] * col[2] != 1 and abs(col[0] + col[3]) > 2]
    assert len(columns) == 5580
    for col in columns:
        for dtype in (np.int64, object):
            with pytest.raises(ArithmeticError, match="not in SL"):
                engines._translation_lengths(np.array([col], dtype=dtype).T)


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
