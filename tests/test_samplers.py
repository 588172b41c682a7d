"""The batched instance samplers against the scalar ones, draw for draw.

`tests/scalar_samplers.py` keeps the samplers that made one `rng.integers`
call per letter or generator step.  The props suites run the batched
samplers on a `_draws.WordDraws`, which serves numpy's bounded draws from
32-bit words read in bulk, so here each batched sampler draws from a
`WordDraws` and its oracle from a plain `np.random.Generator` seeded alike.
They must return equal elements call for call and then agree on one
trailing full-word draw, which shows both consumed the same words.  The
generator states themselves cannot be compared: `WordDraws` reads ahead.
A numpy whose bounded draws differ between scalar and `size=` calls, or
from `WordDraws`' conversion, fails here rather than silently moving the
props outputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_samplers
from hypwalk import suites
from hypwalk._draws import CHUNK, WordDraws
from hypwalk.errors import UnsatisfiableConfigError
from hypwalk.models import get_model
from word_streams import CraftedWords

free = get_model("free")
farey = get_model("farey")

seeds = st.integers(0, 2**64 - 1)
radii = st.integers(1, 20)


def _outcome(sample, rng):
    """What `sample(rng)` returned or raised."""
    try:
        return sample(rng)
    except UnsatisfiableConfigError:
        return UnsatisfiableConfigError


def _assert_same_draws(calls, seed):
    """Run each (batched, scalar) pair of samplers in turn, the batched one
    on a `WordDraws` and the scalar one on a plain generator seeded alike;
    results must agree after every call, and so must one trailing draw."""
    new, old = WordDraws(np.random.default_rng(seed)), np.random.default_rng(seed)
    for batched, scalar in calls:
        assert _outcome(batched, new) == _outcome(scalar, old)
    assert new.integers(0, 2**32) == old.integers(0, 2**32)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, lengths=st.lists(st.integers(0, 60), min_size=1, max_size=8), radius=radii)
def test_sample_word_matches_scalar_draws(seed, lengths, radius):
    calls = []
    for length in lengths:
        calls.append((lambda rng, n=length: free.sample_word(rng, n),
                      lambda rng, n=length: scalar_samplers.sample_word(rng, n)))
        calls.append((lambda rng: free.sample_element(rng, radius),
                      lambda rng: scalar_samplers.sample_free_element(rng, radius)))
    _assert_same_draws(calls, seed)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, radius_list=st.lists(radii, min_size=1, max_size=8))
def test_farey_sample_element_matches_scalar_draws(seed, radius_list):
    _assert_same_draws(
        [(lambda rng, k=k: farey.sample_element(rng, k),
          lambda rng, k=k: scalar_samplers.sample_farey_element(rng, k))
         for k in radius_list],
        seed,
    )


def _skip(k):
    """A pair of calls that draw k full words, moving later draws across chunk ends."""
    return (lambda rng: list(rng.integers(0, 2**32, size=k)),) * 2


def _far_pair_calls(min_ds):
    return [(lambda rng, m=m: suites._far_pair_farey(farey, rng, m),
             lambda rng, m=m: scalar_samplers.far_pair_farey(farey, rng, m)) for m in min_ds]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, skip=st.integers(0, CHUNK),
       min_ds=st.lists(st.integers(0, 24).map(lambda k: k / 2), min_size=1, max_size=4))
@example(seed=0, skip=0, min_ds=[0.0])
@example(seed=1, skip=CHUNK - 3, min_ds=[0.0, 0.0, 0.5])
def test_far_pair_farey_matches_scalar_draws(seed, skip, min_ds):
    _assert_same_draws([_skip(skip), *_far_pair_calls(min_ds)], seed)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, radius=radii, rs=st.lists(st.integers(0, 22), min_size=1, max_size=6))
def test_shadow_member_tree_matches_scalar_draws(seed, radius, rs):
    rng = np.random.default_rng(seed)
    calls = []
    for r in rs:
        # r past d(z, x) exercises the raise, which draws nothing
        z, x = free.sample_element(rng, radius), free.sample_element(rng, radius)
        calls.append((lambda g, z=z, x=x, r=r: suites._shadow_member_tree(free, g, z, x, r),
                      lambda g, z=z, x=x, r=r: scalar_samplers.shadow_member_tree(
                          free, g, z, x, r)))
    _assert_same_draws(calls, seed)


# crafted streams: the far pair reads its growth steps straight off the word
# buffer, and must fall back to the per-value draws exactly where those differ


def _step_starts(monkeypatch, words, min_d):
    """Where in `words` the second and later growth steps of one far pair
    start: the buffer position at each ladder call but the last."""
    rng = WordDraws(CraftedWords(words))
    starts = []
    ladder = suites.dist_to_infinity
    monkeypatch.setattr(suites, "dist_to_infinity",
                        lambda p, q: starts.append(rng.pos) or ladder(p, q))
    suites._far_pair_farey(farey, rng, min_d)
    monkeypatch.undo()
    return starts[:-1]


def _assert_same_crafted_draws(monkeypatch, calls, words):
    """As `_assert_same_draws`, with both sides on `words`; returns the
    buffer positions at which growth steps went through
    `random_product_entries` (radius 2)."""
    fallbacks = []
    product = suites.random_product_entries
    monkeypatch.setattr(suites, "random_product_entries",
                        lambda rng, k, *u: fallbacks.append((k, rng.pos)) or product(rng, k, *u))
    new, old = WordDraws(CraftedWords(words)), WordDraws(CraftedWords(words))
    for batched, scalar in calls:
        assert _outcome(batched, new) == _outcome(scalar, old)
    assert new.integers(0, 2**32) == old.integers(0, 2**32)
    return [pos for k, pos in fallbacks if k == 2]


def test_far_pair_rejected_count_word_mid_growth(monkeypatch):
    words = np.random.default_rng(8).integers(0, 2**32, size=2 * CHUNK).tolist()
    starts = _step_starts(monkeypatch, words, 4.0)
    assert len(starts) >= 2
    words[starts[1]] = 0  # the third step's count word: span 3 rejects it
    assert _assert_same_crafted_draws(monkeypatch, _far_pair_calls([4.0]), words) == [starts[1]]


@pytest.mark.parametrize("offset", [1, 2, 3])
def test_far_pair_step_straddles_chunk_refill(monkeypatch, offset):
    words = np.random.default_rng(9).integers(0, 2**32, size=2 * CHUNK).tolist()
    start = _step_starts(monkeypatch, words, 4.0)[0]
    words[start] = 2**32 - 1  # count 2: the second step takes three words
    # draw words first so that the step starts `offset` words before the
    # chunk's end: its words run into the next chunk, or end the chunk exactly
    skip = CHUNK - offset - start
    fallbacks = _assert_same_crafted_draws(
        monkeypatch, [_skip(skip), *_far_pair_calls([4.0])], [2**31] * skip + words)
    assert (CHUNK - offset in fallbacks) == (offset < 3)
