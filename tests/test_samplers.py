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
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_samplers
from hypwalk import suites
from hypwalk._draws import WordDraws
from hypwalk.errors import UnsatisfiableConfigError
from hypwalk.models import get_model

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


@settings(max_examples=100, deadline=None)
@given(seed=seeds, min_ds=st.lists(st.integers(0, 24).map(lambda k: k / 2), min_size=1,
                                   max_size=4))
def test_far_pair_farey_matches_scalar_draws(seed, min_ds):
    _assert_same_draws(
        [(lambda rng, m=m: suites._far_pair_farey(farey, rng, m),
          lambda rng, m=m: scalar_samplers.far_pair_farey(farey, rng, m)) for m in min_ds],
        seed,
    )


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
