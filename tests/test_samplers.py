"""The batched instance samplers against the scalar ones, draw for draw.

`tests/scalar_samplers.py` keeps the samplers that made one `rng.integers`
call per letter or generator step.  Each batched sampler must return the
same element and leave the generator in the same state after every call,
so a numpy whose bounded-integer draws differ between scalar and `size=`
calls fails here rather than silently moving the props outputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_samplers
from hypwalk import suites
from hypwalk.errors import UnsatisfiableConfigError
from hypwalk.models import get_model

free = get_model("free")
farey = get_model("farey")

seeds = st.integers(0, 2**64 - 1)
radii = st.integers(1, 20)


def _outcome(sample, rng):
    """(what `sample(rng)` returned or raised, the generator state after it)."""
    try:
        value = sample(rng)
    except UnsatisfiableConfigError:
        value = UnsatisfiableConfigError
    return value, rng.bit_generator.state


def _assert_same_draws(calls, seed):
    """Run each (batched, scalar) pair of samplers in turn on two generators
    seeded alike; results and states must agree after every call."""
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for batched, scalar in calls:
        assert _outcome(batched, new) == _outcome(scalar, old)


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
