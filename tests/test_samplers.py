"""The batched instance samplers against the scalar ones, draw for draw.

`tests/scalar_samplers.py` keeps the samplers that make one `rng.integers`
call per letter or generator step.  Here each batched sampler and its
oracle draw from two `walk.StreamDraws` seeded alike.  They must return
equal elements call for call and then agree on one trailing full-word draw,
which shows both consumed the same words.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_samplers
from hypwalk import suites
from hypwalk.models import farey as farey_module
from hypwalk.models.farey import IDENTITY, L, R, dist_to_infinity, random_product_entries
from hypwalk.engines import ENSEMBLE_PROPS
from hypwalk.errors import UnsatisfiableConfigError
from hypwalk.models import get_model
from hypwalk.walk import StreamDraws

free = get_model("free")
farey = get_model("farey")
CHUNK = StreamDraws.CHUNK

seeds = st.integers(0, 2**64 - 1)
radii = st.integers(1, 20)


def _outcome(sample, rng):
    """What `sample(rng)` returned or raised."""
    try:
        return sample(rng)
    except UnsatisfiableConfigError:
        return UnsatisfiableConfigError


def _assert_same_draws(calls, new, old):
    """Run each (batched, scalar) pair of samplers in turn, the batched one
    on `new` and the scalar one on `old`, two readers of one word stream;
    results must agree after every call, and so must one trailing draw."""
    for batched, scalar in calls:
        assert _outcome(batched, new) == _outcome(scalar, old)
    assert new.integers(0, 2**64) == old.integers(0, 2**64)


def _seeded(seed):
    return StreamDraws(seed, ENSEMBLE_PROPS), StreamDraws(seed, ENSEMBLE_PROPS)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, lengths=st.lists(st.integers(0, 60), min_size=1, max_size=8), radius=radii)
def test_sample_word_matches_scalar_draws(seed, lengths, radius):
    calls = []
    for length in lengths:
        calls.append((lambda rng, n=length: free.sample_word(rng, n),
                      lambda rng, n=length: scalar_samplers.sample_word(rng, n)))
        calls.append((lambda rng: free.sample_element(rng, radius),
                      lambda rng: scalar_samplers.sample_free_element(rng, radius)))
    _assert_same_draws(calls, *_seeded(seed))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, radius_list=st.lists(radii, min_size=1, max_size=8))
def test_farey_sample_element_matches_scalar_draws(seed, radius_list):
    _assert_same_draws(
        [(lambda rng, k=k: farey.sample_element(rng, k),
          lambda rng, k=k: scalar_samplers.sample_farey_element(rng, k))
         for k in radius_list],
        *_seeded(seed),
    )


def _skip(k):
    """A pair of calls that draw k full words, moving later draws across chunk ends."""
    return (lambda rng: rng.integers(0, 2**64, size=k),) * 2


def _far_pair_calls(min_ds):
    return [(lambda rng, m=m: suites._far_pair_farey(farey, rng, m),
             lambda rng, m=m: scalar_samplers.far_pair_farey(farey, rng, m)) for m in min_ds]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, skip=st.integers(0, CHUNK),
       min_ds=st.lists(st.integers(0, 24).map(lambda k: k / 2), min_size=1, max_size=4))
@example(seed=0, skip=0, min_ds=[0.0])
@example(seed=1, skip=CHUNK - 3, min_ds=[0.0, 0.0, 0.5])
def test_far_pair_farey_matches_scalar_draws(seed, skip, min_ds):
    _assert_same_draws([_skip(skip), *_far_pair_calls(min_ds)], *_seeded(seed))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, radius=radii, rs=st.lists(st.integers(0, 22), min_size=1, max_size=6))
def test_shadow_member_tree_matches_scalar_draws(seed, radius, rs):
    rng = StreamDraws(seed, ENSEMBLE_PROPS)
    calls = []
    for r in rs:
        # r past d(z, x) exercises the raise, which draws nothing
        z, x = free.sample_element(rng, radius), free.sample_element(rng, radius)
        calls.append((lambda g, z=z, x=x, r=r: suites._shadow_member_tree(free, g, z, x, r),
                      lambda g, z=z, x=x, r=r: scalar_samplers.shadow_member_tree(
                          free, g, z, x, r)))
    _assert_same_draws(calls, *_seeded(seed))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, radius=st.integers(1, 8),
       rs=st.lists(st.integers(0, 12).map(lambda k: k / 2), min_size=1, max_size=6))
def test_shadow_member_farey_matches_scalar_draws(seed, radius, rs):
    rng = StreamDraws(seed, ENSEMBLE_PROPS)
    calls = []
    for r in rs:
        # radii past what 40 tries reach exercise the raise after all 40 draws
        z, x = farey.sample_element(rng, 4), farey.sample_element(rng, radius)
        calls.append((lambda g, z=z, x=x, r=r: suites._shadow_member_farey(farey, g, z, x, r),
                      lambda g, z=z, x=x, r=r: scalar_samplers.shadow_member_farey(
                          farey, g, z, x, r)))
    _assert_same_draws(calls, *_seeded(seed))


def _walk_by_hand(rng, steps, far):
    """`random_product_entries(rng, 2, steps, far)` with each run drawn by
    `integers` and the slope measured after every step: its result, and how
    many of the steps taken drew L or L^-1."""
    gens = (R, L, R.inverse(), L.inverse())
    u, with_l = IDENTITY, 0
    for _ in range(steps):
        run = rng.integers(0, 4, size=rng.integers(0, 3))
        for k in run:
            u = u * gens[k]
        with_l += any(k % 2 for k in run)
        if dist_to_infinity(u.a, u.c) >= far:
            return u.entries(), with_l
    return None, with_l


@pytest.mark.parametrize("seed", range(6))
def test_far_walk_measures_only_after_runs_with_l(seed, monkeypatch):
    """The far walk calls `dist_to_infinity` once per step whose run holds
    L^+-1 and on no other; 61 is past the reach of 30 steps of two."""
    measured = []
    monkeypatch.setattr(farey_module, "dist_to_infinity",
                        lambda p, q: measured.append((p, q)) or dist_to_infinity(p, q))
    new, old = _seeded(seed)
    for far in (0.5, 3.0, 6.0, 9.5, 61.0):
        measured.clear()
        got = random_product_entries(new, 2, 30, far)
        want, with_l = _walk_by_hand(old, 30, far)
        assert got == want and len(measured) == with_l
    assert new.integers(0, 2**64) == old.integers(0, 2**64)


@pytest.mark.parametrize("far", [0.0, -1.0])
@pytest.mark.parametrize("seed", range(4))
def test_far_walk_at_far_zero_returns_after_one_step(seed, far):
    new, old = _seeded(seed)
    assert random_product_entries(new, 2, 30, far) == random_product_entries(old, 2)
    assert new.integers(0, 2**64) == old.integers(0, 2**64)
