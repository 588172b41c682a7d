"""Free group word algebra against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import common_prefix_len, words_of_length
from hypwalk.models.free import (
    FreeGroupModel,
    FreeWord,
    cyclic_reduce,
    random_conjugacy_instance,
    reduce_letters,
)

model = FreeGroupModel()
W = FreeWord.from_str

letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30)


def naive_reduce(seq):
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i:i + 2]
                changed = True
                break
    return tuple(seq)


def naive_cyclic_core(word: FreeWord) -> FreeWord:
    seq = list(word.letters)
    while len(seq) >= 2 and seq[0] == -seq[-1]:
        seq = seq[1:-1]
    return FreeWord(seq, _reduced=True)


def test_parse_roundtrip():
    for text in ("", "1", "a", "abAB", "aaabAAA"):
        w = W(text)
        assert W(w.to_str()) == w
    assert W("1") == W("")
    with pytest.raises(ValueError):
        W("axb")


def test_multiplication_examples():
    assert (W("ab") * W("Ba")).to_str() == "aa"
    assert (W("ab") * W("BA")).to_str() == ""
    g = W("abAB")
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


@settings(max_examples=300, deadline=None)
@given(letters_st)
def test_reduction_matches_naive(seq):
    assert reduce_letters(seq) == naive_reduce(seq)


@settings(max_examples=200, deadline=None)
@given(letters_st, letters_st, letters_st)
def test_group_axioms(a, b, c):
    u, v, w = FreeWord(a), FreeWord(b), FreeWord(c)
    assert (u * v) * w == u * (v * w)
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert u.inverse().inverse() == u


@settings(max_examples=200, deadline=None)
@given(letters_st, letters_st, letters_st)
def test_metric_properties(a, b, c):
    u, v, w = FreeWord(a), FreeWord(b), FreeWord(c)
    duv = model.distance(u, v)
    assert duv == model.distance(v, u)
    assert duv == len(u.inverse() * v)  # oracle: reduced length of u^-1 v
    assert duv <= model.distance(u, w) + model.distance(w, v)
    assert (duv == 0) == (u == v)


def test_distance_examples():
    assert model.distance(W(""), W("aaB")) == 3
    assert model.distance(W("a"), W("ab")) == 1
    assert common_prefix_len(W("aab"), W("aaba")) == 3


def test_cyclic_reduction_and_translation_length():
    core, v = cyclic_reduce(W("aaabAAA"))
    assert core == W("b") and v == W("aaa")
    assert model.translation_length(W("abA")) == 1.0
    core, v = cyclic_reduce(W("ab"))
    assert core == W("ab") and v.is_identity()


@settings(max_examples=200, deadline=None)
@given(letters_st)
def test_cyclic_core_matches_naive(seq):
    w = FreeWord(seq)
    core, v = cyclic_reduce(w)
    assert core == naive_cyclic_core(w)
    assert v * core * v.inverse() == w


def test_hand_conjugacy_instance():
    # a^2 b^-1 a b a^-1 b a^-2: cyclically reduced length via the naive peel
    g = W("aaBabAbAA")
    core, _ = cyclic_reduce(g)
    assert len(core) == len(naive_cyclic_core(g))


def test_power_law_of_translation_length():
    rng = np.random.default_rng(4)
    for _ in range(200):
        g = model.sample_element(rng, 12)
        tau = model.translation_length(g)
        p = g
        for n in range(2, 6):
            p = p * g
            assert model.translation_length(p) == n * tau


def test_tree_translation_length_is_limit():
    # d(1, g^m) = m*tau + 2|conjugator| in a tree, realizing the limit
    rng = np.random.default_rng(9)
    one = model.identity()
    for _ in range(300):
        g = model.sample_element(rng, 14)
        core, v = cyclic_reduce(g)
        if core.is_identity():
            continue
        p = one
        for m in range(1, 6):
            p = p * g
            assert model.distance(one, p) == m * len(core) + 2 * len(v)


def test_random_conjugacy_instances_are_reduced_decompositions():
    rng = np.random.default_rng(17)
    for _ in range(500):
        g, v, s = random_conjugacy_instance(model, rng, core_max=3, conj_max=20)
        assert len(g) == 2 * len(v) + len(s)  # no cancellation at the seams
        assert cyclic_reduce(g) == (s, v)


def test_words_of_length_enumeration():
    assert len(words_of_length(0)) == 1
    assert len(words_of_length(1)) == 4
    assert len(words_of_length(3)) == 4 * 3 * 3
    assert all(len(w) == 3 for w in words_of_length(3))


def test_sample_word_exact_length():
    rng = np.random.default_rng(0)
    for length in (0, 1, 5, 20):
        for _ in range(50):
            assert len(model.sample_word(rng, length)) == length
