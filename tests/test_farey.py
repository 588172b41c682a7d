"""Farey model: slope arithmetic, the distance algorithm against the BFS
oracle, trace classification, and translation length (the exact value
against the horizon estimate and its algebraic properties)."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwalk.engines import ENSEMBLE_PROPS
from hypwalk.models.farey import (
    IDENTITY,
    INFINITY,
    L,
    R,
    FareyElement,
    FareyModel,
    Slope,
    bounded_bfs_distances,
    dist_to_infinity,
    mobius_to_infinity,
    slope_distance,
    translation_length,
    translation_length_detail,
)
from hypwalk.walk import StreamDraws

model = FareyModel()


def test_slope_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(3, -6) == Slope(-1, 2)
    assert Slope(5, 0) == INFINITY


def test_matrix_basics():
    assert (R * L).entries() == (2, 1, 1, 1)
    assert FareyElement(2, 1, 1, 1).inverse().entries() == (1, -1, -1, 2)
    assert (R * R.inverse()) == IDENTITY
    with pytest.raises(ValueError):
        FareyElement(1, 0, 0, 2)
    assert FareyElement.from_str("[[1,1],[0,1]]") == R
    assert FareyElement.from_str(" [[ 1 , 0 ],[ 1 , 1 ]] ") == L
    with pytest.raises(ValueError):
        FareyElement.from_str("[[1,1],[0]]")


def test_action_and_improper_metric():
    assert L.apply(INFINITY) == Slope(1, 1)
    assert R.apply(INFINITY) == INFINITY
    one = model.identity()
    assert model.distance(one, L) == 1
    assert model.distance(one, R) == 0  # improper: R fixes the basepoint
    g = R * L * R
    h = L * R
    assert model.distance(g, h) == model.distance(one, g.inverse() * h)


def test_adjacency_and_small_distances():
    assert slope_distance(Slope(1, 0), Slope(0, 1)) == 1
    assert slope_distance(Slope(1, 0), Slope(1, 1)) == 1
    # the documented geodesic infinity, 0/1, 1/2, 2/5
    assert slope_distance(Slope(1, 0), Slope(2, 5)) == 3
    assert slope_distance(Slope(2, 5), Slope(2, 5)) == 0
    assert dist_to_infinity(7, 1) == 1
    assert dist_to_infinity(1, 7) == 2  # 1/7 - 0 - infinity


def test_translation_invariance_of_distance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = int(rng.integers(1, 80))
        p = int(rng.integers(-200, 200))
        if math.gcd(abs(p), q) != 1:
            continue
        assert dist_to_infinity(p, q) == dist_to_infinity(p + q, q)
        assert dist_to_infinity(p, q) == dist_to_infinity(-p, q)


def test_mobius_normalizer():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = Slope(int(rng.integers(-50, 51)), int(rng.integers(0, 40)))
        g = mobius_to_infinity(s)
        assert g.apply(s) == INFINITY


def test_distance_matches_bfs_oracle_small():
    oracle = bounded_bfs_distances(q_max=24, value_bound=4)
    checked = 0
    for q in range(1, 25):
        for p in range(0, q):
            if math.gcd(p, q) != 1:
                continue
            s = Slope(p, q)
            assert slope_distance(INFINITY, s) == oracle[s], s
            checked += 1
    assert checked > 100


def test_metric_axioms_on_slopes():
    rng = np.random.default_rng(4)
    slopes = [Slope(int(rng.integers(-40, 41)), int(rng.integers(0, 30)))
              for _ in range(60)]
    for _ in range(300):
        u, v, w = (slopes[int(i)] for i in rng.integers(0, len(slopes), 3))
        duv = slope_distance(u, v)
        assert duv == slope_distance(v, u)
        assert duv <= slope_distance(u, w) + slope_distance(w, v)
        assert (duv == 0) == (u == v)


def test_translation_length_parabolic_and_anosov():
    res = translation_length_detail(R, 64)
    assert res.value == 0.0 and res.stabilized
    res = translation_length_detail(FareyElement(2, 1, 1, 1), 64)
    assert res.value == 1.0 and res.stabilized
    with pytest.raises(ValueError):
        translation_length_detail(R, 0)


def test_translation_length_powers_against_oracle():
    # d(1, M^m) for M = [[2,1],[1,1]] checked against the BFS oracle while
    # the denominators stay inside the oracle's range
    oracle = bounded_bfs_distances(q_max=64, value_bound=4)
    m = IDENTITY
    g = FareyElement(2, 1, 1, 1)
    for power in range(1, 6):
        m = m * g
        s = Slope(m.a, m.c)
        if s in oracle:
            assert oracle[s] == power
    det = translation_length_detail(g, 64)
    assert det.increments[-8:] == (1,) * 8


def test_anosov_iff_positive_translation_length():
    rng = StreamDraws(5, ENSEMBLE_PROPS)
    for _ in range(60):
        g = model.sample_element(rng, 10)
        det = translation_length_detail(g, 48)
        if not det.stabilized:
            continue
        assert (det.value > 0) == (abs(g.trace()) > 2), g


S = FareyElement(0, -1, 1, 0)
NEG = FareyElement(-1, 0, 0, -1)
CAT = FareyElement(2, 1, 1, 1)
# products of up to 14 generators, S included (odd periods, negative traces)
elements = st.lists(st.sampled_from([R, L, R.inverse(), L.inverse(), S]), max_size=14).map(
    lambda gens: reduce(FareyElement.__mul__, gens, IDENTITY))


@settings(max_examples=200, deadline=None)
@given(elements)
@example(S)
@example(CAT)
@example(NEG * CAT)
@example(R * R * R * L)
def test_exact_translation_length_matches_horizon_estimate(g):
    tau = translation_length(g)
    det = translation_length_detail(g, 256)
    if det.stabilized:
        assert tau == det.value
    else:  # only an elliptic element's increments cycle for ever
        assert abs(g.trace()) < 2 and tau == 0.0


@settings(max_examples=200, deadline=None)
@given(elements, elements, st.integers(2, 4))
@example(S, IDENTITY, 2)
@example(CAT, S, 3)
def test_exact_translation_length_properties(g, h, k):
    tau = translation_length(g)
    assert (tau > 0) == (abs(g.trace()) > 2)
    assert translation_length(reduce(FareyElement.__mul__, [g] * k)) == k * tau
    assert translation_length(h * g * h.inverse()) == tau
    assert translation_length(g.inverse()) == tau
    assert translation_length(NEG * g) == tau
    assert model.translation_length(g) == tau


# products of up to 6 powers R^k, L^k (|k| < 2^40) and S: entries run far past 2^63
wide_elements = st.lists(
    st.one_of(st.integers(-2**40, 2**40).map(lambda k: FareyElement(1, k, 0, 1)),
              st.integers(-2**40, 2**40).map(lambda k: FareyElement(1, 0, k, 1)),
              st.just(S)),
    max_size=6,
).map(lambda gens: reduce(FareyElement.__mul__, gens, IDENTITY))
BIG = FareyElement(1, 0, 2**70, 1) * FareyElement(1, 3**50, 0, 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(elements, wide_elements), st.one_of(elements, wide_elements))
@example(IDENTITY, R)  # the improper zero d(1, R) = 0
@example(BIG, BIG * R)
@example(BIG, CAT * BIG.inverse())
def test_model_distance_is_the_slope_distance(g, h):
    assert model.distance(g, h) == slope_distance(g.apply(INFINITY), h.apply(INFINITY))


def test_exact_translation_length_known_values():
    assert translation_length(S) == 0.0
    assert translation_length(R) == 0.0
    assert translation_length(IDENTITY) == translation_length(NEG) == 0.0
    assert translation_length(CAT) == 1.0
    assert translation_length(R * R * L * L) == 2.0


def test_determinant_preserved_under_long_products():
    rng = StreamDraws(8, ENSEMBLE_PROPS)
    g = IDENTITY
    for _ in range(300):
        g = g * model.sample_element(rng, 1)
    assert g.a * g.d - g.b * g.c == 1  # exact at arbitrary precision
