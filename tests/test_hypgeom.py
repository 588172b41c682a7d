"""Generic coarse-geometry layer: products, shadows, predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk import hypgeom
from hypwalk.errors import PreconditionError
from hypwalk.hypgeom import QuasiGeodesicParams, Shadow, gromov_product
from hypwalk.models.farey import FareyModel, R
from hypwalk.models.free import FreeGroupModel, FreeWord, common_prefix_len

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str
ONE = W("")


def test_gromov_product_examples():
    assert gromov_product(free, ONE, W("aab"), W("aaba")) == 3.0
    assert gromov_product(free, ONE, W("aab"), W("aab")) == 3.0
    i = farey.identity()
    assert gromov_product(farey, i, R, R * R) == 0.0


def test_gromov_product_tree_oracle():
    # independent characterization: product based anywhere = common prefix
    # after translating the viewpoint to the root
    rng = np.random.default_rng(1)
    for _ in range(500):
        z, x, y = (free.sample_element(rng, 15) for _ in range(3))
        zi = free.invert(z)
        oracle = common_prefix_len(free.multiply(zi, x), free.multiply(zi, y))
        assert gromov_product(free, z, x, y) == oracle


def test_shadow_membership_examples():
    s = Shadow(ONE, W("aaaaa"), 3)
    assert hypgeom.in_shadow(free, s, W("aaab"))
    assert not hypgeom.in_shadow(free, s, W("bbbb"))
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = free.sample_element(rng, 10)
        assert hypgeom.in_shadow(free, Shadow(ONE, W("ab"), -1.0), y)


def test_product_bound_example_and_precondition():
    s = Shadow(ONE, W("aaaaa"), 3)
    assert hypgeom.shadow_product_bound_check(free, s, W("aaab"), W("aaaa"))
    s0 = Shadow(ONE, W("aaaaa"), 0)
    assert hypgeom.shadow_product_bound_check(free, s0, W("b"), W("ba"))
    with pytest.raises(PreconditionError):
        hypgeom.shadow_product_bound_check(free, s, W("b"), W("aaaa"))


def test_metric_nest_examples():
    assert hypgeom.verify_metric_nest(free, [W("aaaaaa")], 4, 1, W("aaab"))
    # D = 0 reduces to plain membership
    assert hypgeom.verify_metric_nest(free, [W("aaaaaa")], 4, 0, W("aaaa"))
    assert not hypgeom.verify_metric_nest(free, [W("aaaaaa")], 4, 0, W("ab"))


def test_nested_shadow_separation_example():
    ok = hypgeom.verify_nested_shadow_separation(
        free, ONE, W("a" * 10), r=6, gap=2, a_pt=W("a" * 7), b_pt=W("a" * 3),
        slack=0.0,
    )
    assert ok
    # degenerate gap 0 is vacuous for any admissible pair
    assert hypgeom.verify_nested_shadow_separation(
        free, ONE, W("a" * 10), r=6, gap=0, a_pt=W("a" * 7), b_pt=W("b"),
        slack=0.0,
    )
    with pytest.raises(PreconditionError):
        hypgeom.verify_nested_shadow_separation(
            free, ONE, W("a" * 3), r=6, gap=2, a_pt=W("a" * 3), b_pt=W("b"),
        )


def test_basepoint_change_example():
    assert hypgeom.verify_basepoint_change(
        free, x=W("a" * 10), y=W("aa"), z=ONE, r=8, probe=W("a" * 9),
    )
    # y = z: radius parameter reduces to r - radius_slack
    assert hypgeom.verify_basepoint_change(
        free, x=W("a" * 10), y=ONE, z=ONE, r=8, probe=W("a" * 9),
        radius_slack=0.0,
    )


def test_shadow_complement_example():
    assert hypgeom.verify_shadow_complement(
        free, x=W("a" * 10), z=ONE, r=4, probe=W("a" * 3), slack=0.0,
    )
    # the two inclusions sandwich the threshold: probes on both sides agree
    assert hypgeom.verify_shadow_complement(
        free, x=W("a" * 10), z=ONE, r=4, probe=W("a" * 8), slack=0.5,
    )
    with pytest.raises(PreconditionError):
        hypgeom.verify_shadow_complement(free, x=W("a"), z=ONE, r=4, probe=ONE)


def test_shadow_composition_examples():
    centers = [W("a" * 8)]
    probe = W("aaab")  # product 3 against a member of the 5-shadow
    assert hypgeom.shadow_composition_check(free, centers, s=5, r=3, probe=probe)
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = free.sample_element(rng, 10)
        assert hypgeom.shadow_composition_check(free, centers, s=5, r=-1, probe=y)


def test_quasigeodesic_check():
    params = QuasiGeodesicParams(1.0, 0.0)
    path = [W("a" * i) for i in range(6)]
    assert hypgeom.quasigeodesic_check(free, path, params)
    back_forth = [ONE, W("a"), ONE, W("a"), ONE]
    assert not hypgeom.quasigeodesic_check(free, back_forth, params)
    assert hypgeom.quasigeodesic_check(free, back_forth, QuasiGeodesicParams(1.0, 4.0))
    with pytest.raises(PreconditionError):
        hypgeom.quasigeodesic_check(free, [], params)
    with pytest.raises(ValueError):
        QuasiGeodesicParams(0.5, 0.0)
    with pytest.raises(ValueError):
        QuasiGeodesicParams(1.0, -1.0)


def _points(model, rng, n):
    """n points, mostly one generator apart (a walk that may backtrack),
    with jumps, returns to the identity and repeats of earlier points."""
    points = [model.sample_element(rng, 3)]
    while len(points) < n:
        kind = int(rng.integers(0, 8))
        if kind == 0:
            points.append(model.identity())
        elif kind == 1:
            points.append(points[int(rng.integers(0, len(points)))])
        elif kind == 2:
            points.append(model.sample_element(rng, 6))
        else:
            points.append(model.multiply(points[-1], model.sample_element(rng, 1)))
    return points


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["free", "farey"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 16))
def test_distances_match_pairwise_distance(name, seed, n):
    model = free if name == "free" else farey
    points = _points(model, np.random.default_rng(seed), n)
    dist = model.distances(points)
    assert dist.shape == (n, n)
    assert dist.tolist() == [[model.distance(p, q) for q in points] for p in points]


def _quasigeodesic_reference(model, path, params):
    """The pair-by-pair check: running times, then every pair i < j."""
    times = [0.0]
    for prev, cur in zip(path, path[1:]):
        times.append(times[-1] + model.distance(prev, cur))
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            span = times[j] - times[i]
            d = model.distance(path[i], path[j])
            if d > params.K * span + params.c or d < span / params.K - params.c:
                return False
    return True


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
@pytest.mark.parametrize("K,c", [(1.0, 0.0), (1.0, 4.0), (2.0, 1.0)])
def test_quasigeodesic_check_matches_pairwise_reference(model, K, c):
    params = QuasiGeodesicParams(K, c)
    rng = np.random.default_rng(17)
    outcomes = []
    for _ in range(400):
        path = _points(model, rng, int(rng.integers(1, 13)))
        outcomes.append(hypgeom.quasigeodesic_check(model, path, params))
        assert outcomes[-1] == _quasigeodesic_reference(model, path, params), path
    assert 0 < sum(outcomes) < len(outcomes)  # both answers occur


def test_estimate_delta():
    assert hypgeom.estimate_delta(free, 500, 12, seed=1) == 0.0
    d1 = hypgeom.estimate_delta(farey, 1500, 8, seed=1)
    d2 = hypgeom.estimate_delta(farey, 3000, 8, seed=2)
    assert 0.0 < d1 <= 2.0
    assert abs(d1 - d2) <= 1.0  # stable under doubling the sample budget
    with pytest.raises(ValueError):
        hypgeom.estimate_delta(free, 0, 5, seed=1)
    with pytest.raises(ValueError):
        hypgeom.estimate_delta(free, 5, 0, seed=1)


def test_estimate_delta_deterministic():
    a = hypgeom.estimate_delta(farey, 400, 6, seed=7)
    b = hypgeom.estimate_delta(farey, 400, 6, seed=7)
    assert a == b
