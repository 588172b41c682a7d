"""Generic coarse-geometry layer: products, shadows, predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predicate_oracles
from exact import common_prefix_len
from hypwalk import hypgeom, suites
from hypwalk.engines import ENSEMBLE_CALIBRATE
from hypwalk.errors import PreconditionError
from hypwalk.hypgeom import QuasiGeodesicParams, Shadow, gromov_product
from hypwalk.models.farey import FareyModel, R
from hypwalk.models.free import FreeGroupModel, FreeWord
from hypwalk.walk import StreamDraws

free = FreeGroupModel()
farey = FareyModel()
W = FreeWord.from_str
ONE = W("")


def _draws(seed):
    return StreamDraws(seed, ENSEMBLE_CALIBRATE)


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


def _instances(model, rng):
    """One instance of each predicate that `predicate_oracles` restates, as
    {name: (args, kwargs)}, and whether its points are pairwise distinct.
    The first two are a suite's far pair; the others are fresh elements or
    earlier points moved a little, so that shadow memberships go both ways.
    Radii and slacks are half-integers."""
    points = list(suites._SHAPES[model.name].far_pair(model, rng, int(rng.integers(0, 11))))
    while len(points) < 5:
        if rng.integers(0, 2):
            near = points[int(rng.integers(0, len(points)))]
            points.append(model.multiply(near, model.sample_element(rng, 2)))
        else:
            points.append(model.sample_element(rng, 4))
    p0, p1, p2, p3, p4 = points
    r = int(rng.integers(-2, 9)) / 2.0
    gap, slack, other = (int(rng.integers(0, 5)) / 2.0 for _ in range(3))
    centers = points[1:2 + int(rng.integers(0, 3))]
    return {
        "in_set_shadow": ((p0, centers, r, p4), {}),
        "shadow_product_bound_check": ((Shadow(p0, p1, r), p2, p3), {}),
        "verify_nested_shadow_separation": ((p0, p1, r, gap, p2, p3), {"slack": slack}),
        "verify_basepoint_change": ((p0, p1, p2, r, p3),
                                    {"product_slack": slack, "radius_slack": other}),
        "verify_shadow_complement": ((p0, p1, r, p2), {"slack": slack}),
    }, len(set(points)) == len(points)


def _outcome(predicate, model, args, kwargs):
    """The predicate's bool, or its PreconditionError message."""
    try:
        return predicate(model, *args, **kwargs)
    except PreconditionError as exc:
        return str(exc)


# every PreconditionError message of each predicate
_MESSAGES = {
    "in_set_shadow": set(),
    "shadow_product_bound_check": {"both points must lie in the shadow"},
    "verify_nested_shadow_separation": {
        "need d(x, z) >= gap + r + 2*slack", "a_pt must lie in S_z(x, r)",
        "b_pt must lie outside S_z(x, r - gap - slack)"},
    "verify_basepoint_change": {
        "need (x . y)_z <= r - product_slack", "probe must lie in S_z(x, r)"},
    "verify_shadow_complement": {"need r >= slack and d(x, z) >= r + 2*slack"},
}


def _check_against_oracles(model, instances):
    outcomes = {}
    for name, (args, kwargs) in instances.items():
        got = _outcome(getattr(hypgeom, name), model, args, kwargs)
        assert got == _outcome(getattr(predicate_oracles, name), model, args, kwargs), name
        assert type(got) is bool or got in _MESSAGES[name], (name, got)
        outcomes[name] = got
    return outcomes


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["free", "farey"]), seed=st.integers(0, 2**32 - 1))
def test_predicates_match_their_definitions(name, seed):
    model = free if name == "free" else farey
    _check_against_oracles(model, _instances(model, _draws(seed))[0])


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
def test_predicate_instances_reach_every_branch(model):
    """The instances of the test above raise every precondition message of
    each predicate and also pass every precondition; the union of shadows
    both holds and fails."""
    rng = _draws(33)
    seen = {name: set() for name in _MESSAGES}
    for _ in range(600):
        for name, got in _check_against_oracles(model, _instances(model, rng)[0]).items():
            seen[name].add(got)
    for name, messages in _MESSAGES.items():
        assert seen[name] - {True, False} == messages and seen[name] & {True, False}, name
    assert seen["in_set_shadow"] == {True, False}


class _Counting:
    """`model` with the unordered pair of every `distance` call recorded."""

    def __init__(self, model):
        self.model, self.pairs = model, []

    def __getattr__(self, attr):
        return getattr(self.model, attr)

    def distance(self, g, h):
        self.pairs.append(frozenset((g, h)))
        return self.model.distance(g, h)


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
def test_predicates_read_each_distance_once(model):
    rng = _draws(34)
    checked = 0
    while checked < 300:
        instances, distinct = _instances(model, rng)
        if not distinct:
            continue
        checked += 1
        for name, (args, kwargs) in instances.items():
            counting = _Counting(model)
            _outcome(getattr(hypgeom, name), counting, args, kwargs)
            assert counting.pairs and len(set(counting.pairs)) == len(counting.pairs), name


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
    points = _points(model, _draws(seed), n)
    dist = model.distances(points)
    assert dist.shape == (n, n)
    assert dist.tolist() == [[model.distance(p, q) for q in points] for p in points]


def test_free_distances_past_eight_bit_sizes():
    """Over 127 points, common prefixes and words over 127 letters: the
    sentinels and letters of the int32 padding and the prefix columns all
    leave an 8-bit range."""
    rng = _draws(35)
    stem = free.sample_word(rng, 300)
    points = [free.multiply(stem, free.sample_element(rng, 4)) for _ in range(150)]
    points += [free.sample_word(rng, 200) for _ in range(50)] + [ONE, stem]
    dist = free.distances(points)
    assert dist.dtype == np.int64 and dist.max() > 255
    assert dist.tolist() == [[free.distance(p, q) for q in points] for p in points]


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
    rng = _draws(17)
    outcomes = []
    for _ in range(400):
        path = _points(model, rng, int(rng.integers(1, 13)))
        outcomes.append(hypgeom.quasigeodesic_check(model, path, params))
        assert outcomes[-1] == _quasigeodesic_reference(model, path, params), path
    assert 0 < sum(outcomes) < len(outcomes)  # both answers occur


def test_estimate_delta():
    assert hypgeom.estimate_delta(free, 500, 12, _draws(1)) == 0.0
    d1 = hypgeom.estimate_delta(farey, 1500, 8, _draws(1))
    d2 = hypgeom.estimate_delta(farey, 3000, 8, _draws(2))
    assert 0.0 < d1 <= 2.0
    assert abs(d1 - d2) <= 1.0  # stable under doubling the sample budget
    with pytest.raises(ValueError):
        hypgeom.estimate_delta(free, 0, 5, _draws(1))
    with pytest.raises(ValueError):
        hypgeom.estimate_delta(free, 5, 0, _draws(1))


def test_estimate_delta_deterministic():
    a = hypgeom.estimate_delta(farey, 400, 6, _draws(7))
    b = hypgeom.estimate_delta(farey, 400, 6, _draws(7))
    assert a == b
