"""Sampling engine for mu-random walks on a model group.

Randomness discipline: every sample index gets its own counter-based
Philox stream derived from (master seed, ensemble, sample index), so
parallel or reordered execution cannot change any draw, and a rerun with
the same seed is bit-identical.  Step indices are drawn with Walker's
alias method (a column index and a uniform per step) so arbitrary finite
distributions cost O(1) per draw.

`stream_generator` and `StepDistribution.draw_indices` are the reference
path, one `Generator` per sample.  The batch engines draw the same indices
in bulk from the streams' raw 64-bit words (`engines._draw_index_block`)
and recheck them against this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import ElementaryDistributionError, PreconditionError
from .hypgeom import gromov_product

_MASK64 = (1 << 64) - 1


def _stream_key(seed: int, sample_index: int, ensemble: int = 0) -> int:
    """The 128-bit Philox key (seed mod 2^64) << 64 | (ensemble << 48 | index),
    so distinct (seed, ensemble, index) triples never share a stream."""
    if not 0 <= sample_index < (1 << 48):
        raise ValueError("sample_index out of range")
    if not 0 <= ensemble < (1 << 16):
        raise ValueError("ensemble out of range")
    return ((seed & _MASK64) << 64) | (ensemble << 48) | sample_index


def stream_generator(seed: int, sample_index: int, ensemble: int = 0) -> np.random.Generator:
    """Independent Philox stream for one sample of one ensemble, keyed by
    `_stream_key`."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, sample_index, ensemble)))


def _build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(weights)
    prob = weights * n
    alias = np.zeros(n, dtype=np.int64)
    small = [i for i in range(n) if prob[i] < 1.0]
    large = [i for i in range(n) if prob[i] >= 1.0]
    prob = prob.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        alias[s] = l
        prob[l] = prob[l] - (1.0 - prob[s])
        (small if prob[l] < 1.0 else large).append(l)
    for i in large + small:  # float leftovers
        prob[i] = 1.0
    return prob, alias


@dataclass(frozen=True)
class StepDistribution:
    """Finite-support step law: elements with strictly positive weights
    summing to 1 (within 1e-12)."""

    support: tuple
    weights: np.ndarray
    _prob: np.ndarray = field(repr=False, default=None)
    _alias: np.ndarray = field(repr=False, default=None)

    def __init__(self, support: Sequence, weights: Sequence[float]):
        support = tuple(support)
        weights = np.asarray(weights, dtype=np.float64)
        if len(support) == 0:
            raise ValueError("support must be non-empty")
        if len(support) != len(weights):
            raise ValueError("support and weights must have equal length")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if len(set(support)) != len(support):
            raise ValueError("support elements must be distinct")
        prob, alias = _build_alias_table(weights)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_prob", prob)
        object.__setattr__(self, "_alias", alias)

    def draw_indices(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n support indices from the given stream (alias method)."""
        k = gen.integers(0, len(self.support), size=n)
        u = gen.random(n)
        return np.where(u < self._prob[k], k, self._alias[k])

    def size(self) -> int:
        return len(self.support)


def reflected(dist: StepDistribution) -> StepDistribution:
    """The reflected law: the same weights on the inverted support."""
    return StepDistribution(tuple(g.inverse() for g in dist.support), dist.weights)


class WalkSample:
    """One seeded realization: steps s_1..s_n, locations w_i = s_1...s_i
    with w_0 = identity, and cached distances d(1, w_i)."""

    __slots__ = ("model", "seed", "stream", "steps", "locations", "_distances")

    def __init__(self, model, seed: int, stream: int, steps: Sequence):
        self.model = model
        self.seed = seed
        self.stream = stream
        self.steps = tuple(steps)
        locs = [model.identity()]
        for s in self.steps:
            locs.append(model.multiply(locs[-1], s))
        self.locations = tuple(locs)
        self._distances = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def distances(self) -> np.ndarray:
        """d(1, w_i) for i = 0..n (computed on first access)."""
        if self._distances is None:
            one = self.model.identity()
            self._distances = np.array(
                [self.model.distance(one, w) for w in self.locations], dtype=np.float64
            )
        return self._distances


def sample_walk(model, dist: StepDistribution, n: int, seed: int,
                stream: int = 0, ensemble: int = 0) -> WalkSample:
    """Sample one walk of n i.i.d. steps; identical arguments give an
    identical sample."""
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = stream_generator(seed, stream, ensemble)
    idx = dist.draw_indices(gen, n)
    steps = [dist.support[int(i)] for i in idx]
    return WalkSample(model, seed, stream, steps)


@dataclass(frozen=True)
class IteratedDecomposition:
    """Per-step decomposition X_i = Y_i - Z_i of the k-iterated walk:
    Y_i is the length of the i-th k-step segment, X_i the change in
    distance from the origin, and Z_i = 2 (1 . w_i^k)_{w_{i-1}^k} >= 0 the
    backtracking.  sum(X) telescopes to d(1, w_{k*len}) exactly."""

    k: int
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


def iterated_decomposition(model, w: WalkSample, k: int) -> IteratedDecomposition:
    if k < 1:
        raise ValueError("k must be >= 1")
    n_iter = len(w) // k
    d = w.distances
    X = np.array([d[i * k] - d[(i - 1) * k] for i in range(1, n_iter + 1)])
    Y = np.array(
        [
            float(model.distance(w.locations[(i - 1) * k], w.locations[i * k]))
            for i in range(1, n_iter + 1)
        ]
    )
    return IteratedDecomposition(k=k, X=X, Y=Y, Z=Y - X)


def midpoint_shadow_event(model, w: WalkSample) -> bool:
    """True iff (w_n . w_2n)_1 >= d(1, w_n)/2 for a walk of even length 2n."""
    if len(w) % 2 != 0:
        raise PreconditionError("walk length must be even")
    n = len(w) // 2
    one = model.identity()
    mid, end = w.locations[n], w.locations[2 * n]
    return gromov_product(model, one, mid, end) >= 0.5 * model.distance(one, mid)


def diagonal_shadow_event(model, v_walk: WalkSample, w_walk: WalkSample, r: float) -> bool:
    """True iff (v_n . w_n)_1 >= r - 2*delta: the implementable consequence
    of the pair (v_n, w_n) lying in the r-shadow of the diagonal."""
    if len(v_walk) != len(w_walk):
        raise PreconditionError("walks must have equal length")
    one = model.identity()
    return (
        gromov_product(model, one, v_walk.locations[-1], w_walk.locations[-1])
        >= r - 2.0 * model.delta
    )


_SEARCH_LENGTH, _SEARCH_CAP = 6, 4096  # longest product and most products searched


def _products(model, dist: StepDistribution):
    """Products of the support, breadth first by length 1.._SEARCH_LENGTH."""
    frontier = [model.identity()]
    for _ in range(_SEARCH_LENGTH):
        layer = []
        for g in frontier:
            for s in dist.support:
                layer.append(model.multiply(g, s))
                yield layer[-1]
        frontier = layer


def find_independent_loxodromics(model, dist: StepDistribution):
    """The first loxodromic among the first _SEARCH_CAP products of the
    support and the first later one with another axis, or None.

    Loxodromic means positive translation length.  Two loxodromics share an
    axis iff gh = +-hg, and gh = -hg cannot hold: it would give
    tr h = tr(-g^-1 h g) = -tr h, so tr h = 0.  Commuting is transitive
    among loxodromics (a centralizer in F2 is cyclic, that of a hyperbolic
    element of SL(2,Z) abelian): if the first commutes with every later
    one, all commute pairwise.  So testing each product against the
    first finds the pair a scan of all pairs i < j would find first.
    """
    first = None
    for h in islice(_products(model, dist), _SEARCH_CAP):
        if model.translation_length(h) > 0:
            if first is None:
                first = h
            elif model.multiply(first, h) != model.multiply(h, first):
                return first, h
    return None


def assert_nonelementary(model, dist: StepDistribution) -> None:
    """Abort decay experiments whose step law generates an elementary
    subgroup (no pair of independent loxodromics among short products)."""
    if find_independent_loxodromics(model, dist) is None:
        raise ElementaryDistributionError(
            "support generates an elementary subgroup: no pair of "
            f"independent loxodromic elements among products of length <= {_SEARCH_LENGTH}"
        )


def walk_csv_rows(model, walks: Sequence[WalkSample]):
    """Yield (sample_id, i, step, d(1, w_i)) rows for CSV export."""
    for sample_id, w in enumerate(walks):
        d = w.distances
        for i, step in enumerate(w.steps, start=1):
            yield (sample_id, i, model.format(step), d[i])
