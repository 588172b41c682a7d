"""Sampling engine for mu-random walks on a model group.

Randomness discipline: the samples of an ensemble are split into blocks of
BLOCK_SIZE, and each block draws from one counter-based Philox stream keyed
by (master seed, ensemble, block).  Step t of the sample in row r of its
block reads the stream's 64-bit word t * BLOCK_SIZE + r (step-major), with
the same stride in a partial last block.  A sample's words therefore depend
only on its index and ensemble: neither the number of samples nor the walk
length can move them, so a run of 48 samples gives the first 48 rows of a
run of 32 768, a walk of n steps is a prefix of a walk of m > n steps, and
thread count and execution order cannot change any draw.  BLOCK_SIZE is
part of this contract: changing it moves every sample.

Each step uses one word, turned into a support index by Walker's alias
method (`StepDistribution.indices`), so arbitrary finite distributions cost
O(1) per draw.  `block_words` reads a block a step at a time (one
`random_raw` per step); `sample_words`, which `sample_walk` uses, reads one
sample's words, one step at a time, from its block's stream.  Everything
else that draws (the props suites, calibration) reads a keyed stream in
order through a `StreamDraws`.

`sample_walk` and `iterated_decomposition` are the per-sample reference
path the engines are checked against; `stats` counts the midpoint and
diagonal events on engine output, so no event predicate lives here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ElementaryDistributionError

_MASK64 = (1 << 64) - 1
MAX_SAMPLES = 1 << 48  # sample indices have 48 bits
BLOCK_SIZE = 16384  # samples per stream; a multiple of Philox's 4 words per counter


def _stream_key(seed: int, index: int, ensemble: int = 0) -> int:
    """The 128-bit Philox key (seed mod 2^64) << 64 | (ensemble << 48 | index),
    so distinct (seed, ensemble, index) triples never share a stream."""
    if not 0 <= index < MAX_SAMPLES:
        raise ValueError("stream index out of range")
    if not 0 <= ensemble < (1 << 16):
        raise ValueError("ensemble out of range")
    return ((seed & _MASK64) << 64) | (ensemble << 48) | index


def check_samples(samples: int) -> None:
    """Raise ValueError unless 1 <= samples <= MAX_SAMPLES, the number of
    sample indices."""
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [1, 2^48], got {samples}")


class _Key(ISeedSequence):
    """Hands Philox a 128-bit key as its two key words.  `Philox(key=...)`
    would first seed a SeedSequence from OS entropy, only to replace it."""

    def __init__(self, key: int):
        self.words = [key & _MASK64, key >> 64]

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=dtype)


def _philox(key: int, counter: int = 0) -> np.random.Philox:
    """The Philox stream of `key`, past its first 4 * counter words."""
    return np.random.Philox(_Key(key), counter=counter)


class StreamDraws:
    """`integers(low, high[, size])` and `runs(most, span)` served in order
    from the Philox stream of `_stream_key(seed, 0, ensemble)`: the next
    64-bit word w gives low + (w * n >> 64), n = high - low.  This
    multiply-shift rule (Lemire, ACM TOMACS 29, 2019) has no rejection
    branch; its bias is below n * 2^-64.  The buffered words are private:
    every draw goes through these two methods, so only they spell the rule.
    `runs` reads counted runs in place, one after another for as long as its
    caller iterates, so that a walk of many products takes one call.
    """

    CHUNK = 1024  # words per random_raw call

    __slots__ = ("_bitgen", "_words", "_pos")

    def __init__(self, seed: int, ensemble: int):
        self._bitgen = _philox(_stream_key(seed, 0, ensemble))
        self._words: list[int] = []
        self._pos = 0

    def _refill(self, need: int) -> None:
        """Keep the unread words and append whole chunks until `need` are left."""
        words = self._words[self._pos:]
        while len(words) < need:
            words += self._bitgen.random_raw(self.CHUNK).tolist()
        self._words, self._pos = words, 0

    def integers(self, low: int, high: int, size: int | None = None):
        low = int(low)
        n = int(high) - low
        if not 0 < n <= 1 << 64:
            raise ValueError("low >= high" if n < 1 else "span above 2^64")
        if size is None:
            pos = self._pos
            if pos == len(self._words):
                self._refill(1)
                pos = 0
            self._pos = pos + 1
            return low + (self._words[pos] * n >> 64)
        if not (type(size) is int or isinstance(size, numbers.Integral)) or size < 0:
            raise ValueError(f"size must be a non-negative integer, got {size!r}")
        if self._pos + size > len(self._words):
            self._refill(size)
        start = self._pos
        self._pos += size
        return [low + (w * n >> 64) for w in self._words[start:self._pos]]

    def runs(self, most: int, span: int):
        """Yield counted runs, each `integers(0, span, size=integers(0, most + 1))`
        value by value and then None, rereading the buffer at each run."""
        if not 0 <= most < 1 << 64 or not 0 < span <= 1 << 64:
            raise ValueError("count or span out of range")
        return self._runs(most, span)

    def _runs(self, most: int, span: int):
        while True:
            words, pos = self._words, self._pos
            if pos + most >= len(words):  # fewer than most + 1 words left
                self._refill(most + 1)
                words, pos = self._words, 0
            self._pos = end = pos + 1 + (words[pos] * (most + 1) >> 64)
            while pos + 1 < end:  # an index loop, not a slice: runs are short
                pos += 1
                yield words[pos] * span >> 64
            yield None


def sample_words(seed: int, index: int, ensemble: int, n: int) -> np.ndarray:
    """The n words of sample `index`: word t * BLOCK_SIZE + r of its block's
    stream for step t, r its row in the block."""
    block, row = divmod(index, BLOCK_SIZE)
    # word j is word j % 4 of counter block j // 4, and BLOCK_SIZE % 4 == 0
    bitgen = _philox(_stream_key(seed, block, ensemble), counter=row // 4)
    out = np.empty(n, dtype=np.uint64)
    for t in range(n):
        out[t] = bitgen.random_raw(row % 4 + 1)[-1]
        bitgen.advance(BLOCK_SIZE // 4 - 1)
    return out


def block_words(seed: int, lo: int, hi: int, ensemble: int, n: int):
    """Yield, for each step t < n, the words of samples lo..hi-1 of one
    block (lo a multiple of BLOCK_SIZE): row r of `sample_words(seed, lo + r,
    ensemble, n)[t]`, a step at a time so that a block's words are never
    held at once.  After the last step, row 0 is checked against
    `sample_words`."""
    if lo % BLOCK_SIZE or not lo < hi <= lo + BLOCK_SIZE:
        raise ValueError("lo..hi must be a span of one block")
    bitgen = _philox(_stream_key(seed, lo // BLOCK_SIZE, ensemble))
    skip = BLOCK_SIZE // 4 - (hi - lo + 3) // 4  # counters past this step's words
    first = np.empty(n, dtype=np.uint64)
    for t in range(n):
        words = bitgen.random_raw(hi - lo)
        first[t] = words[0]
        yield words
        bitgen.advance(skip)  # also drops the buffered words of a partial row
    # a numpy whose Philox buffers or advances differently fails here
    if not np.array_equal(first, sample_words(seed, lo, ensemble, n)):
        raise RuntimeError("block words disagree with the per-sample reader; "
                           "numpy's Philox random_raw/advance has changed")


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)) * 2.0 ** -53


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


@dataclass(frozen=True, eq=False)
class StepDistribution:
    """Finite-support step law: elements with strictly positive weights
    summing to 1 (within 1e-12).  Equality and hashing are by identity."""

    support: tuple
    weights: np.ndarray
    _alias: np.ndarray = field(repr=False, default=None)
    _threshold: np.ndarray = field(repr=False, default=None)  # None: every column keeps

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
        threshold = None
        if (prob < 1.0).any():
            threshold = np.ceil(prob * 2.0 ** (64 - len(support).bit_length())).astype(np.uint64)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_alias", alias)
        object.__setattr__(self, "_threshold", threshold)

    def indices(self, words: np.ndarray) -> np.ndarray:
        """The support index each 64-bit word (a uint64 array) draws.

        With s = size.bit_length() and x = (w >> s) * size (below 2^64),
        the alias column is x >> (64 - s), and the column is kept iff x's
        low 64 - s bits are below ceil(prob[column] * 2^(64 - s)), else its
        alias is taken.  When every column keeps with probability 1 the
        comparison always holds and is skipped.
        """
        size = len(self.support)
        s = size.bit_length()
        x = words >> np.uint64(s)
        x *= np.uint64(size)
        col = (x >> np.uint64(64 - s)).astype(np.intp)
        if self._threshold is None:
            return col
        keep = (x & np.uint64((1 << (64 - s)) - 1)) < self._threshold[col]
        return np.where(keep, col, self._alias[col])

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
    """Sample `stream` of `ensemble`: one walk of n i.i.d. steps, equal to
    row `stream` of every engine run with this seed and ensemble."""
    if n < 0:
        raise ValueError("n must be >= 0")
    idx = dist.indices(sample_words(seed, stream, ensemble, n))
    steps = [dist.support[i] for i in idx.tolist()]
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
