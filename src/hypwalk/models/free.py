"""Free group F2 acting on its Cayley tree.

Elements are freely reduced words over {a, b, a^-1, b^-1}, encoded as
tuples of nonzero ints: a=1, b=2, inverses negated.  The word metric is
the tree metric, so this model is exactly 0-hyperbolic and every
coarse-geometry statement can be checked with no additive error.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

_LETTER_TO_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}
_CHAR_TO_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}

GENERATOR_LETTERS = (1, -1, 2, -2)


# _FOLLOWERS[x][k]: the k-th letter of GENERATOR_LETTERS that does not cancel x
_FOLLOWERS = {x: tuple(y for y in GENERATOR_LETTERS if y != -x) for x in GENERATOR_LETTERS}


def random_reduced_letters(rng, length: int, last: int | None = None) -> list[int]:
    """`length` letters of a uniform non-backtracking walk after the letter
    `last` (None: from the identity).

    A walk from the identity draws its first letter with one scalar
    `rng.integers(0, 4)`; every further letter is one of the three that do
    not cancel its predecessor, all drawn by one `rng.integers(0, 3,
    size=...)`, which reads the same words as one scalar call per letter.
    """
    letters: list[int] = []
    if length <= 0:
        return letters
    if last is None:
        last = GENERATOR_LETTERS[int(rng.integers(0, 4))]
        letters.append(last)
        length -= 1
    if length:
        for k in rng.integers(0, 3, size=length):
            last = _FOLLOWERS[last][k]
            letters.append(last)
    return letters


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class FreeWord:
    """A freely reduced word; immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = (), *, _reduced: bool = False):
        seq = tuple(letters)
        if not _reduced:
            if any(x not in (1, -1, 2, -2) for x in seq):
                raise ValueError(f"invalid letters in {seq!r}")
            seq = reduce_letters(seq)
        object.__setattr__(self, "letters", seq)

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def from_str(cls, text: str) -> "FreeWord":
        """Parse the canonical form: a string over a, b, A, B ("" or "1" = identity)."""
        if text in ("", "1"):
            return cls()
        try:
            return cls(_CHAR_TO_LETTER[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"invalid word character {exc.args[0]!r} in {text!r}") from None

    def to_str(self) -> str:
        return "".join(_LETTER_TO_CHAR[x] for x in self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        u, v = self.letters, other.letters
        i, j = len(u), 0
        while i > 0 and j < len(v) and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return FreeWord(u[:i] + v[j:], _reduced=True)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(-x for x in reversed(self.letters)), _reduced=True)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self.to_str()!r})"

    def is_identity(self) -> bool:
        return not self.letters


def common_prefix_len(u: FreeWord, v: FreeWord) -> int:
    a, b = u.letters, v.letters
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split w = v * core * v^-1 with core cyclically reduced.

    Returns (core, v); v is the shortest conjugator taking the core to w.
    """
    seq = w.letters
    i, j = 0, len(seq)
    while j - i >= 2 and seq[i] == -seq[j - 1]:
        i += 1
        j -= 1
    return (
        FreeWord(seq[i:j], _reduced=True),
        FreeWord(seq[:i], _reduced=True),
    )


class FreeGroupModel:
    """F2 with the word metric on its Cayley tree (delta = 0)."""

    name = "free"
    delta = 0.0

    def identity(self) -> FreeWord:
        return FreeWord()

    def multiply(self, g: FreeWord, h: FreeWord) -> FreeWord:
        return g * h

    def invert(self, g: FreeWord) -> FreeWord:
        return g.inverse()

    def distance(self, g: FreeWord, h: FreeWord) -> int:
        # d(g, h) = |g^-1 h| = |g| + |h| - 2 * common_prefix(g, h)
        return len(g) + len(h) - 2 * common_prefix_len(g, h)

    def distances(self, points: Sequence[FreeWord]) -> np.ndarray:
        """`distance` over every pair of `points`, as an int64 matrix.

        The words are padded into the rows of one integer array, each row
        ending in a sentinel column unique to it, so two rows differ by
        their shorter word's end at the latest.  The first column where two
        rows differ (`argmax`) is the words' common prefix length, the full
        length for equal words.  Memory is n^2 times the longest word.
        """
        lengths = np.array([len(p) for p in points], dtype=np.int64)
        n = len(points)
        padded = np.zeros((n, int(lengths.max(initial=0)) + 1), dtype=np.int64)
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = list(
            chain.from_iterable(p.letters for p in points))
        padded[np.arange(n), lengths] = np.arange(3, n + 3)  # letters are +-1, +-2
        prefix = (padded[:, None, :] != padded[None, :, :]).argmax(axis=2)
        dist = lengths[:, None] + lengths[None, :] - 2 * prefix
        np.fill_diagonal(dist, 0)
        return dist

    def parse(self, text: str) -> FreeWord:
        return FreeWord.from_str(text)

    def format(self, g: FreeWord) -> str:
        return g.to_str()

    def translation_length(self, g: FreeWord) -> float:
        """Exact: the length of the cyclic reduction."""
        core, _ = cyclic_reduce(g)
        return float(len(core))

    def sample_element(self, rng, radius: int) -> FreeWord:
        """A random reduced word of random length in [0, radius]."""
        if radius < 1:
            raise ValueError("radius must be >= 1")
        length = int(rng.integers(0, radius + 1))
        return self.sample_word(rng, length)

    def sample_word(self, rng, length: int) -> FreeWord:
        """A uniformly random reduced word of exactly the given length, drawn
        in at most two RNG calls (`random_reduced_letters`)."""
        return FreeWord(random_reduced_letters(rng, length), _reduced=True)


def random_conjugacy_instance(model: FreeGroupModel, rng, core_max: int, conj_max: int):
    """Sample (g, v, s) with g = v s v^-1 reduced as written, s cyclically
    reduced of length 1..core_max and v of length 0..conj_max, so that v is
    the shortest conjugator of g onto its cyclic core."""
    while True:
        s = model.sample_word(rng, int(rng.integers(1, core_max + 1)))
        if s.letters[0] == -s.letters[-1] and len(s) >= 2:
            continue  # not cyclically reduced
        vlen = int(rng.integers(0, conj_max + 1))
        v = model.sample_word(rng, vlen)
        if vlen and len(s):
            last = v.letters[-1]
            # no cancellation at either seam of v s v^-1
            if last == -s.letters[0] or last == s.letters[-1]:
                continue
        g = model.multiply(model.multiply(v, s), model.invert(v))
        return g, v, s

