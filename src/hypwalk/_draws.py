"""Bounded integer draws served from a generator's 32-bit words, read in bulk.

numpy fills `Generator.integers(low, high)` and `integers(low, high, size=k)`
(int64, spans up to 2^32) from the bit generator's 32-bit word stream
(`next_uint32`), one word per value by Lemire's rule: with n = high - low,
m = word * n gives the value low + (m >> 32), unless the low 32 bits of m
fall below (2^32 - n) % n, and then the next word is tried (Lemire, "Fast
random integer generation in an interval", ACM TOMACS 29, 2019).  A span of
1 takes no word.

`WordDraws` pulls that word stream CHUNK words at a time through one
`integers(0, 2**32, size=CHUNK, dtype=np.uint32)` call, which reads the same
`next_uint32` stream, and applies the rule in Python ints.  The values match
numpy's call for call at a fraction of the cost of one numpy call per draw.
The wrapped generator is read ahead, so its state no longer follows the
draws served: wrap only a generator that nothing else reads.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1024
_WORD = 1 << 32
_LOW = _WORD - 1


class WordDraws:
    """`integers(low, high[, size])` of the wrapped `np.random.Generator`,
    value for value, as Python ints (a list for `size=`)."""

    __slots__ = ("_rng", "_words", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words: list[int] = []
        self._pos = 0

    def _refill(self, need: int) -> None:
        """Keep the unread words and append whole chunks until `need` are left."""
        words = self._words[self._pos:]
        while len(words) < need:
            words += self._rng.integers(0, _WORD, size=CHUNK, dtype=np.uint32).tolist()
        self._words, self._pos = words, 0

    def _bounded(self, n: int) -> int:
        """One value in [0, n) by Lemire's rule, 1 < n <= 2^32."""
        while True:
            if self._pos == len(self._words):
                self._refill(1)
            m = self._words[self._pos] * n
            self._pos += 1
            # (2^32 - n) % n < n, so most words skip the modulo
            if m & _LOW >= n or m & _LOW >= (_WORD - n) % n:
                return m >> 32

    def integers(self, low: int, high: int, size: int | None = None):
        low = int(low)
        n = int(high) - low
        if not 0 < n <= _WORD:
            raise ValueError("low >= high" if n < 1
                             else "span above 2^32: numpy draws 64-bit words there")
        if size is None:
            # the common case of `_bounded`, inlined: a buffered word accepted at once
            pos = self._pos
            if n > 1 and pos < len(self._words):
                m = self._words[pos] * n
                if m & _LOW >= n:
                    self._pos = pos + 1
                    return low + (m >> 32)
            return low if n == 1 else low + self._bounded(n)
        if size < 0:
            raise ValueError("negative size")
        if n == 1 or size == 0:
            return [low] * size
        if self._pos + size > len(self._words):
            self._refill(size)
        start = self._pos
        ms = [w * n for w in self._words[start:start + size]]
        threshold = (_WORD - n) % n
        if threshold and min([m & _LOW for m in ms]) < threshold:
            # a word is rejected: the values shift onto later words
            return [low + self._bounded(n) for _ in range(size)]
        self._pos = start + size
        return [low + (m >> 32) for m in ms]
