"""A fixed pure-Python reference loop: the speed of the machine, right now.

The benchmark's host is a shared VM whose speed drifts: the same batch of
experiments took from 2.6 s to 4.7 s within twelve minutes, in phases lasting
from seconds to minutes, with CPU time tracking wall time (no steal time is
recorded).  A run of 30 s can sit inside one slow phase, so no choice among
the run's own batches makes raw wall time steady across runs.  child.py
therefore times this loop before the first experiment of a batch and after
each one, and reports each experiment's wall time divided by the mean of the
two reference times around it.  The loop does what the interpreter does for
hypwalk (small-int arithmetic, tuple-keyed dict updates, bigint products,
method calls on small objects, one-at-a-time numpy draws) and calls nothing
of hypwalk, so a change to the program moves only the
numerator.  The garbage collector is paused while it runs, so the heap an
experiment leaves behind (the Farey memo, say) does not slow it.
"""

from __future__ import annotations

import gc
import time


def _ints() -> int:
    s = 0
    for i in range(125_000):
        s += (i * 7) % 13
    return s


def _dict() -> int:
    # at most 8 * 1021 keys, so the loop adds little to the batch's peak RSS
    d: dict = {}
    for i in range(25_000):
        k = (i * 2654435761) % 1021
        d[(k, i & 7)] = d.get((k - 1, i & 7), 0) + 1
    return len(d)


def _bigint() -> int:
    # products of SL(2,Z)-like matrices whose entries grow to a few hundred bits
    a, b, c, d = 1, 0, 0, 1
    for i in range(24_000):
        if i % 400 == 0:
            a, b, c, d = 1, 0, 0, 1
        a, b, c, d = a + 2 * b, b, c + 2 * d, d
        a, b, c, d = a, a + b, c, c + d
    return a.bit_length()


class _Word:
    """A free reduced word as a tuple of signed letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple):
        self.letters = letters

    def mul(self, other: "_Word") -> "_Word":
        a, b = self.letters, other.letters
        k = 0
        while k < len(a) and k < len(b) and a[-1 - k] == -b[k]:
            k += 1
        return _Word(a[:len(a) - k] + b[k:])


def _objects() -> int:
    gens = [_Word((x,)) for x in (1, -1, 2, -2)]
    w, total = _Word(()), 0
    for i in range(15_000):
        w = w.mul(gens[(i * i + i // 3) % 4])
        if len(w.letters) > 60:
            total += len(w.letters)
            w = _Word(())
    return total


def _rng_scalars() -> int:
    # numpy Generator calls one value at a time, as the samplers of the models do
    import numpy as np

    rng = np.random.default_rng(12345)
    return sum(int(rng.integers(4)) for _ in range(4_000))


def reference_s() -> float:
    """Seconds one pass of the reference loop takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _ints()
        _dict()
        _bigint()
        _objects()
        _rng_scalars()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()
