"""Exact answers for the uniform nearest-neighbour walk on F2, the walk
whose steps are a, A, b, B with probability 1/4 each.  They serve as
oracles for the Monte Carlo estimators in `stats`.

On the Cayley tree |w_n| is a birth-death chain: from 0 it steps to 1, and
from k >= 1 it steps to k + 1 with probability 3/4 and to k - 1 with
probability 1/4.  Given |w_n| = k, w_n is uniform on the sphere of radius k,
because the automorphisms of the tree that fix the identity preserve the
walk and act transitively on each sphere.  `words_of_length` lists a
sphere, and tests build laws from it; `common_prefix_len` is the tree's
Gromov product at the identity, (u . v)_1.
"""

from __future__ import annotations

import numpy as np

from hypwalk.models.free import GENERATOR_LETTERS, FreeWord


def words_of_length(length: int) -> list[FreeWord]:
    """The sphere of radius `length`: all 4 * 3^(length - 1) reduced words
    of that length (the identity at 0), in lexicographic order of
    GENERATOR_LETTERS."""
    words = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in GENERATOR_LETTERS if not w or x != -w[-1]]
    return [FreeWord(w, _reduced=True) for w in words]


def common_prefix_len(u: FreeWord, v: FreeWord) -> int:
    a, b = u.letters, v.letters
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def distance_law(n: int) -> np.ndarray:
    """P(|w_n| = k) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = np.zeros(n + 1)
    p[0] = 1.0
    for _ in range(n):
        q = np.zeros(n + 1)
        q[1] = p[0]
        q[2:] += 0.75 * p[1:-1]
        q[:-1] += 0.25 * p[1:]
        p = q
    return p


def midpoint_failure_probability(two_n: int) -> float:
    """P((w_n . w_2n)_1 < |w_n| / 2) for a walk of even length two_n.

    Write w_2n = w_n y, where y is the second half: an independent walk of
    length n.  Let c be the length of the common prefix of w_n^-1 and y, so
    that w_n y freely reduces to w_n[:k-c] y[c:] with k = |w_n|.  The next
    letters, w_n[k-c] and y[c], differ (for c >= 1 because y is reduced), so
    (w_n . w_2n)_1 = k - c and failure means c >= t = floor(k/2) + 1.  Given
    |y| = m >= t, y is uniform on its sphere, and the words of length m with
    a given prefix of length t >= 1 are a share (1/4) 3^(1-t) of it.  Hence

        P = sum_{k >= 1} P(|w_n| = k) P(|y| >= t) (1/4) 3^(1-t).

    This factorises the (|w_n|, branch depth, height) transfer matrix of
    the second half; the two agree (tests/test_exact.py).
    """
    if two_n < 0 or two_n % 2 != 0:
        raise ValueError("walk length must be even and >= 0")
    n = two_n // 2
    law = distance_law(n)
    at_least = np.cumsum(law[::-1])[::-1]  # at_least[m] = P(|y| >= m)
    total = 0.0
    for k in range(1, n + 1):
        t = k // 2 + 1
        if t <= n:
            total += law[k] * at_least[t] * 0.25 * 3.0 ** (1 - t)
    return float(total)


def translation_probability(n: int, B: float) -> float:
    """P(tau(w_n) <= B), tau the translation length: the length of the
    cyclic core.

    A reduced word of length k = m + 2p >= 1 with cyclic core of length
    m >= 1 is u c u^-1: c is one of C_m = 3^m + 2 + (-1)^m cyclically
    reduced words, the last letter of u avoids c's first letter's inverse
    and c's last letter (2 choices if p >= 1), and the rest of u gives
    3^(p-1) choices.  Since w_n is uniform on its sphere of 4 3^(k-1) words,

        P = P(w_n = 1) + sum_{k >= 1} P(|w_n| = k) N_B(k) / (4 3^(k-1)),

    with N_B(k) the number of those words with m <= B.  A term's share is
    (C_m / 3^m) (3/4) at p = 0 and (C_m / 3^m) 3^-p / 2 at p >= 1.  Only
    cores of the parity of k, hence of n, occur: B = 1 gives the same
    value as B = 0 at even n, and B = 3 the same as B = 2.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    law = distance_law(n)
    total = law[0]
    for m in range(1, min(int(B), n) + 1):
        core_share = 1.0 + (2 + (-1) ** m) / 3.0 ** m  # C_m / 3^m
        for k in range(m, n + 1, 2):
            p = (k - m) // 2
            total += law[k] * core_share * (0.75 if p == 0 else 0.5 * 3.0 ** -p)
    return float(total)
