"""Vectorized batch trajectory engines (internal).

These produce exactly the same samples as per-sample `walk.sample_walk`
(same Philox stream per sample index) but keep only the statistics an
estimator needs, so experiments with 1e5+ samples stay cheap.  The one
exception is `free_midpoint_tilted`, which draws from a tilted step law on
its own stream namespace for importance sampling.  Free-group
walks run as numpy letter stacks; Farey walks run as per-sample python
loops over arbitrary-precision 2x2 matrices.

Steps come from the streams' raw words: one Philox per call is re-keyed
for each sample, and numpy's own conversion (Lemire's bounded integers,
53-bit doubles, then the alias step) is redone in bulk.  Rows numpy would
have rejected are redrawn through `draw_indices`, and the first row of
every call is checked against it, so the draws equal the reference path's.

Work is split into fixed-size sample blocks merged in block order, so a
thread pool over blocks cannot change any output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .models.farey import Slope, dist_to_infinity, slope_distance
from .walk import _MASK64, StepDistribution, _stream_key, stream_generator

BLOCK_SIZE = 16384

# Stream namespaces.  Sweeps over a grid (shadow-decay n values) or over k
# (iterated walks) key their ensembles by the swept value, so the compared
# estimates come from independent draws under one master seed.
ENSEMBLE_PRIMARY = 0
ENSEMBLE_REFLECTED = 1
ENSEMBLE_AUX = 2
ENSEMBLE_TILTED = 3
ENSEMBLE_GRID_BASE = 8
ENSEMBLE_ITERATED_BASE = 256


def _blocks(samples: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BLOCK_SIZE, samples)) for lo in range(0, samples, BLOCK_SIZE)]


def _run_blocks(fn, samples: int, threads: int = 1) -> list:
    spans = _blocks(samples)
    if threads <= 1 or len(spans) <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]  # block order, not completion order


# Engines draw their steps from each sample's raw Philox words, in chunks
# of this many samples: one (rows, words) uint64 array per chunk.  Small
# chunks are as fast and keep the words' memory off the peak (1024-row
# chunks raised peak RSS on the free-walks benchmark by 9%).
_CHUNK_ROWS = 256
_MASK32 = np.uint64(0xFFFFFFFF)


def _raw_chunks(seed: int, lo: int, hi: int, ensemble: int, words: int):
    """Yield (first sample index, raw) per chunk of samples lo..hi-1, where
    raw[r] holds the first `words` 64-bit outputs of the stream that
    `stream_generator(seed, first + r, ensemble)` wraps.  One Philox is
    re-keyed per sample instead of building a Generator per sample."""
    bitgen = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for first in range(lo, hi, _CHUNK_ROWS):
        raw = np.empty((min(first + _CHUNK_ROWS, hi) - first, words), dtype=np.uint64)
        for r in range(raw.shape[0]):
            key = _stream_key(seed, first + r, ensemble)
            state["state"]["key"] = [key & _MASK64, key >> 64]
            bitgen.state = state
            raw[r] = bitgen.random_raw(words)
        yield first, raw


def _index_words(size: int, n: int) -> int:
    """Raw words `draw_indices` reads for n steps: ceil(n/2) for the column
    indices (none when size is 1), then n for the uniforms."""
    return n + ((n + 1) // 2 if size > 1 else 0)


def _uniforms_from_raw(raw: np.ndarray) -> np.ndarray:
    """`Generator.random` on the same words: the top 53 bits over 2^53."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def _indices_from_raw(raw: np.ndarray, size: int, n: int, threshold: np.ndarray,
                      alias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alias draw of `StepDistribution.draw_indices` for n steps per
    row of raw words, and a per-row flag where numpy would have rejected.

    `integers(0, size, n)` splits its ceil(n/2) words low half first into
    uint32s u and takes (u * size) >> 32 (Lemire), rejecting u when
    (u * size) mod 2^32 < (2^32 - size) mod size; a rejection pulls extra
    words, so a flagged row must be drawn again by the reference path.
    `random(n)` then reads n words as (w >> 11) / 2^53, and u < p is
    compared as w >> 11 < ceil(p 2^53), `threshold` per column.
    """
    rows = raw.shape[0]
    if size == 1:
        col = np.zeros((rows, n), dtype=np.intp)
        rejected = np.zeros(rows, dtype=bool)
        m = 0
    else:
        m = (n + 1) // 2
        halves = np.empty((rows, 2 * m), dtype=np.uint64)
        halves[:, 0::2] = raw[:, :m] & _MASK32
        halves[:, 1::2] = raw[:, :m] >> np.uint64(32)
        product = halves[:, :n] * np.uint64(size)
        col = (product >> np.uint64(32)).astype(np.intp)
        floor = np.uint64((2 ** 32 - size) % size)
        rejected = ((product & _MASK32) < floor).any(axis=1)
    keep = (raw[:, m:m + n] >> np.uint64(11)) < threshold[col]
    return np.where(keep, col, alias[col]), rejected


def _draw_index_block(dist: StepDistribution, n: int, lo: int, hi: int,
                      seed: int, ensemble: int) -> np.ndarray:
    """Row r: `dist.draw_indices(stream_generator(seed, lo + r, ensemble), n)`,
    converted in bulk from raw words.  int16 up to 32767 support elements."""
    size = dist.size()
    out = np.empty((hi - lo, n), dtype=np.int16 if size <= 32767 else np.int32)
    threshold = np.ceil(dist._prob * 2.0 ** 53).astype(np.uint64)
    for first, raw in _raw_chunks(seed, lo, hi, ensemble, _index_words(size, n)):
        idx, rejected = _indices_from_raw(raw, size, n, threshold, dist._alias)
        for r in np.flatnonzero(rejected):
            idx[r] = dist.draw_indices(stream_generator(seed, first + int(r), ensemble), n)
        out[first - lo:first - lo + len(idx)] = idx
    # a numpy whose conversion differs fails here instead of moving the numbers
    if hi > lo and not np.array_equal(
            out[0], dist.draw_indices(stream_generator(seed, lo, ensemble), n)):
        raise RuntimeError("bulk step draw disagrees with Generator.integers/random; "
                           "the numpy conversion has changed")
    return out


def _support_letter_words(dist: StepDistribution) -> list[tuple[int, ...]]:
    return [g.letters for g in dist.support]


class _LetterStacks:
    """Freely reduced words for a block of samples, as an int8 letter matrix
    plus a length vector."""

    def __init__(self, rows: int, capacity: int):
        self.stack = np.zeros((rows, capacity), dtype=np.int8)
        self.length = np.zeros(rows, dtype=np.int64)

    def apply_letter(self, rows: np.ndarray, letter: int) -> None:
        ln = self.length
        top_idx = np.maximum(ln[rows] - 1, 0)
        top = self.stack[rows, top_idx]
        cancel = (ln[rows] > 0) & (top == -letter)
        crows = rows[cancel]
        prows = rows[~cancel]
        ln[crows] -= 1
        self.stack[prows, ln[prows]] = letter
        ln[prows] += 1

    def apply_step_column(self, idx_col: np.ndarray, words: Sequence[tuple[int, ...]]) -> None:
        for j, word in enumerate(words):
            if not word:
                continue
            rows = np.nonzero(idx_col == j)[0]
            if rows.size == 0:
                continue
            for letter in word:
                self.apply_letter(rows, letter)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.stack.copy(), self.length.copy()


def _pair_prefix_len(stack_a, len_a, stack_b, len_b) -> np.ndarray:
    # positions below min(len_a, len_b) are live in both stacks, so stale
    # letters beyond the live region cannot shorten the computed prefix
    lim = np.minimum(len_a, len_b)
    width = max(stack_a.shape[1], stack_b.shape[1])
    a = stack_a if stack_a.shape[1] == width else np.pad(stack_a, ((0, 0), (0, width - stack_a.shape[1])))
    b = stack_b if stack_b.shape[1] == width else np.pad(stack_b, ((0, 0), (0, width - stack_b.shape[1])))
    neq = a != b
    first = np.argmax(neq, axis=1)
    none = ~neq.any(axis=1)
    return np.where(none, lim, np.minimum(first, lim))


def _fixed_prefix_len(stack, length, word: tuple[int, ...]) -> np.ndarray:
    m = len(word)
    if m == 0:
        return np.zeros(len(length), dtype=np.int64)
    w = np.asarray(word, dtype=np.int8)
    seg = stack[:, :m]
    neq = seg != w[None, :]
    first = np.argmax(neq, axis=1)
    none = ~neq.any(axis=1)
    cp = np.where(none, m, first)
    return np.minimum(cp, length)


def _cyclic_core_lengths(stack, length) -> np.ndarray:
    rows, cap = stack.shape
    j = np.arange(cap)
    rev_idx = np.clip(length[:, None] - 1 - j[None, :], 0, cap - 1)
    mirrored = stack[np.arange(rows)[:, None], rev_idx]
    valid = j[None, :] < (length[:, None] // 2)
    match = (stack == -mirrored) & valid
    peel = np.argmax(~match, axis=1)  # first position that fails to cancel
    return length - 2 * peel


def _max_word_len(dist: StepDistribution) -> int:
    return max((len(g) for g in dist.support), default=1) or 1


def free_distance_trajectories(dist: StepDistribution, checkpoints: Sequence[int],
                               samples: int, seed: int, ensemble: int = ENSEMBLE_PRIMARY,
                               threads: int = 1) -> dict[int, np.ndarray]:
    """d(1, w_n) for every n in `checkpoints`, per sample."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    n = checkpoints[-1]
    words = _support_letter_words(dist)
    cap = n * _max_word_len(dist) + 1

    def run_block(lo: int, hi: int) -> dict[int, np.ndarray]:
        idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
        stacks = _LetterStacks(hi - lo, cap)
        out: dict[int, np.ndarray] = {}
        cps = set(checkpoints)
        for i in range(n):
            stacks.apply_step_column(idx[:, i], words)
            if (i + 1) in cps:
                out[i + 1] = stacks.length.copy()
        return out

    parts = _run_blocks(run_block, samples, threads)
    return {c: np.concatenate([p[c] for p in parts]) for c in checkpoints}


def free_segment_increments(dist: StepDistribution, k: int, n_iter: int,
                            samples: int, seed: int, ensemble: int = ENSEMBLE_PRIMARY,
                            threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(Y, D) with Y[i] = d(w_{ik}, w_{(i+1)k}) and D[i] = d(1, w_{(i+1)k}),
    each of shape (n_iter, samples)."""
    n = k * n_iter
    words = _support_letter_words(dist)
    wmax = _max_word_len(dist)

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
        rows = hi - lo
        main = _LetterStacks(rows, n * wmax + 1)
        seg = _LetterStacks(rows, k * wmax + 1)
        Y = np.empty((n_iter, rows), dtype=np.int64)
        D = np.empty((n_iter, rows), dtype=np.int64)
        for i in range(n):
            col = idx[:, i]
            main.apply_step_column(col, words)
            seg.apply_step_column(col, words)
            if (i + 1) % k == 0:
                t = (i + 1) // k - 1
                Y[t] = seg.length
                D[t] = main.length
                seg.length[:] = 0
        return Y, D

    parts = _run_blocks(run_block, samples, threads)
    return (
        np.concatenate([p[0] for p in parts], axis=1),
        np.concatenate([p[1] for p in parts], axis=1),
    )


def free_center_products(dist: StepDistribution, center_letters: tuple[int, ...],
                         checkpoints: Sequence[int], samples: int, seed: int,
                         ensemble: int = ENSEMBLE_PRIMARY,
                         threads: int = 1) -> dict[int, np.ndarray]:
    """(x . w_n)_1 against the fixed word x, per sample, at each checkpoint.
    In the tree this is the common prefix length."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    n = checkpoints[-1]
    words = _support_letter_words(dist)
    cap = max(n * _max_word_len(dist) + 1, len(center_letters) + 1)

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
        stacks = _LetterStacks(hi - lo, cap)
        out = {}
        cps = set(checkpoints)
        for i in range(n):
            stacks.apply_step_column(idx[:, i], words)
            if (i + 1) in cps:
                out[i + 1] = _fixed_prefix_len(stacks.stack, stacks.length, center_letters)
        return out

    parts = _run_blocks(run_block, samples, threads)
    return {c: np.concatenate([p[c] for p in parts]) for c in checkpoints}


def free_midpoint_events(dist: StepDistribution, two_n: int, samples: int, seed: int,
                         threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """((w_n . w_2n)_1, d(1, w_n)) per sample for a walk of length two_n."""
    if two_n % 2 != 0:
        raise ValueError("walk length must be even")
    n = two_n // 2
    words = _support_letter_words(dist)
    cap = two_n * _max_word_len(dist) + 1

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, two_n, lo, hi, seed, ENSEMBLE_PRIMARY)
        stacks = _LetterStacks(hi - lo, cap)
        mid_stack = mid_len = None
        for i in range(two_n):
            stacks.apply_step_column(idx[:, i], words)
            if i + 1 == n:
                mid_stack, mid_len = stacks.snapshot()
        gp = _pair_prefix_len(mid_stack, mid_len, stacks.stack, stacks.length)
        return gp, mid_len

    parts = _run_blocks(run_block, samples, threads)
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def _cancellations(stacks: _LetterStacks, letters: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """C[s, r]: how many letters of support word g_s cancel against row r's
    word x_r, so |x_r g_s| = |x_r| + len(g_s) - 2 C[s, r].  `letters` holds
    the support words' letters zero-padded on the right."""
    rows, cap = stacks.stack.shape
    flat = stacks.stack.reshape(-1)
    base = np.arange(rows) * cap
    cancelled = np.zeros((len(lengths), rows), dtype=np.int64)
    alive = np.ones((len(lengths), rows), dtype=bool)
    for t in range(int(lengths.max())):
        pos = stacks.length - 1 - t
        # the letter t places below the top of each stack (0 past the bottom)
        top = np.where(pos >= 0, flat.take(base + np.maximum(pos, 0)), 0)
        alive &= (top[None, :] == -letters[:, t, None]) & (t < lengths)[:, None]
        cancelled += alive
    return cancelled


def free_midpoint_tilted(dist: StepDistribution, two_n: int, samples: int, seed: int,
                         thetas: tuple[float, float],
                         threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(hit, log-weight) per sample of a tilted walk of length two_n, for
    importance sampling the failure (w_n . w_2n)_1 < d(1, w_n)/2.

    Each step is drawn from nu(g | x) = mu(g) exp(-theta D) / Z(x), with
    D = |xg| - |x| and Z(x) the exact normaliser, so each sample's
    likelihood ratio mu/nu is exp(log-weight) = prod Z(x) exp(theta D) and
    exp(log-weight) * hit has mean P(failure) under mu.  theta is
    thetas[0] over the first half; over the second half it is thetas[1]
    while the event does not hold (2j >= |w_n|, with the branch depth
    j = (w_n . x)_1 updated as each letter cancels or is pushed) and 0 once
    it does.  One uniform per step, from the
    ENSEMBLE_TILTED stream of each sample.
    """
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError("walk length must be even and positive")
    n = two_n // 2
    size = dist.size()
    lengths = np.array([len(g) for g in dist.support], dtype=np.int64)
    wmax = _max_word_len(dist)
    # letters padded to twice the longest word, so letters[s, c + q] exists
    # for every cancellation count c and write offset q below wmax
    letters = np.zeros((size, 2 * wmax), dtype=np.int8)
    for s, word in enumerate(_support_letter_words(dist)):
        letters[s, :len(word)] = word
    span = wmax + 1
    # per (word s, tilt index, cancellations c), tilt index 0, 1, 2 meaning
    # theta = 0, thetas[0], thetas[1]: mu(g_s) exp(-theta D) and theta D
    theta_values = np.array([0.0, float(thetas[0]), float(thetas[1])])
    increments = lengths[:, None, None] - 2 * np.arange(span)[None, None, :]
    tilt_d = theta_values[None, :, None] * increments
    weight_table = (dist.weights[:, None, None] * np.exp(-tilt_d)).reshape(-1)
    tilt_d = tilt_d.reshape(-1)
    word_base = (np.arange(size) * (3 * span))[:, None]
    cap = two_n * wmax + 1

    def run_block(lo: int, hi: int):
        rows = hi - lo
        u = np.empty((two_n, rows))
        for first, raw in _raw_chunks(seed, lo, hi, ENSEMBLE_TILTED, two_n):
            u[:, first - lo:first - lo + len(raw)] = _uniforms_from_raw(raw).T
        if not np.array_equal(u[:, 0], stream_generator(seed, lo, ENSEMBLE_TILTED).random(two_n)):
            raise RuntimeError("bulk uniforms disagree with Generator.random; "
                               "the numpy conversion has changed")
        stacks = _LetterStacks(rows, cap)
        flat = stacks.stack.reshape(-1)
        row_ids = np.arange(rows)
        row_base = row_ids * cap
        log_w = np.zeros(rows)
        tilt = np.ones(rows, dtype=np.int64)
        for i in range(two_n):
            if i == n:
                mid_stack, k = stacks.snapshot()
                mid_flat = mid_stack.reshape(-1)
                j, h = k.copy(), np.zeros(rows, dtype=np.int64)
            if i >= n:
                tilt = np.where(2 * j >= k, 2, 0)
            cancelled = _cancellations(stacks, letters, lengths)
            cell = word_base + tilt * span + cancelled
            cum = weight_table.take(cell)
            for s in range(1, size):
                cum[s] += cum[s - 1]
            choice = (cum[:-1] <= u[i] * cum[-1]).sum(axis=0)
            pick = choice * rows + row_ids
            log_w += np.log(cum[-1]) + tilt_d.take(cell.reshape(-1).take(pick))
            # the chosen word cancels c letters, then pushes its remaining
            # m - c; writes past the new length land in the stale region
            c = cancelled.reshape(-1).take(pick)
            m = lengths[choice]
            ln = stacks.length
            for q in range(wmax):
                flat[row_base + ln - c + q] = letters[choice, c + q]
            stacks.length = ln + m - 2 * c
            if i < n:
                continue
            # x = w_n[:j] followed by a branch of height h off the w_n path
            dh = np.minimum(h, c)
            h -= dh
            j -= c - dh
            for q in range(wmax):
                pushing = q < m - c
                along = ((h == 0) & (j < k)
                         & (mid_flat.take(row_base + j) == letters[choice, c + q]))
                j += pushing & along
                h += pushing & ~along
        return 2 * j < k, log_w

    parts = _run_blocks(run_block, samples, threads)
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def free_diagonal_products(dist: StepDistribution, dist_reflected: StepDistribution,
                           n: int, samples: int, seed: int,
                           threads: int = 1) -> np.ndarray:
    """(v_n . w_n)_1 for independent walks v ~ mu (ensemble 0) and
    w ~ reflected mu (ensemble 1)."""
    words_v = _support_letter_words(dist)
    words_w = _support_letter_words(dist_reflected)
    cap_v = n * _max_word_len(dist) + 1
    cap_w = n * _max_word_len(dist_reflected) + 1

    def run_block(lo: int, hi: int):
        idx_v = _draw_index_block(dist, n, lo, hi, seed, ENSEMBLE_PRIMARY)
        idx_w = _draw_index_block(dist_reflected, n, lo, hi, seed, ENSEMBLE_REFLECTED)
        sv = _LetterStacks(hi - lo, cap_v)
        sw = _LetterStacks(hi - lo, cap_w)
        for i in range(n):
            sv.apply_step_column(idx_v[:, i], words_v)
            sw.apply_step_column(idx_w[:, i], words_w)
        return _pair_prefix_len(sv.stack, sv.length, sw.stack, sw.length)

    return np.concatenate(_run_blocks(run_block, samples, threads))


def free_translation_lengths(dist: StepDistribution, checkpoints: Sequence[int],
                             samples: int, seed: int,
                             threads: int = 1) -> dict[int, np.ndarray]:
    """Exact translation lengths (cyclic-reduction lengths) at checkpoints."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    n = checkpoints[-1]
    words = _support_letter_words(dist)
    cap = n * _max_word_len(dist) + 1

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, n, lo, hi, seed, ENSEMBLE_PRIMARY)
        stacks = _LetterStacks(hi - lo, cap)
        out = {}
        cps = set(checkpoints)
        for i in range(n):
            stacks.apply_step_column(idx[:, i], words)
            if (i + 1) in cps:
                out[i + 1] = _cyclic_core_lengths(stacks.stack, stacks.length)
        return out

    parts = _run_blocks(run_block, samples, threads)
    return {c: np.concatenate([p[c] for p in parts]) for c in checkpoints}


# --- Farey engine: python loops over arbitrary-precision matrices ---


def farey_checkpoint_stats(dist: StepDistribution, checkpoints: Sequence[int],
                           samples: int, seed: int, want_distance: bool = False,
                           ensemble: int = ENSEMBLE_PRIMARY,
                           threads: int = 1) -> dict[int, dict[str, np.ndarray]]:
    """Per-checkpoint 'trace_small' (|trace| <= 2) flags and optionally
    exact distances d(1, w_n)."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    n = checkpoints[-1]
    mats = [g.entries() for g in dist.support]
    cpset = set(checkpoints)

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
        rows = hi - lo
        trace_small = {c: np.zeros(rows, dtype=bool) for c in checkpoints}
        distance = {c: np.zeros(rows, dtype=np.int64) for c in checkpoints} if want_distance else None
        for r in range(rows):
            a, b, c_, d = 1, 0, 0, 1
            row = idx[r]
            for i in range(n):
                e, f, g2, h = mats[row[i]]
                a, b, c_, d = a * e + b * g2, a * f + b * h, c_ * e + d * g2, c_ * f + d * h
                t = i + 1
                if t in cpset:
                    trace_small[t][r] = abs(a + d) <= 2
                    if want_distance:
                        distance[t][r] = dist_to_infinity(a, c_)
        out = {}
        for c in checkpoints:
            entry = {"trace_small": trace_small[c]}
            if want_distance:
                entry["distance"] = distance[c]
            out[c] = entry
        return out

    parts = _run_blocks(run_block, samples, threads)
    merged: dict[int, dict[str, np.ndarray]] = {}
    for c in checkpoints:
        merged[c] = {
            key: np.concatenate([p[c][key] for p in parts]) for key in parts[0][c]
        }
    return merged


def farey_center_products(dist: StepDistribution, center_entries: tuple[int, int, int, int],
                          checkpoints: Sequence[int], samples: int, seed: int,
                          ensemble: int = ENSEMBLE_PRIMARY,
                          threads: int = 1) -> dict[int, np.ndarray]:
    """(x . w_n)_1 against a fixed matrix x, per sample, at each checkpoint."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    n = checkpoints[-1]
    mats = [g.entries() for g in dist.support]
    cpset = set(checkpoints)
    xa, _, xc, _ = center_entries
    x_slope = Slope(xa, xc)
    dx = dist_to_infinity(xa, xc)

    def run_block(lo: int, hi: int):
        idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
        rows = hi - lo
        out = {c: np.zeros(rows, dtype=np.float64) for c in checkpoints}
        for r in range(rows):
            a, b, c_, d = 1, 0, 0, 1
            row = idx[r]
            for i in range(n):
                e, f, g2, h = mats[row[i]]
                a, b, c_, d = a * e + b * g2, a * f + b * h, c_ * e + d * g2, c_ * f + d * h
                t = i + 1
                if t in cpset:
                    dw = dist_to_infinity(a, c_)
                    dxw = slope_distance(x_slope, Slope(a, c_))
                    out[t][r] = 0.5 * (dx + dw - dxw)
        return out

    parts = _run_blocks(run_block, samples, threads)
    return {c: np.concatenate([p[c] for p in parts]) for c in checkpoints}
