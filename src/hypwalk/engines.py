"""Vectorized batch walks (internal): one step kernel per model, plus observers.

A step kernel walks a block of samples (the same steps as per-sample
`walk.sample_walk`) and yields the block's state at each checkpoint.
`_free_steps` keeps freely reduced words as an int8 letter
stack plus lengths and applies a step as one numpy pass per letter position
over all rows, reading the letters of each row's drawn word from a
(support, longest word) table, so its cost does not grow with the support.
`_farey_steps` keeps exact 2x2 matrices as four int64 rows and applies a
step as four numpy expressions, switching the block to python ints before
an entry could overflow.  Each model's `_Geometry` gives, per row, d(1, w),
the Gromov product (u . w)_1 of two states (a common prefix in the tree,
(d(1, u) + d(1, w) - d(1, u^-1 w)) / 2 on the Farey graph) and whether the
translation length of w is at most B (the cyclic core's length in the tree;
on the Farey graph |trace| <= 2, then the exact length where B > 0).
Observers fold the states into one statistic per sample through it, so
every observer is written once for both models, and every model
difference lives in `_GEOMETRIES`.  `observe` runs a model's kernel with an
observer over the blocks; walks of different lengths are prefixes of one
another, so one call serves a whole grid of lengths.  Farey distances run
`dist_to_infinity`'s ladder in lockstep over all rows (`_dists_to_infinity`).
`free_midpoint_tilted` keeps its own step law, which depends on the state,
on its own stream namespace.

Steps come from the block's one Philox stream (`walk.block_words`): one
`random_raw` per step gives that step's word for every row, and
`StepDistribution.indices` turns the words into support indices with the
same arithmetic as `sample_walk`.

Work is split into the streams' blocks of `walk.BLOCK_SIZE` samples, merged
in block order, so a thread pool over blocks cannot change any output; it
engages only above one block.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .models.farey import FareyElement, translation_length
from .walk import BLOCK_SIZE, StepDistribution, block_words, check_samples, uniforms

_INT64_MAX = 2 ** 63 - 1

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


def _draw_index_block(dist: StepDistribution, n: int, lo: int, hi: int,
                      seed: int, ensemble: int) -> np.ndarray:
    """The support indices of steps 0..n-1 of samples lo..hi-1 of one block,
    step-major: row t holds step t of every sample, as `sample_walk` draws
    it.  int16 up to 32767 support elements."""
    out = np.empty((n, hi - lo), dtype=np.int16 if dist.size() <= 32767 else np.int32)
    for t, words in enumerate(block_words(seed, lo, hi, ensemble, n)):
        out[t] = dist.indices(words)
    return out


def _letter_table(dist: StepDistribution) -> np.ndarray:
    """Letters of each support word, zero-padded on the right to the
    longest word (at least one column)."""
    wmax = max((len(g) for g in dist.support), default=1) or 1
    table = np.zeros((dist.size(), wmax), dtype=np.int8)
    for s, g in enumerate(dist.support):
        table[s, :len(g)] = g.letters
    return table


def _free_steps(dist: StepDistribution, checkpoints: Sequence[int], lo: int, hi: int,
                seed: int, ensemble: int):
    """Yield (stack, length) at each checkpoint t: row r's freely reduced w_t
    is stack[r, :length[r]].  Both arrays change in place after a yield.

    A step is one pass per letter position over all rows: each row pushes
    the letter of its drawn word at that position, or cancels it against
    its top letter; padding letters (0) change nothing.  Writes above a
    row's top land in its stale region, which no observer reads.
    """
    n = checkpoints[-1]
    idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
    table = _letter_table(dist)
    rows, cap = hi - lo, n * table.shape[1] + 1
    stack = np.zeros((rows, cap), dtype=np.int8)
    length = np.zeros(rows, dtype=np.int64)
    flat, base = stack.reshape(-1), np.arange(rows) * cap
    cps = set(checkpoints)
    for i in range(n):
        for letter in table[idx[i]].T:
            cancel = (flat.take(base + length - 1) == -letter) & (length > 0)
            flat[base + length] = letter
            length += (letter != 0) - 2 * cancel
        if i + 1 in cps:
            yield stack, length


def _widened(state: np.ndarray, scale: int) -> np.ndarray:
    """`state` as python ints (dtype object) once an entry exceeds
    _INT64_MAX // scale, so that a sum of entries times integers whose
    absolute values sum to at most `scale` cannot overflow int64."""
    if state.dtype == object or np.abs(state).max() <= _INT64_MAX // scale:
        return state
    return state.astype(object)


def _farey_steps(dist: StepDistribution, checkpoints: Sequence[int], lo: int, hi: int,
                 seed: int, ensemble: int):
    """Yield, at each checkpoint t, w_t = [[a, b], [c, d]] of every row as a
    (4, rows) array of a, b, c, d.

    The state is int64 while every entry stays within _INT64_MAX // S, S the
    largest absolute column sum of a support matrix (at least 2, so a + d
    fits too): the next step then cannot overflow.  Once an entry passes
    that bound the block goes on in python ints (dtype object), exactly.
    """
    n = checkpoints[-1]
    idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
    entries = [g.entries() for g in dist.support]
    scale = max(2, *(max(abs(e) + abs(g), abs(f) + abs(h)) for e, f, g, h in entries))
    state = np.zeros((4, hi - lo), dtype=np.int64)
    state[0] = state[3] = 1
    state = _widened(state, scale)
    table = np.array(entries, dtype=state.dtype)
    cps = set(checkpoints)
    for i in range(n):
        e, f, g, h = table[idx[i]].T
        a, b, c, d = state
        state = _widened(np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]),
                         scale)
        if i + 1 in cps:
            yield state


def observe(model, dist: StepDistribution, checkpoints: Sequence[int], observer,
            samples: int, seed: int, ensemble: int = ENSEMBLE_PRIMARY,
            threads: int = 1) -> dict[int, np.ndarray]:
    """One statistic per sample at each checkpoint: the model's step kernel
    walks each block and `observer` folds its states.

    An observer is called as observer(geom, walk) once per block, where geom
    is the model's `_Geometry` and walk() gives the block's state at each
    checkpoint, and yields one array per checkpoint with a row per sample.
    walk(law, ensemble) gives the same block of another, independent walk.
    Checkpoints are walk lengths >= 1, and at least one is needed.
    """
    check_samples(samples)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be a non-empty list of walk lengths >= 1")
    geom = _GEOMETRIES[model.name]

    def run_block(lo: int, hi: int) -> list[np.ndarray]:
        def walk(law: StepDistribution = dist, ens: int = ensemble):
            return geom.steps(law, checkpoints, lo, hi, seed, ens)

        return list(observer(geom, walk))

    parts = _run_blocks(run_block, samples, threads)
    return {c: np.concatenate([p[j] for p in parts]) for j, c in enumerate(checkpoints)}


# --- the two geometries ---


def _common_prefix(u, w) -> np.ndarray:
    """(u . w)_1 in the tree: common prefix lengths of the rows of two
    letter-stack states (either may be one broadcast row).  Only columns
    below min(len_u, len_w) count, and they are live in both, so stale
    letters cannot shorten the result."""
    (stack_a, len_a), (stack_b, len_b) = u, w
    lim = np.minimum(len_a, len_b)
    width = min(stack_a.shape[1], stack_b.shape[1])
    if width == 0:
        return lim
    neq = stack_a[:, :width] != stack_b[:, :width]
    first = np.where(neq.any(axis=1), neq.argmax(axis=1), width)
    return np.minimum(first, lim)


def _dists_to_infinity(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`dist_to_infinity(p, q)` per row for coprime columns p, q (int64 or
    python ints): its two-state ladder down the Euclidean remainders, all
    rows in lockstep."""
    den = np.abs(q)
    out = (den != 0).astype(np.int64)  # 0 at infinity, 1 at the integers
    live = np.flatnonzero(den > 1)
    den, r = den[live], p[live] % den[live]
    cost = np.zeros(len(live), dtype=np.int64)  # of X
    cheaper = np.zeros(len(live), dtype=bool)  # E costs one less than X
    while len(live):
        if not r.all():  # Euclid reached 0 before 1: it would never end
            raise ValueError("slope columns must be coprime")
        done = r == 1
        out[live[done]] = cost[done] - cheaper[done] + 2
        keep = ~done
        live, den, r, cost, cheaper = live[keep], den[keep], r[keep], cost[keep], cheaper[keep]
        cost = cost + 1 - cheaper
        cheaper = (den - r < r) & ~cheaper
        den, r = r, den % r
    return out


def _farey_product(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(u . w)_1 = (d(1, u) + d(1, w) - d(1, u^-1 w)) / 2, with
    u^-1 = [[d, -b], [-c, a]].  Both operands are python ints when
    max|u| max|w| > _INT64_MAX // 2 and int64 otherwise (then both fit), so
    no entry of u^-1 w can overflow."""
    big = int(np.abs(u).max()) * int(np.abs(w).max()) > _INT64_MAX // 2
    u, w = (x.astype(object if big else np.int64, copy=False) for x in (u, w))
    a, b, c, d = u
    d_uw = _dists_to_infinity(d * w[0] - b * w[2], a * w[2] - c * w[0])
    return 0.5 * (_dists_to_infinity(a, c) + _dists_to_infinity(w[0], w[2]) - d_uw)


def _cyclic_core_lengths(state) -> np.ndarray:
    """The translation length of each row's w in the tree: the length of its
    cyclic core, w with the letters that cancel around its ends peeled."""
    stack, length = state
    rows, cap = stack.shape
    j = np.arange(cap)
    rev_idx = np.clip(length[:, None] - 1 - j[None, :], 0, cap - 1)
    mirrored = stack[np.arange(rows)[:, None], rev_idx]
    valid = j[None, :] < (length[:, None] // 2)
    match = (stack == -mirrored) & valid
    peel = np.argmax(~match, axis=1)  # first position that fails to cancel
    return length - 2 * peel


def _farey_translation_at_most(state: np.ndarray, B: float) -> np.ndarray:
    """Whether each row's translation length on the Farey graph is at most
    B: it is 0 exactly when |trace| <= 2, and otherwise positive and exact
    (`translation_length`), so only B > 0 needs it."""
    small = np.abs(state[0] + state[3]) <= 2
    if B > 0:
        rows = np.flatnonzero(~small)
        # python ints: the period matrices outgrow int64
        tau = [translation_length(FareyElement(*m)) for m in state[:, rows].T.tolist()]
        small[rows] = np.array(tau) <= B
    return small


class _Geometry(NamedTuple):
    """A model as the engines see it: its step kernel, and functions of the
    states it yields, one value per row."""

    steps: Callable  # (dist, checkpoints, lo, hi, seed, ensemble) -> states
    distance: Callable  # state -> d(1, w)
    product: Callable  # (state u, state w) -> (u . w)_1
    translation_at_most: Callable  # (state, B) -> translation length of w <= B
    snapshot: Callable  # state -> a copy that outlives the next step
    state_of: Callable  # element -> its state as one row that broadcasts
    identity: object  # the state of the identity


_GEOMETRIES = {
    "free": _Geometry(
        steps=_free_steps,
        distance=lambda state: state[1].copy(),
        product=_common_prefix,
        translation_at_most=lambda state, B: _cyclic_core_lengths(state) <= B,
        snapshot=lambda state: (state[0][:, :state[1].max()].copy(), state[1].copy()),
        state_of=lambda g: (np.array([g.letters], dtype=np.int8), np.array([len(g.letters)])),
        identity=(np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int64)),
    ),
    "farey": _Geometry(
        steps=_farey_steps,
        distance=lambda state: _dists_to_infinity(state[0], state[2]),
        product=_farey_product,
        translation_at_most=_farey_translation_at_most,
        snapshot=lambda state: state,  # each step builds a new array
        state_of=lambda g: np.array(g.entries(), dtype=object)[:, None],
        identity=np.array([[1], [0], [0], [1]], dtype=np.int64),
    ),
}


# --- observers: observer(geom, walk), see `observe` ---


def _distances(geom, walk):
    for state in walk():
        yield geom.distance(state)


# d(1, w_t)
DISTANCE = _distances


def translation_at_most(B: float):
    """Whether the translation length of w_t is at most B."""

    def fold(geom, walk):
        for state in walk():
            yield geom.translation_at_most(state, B)

    return fold


def pair_products(pairs: Mapping[int, int]):
    """(d(1, w_t), (w_s . w_t)_1) per row at each checkpoint t, s = pairs[t],
    so d(w_s, w_t) = d(1, w_s) + d(1, w_t) - 2 (w_s . w_t)_1.  The
    checkpoints are the keys of `pairs`; s is 0 (w_0 = 1) or an earlier
    checkpoint."""
    if any(s != 0 and not (s in pairs and s < t) for t, s in pairs.items()):
        raise ValueError("each checkpoint must pair with 0 or an earlier checkpoint")
    checkpoints, sources = sorted(pairs), set(pairs.values())

    def fold(geom, walk):
        kept = {0: geom.identity}
        for t, state in zip(checkpoints, walk(), strict=True):
            yield np.stack([geom.distance(state), geom.product(kept[pairs[t]], state)], axis=1)
            if t in sources:
                kept[t] = geom.snapshot(state)

    return fold


def center_product(center):
    """(x . w_t)_1 against the fixed element x = `center`."""

    def fold(geom, walk):
        x = geom.state_of(center)
        for state in walk():
            yield geom.product(x, state)

    return fold


def product_with_walk(law: StepDistribution, ensemble: int):
    """(v_t . w_t)_1 for w an independent walk of `law` on `ensemble`."""

    def fold(geom, walk):
        for v, w in zip(walk(), walk(law, ensemble)):
            yield geom.product(v, w)

    return fold


def _cancellations(stack: np.ndarray, length: np.ndarray, letters: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """C[s, r]: how many letters of support word g_s cancel against row r's
    word x_r, so |x_r g_s| = |x_r| + len(g_s) - 2 C[s, r].  `letters` holds
    the support words' letters zero-padded on the right."""
    rows, cap = stack.shape
    flat = stack.reshape(-1)
    base = np.arange(rows) * cap
    cancelled = np.zeros((len(lengths), rows), dtype=np.int64)
    alive = np.ones((len(lengths), rows), dtype=bool)
    for t in range(int(lengths.max())):
        pos = length - 1 - t
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
    it does.  One uniform per step: `walk.uniforms` of the sample's
    ENSEMBLE_TILTED words.
    """
    check_samples(samples)
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError("walk length must be even and positive")
    n = two_n // 2
    size = dist.size()
    lengths = np.array([len(g) for g in dist.support], dtype=np.int64)
    table = _letter_table(dist)
    wmax = table.shape[1]
    # letters padded to twice the longest word, so letters[s, c + q] exists
    # for every cancellation count c and write offset q below wmax
    letters = np.pad(table, ((0, 0), (0, wmax)))
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
        stack = np.zeros((rows, cap), dtype=np.int8)
        length = np.zeros(rows, dtype=np.int64)
        flat = stack.reshape(-1)
        row_ids = np.arange(rows)
        row_base = row_ids * cap
        log_w = np.zeros(rows)
        tilt = np.ones(rows, dtype=np.int64)
        for i, words in enumerate(block_words(seed, lo, hi, ENSEMBLE_TILTED, two_n)):
            u = uniforms(words)
            if i == n:
                mid_flat, k = flat.copy(), length.copy()
                j, h = k.copy(), np.zeros(rows, dtype=np.int64)
            if i >= n:
                tilt = np.where(2 * j >= k, 2, 0)
            cancelled = _cancellations(stack, length, letters, lengths)
            cell = word_base + tilt * span + cancelled
            cum = weight_table.take(cell)
            for s in range(1, size):
                cum[s] += cum[s - 1]
            choice = (cum[:-1] <= u * cum[-1]).sum(axis=0)
            pick = choice * rows + row_ids
            log_w += np.log(cum[-1]) + tilt_d.take(cell.reshape(-1).take(pick))
            # the chosen word cancels c letters, then pushes its remaining
            # m - c; writes past the new length land in the stale region
            c = cancelled.reshape(-1).take(pick)
            m = lengths[choice]
            for q in range(wmax):
                flat[row_base + length - c + q] = letters[choice, c + q]
            length = length + m - 2 * c
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


