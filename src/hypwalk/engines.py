"""Vectorized batch walks (internal): one step kernel per model, plus observers.

A step kernel walks a block of samples (the same steps as per-sample
`walk.sample_walk`) and yields the block's state at each checkpoint.
`_free_steps` keeps freely reduced words as int8 letter stacks
(`_letter_stacks`) on a floor column that no letter cancels, with the flat
index of each row's top letter as its state, and applies a step as one
short numpy pass per letter position over all rows, reading the letters of
each row's drawn word from a (support, longest word) table.
`_farey_steps` keeps exact 2x2 matrices as four int64 rows and applies up
to four steps in one pass: one gather of the product of each row's drawn
matrices from a table of products of support matrices, and four
multiplies.  A pass runs in int64 only while none of its steps can pass the
overflow guard; the block goes on in python ints at the step an entry
passes it.  Each model's `_Geometry` gives, per row, d(1, w),
the Gromov product (u . w)_1 of two states from their known distances (a
common prefix in the tree, (d(1, u) + d(1, w) - d(1, u^-1 w)) / 2 on the
Farey graph, one ladder per row) and whether the
translation length of w is at most B (the cyclic core's length in the tree;
on the Farey graph |trace| <= 2, then the exact length where B >= 1, as
every hyperbolic length there is an integer >= 1).
Observers fold the states into one statistic per sample through it, so
every observer is written once for both models, and every model
difference lives in `_GEOMETRIES`; a product against w_0 = 1 is 0 and
needs no state of the identity.  `observe` runs a model's kernel with an
observer over the blocks; walks of different lengths are prefixes of one
another, so one call serves a whole grid of lengths.  Farey distances run
`dist_to_infinity`'s ladder in lockstep over all rows (`_dists_to_infinity`),
and Farey translation lengths run `translation_length`'s rule the same way,
with its digit rule and reduced test from `models.farey`
(`_translation_lengths`, which stops where the digits' product reaches the
element's trace and returns integers), in int64 for rows whose entries are
below _LENGTH_INT64 and in python ints for the others.
`free_midpoint_tilted` shares the letter stacks and their push; only its
step choice differs, a law that depends on the state, drawn on its own
stream namespace, and its one event array, the branch depth
(w_n . x)_1, is read off the stack.

Steps come from the block's one Philox stream (`walk.block_words`): one
`random_raw` per step gives that step's word for every row, and
`StepDistribution.indices` turns the words into support indices with the
same arithmetic as `sample_walk`.  A kernel draws its block's n x rows
indices up front (`_draw_index_block`), one byte each up to 256 support
elements.  Besides them a block holds its state: on F2 a rows x
(n * longest word + 2) byte letter stack, on SL(2,Z) four rows of int64.
`pair_products` keeps a source checkpoint's snapshot only until its last
pair, so the iterated walks' memory does not grow with their checkpoints.

Work is split into the streams' blocks of `walk.BLOCK_SIZE` samples, merged
in block order, so a thread pool over blocks cannot change any output; it
engages only above one block.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .models.farey import next_quotient, reduced
from .walk import BLOCK_SIZE, StepDistribution, block_words, check_samples, uniforms

_INT64_MAX = 2 ** 63 - 1

# Stream namespaces.  Sweeps over a grid (shadow-decay n values) or over k
# (iterated walks) key their ensembles by the swept value, so the compared
# estimates come from independent draws under one master seed.
ENSEMBLE_PRIMARY = 0
ENSEMBLE_REFLECTED = 1
ENSEMBLE_AUX = 2
ENSEMBLE_TILTED = 3
# the props battery's and calibration's instance draws (`walk.StreamDraws`)
ENSEMBLE_PROPS = 4
ENSEMBLE_CALIBRATE = 5
ENSEMBLE_GRID_BASE = 8
ENSEMBLE_ITERATED_BASE = 256


def _blocks(samples: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BLOCK_SIZE, samples)) for lo in range(0, samples, BLOCK_SIZE)]


def _run_blocks(fn, samples: int, threads: int = 1) -> list:
    spans = _blocks(samples)
    if threads <= 1 or len(spans) <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]  # block order, not completion order


def _draw_index_block(dist: StepDistribution, n: int, lo: int, hi: int,
                      seed: int, ensemble: int) -> np.ndarray:
    """The support indices of steps 0..n-1 of samples lo..hi-1 of one block,
    step-major: row t holds step t of every sample, as `sample_walk` draws
    it.  uint8 up to 256 support elements, int16 up to 32767, int32 beyond:
    n x rows bytes on the laws the experiments use."""
    size = dist.size()
    dtype = np.uint8 if size <= 256 else np.int16 if size <= 32767 else np.int32
    out = np.empty((n, hi - lo), dtype=dtype)
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


# the floor of every letter stack: the inverse of no letter and of no padding
_FLOOR = 127


def _letter_stacks(table: np.ndarray, rows: int, n: int):
    """Letter stacks for `rows` freely reduced words, each a product of at
    most n support words whose letters `table` holds (`_letter_table`):
    (stack, base, top, push).  Row r's word is stack[r, 1:top[r] - base[r] + 1].

    Column 0 of each row, at flat index base[r], holds _FLOOR, and `top`
    holds the flat index of each row's top letter (its floor when the word
    is 1).  push(s) multiplies row r's word by support word s[r] in place,
    as one pass per letter position over all rows (gather the top, compare
    it with the letter's inverse, write above the top, move the top): each
    row cancels the letter of its word at that position against its top
    letter, or pushes it.  Nothing cancels the floor, and padding (letter 0,
    inverse 0) cancels nothing and pushes nothing.  Every row writes the
    letter just above its top, so a cancelled or padding letter lands in
    the row's stale region, which no reader uses.  Its cost does not grow
    with the support.
    """
    cap = n * table.shape[1] + 1
    stack = np.empty((rows, cap + 1), dtype=np.int8)
    stack[:, 0] = _FLOOR
    flat, base = stack.reshape(-1), np.arange(rows) * (cap + 1)
    above = flat[1:]  # above[top] is the slot just above each top
    top = base.copy()
    # per letter position: the inverse of each support word's letter there,
    # and whether it is padding (None when that column has none)
    columns = [(-letters, None if letters.all() else letters == 0) for letters in table.T]
    moves = np.array([1, -1], dtype=np.int64)  # push, cancel

    def push(s: np.ndarray) -> None:
        nonlocal top  # moved in place
        for inverses, padding in columns:
            inverse = inverses.take(s)
            cancel = flat.take(top) == inverse
            above[top] = -inverse
            top += moves.take(cancel.view(np.uint8))
            if padding is not None:
                top -= padding.take(s)

    return stack, base, top, push


def _free_steps(dist: StepDistribution, checkpoints: Sequence[int], lo: int, hi: int,
                seed: int, ensemble: int):
    """Yield (stack, length) at each checkpoint t: row r's freely reduced w_t
    is stack[r, :length[r]].  The stack changes in place after a yield; each
    length is a fresh array.  One `_letter_stacks` push per step."""
    n = checkpoints[-1]
    idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
    stack, base, top, push = _letter_stacks(_letter_table(dist), hi - lo, n)
    cps = set(checkpoints)
    for i in range(n):
        push(idx[i])
        if i + 1 in cps:
            yield stack[:, 1:], top - base


def _farey_steps(dist: StepDistribution, checkpoints: Sequence[int], lo: int, hi: int,
                 seed: int, ensemble: int):
    """Yield, at each checkpoint t, w_t = [[a, b], [c, d]] of every row as a
    (4, rows) array of a, b, c, d, a fresh array at every pass.

    A pass applies j <= k consecutive steps: it gathers the product of each
    row's j drawn matrices from a (4, support^j) table of products of j
    support matrices, at column idx[t] support^(j-1) + ... + idx[t+j-1],
    and writes its products into the new state in place.  k is the largest
    of 1..4 with support^k <= 256 and S^(k+2) <= _INT64_MAX, S the largest
    absolute column sum of a support matrix (at least 2, so a + d fits
    too); a checkpoint ends a pass.  The state is int64 while every entry
    stays within _INT64_MAX // S: the next step then cannot overflow.  The
    largest column sum is submultiplicative, so a step multiplies the
    largest entry by at most S, and `bound` tracks an upper bound on it;
    the true maximum is read only when the bound passes the guard.  A pass
    of j > 1 steps runs only while bound S^j is within the guard, so none of
    its steps can pass it; otherwise, if the true maximum still fails that
    test, a single step is taken.
    Once an entry passes the guard the block goes on in python ints (dtype
    object), exactly, at the step where it passed; a block whose S passes
    int64 starts in them.
    """
    n = checkpoints[-1]
    idx = _draw_index_block(dist, n, lo, hi, seed, ensemble)
    size, support = dist.size(), [g.entries() for g in dist.support]
    scale = max(2, *(max(abs(e) + abs(g), abs(f) + abs(h)) for e, f, g, h in support))
    k = next((j for j in (4, 3, 2) if size ** j <= 256 and scale ** (j + 2) <= _INT64_MAX), 1)
    guard, bound = _INT64_MAX // scale, 1
    dtype = object if bound > guard else np.int64
    products = [support]  # products[j - 1]: the products of j support matrices
    for _ in range(k - 1):
        products.append([(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                         for a, b, c, d in products[-1] for e, f, g, h in support])
    tables = [np.array(p, dtype=dtype).T.copy() for p in products]
    state = np.zeros((4, hi - lo), dtype=dtype)
    state[0] = state[3] = 1
    i = 0
    for checkpoint in checkpoints:
        while i < checkpoint:
            j = min(k, checkpoint - i)
            if j > 1 and state.dtype != object and bound * scale ** j > guard:
                bound = int(np.abs(state).max())
                if bound * scale ** j > guard:
                    j = 1
            col = idx[i].astype(np.intp)  # combined uint8 rows must not wrap
            for row in idx[i + 1:i + j]:
                col = col * size + row
            drawn = tables[j - 1].take(col, axis=1)  # e, f, g, h of each row's product
            ef, gh = drawn[:2], drawn[2:]
            # (a, b) -> (a e + b g, a f + b h), and (c, d) the same; ef, then gh,
            # holds the second products once read.  No view of the old state
            # outlives the pass, so its memory is free for the next one.
            new = np.empty_like(state)
            np.multiply(state[0], ef, out=new[:2])
            np.multiply(state[2], ef, out=new[2:])
            new[:2] += np.multiply(state[1], gh, out=ef)
            new[2:] += np.multiply(state[3], gh, out=gh)
            state = new
            i += j
            if state.dtype != object:
                bound *= scale ** j
                if bound > guard:
                    bound = int(np.abs(state).max())
                    if bound > guard:
                        state = state.astype(object)
                        tables = [t.astype(object) for t in tables]
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
    rows in lockstep.  A row's cost of X at rung k is k less the earlier
    rungs on which E was cheaper, so `saved` counts those rungs and this
    one.  A row finishes when its remainder reaches 1; a rung on which some
    row does compacts the live arrays with one index and `take`, and the
    others compact nothing."""
    den = np.abs(q)
    out = (den != 0).astype(np.int64)  # 0 at infinity, 1 at the integers
    live = np.flatnonzero(den > 1)
    den = den.take(live)
    r = p.take(live) % den
    saved = np.zeros(len(live), dtype=np.int64)
    cheaper = np.zeros(len(live), dtype=bool)  # E costs one less than X
    rung = 0
    while len(live):
        if r.min() <= 1:
            if not r.all():  # Euclid reached 0 before 1: it would never end
                raise ValueError("slope columns must be coprime")
            done = r == 1
            out[live[done]] = rung + 2 - saved[done]
            keep = np.flatnonzero(~done)
            live, den, r, saved, cheaper = (x.take(keep) for x in (live, den, r, saved, cheaper))
        cheaper = (den - r < r) > cheaper  # and E was not cheaper before
        saved += cheaper
        den, r = r, den % r
        rung += 1
    return out


def _farey_product(u: np.ndarray, w: np.ndarray, du, dw) -> np.ndarray:
    """(u . w)_1 = (du + dw - d(1, u^-1 w)) / 2 from the known distances
    du = d(1, u) and dw = d(1, w), with u^-1 = [[d, -b], [-c, a]]: one
    ladder per row.  Both operands are python ints when
    max|u| max|w| > _INT64_MAX // 2 and int64 otherwise (then both fit), so
    no entry of u^-1 w can overflow."""
    big = int(np.abs(u).max()) * int(np.abs(w).max()) > _INT64_MAX // 2
    u, w = (x.astype(object if big else np.int64, copy=False) for x in (u, w))
    a, b, c, d = u
    return 0.5 * (du + dw - _dists_to_infinity(d * w[0] - b * w[2], a * w[2] - c * w[0]))


def _cyclic_core_lengths(state) -> np.ndarray:
    """The translation length of each row's w in the tree: the length of its
    cyclic core, w with the letters that cancel around its ends peeled.
    Only the first max(length) // 2 + 1 columns are read: a row peels at
    most length // 2 letter pairs, so the last of them always fails."""
    stack, length = state
    rows = stack.shape[0]
    j = np.arange(int(length.max()) // 2 + 1)
    rev_idx = np.maximum(length[:, None] - 1 - j[None, :], 0)
    mirrored = stack[np.arange(rows)[:, None], rev_idx]
    valid = j[None, :] < (length[:, None] // 2)
    match = (stack[:, :len(j)] == -mirrored) & valid
    peel = np.argmax(~match, axis=1)  # first position that fails to cancel
    return length - 2 * peel


def _translation_lengths(m: np.ndarray) -> np.ndarray:
    """`translation_length` of each column of m, hyperbolic elements of
    SL(2,Z) as four rows a, b, c, d (int64 or python ints), all columns in
    lockstep, as int64; a column with det != 1 raises.

    Each row runs the scalar's rule (Q stays even, P has the parity of the
    trace and isqrt D the other, so `reduced` never meets equality),
    carrying the digit product as its columns (m00, m10), (m01, m11) and
    the ladder as its columns X = (a00, a10), E = (a01, a11); the
    identity's infinite entries may be 1, as the first digit's minima never
    pick them.  The product's trace grows strictly, so a row finishes at
    the first digit where it reaches |trace m|, with length min(a00, a11).
    """
    a, b, c, d = m
    if (a * d - b * c != 1).any():
        raise ArithmeticError("a column is not in SL(2,Z)")
    tr = a + d
    up = tr > 0
    t = np.where(up, tr, -tr)
    P = np.where(up, a - d, d - a)
    Q = np.where(up, 2 * c, -2 * c)
    D = t * t - 4
    root = t - 1  # isqrt D, as (t - 1)^2 <= t^2 - 4 < t^2 for t >= 3

    todo = np.flatnonzero(~reduced(P, Q, root))
    while len(todo):
        _, p, q = next_quotient(P[todo], Q[todo], D[todo], root[todo])
        P[todo], Q[todo] = p, q
        todo = todo[~reduced(p, q, root[todo])]

    out = np.empty(len(t), dtype=np.int64)
    one, zero = np.ones_like(t), np.zeros_like(t)
    M = np.stack([one, zero, zero, one])  # m00, m10, m01, m11
    X, E = np.stack([zero, one]), np.stack([one, zero])
    live = np.arange(len(t))
    while len(live):
        digit, P, Q = next_quotient(P, Q, D, root)
        M = np.concatenate([M[:2] * digit + M[2:], M[:2]])
        X, E = np.minimum(X, E) + 1, np.minimum(X - 1, E) + digit
        trace = M[0] + M[3]
        done = trace >= t
        if done.any():
            if (trace[done] != t[done]).any():
                raise ArithmeticError("a digit product passed the element's trace")
            out[live[done]] = np.minimum(X[0, done], E[1, done])
            keep = np.flatnonzero(~done)
            live, P, Q, D, root, t = (v.take(keep) for v in (live, P, Q, D, root, t))
            M, X, E = (v.take(keep, axis=1) for v in (M, X, E))
    return out


# entries below this keep every quantity of `_translation_lengths` in int64.
# With N the largest |entry|, |trace| <= 2N.  Through the pre-period
# |Q| <= 2|c| + 4 sqrt D < 10N: Q' = -Q f f', f and f' the quotient's and
# its conjugate's parts past the digit, so |Q| grows only on a step where
# |f'| > 1, by at most 2 sqrt D, and at most twice before the pair is
# reduced (then 0 < P < sqrt D and 0 < Q < 2 sqrt D).  So |P'| < sqrt D +
# |Q| < 12N and P^2 < 144 N^2 < 2^62.  Digit products stay at most
# |trace| <= 2N, and a reduced pair's digit is below sqrt D (as Q >= 2), so
# each multiply stays below 4 N^2.
_LENGTH_INT64 = 1 << 27


def _farey_translation_at_most(state: np.ndarray, B: float) -> np.ndarray:
    """Whether each row's translation length on the Farey graph is at most
    B: it is 0 exactly when |trace| <= 2, and otherwise an integer >= 1
    (`_translation_lengths`), so only B >= 1 needs it.  Rows whose entries
    are all below _LENGTH_INT64 run in int64, the others in python ints."""
    small = np.abs(state[0] + state[3]) <= 2
    if B >= 1:
        rows = np.flatnonzero(~small)
        m = state[:, rows]
        fits = np.abs(m).max(axis=0) < _LENGTH_INT64
        for part, dtype in ((fits, np.int64), (~fits, object)):
            sel = np.flatnonzero(part)
            if len(sel):
                small[rows[sel]] = _translation_lengths(m[:, sel].astype(dtype)) <= B
    return small


class _Geometry(NamedTuple):
    """A model as the engines see it: its step kernel, and functions of the
    states it yields, one value per row.  No state of the identity is kept:
    the one product it would enter, (1 . w)_1, is 0."""

    steps: Callable  # (dist, checkpoints, lo, hi, seed, ensemble) -> states
    distance: Callable  # state -> d(1, w)
    product: Callable  # (state u, state w, d(1, u), d(1, w)) -> (u . w)_1
    translation_at_most: Callable  # (state, B) -> translation length of w <= B
    snapshot: Callable  # state -> a copy that outlives the next step
    state_of: Callable  # element -> its state as one row that broadcasts


_GEOMETRIES = {
    "free": _Geometry(
        steps=_free_steps,
        distance=lambda state: state[1],  # a fresh array at each checkpoint
        product=lambda u, w, du, dw: _common_prefix(u, w),
        translation_at_most=lambda state, B: _cyclic_core_lengths(state) <= B,
        snapshot=lambda state: (state[0][:, :state[1].max()].copy(), state[1]),
        state_of=lambda g: (np.array([g.letters], dtype=np.int8), np.array([len(g.letters)])),
    ),
    "farey": _Geometry(
        steps=_farey_steps,
        distance=lambda state: _dists_to_infinity(state[0], state[2]),
        product=_farey_product,
        translation_at_most=_farey_translation_at_most,
        snapshot=lambda state: state,  # each pass builds a new array
        state_of=lambda g: np.array(g.entries(), dtype=object)[:, None],
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
    checkpoint.  (1 . w_t)_1 is 0, so a checkpoint paired with 0 computes
    no product; its zeros are float, the dtype of a Farey product.

    A source's snapshot and distance are dropped at the last checkpoint
    that pairs with it, so only the sources still ahead stay alive: one on
    the iterated map, which pairs each checkpoint with the one before it.
    Kept to the end, F2 snapshots (rows x |w_t| letters each) would grow
    with the square of the checkpoint count."""
    if any(s != 0 and not (s in pairs and s < t) for t, s in pairs.items()):
        raise ValueError("each checkpoint must pair with 0 or an earlier checkpoint")
    checkpoints = sorted(pairs)
    last = {s: t for t, s in sorted(pairs.items()) if s != 0}  # a source's last pair

    def fold(geom, walk):
        kept = {}  # a source's (snapshot, distance), until its last pair
        for t, state in zip(checkpoints, walk(), strict=True):
            dw = geom.distance(state)
            s = pairs[t]
            if s == 0:
                product = np.zeros(len(dw))
            else:
                u, du = kept.pop(s) if last[s] == t else kept[s]
                product = geom.product(u, state, du, dw)
                del u, du  # at its last pair, nothing holds the source now
            if t in last:
                kept[t] = (geom.snapshot(state), dw)
            yield np.stack([dw, product], axis=1)

    return fold


def center_product(center):
    """(x . w_t)_1 against the fixed element x = `center`."""

    def fold(geom, walk):
        x = geom.state_of(center)
        dx = geom.distance(x)
        for state in walk():
            yield geom.product(x, state, dx, geom.distance(state))

    return fold


def product_with_walk(law: StepDistribution, ensemble: int):
    """(v_t . w_t)_1 for w an independent walk of `law` on `ensemble`."""

    def fold(geom, walk):
        for v, w in zip(walk(), walk(law, ensemble)):
            yield geom.product(v, w, geom.distance(v), geom.distance(w))

    return fold


def _cancellations(flat: np.ndarray, top: np.ndarray, table: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """C[s, r]: how many letters of support word g_s cancel against row r's
    word x_r, the letter stack below flat index top[r] (`_letter_stacks`),
    so |x_r g_s| = |x_r| + len(g_s) - 2 C[s, r].  `table` holds the
    support words' letters (`_letter_table`)."""
    cancelled = np.zeros((len(lengths), len(top)), dtype=np.int64)
    alive = np.ones((len(lengths), len(top)), dtype=bool)
    for t in range(int(lengths.max())):
        # the letter t places below each top; a row reaches its floor, which
        # cancels no letter, before it reads below it (clipped at row 0)
        below = flat.take(top - t, mode="clip")
        alive &= (below[None, :] == -table[:, t, None]) & (t < lengths)[:, None]
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
    while the event does not hold (2j >= |w_n|) and 0 once it does.  The
    branch depth j = (w_n . x)_1 is the walk's only event state, read off
    the letter stack: a step that cancels c letters cuts it to
    min(j, |x| - c), and the pushed letters extend it while they match a
    copy of w_n's stack (the branch off the w_n path is |x| - j high).
    One uniform per step: `walk.uniforms` of the sample's ENSEMBLE_TILTED
    words.
    """
    check_samples(samples)
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError("walk length must be even and positive")
    n = two_n // 2
    size = dist.size()
    lengths = np.array([len(g) for g in dist.support], dtype=np.int64)
    table = _letter_table(dist)
    wmax = table.shape[1]
    span = wmax + 1
    # per (word s, tilt index, cancellations c), tilt index 0, 1, 2 meaning
    # theta = 0, thetas[0], thetas[1]: mu(g_s) exp(-theta D) and theta D
    theta_values = np.array([0.0, float(thetas[0]), float(thetas[1])])
    increments = lengths[:, None, None] - 2 * np.arange(span)[None, None, :]
    tilt_d = theta_values[None, :, None] * increments
    weight_table = (dist.weights[:, None, None] * np.exp(-tilt_d)).reshape(-1)
    tilt_d = tilt_d.reshape(-1)
    word_base = (np.arange(size) * (3 * span))[:, None]

    def run_block(lo: int, hi: int):
        rows = hi - lo
        stack, base, top, push = _letter_stacks(table, rows, two_n)
        flat = stack.reshape(-1)
        row_ids = np.arange(rows)
        log_w = np.zeros(rows)
        tilt = np.ones(rows, dtype=np.int64)
        for i, words in enumerate(block_words(seed, lo, hi, ENSEMBLE_TILTED, two_n)):
            u = uniforms(words)
            if i == n:
                # w_n's letters sit at flat indices base + 1 .. base + k
                mid_flat, k = flat.copy(), top - base
                j = k.copy()
            if i >= n:
                tilt = np.where(2 * j >= k, 2, 0)
            cancelled = _cancellations(flat, top, table, lengths)
            cell = word_base + tilt * span + cancelled
            cum = weight_table.take(cell)
            for s in range(1, size):
                cum[s] += cum[s - 1]
            choice = (cum[:-1] <= u * cum[-1]).sum(axis=0)
            pick = choice * rows + row_ids
            log_w += np.log(cum[-1]) + tilt_d.take(cell.reshape(-1).take(pick))
            if i < n:
                push(choice)
                continue
            # the chosen word cancels c letters of x, which keeps at most its
            # first |x| - c letters on the w_n path
            j = np.minimum(j, top - base - cancelled.reshape(-1).take(pick))
            push(choice)
            # the pushed letters extend the common prefix while they match
            # w_n's; a row off the path already mismatches at j
            limit = np.minimum(top - base, k)
            for _ in range(wmax):
                j += (j < limit) & (flat.take(base + 1 + j) == mid_flat.take(base + 1 + j))
        return 2 * j < k, log_w

    parts = _run_blocks(run_block, samples, threads)
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


