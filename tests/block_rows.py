"""Every row of the engines, for tests that read values sample by sample.

`engines.observe` returns only what a reducer keeps of each block.
`observe_rows` keeps all of an observer's rows and concatenates the blocks
into one array per checkpoint; a pair of arrays, as `pair_products` yields,
becomes the two columns of one.  `iterated_rows` does the same for the
k-iterated walk's segment lengths Y and backtracks Z.
"""

import numpy as np

from hypwalk import engines, stats


def observe_rows(model, dist, checkpoints, observer, samples, seed, **kwargs) -> dict:
    """{checkpoint: the observer's rows over all samples}."""
    def rows(geom, walk):
        return [np.stack(v, axis=1) if isinstance(v, tuple) else v
                for v in observer(geom, walk)]

    parts = engines.observe(model, dist, checkpoints, rows, samples, seed, **kwargs)
    return {t: np.concatenate(column)
            for t, column in zip(sorted(set(checkpoints)), zip(*parts))}


def iterated_rows(model, dist, k, n_iter, samples, seed, threads=1):
    """(Y, Z), each of shape (n_iter, samples): Y[i] = d(w_ik, w_(i+1)k) and
    Z[i] its backtrack, as `stats._iterated_increments` yields them."""
    parts = stats._iterated_increments(model, dist, k, n_iter,
                                       lambda increments: np.array(list(increments)),
                                       samples, seed, threads)
    Y, Z = np.concatenate(parts, axis=2).transpose(1, 0, 2)
    return Y, Z
