"""
Backtracking of the iterated walk, and concentration bounds
===========================================================

View the walk k steps at a time: each segment travels Y_i, the distance
from the origin moves by X_i, and the difference Z_i = Y_i - X_i is the
backtracking.  Backtrack tails decay exponentially with a rate that does
not depend on k, sums of backtracks rarely exceed twice their mean, and
the exceedance of exponential sums respects the closed-form bound
((1 + t)/e^t)^n.
"""

import numpy as np

from hypwalk import chernoff_bound, chernoff_empirical, get_model, iterated_decomposition, sample_walk
from hypwalk.models.free import FreeWord
from hypwalk.stats import backtrack_tail, z_sum_deviation
from hypwalk.walk import StepDistribution

free = get_model("free")
W = FreeWord.from_str
uniform = StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)

# %% One walk, decomposed: the X increments telescope to the final distance.
walk = sample_walk(free, uniform, 60, seed=41)
dec = iterated_decomposition(free, walk, k=10)
print("Y (segment lengths):", dec.Y.astype(int))
print("X (distance gains): ", dec.X.astype(int))
print("Z (backtracks):     ", dec.Z.astype(int))
print("sum X =", int(dec.X.sum()), "= d(1, w_60) =", int(walk.distances[60]))

# %% Pooled backtrack tails for several k: the decay rate is k-independent.
for k in (5, 10, 20):
    res = backtrack_tail(free, uniform, k=k, n=10 * k, samples=4000, seed=42,
                         thresholds=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    print(f"k = {k:>2}: c = {res.fit.c:.4f}  mean Z = {res.diagnostics['mean_z']:.3f}"
          f"  mean Y = {res.diagnostics['mean_y']:.3f}")

# %% Large sums of backtracks are exponentially rare.
res = z_sum_deviation(free, uniform, k=10, L=None, L_factor=2.0,
                      samples=20_000, seed=43, n_grid=[10, 20, 30, 40, 60])
print("\nP(sum Z >= 2 mean m):", [round(p, 5) for p in res.series.probabilities])

# %% The exponential-sum bound, tested against fresh draws.
print("\n(t, n): empirical vs bound")
for t in (0.5, 1.0, 2.0):
    emp, bound = chernoff_empirical(1.0, t, 10, samples=50_000, seed=44)
    print(f"  ({t}, 10): {emp:.5f} <= {bound:.5f}  ({emp <= bound})")
print("bound(t=1, n=10) =", chernoff_bound(1.0, 10))
