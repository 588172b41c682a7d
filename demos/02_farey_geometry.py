"""
SL(2,Z) on the Farey graph
==========================

Slopes, the improper metric, the exact distance algorithm against the
brute-force oracle, and the empirical hyperbolicity constant.
"""

from hypwalk import FareyModel, estimate_delta
from hypwalk.engines import ENSEMBLE_CALIBRATE
from hypwalk.models.farey import (
    INFINITY,
    L,
    R,
    FareyElement,
    Slope,
    bounded_bfs_distances,
    slope_distance,
)
from hypwalk.walk import StreamDraws

farey = FareyModel()

# %% The improper metric: R fixes the basepoint 1/0, so d(I, R) = 0.
one = farey.identity()
print("d(I, L) =", farey.distance(one, L), "   d(I, R) =", farey.distance(one, R))

# %% Distances to infinity drop out of continued-fraction structure.
for s in (Slope(0, 1), Slope(1, 2), Slope(2, 5), Slope(13, 34), Slope(355, 113)):
    print(f"d(1/0, {s.to_str():>8}) = {slope_distance(INFINITY, s)}")

# %% The fast algorithm agrees with breadth-first search on a bounded subgraph.
oracle = bounded_bfs_distances(q_max=30, value_bound=4)
mismatch = sum(
    1 for s, d in oracle.items() if slope_distance(INFINITY, s) != d
)
print(f"\nBFS oracle comparison on {len(oracle)} vertices: {mismatch} mismatches")

# %% Anosov elements move every vertex: distances to powers grow linearly.
g = FareyElement(2, 1, 1, 1)
dists = []
power = one
for _ in range(12):
    power = power * g
    dists.append(farey.distance(one, power))
print("\nd(1, g^m) for g = [[2,1],[1,1]]:", dists)
print("translation length:", farey.translation_length(g))

# %% The four-point hyperbolicity defect.  The largest seen is 1.0, but only
# about 1.3e-4 of radius-8 quadruples show it: 4 000 quadruples see it with
# probability about 0.4, and otherwise read 0.5, a lower bound.  Its
# quadruples come from the keyed Philox stream that calibration reads at
# seed 3.
print("\nempirical four-point defect:",
      estimate_delta(farey, 4000, radius=8, rng=StreamDraws(3, ENSEMBLE_CALIBRATE)))
