"""
Shadows and their inclusion laws
================================

A shadow S_z(x, r) is the coarse cone behind x seen from z.  This demo
checks membership on hand-built points, then calibrates the slack
constants of the inclusion laws and verifies them on fresh random
instances in both models.
"""

import numpy as np

from hypwalk import Shadow, get_model, gromov_product, in_shadow
from hypwalk.models.free import FreeWord
from hypwalk.suites import calibrate_constants, run_all_suites

free = get_model("free")
farey = get_model("farey")
W = FreeWord.from_str

# %% Membership is a Gromov-product threshold.
s = Shadow(W(""), W("aaaaa"), 3)
for text in ("aaab", "aaaa", "bbbb", "ab"):
    y = W(text)
    gp = gromov_product(free, s.viewpoint, s.center, y)
    print(f"(a^5 . {text:>4})_1 = {gp:>3}  ->  in 3-shadow: {in_shadow(free, s, y)}")

# %% Slack constants are calibration outputs, not inputs: search the smallest
# values with no counterexample, then verify on a fresh batch.
for model in (free, farey):
    constants = calibrate_constants(model, seed=21, instances=300)
    print(f"\n{model.name} fitted constants: {constants}")
    results = run_all_suites(model, instances=1000, seed=22, constants=constants)
    for r in results:
        status = "ok" if r.passed else f"{r.failures} FAILURES"
        print(f"  {r.name:<28} {r.instances:>5} instances  {status}")

# %% In the tree every statement is exact; the shadow-complement slack of 0.5
# exists only because closed shadows tie at integer thresholds.
from hypwalk import estimate_delta
from hypwalk.engines import ENSEMBLE_CALIBRATE
from hypwalk.walk import StreamDraws

print("\ntree four-point defect (exactly 0):",
      estimate_delta(free, 2000, 12, rng=StreamDraws(5, ENSEMBLE_CALIBRATE)))
