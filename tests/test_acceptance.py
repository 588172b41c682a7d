"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them all).

Criterion 10's midpoint half asks for three positive, strictly decreasing
failure probabilities at walk lengths {100, 200, 400}.  The exact values
(`tests/exact.py`) are 3.80e-5, 2.13e-8 and 8.78e-15, so counting hits among
1e5 plain walks sees the first at best: 2.13e-8 is 0.002 expected hits.
`stats.midpoint_failure_tilted` therefore estimates them by importance
sampling, tilting the step law toward cancellation, and
tests/test_midpoint.py checks that estimator against the exact values.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from hypwalk import stats, suites
from hypwalk.models import bounded_bfs_distances, get_model, slope_distance
from hypwalk.models.farey import INFINITY, Slope
from hypwalk.models.free import FreeWord, cyclic_reduce
from hypwalk.walk import StepDistribution

free = get_model("free")
farey = get_model("farey")
W = FreeWord.from_str

FREE_UNIFORM = StepDistribution([W("a"), W("A"), W("b"), W("B")], [0.25] * 4)
FAREY_UNIFORM = StepDistribution(
    [farey.parse("[[1,1],[0,1]]"), farey.parse("[[1,0],[1,1]]"),
     farey.parse("[[1,-1],[0,1]]"), farey.parse("[[1,0],[-1,1]]")],
    [0.25] * 4,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def test_criterion_01_exact_geometry_suite():
    t0 = time.perf_counter()
    constants = suites.calibrate_constants(free, seed=1001, instances=500)
    results = suites.run_all_suites(free, instances=10_000, seed=1002,
                                    constants=constants)
    elapsed = time.perf_counter() - t0
    failures = {r.name: r.failures for r in results}
    counts = {r.name: r.instances for r in results}
    ok = all(f == 0 for f in failures.values())
    ok &= all(c == 10_000 for c in counts.values())
    ok &= elapsed < 30.0
    assert report(
        "1 exact-geometry",
        ok,
        f"10^4 instances/suite, failures={failures}, "
        f"constants={constants}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_translation_conjugacy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    one = free.identity()
    for _ in range(10_000):
        g = free.sample_word(rng, int(rng.integers(0, 41)))
        tau = free.translation_length(g)
        core, v = cyclic_reduce(g)
        if tau != len(core):
            mismatches += 1
            continue
        # independent oracle: naive peel, and the limit law d(1,g^m) = m*tau + 2|v|
        seq = list(g.letters)
        while len(seq) >= 2 and seq[0] == -seq[-1]:
            seq = seq[1:-1]
        if tau != len(seq):
            mismatches += 1
            continue
        if not g.is_identity():
            p = free.multiply(g, g)
            if free.distance(one, p) != 2 * tau + 2 * len(v):
                mismatches += 1

    assert (suites.CORE_MAX, suites.CONJ_MAX) == (3, 20)
    conj = suites.conjugacy_suite(free, 10_000, np.random.default_rng(2025), slack=2.0)
    fitted = conj.fitted["smallest_sufficient"]
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and conj.failures == 0 and fitted <= 2.0
    assert report(
        "2 translation-conjugacy",
        ok,
        f"tau=[g] mismatches={mismatches}/10^4, conjugator-condition "
        f"failures={conj.failures}/10^4, fitted slack={fitted} (<= 2)",
    )


def test_criterion_03_farey_distance_oracle_equivalence():
    t0 = time.perf_counter()
    oracle_1 = bounded_bfs_distances(q_max=50, value_bound=4)
    oracle_2 = bounded_bfs_distances(q_max=100, value_bound=8)
    mismatches = 0
    unstable = 0
    checked = 0
    for q in range(1, 51):
        for p in range(0, q):
            if math.gcd(p, q) != 1:
                continue
            s = Slope(p, q)
            checked += 1
            fast = slope_distance(INFINITY, s)
            if oracle_1[s] != oracle_2[s]:
                unstable += 1
            if fast != oracle_1[s]:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and unstable == 0 and elapsed < 120.0
    assert report(
        "3 farey-oracle",
        ok,
        f"{checked} slopes with q <= 50: mismatches={mismatches}, "
        f"oracle drift under doubling={unstable}, {elapsed:.1f}s (< 2min)",
    )


def test_criterion_04_drift_rate():
    t0 = time.perf_counter()
    est = stats.drift(free, FREE_UNIFORM, n=2000, samples=2000, seed=404)
    elapsed = time.perf_counter() - t0
    ok = abs(est.rate - 0.50) <= 0.02 and elapsed < 60.0
    assert report(
        "4 drift",
        ok,
        f"rate={est.rate:.4f} (0.50 +- 0.02), ci=({est.ci_low:.4f}, "
        f"{est.ci_high:.4f}), {elapsed:.1f}s (< 1min)",
    )


def test_criterion_05_linear_progress_decay():
    t0 = time.perf_counter()
    res = stats.linear_progress_decay(
        free, FREE_UNIFORM, L=0.25, n_grid=list(range(50, 401, 50)),
        samples=100_000, seed=505,
    )
    elapsed = time.perf_counter() - t0
    fit = res.fit
    ok = fit is not None and fit.slope < 0 and fit.r_squared >= 0.9 and fit.c < 1
    ok &= elapsed < 300.0
    assert report(
        "5 linear-progress",
        ok,
        f"p={res.series.probabilities}, slope={fit.slope:.4f}, c={fit.c:.4f}, "
        f"R2={fit.r_squared:.4f}, zero bins excluded={fit.points_excluded}, "
        f"{elapsed:.1f}s (< 5min)",
    )


def test_criterion_06_translation_decay_farey():
    t0 = time.perf_counter()
    res = stats.translation_decay(
        farey, FAREY_UNIFORM, B=0.0, n_grid=list(range(10, 81, 10)),
        samples=10_000, seed=606,
    )
    elapsed = time.perf_counter() - t0
    p = res.series.probabilities
    fit = res.fit
    strictly_decreasing = all(b < a for a, b in zip(p, p[1:]))
    ok = strictly_decreasing and fit is not None and fit.slope < 0
    ok &= fit is not None and fit.r_squared >= 0.9
    ok &= elapsed < 300.0
    assert report(
        "6 translation-decay",
        ok,
        f"p={p}, strictly decreasing={strictly_decreasing}, "
        f"slope={fit.slope:.4f}, R2={fit.r_squared:.4f}, {elapsed:.1f}s (< 5min)",
    )


def test_criterion_07_shadow_decay_uniform_in_n():
    t0 = time.perf_counter()
    results = stats.shadow_measure_decay(
        free, FREE_UNIFORM, n_grid=[50, 100], center_distance=20,
        r_grid=[float(r) for r in range(2, 15)], samples=100_000, seed=707,
    )
    fits = {n: res.fit for n, res in zip((50, 100), results)}
    elapsed = time.perf_counter() - t0
    ok = all(f is not None and f.c < 1 and f.r_squared >= 0.9 for f in fits.values())
    ratio = fits[100].c / fits[50].c if fits[50].c <= fits[100].c else fits[50].c / fits[100].c
    ok &= ratio <= 2.0
    assert report(
        "7 shadow-decay",
        ok,
        f"c(n=50)={fits[50].c:.4f} R2={fits[50].r_squared:.4f}, "
        f"c(n=100)={fits[100].c:.4f} R2={fits[100].r_squared:.4f}, "
        f"ratio={ratio:.3f} (<= 2), {elapsed:.1f}s",
    )


def test_criterion_08_backtrack_tail_and_z_sum():
    t0 = time.perf_counter()
    cs = {}
    for k in (5, 10, 20):
        res = stats.backtrack_tail(
            free, FREE_UNIFORM, k=k, n=10 * k, samples=10_000, seed=808,
            thresholds=[float(r) for r in range(0, 13, 2)],
        )
        assert res.diagnostics["increments"] == 100_000
        cs[k] = res.fit.c if res.fit else float("nan")
    ratio = max(cs.values()) / min(cs.values())
    zres = stats.z_sum_deviation(
        free, FREE_UNIFORM, k=10, L=None, L_factor=2.0,
        samples=50_000, seed=809, n_grid=[10, 20, 30, 40, 60, 80, 100, 120],
    )
    elapsed = time.perf_counter() - t0
    zfit = zres.fit
    ok = all(c < 1 for c in cs.values()) and ratio <= 2.0
    ok &= zfit is not None and zfit.slope < 0 and zfit.r_squared >= 0.85
    assert report(
        "8 backtrack",
        ok,
        f"c per k={ {k: round(c, 4) for k, c in cs.items()} }, ratio={ratio:.3f} "
        f"(<= 2); z-sum slope={zfit.slope:.4f}, R2={zfit.r_squared:.4f} "
        f"(>= 0.85), {elapsed:.1f}s",
    )


def test_criterion_09_chernoff_grid():
    t0 = time.perf_counter()
    worst_gap = 0.0
    all_below = True
    bound_exact = True
    for t in (0.5, 1.0, 2.0):
        for n in (5, 10, 20):
            emp, bound = stats.chernoff_empirical(1.0, t, n, samples=100_000, seed=909)
            direct = ((1.0 + t) / math.exp(t)) ** n
            bound_exact &= abs(bound - direct) <= 1e-12
            all_below &= emp <= bound
            worst_gap = max(worst_gap, emp - bound)
    spot = stats.chernoff_bound(1.0, 10)
    bound_exact &= abs(spot - 0.046489528076784505) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = all_below and bound_exact
    assert report(
        "9 chernoff",
        ok,
        f"empirical <= bound on all 9 cells={all_below}, closed form to "
        f"1e-12={bound_exact}, bound(t=1,n=10)={spot:.6f} (~0.0465), "
        f"{elapsed:.1f}s",
    )


def test_criterion_10a_midpoint_failure_decay():
    # Stated at the pinned walk lengths {100, 200, 400}; see the module
    # docstring for the estimator this needs.
    t0 = time.perf_counter()
    res = stats.midpoint_failure_tilted(free, FREE_UNIFORM, [100, 200, 400],
                                        samples=100_000, seed=1010)
    elapsed = time.perf_counter() - t0
    p = res.series.probabilities
    strictly_decreasing = all(b < a for a, b in zip(p, p[1:]))
    fit_ok = res.fit is not None and res.fit.slope < 0
    ok = strictly_decreasing and fit_ok
    assert report(
        "10a midpoint",
        ok,
        f"failure probabilities={p} at lengths (100, 200, 400); strictly "
        f"decreasing={strictly_decreasing}, fit={'none' if res.fit is None else res.fit.slope}"
        f" ({elapsed:.1f}s); exact 3.80e-5, 2.13e-8, 8.78e-15: the failure "
        f"probability is 2.13e-8 at length 200, so these are importance-sampled",
    )


def test_criterion_10b_diagonal_decay():
    t0 = time.perf_counter()
    res = stats.diagonal_event_decay(
        free, FREE_UNIFORM, n=200, r_grid=[float(r) for r in range(1, 11)],
        samples=100_000, seed=1011,
    )
    elapsed = time.perf_counter() - t0
    fit = res.fit
    ok = fit is not None and fit.slope < 0 and fit.c < 1 and fit.r_squared >= 0.9
    assert report(
        "10b diagonal",
        ok,
        f"c={fit.c:.4f}, R2={fit.r_squared:.4f}, slope={fit.slope:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "model": "farey",
        "distribution": [["[[1,1],[0,1]]", 0.25], ["[[1,0],[1,1]]", 0.25],
                         ["[[1,-1],[0,1]]", 0.25], ["[[1,0],[-1,1]]", 0.25]],
        "seed": 1111,
        "samples": 2000,
        "B": 0.0,
        "n_grid": [10, 20, 30],
        "output_path": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "hypwalk.cli", "translation-decay",
             "--config", str(cfg_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return (
            (tmp_path / "out" / "series.csv").read_bytes(),
            (tmp_path / "out" / "summary.json").read_bytes(),
        )

    first = run()
    second = run()
    ok = first == second
    assert report(
        "11 determinism",
        ok,
        f"series.csv bytes equal={first[0] == second[0]}, "
        f"summary.json bytes equal={first[1] == second[1]}",
    )
