"""Experiment driver: one subcommand per decay claim.

Every subcommand runs on both models, "free" (F2 on its tree) and "farey"
(SL(2,Z) on the Farey graph).  Each run writes three files under the
config's output_path:

  series.csv     the estimated series (schema per subcommand, below)
  summary.json   fit constants, diagnostics, sample counts, seed, and the
                 config digest; byte-identical across reruns of one config
  manifest.json  config digest, artifact version, wall time, file list, and
                 for props the trials each suite ran, valid or not
                 (`suite_attempts`); wall time varies, so the manifest is
                 excluded from the reproducibility contract

Exit codes: 0 success, 2 malformed config (including NaN, Infinity or
an out-of-range number such as 1e400 anywhere in it, or samples above
2^48), --threads below 1 or an output_path that cannot be written (say,
one under a regular file), 3 precondition failure (for example an
elementary step distribution), 4 statistical assertion failure when
--assert is passed.  Errors print one machine-parsable line to stderr:
"hypwalk: error code=<n> reason=<text>".

CSV schemas (floats printed with 17 significant digits):
  drift                n,rate,ci_low,ci_high
  linear-progress      x,p,ci_low,ci_high          (x = walk length n)
  translation-decay    x,p,ci_low,ci_high          (x = walk length n)
  z-sum                x,p,ci_low,ci_high          (x = iterated steps m)
  bernstein            x,p,ci_low,ci_high          (x = iterated steps m)
  midpoint             x,p,ci_low,ci_high          (x = walk length 2n; p = failure freq)
  diagonal             x,p,ci_low,ci_high          (x = shadow radius r)
  backtrack            x,p,ci_low,ci_high          (x = backtrack size r)
  shadow-decay         n,x,p,ci_low,ci_high        (x = shadow radius r)
  chernoff             t,n,empirical,bound
  props                suite,instances,failures
  calibrate            constant,value
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__, stats, suites
from .config import SUBCOMMANDS, ExperimentConfig, validate_config
from .errors import (
    ConfigError,
    ElementaryDistributionError,
    PreconditionError,
    UnsatisfiableConfigError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_ASSERT = 4


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _fit_dict(fit) -> dict | None:
    return None if fit is None else dataclasses.asdict(fit)


def _decay_assertion(result, r2_min: float = 0.9, strict_decrease: bool = False) -> dict:
    """Standard decay assertion: either all probabilities are already zero,
    or a fit exists with negative slope, c < 1, and R^2 over the floor."""
    probs = result.series.probabilities
    checks = {}
    if strict_decrease:
        checks["strictly_decreasing"] = all(
            b < a for a, b in zip(probs, probs[1:])
        )
    if all(p == 0.0 for p in probs):
        checks["all_zero"] = True
        checks["fit"] = False if strict_decrease else True
        return checks
    fit = result.fit
    checks["fit"] = (
        fit is not None and fit.slope < 0 and fit.c < 1 and fit.r_squared >= r2_min
    )
    return checks


def _run_drift(cfg: ExperimentConfig, threads: int):
    model, dist = cfg.step_distribution()
    est = stats.drift(model, dist, cfg.n, cfg.samples, cfg.seed, confidence=cfg.confidence,
                      threads=threads)
    rows = [(cfg.n, est.rate, est.ci_low, est.ci_high)]
    summary = {
        "rate": est.rate,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "n": est.n,
    }
    checks = {}
    if cfg.assert_rate is not None:  # config validation pairs it with assert_rate_tol
        checks["rate_within_tolerance"] = (
            abs(est.rate - cfg.assert_rate) <= cfg.assert_rate_tol
        )
    return "n,rate,ci_low,ci_high", rows, summary, checks


def _series(estimate, checks=_decay_assertion):
    """The handler of a subcommand that writes x,p,ci_low,ci_high:
    estimate(cfg, model, dist, common) calls its estimator, with common the
    keyword arguments every estimator takes, and checks(result) gives its
    assertions."""

    def run(cfg: ExperimentConfig, threads: int):
        model, dist = cfg.step_distribution()
        res = estimate(cfg, model, dist, {"confidence": cfg.confidence, "threads": threads})
        summary = {"fit": _fit_dict(res.fit), "diagnostics": res.diagnostics}
        return "x,p,ci_low,ci_high", res.series.rows(), summary, checks(res)

    return run


def _midpoint_checks(res) -> dict:
    probs = res.series.probabilities
    return {
        "strictly_decreasing": all(b < a for a, b in zip(probs, probs[1:])),
        "fit": res.fit is not None and res.fit.slope < 0,
    }


def _run_shadow_decay(cfg: ExperimentConfig, threads: int):
    model, dist = cfg.step_distribution()
    results = stats.shadow_measure_decay(model, dist, cfg.n_grid, cfg.center_distance,
                                         cfg.r_grid, cfg.samples, cfg.seed,
                                         confidence=cfg.confidence, threads=threads)
    rows = [(n, *row) for n, res in zip(cfg.n_grid, results) for row in res.series.rows()]
    fits = {str(n): _fit_dict(res.fit) for n, res in zip(cfg.n_grid, results)}
    diagnostics = {str(n): res.diagnostics for n, res in zip(cfg.n_grid, results)}
    cs = [f["c"] for f in fits.values() if f is not None]
    stability = max(cs) / min(cs) if len(cs) >= 2 and min(cs) > 0 else None
    checks = {
        "fits": all(
            f is not None and f["c"] < 1 and f["r_squared"] >= 0.9
            for f in fits.values()
        ),
    }
    if stability is not None:
        checks["c_stable_across_n"] = stability <= 2.0
    # harmonic measure is approximated by the walk law at the largest n of
    # the sweep; the largest change in shadow probability between successive
    # n values is the convergence diagnostic for that approximation
    convergence = None
    if len(cfg.n_grid) >= 2:
        by_n = {n: [p for (m, _x, p, _lo, _hi) in rows if m == n] for n in cfg.n_grid}
        convergence = max(
            abs(a - b)
            for n1, n2 in zip(cfg.n_grid, cfg.n_grid[1:])
            for a, b in zip(by_n[n1], by_n[n2])
        )
    summary = {
        "fits": fits,
        "diagnostics": diagnostics,
        "c_ratio_across_n": stability,
        "harmonic_approximation_n": cfg.n_grid[-1],
        "harmonic_convergence_delta": convergence,
    }
    return "n,x,p,ci_low,ci_high", rows, summary, checks


def _run_chernoff(cfg: ExperimentConfig, threads: int):
    rows = []
    ok = True
    for t in cfg.t_grid:
        for n in cfg.n_grid:
            emp, bound = stats.chernoff_empirical(cfg.rate_mean, t, int(n), cfg.samples,
                                                  cfg.seed)
            rows.append((t, int(n), emp, bound))
            ok &= emp <= bound
    summary = {"cells": len(rows), "rate_mean": cfg.rate_mean}
    return "t,n,empirical,bound", rows, summary, {"empirical_below_bound": ok}


def _run_props(cfg: ExperimentConfig, threads: int):
    from .models import get_model

    model = get_model(cfg.model)
    results = suites.run_all_suites(model, instances=cfg.samples, seed=cfg.seed)
    rows = [(r.name, r.instances, r.failures) for r in results]
    summary = {
        "suites": {
            r.name: {"instances": r.instances, "failures": r.failures, "fitted": r.fitted}
            for r in results
        },
        "all_passed": all(r.passed for r in results),
    }
    attempts = {"suite_attempts": {r.name: r.attempts for r in results}}
    return ("suite,instances,failures", rows, summary, {"all_passed": summary["all_passed"]},
            attempts)


def _run_calibrate(cfg: ExperimentConfig, threads: int):
    from .models import get_model

    model = get_model(cfg.model)
    constants = suites.calibrate_constants(model, seed=cfg.seed, instances=cfg.samples)
    rows = sorted(constants.items())
    return "constant,value", rows, {"constants": constants}, {}


_HANDLERS = {
    "drift": _run_drift,
    "linear-progress": _series(lambda cfg, model, dist, common: stats.linear_progress_decay(
        model, dist, cfg.L, cfg.n_grid, cfg.samples, cfg.seed, **common)),
    "translation-decay": _series(
        lambda cfg, model, dist, common: stats.translation_decay(
            model, dist, cfg.B, cfg.n_grid, cfg.samples, cfg.seed, **common),
        lambda res: _decay_assertion(res, strict_decrease=True)),
    "shadow-decay": _run_shadow_decay,
    "backtrack": _series(lambda cfg, model, dist, common: stats.backtrack_tail(
        model, dist, cfg.k, cfg.n, cfg.samples, cfg.seed, thresholds=cfg.r_grid, **common)),
    "z-sum": _series(
        lambda cfg, model, dist, common: stats.z_sum_deviation(
            model, dist, cfg.k, cfg.L, cfg.n_grid, cfg.samples, cfg.seed,
            L_factor=cfg.L_factor, **common),
        lambda res: _decay_assertion(res, r2_min=0.85)),
    "bernstein": _series(
        lambda cfg, model, dist, common: stats.bernstein_check(
            model, dist, cfg.k, cfg.epsilon, cfg.n_grid, cfg.samples, cfg.seed,
            epsilon_factor=cfg.epsilon_factor, **common),
        lambda res: _decay_assertion(res, r2_min=0.85)),
    "chernoff": _run_chernoff,
    "midpoint": _series(
        lambda cfg, model, dist, common: stats.midpoint_failure_decay(
            model, dist, cfg.n_grid, cfg.samples, cfg.seed, **common),
        _midpoint_checks),
    "diagonal": _series(lambda cfg, model, dist, common: stats.diagonal_event_decay(
        model, dist, cfg.n, cfg.r_grid, cfg.samples, cfg.seed, **common)),
    "props": _run_props,
    "calibrate": _run_calibrate,
}


def _write_outputs(cfg: ExperimentConfig, subcommand: str, header: str,
                   rows, summary: dict, checks: dict, wall_time: float,
                   manifest_extra: dict | None = None) -> list[str]:
    out_dir = Path(cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()

    series_path = out_dir / "series.csv"
    with open(series_path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    summary_path = out_dir / "summary.json"
    summary_doc = {
        "subcommand": subcommand,
        "config_digest": digest,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "model": cfg.model,
        "version": __version__,
        "assertions": checks,
        **summary,
    }
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(summary_doc, fh, sort_keys=True, indent=2)
        fh.write("\n")

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "config_digest": digest,
        "version": __version__,
        "wall_time_seconds": wall_time,
        "files": ["series.csv", "summary.json"],
        **(manifest_extra or {}),
    }
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return [str(series_path), str(summary_path), str(manifest_path)]


def _error(code: int, reason: str) -> int:
    print(f"hypwalk: error code={code} reason={reason}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: the subcommand is a positional
    choice, and every subcommand takes the same options."""
    parser = argparse.ArgumentParser(
        prog="hypwalk",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--assert", dest="do_assert", action="store_true",
                        help="exit 4 unless the acceptance assertions hold")
    parser.add_argument("--threads", type=int, default=1, help="worker cap (default: 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        return _error(EXIT_CONFIG, "--threads must be >= 1")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return _error(EXIT_CONFIG, f"cannot read config: {exc}")
    try:
        cfg = validate_config(text)
        cfg.require(args.subcommand)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"hypwalk: config: {v}", file=sys.stderr)
        return _error(EXIT_CONFIG, f"{len(exc.violations)} config violation(s)")

    t0 = time.perf_counter()
    try:
        # a handler may add a fifth item: manifest-only fields
        header, rows, summary, checks, *extra = _HANDLERS[args.subcommand](cfg, args.threads)
    except (ElementaryDistributionError, PreconditionError, UnsatisfiableConfigError) as exc:
        return _error(EXIT_PRECONDITION, str(exc))
    except ValueError as exc:
        return _error(EXIT_CONFIG, str(exc))
    wall = time.perf_counter() - t0
    try:
        _write_outputs(cfg, args.subcommand, header, rows, summary, checks, wall, *extra)
    except OSError as exc:
        return _error(EXIT_CONFIG, f"cannot write outputs: {exc}")

    if args.subcommand == "props" and not checks.get("all_passed", False):
        return _error(EXIT_ASSERT, "property suite failures")
    if args.do_assert and checks and not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        return _error(EXIT_ASSERT, f"assertions failed: {','.join(failed)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
