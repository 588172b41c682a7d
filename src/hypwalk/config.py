"""Experiment configuration: a JSON document with a canonical serialization.

The canonical form (parsed, elements renormalized to their canonical text,
keys sorted, no whitespace) is hashed into the config digest embedded in
every output, so identical configs are recognizable across platforms and
reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .models import MODEL_NAMES, get_model

SUBCOMMANDS = (
    "drift",
    "linear-progress",
    "translation-decay",
    "shadow-decay",
    "backtrack",
    "z-sum",
    "bernstein",
    "chernoff",
    "midpoint",
    "diagonal",
    "props",
    "calibrate",
)

# fields a subcommand requires beyond (model, distribution, seed, samples)
REQUIRED_FIELDS = {
    "drift": ("n",),
    "linear-progress": ("L", "n_grid"),
    "translation-decay": ("B", "n_grid"),
    "shadow-decay": ("n_grid", "center_distance", "r_grid"),
    "backtrack": ("k", "n"),
    "z-sum": ("k", "n_grid"),
    "bernstein": ("k", "n_grid"),
    "chernoff": ("t_grid", "n_grid", "rate_mean"),
    "midpoint": ("n_grid",),
    "diagonal": ("n", "r_grid"),
    "props": (),
    "calibrate": (),
}

_MAX_SEED = (1 << 64) - 1


@dataclass
class ExperimentConfig:
    model: str
    distribution: list[tuple[str, float]]
    seed: int
    samples: int
    output_path: str
    n: int | None = None
    n_grid: list[int] | None = None
    k: int | None = None
    B: float | None = None
    L: float | None = None
    L_factor: float | None = None
    epsilon: float | None = None
    epsilon_factor: float | None = None
    r_grid: list[float] | None = None
    t_grid: list[float] | None = None
    rate_mean: float | None = None
    center_distance: int | None = None
    # inert: translation lengths are exact; kept for the config digest
    horizon: int = 64
    confidence: float = 0.95
    assert_rate: float | None = None
    assert_rate_tol: float | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def canonical_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "model": self.model,
            "distribution": [[e, w] for e, w in self.distribution],
            "seed": self.seed,
            "samples": self.samples,
            "output_path": self.output_path,
            "horizon": self.horizon,
            "confidence": self.confidence,
        }
        for key in ("n", "n_grid", "k", "B", "L", "L_factor", "epsilon",
                    "epsilon_factor", "r_grid", "t_grid", "rate_mean",
                    "center_distance", "assert_rate", "assert_rate_tol"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def canonical_text(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def step_distribution(self):
        from .walk import StepDistribution

        model = get_model(self.model)
        support = [model.parse(text) for text, _ in self.distribution]
        weights = [w for _, w in self.distribution]
        return model, StepDistribution(support, weights)

    def require(self, subcommand: str) -> None:
        missing = [f for f in REQUIRED_FIELDS[subcommand] if getattr(self, f) is None]
        if subcommand in ("z-sum",) and self.L is None and self.L_factor is None:
            missing.append("L (or L_factor)")
        if subcommand in ("bernstein",) and self.epsilon is None and self.epsilon_factor is None:
            missing.append("epsilon (or epsilon_factor)")
        violations = [f"subcommand {subcommand!r} requires field {f!r}" for f in missing]
        # inputs the estimators would reject only after the run has started
        if subcommand == "drift" and self.samples < 2:
            violations.append("drift requires samples >= 2 (its interval uses the sample "
                              "standard deviation)")
        if subcommand == "chernoff" and self.t_grid and min(self.t_grid) < 0:
            violations.append("t_grid entries must be >= 0 for chernoff")
        if subcommand == "midpoint" and self.n_grid and any(x % 2 for x in self.n_grid):
            violations.append("n_grid entries must be even walk lengths 2n for midpoint")
        if (subcommand == "backtrack" and self.n is not None and self.k is not None
                and self.n < self.k):
            violations.append("backtrack requires n >= k")
        if violations:
            raise ConfigError(violations)


def _check_grid(errors: list[str], name: str, grid, numeric=(int, float)) -> list | None:
    if grid is None:
        return None
    if not isinstance(grid, list) or not grid:
        errors.append(f"{name} must be a non-empty list")
        return None
    if not all(isinstance(x, numeric) and not isinstance(x, bool) for x in grid):
        errors.append(f"{name} entries must be numbers")
        return None
    if any(b <= a for a, b in zip(grid, grid[1:])):
        errors.append(f"{name} must be strictly ascending")
        return None
    return list(grid)


def validate_config(text: str) -> ExperimentConfig:
    """Parse and normalize a config document, reporting every violation
    found (not just the first) via ConfigError."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    model_name = raw.get("model")
    model = None
    if model_name not in MODEL_NAMES:
        errors.append(f"unknown model {model_name!r}; allowed: {MODEL_NAMES}")
    else:
        model = get_model(model_name)

    distribution: list[tuple[str, float]] = []
    dist_raw = raw.get("distribution")
    if not isinstance(dist_raw, list) or not dist_raw:
        errors.append("distribution must be a non-empty list of [element, weight] pairs")
    else:
        total = 0.0
        seen = set()
        for i, pair in enumerate(dist_raw):
            if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
                errors.append(f"distribution[{i}] must be an [element, weight] pair")
                continue
            elt_text, weight = pair
            if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight <= 0:
                errors.append(f"distribution[{i}] weight must be a positive number")
                continue
            canon = elt_text
            if model is not None:
                try:
                    canon = model.format(model.parse(str(elt_text)))
                except ValueError as exc:
                    errors.append(f"distribution[{i}]: {exc}")
                    continue
            if canon in seen:
                errors.append(f"distribution[{i}] duplicates element {canon!r}")
                continue
            seen.add(canon)
            total += float(weight)
            distribution.append((canon, float(weight)))
        if distribution and abs(total - 1.0) > 1e-12:
            errors.append("weights must sum to 1 (within 1e-12)")

    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        errors.append("seed must be an integer in [0, 2^64)")
        seed = 0

    samples = raw.get("samples", 1)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        errors.append("samples must be a positive integer")
        samples = 1

    output_path = raw.get("output_path")
    if not isinstance(output_path, str) or not output_path:
        errors.append("output_path must be a non-empty string")
        output_path = "."

    n_grid = _check_grid(errors, "n_grid", raw.get("n_grid"), numeric=(int,))
    if n_grid is not None and n_grid[0] < 1:
        errors.append("n_grid entries must be positive")
        n_grid = None
    r_grid = _check_grid(errors, "r_grid", raw.get("r_grid"))
    t_grid = _check_grid(errors, "t_grid", raw.get("t_grid"))

    def _opt_scalar(name, types, cond=lambda v: True, msg=""):
        v = raw.get(name)
        if v is None:
            return None
        if not isinstance(v, types) or isinstance(v, bool) or not cond(v):
            errors.append(f"{name} {msg}".strip() or f"{name} is invalid")
            return None
        return v

    n = _opt_scalar("n", int, lambda v: v >= 1, "must be a positive integer")
    k = _opt_scalar("k", int, lambda v: v >= 1, "must be a positive integer")
    B = _opt_scalar("B", (int, float), lambda v: v >= 0, "must be >= 0")
    L = _opt_scalar("L", (int, float))
    L_factor = _opt_scalar("L_factor", (int, float), lambda v: v > 0, "must be > 0")
    epsilon = _opt_scalar("epsilon", (int, float), lambda v: v > 0, "must be > 0")
    epsilon_factor = _opt_scalar("epsilon_factor", (int, float), lambda v: v > 0, "must be > 0")
    rate_mean = _opt_scalar("rate_mean", (int, float), lambda v: v > 0, "must be > 0")
    center_distance = _opt_scalar("center_distance", int, lambda v: v >= 1,
                                  "must be a positive integer")
    horizon = _opt_scalar("horizon", int, lambda v: v >= 1, "must be a positive integer")
    confidence = _opt_scalar("confidence", (int, float), lambda v: 0 < v < 1,
                             "must be in (0, 1)")
    assert_rate = _opt_scalar("assert_rate", (int, float))
    assert_rate_tol = _opt_scalar("assert_rate_tol", (int, float), lambda v: v > 0,
                                  "must be > 0")

    known = {
        "model", "distribution", "seed", "samples", "output_path", "n", "n_grid",
        "k", "B", "L", "L_factor", "epsilon", "epsilon_factor", "r_grid",
        "t_grid", "rate_mean", "center_distance", "horizon", "confidence",
        "assert_rate", "assert_rate_tol",
    }
    for key in raw:
        if key not in known:
            errors.append(f"unknown config field {key!r}")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        model=model_name,
        distribution=distribution,
        seed=seed,
        samples=samples,
        output_path=output_path,
        n=n,
        n_grid=n_grid,
        k=k,
        B=float(B) if B is not None else None,
        L=float(L) if L is not None else None,
        L_factor=float(L_factor) if L_factor is not None else None,
        epsilon=float(epsilon) if epsilon is not None else None,
        epsilon_factor=float(epsilon_factor) if epsilon_factor is not None else None,
        r_grid=[float(x) for x in r_grid] if r_grid is not None else None,
        t_grid=[float(x) for x in t_grid] if t_grid is not None else None,
        rate_mean=float(rate_mean) if rate_mean is not None else None,
        center_distance=center_distance,
        horizon=horizon if horizon is not None else 64,
        confidence=float(confidence) if confidence is not None else 0.95,
        assert_rate=float(assert_rate) if assert_rate is not None else None,
        assert_rate_tol=float(assert_rate_tol) if assert_rate_tol is not None else None,
        raw=raw,
    )
