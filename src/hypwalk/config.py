"""Experiment configuration: a JSON document with a canonical serialization.

The canonical form (parsed, elements renormalized to their canonical text,
keys sorted, no whitespace) is hashed into the config digest embedded in
every output, so identical configs are recognizable across platforms and
reruns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any

from .errors import ConfigError
from .models import MODEL_NAMES, get_model
from .walk import MAX_SAMPLES, StepDistribution

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
SUBCOMMANDS = tuple(REQUIRED_FIELDS)

_MAX_SEED = (1 << 64) - 1


@dataclasses.dataclass
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

    def canonical_dict(self) -> dict[str, Any]:
        out = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        out["distribution"] = [[e, w] for e, w in self.distribution]
        return out

    def canonical_text(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def step_distribution(self):
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
        if subcommand == "drift" and (self.assert_rate is None) != (self.assert_rate_tol is None):
            violations.append("drift requires assert_rate and assert_rate_tol together "
                              "(either alone checks nothing)")
        if subcommand == "chernoff" and self.t_grid and min(self.t_grid) < 0:
            violations.append("t_grid entries must be >= 0 for chernoff")
        if subcommand == "midpoint" and self.n_grid and any(x % 2 for x in self.n_grid):
            violations.append("n_grid entries must be even walk lengths 2n for midpoint")
        if (subcommand == "backtrack" and self.n is not None and self.k is not None
                and self.n < self.k):
            violations.append("backtrack requires n >= k")
        if violations:
            raise ConfigError(violations)


def _number(value, kind):
    """`value` as a finite `kind` (int or float), or None if it is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return None
    try:
        value = kind(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if kind is int or math.isfinite(value) else None


# The optional fields in the order their violations are reported: name ->
# (type, condition or None, violation).  A type in a list is a grid: a
# non-empty, strictly ascending list of such numbers, whose condition reads
# the whole list.  Every number must be finite.
_OPTIONAL = {
    "n_grid": ([int], lambda g: g[0] >= 1, "entries must be positive"),
    "r_grid": ([float], None, None),
    "t_grid": ([float], None, None),
    "n": (int, lambda v: v >= 1, "must be a positive integer"),
    "k": (int, lambda v: v >= 1, "must be a positive integer"),
    "B": (float, lambda v: v >= 0, "must be >= 0"),
    "L": (float, None, "must be a number"),
    "L_factor": (float, lambda v: v > 0, "must be > 0"),
    "epsilon": (float, lambda v: v > 0, "must be > 0"),
    "epsilon_factor": (float, lambda v: v > 0, "must be > 0"),
    "rate_mean": (float, lambda v: v > 0, "must be > 0"),
    "center_distance": (int, lambda v: v >= 1, "must be a positive integer"),
    "horizon": (int, lambda v: v >= 1, "must be a positive integer"),
    "confidence": (float, lambda v: 0 < v < 1, "must be in (0, 1)"),
    "assert_rate": (float, None, "must be a number"),
    "assert_rate_tol": (float, lambda v: v > 0, "must be > 0"),
}
_REQUIRED = ("model", "distribution", "seed", "samples", "output_path")


def _optional(value, kind, ok, reason):
    """(`value` converted, None) if it is valid, else (None, the violation)."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            return None, "must be a non-empty list"
        grid = [_number(x, kind[0]) for x in value]
        if None in grid:
            return None, "entries must be numbers"
        if any(b <= a for a, b in zip(grid, grid[1:])):
            return None, "must be strictly ascending"
        value = grid
    else:
        value = _number(value, kind)
    valid = value is not None and (ok is None or ok(value))
    return (value, None) if valid else (None, reason)


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
        seen = set()
        for i, pair in enumerate(dist_raw):
            if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
                errors.append(f"distribution[{i}] must be an [element, weight] pair")
                continue
            elt_text, weight = pair[0], _number(pair[1], float)
            if weight is None or weight <= 0:
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
            distribution.append((canon, weight))
        if distribution and abs(sum(w for _, w in distribution) - 1.0) > 1e-12:
            errors.append("weights must sum to 1 (within 1e-12)")

    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        errors.append("seed must be an integer in [0, 2^64)")

    samples = raw.get("samples", 1)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        errors.append("samples must be a positive integer")
    elif samples > MAX_SAMPLES:
        errors.append("samples must be at most 2^48, the number of sample streams")

    output_path = raw.get("output_path")
    if not isinstance(output_path, str) or not output_path:
        errors.append("output_path must be a non-empty string")

    options = {}
    for name, row in _OPTIONAL.items():
        if raw.get(name) is not None:
            options[name], violation = _optional(raw[name], *row)
            if violation is not None:
                errors.append(f"{name} {violation}")
    errors += [f"unknown config field {key!r}" for key in raw
               if key not in _OPTIONAL and key not in _REQUIRED]
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(model=model_name, distribution=distribution, seed=seed,
                            samples=samples, output_path=output_path, **options)
