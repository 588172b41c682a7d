"""Reference-path check of the engine-backed experiments.

For each such experiment the gate runs the same config through
`hypwalk.cli.main` with only the first PROBE_SAMPLES sample indices, then
recomputes every row of its series.csv from the per-sample reference path:
`walk.sample_walk(stream=i, ensemble=e)` plus the model's `distance`,
`hypgeom.gromov_product` and translation length.  Each sample index owns its
stream, so the first indices of a probe are the first indices of the full
experiment.  Counts must agree exactly.

A statistic at walk length n may come from a walk drawn with exactly n steps
or from the first n steps of the longest walk of the grid; both keep every
sample reproducible from its stream, so a probe matching either passes.
"""

from __future__ import annotations

import csv
import json
import traceback
from pathlib import Path

PROBE_SAMPLES = 48

# stream namespaces of hypwalk's reproducibility contract
ENSEMBLE_PRIMARY = 0
ENSEMBLE_REFLECTED = 1
ENSEMBLE_GRID_BASE = 8
ENSEMBLE_ITERATED_BASE = 256


class _Walks:
    """Locations of sample i at step n, under one of the two draw layouts."""

    def __init__(self, model, dist, seed: int, n_max: int, prefix: bool,
                 ensemble: int = ENSEMBLE_PRIMARY):
        self.model, self.dist, self.seed = model, dist, seed
        self.n_max, self.prefix, self.ensemble = n_max, prefix, ensemble
        self._cache = {}

    def at(self, i: int, n: int):
        from hypwalk.walk import sample_walk

        length = self.n_max if self.prefix else n
        key = (i, length)
        if key not in self._cache:
            self._cache[key] = sample_walk(self.model, self.dist, length, self.seed,
                                           stream=i, ensemble=self.ensemble)
        return self._cache[key].locations[n]


def _count(pred, samples: int) -> int:
    return sum(1 for i in range(samples) if pred(i))


def _linear_progress(cfg, model, dist, walks):
    one = model.identity()
    return [
        ((n,), _count(lambda i: model.distance(one, walks.at(i, n)) <= cfg.L * n, cfg.samples))
        for n in cfg.n_grid
    ]


def _translation_decay(cfg, model, dist, walks):
    from hypwalk.models.farey import translation_length_detail

    def small(g) -> bool:
        if model.name == "free":
            return model.translation_length(g) <= cfg.B
        if cfg.B == 0:
            return abs(g.trace()) <= 2
        detail = translation_length_detail(g, cfg.horizon)
        return not detail.stabilized or detail.value <= cfg.B

    return [((n,), _count(lambda i: small(walks.at(i, n)), cfg.samples)) for n in cfg.n_grid]


def _midpoint(cfg, model, dist, walks):
    from hypwalk.hypgeom import gromov_product

    one = model.identity()

    def fails(i, two_n):
        mid, end = walks.at(i, two_n // 2), walks.at(i, two_n)
        return gromov_product(model, one, mid, end) < 0.5 * model.distance(one, mid)

    return [((m,), _count(lambda i: fails(i, m), cfg.samples)) for m in cfg.n_grid]


def _tail_rows(values, thresholds):
    return [sum(1 for v in values if v >= t) for t in thresholds]


def _shadow_decay(cfg, model, dist, _walks):
    from hypwalk.hypgeom import gromov_product
    from hypwalk.models.farey import FareyElement
    from hypwalk.models.free import FreeWord

    one = model.identity()
    if model.name == "free":
        center = FreeWord((1,) * cfg.center_distance)
    else:
        center = one
        for _ in range(cfg.center_distance):
            center = model.multiply(center, FareyElement(2, 1, 1, 1))
    rows = []
    for j, n in enumerate(cfg.n_grid):
        walks = _Walks(model, dist, cfg.seed, n, False, ENSEMBLE_GRID_BASE + j)
        gp = [gromov_product(model, one, center, walks.at(i, n)) for i in range(cfg.samples)]
        rows += [((n, r), k) for r, k in zip(cfg.r_grid, _tail_rows(gp, cfg.r_grid))]
    return rows


def _diagonal(cfg, model, dist, _walks):
    from hypwalk.hypgeom import gromov_product
    from hypwalk.walk import reflected

    one = model.identity()
    v = _Walks(model, dist, cfg.seed, cfg.n, False, ENSEMBLE_PRIMARY)
    w = _Walks(model, reflected(dist), cfg.seed, cfg.n, False, ENSEMBLE_REFLECTED)
    gp = [gromov_product(model, one, v.at(i, cfg.n), w.at(i, cfg.n)) for i in range(cfg.samples)]
    shifted = [r - 2.0 * model.delta for r in cfg.r_grid]
    return [((r,), k) for r, k in zip(cfg.r_grid, _tail_rows(gp, shifted))]


def _z_sum(cfg, model, dist, _walks):
    import numpy as np

    from hypwalk.walk import iterated_decomposition, sample_walk

    m_max = max(cfg.n_grid)
    Z = np.empty((m_max, cfg.samples), dtype=np.int64)
    for i in range(cfg.samples):
        w = sample_walk(model, dist, cfg.k * m_max, cfg.seed, stream=i,
                        ensemble=ENSEMBLE_ITERATED_BASE + cfg.k)
        Z[:, i] = iterated_decomposition(model, w, cfg.k).Z.astype(np.int64)
    L = cfg.L if cfg.L is not None else cfg.L_factor * float(Z.mean())
    csum = np.cumsum(Z, axis=0)
    return [((m,), int(np.sum(csum[m - 1] >= L * m))) for m in cfg.n_grid]


REFERENCES = {
    "linear-progress": _linear_progress,
    "translation-decay": _translation_decay,
    "midpoint": _midpoint,
    "shadow-decay": _shadow_decay,
    "diagonal": _diagonal,
    "z-sum": _z_sum,
}


def _probe_rows(series_csv: Path, samples: int) -> list:
    """(x columns, count) per row of a series.csv with p in the column after x."""
    with open(series_csv, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    p_col = header.index("p")
    return [
        (tuple(float(v) for v in row[:p_col]), round(float(row[p_col]) * samples))
        for row in rows
    ]


def check(exp: dict, probe_dir: Path) -> tuple[bool, str]:
    import hypwalk.cli as cli
    from hypwalk.config import validate_config

    doc = json.loads(Path(exp["config_path"]).read_text())
    doc.update(samples=PROBE_SAMPLES, output_path=str(probe_dir))
    cfg_path = probe_dir.with_suffix(".json")
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main([exp["subcommand"], "--config", str(cfg_path), "--threads", "1"])
    if rc != 0:
        return False, f"probe exited {rc}"
    got = _probe_rows(probe_dir / "series.csv", PROBE_SAMPLES)

    cfg = validate_config(json.dumps(doc))
    model, dist = cfg.step_distribution()
    reference = REFERENCES[exp["subcommand"]]
    n_max = max(cfg.n_grid) if cfg.n_grid else cfg.n
    expected = []
    for prefix in (False, True):
        rows = reference(cfg, model, dist, _Walks(model, dist, cfg.seed, n_max, prefix))
        rows = [(tuple(float(x) for x in xs), k) for xs, k in rows]
        if rows == got:
            return True, f"{len(rows)} rows x {PROBE_SAMPLES} samples match"
        expected.append(rows)
    return False, f"probe rows {got} != reference {expected[0]} (or {expected[1]})"


def check_all(plan: dict) -> list[dict]:
    gate_dir = Path(plan["gate_dir"])
    gate_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for exp in plan["experiments"]:
        if not exp["reference"]:
            continue
        try:
            ok, detail = check(exp, gate_dir / exp["key"])
        except Exception:
            ok, detail = False, traceback.format_exc(limit=4)
        results.append({"key": exp["key"], "ok": ok, "detail": detail})
    return results
