"""The benchmark's workloads: fixed batches of hypwalk CLI experiments.

Each workload is one batch, run closed loop: one single-threaded process
(`--threads 1`, the CLI default) runs the experiments back to back and the
benchmark waits for it.  Only the experiment seeds come from the benchmark
seed; shapes and sizes are fixed here so that every run does the same work.

Why these three, and what each bypasses:

free-walks     F2 letter-stack engines at the acceptance shapes, one of them on
               a non-uniform law over multi-letter words (the kernel loops per
               support word and per letter).  Per-sample Philox setup and the
               alias draw dominate engine time here, so block-keyed streams and
               the free half of a kernel unification show on this workload.  It
               touches no Farey code and no suites: a change to the Farey
               kernel, the Farey distance or its memo predicts no change here.
farey-walks    The SL(2,Z) bigint loop: translation-decay at B=0 (trace
               classifier) and at B>0 (the per-sample translation-length loop in
               stats), linear progress with exact distances and shadow decay
               with center products.  The bigint kernel, `dist_to_infinity` /
               `slope_distance` and memo growth live here.  No letter stacks.
props-battery  `props` (calibration plus every suite) on both models: the
               scalar per-element model API, hypgeom and the suites' rejection
               loops, with no Philox streams and no engines.  Farey distances
               come from small, heavily repeated slopes (warm memo), so a memo
               bound or model rewrite that wins on the walks and loses here
               shows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

FREE_UNIFORM = (("a", 0.25), ("A", 0.25), ("b", 0.25), ("B", 0.25))
# non-uniform law on multi-letter words; nonelementary (ab and a do not commute)
FREE_MULTI = (("ab", 0.2), ("BA", 0.2), ("a", 0.15), ("A", 0.15),
              ("bab", 0.1), ("BAB", 0.1), ("b", 0.05), ("B", 0.05))
FAREY_UNIFORM = (("[[1,1],[0,1]]", 0.25), ("[[1,0],[1,1]]", 0.25),
                 ("[[1,-1],[0,1]]", 0.25), ("[[1,0],[-1,1]]", 0.25))


@dataclass(frozen=True)
class Experiment:
    key: str
    subcommand: str
    model: str
    distribution: tuple
    samples: int
    params: dict
    # summary.json assertions expected true at this config: each held on 54
    # seeds with a wide margin (fit R^2 >= 0.96 against the 0.9 floor)
    verdicts: tuple = ()
    # engine-backed: the first sample indices are checked against sample_walk
    reference: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple
    # the traced run also times this workload's engine calls at --threads 2
    threads_probe: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="free-walks",
            threads_probe=True,
            experiments=(
                Experiment("lp-uniform", "linear-progress", "free", FREE_UNIFORM, 32768,
                           {"L": 0.25, "n_grid": [50, 100, 150, 200, 250, 300, 350, 400]}),
                Experiment("lp-multi", "linear-progress", "free", FREE_MULTI, 8192,
                           {"L": 0.5, "n_grid": [25, 50, 75, 100, 125, 150]}),
                Experiment("shadow", "shadow-decay", "free", FREE_UNIFORM, 8192,
                           {"n_grid": [50, 100], "center_distance": 20,
                            "r_grid": [float(r) for r in range(2, 15)]}),
                Experiment("diagonal", "diagonal", "free", FREE_UNIFORM, 8192,
                           {"n": 200, "r_grid": [float(r) for r in range(1, 11)]},
                           verdicts=("fit",)),
                Experiment("z-sum", "z-sum", "free", FREE_UNIFORM, 8192,
                           {"k": 5, "L_factor": 2.0, "n_grid": [4, 8, 12, 16, 20, 24]}),
                Experiment("midpoint", "midpoint", "free", FREE_UNIFORM, 8192,
                           {"n_grid": [10, 20, 30, 50]},
                           verdicts=("fit",)),
            ),
        ),
        Workload(
            name="farey-walks",
            experiments=(
                Experiment("tdecay-b0", "translation-decay", "farey", FAREY_UNIFORM, 16384,
                           {"B": 0.0, "n_grid": [10, 20, 30, 40, 50, 60, 70, 80]},
                           verdicts=("fit",)),
                Experiment("tdecay-b1", "translation-decay", "farey", FAREY_UNIFORM, 300,
                           {"B": 1.0, "n_grid": [4, 8, 12, 16]}),
                Experiment("lp-farey", "linear-progress", "farey", FAREY_UNIFORM, 8192,
                           {"L": 0.05, "n_grid": [20, 40, 60, 80, 100]},
                           verdicts=("fit",)),
                Experiment("shadow-farey", "shadow-decay", "farey", FAREY_UNIFORM, 8192,
                           {"n_grid": [20, 40], "center_distance": 8,
                            "r_grid": [float(r) for r in range(1, 8)]}),
            ),
        ),
        Workload(
            name="props-battery",
            experiments=(
                Experiment("props-free", "props", "free", FREE_UNIFORM, 200, {},
                           reference=False),
                Experiment("props-farey", "props", "farey", FAREY_UNIFORM, 200, {},
                           reference=False),
            ),
        ),
    )
}


def experiment_seed(workload: str, seed: int, key: str) -> int:
    """The config seed of one experiment, in [0, 2^64)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def experiment_config(workload: str, seed: int, exp: Experiment, output_path: str) -> dict:
    return {
        "model": exp.model,
        "distribution": [list(pair) for pair in exp.distribution],
        "seed": experiment_seed(workload, seed, exp.key),
        "samples": exp.samples,
        "output_path": output_path,
        **exp.params,
    }
