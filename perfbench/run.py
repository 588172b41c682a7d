"""hypwalk benchmark: experiment batches through the CLI, each in a fresh
interpreter, timed end to end; a traced run splits the time by layer.

    python3 perfbench/run.py --workload free-walks --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; hypwalk is imported from its `src/`.
Workloads are defined in workloads.py.  A run repeats the workload's batch
until `--seconds` is used up (at least once).  Every batch is a new process,
because `models.farey._SLOPE_MEMO` is process-global and a warm memo is a
state no CLI user starts from.  After the timed batches a gate process checks
the engine-backed experiments against the per-sample reference path
(gate.py).

Correctness, per experiment execution: the exit code must be 0 (for `props`,
4 exactly when its summary reports a suite counterexample, as the CLI
documents), series.csv and summary.json must be byte-identical to the first
execution in the run (traced, untraced and `--threads 2` alike), the summary
assertions listed for the experiment must hold, and its reference-path gate
must pass.  `failed` counts the executions that break any of these.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the batch wall
time after set-up in units of the reference loop (reference.py), summed over
the experiments, each the median over the run's untraced batches of its wall
time over the reference time measured around it; and medians over the
batches of the set-up time (interpreter launch until `hypwalk.cli` is
imported and every config is validated) and of the batch process's peak RSS.
--trace 1 alternates untraced and traced batches and reports the per-layer
metrics of BENCHMARK.json: span times and counts from the traced batches
(instrument.py), the batch and per-subcommand wall seconds and the reference
loop's time from the untraced ones, and the tracing overhead (traced minus
untraced batch wall seconds).  Batch and subcommand seconds are sums over
experiments of each one's median.
Workloads with a threads probe also time their engine calls in batches at
--threads 1, 2, 2, 1 and report the ratio of the summed times.

The last line of stdout is the JSON result; a table of every metric with its
unit and sample count goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, experiment_config

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; a batch still running this long after the
# run started is killed and counted as failed
RUN_DEADLINE_S = 170
SUBCOMMAND_METRICS = ("linear-progress", "shadow-decay", "diagonal", "z-sum",
                      "midpoint", "translation-decay", "props")


class Run:
    """One benchmark run: the batches of one workload at one seed."""

    def __init__(self, root: Path, workload, seed: int):
        self.src = root / "src"
        self.workload = workload
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.experiments, self.configs = [], []
        for i, exp in enumerate(workload.experiments):
            stem = f"{i:02d}-{exp.key}"
            cfg = experiment_config(workload.name, seed, exp, f"out/{stem}")
            self.configs.append(cfg)
            self.experiments.append({
                "key": exp.key,
                "subcommand": exp.subcommand,
                "config_path": f"cfg/{stem}.json",
                "output_path": cfg["output_path"],
                "reference": exp.reference,
                "verdicts": list(exp.verdicts),
                "seed": cfg["seed"],
            })
        self.first_outputs: dict[str, tuple[bytes, bytes]] = {}
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.executions: dict[str, int] = defaultdict(int)
        self.batches: list[tuple[str, int, dict]] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cfg").mkdir(parents=True)
        for exp, cfg in zip(self.experiments, self.configs):
            (self.work / exp["config_path"]).write_text(json.dumps(cfg))
        plan = {"src": str(self.src), "gate_dir": "gate", "experiments": self.experiments}
        (self.work / "plan.json").write_text(json.dumps(plan))

    def _child(self, extra: list[str]) -> tuple[dict | None, str]:
        env = dict(os.environ)
        env.pop("HYPWALK_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), env.get("PYTHONPATH")) if p)
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        timeout = max(1.0, self.deadline - time.perf_counter())
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "plan.json", "report.json",
                 "--launch", repr(launch), *extra],
                cwd=self.work, env=env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"batch process killed after {timeout:.0f} s"
        if proc.returncode != 0 or not report.exists():
            return None, f"batch process exited {proc.returncode}: {proc.stderr[-2000:]}"
        return json.loads(report.read_text()), ""

    def batch(self, trace: str, threads: int = 1) -> None:
        report, error = self._child(["--trace", trace, "--threads", str(threads)])
        runs = report["runs"] if report else [None] * len(self.experiments)
        problems = [error] if error else report["isolation"]
        for exp, run in zip(self.experiments, runs):
            self.executions[exp["key"]] += 1
            why = problems or self._check_execution(exp, run)
            if why:
                self.failures[exp["key"]].append(f"[{trace}, threads {threads}] " + "; ".join(why))
        shutil.rmtree(self.work / "out", ignore_errors=True)
        if report is not None:
            self.batches.append((trace, threads, report))

    def _check_execution(self, exp: dict, run: dict) -> list[str]:
        if run["error"]:
            return [run["error"]]
        out = self.work / exp["output_path"]
        try:
            series = (out / "series.csv").read_bytes()
            summary_bytes = (out / "summary.json").read_bytes()
        except OSError as exc:
            return [f"exit {run['rc']}, outputs missing: {exc}"]
        summary = json.loads(summary_bytes)
        expected_rc = 0
        if exp["subcommand"] == "props" and not summary.get("all_passed", False):
            expected_rc = 4  # a suite found a counterexample; see CHANGES.md
        why = []
        if run["rc"] != expected_rc:
            why.append(f"exit {run['rc']}, expected {expected_rc}")
        first = self.first_outputs.setdefault(exp["key"], (series, summary_bytes))
        if first != (series, summary_bytes):
            why.append("series.csv or summary.json differs from the first execution")
        if summary.get("seed") != exp["seed"]:
            why.append(f"summary seed {summary.get('seed')} != {exp['seed']}")
        assertions = summary.get("assertions", {})
        why += [f"assertion {v} is not true" for v in exp["verdicts"] if assertions.get(v) is not True]
        return why

    def gate(self) -> None:
        report, error = self._child(["--gate"])
        checks = report["checks"] if report else [
            {"key": e["key"], "ok": False, "detail": error}
            for e in self.experiments if e["reference"]]
        for check in checks:
            if not check["ok"]:
                self.failures[check["key"]].append("reference gate: " + check["detail"])

    def attempted_failed(self) -> tuple[int, int]:
        attempted = sum(self.executions.values())
        failed = sum(n for key, n in self.executions.items() if self.failures.get(key))
        return attempted, failed


def _stat(batches, field: str) -> tuple[float, int]:
    values = [report[field] for _, _, report in batches]
    return statistics.median(values), len(values)


def _per_experiment(run: Run, batches, field: str, subcommand: str | None = None):
    """The batch's `field` (an experiment's wall_s or wall_ref) summed over its
    experiments (those of `subcommand`, if given), each the median over
    `batches` of that experiment's value."""
    total = 0.0
    for i, exp in enumerate(run.experiments):
        if subcommand is None or exp["subcommand"] == subcommand:
            total += statistics.median(report["runs"][i][field] for _, _, report in batches)
    return total, len(batches)


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    plain = [b for b in run.batches if b[0] == "none"]
    return {
        "wall_ref": _per_experiment(run, plain, "wall_ref"),
        "setup_s": _stat(run.batches, "setup_s"),
        "peak_rss_mb": _stat(plain, "maxrss_mb"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, int]]:
    plain = [b for b in run.batches if b[0] == "none"]
    traced = [b for b in run.batches if b[0] == "full"]
    out: dict[str, tuple[float, int]] = {}
    for name in traced[0][2]["trace"]:
        values = [report["trace"][name] for _, _, report in traced]
        out[name] = (statistics.median(values), len(values))
    out["setup.import_s"] = _stat(run.batches, "import_s")
    out["cli.config_s"] = _stat(run.batches, "config_s")
    for sub in SUBCOMMAND_METRICS:
        out[f"cmd.{sub}_s"] = _per_experiment(run, plain, "wall_s", sub)
    wall, n_plain = _per_experiment(run, plain, "wall_s")
    out["batch.wall_s"] = (wall, n_plain)
    out["batch.ref_s"] = (statistics.median(
        r["ref_s"] for _, _, report in plain for r in report["runs"]), n_plain)
    traced_wall, n_traced = _per_experiment(run, traced, "wall_s")
    out["trace.wall_s"] = (traced_wall, n_traced)
    out["trace.overhead_s"] = (traced_wall - wall, min(n_plain, n_traced))
    engine_s, probes = defaultdict(float), defaultdict(int)
    for trace, threads, report in run.batches:
        if trace == "engines":
            engine_s[threads] += report["trace"]["engines_s"]
            probes[threads] += 1
    ratio = engine_s[2] / engine_s[1] if engine_s[1] and engine_s[2] else 0.0
    out["engines.threads2_ratio"] = (ratio, min(probes[1], probes[2]))
    return out


def measure(run: Run, seconds: float, trace: bool) -> None:
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        run.batch("none")
        if trace:
            run.batch("full")
            if rounds == 0 and run.workload.threads_probe:
                # ABBA order, so a drift in machine speed cancels in the ratio
                for threads in (1, 2, 2, 1):
                    run.batch("engines", threads=threads)
        rounds += 1
        elapsed = time.perf_counter() - start
        # start another round only if one more fits in the budget
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hypwalk" / "cli.py").is_file():
        print("perfbench: no src/hypwalk here; run from the root of a hypwalk checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # compile once, as an installed package would be; users do not pay it per run
    compileall.compile_dir(str(root / "src" / "hypwalk"), quiet=1)
    run = Run(root, WORKLOADS[args.workload], args.seed)
    try:
        run.prepare()
        measure(run, args.seconds, bool(args.trace))
        run.gate()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if run.work.parent.is_dir() and not any(run.work.parent.iterdir()):
            run.work.parent.rmdir()

    attempted, failed = run.attempted_failed()
    for key, reasons in run.failures.items():
        for reason in reasons:
            print(f"perfbench: FAILED {key}: {reason}", file=sys.stderr)
    plain = [b for b in run.batches if b[0] == "none"]
    if not plain or (args.trace and not any(b[0] == "full" for b in run.batches)):
        print("perfbench: no batch completed; nothing measured", file=sys.stderr)
        return 1
    values = per_layer(run) if args.trace else end_to_end(run)
    metrics = {}
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted} executions)",
          file=sys.stderr)
    for m in wanted:
        value, count = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>16.6f} {m['unit']:<6} n={count}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
