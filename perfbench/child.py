"""One batch of a workload in a fresh interpreter; started by run.py.

    python3 child.py <plan.json> <report.json> --launch <t> --trace none|full|engines
                     [--threads N]
    python3 child.py <plan.json> <report.json> --gate

The plan lists the experiments (subcommand, config path, output path) and the
source tree hypwalk must be imported from.  A batch imports `hypwalk.cli`,
validates every config (the end of set-up), checks that nothing from an
earlier run is visible, then runs each experiment through `hypwalk.cli.main`
back to back, timing the reference loop of reference.py before the first and
after each one.  `--launch` is the CLOCK_MONOTONIC reading taken by the parent
just before it started this process, so set-up time includes interpreter
start-up.  With `--gate` it runs the reference-path check instead (gate.py).
The report is written as JSON; the exit code is 0 whenever a report was
written, whatever the experiments returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _isolation_problems(plan: dict) -> list[str]:
    """State a fresh process must not see: a non-empty Farey memo, a hypwalk
    imported from anywhere but the plan's source tree, or output files."""
    import hypwalk
    from hypwalk.models import farey

    problems = []
    src = Path(plan["src"]).resolve()
    if src not in Path(hypwalk.__file__).resolve().parents:
        problems.append(f"hypwalk imported from {hypwalk.__file__}, not {src}")
    memo = getattr(farey, "_SLOPE_MEMO", None)
    if memo:
        problems.append(f"Farey memo holds {len(memo)} entries at start")
    for exp in plan["experiments"]:
        if Path(exp["output_path"]).exists():
            problems.append(f"{exp['output_path']} exists before the batch")
    return problems


def _output_bytes(output_path: str) -> int:
    out = Path(output_path)
    return sum(
        (out / name).stat().st_size
        for name in ("series.csv", "summary.json")
        if (out / name).exists()
    )


def _run_batch(plan: dict, args) -> dict:
    import hypwalk.cli as cli

    t_import = _now()
    from hypwalk.config import validate_config

    for exp in plan["experiments"]:
        validate_config(Path(exp["config_path"]).read_text()).require(exp["subcommand"])
    t_setup = _now()
    report = {
        "import_s": t_import - args.launch,
        "config_s": t_setup - t_import,
        "setup_s": t_setup - args.launch,
        "isolation": _isolation_problems(plan),
        "runs": [],
    }

    tracer = None
    if args.trace != "none":
        import instrument

        tracer = instrument.install(args.trace)

    from reference import reference_s

    bytes_written = 0
    ref_before = reference_s()
    for exp in plan["experiments"]:
        argv = [exp["subcommand"], "--config", exp["config_path"],
                "--threads", str(args.threads)]
        run = {"rc": None, "error": None}
        a = time.perf_counter()
        try:
            run["rc"] = cli.main(argv)
        except SystemExit as exc:
            run["error"] = f"SystemExit({exc.code})"
        except Exception:
            run["error"] = traceback.format_exc(limit=4)
        run["wall_s"] = time.perf_counter() - a
        ref_after = reference_s()
        run["ref_s"] = (ref_before + ref_after) / 2
        run["wall_ref"] = run["wall_s"] / run["ref_s"]
        ref_before = ref_after
        bytes_written += _output_bytes(exp["output_path"])
        report["runs"].append(run)

    if tracer is not None:
        tracer.uninstall()
        report["trace"] = instrument.metrics(tracer, args.trace)
        report["trace"]["cli.bytes_written"] = bytes_written
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("report")
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--trace", choices=("none", "full", "engines"), default="none")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--gate", action="store_true")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    if args.gate:
        import gate

        report = {"checks": gate.check_all(plan)}
    else:
        report = _run_batch(plan, args)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
