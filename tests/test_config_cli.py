"""Config validation and the experiment driver's contract: exit codes,
output files, digests, determinism, and the names that the benchmark and
the demos import from hypwalk."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypwalk.config import validate_config
from hypwalk.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "model": "free",
    "distribution": [["a", 0.25], ["A", 0.25], ["b", 0.25], ["B", 0.25]],
    "seed": 7,
    "samples": 50,
    "output_path": "out",
}


def cfg_text(**overrides):
    doc = dict(BASE)
    doc.update(overrides)
    return json.dumps(doc)


def test_valid_config_roundtrip():
    cfg = validate_config(cfg_text(n=10))
    assert cfg.model == "free" and cfg.seed == 7 and cfg.n == 10
    assert cfg.digest() == validate_config(cfg_text(n=10)).digest()
    assert cfg.digest() != validate_config(cfg_text(n=11)).digest()


def test_unknown_model_lists_allowed():
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(model="torus"))
    assert any("free" in v and "farey" in v for v in exc.value.violations)


def test_weight_sum_violation():
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(distribution=[["a", 0.5], ["b", 0.499]]))
    assert any("sum to 1" in v for v in exc.value.violations)


def test_all_violations_reported():
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps({
            "model": "nope",
            "distribution": [["a", -1.0]],
            "seed": "x",
            "samples": 0,
            "output_path": "",
            "n_grid": [5, 3],
        }))
    text = " | ".join(exc.value.violations)
    assert "model" in text and "weight" in text and "seed" in text
    assert "samples" in text and "output_path" in text and "ascending" in text
    assert len(exc.value.violations) >= 6


def test_farey_element_parse_and_canonicalization():
    doc = dict(BASE)
    doc["model"] = "farey"
    doc["distribution"] = [["[[1, 1],[0, 1]]", 0.5], ["[[1,0],[1,1]]", 0.5]]
    cfg = validate_config(json.dumps(doc))
    assert cfg.distribution[0][0] == "[[1,1],[0,1]]"  # canonical text


def test_bad_element_text():
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(distribution=[["axe", 1.0]]))
    assert any("invalid word character" in v for v in exc.value.violations)


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        validate_config(cfg_text(bogus=1))


# one invalid value per optional field, and the violation it must report
FIELD_VIOLATIONS = [
    ("n_grid", [0, 2], "n_grid entries must be positive"),
    ("n_grid", [1.5, 2], "n_grid entries must be numbers"),
    ("r_grid", [], "r_grid must be a non-empty list"),
    ("t_grid", [1.0, 1.0], "t_grid must be strictly ascending"),
    ("n", 0, "n must be a positive integer"),
    ("k", 2.0, "k must be a positive integer"),
    ("B", -1, "B must be >= 0"),
    ("L", "x", "L must be a number"),
    ("L_factor", 0, "L_factor must be > 0"),
    ("epsilon", True, "epsilon must be > 0"),
    ("epsilon_factor", -2.5, "epsilon_factor must be > 0"),
    ("rate_mean", [1], "rate_mean must be > 0"),
    ("center_distance", 0, "center_distance must be a positive integer"),
    ("horizon", "64", "horizon must be a positive integer"),
    ("confidence", 1, "confidence must be in (0, 1)"),
    ("assert_rate", {}, "assert_rate must be a number"),
    ("assert_rate_tol", 0.0, "assert_rate_tol must be > 0"),
]


@pytest.mark.parametrize("name,value,violation", FIELD_VIOLATIONS)
def test_optional_field_violation_text(name, value, violation):
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(**{name: value}))
    assert exc.value.violations == [violation]


def test_every_field_has_one_schema_row():
    from dataclasses import fields

    from hypwalk.config import _OPTIONAL, _REQUIRED, ExperimentConfig

    assert set(_OPTIONAL) | set(_REQUIRED) == {f.name for f in fields(ExperimentConfig)}
    assert {name for name, _, _ in FIELD_VIOLATIONS} == set(_OPTIONAL)


def test_canonical_text_of_every_field():
    cfg = validate_config(cfg_text(
        n=3, n_grid=[2, 4], k=2, B=1, L=0, L_factor=2, epsilon=1, epsilon_factor=3,
        r_grid=[-1, 0.5], t_grid=[0, 2], rate_mean=1, center_distance=4, horizon=32,
        confidence=0.5, assert_rate=-1, assert_rate_tol=1))
    assert cfg.canonical_text() == (
        '{"B":1.0,"L":0.0,"L_factor":2.0,"assert_rate":-1.0,"assert_rate_tol":1.0,'
        '"center_distance":4,"confidence":0.5,"distribution":[["a",0.25],["A",0.25],'
        '["b",0.25],["B",0.25]],"epsilon":1.0,"epsilon_factor":3.0,"horizon":32,"k":2,'
        '"model":"free","n":3,"n_grid":[2,4],"output_path":"out","r_grid":[-1.0,0.5],'
        '"rate_mean":1.0,"samples":50,"seed":7,"t_grid":[0.0,2.0]}')
    # absent optional fields are left out; horizon and confidence have defaults
    assert validate_config(cfg_text()).canonical_text() == (
        '{"confidence":0.95,"distribution":[["a",0.25],["A",0.25],["b",0.25],["B",0.25]],'
        '"horizon":64,"model":"free","output_path":"out","samples":50,"seed":7}')


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name,violation", [
    ("B", "B must be >= 0"),
    ("L", "L must be a number"),
    ("confidence", "confidence must be in (0, 1)"),
    ("assert_rate", "assert_rate must be a number"),
    ("r_grid", "r_grid entries must be numbers"),
    ("t_grid", "t_grid entries must be numbers"),
])
def test_non_finite_numbers_rejected(name, violation, bad):
    value = [0.5, bad] if name.endswith("_grid") else bad
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(**{name: value}))
    assert exc.value.violations == [violation]


def test_non_finite_literals_rejected():
    # NaN, Infinity and numbers beyond the float range, as a JSON text has them
    text = cfg_text(distribution=[["a", "@"], ["A", 0.5], ["b", 0.5]], r_grid=[1.0, "@"], L="@")
    for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        with pytest.raises(ConfigError) as exc:
            validate_config(text.replace('"@"', literal))
        assert exc.value.violations == [
            "distribution[0] weight must be a positive number",
            "r_grid entries must be numbers",
            "L must be a number",
        ], literal


def test_samples_bound():
    assert validate_config(cfg_text(samples=2 ** 48)).samples == 2 ** 48
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(samples=2 ** 48 + 1))
    assert exc.value.violations == ["samples must be at most 2^48, the number of sample streams"]


def test_missing_samples_rejected():
    # samples is required, like seed: a config without it does not run one
    # sample (which drift would report as "requires samples >= 2")
    doc = dict(BASE, n=5)
    del doc["samples"]
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(doc))
    assert exc.value.violations == ["samples must be a positive integer"]


def test_duplicate_support_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg_text(distribution=[["a", 0.5], ["a", 0.5]]))
    assert any("duplicates" in v for v in exc.value.violations)


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "hypwalk.cli", *args],
        capture_output=True, text=True,
    )


def _write_cfg(tmp_path: Path, name: str, **overrides) -> Path:
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: importing the CLI in a fresh
    interpreter loads no scipy module, nor numpy.f2py, which scipy's array
    API shim used to pull in.  Nor does it load concurrent.futures (and the
    logging it imports): only a run with more than one thread needs it."""
    code = ("import sys, hypwalk.cli; print(*(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'f2py'] "
            "or m.split('.')[:2] == ['concurrent', 'futures']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_config_error_exit_2(tmp_path):
    path = _write_cfg(tmp_path, "bad.json", model="nope",
                      output_path=str(tmp_path / "o"))
    proc = _run_cli(["drift", "--config", str(path)])
    assert proc.returncode == 2
    assert "code=2" in proc.stderr


def test_cli_missing_required_field_exit_2(tmp_path):
    path = _write_cfg(tmp_path, "m.json", output_path=str(tmp_path / "o"))
    proc = _run_cli(["drift", "--config", str(path)])  # no "n"
    assert proc.returncode == 2


def test_cli_missing_samples_exit_2(tmp_path, capsys):
    from hypwalk import cli

    doc = dict(BASE, n=5, output_path=str(tmp_path / "o"))
    del doc["samples"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["drift", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "hypwalk: config: samples must be a positive integer" in err
    assert "requires samples >= 2" not in err
    assert not (tmp_path / "o").exists()


def test_cli_unwritable_output_path_exit_2(tmp_path):
    # an output_path under a regular file cannot be made: one error line and
    # exit 2, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = _write_cfg(tmp_path, "w.json", n=5, output_path=str(blocker / "o"))
    proc = _run_cli(["drift", "--config", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("hypwalk: error code=2 reason=cannot write outputs: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


FAREY_UNIFORM = [["[[1,1],[0,1]]", 0.25], ["[[1,0],[1,1]]", 0.25],
                 ["[[1,-1],[0,1]]", 0.25], ["[[1,0],[-1,1]]", 0.25]]


@pytest.mark.parametrize("subcommand,fields", [
    ("backtrack", {"k": 2, "n": 10}),
    ("z-sum", {"k": 2, "n_grid": [2, 4], "L_factor": 2.0}),
    ("bernstein", {"k": 2, "n_grid": [2, 4], "epsilon": 0.5}),
    ("midpoint", {"n_grid": [4, 8]}),
    ("diagonal", {"n": 6, "r_grid": [1.0, 2.0]}),
])
def test_cli_free_only_subcommand_on_farey_exit_2(subcommand, fields, tmp_path, capsys):
    # these five were once refused on SL(2,Z) with exit 2 (hence the name);
    # the Farey Gromov products now run them, so they exit 0 with outputs
    from hypwalk import cli

    out = tmp_path / "o"
    path = _write_cfg(tmp_path, "f.json", model="farey", distribution=FAREY_UNIFORM,
                      output_path=str(out), **fields)
    assert cli.main([subcommand, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "x,p,ci_low,ci_high" and len(rows) > 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "farey" and summary["subcommand"] == subcommand


@pytest.mark.parametrize("subcommand,fields,message", [
    ("chernoff", {"t_grid": [-0.5, 1.0], "n_grid": [5], "rate_mean": 1.0},
     "t_grid entries must be >= 0"),
    ("drift", {"n": 5, "samples": 1}, "drift requires samples >= 2"),
    ("midpoint", {"n_grid": [4, 7]}, "n_grid entries must be even"),
    ("backtrack", {"k": 5, "n": 3}, "backtrack requires n >= k"),
    # json.dumps writes the NaN literal, which json.loads reads back
    ("drift", {"n": 5, "distribution": [["a", float("nan")], ["A", 0.5], ["b", 0.5]]},
     "distribution[0] weight must be a positive number"),
    ("chernoff", {"t_grid": [1.0], "n_grid": [5], "rate_mean": 1.0, "samples": 2 ** 48 + 1},
     "samples must be at most 2^48"),
    # distinct ints that convert to equal floats
    ("shadow-decay", {"n_grid": [4], "center_distance": 2, "r_grid": [2 ** 53, 2 ** 53 + 1]},
     "r_grid must be strictly ascending"),
    ("chernoff", {"t_grid": [0, 2 ** 60, 2 ** 60 + 1], "n_grid": [5], "rate_mean": 1.0},
     "t_grid must be strictly ascending"),
])
def test_cli_invalid_experiment_input_exit_2(subcommand, fields, message, tmp_path, capsys):
    from hypwalk import cli

    out = tmp_path / "o"
    path = _write_cfg(tmp_path, "v.json", output_path=str(out), **fields)
    assert cli.main([subcommand, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"hypwalk: config: {message}" in err
    assert "code=2" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,fields,message", [
    ("z-sum", {"k": 2, "n_grid": [2, 4], "L": 1.0, "L_factor": 3.0},
     "pass exactly one of L and L_factor"),
    ("bernstein", {"k": 2, "n_grid": [2, 4], "epsilon": 0.5, "epsilon_factor": 3.0},
     "pass exactly one of epsilon and epsilon_factor"),
], ids=["z-sum", "bernstein"])
def test_cli_value_with_its_factor_exit_2(subcommand, fields, message, tmp_path, capsys):
    # the factor used to be dropped without a word when both were set
    from hypwalk import cli

    out = tmp_path / "o"
    path = _write_cfg(tmp_path, "b.json", output_path=str(out), **fields)
    assert cli.main([subcommand, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "code=2" in err
    assert not out.exists()


def test_cli_elementary_distribution_exit_3(tmp_path):
    path = _write_cfg(
        tmp_path, "e.json", model="farey",
        distribution=[["[[1,1],[0,1]]", 1.0]],
        B=0.0, n_grid=[2, 4], output_path=str(tmp_path / "o"),
    )
    proc = _run_cli(["translation-decay", "--config", str(path)])
    assert proc.returncode == 3
    assert "code=3" in proc.stderr


def test_cli_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    p1 = _write_cfg(tmp_path, "c1.json", n=20, samples=40, output_path=str(out1))
    assert _run_cli(["drift", "--config", str(p1)]).returncode == 0
    for name in ("series.csv", "summary.json", "manifest.json"):
        assert (out1 / name).exists()
    summary = json.loads((out1 / "summary.json").read_text())
    cfg = validate_config(p1.read_text())
    assert summary["config_digest"] == cfg.digest()

    p1b = _write_cfg(tmp_path, "c1b.json", n=20, samples=40, output_path=str(out1))
    assert _run_cli(["drift", "--config", str(p1b)]).returncode == 0
    first_csv = (out1 / "series.csv").read_bytes()
    first_json = (out1 / "summary.json").read_bytes()
    assert _run_cli(["drift", "--config", str(p1b)]).returncode == 0
    assert (out1 / "series.csv").read_bytes() == first_csv
    assert (out1 / "summary.json").read_bytes() == first_json

    # same config except output path: same series, digest differs
    p2 = _write_cfg(tmp_path, "c2.json", n=20, samples=40, output_path=str(out2))
    assert _run_cli(["drift", "--config", str(p2)]).returncode == 0
    assert (out2 / "series.csv").read_bytes() == first_csv


def test_cli_summary_embeds_digest_and_seed(tmp_path):
    out = tmp_path / "o"
    p = _write_cfg(tmp_path, "c.json", n=15, samples=30, output_path=str(out))
    assert _run_cli(["drift", "--config", str(p)]).returncode == 0
    summary = json.loads((out / "summary.json").read_text())
    cfg = validate_config(p.read_text())
    assert summary["config_digest"] == cfg.digest()
    assert summary["seed"] == cfg.seed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == cfg.digest()
    assert set(manifest["files"]) == {"series.csv", "summary.json"}


def test_cli_assert_failure_exit_4(tmp_path):
    out = tmp_path / "o"
    p = _write_cfg(tmp_path, "c.json", n=15, samples=30, output_path=str(out),
                   assert_rate=0.9, assert_rate_tol=0.01)
    proc = _run_cli(["drift", "--config", str(p), "--assert"])
    assert proc.returncode == 4
    assert "code=4" in proc.stderr
    # without --assert the same run succeeds
    assert _run_cli(["drift", "--config", str(p)]).returncode == 0


@pytest.mark.parametrize("lone", [{"assert_rate": 0.9}, {"assert_rate_tol": 0.01}],
                         ids=["rate", "tol"])
def test_cli_drift_lone_assert_field_exit_2(lone, tmp_path, capsys):
    # either field alone would leave --assert nothing to check
    from hypwalk import cli

    out = tmp_path / "o"
    p = _write_cfg(tmp_path, "c.json", n=15, samples=30, output_path=str(out), **lone)
    assert cli.main(["drift", "--config", str(p), "--assert"]) == 2
    assert "assert_rate and assert_rate_tol together" in capsys.readouterr().err
    assert not out.exists()


def test_cli_drift_interval_reads_confidence(tmp_path):
    from hypwalk import cli

    widths = []
    for confidence in (0.95, 0.99):
        out = tmp_path / str(confidence)
        p = _write_cfg(tmp_path, "c.json", n=15, samples=200, confidence=confidence,
                       output_path=str(out))
        assert cli.main(["drift", "--config", str(p)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        widths.append(summary["ci_high"] - summary["ci_low"])
    assert widths[1] == pytest.approx(widths[0] * 2.5758293035489004 / 1.959963984540054)


def test_cli_props_free(tmp_path):
    out = tmp_path / "o"
    p = _write_cfg(tmp_path, "c.json", samples=200, output_path=str(out))
    proc = _run_cli(["props", "--config", str(p)])
    assert proc.returncode == 0
    rows = (out / "series.csv").read_text().strip().splitlines()
    assert rows[0] == "suite,instances,failures"
    assert all(line.rsplit(",", 1)[1] == "0" for line in rows[1:])


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_exit_2(threads, tmp_path, capsys):
    from hypwalk import cli

    out = tmp_path / "o"
    path = _write_cfg(tmp_path, "t.json", n=5, output_path=str(out))
    assert cli.main(["drift", "--config", str(path), "--threads", threads]) == 2
    assert "hypwalk: error code=2 reason=--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


THREADS_CASES = {
    "free-linear-progress": ("linear-progress", dict(L=0.25, n_grid=[10, 20], samples=30_000)),
    # the grouped SL(2,Z) kernel over two blocks, at checkpoints off its pass length
    "farey-translation-decay-B0": ("translation-decay", dict(
        model="farey", distribution=FAREY_UNIFORM, B=0.0, n_grid=[7, 13], samples=16_400)),
    "farey-translation-decay-B1": ("translation-decay", dict(
        model="farey", distribution=FAREY_UNIFORM, B=1.0, n_grid=[7, 13], samples=16_400)),
}


@pytest.mark.parametrize("case", list(THREADS_CASES))
def test_cli_threads_flag_deterministic(case, tmp_path):
    subcommand, fields = THREADS_CASES[case]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    p1 = _write_cfg(tmp_path, "c1.json", **fields, output_path=str(out1))
    p2 = _write_cfg(tmp_path, "c2.json", **fields, output_path=str(out2))
    assert _run_cli([subcommand, "--config", str(p1), "--threads", "1"]).returncode == 0
    assert _run_cli([subcommand, "--config", str(p2), "--threads", "4"]).returncode == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_names_imported_from_hypwalk_exist():
    """Every name that perfbench/*.py and demos/*.py import from hypwalk,
    inside functions too, and every entry of `hypwalk.__all__` and
    `hypwalk.models.__all__` resolves."""
    import hypwalk
    import hypwalk.models

    wanted = {("hypwalk", name) for name in hypwalk.__all__}
    wanted |= {("hypwalk.models", name) for name in hypwalk.models.__all__}
    for path in (*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hypwalk":
                wanted |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                wanted |= {(alias.name, None) for alias in node.names
                           if alias.name.split(".")[0] == "hypwalk"}
    # a function-level import of the benchmark's reference gate
    assert ("hypwalk.models.farey", "translation_length_detail") in wanted
    missing = []
    for module, name in wanted:
        try:
            found = importlib.import_module(module)
            if name is not None and not hasattr(found, name):
                importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            missing.append(f"{module}:{name}")
    assert not missing, sorted(missing)
