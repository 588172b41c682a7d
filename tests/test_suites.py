"""Randomized predicate suites and slack calibration, both models."""

import numpy as np
import pytest

from hypwalk.models import get_model
from hypwalk.suites import (
    calibrate_constants,
    conjugacy_suite,
    product_bound_suite,
    quasigeodesic_suite,
    run_all_suites,
    shadow_member,
)

free = get_model("free")
farey = get_model("farey")

# (name, instances, failures, fitted) of run_all_suites(model, 150, seed) and
# calibrate_constants(model, seed, 150), recorded before the suites were
# rewritten as trials; failure counts are pinned as they came
SUITE_PINS = {
    ('free', 3): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 0, {"product_slack": 0.5, "radius_slack": 0.5}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
            ("quasigeodesic_conjugator", 150, 0, {"K": 1.0, "c": 0.0}),
            ("conjugacy_shadow_conditions", 150, 0, {"slack": 2.0, "smallest_sufficient": 1.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 0.5,
            "basepoint_radius_slack": 0.5,
            "four_point_defect": 0.0,
            "conjugator_slack": 1.5,
        },
    ),
    ('farey', 3): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 2, {"product_slack": 0.5, "radius_slack": 0.5}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 0.5,
            "basepoint_radius_slack": 0.5,
            "four_point_defect": 0.5,
        },
    ),
    ('free', 7): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 0, {"product_slack": 0.5, "radius_slack": 0.5}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
            ("quasigeodesic_conjugator", 150, 0, {"K": 1.0, "c": 0.0}),
            ("conjugacy_shadow_conditions", 150, 0, {"slack": 2.0, "smallest_sufficient": 1.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 0.5,
            "basepoint_radius_slack": 0.5,
            "four_point_defect": 0.0,
            "conjugator_slack": 1.5,
        },
    ),
    ('farey', 7): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 0, {"product_slack": 0.5, "radius_slack": 0.5}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 1.0,
            "basepoint_radius_slack": 1.0,
            "four_point_defect": 0.5,
        },
    ),
    ('free', 11): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 1, {"product_slack": 0.0, "radius_slack": 0.0}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
            ("quasigeodesic_conjugator", 150, 0, {"K": 1.0, "c": 0.0}),
            ("conjugacy_shadow_conditions", 150, 0, {"slack": 2.0, "smallest_sufficient": 1.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 0.0,
            "basepoint_radius_slack": 0.0,
            "four_point_defect": 0.0,
            "conjugator_slack": 1.5,
        },
    ),
    ('farey', 11): (
        [
            ("gromov_product", 150, 0, {}),
            ("shadow_monotonicity", 150, 0, {}),
            ("product_bound", 150, 0, {}),
            ("metric_nest", 150, 0, {}),
            ("shadow_composition", 150, 0, {}),
            ("nested_separation", 150, 0, {"slack": 0.0}),
            ("basepoint_change", 150, 0, {"product_slack": 1.0, "radius_slack": 1.0}),
            ("shadow_complement", 150, 0, {"slack": 0.5}),
        ],
        {
            "nested_separation": 0.0,
            "shadow_complement": 0.5,
            "basepoint_product_slack": 0.5,
            "basepoint_radius_slack": 0.5,
            "four_point_defect": 0.5,
        },
    ),
}


@pytest.mark.parametrize("key", list(SUITE_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_suites_and_calibration_match_recorded_results(key):
    name, seed = key
    model = get_model(name)
    battery, constants = SUITE_PINS[key]
    results = run_all_suites(model, 150, seed=seed)
    assert [(r.name, r.instances, r.failures, r.fitted) for r in results] == battery
    assert calibrate_constants(model, seed=seed, instances=150) == constants


def test_calibration_stops_a_failing_slack_at_its_first_counterexample(monkeypatch):
    """Each slack that fails stops at one counterexample, in fewer trials
    than the full suite run at that slack and seed; the passing slack runs
    exactly as the full suite does."""
    from hypwalk import suites
    from hypwalk._draws import WordDraws

    runs = {}
    tally = suites._tally

    def recording(name, *args, **kwargs):
        result = tally(name, *args, **kwargs)
        runs.setdefault(name, []).append(result)
        return result

    monkeypatch.setattr(suites, "_tally", recording)
    constants = calibrate_constants(farey, seed=3, instances=150)
    monkeypatch.undo()
    full_runs = {
        "nested_separation": lambda s, rng: suites.nested_separation_suite(farey, 150, rng, s),
        "shadow_complement": lambda s, rng: suites.shadow_complement_suite(farey, 150, rng, s),
        "basepoint_change": lambda s, rng: suites.basepoint_change_suite(farey, 150, rng, s, s),
    }
    failing = 0
    for name, full_run in full_runs.items():
        *failed, passed = runs[name]
        for slack, run in zip(suites.SLACK_GRID, runs[name]):
            full = full_run(slack, WordDraws(np.random.default_rng(3)))
            if run is passed:
                assert (run.instances, run.failures, run.attempts) == (
                    full.instances, 0, full.attempts)
            else:
                assert run.failures == 1 and full.failures >= 1
                assert run.attempts < full.attempts
        failing += len(failed)
    assert failing >= 2 and constants == SUITE_PINS["farey", 3][1]


def test_calibration_deterministic_and_exact_for_tree():
    c1 = calibrate_constants(free, seed=33, instances=300)
    c2 = calibrate_constants(free, seed=33, instances=300)
    assert c1 == c2
    assert c1["nested_separation"] == 0.0
    assert c1["shadow_complement"] == 0.5  # closed shadows tie at integers
    assert c1["four_point_defect"] == 0.0
    assert c1["conjugator_slack"] <= 2.0


def test_full_battery_free():
    constants = calibrate_constants(free, seed=35, instances=300)
    results = run_all_suites(free, instances=1500, seed=36, constants=constants)
    assert {r.name for r in results} >= {
        "gromov_product", "shadow_monotonicity", "product_bound", "metric_nest",
        "shadow_composition", "nested_separation", "basepoint_change",
        "shadow_complement", "quasigeodesic_conjugator",
        "conjugacy_shadow_conditions",
    }
    for r in results:
        assert r.failures == 0, r


def test_full_battery_farey():
    constants = calibrate_constants(farey, seed=37, instances=300)
    results = run_all_suites(farey, instances=1500, seed=38, constants=constants)
    for r in results:
        assert r.failures == 0, r


def test_product_bound_ten_thousand_instances_farey():
    rng = np.random.default_rng(39)
    result = product_bound_suite(farey, 10_000, rng)
    assert result.instances == 10_000
    assert result.failures == 0


def test_shadow_member_helper_is_actually_a_member():
    from hypwalk.hypgeom import Shadow, in_shadow

    rng = np.random.default_rng(40)
    for model, radius in ((free, 15), (farey, 6)):
        for _ in range(100):
            z = model.sample_element(rng, 4)
            x = model.sample_element(rng, radius)
            d = model.distance(z, x)
            if d < 1:
                continue
            r = float(rng.integers(0, min(int(d), 4) + 1))
            y = shadow_member(model, rng, z, x, r)
            assert in_shadow(model, Shadow(z, x, r), y)


def test_quasigeodesic_suite_rejects_farey():
    from hypwalk.errors import UnsatisfiableConfigError

    with pytest.raises(UnsatisfiableConfigError):
        quasigeodesic_suite(farey, 10, np.random.default_rng(0))


def test_conjugacy_suite_reports_smallest_slack():
    res = conjugacy_suite(free, 2000, np.random.default_rng(41), slack=2.0)
    assert res.failures == 0
    # |s| <= 3 forces slack at least |s|/2 = 1.5 on some instance
    assert res.fitted["smallest_sufficient"] == 1.5


def test_conjugacy_suite_computes_each_product_once(monkeypatch):
    from hypwalk import suites

    calls = []
    product = suites.gromov_product
    monkeypatch.setattr(suites, "gromov_product", lambda *a: calls.append(a) or product(*a))
    res = conjugacy_suite(free, 300, np.random.default_rng(41), slack=2.0)
    assert res.instances == 300 and len(calls) == 2 * 300


@pytest.mark.parametrize("model_name", ["free", "farey"])
def test_props_manifest_records_attempts_per_suite(model_name, tmp_path, monkeypatch):
    """Every suite ran at least one trial per accepted instance; the counts
    go to manifest.json only, so summary.json keeps its bytes."""
    import json

    from hypwalk import cli

    monkeypatch.chdir(tmp_path)
    config = {"model": model_name, "distribution": [["a", 1.0]] if model_name == "free"
              else [["[[1,1],[0,1]]", 1.0]], "seed": 5, "samples": 60, "output_path": "out"}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cli.main(["props", "--config", "cfg.json"]) in (0, 4)
    suites = json.loads((tmp_path / "out" / "summary.json").read_text())["suites"]
    attempts = json.loads((tmp_path / "out" / "manifest.json").read_text())["suite_attempts"]
    assert set(attempts) == set(suites)
    for name, result in suites.items():
        assert attempts[name] >= result["instances"] > 0, name
    assert "attempts" not in (tmp_path / "out" / "summary.json").read_text()
    assert max(attempts[name] - suites[name]["instances"] for name in suites) > 0
