"""Randomized predicate suites and slack calibration, both models."""

import pytest

from hypwalk.engines import ENSEMBLE_CALIBRATE, ENSEMBLE_PROPS
from hypwalk.models import get_model
from hypwalk.suites import (
    _SHAPES,
    calibrate_constants,
    conjugacy_suite,
    product_bound_suite,
    quasigeodesic_suite,
    run_all_suites,
)
from hypwalk.walk import StreamDraws

free = get_model("free")
farey = get_model("farey")

# (name, instances, failures, fitted) of run_all_suites(model, 150, seed) and
# calibrate_constants(model, seed, 150), recorded when props and calibration
# moved onto keyed Philox words; failure counts are pinned as they came.  The
# battery halves were re-recorded once when nested separation began rejecting
# a vacuous inner shadow before drawing its far pair: the props stream then
# advances less per rejected trial, so later suites draw other instances
# (basepoint_change on SL(2,Z) went 1 -> 2 failures at seed 3 and 1 -> 0 at
# seed 11); the calibration halves did not move
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
            ("basepoint_change", 150, 0, {"product_slack": 1.0, "radius_slack": 1.0}),
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
    ('farey', 11): (
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
            full = full_run(slack, StreamDraws(3, ENSEMBLE_CALIBRATE))
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
    rng = StreamDraws(39, ENSEMBLE_PROPS)
    result = product_bound_suite(farey, 10_000, rng)
    assert result.instances == 10_000
    assert result.failures == 0


def test_shadow_member_helper_is_actually_a_member():
    from hypwalk.hypgeom import Shadow, in_shadow

    rng = StreamDraws(40, ENSEMBLE_PROPS)
    for model, radius in ((free, 15), (farey, 6)):
        for _ in range(100):
            z = model.sample_element(rng, 4)
            x = model.sample_element(rng, radius)
            d = model.distance(z, x)
            if d < 1:
                continue
            r = float(rng.integers(0, min(int(d), 4) + 1))
            y = _SHAPES[model.name].member(model, rng, z, x, r)
            assert in_shadow(model, Shadow(z, x, r), y)


def test_quasigeodesic_suite_rejects_farey():
    from hypwalk.errors import UnsatisfiableConfigError

    with pytest.raises(UnsatisfiableConfigError):
        quasigeodesic_suite(farey, 10, StreamDraws(0, ENSEMBLE_PROPS))


def test_conjugacy_suite_reports_smallest_slack():
    res = conjugacy_suite(free, 2000, StreamDraws(41, ENSEMBLE_PROPS), slack=2.0)
    assert res.failures == 0
    # |s| <= 3 forces slack at least |s|/2 = 1.5 on some instance
    assert res.fitted["smallest_sufficient"] == 1.5


def test_conjugacy_suite_computes_each_product_once(monkeypatch):
    from hypwalk import suites

    calls = []
    product = suites.gromov_product
    monkeypatch.setattr(suites, "gromov_product", lambda *a: calls.append(a) or product(*a))
    res = conjugacy_suite(free, 300, StreamDraws(41, ENSEMBLE_PROPS), slack=2.0)
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


def _nested_pairs(model):
    """Every (gap, r) that `_nested_separation_trial` can draw on `model`."""
    return [(gap, r) for gap in range(1, 4) for r in range(1, _SHAPES[model.name].nest_r_hi)]


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
def test_nested_separation_rejects_a_vacuous_inner_shadow_after_two_words(model, monkeypatch):
    """When r - gap - slack <= 0 the trial returns None having read exactly
    its `gap` and `r` words: no far pair, no member, no `b_pt`."""
    from hypwalk import suites

    def untouchable(*args):
        raise AssertionError("a vacuous trial drew past gap and r")

    shape = _SHAPES[model.name]
    monkeypatch.setitem(suites._SHAPES, model.name,
                        shape._replace(far_pair=untouchable, member=untouchable))
    vacuous = 0
    for seed in range(200):
        reference = StreamDraws(seed, ENSEMBLE_PROPS)
        gap, r = reference.integers(1, 4), reference.integers(1, shape.nest_r_hi)
        if r - gap > 0:
            continue
        rng = StreamDraws(seed, ENSEMBLE_PROPS)
        assert suites._nested_separation_trial(model, rng, 0.0)() is None
        assert rng.integers(0, 1 << 64) == reference.integers(0, 1 << 64)
        vacuous += 1
    assert vacuous > 50


class _ForcedHead:
    """A `StreamDraws` whose next scalar `integers` calls return `head`."""

    def __init__(self, rng):
        self._rng, self.head = rng, []

    def integers(self, low, high, size=None):
        if self.head and size is None:
            value = self.head.pop(0)
            assert low <= value < high
            return value
        return self._rng.integers(low, high, size)

    def runs(self, most, span):
        return self._rng.runs(most, span)


@pytest.mark.parametrize("model", [free, farey], ids=["free", "farey"])
@pytest.mark.parametrize("slack", [0.0, 0.5, 1.0, 2.0])
def test_nested_separation_valid_pairs_are_those_with_a_proper_inner_shadow(model, slack):
    """A (gap, r) yields valid instances exactly when r - gap - slack > 0;
    for every other pair `hypgeom` rejects each drawn configuration, so the
    early rejection drops only instances the precondition would drop."""
    from hypwalk import hypgeom, suites
    from hypwalk.errors import PreconditionError, UnsatisfiableConfigError

    shape = _SHAPES[model.name]
    rng = _ForcedHead(StreamDraws(int(slack * 2), ENSEMBLE_PROPS))
    trial = suites._nested_separation_trial(model, rng, slack)
    valid = set()
    for gap, r in _nested_pairs(model):
        for _ in range(60):
            rng.head = [gap, r]
            if trial() is not None:
                valid.add((gap, r))
                break
        if r - gap - slack <= 0:
            try:
                z, x = shape.far_pair(model, rng, gap + r + 2 * slack)
                a_pt = shape.member(model, rng, z, x, r)
            except UnsatisfiableConfigError:
                continue
            with pytest.raises(PreconditionError, match="b_pt"):
                hypgeom.verify_nested_shadow_separation(
                    model, z, x, r, gap, a_pt, model.sample_element(rng, shape.radius),
                    slack=slack)
    assert valid == {(gap, r) for gap, r in _nested_pairs(model) if r - gap - slack > 0}


def test_calibration_accepts_no_slack_that_tested_nothing(monkeypatch):
    """A slack passes only when its run reached `instances` valid instances.
    Nested separation on SL(2,Z) offset by 2 has no valid (gap, r) anywhere
    on the grid, so the search raises instead of accepting slack 0 with zero
    instances; every trial rejects after two words, so this runs quickly."""
    from hypwalk import suites
    from hypwalk.errors import UnsatisfiableConfigError

    nested = suites._nested_separation_trial
    monkeypatch.setattr(suites, "_nested_separation_trial",
                        lambda model, rng, slack: nested(model, rng, slack + 2.0))
    with pytest.raises(UnsatisfiableConfigError, match="nested_separation"):
        suites._fit_slacks(farey, 7, 10)
