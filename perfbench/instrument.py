"""Which hypwalk functions the traced run wraps, and the per-layer metrics
derived from the spans.

Layers follow the package's modules: `walk` (Philox stream set-up and alias
draw), `engines` (letter-stack and bigint step kernels), `models.free`,
`models.farey` (exact Farey distance and its memo), `hypgeom`, `suites`,
`stats` and `cli`.  Engine and estimator entry points are found by listing
each module's public functions, so renamed or added entry points are still
timed.  Nothing inside the package is changed.
"""

from __future__ import annotations

from spans import Tracer, public_functions

SUITE_LAYERS = {
    "gromov_product_suite": "suites.gromov_product",
    "shadow_monotonicity_suite": "suites.shadow_monotonicity",
    "product_bound_suite": "suites.product_bound",
    "metric_nest_suite": "suites.metric_nest",
    "composition_suite": "suites.composition",
    "nested_separation_suite": "suites.nested_separation",
    "basepoint_change_suite": "suites.basepoint_change",
    "shadow_complement_suite": "suites.shadow_complement",
    "quasigeodesic_suite": "suites.quasigeodesic",
    "conjugacy_suite": "suites.conjugacy",
}


def _count_steps(tracer, args, kwargs):
    n = int(args[2] if len(args) > 2 else kwargs.get("n", 0))
    tracer.counts["walk.steps_drawn"] += n
    if tracer.depth["engines"]:
        tracer.counts["engines.sample_steps"] += n


def _count_suite_sample(tracer, args, kwargs):
    if any(tracer.depth[layer] for layer in SUITE_LAYERS.values()):
        tracer.counts["suites.samples"] += 1


def _count_instances(tracer, result):
    tracer.counts["suites.instances"] += getattr(result, "instances", 0)


def _count_counterexamples(tracer, results):
    tracer.counts["suites.counterexamples"] += sum(getattr(r, "failures", 0) for r in results)


# (module, function, layer, on_call, on_return); a name the package no longer
# has is skipped, and its metrics read 0
FUNCTIONS = [
    ("walk", "stream_generator", "walk.stream", None, None),
    ("models.farey", "dist_to_infinity", "farey.dist", None, None),
    ("models.farey", "slope_distance", "farey.dist", None, None),
    ("hypgeom", "gromov_product", "hypgeom.gromov", None, None),
    ("hypgeom", "quasigeodesic_check", "hypgeom.quasigeodesic", None, None),
    *[("suites", name, layer, None, _count_instances) for name, layer in SUITE_LAYERS.items()],
    ("suites", "calibrate_constants", "suites.calibrate", None, None),
    ("suites", "run_all_suites", "suites.battery", None, _count_counterexamples),
    ("stats", "clopper_pearson", "stats.ci", None, None),
    ("stats", "assert_nonelementary", "stats.nonelementary", None, None),
    ("stats", "translation_length_detail", "stats.tau", None, None),
    ("cli", "main", "cli", None, None),
]
# (module, class, method, layer, on_call)
METHODS = [
    ("walk", "StepDistribution", "draw_indices", "walk.draw", _count_steps),
    ("models.farey", "FareyModel", "distance", "farey.dist", None),
    ("models.farey", "FareyModel", "sample_element", "farey.sample", _count_suite_sample),
    ("models.free", "FreeGroupModel", "sample_word", "free.sample", None),
    ("models.free", "FreeGroupModel", "sample_element", "free.sample", _count_suite_sample),
    ("models.free", "FreeGroupModel", "distance", "free.distance", None),
]


def install(mode: str) -> Tracer:
    """Wrap the engine entry points ("engines") or every layer ("full")."""
    import importlib

    def module(name):
        return importlib.import_module(f"hypwalk.{name}")

    tracer = Tracer()
    for fn in public_functions(module("engines")):
        tracer.wrap_function(fn, "engines", "engines.call")
    if mode == "engines":
        return tracer

    stats = module("stats")
    # estimators: every public stats function not given a layer of its own
    # above, listed before any wrapper replaces a stats name
    own_layer = {getattr(module(m), f, None) for m, f, *_ in FUNCTIONS}
    estimators = [fn for fn in public_functions(stats) if fn not in own_layer]
    for mod, name, layer, on_call, on_return in FUNCTIONS:
        fn = getattr(module(mod), name, None)
        if fn is not None:
            tracer.wrap_function(fn, layer, on_call=on_call, on_return=on_return)
    for fn in estimators:
        tracer.wrap_function(fn, "stats")
    for mod, cls_name, attr, layer, on_call in METHODS:
        cls = getattr(module(mod), cls_name, None)
        if cls is not None:
            tracer.wrap_method(cls, attr, layer, on_call=on_call)
    return tracer


def metrics(tracer: Tracer, mode: str) -> dict:
    """Per-layer metrics of one traced batch, keyed by their BENCHMARK.json
    names (times in seconds)."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    if mode == "engines":
        return {"engines_s": inc["engines"]}
    from hypwalk.models import farey

    memo_entries = len(getattr(farey, "_SLOPE_MEMO", ()))
    dist_calls = calls["dist_to_infinity"]
    instances = counts["suites.instances"]
    out = {
        "walk.stream_s": inc["walk.stream"],
        "walk.draw_s": inc["walk.draw"],
        "walk.streams": calls["stream_generator"],
        "walk.steps_drawn": counts["walk.steps_drawn"],
        "engines.self_s": own["engines"],
        "engines.calls": calls["engines.call"],
        "engines.sample_steps": counts["engines.sample_steps"],
        "farey.dist_s": inc["farey.dist"],
        "farey.dist_calls": dist_calls,
        "farey.memo_entries": memo_entries,
        "farey.memo_new_per_call": memo_entries / dist_calls if dist_calls else 0.0,
        "farey.sample_element_s": inc["farey.sample"],
        "free.sample_word_s": inc["free.sample"],
        "free.sample_word_calls": calls["FreeGroupModel.sample_word"],
        "free.distance_s": inc["free.distance"],
        "free.distance_calls": calls["FreeGroupModel.distance"],
        "hypgeom.quasigeodesic_s": inc["hypgeom.quasigeodesic"],
        "hypgeom.gromov_s": inc["hypgeom.gromov"],
        "hypgeom.gromov_calls": calls["gromov_product"],
        "suites.calibrate_s": inc["suites.calibrate"],
        "suites.instances": instances,
        "suites.samples_per_instance": counts["suites.samples"] / instances if instances else 0.0,
        "suites.counterexamples": counts["suites.counterexamples"],
        "stats.self_s": own["stats"],
        "stats.ci_s": inc["stats.ci"],
        "stats.ci_calls": calls["clopper_pearson"],
        "stats.nonelementary_s": inc["stats.nonelementary"],
        "stats.tau_loop_s": inc["stats.tau"],
        "cli.self_s": own["cli"],
    }
    for layer in SUITE_LAYERS.values():
        out[f"{layer}_s"] = inc[layer]
    return out
