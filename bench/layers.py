"""The benchmark's metric tables, mirrored by ``BENCHMARK.json``.

Every end-to-end metric is emitted by every workload.  Each per-layer
metric records which end-to-end metric it should move, through which part
of which workload, and where it is predicted to stay unchanged; the
self-check (``selfcheck.py``) verifies that ``BENCHMARK.json`` lists
exactly these names, units and directions.

Workload parts: exact_walk = bounds, loss_pairs, deep_ledger;
long_paths = bernoulli, martingale, parallel, mc_ledger;
point_queries = functional, codes.
"""

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "round_cost", "unit": "ref_loops", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_WALK = ("round_cost via bounds, loss_pairs, deep_ledger", "exact_walk", "long_paths, point_queries")
_PATHS = ("round_cost via bernoulli, martingale, parallel", "long_paths", "exact_walk, point_queries")
_QUERIES = ("round_cost via functional", "point_queries", "exact_walk, long_paths")
_CODES = ("round_cost via codes", "point_queries", "exact_walk, long_paths")
_NONE = ("none (calibration)", "all", "-")


def _row(name, unit, better, why):
    moves, on, unchanged_on = why
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "moves": moves,
        "on": on,
        "unchanged_on": unchanged_on,
    }


PER_LAYER = [
    # Part throughputs of the untraced pass of a traced run (0 where a
    # workload has no such part).
    _row("part.bound_classes_per_s", "classes/s", "higher", _WALK),
    _row("part.loss_pairs_per_s", "pairs/s", "higher", _WALK),
    _row("part.deep_ledgers_per_s", "ledgers/s", "higher", _WALK),
    _row("part.bernoulli_paths_per_s", "paths/s", "higher", _PATHS),
    _row("part.martingale_paths_per_s", "paths/s", "higher", _PATHS),
    _row("part.parallel_paths_per_s", "paths/s", "higher", _PATHS),
    _row("part.mc_ledger_paths_per_s", "paths/s", "higher",
         ("round_cost via mc_ledger", "long_paths", "exact_walk, point_queries")),
    _row("part.functional_queries_per_s", "calls/s", "higher", _QUERIES),
    _row("part.codes_per_s", "round_trips/s", "higher", _CODES),
    # Tree walks (metrics).
    _row("metrics.walk_support_nodes.bounds", "count", "lower", _WALK),
    _row("metrics.walk_support_nodes.loss_pairs", "count", "lower", _WALK),
    _row("metrics.walk_support_nodes.deep_ledger", "count", "lower", _WALK),
    _row("metrics.walk_support_nodes_per_s", "nodes/s", "higher", _WALK),
    _row("metrics.walk_support_self_share", "ratio", "lower", _WALK),
    _row("metrics.check_bounds_self_share", "ratio", "lower", _WALK),
    _row("metrics.node_build_us", "us", "lower",
         ("round_cost via the walk parts and mc_ledger", "exact_walk, long_paths", "point_queries")),
    *[
        _row(f"metrics.prediction_us.{kind}", "us", "lower",
             ("round_cost via the walk parts and mc_ledger", "exact_walk, long_paths",
              "point_queries"))
        for kind in ("xi", "rho", "rho_norm", "static", "static_norm", "hybrid")
    ],
    _row("metrics.step_distances_us.exact", "us", "lower", _WALK),
    _row("metrics.step_distances_us.float", "us", "lower",
         ("round_cost via mc_ledger", "long_paths", "exact_walk, point_queries")),
    _row("metrics.max_denominator_bits", "count", "lower",
         ("round_cost via deep_ledger", "exact_walk", "-")),
    # Certified enclosures.
    _row("enclosure.sqrt_interval_us", "us", "lower",
         ("round_cost via bounds, loss_pairs", "exact_walk", "long_paths, point_queries")),
    _row("enclosure.ln_interval_us", "us", "lower",
         ("round_cost via bounds", "exact_walk", "long_paths, point_queries")),
    _row("enclosure.self_share", "ratio", "lower", _WALK),
    _row("enclosure.ln_interval_calls", "count", "lower", _WALK),
    _row("enclosure.ln_interval_distinct_args", "count", "lower", _WALK),
    _row("enclosure.min_slack_over_width", "ratio", "higher", _WALK),
    # Decisions.
    _row("decisions.decision_traces_self_share", "ratio", "lower",
         ("round_cost via loss_pairs", "exact_walk", "long_paths, point_queries")),
    _row("decisions.check_regret_bound_us", "us", "lower",
         ("round_cost via loss_pairs", "exact_walk", "long_paths, point_queries")),
    _row("decisions.inconclusive", "count", "lower",
         ("failed via loss_pairs", "exact_walk", "long_paths, point_queries")),
    _row("metrics.inconclusive", "count", "lower",
         ("failed via bounds", "exact_walk", "long_paths, point_queries")),
    # Measures: cursors and sampling.
    *[
        _row(f"measures.cursor_advance_us.{family}", "us", "lower",
             ("round_cost via bernoulli, martingale, codes", "long_paths, point_queries",
              "exact_walk node counts"))
        for family in ("iid", "deterministic", "factorizable", "martingale", "leaky")
    ],
    _row("measures.sample_path_symbols_per_s.iid", "symbols/s", "higher", _PATHS),
    _row("measures.sample_path_symbols_per_s.martingale", "symbols/s", "higher", _PATHS),
    # Stabilization.
    _row("stabilization.map_trace_steps_per_s.bernoulli", "steps/s", "higher",
         ("round_cost via bernoulli, parallel", "long_paths", "exact_walk, point_queries")),
    _row("stabilization.map_trace_steps_per_s.martingale", "steps/s", "higher",
         ("round_cost via martingale", "long_paths", "exact_walk, point_queries")),
    _row("stabilization.map_trace_max_bits.bernoulli", "count", "lower",
         ("round_cost via bernoulli, parallel", "long_paths", "exact_walk, point_queries")),
    _row("stabilization.map_trace_max_bits.martingale", "count", "lower",
         ("round_cost via martingale", "long_paths", "exact_walk, point_queries")),
    _row("stabilization.parallel_speedup", "ratio", "higher",
         ("round_cost and peak_rss_mb via parallel", "long_paths", "exact_walk, point_queries")),
    # Functional predictors and the two-part code.
    _row("model_class.map_estimator_us", "us", "lower", _QUERIES),
    _row("predictors.bayes_mixture_us", "us", "lower", _QUERIES),
    _row("predictors.predict_dynamic_us", "us", "lower", _QUERIES),
    _row("predictors.predict_static_us", "us", "lower", _QUERIES),
    _row("coding.encode_us", "us", "lower", _CODES),
    _row("coding.decode_us", "us", "lower", _CODES),
    _row("coding.bits_per_case", "bits", "lower", _CODES),
    # Calibration and correctness.
    _row("round_s", "s", "lower", ("round_cost, in seconds", "all", "-")),
    _row("trace_overhead_ratio", "ratio", "lower", _NONE),
    _row("host.ref_loop_s", "s", "lower", _NONE),
    _row("ops_failed_ratio", "ratio", "lower", ("failed and correct", "all", "-")),
]
