"""Unit costs of single layers: timed calls into public functions.

Each cost is the median, over a few batches, of the mean time per call.
Arguments come from the traced workload when it called the function
(``Tracer.captured``) and are otherwise built from the seed, so every
traced run reports every unit cost.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

from mdl_lab import (
    coding,
    decisions,
    enclosure,
    measures,
    metrics,
    model_class,
    predictors,
    stabilization,
    suites,
)

import workloads

BATCHES = 5
BATCH_SECONDS = 0.025
CURSOR_DEPTH = 64
SAMPLE_SYMBOLS = 256
MIN_CAPTURED = 32
PREDICTION_KINDS = (
    predictors.XI,
    predictors.RHO,
    predictors.RHO_NORM,
    predictors.STATIC,
    predictors.STATIC_NORM,
    predictors.HYBRID,
)


def per_call_us(fn, calls) -> float:
    """Median over batches of the mean microseconds per ``fn(*args)``."""
    means = []
    for _ in range(BATCHES):
        n = 0
        start = perf_counter()
        while True:
            for args in calls:
                fn(*args)
            n += len(calls)
            elapsed = perf_counter() - start
            if elapsed >= BATCH_SECONDS:
                break
        means.append(elapsed / n)
    return statistics.median(means) * 1e6


def fresh_call_us(make, fn) -> float:
    """Like :func:`per_call_us` for calls whose inputs must be rebuilt
    (cached results): ``make()`` builds inputs outside the timed region."""
    means = []
    for _ in range(BATCHES):
        n = 0
        spent = 0.0
        while spent < BATCH_SECONDS:
            inputs = make()
            start = perf_counter()
            for args in inputs:
                fn(*args)
            spent += perf_counter() - start
            n += len(inputs)
        means.append(spent / n)
    return statistics.median(means) * 1e6


def _path_nodes(cls, seed: int, depth: int):
    """PredictionNodes along one seeded path of the class's true model."""
    path = measures.sample_path(cls.true_model, depth, measures.derived_rng(seed, 1))
    node = metrics.PredictionNode(
        cls, model_class.LARGEST_WEIGHT, (), [m.cursor() for m in cls.models], Fraction(1)
    )
    nodes = [node]
    for a in path:
        node = node.child_node(a)
        nodes.append(node)
    return nodes, path


def _alive_martingale_path(seed: int):
    mart = measures.OscillatingMartingaleMeasure()
    lam = measures.IidModel((Fraction(1, 2), Fraction(1, 2)))
    for k in range(1000):
        path = measures.sample_path(lam, CURSOR_DEPTH, measures.derived_rng(seed, 5000 + k))
        cur = mart.cursor()
        for a in path:
            cur = cur.advance(a)
        if not cur.dead:
            return mart, path
    raise RuntimeError("no alive martingale path found")


def _walk_cursor(model, path):
    cur = model.cursor()
    for a in path:
        cur = cur.advance(a)


def run_all(seed: int, captured: dict) -> dict:
    out = {}
    rng = suites.suite_rng(seed, 777_000)

    # Cursors, per model family, along a 64-symbol path.
    iid = measures.IidModel(suites.random_positive_distribution(rng, 2))
    det = measures.DeterministicModel((), (1, 0))
    fact = measures.FactorizableModel.from_steps(
        measures.BINARY,
        [suites.random_positive_distribution(rng, 2) for _ in range(3)],
        suites.random_positive_distribution(rng, 2),
    )
    leaky = measures.LeakySemimeasure(iid, Fraction(1, 8))
    mart, mart_path = _alive_martingale_path(seed)
    iid_path = measures.sample_path(iid, CURSOR_DEPTH, measures.derived_rng(seed, 2))
    det_path = tuple(det.target_symbol(i) for i in range(CURSOR_DEPTH))
    fact_path = measures.sample_path(fact, CURSOR_DEPTH, measures.derived_rng(seed, 3))
    for family, model, path in (
        ("iid", iid, iid_path),
        ("deterministic", det, det_path),
        ("factorizable", fact, fact_path),
        ("martingale", mart, mart_path),
        ("leaky", leaky, iid_path),
    ):
        out[f"measures.cursor_advance_us.{family}"] = (
            per_call_us(_walk_cursor, [(model, path)]) / len(path)
        )

    for family, model in (("iid", iid), ("martingale", mart)):
        k = [0]

        def draw(model=model):
            k[0] += 1
            measures.sample_path(model, SAMPLE_SYMBOLS, measures.derived_rng(seed, k[0]))

        out[f"measures.sample_path_symbols_per_s.{family}"] = SAMPLE_SYMBOLS / (
            per_call_us(draw, [()]) * 1e-6
        )

    # Prediction nodes on a full-support four-model class.
    ((_, cls4),) = workloads.pick(
        [("full", "det", "fact", "iid", "iid")],
        lambda c: suites.random_measure_class(seed, c),
        workloads.walk_stratum(8),
    )
    nodes, path = _path_nodes(cls4, seed, 8)
    out["metrics.node_build_us"] = per_call_us(
        lambda node, a: node.child_node(a), list(zip(nodes, path))
    )

    def fresh_nodes():
        return [
            (metrics.PredictionNode(cls4, n.tie_break, n.prefix, n.cursors, n.weight),)
            for n in nodes
        ]

    for kind in PREDICTION_KINDS:
        out[f"metrics.prediction_us.{kind}"] = fresh_call_us(
            fresh_nodes, lambda node, kind=kind: node.prediction(kind)
        )

    pairs = [
        (n.true_conditionals(), n.prediction(kind))
        for n in nodes
        for kind in (predictors.XI, predictors.RHO, predictors.STATIC)
    ]
    step_args = [a[:2] for a in captured.get("metrics.step_distances", [])]
    if len(step_args) < MIN_CAPTURED:
        step_args = pairs
    out["metrics.step_distances_us.exact"] = per_call_us(
        lambda mu, phi: metrics.step_distances(mu, phi, metrics.EXACT), step_args
    )
    out["metrics.step_distances_us.float"] = per_call_us(
        lambda mu, phi: metrics.step_distances(mu, phi, metrics.FLOAT), step_args
    )

    out["metrics.walk_support_nodes_per_s"] = _walk_rate(cls4)

    sqrt_args = captured.get("enclosure.sqrt_interval", [])
    if len(sqrt_args) < MIN_CAPTURED:
        sqrt_args = [(p * q,) for mu, phi in pairs for p, q in zip(mu, phi) if p * q > 0]
    out["enclosure.sqrt_interval_us"] = per_call_us(enclosure.sqrt_interval, sqrt_args)
    ln_args = captured.get("enclosure.ln_interval", [])
    if len(ln_args) < MIN_CAPTURED:
        ln_args = [(p / q,) for mu, phi in pairs for p, q in zip(mu, phi) if p > 0 and q > 0]
    out["enclosure.ln_interval_us"] = per_call_us(enclosure.ln_interval, ln_args)

    # One loss pair at horizon 8, with its decision traces precomputed.
    ((_, pair_cls),) = workloads.pick(
        [("full", "det", "iid", "iid")],
        lambda c: suites.random_measure_class(seed, workloads.PAIR_CASE_OFFSET + c, max_models=5),
        workloads.walk_stratum(workloads.LOSS_HORIZON),
    )
    loss = suites.random_stationary_loss(suites.suite_rng(seed, 777_001))
    traces = decisions.decision_traces(pair_cls, workloads.MDL_KINDS, loss, workloads.LOSS_HORIZON)
    out["decisions.check_regret_bound_us"] = per_call_us(
        lambda k: decisions.check_regret_bound(
            pair_cls, k, loss, workloads.LOSS_HORIZON, trace=traces[k]
        ),
        [(k,) for k in workloads.MDL_KINDS],
    )

    # map_trace over one long path per family.
    for family, cls in (
        ("bernoulli", workloads.bernoulli4_class()),
        ("martingale", model_class.example5_class()),
    ):
        word = measures.sample_path(
            cls.true_model, workloads.PATH_HORIZON, measures.derived_rng(seed, 4)
        )
        times = []
        for _ in range(2):
            start = perf_counter()
            stabilization.map_trace(cls, word)
            times.append(perf_counter() - start)
        out[f"stabilization.map_trace_steps_per_s.{family}"] = (len(word) + 1) / statistics.median(
            times
        )

    # Functional queries on every word shorter than 8.
    words = [(cls4, w) for w in workloads.query_words()]
    out["model_class.map_estimator_us"] = per_call_us(model_class.map_estimator, words)
    out["predictors.bayes_mixture_us"] = per_call_us(predictors.bayes_mixture, words)
    out["predictors.predict_dynamic_us"] = per_call_us(predictors.predict_dynamic, words)
    out["predictors.predict_static_us"] = per_call_us(predictors.predict_static, words)

    # Two-part codes on seeded strings of up to 24 symbols.
    cases = workloads.code_cases(rng)
    codes = [(cls, coding.encode(cls, index, word).bits) for cls, index, word in cases]
    out["coding.encode_us"] = per_call_us(coding.encode, cases)
    out["coding.decode_us"] = per_call_us(coding.decode, codes)
    out["coding.bits_per_case"] = statistics.fmean(len(bits) for _, bits in codes)
    return out


def _walk_rate(cls) -> float:
    rates = []
    for _ in range(BATCHES):
        start = perf_counter()
        nodes = metrics.walk_support(cls, 8, lambda node: None)
        rates.append(nodes / (perf_counter() - start))
    return statistics.median(rates)
