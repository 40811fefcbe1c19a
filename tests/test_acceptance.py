"""Acceptance suite: one test per release criterion, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE nn name: PASS/FAIL`` line per criterion.  Tolerances are
pinned here; "exact" means exact rational comparison, no epsilon.

Criterion 08 is expected to fail and is marked xfail(strict): it asks the
static selector's cumulative square error over 14 steps to exceed
ln 7 ~ 1.946, but every model in that class predicts within 1/4 of the
truth, capping each step's error at 1/8 and the 14-step sum at 1.75.
The test asserts the criterion as stated; the exact ledger value is
reported alongside.
"""

import json
import math
import time
from fractions import Fraction as F

import pytest

from mdl_lab.decisions import (
    check_regret_bound,
    decision_traces,
    unit_square_inequality_scan,
)
from mdl_lab.enclosure import ln_interval
from mdl_lab.measures import OscillatingMartingaleMeasure, sample_path
from mdl_lab.metrics import check_bounds, cumulative_distances, inverse_weight, step_distances
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    bernoulli_class,
    bernoulli_sharpness_class,
    example1_class,
    example3_class,
    example5_class,
    map_estimator,
    round_robin,
    two_part_value,
    two_part_value_at,
)
from mdl_lab.predictors import bayes_mixture, normalize, predict_dynamic, predict_static
from mdl_lab.stabilization import hybrid_value_series, map_trace, monte_carlo_stabilization
from mdl_lab.suites import (
    random_distribution,
    random_measure_class,
    random_semimeasure_class,
    random_stationary_loss,
    random_word,
    suite_rng,
)
from oracle import all_words


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {state}{suffix}")
    return ok


def test_criterion_01_example1_exactness():
    ok = True
    details = []
    for n_models in (2, 5, 16, 64):
        start = time.perf_counter()
        cls = example1_class(n_models)
        total = cumulative_distances(cls, "rho_norm", n_models + 1).cumulative("square")
        elapsed = time.perf_counter() - start
        ok &= total == F(n_models - 1, 2)
        ok &= elapsed < 1.0
        details.append(f"N={n_models}: S={total} in {elapsed:.2f}s")
    assert verdict(1, "example1-exactness", ok, "; ".join(details))


def test_criterion_02_bound_suite_200_classes():
    start = time.perf_counter()
    failures = []
    for case in range(200):
        cls = random_measure_class(0, case)
        for report in check_bounds(cls, 10):
            if not report.passed:
                failures.append((case, report.bound_name, report.predictor))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    assert verdict(
        2,
        "bound-suite",
        ok,
        f"200 classes, horizon 10, {len(failures)} failures, {elapsed:.0f}s",
    )


def test_criterion_03_lemma_inequality_suite():
    violations = 0

    # Depth <= 8 trees, 50 random classes (leaky members included).
    words = all_words(7)
    for case in range(50):
        rng = suite_rng(1, case)
        cls = (
            random_semimeasure_class(1, case)
            if case % 2
            else random_measure_class(1, case)
        )
        measures_only = all(m.is_proper_measure for m in cls.models)
        y = random_word(rng, cls.alphabet, 8)
        for x in words:
            xi_x = bayes_mixture(cls, x)
            rho_x = two_part_value(cls, x)
            xi_kids = rho_kids = F(0)
            static_kids = F(0)
            chosen = map_estimator(cls, x).index
            for a in (0, 1):
                xa = x + (a,)
                xi_kids += bayes_mixture(cls, xa)
                rho_kids += two_part_value(cls, xa)
                static_kids += cls.weights[chosen] * cls.models[chosen].evaluate_exact(xa)
            # The mixture/two-part gap shrinks like a semimeasure, in
            # both the re-selected and the frozen-choice variants.
            if not (xi_x - rho_x >= xi_kids - rho_kids >= 0):
                violations += 1
            if not (xi_x - rho_x >= xi_kids - static_kids >= 0):
                violations += 1
            if not (xi_x >= rho_x >= two_part_value_at(cls, y, x)):
                violations += 1
            if measures_only and not (rho_kids >= rho_x):
                violations += 1

    # Pointwise distance inequalities on 10^4 random distribution pairs.
    for case in range(10_000):
        rng = suite_rng(2, case)
        mu = random_distribution(rng, 2)
        phi = random_distribution(rng, 2)
        d = step_distances(mu, phi)
        if d.square < 0 or d.absolute < 0 or d.hellinger.lo < 0:
            violations += 1
        if d.kl != math.inf:
            if d.square > d.kl.hi or d.hellinger.lo > d.kl.hi:
                violations += 1
        if d.hellinger.lo > d.absolute:
            violations += 1
    ok = violations == 0
    assert verdict(3, "lemma-inequality-suite", ok, f"{violations} violations")


def test_criterion_04_unit_square_scan():
    start = time.perf_counter()
    worst = unit_square_inequality_scan(2001)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30
    assert verdict(
        4, "unit-square-scan", ok, f"max violation {worst:.3e}, {elapsed:.1f}s"
    )


def test_criterion_05_loss_bound_theorem():
    kinds = ("rho_norm", "rho", "static", "static_norm")
    horizon = 8  # within the n <= 10 budget
    bad = 0
    for case in range(100):
        cls = random_measure_class(3, case, max_models=5)
        loss = random_stationary_loss(suite_rng(3, 50_000 + case))
        traces = decision_traces(cls, kinds, loss, horizon)
        for kind in kinds:
            trace = traces[kind]
            if not trace.instantaneous_ok:
                bad += 1
            if not trace.cumulative_bound_ok():
                bad += 1
            if not check_regret_bound(cls, kind, loss, horizon, trace=trace).passed:
                bad += 1
    ok = bad == 0
    assert verdict(5, "loss-bound-theorem", ok, f"100 pairs x 4 predictors, {bad} violations")


def test_criterion_06_example3_tie_behavior():
    cls = example3_class()
    rr = round_robin()
    ones = (1,) * 100
    hybrid = hybrid_value_series(cls, ones, rr)
    alternates = all(
        hybrid[t - 1] == (F(1, 4) if t % 2 == 0 else F(1)) for t in range(2, 101)
    )
    halves = True
    for t in range(1, 101):
        prefix = ones[: t - 1]
        dyn = normalize(predict_dynamic(cls, prefix, rr)).values
        sta = normalize(predict_static(cls, prefix, rr)).values
        if dyn != (F(1, 2), F(1, 2)) or sta != (F(1, 2), F(1, 2)):
            halves = False
    constant = len(set(map_trace(cls, ones, LARGEST_WEIGHT).indices)) == 1
    ok = alternates and halves and constant
    assert verdict(
        6,
        "example3-ties",
        ok,
        f"hybrid alternates={alternates}, dyn/static half={halves}, "
        f"largest-weight constant={constant}",
    )


def test_criterion_07_example5_martingale():
    m = OscillatingMartingaleMeasure()
    identity = all(
        2 * m.f_value(bits) == m.f_value(bits + (0,)) + m.f_value(bits + (1,))
        for bits in all_words(11)
    )
    masses = m.dead_mass_by_depth(20)
    mass_ok = all(mass <= F(1, 4) for mass in masses)
    summary = monte_carlo_stabilization(
        example5_class(), 2000, samples=500, window=500, seed=7
    )
    non_stabilized = 1 - summary.fraction_stabilized
    mc_ok = non_stabilized >= F(1, 2)
    ok = identity and mass_ok and mc_ok
    assert verdict(
        7,
        "example5-martingale",
        ok,
        f"identity(12)={identity}, dead-mass<=1/4(20)={mass_ok}, "
        f"non-stabilized={float(non_stabilized):.3f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "as stated this cannot hold: every parameter in the class lies "
        "within 1/4 of 1/2, so each step's square error is at most 1/8 "
        "and the 14-step sum at most 1.75 < ln 7 ~ 1.946; the exact "
        "ledger comes out near 0.372"
    ),
)
def test_criterion_08_example2_sharpness_short_horizon():
    cls = bernoulli_sharpness_class(6)
    total = cumulative_distances(cls, "static", 14).cumulative("square")
    budget = ln_interval(inverse_weight(cls))
    exceeds = total > budget.hi
    verdict(
        8,
        "example2-sharpness",
        exceeds,
        f"S(static,14)={float(total):.4f} vs ln7={budget.midpoint_float():.4f}",
    )
    assert exceeds


def test_criterion_09_stabilization_positive_case():
    start = time.perf_counter()
    cls = bernoulli_class(
        [F(1, 8), F(3, 8), F(5, 8), F(7, 8)], true_index=1
    )
    summary = monte_carlo_stabilization(cls, 2000, samples=500, window=500, seed=9)
    elapsed = time.perf_counter() - start
    ok = summary.fraction_stabilized >= F(95, 100) and elapsed < 120
    assert verdict(
        9,
        "stabilization-positive",
        ok,
        f"stabilized={float(summary.fraction_stabilized):.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_coding():
    from mdl_lab.coding import (
        block_interval,
        decode,
        encode,
        kraft_sum,
        sequential_interval,
    )
    from mdl_lab.values import neg_log2_ceil

    rng = suite_rng(10, 0)
    classes = [
        bernoulli_class([F(1, 4), F(1, 2), F(3, 4)]),
        bernoulli_class([F(1, 3), F(2, 3)]),
        example1_class(4),
    ]
    roundtrip = lengths = 0
    for _ in range(10_000):
        cls = rng.choice(classes)
        index = rng.randrange(len(cls.models))
        n = rng.randint(0, 24)
        try:
            word = sample_path(cls.models[index], n, rng) if n else ()
        except Exception:
            continue
        code = encode(cls, index, word)
        if len(code.payload) != neg_log2_ceil(cls.models[index].evaluate_exact(word)):
            lengths += 1
        if decode(cls, code.bits) != word:
            roundtrip += 1
    kraft_ok = all(
        kraft_sum(cls, j, 10) <= 1
        for cls in classes[:2]
        for j in range(len(cls.models))
    )
    seq_block_ok = True
    for cls in classes[:2]:
        for j in range(len(cls.models)):
            word = sample_path(cls.models[j], 12, suite_rng(10, 2))
            seq_block_ok &= sequential_interval(cls, j, word) == block_interval(
                cls, j, word
            )
    ok = roundtrip == 0 and lengths == 0 and kraft_ok and seq_block_ok
    assert verdict(
        10,
        "coding",
        ok,
        f"roundtrip_failures={roundtrip}, length_failures={lengths}, "
        f"kraft={kraft_ok}, seq=block={seq_block_ok}",
    )


def test_criterion_11_footnote_densities():
    from mdl_lab.conditional import footnote_density_demo

    ok = True
    for n in (3, 9, 27):
        square, kl = footnote_density_demo(n)
        ok &= abs(square - 2 * n / 9) <= 1e-8
        ok &= abs(kl - math.log(2) / 3) <= 1e-8
    assert verdict(11, "footnote-densities", ok, "n in {3, 9, 27} within 1e-8")


REDUCED = {
    "bound_suite": {"params": {"classes": "6"}},
    "example1": {"params": {"N": "5"}},
    "example2_mc": {"horizon": 8, "params": {"mc_horizon": "40"}, "samples": 30},
    "example3_hybrid": {"horizon": 30},
    "example4_ratio": {"horizon": 40},
    "example5_martingale": {
        "horizon": 200,
        "samples": 24,
        "params": {"identity_depth": "6", "mass_depth": "10", "window": "60"},
    },
    "stabilization_mc": {"horizon": 200, "samples": 24, "params": {"window": "60"}},
    "loss_bounds": {"horizon": 5, "params": {"pairs": "6"}},
    "unit_square_scan": {"params": {"m": "201"}},
    "classification_demo": {"horizon": 5},
    "regression_demo": {"horizon": 12, "samples": 40},
    "coding_roundtrip": {"params": {"cases": "300"}},
}


def test_criterion_12_determinism_across_worker_counts():
    from mdl_lab.experiments import ExperimentConfig, run_experiment

    mismatches = []
    for name, overrides in REDUCED.items():
        payloads = []
        for workers in (1, 3):
            cfg = ExperimentConfig.from_dict(
                {"experiment": name, "seed": 12, "workers": workers, **overrides}
            )
            report = run_experiment(cfg)
            payload = report.payload(include_wall_clock=False)
            payload["config"].pop("workers")
            payloads.append(
                json.dumps(payload, sort_keys=True, default=str)
            )
        if payloads[0] != payloads[1]:
            mismatches.append(name)
    ok = not mismatches
    assert verdict(
        12,
        "determinism",
        ok,
        "all 12 experiments byte-identical across worker counts"
        if ok
        else f"mismatches: {mismatches}",
    )
