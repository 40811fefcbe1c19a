import math
import statistics
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdl_lab import decisions, measures, metrics, stabilization
from mdl_lab.errors import AllZeroError, MdlLabError, SamplingError, TooLargeError
from mdl_lab.measures import (
    Alphabet,
    BINARY,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    Semimeasure,
    derived_rng,
)
from mdl_lab.metrics import (
    check_bounds,
    cumulative_distances,
    inverse_weight,
    mean_stderr,
    monte_carlo_distances,
    monte_carlo_rows,
    step_distances,
    walk_support,
)
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    WeightedClass,
    bernoulli_class,
    bernoulli_sharpness_class,
    example1_class,
    example3_class,
    example5_class,
)
from mdl_lab.predictors import ALL_KINDS, STATIC, TRUE, XI, PredictionNode
from mdl_lab.stabilization import sampled_trace
from mdl_lab.suites import (
    random_distribution,
    random_measure_class,
    random_semimeasure_class,
    random_stationary_loss,
    suite_rng,
)
import oracle
from oracle import outcome


def exact_distribution_pair(rng):
    return random_distribution(rng, 2), random_distribution(rng, 2)


class TestStepDistances:
    def test_identical_distributions(self):
        d = step_distances((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3)))
        assert d.square == 0 and d.absolute == 0
        assert d.hellinger.hi == 0
        assert d.kl.hi == 0

    def test_frozen_example(self):
        # mu = (1/2, 1/2), phi = (1/4, 3/4):
        #   square   = 2 * (1/4)^2 = 1/8
        #   absolute = 1/2
        #   kl       = (ln 2 - (1/2) ln(3/2)) exactly
        d = step_distances((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert d.square == F(1, 8)
        assert d.absolute == F(1, 2)
        truth_kl = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert abs(d.kl.midpoint_float() - truth_kl) < 1e-12
        assert d.kl.width < F(1, 2**80)

    def test_kl_infinite_when_support_lost(self):
        d = step_distances((F(1, 2), F(1, 2)), (F(1), F(0)))
        assert d.kl == math.inf

    def test_inequality_suite_exact(self):
        # square <= kl, hellinger <= kl, hellinger <= absolute; all >= 0
        # and capped at 2: exact on seeded random distribution pairs.
        for case in range(2000):
            rng = suite_rng(101, case)
            mu, phi = exact_distribution_pair(rng)
            d = step_distances(mu, phi)
            assert 0 <= d.square <= 2
            assert 0 <= d.absolute <= 2
            assert d.hellinger.lo >= 0 and d.hellinger.hi <= 2
            if d.kl == math.inf:
                continue
            assert d.square <= d.kl.hi
            assert d.hellinger.lo <= d.kl.hi
            assert d.hellinger.lo <= d.absolute
            # Strict certified direction where the gap is real:
            if d.square != 0:
                assert d.kl.hi >= d.square

    @settings(max_examples=200)
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_inequality_suite_float(self, p, q):
        d = step_distances((1 - p, p), (1 - q, q), mode="float")
        assert d.square <= d.kl + 1e-12
        assert d.hellinger <= d.kl + 1e-12
        assert d.hellinger <= d.absolute + 1e-12


def _encloses(interval, value, tol=1e-12):
    return float(interval.lo) - tol <= value <= float(interval.hi) + tol


class TestStepDistancesOracle:
    def test_both_modes_match_the_oracle_along_sampled_paths(self):
        # Monte-Carlo rows feed step_distances predictions built from step
        # factors: every kind's distances, in both modes, equal the oracle's
        # sums over the oracle's own conditionals and predictions.
        classes = oracle.sampled_path_classes()[:4]
        classes += [random_measure_class(63, case) for case in range(3)]
        infinite = []
        for cls in classes:

            def row(node, mu_cond):
                x, tb = node.prefix, node.tie_break
                mu = oracle.prediction(TRUE, cls, x, tb)
                for kind in ALL_KINDS:
                    phi = outcome(lambda: oracle.prediction(kind, cls, x, tb))
                    if isinstance(phi, type):
                        continue
                    exact = step_distances(mu_cond, node.prediction(kind))
                    floats = step_distances(mu_cond, node.prediction(kind), metrics.FLOAT)
                    assert exact.square == oracle.square(mu, phi)
                    assert exact.absolute == oracle.absolute(mu, phi)
                    hellinger = oracle.hellinger_float(mu, phi)
                    assert _encloses(exact.hellinger, hellinger), (x, kind)
                    kl = oracle.kl_float(mu, phi)
                    infinite.append(kl == math.inf)
                    if kl == math.inf:
                        assert exact.kl == floats.kl == math.inf
                    else:
                        assert _encloses(exact.kl, kl), (x, kind)
                        assert math.isclose(floats.kl, kl, rel_tol=1e-12, abs_tol=1e-15)
                    for got, want in (
                        (floats.square, float(oracle.square(mu, phi))),
                        (floats.absolute, float(oracle.absolute(mu, phi))),
                        (floats.hellinger, hellinger),
                    ):
                        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (x, kind)

            for tb in oracle.TIE_BREAKS:
                monte_carlo_rows(cls, 8, 2, 64, row, tb)
        assert any(infinite) and not all(infinite)


class TestCumulativeDistances:
    def test_true_predictor_all_zero(self):
        cls = bernoulli_class([F(1, 4), F(1, 2)], true_index=1)
        ledger = cumulative_distances(cls, "true", 5)
        assert ledger.cumulative("square") == 0
        assert ledger.cumulative("absolute") == 0
        assert ledger.cumulative("hellinger").hi == 0
        assert ledger.cumulative("kl").hi == 0

    def test_example1_half_n_minus_one(self):
        for n_models in (2, 5, 8):
            cls = example1_class(n_models)
            ledger = cumulative_distances(cls, "rho_norm", n_models + 1)
            assert ledger.cumulative("square") == F(n_models - 1, 2)

    def test_static_kl_infinite(self):
        # {Bernoulli(0), Bernoulli(1/2)}: seeing a 0 selects the point
        # mass, whose KL from the fair coin is infinite.
        cls = bernoulli_class([F(0), F(1, 2)], true_index=1)
        ledger = cumulative_distances(cls, "static", 3)
        assert ledger.cumulative("kl") == math.inf

    def test_prefix_sum_consistency(self):
        cls = random_measure_class(55, 0)
        long = cumulative_distances(cls, "rho", 8)
        short = cumulative_distances(cls, "rho", 4)
        assert short.per_step("square") == long.per_step("square")[:4]
        series = long.series("square")
        assert series[3] == short.cumulative("square")
        assert all(a <= b for a, b in zip(series, series[1:]))  # monotone


class TestMonteCarlo:
    def test_deterministic_truth_equals_exact(self):
        # One deterministic path sampled over and over: every column is
        # constant, so every standard error is exactly zero.
        for n, kind, horizon, samples, seed, square in (
            (5, "rho_norm", 10, 40, 3, F(2)),
            (3, "xi", 4, 40, 0, F(13, 18)),
        ):
            cls = example1_class(n)
            exact = cumulative_distances(cls, kind, horizon)
            mc = monte_carlo_distances(cls, kind, horizon, samples=samples, seed=seed)
            assert exact.cumulative("square") == square
            assert mc.cumulative("square") == float(square)
            for metric in metrics.METRICS:
                assert mc.stderr[metric] == [0.0] * horizon

    def test_single_fair_coin_zero(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        mc = monte_carlo_distances(cls, "rho", 6, samples=30, seed=1)
        assert mc.cumulative("square") == 0.0

    def test_worker_count_invariance(self):
        cls = random_measure_class(60, 1)
        a = monte_carlo_distances(cls, "static", 6, samples=24, seed=9, workers=1)
        b = monte_carlo_distances(cls, "static", 6, samples=24, seed=9, workers=4)
        assert a.per_step("square") == b.per_step("square")
        assert a.stderr == b.stderr

    def test_worker_counts_below_one_refused_before_any_path(self, monkeypatch):
        def no_path(*args):
            raise AssertionError("a path was started")

        for module in (metrics, stabilization):
            monkeypatch.setattr(module, "derived_rng", no_path)
        cls = bernoulli_class([F(1, 4), F(3, 4)], true_index=0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                stabilization.monte_carlo_stabilization(cls, 10, 2, 2, 0, workers=workers)
            with pytest.raises(ValueError, match="workers"):
                monte_carlo_distances(cls, "static", 4, 2, 0, workers=workers)
            with pytest.raises(ValueError, match="workers"):
                decisions.monte_carlo_decision_trace(
                    cls, "static", decisions.zero_one_loss(), 4, 2, 0, workers=workers
                )

    def test_every_path_runs_in_the_calling_thread(self, monkeypatch):
        # Any worker count maps the paths in order in the caller's thread,
        # and no run imports the standard library's executors.
        ran = []

        def recorded(seed, index):
            ran.append((index, threading.get_ident()))
            return derived_rng(seed, index)

        for module in (metrics, stabilization):
            monkeypatch.setattr(module, "derived_rng", recorded)
        monkeypatch.delitem(sys.modules, "concurrent.futures", raising=False)
        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)], true_index=1)
        samples = 5
        runs = [
            lambda w: stabilization.monte_carlo_stabilization(cls, 12, samples, 4, 3, workers=w),
            lambda w: monte_carlo_distances(cls, STATIC, 6, samples, 3, workers=w),
            lambda w: monte_carlo_distances(cls, XI, 6, samples, 3, workers=w),
            lambda w: decisions.monte_carlo_decision_trace(
                cls, STATIC, decisions.zero_one_loss(), 6, samples, 3, workers=w
            ),
        ]
        for run in runs:
            for workers in (1, 2, 3):
                ran.clear()
                run(workers)
                assert ran == [(i, threading.get_ident()) for i in range(samples)], workers
        assert "concurrent.futures" not in sys.modules

    @pytest.mark.parametrize("horizon", [0, 1, 2])
    def test_massless_truth_refused_alike_by_every_kind(self, horizon):
        # A truth declared a measure with nu(empty) = 0 is refused with the
        # same error by every kind and both drivers; horizon 0 draws nothing.
        class Massless(Semimeasure):
            alphabet = BINARY
            is_proper_measure = True

            def evaluate_exact(self, x):
                return F(0)

        half = IidModel((F(1, 2), F(1, 2)))
        cls = WeightedClass([Massless(), half], [F(1, 2), F(1, 2)], true_index=0)
        loss = decisions.zero_one_loss()
        for kind in ALL_KINDS:
            runs = (
                lambda: monte_carlo_distances(cls, kind, horizon, 2, 0),
                lambda: decisions.monte_carlo_decision_trace(cls, kind, loss, horizon, 2, 0),
            )
            for run in runs:
                if horizon == 0:
                    run()
                    continue
                with pytest.raises(SamplingError, match="zero-probability prefix"):
                    run()

    def test_three_stderr_agreement(self):
        # The estimate lands within 3 standard errors of the exact ledger
        # for nearly every seed (0.3% per-seed failure rate by the CLT).
        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)], true_index=1)
        exact = float(cumulative_distances(cls, "rho_norm", 5).cumulative("square"))
        hits = 0
        seeds = 30
        for seed in range(seeds):
            mc = monte_carlo_distances(cls, "rho_norm", 5, samples=200, seed=seed)
            total = mc.cumulative("square")
            se = math.sqrt(sum(s * s for s in mc.stderr["square"]))
            if abs(total - exact) <= 3 * se:
                hits += 1
        assert hits >= int(0.9 * seeds)


def _result(fn):
    """``fn()``, or the type of the error it raised."""
    try:
        return fn()
    except (MdlLabError, ValueError) as exc:
        return type(exc)


def _bits(values):
    """Floats as hex strings, so that equal lists agree to the last bit."""
    return [v.hex() for v in values]


def _node_distances(cls, kind, horizon, samples, seed, tie_break):
    """Per-metric means and stderrs of the ledger, from prediction nodes."""

    def row(node, mu_cond):
        return step_distances(mu_cond, node.prediction(kind), metrics.FLOAT)

    paths = monte_carlo_rows(cls, horizon, samples, seed, row, tie_break)
    steps = list(zip(*paths))
    out = {}
    for name in metrics.METRICS:
        stats = [mean_stderr([getattr(d, name) for d in step]) for step in steps]
        out[name] = [_bits([m for m, _ in stats]), _bits([se for _, se in stats])]
    return out


def _traced_distances(cls, kind, horizon, samples, seed, tie_break, workers):
    ledger = monte_carlo_distances(cls, kind, horizon, samples, seed, tie_break, workers)
    return {
        name: [_bits(ledger.per_step(name)), _bits(ledger.stderr[name])]
        for name in metrics.METRICS
    }


def _node_decisions(cls, kind, loss, horizon, samples, seed, tie_break):
    """Means, stderrs and first-path actions of the decision trace, from nodes."""

    def row(node, mu_cond):
        phi = node.prediction(kind)
        table = loss.table(node.prefix)
        action, step_phi = oracle.acted_loss(phi[1], mu_cond, table)
        step_mu = oracle.acted_loss(mu_cond[1], mu_cond, table)[1]
        return float(step_phi), float(step_mu), action

    paths = monte_carlo_rows(cls, horizon, samples, seed, row, tie_break)
    steps = list(zip(*paths))
    columns = []
    for k in (0, 1):
        stats = [mean_stderr([r[k] for r in step]) for step in steps]
        columns += [_bits([m for m, _ in stats]), _bits([se for _, se in stats])]
    return columns, [r[2] for r in paths[0]]


def _traced_decisions(cls, kind, loss, horizon, samples, seed, tie_break, workers):
    trace = decisions.monte_carlo_decision_trace(
        cls, kind, loss, horizon, samples, seed, tie_break, workers
    )
    columns = [trace.l_phi, trace.stderr_phi, trace.l_mu, trace.stderr_mu]
    return [_bits(column) for column in columns], trace.sample_actions


def _traced_row_classes():
    """Classes for the traced-row tests: the sampled-path zoo, leaky members,
    examples 3 and 5, i.i.d. members with zero entries, step tables that end
    in tails, a chosen member whose mass runs out, a leaky truth (refused)
    and a ternary class."""
    half, zero, one = (F(1, 2), F(1, 2)), (F(1), F(0)), (F(0), F(1))
    ternary = Alphabet(3)
    tables = [
        FactorizableModel.from_steps(BINARY, [(F(1, 4), F(3, 4)), zero], half),
        FactorizableModel.from_steps(BINARY, [one, half, (F(1, 3), F(2, 3))], (F(3, 5), F(2, 5))),
        FactorizableModel.from_steps(BINARY, [], (F(1, 4), F(3, 4))),
    ]
    iid = [IidModel(zero), IidModel(half), IidModel(one), IidModel((F(1, 3), F(2, 3)))]
    return oracle.sampled_path_classes() + oracle.leaky_semimeasure_classes(72, 2) + [
        example3_class(),
        example5_class(),
        WeightedClass(iid, [F(1, 4)] * 4, true_index=1),
        WeightedClass(
            iid + [LeakySemimeasure(IidModel(half), F(1, 8)), LeakySemimeasure(iid[0], F(1, 3))],
            [F(1, 8), F(1, 4), F(1, 16), F(1, 8), F(1, 4), F(1, 8)],
            true_index=3,
        ),
        WeightedClass(tables + [IidModel(half)], [F(1, 4)] * 4, true_index=0),
        WeightedClass(
            tables + [LeakySemimeasure(tables[1], F(1, 5))],
            [F(1, 8), F(3, 8), F(1, 8), F(3, 8)],
            true_index=1,
        ),
        WeightedClass([oracle.StopsAfter(2), DeterministicModel((), (1,))], [F(3, 4), F(1, 8)], 1),
        WeightedClass([LeakySemimeasure(iid[1], F(1, 8)), iid[3]], [F(1, 2), F(1, 2)], 0),
        random_measure_class(73, 2),
        WeightedClass(
            [
                IidModel((F(1, 3), F(1, 3), F(1, 3))),
                IidModel((F(1, 2), F(0), F(1, 2))),
                FactorizableModel.from_steps(ternary, [(F(0), F(1), F(0))], (F(1, 4), F(1, 4), F(1, 2))),
                LeakySemimeasure(IidModel((F(0), F(1, 2), F(1, 2))), F(1, 6)),
            ],
            [F(1, 4), F(1, 4), F(1, 8), F(1, 4)],
            true_index=0,
        ),
    ]


class TestTracedRows:
    """Static-kind ledgers read the MAP trace; they must equal the node driver."""

    def test_distances_match_the_node_driver_to_the_last_bit(self):
        horizon, samples, seed = 9, 3, 71
        seen = set()
        for cls in _traced_row_classes():
            for tb in oracle.TIE_BREAKS:
                for kind in metrics.CHOICE_KINDS:
                    want = _result(lambda: _node_distances(cls, kind, horizon, samples, seed, tb))
                    if isinstance(want, type):
                        seen.add(want)
                    for workers in (1, 3):
                        got = _result(
                            lambda: _traced_distances(cls, kind, horizon, samples, seed, tb, workers)
                        )
                        assert got == want, (cls.describe(), tb, kind, workers)
        assert seen == {AllZeroError, SamplingError}

    def test_decision_traces_match_the_node_driver_to_the_last_bit(self):
        horizon, samples, seed = 9, 3, 74
        losses = [
            decisions.zero_one_loss(),
            random_stationary_loss(suite_rng(74, 0)),
            decisions.history_parity_loss(
                {(0, 0): 0, (0, 1): 1, (1, 0): F(1, 2), (1, 1): 0},
                {(0, 0): F(1, 4), (0, 1): 1, (1, 0): 1, (1, 1): 0},
            ),
        ]
        classes = [c for c in _traced_row_classes() if c.alphabet.size == 2]
        for k, cls in enumerate(classes):
            loss = losses[k % len(losses)]
            for tb in oracle.TIE_BREAKS:
                for kind in metrics.CHOICE_KINDS:
                    want = _result(
                        lambda: _node_decisions(cls, kind, loss, horizon, samples, seed, tb)
                    )
                    for workers in (1, 3):
                        got = _result(
                            lambda: _traced_decisions(
                                cls, kind, loss, horizon, samples, seed, tb, workers
                            )
                        )
                        assert got == want, (cls.describe(), tb, kind, workers)

    def test_horizons_zero_and_one(self):
        cls = oracle.sampled_path_classes()[1]
        for horizon in (0, 1):
            for kind in metrics.CHOICE_KINDS:
                want = _node_distances(cls, kind, horizon, 2, 3, oracle.TIE_BREAKS[2])
                assert _traced_distances(cls, kind, horizon, 2, 3, oracle.TIE_BREAKS[2], 1) == want

    def test_static_ledgers_build_no_node_and_advance_no_factor_cursor(self, monkeypatch):
        # Along static ledgers and decision traces on classes of factorizable
        # and leaky members under an i.i.d. truth, no prediction node is built
        # and no factorizable or leaky cursor is advanced; every path is the
        # oracle's draw, and every row the oracle's distances at its prefix.
        built, advanced, drawn = [], [], []
        init = PredictionNode.__init__

        def counted_init(node, *args, **kwargs):
            built.append(args[1])
            init(node, *args, **kwargs)

        def counting(advance):
            def counted(cursor, a):
                advanced.append(type(cursor))
                return advance(cursor, a)

            return counted

        def recorded(cls, length, seed, index, tie_break):
            word, trace = sampled_trace(cls, length, seed, index, tie_break)
            drawn.append((cls, length, seed, index, word))
            return word, trace

        monkeypatch.setattr(PredictionNode, "__init__", counted_init)
        for kind in (measures._FactorizableCursor, measures._LeakyCursor):
            monkeypatch.setattr(kind, "advance", counting(kind.advance))
        monkeypatch.setattr(metrics, "sampled_trace", recorded)
        half = (F(1, 2), F(1, 2))
        table = FactorizableModel.from_steps(BINARY, [(F(1, 4), F(3, 4)), (F(1), F(0))], half)
        mixed = WeightedClass(
            [IidModel((F(3, 8), F(5, 8))), table, LeakySemimeasure(IidModel(half), F(1, 9)),
             LeakySemimeasure(LeakySemimeasure(table, F(1, 7)), F(1, 3)), IidModel(half)],
            [F(1, 5)] * 5,
            true_index=0,
        )
        crit09 = bernoulli_class([F(1, 8), F(3, 8), F(5, 8), F(7, 8)], true_index=1)
        horizon, samples, seed = 120, 2, 75
        ledgers = []
        for cls in (bernoulli_sharpness_class(6), crit09, mixed):
            for tb in oracle.TIE_BREAKS:
                for kind in metrics.CHOICE_KINDS:
                    ledger = monte_carlo_distances(cls, kind, horizon, 1, seed, tb)
                    ledgers.append((cls, tb, kind, ledger))
                    decisions.monte_carlo_decision_trace(
                        cls, kind, decisions.zero_one_loss(), horizon, samples, seed, tb
                    )
        assert built == [] and advanced == []
        # The true kind runs no trace (test_true_ledgers_run_no_map_trace).
        assert len(drawn) == 3 * 3 * 2 * (1 + samples)
        for cls, length, s, index, word in drawn:
            assert length == horizon - 1
            assert word == oracle.draw_path(cls.true_model, length, derived_rng(s, index))
        for cls, tb, kind, ledger in ledgers:
            word = next(w for c, _, _, i, w in drawn if c is cls and i == 0)
            for t in range(horizon):
                x = word[:t]
                mu = oracle.prediction(TRUE, cls, x, tb)
                d = step_distances(mu, oracle.prediction(kind, cls, x, tb), metrics.FLOAT)
                for name in metrics.METRICS:
                    assert ledger.per_step(name)[t] == getattr(d, name), (cls.describe(), t)

    def test_true_ledgers_run_no_map_trace(self, monkeypatch):
        # The true kind's prediction reads no MAP choice: its ledgers and
        # decision traces draw their paths and run no trace.
        traced = []
        trace = stabilization.map_trace

        def counted(cls, *args, **kwargs):
            traced.append(cls)
            return trace(cls, *args, **kwargs)

        monkeypatch.setattr(stabilization, "map_trace", counted)
        cls = oracle.sampled_path_classes()[1]
        for workers in (1, 2):
            monte_carlo_distances(cls, TRUE, 12, 3, 5, workers=workers)
            decisions.monte_carlo_decision_trace(
                cls, TRUE, decisions.zero_one_loss(), 12, 3, 5, workers=workers
            )
        assert traced == []
        monte_carlo_distances(cls, STATIC, 12, 3, 5)
        assert traced == [cls] * 3

    def test_repeated_steps_reuse_their_reduction(self, monkeypatch):
        # A step whose rows are the objects of the step before reuses that
        # step's means and stderrs; every one equals a per-step mean_stderr
        # of the sampled rows to the last bit, for any worker count.
        reductions = []

        def counted(column):
            reductions.append(len(column))
            return mean_stderr(column)

        monkeypatch.setattr(metrics, "mean_stderr", counted)
        horizon, samples, seed = 150, 3, 17
        ledgers = ((bernoulli_sharpness_class(6), STATIC), (oracle.sampled_path_classes()[0], XI))
        for cls, kind in ledgers:
            rows = metrics.sampled_rows(
                cls, kind, horizon, samples, seed,
                lambda x, t, mu, phi: step_distances(mu, phi, metrics.FLOAT),
            )
            want = {}
            for name in metrics.METRICS:
                stats = [mean_stderr([getattr(d, name) for d in step]) for step in zip(*rows)]
                want[name] = [_bits([m for m, _ in stats]), _bits([se for _, se in stats])]
            for workers in (1, 2):
                reductions.clear()
                got = _traced_distances(cls, kind, horizon, samples, seed, LARGEST_WEIGHT, workers)
                assert got == want, (cls.describe(), kind, workers)
                if kind == STATIC and workers == 1:  # the static choice repeats
                    assert len(reductions) < len(metrics.METRICS) * horizon


class TestMeanStderr:
    def test_matches_statistics_stdev(self):
        rng = suite_rng(61, 0)
        for n in (2, 3, 40, 500):
            column = [rng.expovariate(1.0) for _ in range(n)]
            _, stderr = mean_stderr(column)
            expected = statistics.stdev(column) / math.sqrt(n)
            assert stderr == pytest.approx(expected, rel=1e-12)

    def test_mean_is_left_to_right_sum(self):
        column = [0.1] * 10 + [1e16, 1.0, -1e16]
        total = 0.0
        for v in column:
            total += v
        mean, _ = mean_stderr(column)
        assert mean == total / len(column)
        assert mean != math.fsum(column) / len(column)

    def test_inf_column(self):
        assert mean_stderr([0.5, math.inf, 1.0]) == (math.inf, math.inf)

    def test_single_sample(self):
        assert mean_stderr([0.3]) == (0.3, 0.0)

    def test_empty_column_refused(self):
        with pytest.raises(ValueError):
            mean_stderr([])

    def test_rows_need_a_sample(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        with pytest.raises(ValueError):
            monte_carlo_rows(cls, 3, 0, 0, lambda node, mu_cond: 0.0)


class TestCheckBounds:
    def test_single_model_class_trivial(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        for report in check_bounds(cls, 6):
            assert report.passed
            if report.metric in ("square", "hellinger", "kl"):
                measured = report.measured
                assert measured.hi == 0

    def test_example1_summary_row(self):
        cls = example1_class(5)
        reports = {
            (r.bound_name, r.predictor): r for r in check_bounds(cls, 8)
        }
        row = reports[("summary_square_2x", "rho_norm")]
        assert row.measured.lo == F(2)
        assert row.bound.lo == F(10)
        assert row.passed and row.slack == F(8)

    def test_inverse_weight(self):
        assert inverse_weight(example1_class(5)) == F(5)

    def test_random_classes_all_pass(self):
        for case in range(15):
            cls = random_measure_class(70, case)
            assert all(r.passed for r in check_bounds(cls, 7))

    def test_requires_materialized_class(self):
        # Static MDL refuses at "0", so no ledger may come out of this class.
        cls = WeightedClass(
            [IidModel((F(1, 2), F(1, 2))), IidModel((F(1, 4), F(3, 4)))],
            [F(1, 8), F(1, 8)],
            true_index=0,
            tail_bound=F(3, 4),
        )
        for ledger in _ledgers(cls):
            with pytest.raises(ValueError, match="fully materialized class"):
                ledger(3)


def _ledgers(cls):
    """The static square, regret and mixture-bound ledgers, by horizon."""
    loss = decisions.zero_one_loss()
    return (
        lambda h: cumulative_distances(cls, "static", h).cumulative("square"),
        lambda h: monte_carlo_distances(cls, "static", h, 2, 0).cumulative("square"),
        lambda h: decisions.decision_traces(cls, ["static"], loss, h)["static"].regret(),
        lambda h: {r.bound_name: r.measured.hi for r in check_bounds(cls, h)}["mixture_square"],
    )


def test_horizon_zero_visits_nothing_and_negative_is_refused():
    cls = example3_class()
    assert walk_support(cls, 0, lambda node: pytest.fail("visited")) == 0
    for ledger in _ledgers(cls):
        assert ledger(0) == 0
        with pytest.raises(ValueError, match="horizon must be at least 0"):
            ledger(-1)


# ----------------------------------------------------------------------
# Lumped walk against the prefix-by-prefix walk
# ----------------------------------------------------------------------

LUMP_HORIZON = 7
LUMP_CLASSES = (
    [("measure", case, random_measure_class(80, case)) for case in range(6)]
    + [("semimeasure", case, random_semimeasure_class(81, case)) for case in range(6)]
    + [
        ("example1", 0, example1_class(5)),
        ("example2", 0, bernoulli_sharpness_class(6)),
        ("example5", 0, example5_class()),
    ]
)
DECISION_KINDS = ("rho_norm", "rho", "static", "static_norm")


def _walk_outputs(cls):
    """Every ledger computed by a tree walk."""
    stationary = random_stationary_loss(suite_rng(82, 0))
    parity = decisions.history_parity_loss(
        even={(0, 0): 0, (0, 1): 1, (1, 0): F(1, 2), (1, 1): 0},
        odd={(0, 0): F(1, 3), (0, 1): 1, (1, 0): 1, (1, 1): 0},
    )
    out = {"bounds": check_bounds(cls, LUMP_HORIZON)}
    for name, loss in (("stationary", stationary), ("parity", parity.shifted())):
        out[name] = decisions.decision_traces(cls, DECISION_KINDS, loss, LUMP_HORIZON)
    for kind in ("xi", "rho", "static", "hybrid"):
        out[kind] = cumulative_distances(cls, kind, LUMP_HORIZON)
    return out


@pytest.mark.parametrize(
    "family,case,cls", LUMP_CLASSES, ids=[f"{f}{c}" for f, c, _ in LUMP_CLASSES]
)
def test_lumped_walk_matches_prefix_walk(monkeypatch, family, case, cls):
    lumped = _walk_outputs(cls)

    def prefix_walk(cls, horizon, visit, tie_break, guard, history_key=None):
        return walk_support(cls, horizon, visit, tie_break, guard, history_key=metrics.prefix_key)

    monkeypatch.setattr(metrics, "walk_support", prefix_walk)
    monkeypatch.setattr(decisions, "walk_support", prefix_walk)
    plain = _walk_outputs(cls)

    for key, value in plain.items():
        assert lumped[key] == value, key  # every Fraction and endpoint


def test_lumped_node_counts_example2():
    # Example 2 has seven i.i.d. members, so the state at depth t is the
    # number of ones: t + 1 nodes per level instead of 2^t.
    cls = bernoulli_sharpness_class(6)
    counts = {h: walk_support(cls, h, lambda node: None) for h in (12, 14, 20)}
    assert counts == {12: 78, 14: 105, 20: 210}
    with pytest.raises(TooLargeError):
        walk_support(cls, 12, lambda node: None, guard=77)
