import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from mdl_lab import decisions, enclosure, metrics
from mdl_lab.decisions import (
    DecisionTrace,
    LossFunction,
    bayes_optimal_action,
    check_regret_bound,
    decision_trace,
    decision_traces,
    history_parity_loss,
    special_functions,
    sqrt_product_superadditive,
    table_loss,
    unit_square_inequality_scan,
    zero_one_loss,
)
from mdl_lab.enclosure import FracInterval
from mdl_lab.errors import LossFunctionError
from mdl_lab.measures import DeterministicModel, IidModel
from mdl_lab.model_class import LARGEST_WEIGHT, WeightedClass, bernoulli_class, example1_class
from mdl_lab.predictors import TRUE
from mdl_lab.suites import random_measure_class, random_stationary_loss, suite_rng

rational_01 = st.fractions(min_value=0, max_value=1, max_denominator=40)


class TestLossFunctions:
    def test_range_validated(self):
        with pytest.raises(LossFunctionError):
            table_loss({(0, 0): 0, (0, 1): 2, (1, 0): 1, (1, 1): 0})

    def test_shifted_form_validated(self):
        # A correct prediction dearer than the wrong one breaks the
        # zero-diagonal reduction; rejected at construction.
        with pytest.raises(LossFunctionError):
            table_loss({(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})

    def test_shifted_has_zero_diagonal(self):
        loss = table_loss({(0, 0): F(1, 4), (0, 1): 1, (1, 0): F(1, 2), (1, 1): 0})
        shifted = loss.shifted()
        assert shifted((), 0, 0) == 0 and shifted((), 1, 1) == 0
        assert shifted((), 0, 1) == F(3, 4)

    def test_history_parity_preset(self):
        loss = history_parity_loss(
            even={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            odd={(0, 0): 0, (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): 0},
        )
        assert loss((1, 1), 0, 1) == 1
        assert loss((1,), 0, 1) == F(1, 2)
        assert not loss.stationary
        # Exact walks merge histories on the parity of ones, shifted or not.
        assert loss.history_key((1, 0, 1)) == loss.history_key(()) == 0
        assert loss.shifted().history_key is loss.history_key

    def test_nonstationary_invalid_table_raises_on_first_read(self):
        # Tables are validated once per history key: a key whose table is
        # invalid must still raise the first time, and every time after.
        good = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        bad = {(0, 0): 0, (0, 1): 2, (1, 0): 1, (1, 1): 0}
        loss = LossFunction(
            lambda history: bad if len(history) % 3 == 2 else good,
            stationary=False,
            history_key=lambda history: len(history) % 3,
        )
        assert loss.table(()) is good
        assert loss.table((1,)) is good
        for history in ((0, 1), (1, 1), (0, 1, 0, 0, 1)):
            with pytest.raises(LossFunctionError):
                loss.table(history)
        assert loss.table((1, 0, 1)) is good
        with pytest.raises(LossFunctionError):
            decision_traces(bernoulli_class([F(1, 3), F(2, 3)]), ["rho"], loss, 4)

    def test_nonstationary_table_validated_once_per_key(self, monkeypatch):
        calls = []
        validate = LossFunction._validate
        monkeypatch.setattr(
            LossFunction, "_validate", staticmethod(lambda t: calls.append(t) or validate(t))
        )
        loss = history_parity_loss(
            even={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            odd={(0, 0): 0, (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): 0},
        )
        calls.clear()
        for history in ((), (1,), (1, 1), (0, 1), (1, 0, 1), (0, 0, 0)):
            loss.table(history)
        assert len(calls) == 2  # one per parity
        # A rule keyed by the whole history keeps no keys and validates
        # on every read.
        whole = LossFunction(lambda history: loss.table(history), stationary=False)
        calls.clear()
        for history in ((), (1,), (1,), (0, 1)):
            whole.table(history)
        assert len(calls) == 4 and not whole._validated_keys


class TestBayesOptimalAction:
    def test_zero_one_threshold(self):
        loss = zero_one_loss()
        assert bayes_optimal_action(F(1, 3), loss) == 0
        assert bayes_optimal_action(F(2, 3), loss) == 1

    def test_tie_prefers_zero(self):
        assert bayes_optimal_action(F(1, 2), zero_one_loss()) == 0

    def test_asymmetric_example(self):
        # loss(0,1)=1, loss(1,0)=1/4: belief 0.3 gives expected losses
        # 0.3*(1/4) = 0.075 for action 0 versus 0.7*1 = 0.7 for action 1.
        loss = table_loss({(0, 0): 0, (0, 1): 1, (1, 0): F(1, 4), (1, 1): 0})
        assert bayes_optimal_action(F(3, 10), loss) == 0

    def test_indifference_points_choose_action_zero(self):
        # At b* = g0 / (g0 + g1), g0 = L01 - L00 and g1 = L10 - L11, both
        # actions cost the same: the action is 0 there and below, 1 above.
        # A table with g0 = g1 = 0 is indifferent at every belief.
        seen = 0
        for i in range(64):
            loss = random_stationary_loss(suite_rng(32, i))
            t = loss.table(())
            g0, g1 = t[(0, 1)] - t[(0, 0)], t[(1, 0)] - t[(1, 1)]
            if g0 + g1 == 0:
                assert all(bayes_optimal_action(F(j, 7), loss) == 0 for j in range(8))
                continue
            star = g0 / (g0 + g1)
            for eps in (F(0), F(1, 10**12), F(1, 97), F(1, 3)):
                for b, want in ((star - eps, 0), (star + eps, 1 if eps else 0)):
                    if 0 <= b <= 1:
                        assert bayes_optimal_action(b, loss) == want, (i, b)
                        assert oracle.acted_loss(b, (1 - b, b), t)[0] == want
                        seen += 1
        assert seen > 300

    def test_optimality_grid(self):
        # The returned action never has larger expected loss than the
        # alternative: 101 beliefs x 16 random losses, exact arithmetic.
        rng = suite_rng(1, 0)
        losses = [random_stationary_loss(suite_rng(1, i)) for i in range(16)]
        for i in range(101):
            belief = F(i, 100)
            for loss in losses:
                t = loss.table(())
                a = bayes_optimal_action(belief, loss)
                chosen = (1 - belief) * t[(0, a)] + belief * t[(1, a)]
                other = (1 - belief) * t[(0, 1 - a)] + belief * t[(1, 1 - a)]
                assert chosen <= other


class TestSpecialFunctions:
    def test_diagonal_zero(self):
        for v in (F(0), F(1, 3), F(1, 2), F(1)):
            delta, _ = special_functions(v, v)
            assert delta == 0

    def test_low_case(self):
        delta, ell = special_functions(F(3, 10), F(2, 5))
        assert ell == F(3, 10)
        assert delta == F(1, 6)

    def test_high_case(self):
        _, ell = special_functions(F(9, 10), F(3, 5))
        assert ell == F(1, 10)

    @given(rational_01)
    def test_case_boundaries_agree(self, mu):
        # phi = 1/2 sits in two cases; phi = mu sits in two cases.
        half = F(1, 2)
        low = mu * (1 - half) / half if mu <= half else None
        delta, ell = special_functions(mu, half)
        if mu <= half:
            assert ell == mu == low
        else:
            assert ell == 1 - mu
        _, ell_diag = special_functions(mu, mu)
        expected = mu if mu <= half else 1 - mu
        assert ell_diag == expected

    @given(rational_01, rational_01)
    def test_range(self, mu, phi):
        delta, ell = special_functions(mu, phi)
        assert 0 <= delta <= 2
        assert 0 <= ell <= 1


class TestUnitSquareScan:
    def test_quick_grid_nonpositive(self):
        assert unit_square_inequality_scan(301) <= 1e-12

    def test_corner(self):
        # mu=1, phi=0: delta~ = 1, h = 2, so the slack is at least 3.
        delta, ell = special_functions(F(1), F(0))
        assert delta == 1 and ell == 0
        h = 2.0
        assert delta <= 2 * h + 2 * math.sqrt(2 * h * float(ell))

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            unit_square_inequality_scan(1)


class TestDecisionTraces:
    def test_true_predictor_zero_regret(self):
        cls = bernoulli_class([F(1, 4), F(1, 2)], true_index=1)
        trace = decision_trace(cls, "true", zero_one_loss(), 5)
        assert trace.regret() == 0
        assert trace.instantaneous_ok and trace.cumulative_bound_ok()

    def test_single_model_class_zero_regret(self):
        cls = bernoulli_class([F(1, 3)], true_index=0)
        loss = random_stationary_loss(suite_rng(2, 2))
        trace = decision_trace(cls, "rho_norm", loss, 5)
        assert trace.regret() == 0

    def test_example1_zero_one_loss(self):
        # Belief exactly 1/2 for four steps -> action 0 while the truth
        # emits 1: four units of regret against the informed predictor.
        cls = example1_class(5)
        trace = decision_trace(cls, "rho_norm", zero_one_loss(), 4)
        assert trace.cumulative_phi() == 4
        assert trace.cumulative_mu() == 0
        assert trace.regret() == 4
        assert trace.instantaneous_ok and trace.cumulative_bound_ok()

    def test_example1_regret_bound_c2(self):
        cls = example1_class(5)
        report = check_regret_bound(cls, "rho_norm", zero_one_loss(), 4)
        assert report.passed
        assert report.bound.lo >= 4  # bound 2c/w = 20 dominates the regret

    def test_loss_shift_leaves_regret(self):
        for case in range(10):
            cls = random_measure_class(91, case, max_models=4)
            loss = random_stationary_loss(suite_rng(91, case))
            shifted = loss.shifted()
            a = decision_trace(cls, "static", loss, 5)
            b = decision_trace(cls, "static", shifted, 5)
            assert a.regret() == b.regret()
            assert b.cumulative_mu() <= a.cumulative_mu()

    def test_random_pairs_bounds_hold(self):
        kinds = ("rho_norm", "rho", "static", "static_norm")
        for case in range(10):
            cls = random_measure_class(92, case, max_models=4)
            loss = random_stationary_loss(suite_rng(92, case))
            traces = decision_traces(cls, kinds, loss, 6)
            for kind in kinds:
                assert traces[kind].instantaneous_ok, (case, kind)
                assert traces[kind].cumulative_bound_ok(), (case, kind)
                report = check_regret_bound(cls, kind, loss, 6, trace=traces[kind])
                assert report.passed, (case, kind)

    def test_binary_alphabet_enforced(self):
        from mdl_lab.measures import Alphabet, IidModel
        from mdl_lab.model_class import WeightedClass

        ternary = WeightedClass(
            [IidModel((F(1, 3), F(1, 3), F(1, 3)), Alphabet(3))],
            [F(1)],
            true_index=0,
        )
        with pytest.raises(ValueError):
            decision_trace(ternary, "rho", zero_one_loss(), 3)


class TestMonteCarloTrace:
    def test_deterministic_truth_matches_exact(self):
        from mdl_lab.decisions import monte_carlo_decision_trace

        cls = example1_class(5)
        exact = decision_trace(cls, "rho_norm", zero_one_loss(), 4)
        mc = monte_carlo_decision_trace(
            cls, "rho_norm", zero_one_loss(), 4, samples=20, seed=1
        )
        assert sum(mc.l_phi) == float(exact.cumulative_phi()) == 4.0
        assert mc.regret() == 4.0
        assert mc.sample_actions == [0, 0, 0, 0]
        assert all(se == 0.0 for se in mc.stderr_phi)

    def test_worker_invariance(self):
        from mdl_lab.decisions import monte_carlo_decision_trace

        cls = random_measure_class(95, 0, max_models=4)
        loss = random_stationary_loss(suite_rng(95, 1))
        a = monte_carlo_decision_trace(cls, "static", loss, 6, 24, seed=2, workers=1)
        b = monte_carlo_decision_trace(cls, "static", loss, 6, 24, seed=2, workers=3)
        assert a.l_phi == b.l_phi and a.l_mu == b.l_mu
        assert a.stderr_phi == b.stderr_phi and a.stderr_mu == b.stderr_mu
        assert a.sample_actions == b.sample_actions

    def test_estimates_near_exact(self):
        from mdl_lab.decisions import monte_carlo_decision_trace

        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)], true_index=1)
        loss = zero_one_loss()
        exact = decision_trace(cls, "static", loss, 5)
        mc = monte_carlo_decision_trace(cls, "static", loss, 5, samples=400, seed=3)
        se = sum(mc.stderr_phi)
        assert abs(sum(mc.l_phi) - float(exact.cumulative_phi())) <= 4 * se + 1e-9


class TestSuperAdditivity:
    def test_exact_on_many_quadruples(self):
        for case in range(10_000):
            rng = suite_rng(93, case)
            h1, l1, h2, l2 = (F(rng.randint(0, 60), 20) for _ in range(4))
            assert sqrt_product_superadditive(h1, l1, h2, l2)

    def test_against_float_oracle(self):
        rng = suite_rng(94, 0)
        for _ in range(300):
            h1, l1, h2, l2 = (rng.uniform(0, 3) for _ in range(4))
            lhs = math.sqrt((h1 + h2) * (l1 + l2))
            rhs = math.sqrt(h1 * l1) + math.sqrt(h2 * l2)
            assert lhs >= rhs - 1e-12


# sqrt(2) to 80 bits, rounded down: within 2^-80 below the true root.
SQRT2_80 = F(math.isqrt(2 << 160), 2**80)
NEAR = F(1, 2**72)


def recording_sqrt(monkeypatch):
    """Record the extra bits of every sqrt_interval call the decision layer makes."""
    bits = []

    def sqrt_interval(q, extra_bits=64):
        bits.append(extra_bits)
        return enclosure.sqrt_interval(q, extra_bits)

    monkeypatch.setattr(decisions, "sqrt_interval", sqrt_interval)
    return bits


def hand_trace(l_phi, l_mu, h, kind="rho_norm"):
    return DecisionTrace(
        predictor=kind,
        horizon=1,
        loss_name="hand",
        l_phi=[l_phi],
        l_mu=[l_mu],
        hellinger=[FracInterval.exact(h)],
        instantaneous_ok=True,
    )


class TestPrecisionEscalation:
    # Each verdict sits within 2^-70 of an irrational right-hand side,
    # closer than the default 64-bit square roots can resolve.

    @pytest.mark.parametrize("side", [-1, 1])
    def test_regret_inequality_escalates(self, monkeypatch, side):
        bits = recording_sqrt(monkeypatch)
        # H = 1, L_mu = 1: the right-hand side is 2 + 2 sqrt(2).
        rhs_near = 2 + 2 * (SQRT2_80 if side < 0 else SQRT2_80 + F(1, 2**80))
        regret = rhs_near + side * NEAR
        trace = hand_trace(1 + regret, F(1), F(1))
        assert trace.cumulative_bound_ok() is (side < 0)
        assert sorted(set(bits)) == [64, 128]

    @pytest.mark.parametrize("side", [-1, 1])
    def test_loss_theorem_escalates(self, monkeypatch, side):
        bits = recording_sqrt(monkeypatch)
        cls = WeightedClass(
            [IidModel((F(1, 2), F(1, 2))), IidModel((F(1, 3), F(2, 3)))],
            [F(1, 2), F(1, 2)],
            true_index=0,
        )
        # c = 2, W = 2, L_mu = 1/4: the bound is 1/4 + 8 + 2 sqrt(2).
        rhs_near = F(1, 4) + 8 + 2 * (SQRT2_80 if side < 0 else SQRT2_80 + F(1, 2**80))
        trace = hand_trace(rhs_near + side * NEAR, F(1, 4), F(0))
        report = check_regret_bound(cls, "rho_norm", zero_one_loss(), 1, trace=trace)
        assert report.passed is (side < 0)
        assert bits == [64, 128]
        assert report.bound.width == 2 * F(1, 2**128)

    def test_raises_past_the_cap(self, monkeypatch):
        bits = recording_sqrt(monkeypatch)
        # 2^-1100 below the right-hand side: closer than 1024 bits resolve.
        root = F(math.isqrt(2 << 2400), 2**1200)
        trace = hand_trace(1 + 2 + 2 * root - F(1, 2**1100), F(1), F(1))
        with pytest.raises(RuntimeError, match="inconclusive at 1024"):
            trace.cumulative_bound_ok()
        assert sorted(set(bits)) == [64, 128, 256, 512, 1024]


# ----------------------------------------------------------------------
# Decision traces against the prefix-by-prefix oracle
# ----------------------------------------------------------------------

ORACLE_KINDS = ("true", "xi", "rho", "rho_norm", "static", "static_norm")
# The oracle's Hellinger ledgers are 100-digit values; the engine's are grid enclosures.
DIGITS_SLACK = F(1, 10**70)


def _classes_with_truths():
    """The oracle's tail-free differential classes, each under its own truth
    or, without one, under its first and its last member, and a class whose
    chosen member's mass runs out on the true path."""
    out = [
        WeightedClass([oracle.StopsAfter(2), DeterministicModel((), (1,))], [F(3, 4), F(1, 8)], 1)
    ]
    for cls in oracle.differential_classes():
        if cls.tail_bound is not None:
            continue
        truths = [cls.true_index] if cls.true_index is not None else [0, len(cls) - 1]
        out += [WeightedClass(cls.models, cls.weights, true_index=i) for i in truths]
    return out


def _differential_losses():
    """Stationary, history-parity, whole-history and shifted losses."""
    table = [random_stationary_loss(suite_rng(31, i)).table(()) for i in range(5)]
    parity = history_parity_loss(table[0], table[1])
    whole = LossFunction(
        lambda x: table[2 + (len(x) + 2 * sum(x)) % 3], stationary=False, name="whole"
    )
    return [random_stationary_loss(suite_rng(31, 5)), parity, whole, parity.shifted()]


def _assert_matches(trace, want, where):
    l_phi, l_mu, hellinger, ok = want
    assert trace.l_phi == l_phi and trace.l_mu == l_mu, where
    assert trace.instantaneous_ok is ok, where
    for h, v in zip(trace.hellinger, hellinger):
        assert h.lo - DIGITS_SLACK <= F(v) <= h.hi + DIGITS_SLACK, where


class TestDecisionOracle:
    def test_traces_match_the_oracle(self):
        horizon = 4
        regrets = refusals = 0
        for c, cls in enumerate(_classes_with_truths()):
            for tb in oracle.TIE_BREAKS:
                for loss in _differential_losses():
                    want = {
                        k: oracle.outcome(
                            lambda: oracle.decision_trace(cls, k, loss, horizon, tb)
                        )
                        for k in ORACLE_KINDS
                    }
                    fine = [k for k in ORACLE_KINDS if not isinstance(want[k], type)]
                    traces = decision_traces(cls, fine, loss, horizon, tb)
                    for k in ORACLE_KINDS:
                        where = (c, cls.describe(), tb, loss.name, k)
                        if k in fine:
                            _assert_matches(traces[k], want[k], where)
                            regrets += traces[k].regret() > 0
                        else:
                            got = oracle.outcome(
                                lambda: decision_trace(cls, k, loss, horizon, tb)
                            )
                            assert got is want[k], where
                            refusals += 1
        assert regrets > 100 and refusals > 0


def _counting_walk(monkeypatch, module, calls):
    """Wrap ``module.walk_support`` to record (node, calls made during its visit)."""
    walk = metrics.walk_support
    visits = []

    def counted_walk(cls, horizon, visit, *args, **kwargs):
        def counted(node):
            before = len(calls)
            visit(node)
            visits.append((node, len(calls) - before))

        return walk(cls, horizon, counted, *args, **kwargs)

    monkeypatch.setattr(module, "walk_support", counted_walk)
    return visits


class TestStepTermWork:
    def test_square_roots_only_where_actions_differ(self, monkeypatch):
        # A kind whose action is the truth's has regret 0 at that node, so
        # its inequality holds without a square root; one whose action
        # differs (and costs more) takes exactly one 64-bit root.
        bits = recording_sqrt(monkeypatch)
        visits = _counting_walk(monkeypatch, decisions, bits)
        kinds = ("rho_norm", "rho", "static", "static_norm")
        checked = skipped = 0
        for case in range(10):
            cls = random_measure_class(92, case, max_models=4)
            loss = random_stationary_loss(suite_rng(92, case))
            visits.clear()
            traces = decision_traces(cls, kinds, loss, 6)
            assert all(traces[k].instantaneous_ok for k in kinds)
            for node, roots in visits:
                x = node.prefix
                mu = oracle.prediction(TRUE, cls, x, LARGEST_WEIGHT)
                table = loss.table(x)
                a_mu, step_mu = oracle.acted_loss(mu[1], mu, table)
                differ = 0
                for k in kinds:
                    phi1 = oracle.prediction(k, cls, x, LARGEST_WEIGHT)[1]
                    a, step = oracle.acted_loss(phi1, mu, table)
                    differ += step != step_mu
                    skipped += phi1 != mu[1] and a == a_mu
                assert roots == differ, (case, x)
                checked += differ
        assert bits == [64] * checked
        assert checked > 20 and skipped > 100

    def test_bound_terms_once_per_distinct_prediction(self, monkeypatch):
        # check_bounds forms one Hellinger sum per distinct prediction list
        # of the Hellinger kinds at a node, and none for a list equal to mu.
        terms = []

        def hellinger_term(p, q):
            terms.append((p, q))
            return enclosure.hellinger_term(p, q)

        monkeypatch.setattr(metrics, "hellinger_term", hellinger_term)
        visits = _counting_walk(monkeypatch, metrics, terms)
        kinds = ("rho_norm", "rho", "static", "static_norm")
        shared = 0
        for case in range(8):
            cls = random_measure_class(70, case)
            visits.clear()
            assert all(r.passed for r in metrics.check_bounds(cls, 6))
            for node, made in visits:
                x = node.prefix
                mu = oracle.prediction(TRUE, cls, x, LARGEST_WEIGHT)
                phis = [tuple(oracle.prediction(k, cls, x, LARGEST_WEIGHT)) for k in kinds]
                distinct = {phi for phi in phis if list(phi) != mu}
                assert made == 2 * len(distinct), (case, x)
                shared += len(phis) - len(distinct)
        assert shared > 100
