import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdl_lab.errors import AllZeroError, IndeterminateTailError, ZeroHistoryError
from mdl_lab.measures import Alphabet, DeterministicModel, IidModel, Semimeasure
from mdl_lab.metrics import walk_support
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    LOWEST_INDEX,
    EvalStats,
    WeightedClass,
    bernoulli_class,
    example1_class,
    example3_class,
    example5_class,
    map_estimator,
    round_robin,
    two_part_value,
)
from mdl_lab.predictors import (
    ALL_KINDS,
    TRUE,
    PredictionNode,
    PredictiveDistribution,
    bayes_mixture,
    bayes_mixture_bounds,
    normalize,
    normalizer_product,
    predict_bayes,
    predict_dynamic,
    predict_hybrid,
    predict_static,
    predict_true,
)
from mdl_lab.suites import random_measure_class, random_semimeasure_class, random_word, suite_rng
import oracle
from oracle import StopsAfter, all_words, outcome


class TestBayesMixture:
    def test_single_model(self):
        cls = bernoulli_class([F(1, 3)])
        for x in ("", "0", "10"):
            assert bayes_mixture(cls, x) == cls.models[0].evaluate(x)

    def test_example3_two_term_sum(self):
        assert bayes_mixture(example3_class(), "1") == F(2, 3) * F(1, 2) + F(1, 3)

    def test_example1_counts_consistent_models(self):
        # nu_i survives 1^3 iff i >= 4; with mu that is 2 of 5 models.
        assert bayes_mixture(example1_class(5), "111") == F(2, 5)

    def test_interval_with_tail(self):
        cls = WeightedClass(
            [IidModel((F(1, 2), F(1, 2)))], [F(1, 2)], tail_bound=F(1, 4)
        )
        box = bayes_mixture_bounds(cls, "1")
        assert box.lo == F(1, 4) and box.hi == F(1, 2)


class TestPredictBayes:
    def test_fair_coin(self):
        cls = bernoulli_class([F(1, 2)])
        for x in ("", "101"):
            assert predict_bayes(cls, x).values == (F(1, 2), F(1, 2))

    def test_example3_at_root(self):
        dist = predict_bayes(example3_class(), "")
        assert dist.values == (F(1, 3), F(2, 3))

    def test_example1_consistent_counting(self):
        dist = predict_bayes(example1_class(5), "1")
        assert dist.values == (F(1, 4), F(3, 4))


class TestPredictDynamic:
    def test_single_model_is_conditional(self):
        cls = bernoulli_class([F(1, 4)])
        dist = predict_dynamic(cls, "10")
        assert dist.values == (F(3, 4), F(1, 4))

    def test_example1_both_children_keep_max(self):
        dist = predict_dynamic(example1_class(5), "1")
        assert dist.values == (F(1), F(1))
        assert not dist.normalized

    def test_entries_in_unit_interval_random(self):
        for case in range(30):
            rng = suite_rng(3, case)
            cls = random_semimeasure_class(3, case)
            x = random_word(rng, cls.alphabet, 6)
            if cls.true_model.evaluate_exact(cls.word(x)) == 0:
                continue
            for v in predict_dynamic(cls, x).values:
                assert 0 <= v <= 1

    def test_zero_history(self):
        cls = example1_class(3)
        with pytest.raises(ZeroHistoryError):
            predict_dynamic(cls, "01")  # no model survives 01


class TestPredictStatic:
    def test_two_point_class_picks_zero_model(self):
        cls = bernoulli_class([F(0), F(1, 2)])
        dist = predict_static(cls, "0")
        assert dist.values == (F(1), F(0))

    def test_example1_lowest_index_tie(self):
        from mdl_lab.model_class import LOWEST_INDEX

        dist = predict_static(example1_class(5), "1", LOWEST_INDEX)
        assert dist.values == (F(1), F(0))  # nu_2 predicts 0 next

    def test_single_model(self):
        cls = bernoulli_class([F(2, 5)])
        assert predict_static(cls, "011").values == (F(3, 5), F(2, 5))

    def test_measure_class_sums_to_one(self):
        for case in range(20):
            rng = suite_rng(11, case)
            cls = random_measure_class(11, case)
            x = random_word(rng, cls.alphabet, 5)
            try:
                dist = predict_static(cls, x)
            except ZeroHistoryError:
                continue
            assert sum(dist.values) == 1 and dist.normalized

    def test_semimeasure_class_sums_at_most_one(self):
        for case in range(20):
            rng = suite_rng(12, case)
            cls = random_semimeasure_class(12, case)
            x = random_word(rng, cls.alphabet, 5)
            try:
                dist = predict_static(cls, x)
            except ZeroHistoryError:
                continue
            assert sum(dist.values) <= 1


class TestPredictHybrid:
    def test_single_model_is_conditional(self):
        cls = bernoulli_class([F(1, 4)])
        assert predict_hybrid(cls, "0").values == (F(3, 4), F(1, 4))

    def test_example3_round_robin_oscillation(self):
        cls = example3_class()
        rr = round_robin()
        on_seq = []
        for t in range(1, 9):
            dist = predict_hybrid(cls, (1,) * (t - 1), rr)
            on_seq.append(dist.entry(1))
        assert on_seq[0] == 1
        assert on_seq[1::2] == [F(1, 4)] * 4  # even t
        assert on_seq[2::2] == [F(1)] * 3  # odd t >= 3

    def test_example3_largest_weight_constant(self):
        cls = example3_class()
        for t in range(1, 8):
            dist = predict_hybrid(cls, (1,) * (t - 1))
            assert dist.values == (F(1, 2), F(1, 2))


class TestNormalize:
    def test_ones_to_halves(self):
        dist = PredictiveDistribution((F(1), F(1)), normalized=False)
        assert normalize(dist).values == (F(1, 2), F(1, 2))

    def test_idempotent(self):
        dist = PredictiveDistribution((F(3, 4), F(1, 4)), normalized=True)
        assert normalize(dist) is dist

    def test_scaling(self):
        dist = PredictiveDistribution((F(3, 8), F(1, 8)), normalized=False)
        assert normalize(dist).values == (F(3, 4), F(1, 4))

    @given(st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50))
    def test_scale_invariance(self, c):
        base = (F(1, 5), F(3, 10))
        scaled = PredictiveDistribution(tuple(c * v for v in base), False)
        plain = PredictiveDistribution(base, False)
        assert normalize(scaled).values == normalize(plain).values

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            normalize(PredictiveDistribution((F(0), F(0)), False))


class TestNormalizerProduct:
    def test_single_measure_telescopes_to_one(self):
        cls = bernoulli_class([F(2, 7)])
        for x in ("", "0", "0110", "111"):
            assert normalizer_product(cls, x) == 1

    def test_example1_factor_two_per_live_step(self):
        cls = example1_class(5)
        assert normalizer_product(cls, "1") == 4  # factors 2 * 2

    def test_log_identity_random_classes(self):
        import math

        for case in range(20):
            rng = suite_rng(21, case)
            cls = random_measure_class(21, case)
            x = random_word(rng, cls.alphabet, 5)
            try:
                product = normalizer_product(cls, x)
            except ZeroHistoryError:
                continue
            word = cls.word(x)
            from mdl_lab.model_class import two_part_value

            log_sum = 0.0
            for t in range(len(word) + 1):
                prefix = word[:t]
                total = sum(
                    (two_part_value(cls, prefix + (a,)) for a in (0, 1)), F(0)
                )
                log_sum += math.log(total / two_part_value(cls, prefix))
            assert abs(math.log(product) - log_sum) < 1e-9


class TestSemimeasureDifferenceLemma:
    def words_to_depth(self, depth):
        return [
            bits for n in range(depth) for bits in itertools.product((0, 1), repeat=n)
        ]

    def test_mixture_minus_two_part_is_semimeasure(self):
        # xi - rho keeps the semimeasure inequality, in both variants,
        # on random classes including leaky members.
        from mdl_lab.model_class import map_estimator, two_part_value

        for case in range(8):
            cls = random_semimeasure_class(31, case)
            for x in self.words_to_depth(6):
                xi_x = bayes_mixture(cls, x)
                rho_x = two_part_value(cls, x)
                children_gap = F(0)
                children_gap_static = F(0)
                chosen = map_estimator(cls, x).index
                model = cls.models[chosen]
                w = cls.weights[chosen]
                for a in (0, 1):
                    xa = tuple(x) + (a,)
                    children_gap += bayes_mixture(cls, xa) - two_part_value(cls, xa)
                    children_gap_static += bayes_mixture(cls, xa) - w * model.evaluate_exact(xa)
                assert 0 <= children_gap <= xi_x - rho_x
                assert 0 <= children_gap_static <= xi_x - rho_x

    def test_anti_semimeasure_on_measure_classes(self):
        from mdl_lab.model_class import two_part_value

        for case in range(8):
            cls = random_measure_class(32, case, allow_deficient=False)
            for x in self.words_to_depth(6):
                rho_x = two_part_value(cls, x)
                total = sum(
                    (two_part_value(cls, tuple(x) + (a,)) for a in (0, 1)), F(0)
                )
                assert total >= rho_x

    def test_dominance(self):
        for case in range(8):
            cls = random_semimeasure_class(33, case)
            for x in self.words_to_depth(6):
                xi_x = bayes_mixture(cls, x)
                for m, w in zip(cls.models, cls.weights):
                    assert xi_x >= w * m.evaluate_exact(x)


class TestPredictorObjects:
    def test_search_counters(self):
        cls = example1_class(4)
        dyn = EvalStats()
        predict_dynamic(cls, "1", stats=dyn)
        assert dyn.map_searches == 3  # parent + two children
        sta = EvalStats()
        predict_static(cls, "1", stats=sta)
        assert sta.map_searches == 1

    def test_true_predictor(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)], true_index=1)
        assert predict_true(cls, "0").values == (F(1, 4), F(3, 4))

    def test_kind_validation(self):
        from mdl_lab.metrics import cumulative_distances

        with pytest.raises(ValueError):
            cumulative_distances(bernoulli_class([F(1, 2)]), "oracle", 2)


# ----------------------------------------------------------------------
# The node-reading facade against quotients of point evaluations
# ----------------------------------------------------------------------

TIE_BREAKS = (LARGEST_WEIGHT, LOWEST_INDEX, round_robin(1))
FACADE = {
    "xi": lambda cls, x, tb, stats: predict_bayes(cls, x),
    "rho": predict_dynamic,
    "static": predict_static,
    "hybrid": predict_hybrid,
}
SEARCHES = {"xi": 0, "rho": 3, "static": 1, "hybrid": 3}


def quotient_reference(kind, cls, x, tb):
    """Each prediction as a quotient of from-scratch point evaluations."""
    children = [x + (a,) for a in cls.alphabet.symbols()]
    if kind == "xi":
        base = bayes_mixture(cls, x)
        if base == 0:
            raise ZeroHistoryError(x)
        return tuple(bayes_mixture(cls, xa) / base for xa in children)
    if kind == "rho":
        base = two_part_value(cls, x)
        if base == 0:
            raise ZeroHistoryError(x)
        return tuple(two_part_value(cls, xa) / base for xa in children)
    chosen = cls.models[map_estimator(cls, x, tb).index]
    base = chosen.evaluate_exact(x)
    if base == 0:
        raise ZeroHistoryError(x)
    if kind == "static":
        return tuple(chosen.evaluate_exact(xa) / base for xa in children)
    return tuple(
        cls.models[map_estimator(cls, xa, tb).index].evaluate_exact(xa) / base
        for xa in children
    )


def _assert_facade_matches(cls, words):
    for x in words:
        for tb in TIE_BREAKS:
            for kind, predict in FACADE.items():
                stats = EvalStats()
                got = outcome(lambda: predict(cls, x, tb, stats).values)
                want = outcome(lambda: quotient_reference(kind, cls, x, tb))
                assert got == want, (cls.describe(), x, tb, kind)
                if isinstance(got, tuple):
                    assert stats.map_searches == SEARCHES[kind]


class TestFacadeDifferential:
    def test_random_measure_classes(self):
        for case in range(12):
            _assert_facade_matches(random_measure_class(41, case), all_words(5))

    def test_random_semimeasure_classes(self):
        for case in range(12):
            _assert_facade_matches(random_semimeasure_class(42, case), all_words(5))

    def test_named_classes(self):
        for cls in (example1_class(4), example3_class()):
            _assert_facade_matches(cls, all_words(5))


class TestTailRefusal:
    def truncated_classes(self):
        geometric = WeightedClass(
            [DeterministicModel((1,) * i, (0,)) for i in range(4)],
            [F(1, 2 ** (i + 1)) for i in range(4)],
            tail_bound=F(1, 16),
            descending_weights=True,
        )
        yield geometric
        for case in range(6):
            base = random_measure_class(43, case)
            yield WeightedClass(
                base.models,
                [w / 2 for w in base.weights],
                tail_bound=F(1, 2 ** (3 + case % 3)),
            )

    def test_predictors_refuse_where_map_estimator_refuses(self):
        refusals = 0
        for cls in self.truncated_classes():
            for x in all_words(5):
                at_x = outcome(lambda: map_estimator(cls, x).index)
                at_children = [
                    outcome(lambda: map_estimator(cls, x + (a,)).index) for a in (0, 1)
                ]
                refused = at_x is IndeterminateTailError
                refused_child = IndeterminateTailError in at_children
                refusals += refused
                for tb in TIE_BREAKS:
                    static = outcome(lambda: predict_static(cls, x, tb))
                    assert (static is IndeterminateTailError) == refused
                    for predict in (predict_dynamic, predict_hybrid):
                        got = outcome(lambda: predict(cls, x, tb))
                        assert (got is IndeterminateTailError) == (refused or refused_child)
                _assert_facade_matches(cls, [x])
        assert refusals > 0


# ----------------------------------------------------------------------
# Prediction nodes against the oracle's Fraction formulas
# ----------------------------------------------------------------------


def _node_at(cls, x, tie_break):
    cursors = [m.cursor() for m in cls.models]
    for a in x:
        cursors = [c.advance(a) for c in cursors]
    return PredictionNode(cls, tie_break, x, cursors)


def _zero_history_class():
    """Mass runs out after two symbols off the true path 1^inf."""
    return WeightedClass(
        [StopsAfter(2), DeterministicModel((), (1,))], [F(1, 2), F(1, 4)], true_index=1
    )


class TestNodeOracle:
    def classes(self):
        for case in range(6):
            yield random_measure_class(44, case)
            yield random_semimeasure_class(45, case)
        yield random_measure_class(46, 0, alphabet=Alphabet(3))
        yield example1_class(4)
        yield example3_class()
        yield example5_class()
        yield _zero_history_class()

    def test_every_kind_matches_the_oracle(self):
        seen = set()
        for cls in self.classes():
            for x in all_words(5 if cls.alphabet.size == 2 else 3, cls.alphabet.size):
                live = cls.true_model.evaluate_exact(x) != 0
                for tb in TIE_BREAKS:
                    node = _node_at(cls, x, tb)
                    for kind in ALL_KINDS:
                        if kind == TRUE and not live:
                            continue  # walks and paths visit positive true mass only
                        got = outcome(lambda: node.prediction(kind))
                        want = outcome(lambda: oracle.prediction(kind, cls, x, tb))
                        assert got == want, (cls.describe(), x, tb, kind)
                        seen.add(want if isinstance(want, type) else kind)
        assert seen == set(ALL_KINDS) | {ZeroHistoryError, AllZeroError}

    def test_rows_and_choices_match_the_oracle(self):
        cls = example3_class()
        for x in all_words(4):
            for tb in TIE_BREAKS:
                node = _node_at(cls, x, tb)
                assert node.row() == oracle.weighted_row(cls, x)
                assert node.choice() == oracle.map_index(cls, x, tb)
                for a in (0, 1):
                    assert node.row(a) == oracle.weighted_row(cls, x + (a,))
                    assert node.choice(a) == oracle.map_index(cls, x + (a,), tb)


class _Counted(F):
    """A model value that counts the products and quotients formed with it."""

    products = 0
    quotients = 0

    def __rmul__(self, other):
        _Counted.products += 1
        return F(other) * F(self)

    def __truediv__(self, other):
        _Counted.quotients += 1
        return F(self) / F(other)


class _CountedCursor:
    def __init__(self, inner):
        self.inner = inner

    @property
    def value(self):
        return _Counted(self.inner.value)

    def advance(self, a):
        return _CountedCursor(self.inner.advance(a))

    def state_key(self):
        return self.inner.state_key()


class _CountedModel(Semimeasure):
    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.is_proper_measure = inner.is_proper_measure

    def cursor(self):
        return _CountedCursor(self.inner.cursor())


def _counted(cls):
    return WeightedClass(
        [_CountedModel(m) for m in cls.models], cls.weights, true_index=cls.true_index
    )


class TestNodeWork:
    def test_all_kinds_form_each_weighted_product_once(self):
        for cls in (random_measure_class(47, 0), example3_class(), _zero_history_class()):
            counted = _counted(cls)
            bound = len(cls) * (cls.alphabet.size + 1)
            for x in all_words(3):
                if cls.true_model.evaluate_exact(x) == 0:
                    continue
                node = _node_at(counted, x, LARGEST_WEIGHT)
                _Counted.products = 0
                for _ in range(2):
                    for kind in ALL_KINDS:
                        outcome(lambda: node.prediction(kind))
                    node.true_conditionals()
                assert 0 < _Counted.products <= bound, (cls.describe(), x)

    def test_walk_divides_true_conditionals_once_per_node(self):
        cls = _counted(random_measure_class(47, 1))

        def visit(node):
            for _ in range(3):
                node.true_conditionals()

        _Counted.quotients = 0
        nodes = walk_support(cls, 6, visit)
        # The visit reads each node's conditionals three times and the walk
        # once more to step on, yet each entry is divided once.
        assert _Counted.quotients == cls.alphabet.size * nodes
