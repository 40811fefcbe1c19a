import math
import pickle
from fractions import Fraction as F

import pytest

from mdl_lab.errors import IndeterminateTailError
from mdl_lab.measures import IidModel
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    LOWEST_INDEX,
    TieBreak,
    WeightedClass,
    bernoulli_class,
    bernoulli_sharpness_class,
    complexity,
    example1_class,
    example3_class,
    map_estimator,
    round_robin,
    two_part_value,
    two_part_value_at,
)
from mdl_lab.predictors import bayes_mixture
from mdl_lab.suites import random_measure_class, random_word, suite_rng
from oracle import geometric_class


class TestWeightedClass:
    def test_weight_validation(self):
        m = IidModel((F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            WeightedClass([m, m], [F(2, 3), F(2, 3)])
        with pytest.raises(ValueError):
            WeightedClass([m], [F(0)])
        with pytest.raises(ValueError):
            WeightedClass([], [])

    def test_descending_flag_verified(self):
        m = IidModel((F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            WeightedClass(
                [m, m], [F(1, 4), F(1, 2)], descending_weights=True
            )

    def test_true_model_gate(self):
        cls = bernoulli_class([F(1, 2)], true_index=None)
        with pytest.raises(ValueError):
            cls.true_model

    def test_pickles_without_its_last_row(self):
        # The row memo of the last query stays behind: a pickle is the same
        # bytes before and after a query, and its copy answers alike.
        cls = bernoulli_sharpness_class(6)
        before = pickle.dumps(cls)
        word = cls.word((0, 1, 1, 0) * 250)
        want = (map_estimator(cls, word), bayes_mixture(cls, word))
        assert pickle.dumps(cls) == before
        copy = pickle.loads(before)
        assert (map_estimator(copy, word), bayes_mixture(copy, word)) == want


class TestMapEstimator:
    def test_example1_only_survivor(self):
        cls = example1_class(3)
        res = map_estimator(cls, "11")
        assert res.index == 2 and not res.tied  # the all-ones model

    def test_example3_round_robin_alternation(self):
        cls = example3_class()
        rr = round_robin()
        # Tie on every 1-string; the rotation key is the string length.
        assert map_estimator(cls, (1,) * 3, rr).index == 1  # odd -> nu
        assert map_estimator(cls, (1,) * 4, rr).index == 0  # even -> lambda

    def test_bernoulli_brute_force(self):
        thetas = [F(1, 4), F(1, 2), F(3, 4)]
        cls = bernoulli_class(thetas)
        word = cls.word("1100")
        # Independent oracle: direct likelihood table.
        def likelihood(t):
            return t ** sum(word) * (1 - t) ** (len(word) - sum(word))

        best = max(range(3), key=lambda i: likelihood(thetas[i]))
        assert best == 1 and likelihood(thetas[1]) == F(1, 16)
        assert map_estimator(cls, word).index == best

    def test_exact_tie_detection(self):
        cls = example3_class()
        res = map_estimator(cls, "1")
        assert res.tied and res.tie_set == (0, 1)
        res_eps = map_estimator(cls, "10")
        assert res_eps.tied  # both models keep matching on any 1-prefix

    def test_tie_break_policies(self):
        cls = example1_class(5)
        # At "1" the tie set is {nu_2, nu_3, nu_4, mu} (indices 1,2,3,4).
        res = map_estimator(cls, "1", LOWEST_INDEX)
        assert res.tie_set == (1, 2, 3, 4)
        assert res.index == 1
        assert map_estimator(cls, "1", LARGEST_WEIGHT).index == 1  # equal weights

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TieBreak("coin_flip")


class TestTwoPartValue:
    def test_single_model(self):
        cls = bernoulli_class([F(1, 3)], true_index=0)
        for x in ("", "0", "011"):
            assert two_part_value(cls, x) == cls.models[0].evaluate(x)

    def test_example1_constant_fifth(self):
        cls = example1_class(5)
        for t in range(5):
            assert two_part_value(cls, (1,) * t) == F(1, 5)

    def test_example3_tie_value(self):
        assert two_part_value(example3_class(), "1") == F(1, 3)

    def test_chooser_equals_argument(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)])
        for x in ("", "1", "10", "0110"):
            assert two_part_value_at(cls, x, x) == two_part_value(cls, x)

    def test_example1_chooser(self):
        cls = example1_class(5)
        # nu_2 (target 10^inf) is the lowest-index maximizer at "1".
        assert two_part_value_at(cls, "1", "10", LOWEST_INDEX) == F(1, 5)
        assert two_part_value_at(cls, "1", "11", LOWEST_INDEX) == 0

    def test_chain_on_random_triples(self):
        # xi >= rho >= rho^y, 200 seeded random (class, x, y) triples.
        for case in range(200):
            rng = suite_rng(77, case)
            cls = random_measure_class(77, case)
            x = random_word(rng, cls.alphabet, 6)
            y = random_word(rng, cls.alphabet, 6)
            rho = two_part_value(cls, x)
            assert bayes_mixture(cls, x) >= rho
            assert rho >= two_part_value_at(cls, y, x)


class TestComplexity:
    @pytest.mark.parametrize(
        "w,expected",
        [(F(1, 2), 1.0), (F(1, 5), math.log2(5)), (F(2, 3), math.log2(1.5))],
    )
    def test_values(self, w, expected):
        cls = WeightedClass([IidModel((F(1, 2), F(1, 2)))], [w])
        assert math.isclose(complexity(cls, 0), expected)


class TestArgmaxInvariance:
    def test_weight_scaling_changes_nothing(self):
        for case in range(25):
            rng = suite_rng(5, case)
            cls = random_measure_class(5, case)
            scaled = cls.scaled(F(1, 3))
            for _ in range(4):
                x = random_word(rng, cls.alphabet, 7)
                a = map_estimator(cls, x)
                b = map_estimator(scaled, x)
                assert (a.index, a.tie_set) == (b.index, b.tie_set)


class TestTailBound:
    def test_clear_winner_is_accepted(self):
        assert map_estimator(geometric_class(), "").index == 0

    def test_indeterminate_tail_refused(self):
        # Every materialized model dies on 1111; the tail could win.
        with pytest.raises(
            IndeterminateTailError,
            match="materialized maximum 0 does not exceed the tail bound 1/16",
        ):
            map_estimator(geometric_class(), "1111")


def test_sharpness_class_shape():
    cls = bernoulli_sharpness_class(6)
    assert len(cls) == 7
    assert cls.true_weight == F(1, 7)
    assert cls.models[1].theta[1] == F(3, 4)
    assert cls.models[6].theta[1] == F(1, 2) + F(1, 2**7)
