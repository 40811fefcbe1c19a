from fractions import Fraction as F

import pytest

from mdl_lab import measures
from mdl_lab.errors import IndeterminateTailError, ZeroHistoryError
from mdl_lab.measures import (
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    Semimeasure,
    derived_rng,
    sample_path,
)
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    LOWEST_INDEX,
    WeightedClass,
    bernoulli_class,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
    map_estimator,
    round_robin,
)
from mdl_lab.stabilization import (
    alternation_count,
    hybrid_value_series,
    increment_sign_changes,
    map_trace,
    monte_carlo_stabilization,
    profile_class,
    stabilization_verdict,
)
from mdl_lab.suites import random_measure_class, random_semimeasure_class
from oracle import all_words

TIE_BREAKS = (LARGEST_WEIGHT, LOWEST_INDEX, round_robin(1))


def _truncated(base, tail_bound):
    return WeightedClass(base.models, [w / 2 for w in base.weights], tail_bound=tail_bound)


def _geometric_truncated_class():
    """nu_i on 1^i 0^inf with weight 2^-(i+1); four materialized, tail 1/16."""
    return WeightedClass(
        [DeterministicModel((1,) * i, (0,)) for i in range(4)],
        [F(1, 2 ** (i + 1)) for i in range(4)],
        tail_bound=F(1, 16),
        descending_weights=True,
    )


class _Generic(Semimeasure):
    """A model without a cursor of its own, evaluated prefix by prefix."""

    def __init__(self, model):
        self.alphabet = model.alphabet
        self.is_proper_measure = model.is_proper_measure
        self._model = model

    def evaluate_exact(self, x):
        return self._model.evaluate_exact(x)


CURSOR_KINDS = (
    measures._GenericCursor,
    measures._FactorizableCursor,
    measures._MartingaleCursor,
    measures._LeakyCursor,
)


def _refuse_cursor_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("the integer trace read a cursor Fraction")

    for kind in CURSOR_KINDS:
        monkeypatch.setattr(kind, "value", property(refuse))


def _leaky_semimeasure_classes(seed, count):
    classes = (random_semimeasure_class(seed, case) for case in range(4 * count))
    leaky = [
        cls for cls in classes if any(isinstance(m, LeakySemimeasure) for m in cls.models)
    ]
    assert len(leaky) >= count
    return leaky[:count]


def _reference_trace(cls, word, tie_break):
    """Per-prefix map_estimator: indices, tie flags and (error, prefix length)."""
    indices, ties = [], []
    for t in range(len(word) + 1):
        try:
            res = map_estimator(cls, word[:t], tie_break)
        except IndeterminateTailError:
            return indices, ties, (IndeterminateTailError, t)
        if res.value == 0:
            return indices, ties, (ZeroHistoryError, t)
        indices.append(res.index)
        ties.append(res.tied)
    return indices, ties, None


def _assert_trace_matches(cls, words, guard=None):
    """map_trace equals per-prefix map_estimator; returns the errors seen.

    The references are computed first; ``guard(monkeypatch)``, if given,
    then patches the library for the map_trace calls only, since
    map_estimator itself may read cursors.
    """
    references = [
        (tb, word, _reference_trace(cls, word, tb)) for tb in TIE_BREAKS for word in words
    ]
    errors = []
    with pytest.MonkeyPatch.context() as mp:
        if guard is not None:
            guard(mp)
        for tb, word, (indices, ties, error) in references:
            if error is None:
                trace = map_trace(cls, word, tb)
                assert (trace.indices, trace.tie_flags) == (indices, ties), (word, tb)
                continue
            kind, t = error
            with pytest.raises(kind):
                map_trace(cls, word[:t], tb)
            if t > 0:
                trace = map_trace(cls, word[: t - 1], tb)
                assert (trace.indices, trace.tie_flags) == (indices, ties), (word, tb)
            errors.append(kind)
    return errors


class TestMapTraceDifferential:
    def test_factorizable_classes_never_use_cursors(self, monkeypatch):
        def no_cursor(self):
            raise AssertionError("the factorizable trace advanced a cursor")

        for kind in (IidModel, DeterministicModel, FactorizableModel):
            monkeypatch.setattr(kind, "cursor", no_cursor)
        classes = [random_measure_class(51, case) for case in range(16)]
        classes += [
            _truncated(random_measure_class(52, case), F(1, 2 ** (3 + case % 3)))
            for case in range(6)
        ]
        classes += [
            _geometric_truncated_class(),
            example1_class(4),
            example3_class(),
            example4_class(),
            example4_class(F(3, 7), F(4, 7)),
        ]
        errors = []
        for cls in classes:
            assert all(m.is_factorizable for m in cls.models)
            errors += _assert_trace_matches(cls, all_words(6))
        assert ZeroHistoryError in errors and IndeterminateTailError in errors

    def test_dyadic_and_leaky_classes_run_on_integers(self):
        leaky = _leaky_semimeasure_classes(53, 6)
        lam, mart, _, _ = measures.example5_pair()
        classes = [example5_class(), _truncated(example5_class(), F(1, 64))] + leaky
        classes += [_truncated(cls, F(1, 2 ** (3 + k))) for k, cls in enumerate(leaky[:3])]
        classes += [
            # Dyadic cursors under one and two leaks, next to other members.
            WeightedClass(
                [lam, LeakySemimeasure(mart, F(1, 8)), LeakySemimeasure(mart, F(1, 3))],
                [F(1, 4), F(1, 2), F(1, 4)],
            ),
            WeightedClass(
                [
                    LeakySemimeasure(DeterministicModel((), (1,)), F(1, 4)),
                    LeakySemimeasure(LeakySemimeasure(mart, F(1, 4)), F(1, 8)),
                ],
                [F(1, 5), F(3, 5)],
                tail_bound=F(1, 5),
            ),
            # Every member dies on 00: ZeroHistoryError on the integer path.
            WeightedClass(
                [
                    LeakySemimeasure(DeterministicModel((), (1,)), F(1, 4)),
                    DeterministicModel((1,), (0,)),
                ],
                [F(1, 2), F(1, 2)],
            ),
        ]
        errors = []
        for cls in classes:
            errors += _assert_trace_matches(cls, all_words(6), _refuse_cursor_fractions)
        assert ZeroHistoryError in errors and IndeterminateTailError in errors

    def test_example5_long_paths_match_fraction_trace(self):
        cls = example5_class()
        mart = cls.models[1]
        dead = 0
        for i in range(40):
            path = sample_path(cls.true_model, 2000, derived_rng(7, i))
            # The reference: one walk of Fraction cursor values per path.
            cursors = [m.cursor() for m in cls.models]
            want = []
            for t in range(len(path) + 1):
                if t:
                    cursors = [c.advance(path[t - 1]) for c in cursors]
                scores = [w * c.value for w, c in zip(cls.weights, cursors)]
                best = max(scores)
                tied = tuple(j for j, v in enumerate(scores) if v == best)
                want.append(LARGEST_WEIGHT.choose(tied, cls.weights, t))
            with pytest.MonkeyPatch.context() as mp:
                _refuse_cursor_fractions(mp)
                assert map_trace(cls, path).indices == want
            dead += mart.is_dead(path[:32])
        assert 0 < dead < 40

    def test_cursor_path_classes(self):
        # A member without its own cursor sends the whole class to cursor
        # Fractions; the trace must still match the per-prefix estimator.
        reads = []
        value = measures._GenericCursor.value

        def counted(self):
            reads.append(1)
            return value.fget(self)

        classes = [
            WeightedClass(
                [_Generic(m) if i == 0 else m for i, m in enumerate(cls.models)],
                cls.weights,
                true_index=cls.true_index,
            )
            for cls in [example5_class()] + _leaky_semimeasure_classes(53, 4)
        ]
        classes.append(_truncated(classes[0], F(1, 64)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures._GenericCursor, "value", property(counted))
            for cls in classes:
                _assert_trace_matches(cls, all_words(6))
        assert reads

    def test_truncated_class_refuses_where_map_estimator_refuses(self):
        cls = _geometric_truncated_class()
        ones = (1,) * 6
        refusals = []
        for t in range(len(ones) + 1):
            try:
                map_estimator(cls, ones[:t])
            except IndeterminateTailError:
                refusals.append(t)
        assert refusals[0] == 3  # only nu_3 survives 1^3, at weight 1/16
        assert map_trace(cls, ones[:2]).indices == [0, 1, 2]
        with pytest.raises(IndeterminateTailError):
            map_trace(cls, ones[:3])


class TestMapTrace:
    def test_single_model_constant(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        trace = map_trace(cls, "10110")
        assert set(trace.indices) == {0}

    def test_example3_round_robin_alternates(self):
        trace = map_trace(example3_class(), (1,) * 8, round_robin())
        assert trace.indices == [t % 2 for t in range(9)]
        assert trace.tie_flags[1:] == [True] * 8  # ties on every 1-prefix

    def test_example1_indices_advance_as_models_die(self):
        trace = map_trace(example1_class(5), (1,) * 7, LARGEST_WEIGHT)
        assert trace.indices == [0, 1, 2, 3, 4, 4, 4, 4]

    def test_example3_largest_weight_constant(self):
        trace = map_trace(example3_class(), (1,) * 8, LARGEST_WEIGHT)
        assert set(trace.indices) == {0}


class TestVerdict:
    def test_constant_trace(self):
        trace = map_trace(bernoulli_class([F(1, 2)], true_index=0), "0101")
        verdict = stabilization_verdict(trace, window=2)
        assert verdict.stabilized_by == 0 and verdict.change_count == 0

    def test_example3_never_stabilizes(self):
        trace = map_trace(example3_class(), (1,) * 40, round_robin())
        verdict = stabilization_verdict(trace, window=10)
        assert verdict.stabilized_by is None
        assert verdict.change_count == 40

    def test_change_at_three(self):
        trace = map_trace(example1_class(3), (1,) * 100, LARGEST_WEIGHT)
        # Changes at t=1 and t=2, then constant: stabilized by 2.
        verdict = stabilization_verdict(trace, window=50)
        assert verdict.stabilized_by == 2

    def test_window_validation(self):
        trace = map_trace(bernoulli_class([F(1, 2)], true_index=0), "01")
        for window in (3, -2):
            with pytest.raises(ValueError):
                stabilization_verdict(trace, window=window)


class TestMonteCarlo:
    def test_single_model_fraction_one(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        summary = monte_carlo_stabilization(cls, 50, samples=20, window=10, seed=4)
        assert summary.fraction_stabilized == 1

    def test_reproducible_and_worker_independent(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)], true_index=0)
        a = monte_carlo_stabilization(cls, 60, 25, 15, seed=8, workers=1)
        b = monte_carlo_stabilization(cls, 60, 25, 15, seed=8, workers=3)
        assert a.fraction_stabilized == b.fraction_stabilized
        assert [v.stabilized_by for v in a.verdicts] == [
            v.stabilized_by for v in b.verdicts
        ]

    def test_zero_samples_refused(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        with pytest.raises(ValueError):
            monte_carlo_stabilization(cls, 4, samples=0, window=1, seed=0)

    def test_example5_keeps_oscillating(self):
        summary = monte_carlo_stabilization(
            example5_class(), 300, samples=60, window=80, seed=11
        )
        assert 1 - summary.fraction_stabilized >= F(1, 2)


class TestProfile:
    def test_iid_class(self):
        cls = bernoulli_class(
            [F(1, 8), F(3, 8), F(5, 8), F(7, 8)], true_index=1
        )
        profile = profile_class(cls, depth=10)
        assert profile.all_factorizable and profile.all_measures
        assert profile.uniform_stochasticity_delta == F(1, 8)

    def test_example4_has_no_delta(self):
        profile = profile_class(example4_class(), depth=10)
        assert profile.all_factorizable
        assert profile.uniform_stochasticity_delta is None

    def test_example5_not_factorizable(self):
        profile = profile_class(example5_class(), depth=6)
        assert not profile.all_factorizable
        assert profile.uniform_stochasticity_delta is None
        assert not OscillatingMartingaleMeasure().is_factorizable


class TestHybridSeries:
    def test_example3_values(self):
        series = hybrid_value_series(example3_class(), (1,) * 10, round_robin())
        assert series[0] == 1
        assert all(
            v == (F(1, 4) if t % 2 == 0 else F(1))
            for t, v in enumerate(series[1:], start=2)
        )
        assert alternation_count(series) == 9

    def test_matches_quotients_of_evaluate_exact(self):
        for cls in (example3_class(), example4_class(F(3, 7), F(4, 7)), example5_class()):
            for tb in (LARGEST_WEIGHT, round_robin()):
                for word in all_words(6) + [(1,) * 12]:
                    trace = map_trace(cls, word, tb)
                    want = [
                        cls.models[trace.indices[t]].evaluate_exact(word[:t])
                        / cls.models[trace.indices[t - 1]].evaluate_exact(word[: t - 1])
                        for t in range(1, len(word) + 1)
                    ]
                    assert hybrid_value_series(cls, word, tb) == want

    def test_sign_change_counter(self):
        assert increment_sign_changes([F(1), F(2), F(1), F(2), F(1)]) == 3
        assert increment_sign_changes([F(1), F(1), F(2)]) == 0


class TestExample4Argmax:
    def test_equal_weights_never_flip(self):
        # The exact weighted ratio stays below 1 for every t >= 1, so
        # the maximizer is pinned to the true model (after the root tie).
        cls = example4_class(F(1, 2), F(1, 2))
        trace = map_trace(cls, (1,) * 60, LARGEST_WEIGHT)
        assert trace.indices[1:] == [0] * 60

    def test_suitable_weights_flip_at_least_twice(self):
        cls = example4_class(F(3, 7), F(4, 7))
        trace = map_trace(cls, (1,) * 60, LARGEST_WEIGHT)
        assert len(trace.change_times()) >= 2
