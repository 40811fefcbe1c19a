from fractions import Fraction as F

import pytest

from mdl_lab import measures, stabilization
from mdl_lab.errors import IndeterminateTailError, ZeroHistoryError
from mdl_lab.measures import (
    BINARY,
    Alphabet,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    derived_rng,
    sample_path,
)
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    TieBreak,
    WeightedClass,
    bernoulli_class,
    bernoulli_sharpness_class,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
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
from mdl_lab.suites import random_measure_class
import oracle
from oracle import (
    CURSOR_KINDS,
    TIE_BREAKS,
    EvaluateOnly,
    all_words,
    geometric_class,
    leaky_semimeasure_classes,
    truncated,
    truncated_classes,
)


def _refuse_cursor_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("the integer trace read a cursor Fraction")

    for kind in CURSOR_KINDS:
        monkeypatch.setattr(kind, "value", property(refuse))


def _assert_trace_matches(cls, words, guard=None):
    """map_trace equals the oracle's per-prefix MAP choice; returns the errors seen.

    The references are computed first; ``guard(monkeypatch)``, if given,
    then patches the library for the map_trace calls only, since
    evaluate_exact itself may read cursors.
    """
    references = [
        (tb, word, oracle.map_trace(cls, word, tb)) for tb in TIE_BREAKS for word in words
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
        classes += truncated_classes(52, 6) + [
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
        leaky = leaky_semimeasure_classes(53, 6)
        lam, mart, _, _ = measures.example5_pair()
        classes = [example5_class(), truncated(example5_class(), F(1, 64))] + leaky
        classes += [truncated(cls, F(1, 2 ** (3 + k))) for k, cls in enumerate(leaky[:3])]
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
                row = [w * c.value for w, c in zip(cls.weights, cursors)]
                want.append(oracle.pick(cls, row, t, LARGEST_WEIGHT)[0])
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
                [EvaluateOnly(m) if i == 0 else m for i, m in enumerate(cls.models)],
                cls.weights,
                true_index=cls.true_index,
            )
            for cls in [example5_class()] + leaky_semimeasure_classes(53, 4)
        ]
        classes.append(truncated(classes[0], F(1, 64)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures._GenericCursor, "value", property(counted))
            for cls in classes:
                _assert_trace_matches(cls, all_words(6))
        assert reads

    def test_step_tables_ending_in_tails(self):
        # Members whose step tables end at different depths: the multipliers
        # a trace keeps while every step law stays the same must be redone
        # when a table runs into its tail.
        def table(steps, tail):
            return FactorizableModel.from_steps(BINARY, steps, tail)

        half = (F(1, 2), F(1, 2))
        models = [
            table([(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), half], (F(1, 3), F(2, 3))),
            table([half], (F(3, 5), F(2, 5))),
            IidModel(half),
            LeakySemimeasure(table([(F(1, 3), F(2, 3))] * 2, (F(2, 3), F(1, 3))), F(1, 7)),
        ]
        classes = [
            WeightedClass(models, [F(1, 4)] * 4, true_index=0),
            WeightedClass(models, [F(1, 3), F(1, 6), F(1, 4), F(1, 4)], true_index=1),
        ]
        for cls in classes:
            paths = [sample_path(cls.true_model, 40, derived_rng(81, i)) for i in range(4)]
            _assert_trace_matches(cls, all_words(7) + paths)

    def test_truncated_class_refuses_where_map_estimator_refuses(self):
        cls = geometric_class()
        ones = (1,) * 6
        # Only nu_3 survives 1^3, at weight 1/16: the first refusal.
        assert oracle.map_trace(cls, ones, LARGEST_WEIGHT)[2] == (IndeterminateTailError, 3)
        assert map_trace(cls, ones[:2]).indices == [0, 1, 2]
        with pytest.raises(IndeterminateTailError):
            map_trace(cls, ones[:3])


def _iid_classes():
    """Classes of IidModel members with no tail: traces that skip."""
    return [
        # Criterion 09's class: long certified runs.
        bernoulli_class([F(1, 8), F(3, 8), F(5, 8), F(7, 8)], true_index=1),
        # Example 2's crowded class: near ties, few certificates.
        bernoulli_sharpness_class(6),
        # Symmetric pairs tie exactly wherever k = t/2.
        bernoulli_class([F(1, 3), F(2, 3)]),
        bernoulli_class([F(3, 4), F(1, 4)]),
        # Duplicated parameters under equal and under unequal weights.
        bernoulli_class([F(1, 4), F(3, 4), F(1, 4)]),
        bernoulli_class([F(1, 4), F(3, 4), F(1, 4)], [F(1, 6), F(1, 3), F(1, 2)]),
        # Members that die: every word with both symbols kills the whole
        # first class; in the second the fair coin outlives a leader that
        # gives the next symbol probability 0.
        bernoulli_class([F(0), F(1)]),
        bernoulli_class([F(0), F(1, 2), F(1)], [F(3, 8), F(1, 4), F(3, 8)]),
        # A ternary class with a zero entry.
        WeightedClass(
            [IidModel((F(1, 2), F(0), F(1, 2))), IidModel((F(1, 6), F(1, 3), F(1, 2))),
             IidModel((F(1, 3),) * 3)],
            [F(1, 3)] * 3,
            true_index=1,
        ),
    ]


def _leaky_iid_classes():
    """Classes of i.i.d. members, some under one or two leaks: these skip too."""
    classes = _iid_classes()
    c09, ternary = classes[0], classes[-1]
    a, b, c, d = c09.models
    u, v, w = ternary.models
    return [
        # Criterion 09's class with its truth left whole.
        WeightedClass(
            [
                LeakySemimeasure(a, F(1, 64)),
                b,
                LeakySemimeasure(c, F(1, 1000)),
                LeakySemimeasure(LeakySemimeasure(d, F(1, 8)), F(1, 3)),
            ],
            c09.weights,
            true_index=1,
        ),
        # The ternary class: its leader under a leak still gives symbol 1
        # probability 0.
        WeightedClass(
            [
                LeakySemimeasure(u, F(1, 5)),
                v,
                LeakySemimeasure(LeakySemimeasure(w, F(1, 7)), F(1, 2)),
            ],
            ternary.weights,
            true_index=1,
        ),
    ]


def _base(model):
    while isinstance(model, LeakySemimeasure):
        model = model.base
    return model


def _stepped(model):
    if isinstance(model, LeakySemimeasure):
        return LeakySemimeasure(_stepped(model.base), model.leak)
    return FactorizableModel.from_steps(model.alphabet, [], model.theta)


def _stepped_twin(cls):
    """The same laws as step tables with no steps, under the same leaks: a
    class that takes only exact steps."""
    models = [_stepped(m) for m in cls.models]
    return WeightedClass(models, cls.weights, true_index=cls.true_index)


def _trace_or_error(cls, word, tie_break):
    try:
        trace = map_trace(cls, word, tie_break)
    except ZeroHistoryError as exc:
        return str(exc)  # names the prefix length
    return trace.indices, trace.tie_flags


SKIP_TIE_BREAKS = TIE_BREAKS + (round_robin(),)


class TestSkippingTrace:
    """A trace that skips certified runs equals its twin's exact steps."""

    def _assert_twins_agree(self, cls, words):
        twin = _stepped_twin(cls)
        for tb in SKIP_TIE_BREAKS:
            for word in words:
                want = _trace_or_error(twin, word, tb)
                assert _trace_or_error(cls, word, tb) == want, (cls.describe(), word, tb)

    def test_every_short_word(self):
        for cls in _iid_classes():
            k = cls.alphabet.size
            self._assert_twins_agree(cls, all_words(10 if k == 2 else 6, k))

    def test_seeded_long_paths(self):
        for c, cls in enumerate(_iid_classes()):
            paths = [
                sample_path(m, 2000, derived_rng(61, 10 * c + i))
                for i, m in enumerate(cls.models[:4])
            ]
            self._assert_twins_agree(cls, paths)

    def test_paths_match_the_oracle(self):
        errors = []
        for c, cls in enumerate(_iid_classes()):
            paths = [
                sample_path(m, n, derived_rng(62, 10 * c + i))
                for i, (m, n) in enumerate(zip(cls.models, (300, 120, 200)))
            ]
            paths.append((0,) * 100 + (1,) * 100)  # kills both members of [0, 1]
            errors += _assert_trace_matches(cls, paths)
        assert ZeroHistoryError in errors

    def test_leaky_members_on_every_short_word(self):
        for cls in _leaky_iid_classes():
            k = cls.alphabet.size
            self._assert_twins_agree(cls, all_words(10 if k == 2 else 6, k))

    def test_leaky_members_on_seeded_long_paths(self):
        for c, cls in enumerate(_leaky_iid_classes()):
            paths = [
                sample_path(_base(m), 2000, derived_rng(63, 10 * c + i))
                for i, m in enumerate(cls.models)
            ]
            self._assert_twins_agree(cls, paths)

    def test_leaky_members_match_the_oracle(self):
        for c, cls in enumerate(_leaky_iid_classes()):
            paths = [
                sample_path(_base(m), n, derived_rng(64, 10 * c + i))
                for i, (m, n) in enumerate(zip(cls.models, (300, 120, 200)))
            ]
            assert not _assert_trace_matches(cls, paths)

    def test_certified_runs_replace_exact_steps(self, monkeypatch):
        # Each exact step makes one select; a certified run makes none.
        calls = []
        select = TieBreak.select

        def counted(self, *args):
            calls.append(1)
            return select(self, *args)

        monkeypatch.setattr(TieBreak, "select", counted)
        # Criterion 09's class, and its variant with leaky members.
        for cls in (_iid_classes()[0], _leaky_iid_classes()[0]):
            twin = _stepped_twin(cls)
            for i in range(4):
                path = sample_path(cls.true_model, 2000, derived_rng(9, i))
                calls.clear()
                trace = map_trace(cls, path)
                assert len(calls) <= 300, (cls.describe(), i)
                calls.clear()
                assert map_trace(twin, path) == trace
                assert len(calls) == 2001
        # A tail needs its refusal read at every prefix, and a dyadic member
        # (example 5's martingale) has no certificate: neither skips.
        c09, e5 = _iid_classes()[0], example5_class()
        for cls, mu in ((truncated(c09, F(1, 2**3000)), c09.true_model), (e5, e5.true_model)):
            for i in range(2):
                path = sample_path(mu, 2000, derived_rng(9, i))
                calls.clear()
                map_trace(cls, path)
                assert len(calls) == len(path) + 1


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

    def test_negative_horizon_and_stray_window_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a path was drawn")

        cls = bernoulli_class([F(1, 2)], true_index=0)
        monkeypatch.setattr(stabilization, "sample_path", no_draw)
        for horizon, window in ((-3, 0), (4, 5), (4, -1)):
            with pytest.raises(ValueError):
                monte_carlo_stabilization(cls, horizon, 2, window, 1)
        for model in (cls.true_model, example4_class().true_model):
            with pytest.raises(ValueError):
                sample_path(model, -1, derived_rng(0, 0))

    def test_zero_samples_refused(self):
        cls = bernoulli_class([F(1, 2)], true_index=0)
        with pytest.raises(ValueError):
            monte_carlo_stabilization(cls, 4, samples=0, window=1, seed=0)

    def test_example5_keeps_oscillating(self):
        summary = monte_carlo_stabilization(
            example5_class(), 300, samples=60, window=80, seed=11
        )
        assert 1 - summary.fraction_stabilized >= F(1, 2)


class TestSamplePath:
    def test_iid_draws_equal_the_generic_cursor_draw(self):
        # The i.i.d. branch draws on a denominator computed once; the same
        # law stepped on cursor factors, read through a generic cursor's
        # values, and drawn by the oracle gives the same symbols.
        seen = set()
        for theta in ((F(1, 2), F(1, 2)), (F(3, 8), F(5, 8)), (F(1, 6), F(0), F(5, 6))):
            iid = IidModel(theta)
            stepped = FactorizableModel.from_steps(Alphabet(len(theta)), [], theta)
            for seed in range(4):
                want = oracle.draw_path(iid, 60, derived_rng(seed, 3))
                for model in (iid, stepped, EvaluateOnly(iid)):
                    assert sample_path(model, 60, derived_rng(seed, 3)) == want, (theta, model)
                if len(theta) == 3:
                    seen |= set(want)
        assert seen == {0, 2}


class TestProfile:
    def test_iid_class(self):
        cls = bernoulli_class(
            [F(1, 8), F(3, 8), F(5, 8), F(7, 8)], true_index=1
        )
        profile = profile_class(cls, depth=10)
        assert profile.all_factorizable and profile.all_measures
        assert profile.uniform_stochasticity_delta == F(1, 8)

    def test_negative_depth_refused(self):
        cls = bernoulli_class([F(1, 8), F(7, 8)], true_index=1)
        assert profile_class(cls, depth=0).checked_depth == 0
        with pytest.raises(ValueError, match="depth"):
            profile_class(cls, depth=-1)

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
                    chosen = oracle.map_trace(cls, word, tb)[0]
                    want = [
                        cls.models[chosen[t]].evaluate_exact(word[:t])
                        / cls.models[chosen[t - 1]].evaluate_exact(word[: t - 1])
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
