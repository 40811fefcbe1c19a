import ast
import functools
import itertools
import pickle
import sys
import threading
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from mdl_lab import coding, measures, model_class, predictors
from mdl_lab.errors import AlphabetMismatchError, IndeterminateTailError, SamplingError
from mdl_lab.measures import (
    BINARY,
    Alphabet,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    OscillatingStepModel,
    Semimeasure,
    check_semimeasure,
    derived_rng,
    example3_pair,
    example5_pair,
    make_example4_pair,
    sample_path,
    sample_sequence,
    step_conditionals,
)
from mdl_lab.metrics import monte_carlo_distances, monte_carlo_rows, walk_support
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    WeightedClass,
    class_scores,
    example5_class,
    map_estimator,
    two_part_value,
    two_part_value_at,
)
from mdl_lab.predictors import (
    bayes_mixture,
    predict_bayes,
    predict_dynamic,
    predict_hybrid,
    predict_static,
    predict_true,
)
from mdl_lab.stabilization import hybrid_value_series, map_trace, monte_carlo_stabilization
from mdl_lab.suites import random_semimeasure_class
import oracle
from oracle import (
    REFERENCE_DEPTH,
    TIE_BREAKS,
    EvaluateOnly,
    all_words,
    martingale_children,
    outcome,
    reference_zoo,
    table_reference,
)


class TestEvaluate:
    def test_fair_coin_product(self):
        assert IidModel((F(1, 2), F(1, 2))).evaluate("110") == F(1, 8)

    def test_deterministic_not_prefix(self):
        assert DeterministicModel((), (1,)).evaluate("10") == 0

    def test_martingale_at_zero(self):
        # First recursion step: f(0) = 3/4 - 2^-3, nu(0) = f(0)/2.
        m = OscillatingMartingaleMeasure()
        assert m.f_value("0") == F(3, 4) - F(1, 8)
        assert m.evaluate("0") == F(5, 16)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            IidModel((F(1, 2), F(1, 2))).evaluate("102")


def _old_word(alphabet, x):
    """Alphabet.word as first written: an all-int scan, then a range scan.

    A symbol that is not an integer is refused like one outside the
    alphabet, with AlphabetMismatchError.
    """
    if isinstance(x, tuple) and all(isinstance(s, int) for s in x):
        w = x
    else:
        w = tuple(x)
        for s in w:
            if not (s.isdigit() if isinstance(s, str) else s == int(s)):
                raise AlphabetMismatchError(f"symbol {s!r} is not an integer")
        w = tuple(int(s) for s in w)
    for s in w:
        if not 0 <= s < alphabet.size:
            raise AlphabetMismatchError(f"symbol {s} outside alphabet of size {alphabet.size}")
    return w


class TestAlphabetWord:
    SPECS = [
        lambda: "",
        lambda: "0110",
        lambda: "012",
        lambda: "3",
        lambda: "1a",
        lambda: [0, 1, 1],
        lambda: [],
        lambda: [2, 0],
        lambda: [0, -1],
        lambda: (),
        lambda: (0, 1, 1),
        lambda: (0, 2),
        lambda: (2, 0, 5),
        lambda: (-1,),
        lambda: (True, False),
        lambda: (1.0, 0),
        lambda: (0, "1"),
        lambda: (5, "a"),
        lambda: (0, 1.5),
        lambda: "01a",
        lambda: range(3),
        lambda: (s for s in (1, 0, 1)),
    ]

    @staticmethod
    def _outcome(read, spec):
        try:
            w = read(spec())
        except (AlphabetMismatchError, ValueError) as exc:
            return type(exc), str(exc)
        return w, [type(s) for s in w]

    def test_one_pass_matches_two_pass(self):
        # Strings, lists, generators, tuples of ints and mixed tuples give
        # the same word, and out-of-range symbols the same error message.
        for alphabet in (BINARY, Alphabet(3)):
            for spec in self.SPECS:
                got = self._outcome(alphabet.word, spec)
                assert got == self._outcome(lambda x: _old_word(alphabet, x), spec), (
                    alphabet,
                    spec(),
                )

    def test_in_range_int_tuple_returned_as_is(self):
        x = (0, 1, 1, 0)
        assert BINARY.word(x) is x
        with pytest.raises(AlphabetMismatchError, match="symbol 2 outside alphabet of size 2"):
            BINARY.word((0, 1, 2))

    def test_accepted_and_refused_symbols_pinned(self):
        # Tuples of ints, bools and int subclasses come back as given;
        # integral floats, digit strings and numpy integers become ints; and
        # the first symbol outside the alphabet names the error.
        np = pytest.importorskip("numpy")

        class Symbol(int):
            pass

        for x in ((), (0, 1, 1), (True, False), (Symbol(1), 0), (0, True, Symbol(0))):
            assert BINARY.word(x) is x
        ternary = Alphabet(3)
        for spec, want in (
            ((1.0, 0), (1, 0)),
            ("0110", (0, 1, 1, 0)),
            ((0, "1"), (0, 1)),
            ((np.int64(1), np.int8(0)), (1, 0)),
            ([2, 0], (2, 0)),
        ):
            got = ternary.word(spec)
            assert got == want and [type(s) for s in got] == [int] * len(want), spec
        for spec, message in (
            ((-1,), "symbol -1 outside alphabet of size 3"),
            ((0, 3), "symbol 3 outside alphabet of size 3"),
            ((0, -3, 5), "symbol -3 outside alphabet of size 3"),
            ((2, np.int64(4)), "symbol 4 outside alphabet of size 3"),
            ((True, 3), "symbol 3 outside alphabet of size 3"),
            ((0, 1.5), "symbol 1.5 is not an integer"),
            ((0, "a"), "symbol 'a' is not an integer"),
        ):
            with pytest.raises(AlphabetMismatchError) as raised:
                ternary.word(spec)
            assert str(raised.value) == message, spec


class TestConditional:
    def test_iid(self):
        assert IidModel((F(1, 4), F(3, 4))).conditional(1, "00") == F(3, 4)

    def test_deterministic_off_path(self):
        assert DeterministicModel((), (1,)).conditional(0, "11") == 0

    def test_zero_history_convention(self):
        assert DeterministicModel((), (1,)).conditional(1, "00") == 0

    def test_example4_nu_first_step(self):
        _, nu = make_example4_pair()
        assert nu.conditional(1, ()) == F(1, 2)


class TestCursors:
    def test_cursor_matches_evaluate(self):
        # Cursors, closed forms, conditionals and per-step laws against the
        # oracle's formulas, on every word shorter than REFERENCE_DEPTH.  A
        # factorizable cursor, leaky or not, reports each step's factor, 0
        # below a dead prefix; root and dyadic cursors report none.
        for model, nu, step in reference_zoo():
            for i in range(1, REFERENCE_DEPTH + 1):
                assert model.step_distribution(i) == (None if step is None else step(i))
            base = model.base if isinstance(model, LeakySemimeasure) else model
            stack = [((), model.cursor())]
            assert stack[0][1].factor is None
            while stack:
                x, cur = stack.pop()
                assert cur.value == model.evaluate_exact(x) == nu(x), (model, x)
                for a in (0, 1):
                    xa = x + (a,)
                    child = cur.advance(a)
                    assert child.value == nu(xa), (model, xa)
                    cond = nu(xa) / nu(x) if nu(x) else 0
                    assert model.conditional_exact(a, x) == cond, (model, xa)
                    assert child.factor == (cond if base.is_factorizable else None), (model, xa)
                    if len(xa) < REFERENCE_DEPTH:
                        stack.append((xa, child))

    def test_model_defining_neither_cursor_nor_evaluate_refuses(self):
        class Bare(Semimeasure):
            alphabet = BINARY

        for read in (lambda m: m.evaluate("01"), lambda m: m.cursor()):
            with pytest.raises(NotImplementedError, match=r"cursor\(\) or evaluate_exact\(\)"):
                read(Bare())


class TestCursorProtocol:
    def test_each_prefix_evaluated_once(self):
        # Every caller reads a child's value from the cursor it steps to,
        # so no prefix is evaluated twice on one walk, path or check.
        def counted_class():
            truth = EvaluateOnly(IidModel((F(1, 3), F(2, 3))))
            other = EvaluateOnly(LeakySemimeasure(OscillatingMartingaleMeasure(), F(1, 4)))
            cls = WeightedClass(
                [truth, other, IidModel((F(1, 2), F(1, 2)))],
                [F(1, 2), F(1, 4), F(1, 4)],
                true_index=0,
            )
            return cls, (truth, other)

        def most_calls(*members):
            return max(max(m.calls.values()) for m in members)

        cls, members = counted_class()
        assert walk_support(cls, 5, lambda node: None) == 31
        assert len(members[1].calls) == 63  # the children of the last level too
        assert most_calls(*members) == 1
        for seed in range(4):
            cls, members = counted_class()
            monte_carlo_rows(cls, 12, 1, seed, lambda node, mu_cond: None)
            assert most_calls(*members) == 1
        word = (0, 1, 1, 0, 1, 0, 0, 1)
        cls, members = counted_class()
        map_trace(cls, word)
        assert most_calls(*members) == 1
        for member in counted_class()[1]:
            read = step_conditionals(member, word)
            for t in range(len(word) + 1):
                read(t)
            assert len(member.calls) == 1 + 2 * (len(word) + 1)  # the root, then two children per read
            assert most_calls(member) == 1
        for model in (IidModel((F(1, 3), F(2, 3))), OscillatingMartingaleMeasure()):
            for seed in range(4):
                counted = EvaluateOnly(model)
                sample_path(counted, 12, derived_rng(seed, 0))
                assert most_calls(counted) == 1
            counted = EvaluateOnly(model)
            assert check_semimeasure(counted, 6).passed
            assert most_calls(counted) == 1

    def test_equal_state_keys_have_equal_futures(self):
        # The contract lumped walks merge on: at one depth, equal keys mean
        # equal values, and one step by the same symbol keeps keys and
        # values equal.  Checked at every prefix of length 0..8.
        half = (F(1, 2), F(1, 2))
        table = FactorizableModel.from_steps(BINARY, [(F(1, 4), F(3, 4)), (F(1), F(0))], half)
        models = [model for model, _, _ in reference_zoo()] + [
            LeakySemimeasure(table, F(1, 8)),
            EvaluateOnly(OscillatingMartingaleMeasure()),
        ]
        merged = 0
        for model in models:
            level = [model.cursor()]
            for depth in range(9):
                seen = {}
                next_level = []
                for cur in level:
                    children = [cur.advance(a) for a in (0, 1)]
                    future = (cur.value, [(c.state_key(), c.value) for c in children])
                    assert seen.setdefault(cur.state_key(), future) == future, (model, depth)
                    next_level += children
                merged += len(level) - len(seen)
                level = next_level
        assert merged > 0


class TestPickle:
    def test_every_family_round_trips(self):
        # Laws are plain data: a pickled copy of every built-in model keeps
        # its name, infimum and values on every word shorter than 8.
        from mdl_lab.conditional import (
            ConditionalClass,
            LabelNoiseModel,
            conditional_to_sequence_class,
        )

        inputs = (0, 1, 1)
        channels = [LabelNoiseModel(F(1, 4)), LabelNoiseModel(F(1))]
        frozen = conditional_to_sequence_class(
            ConditionalClass(channels, [F(1, 2), F(1, 2)]), inputs
        )
        zoo = [(model, nu) for model, nu, _ in reference_zoo()]
        for channel, model in zip(channels, frozen.models):
            dists = [channel.distribution(u) for u in inputs]
            zoo.append((model, table_reference(dists[:-1], dists[-1])[0]))
        for model, nu in zoo:
            copy = pickle.loads(pickle.dumps(model))
            assert repr(copy) == repr(model)
            assert copy.step_prob_infimum == model.step_prob_infimum
            for x in all_words(7):
                assert copy.evaluate_exact(x) == nu(x), (model, x)


class TestStructure:
    def test_iid_all_equalities(self):
        report = check_semimeasure(IidModel((F(1, 3), F(2, 3))), 6)
        assert report.passed and report.all_equalities

    def test_leaky_strict(self):
        base = IidModel((F(1, 2), F(1, 2)))
        leaky = LeakySemimeasure(base, F(1, 4))
        report = check_semimeasure(leaky, 5)
        assert report.passed and not report.all_equalities
        # Per-step leak: children sum to exactly (1 - gamma) * value.
        cur = leaky.cursor()
        assert cur.advance(0).value + cur.advance(1).value == F(3, 4) * cur.value

    def test_depth_below_one_refused(self):
        model = IidModel((F(1, 3), F(2, 3)))
        assert check_semimeasure(model, 1).nodes_checked == 1
        for depth in (0, -2):
            with pytest.raises(ValueError, match="depth"):
                check_semimeasure(model, depth)

    def test_martingale_measure_to_depth_10(self):
        report = check_semimeasure(OscillatingMartingaleMeasure(), 10)
        assert report.passed and report.all_equalities

    def test_semimeasure_inequality_all_families_depth_8(self):
        for model, _, _ in reference_zoo():
            report = check_semimeasure(model, 8)
            assert report.passed, (model, report)
            assert report.all_equalities == model.is_proper_measure

    def test_violation_reported_with_witness(self):
        class Broken(IidModel):
            def evaluate_exact(self, x):
                if x == (1, 1):
                    return F(2)  # exceeds the parent mass
                return super().evaluate_exact(x)

            def cursor(self):
                from mdl_lab.measures import _GenericCursor

                return _GenericCursor(self, ())

        report = check_semimeasure(Broken((F(1, 2), F(1, 2))), 4)
        assert not report.passed
        assert report.violation_at == (1,)


class TestMartingale:
    def test_identity_exact_to_depth_8(self):
        m = OscillatingMartingaleMeasure()
        for bits in all_words(7):
            f = m.f_value(bits)
            assert 2 * f == m.f_value(bits + (0,)) + m.f_value(bits + (1,))

    def test_figure_nodes(self):
        # 000 is the first dead string; every other length-<=3 node is alive.
        m = OscillatingMartingaleMeasure()
        assert m.is_dead("000")
        for bits in all_words(3):
            if bits != (0, 0, 0):
                assert not m.is_dead(bits), bits

    def test_dead_value_freezes(self):
        m = OscillatingMartingaleMeasure()
        f = m.f_value("000")
        for suffix in ("0", "1", "01", "10", "111"):
            assert m.f_value("000" + suffix) == f
            assert m.is_dead("000" + suffix)

    def test_dead_mass_at_most_quarter_to_20(self):
        masses = OscillatingMartingaleMeasure().dead_mass_by_depth(20)
        assert all(mass <= F(1, 4) for mass in masses)
        assert masses[3] == F(1, 8)  # 000 alone among the 8 length-3 nodes

    def test_dead_mass_matches_enumeration(self):
        m = OscillatingMartingaleMeasure()
        masses = m.dead_mass_by_depth(9)
        for n in (4, 7, 9):
            brute = sum(
                F(1, 2**n)
                for bits in itertools.product((0, 1), repeat=n)
                if m.is_dead(bits)
            )
            assert masses[n] == brute


def _fraction_dead_masses(depth):
    level = {(F(1), False): F(1)}
    masses = [F(0)]
    for length in range(1, depth + 1):
        nxt = {}
        for (f, dead), mass in level.items():
            f0, f1, d0, d1 = martingale_children(f, dead, length - 1)
            for key in ((f0, d0), (f1, d1)):
                nxt[key] = nxt.get(key, F(0)) + mass / 2
        level = nxt
        masses.append(sum(m for (_, d), m in level.items() if d))
    return masses


class TestIntegerMartingale:
    """The integer representation against the Fraction rule it replaced."""

    def _check(self, m, bits, cur, f, dead):
        if m is not None:
            assert (m.f_value(bits), m.is_dead(bits)) == (f, dead)
        assert (cur.f_value, cur.dead, cur.value) == (f, dead, f / 2 ** len(bits))
        f0, f1, _, _ = martingale_children(f, dead, len(bits))
        assert cur.advance(0).value == f0 / 2 ** (len(bits) + 1)
        assert cur.advance(1).value == f1 / 2 ** (len(bits) + 1)

    def test_every_node_to_depth_12(self):
        m = OscillatingMartingaleMeasure()
        stack = [((), m.cursor(), F(1), False)]
        keys = {}
        while stack:
            bits, cur, f, dead = stack.pop()
            self._check(m, bits, cur, f, dead)
            # state_key() is a bijection of (f, dead) at each depth.
            keys.setdefault((len(bits), cur.state_key()), (f, dead))
            assert keys[len(bits), cur.state_key()] == (f, dead)
            if len(bits) < 12:
                f0, f1, d0, d1 = martingale_children(f, dead, len(bits))
                stack.append((bits + (0,), cur.advance(0), f0, d0))
                stack.append((bits + (1,), cur.advance(1), f1, d1))
        assert len({(n, v) for (n, _), v in keys.items()}) == len(keys)

    def test_long_alive_and_dead_paths(self):
        lam = IidModel((F(1, 2), F(1, 2)))
        seen = set()
        for i in range(100):
            m = OscillatingMartingaleMeasure()
            path = sample_path(lam, 2000, derived_rng(13, i))
            if m.is_dead(path) in seen:
                continue
            seen.add(m.is_dead(path))
            cur, f, dead = m.cursor(), F(1), False
            for t, a in enumerate(path):
                self._check(m if t % 97 == 0 else None, path[:t], cur, f, dead)
                f0, f1, d0, d1 = martingale_children(f, dead, t)
                f, dead = (f0, d0) if a == 0 else (f1, d1)
                cur = cur.advance(a)
            self._check(m, path, cur, f, dead)
            if len(seen) == 2:
                return
        pytest.fail("no alive and dead 2000-step paths among 100 samples")

    def test_dead_masses_and_lumped_walk_unchanged(self):
        m = OscillatingMartingaleMeasure()
        assert m.dead_mass_by_depth(20) == _fraction_dead_masses(20)
        assert walk_support(example5_class(), 12, lambda node: None) == 133

    def test_children_computed_once_per_node(self, monkeypatch):
        # A cursor advanced by 0 and by 1, in either order and more than
        # once, computes its children's (F, dead) pair once; values and
        # state keys match the Fraction rule.
        calls = []
        original = measures._martingale_children

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(measures, "_martingale_children", counted)
        nodes = walk_support(example5_class(), 12, lambda node: None)
        assert nodes == 133 and len(calls) <= nodes
        depth = 10
        for order in ((0, 1), (1, 0)):
            calls.clear()
            level = [(OscillatingMartingaleMeasure().cursor(), F(1), False)]
            for n in range(depth):
                next_level = []
                for cur, f, dead in level:
                    kids = {a: cur.advance(a) for a in order}
                    f0, f1, d0, d1 = martingale_children(f, dead, n)
                    for a, (g, g_dead) in enumerate(((f0, d0), (f1, d1))):
                        for kid in (kids[a], cur.advance(a)):
                            assert kid.value == g / 2 ** (n + 1)
                            assert kid.state_key() == (g * 2 ** (n + 3), g_dead)
                        next_level.append((kids[a], g, g_dead))
                level = next_level
            assert len(calls) == 2**depth - 1


class TestSampling:
    def test_deterministic_path(self):
        model = DeterministicModel((), (1,))
        assert sample_sequence(model, 4, seed=0) == (1, 1, 1, 1)

    def test_point_mass(self):
        assert sample_sequence(IidModel((F(1), F(0))), 3, seed=5) == (0, 0, 0)

    def test_reproducible(self):
        model = IidModel((F(1, 3), F(2, 3)))
        a = sample_sequence(model, 200, seed=9)
        b = sample_sequence(model, 200, seed=9)
        assert a == b
        assert a != sample_sequence(model, 200, seed=10)

    def test_rejects_semimeasure(self):
        leaky = LeakySemimeasure(IidModel((F(1, 2), F(1, 2))), F(1, 8))
        with pytest.raises(SamplingError):
            sample_sequence(leaky, 3, seed=0)

    @pytest.mark.parametrize("horizon", [1, 20])
    def test_strict_true_model_refused_before_any_draw(self, horizon):
        # Refused before the first draw, so the outcome cannot depend on
        # whether a drawn path happens to avoid the missing mass.
        half = (F(1, 2), F(1, 2))
        leaky = LeakySemimeasure(IidModel(half), F(1, 8))
        cls = WeightedClass([leaky, IidModel(half)], [F(1, 2), F(1, 2)], true_index=0)
        with pytest.raises(SamplingError):
            sample_path(leaky, horizon, derived_rng(0, 0))
        with pytest.raises(SamplingError):
            monte_carlo_distances(cls, "rho", horizon, samples=4, seed=0)
        with pytest.raises(SamplingError):
            monte_carlo_stabilization(cls, horizon, samples=4, window=0, seed=0)

    def test_massless_and_short_measures_refused(self):
        class Massless(Semimeasure):  # declared a measure, yet nu(empty) = 0
            alphabet = BINARY
            is_proper_measure = True

            def evaluate_exact(self, x):
                return F(0)

        assert sample_path(Massless(), 0, derived_rng(0, 0)) == ()
        with pytest.raises(SamplingError, match="zero-probability prefix"):
            sample_path(Massless(), 1, derived_rng(0, 0))
        short = EvaluateOnly(LeakySemimeasure(IidModel((F(1, 2), F(1, 2))), F(1, 4)))
        short.is_proper_measure = True  # its conditionals sum to 3/4
        with pytest.raises(SamplingError, match="sum to less than 1"):
            sample_path(short, 40, derived_rng(0, 0))

    def test_fair_coin_frequency_30_seeds(self):
        # Binomial concentration: 6+ sigma event per seed at n = 1e5.
        model = IidModel((F(1, 2), F(1, 2)))
        n = 100_000
        for seed in range(30):
            path = sample_path(model, n, derived_rng(seed, 0))
            freq = sum(path) / n
            assert abs(freq - 0.5) < 0.01, (seed, freq)


class TestDrawsReadLaws:
    """``sample_path`` draws through ``step_conditionals``: a factorizable
    truth reads its step laws, and every word is the oracle's draw."""

    @staticmethod
    def truths():
        mu, nu = make_example4_pair()
        table = FactorizableModel.from_steps(
            BINARY, [(F(1, 4), F(3, 4)), (F(1), F(0)), (F(2, 3), F(1, 3))], (F(1, 3), F(2, 3))
        )
        ternary = FactorizableModel.from_steps(
            Alphabet(3), [(F(0), F(1, 2), F(1, 2))], (F(1, 6), F(1, 3), F(1, 2))
        )
        return [table, ternary, DeterministicModel((0, 1), (1, 1, 0)), DeterministicModel((), (1,)), mu, nu]

    def test_factorizable_truths_advance_no_cursor(self, monkeypatch):
        advances = Counter()
        advance = measures._FactorizableCursor.advance

        def counted(cursor, a):
            advances.update(("advance",))
            return advance(cursor, a)

        monkeypatch.setattr(measures._FactorizableCursor, "advance", counted)
        for model in self.truths():
            for seed in range(3):
                assert len(sample_path(model, 40, derived_rng(seed, 0))) == 40
        assert advances == Counter()
        self.truths()[0].cursor().advance(1)
        assert advances == Counter(advance=1)  # the counter sees a cursor step

    def test_words_equal_the_oracle_draws(self):
        truths = self.truths() + [
            IidModel((F(1), F(0))),
            IidModel((F(1, 6), F(0), F(5, 6))),
            OscillatingMartingaleMeasure(),
            EvaluateOnly(self.truths()[0]),
            EvaluateOnly(OscillatingMartingaleMeasure()),
        ]
        for model in truths:
            for seed in range(10):
                for n in (0, 1, 2, 7, 40):
                    want = oracle.draw_path(model, n, derived_rng(seed, n))
                    assert sample_path(model, n, derived_rng(seed, n)) == want, (model, seed, n)


def test_only_measures_tests_model_types():
    # How a member takes its next step is decided in measures alone: no other
    # module tests an object against a semimeasure or cursor class, with
    # isinstance, issubclass or type(...) is.
    guarded = {
        name
        for name, obj in vars(measures).items()
        if isinstance(obj, type) and issubclass(obj, (Semimeasure, measures.SemimeasureCursor))
    }
    assert {"IidModel", "FactorizableModel", "LeakySemimeasure", "DyadicCursor"} <= guarded
    found = []
    for path in sorted(Path(measures.__file__).parent.glob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            tested = []
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "isinstance",
                "issubclass",
            ):
                tested = node.args[1:]
            elif (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "type"
            ):
                tested = node.comparators
            for sub in (sub for target in tested for sub in ast.walk(target)):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in guarded:
                    found.append((path.name, node.lineno, name))
    assert not found, found


def test_library_imports_no_threads():
    # Sampled paths run in the calling thread; no module of the package
    # imports an executor or a thread API.
    found = []
    for path in sorted(Path(measures.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("concurrent", "threading", "_thread"):
                    found.append((path.name, node.lineno, name))
    assert not found, found


class TestNamedConstructions:
    def test_example3_tie(self):
        lam, nu, w_lam, w_nu = example3_pair()
        assert w_lam * lam.evaluate("1") == w_nu * nu.evaluate("1") == F(1, 3)
        assert nu.evaluate("01") == 0
        assert lam.evaluate("11") == F(1, 4)

    def test_example4_closed_forms(self):
        mu, nu = make_example4_pair()
        assert mu.step_distribution(1)[1] == F(3, 4)
        assert nu.step_distribution(2)[1] == F(7, 8)
        assert nu.step_distribution(1)[1] == F(1, 2)
        assert mu.step_prob_infimum is None and nu.step_prob_infimum is None

    def test_example4_ratio_oscillates(self):
        mu, nu = make_example4_pair()
        ratio, r = [], F(1)
        for i in range(1, 41):
            r *= nu.step_distribution(i)[1] / mu.step_distribution(i)[1]
            ratio.append(r)
        increments = [b - a for a, b in zip(ratio, ratio[1:])]
        signs = [1 if d > 0 else -1 for d in increments if d != 0]
        changes = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        assert changes >= 5

    def test_example5_weights(self):
        lam, nu, w_lam, w_nu = example5_pair()
        assert (w_lam, w_nu) == (F(3, 7), F(4, 7))
        assert nu.evaluate(()) == 1

    def test_alphabet_helpers(self):
        alpha = Alphabet(3)
        assert alpha.word("201") == (2, 0, 1)
        assert alpha.format((2, 0, 1)) == "201"
        with pytest.raises(ValueError):
            Alphabet(1)


# ----------------------------------------------------------------------
# Point queries on integers against the oracle's Fraction formulas
# ----------------------------------------------------------------------


class TestIntegerPointQueries:
    def test_exact_ratio_matches_cursor_values(self):
        for model, nu, _ in reference_zoo():
            for x in all_words(REFERENCE_DEPTH - 1):
                num, den = model.exact_ratio(x)
                assert type(num) is int and type(den) is int and num >= 0 and den > 0
                assert F(num, den) == model.evaluate_exact(x) == nu(x), (model, x)
                assert num or den == 1, (model, x)  # a zero value is (0, 1)

    def test_iid_models_refuse_symbols_outside_the_alphabet(self):
        # A symbol no per-symbol count sees must not drop out of the product.
        iid = IidModel((F(1, 3), F(2, 3)))
        for model in (iid, LeakySemimeasure(iid, F(1, 2))):
            for x in ((0, 2), (1, 1, -1)):
                with pytest.raises(AlphabetMismatchError, match="outside alphabet of size 2"):
                    model.exact_ratio(x)

    def test_every_family_refuses_symbols_outside_the_alphabet(self):
        # Every family's own entries and every public entry taking a word.
        # (0, 2) leaves the deterministic target at its first symbol, so its
        # cursor is dead (value 0) when it meets 2; -1 must not read as the
        # last symbol of a step distribution.
        det = DeterministicModel((), (1, 0))
        steps = FactorizableModel.from_steps(BINARY, [(F(1, 4), F(3, 4))], (F(1, 2), F(1, 2)))
        families = (
            IidModel((F(1, 3), F(2, 3))),
            det,
            steps,
            make_example4_pair()[0],
            OscillatingMartingaleMeasure(),
            LeakySemimeasure(det, F(1, 8)),
            LeakySemimeasure(steps, F(1, 8)),
        )
        entry_points = (
            lambda model, x: model.exact_ratio(x),
            lambda model, x: model.evaluate_exact(x),
            lambda model, x: functools.reduce(lambda c, a: c.advance(a), x, model.cursor()),
        )
        cls = WeightedClass(families, [F(1, 8)] * len(families), true_index=0)
        public = (
            lambda x: map_estimator(cls, x),
            lambda x: two_part_value(cls, x),
            lambda x: two_part_value_at(cls, x, ()),
            lambda x: two_part_value_at(cls, (), x),
            lambda x: bayes_mixture(cls, x),
            lambda x: predict_bayes(cls, x),
            lambda x: predict_dynamic(cls, x),
            lambda x: predict_static(cls, x),
            lambda x: predict_hybrid(cls, x),
            lambda x: predict_true(cls, x),
            lambda x: map_trace(cls, x),
            lambda x: hybrid_value_series(cls, x, LARGEST_WEIGHT),
            lambda x: coding.encode(cls, 0, x),
            lambda x: coding.code_length_report(cls, x),
        )
        for x in ((0, 2), (1, -1), "01a"):
            for entry in public:
                with pytest.raises(AlphabetMismatchError):
                    entry(x)
            for model in families if isinstance(x, tuple) else ():
                for entry in entry_points:
                    with pytest.raises(AlphabetMismatchError, match="outside alphabet of size 2"):
                        entry(model, x)

    def test_queries_match_fraction_formulas(self):
        # Every word shorter than 8, every tie-break: each member's
        # exact_ratio, cursor and evaluate_exact agree, and index, value,
        # tie set, rho, rho^y and xi equal the oracle's formulas exactly;
        # the truncated classes refuse at the same words.
        fixed = (1, 0, 1, 1, 0, 0, 1)
        refusals = zero_members = zero_mixtures = 0
        for cls in oracle.differential_classes():
            cursors = {(): [m.cursor() for m in cls.models]}
            for x in all_words(7):
                if x:
                    cursors[x] = [c.advance(x[-1]) for c in cursors[x[:-1]]]
                for m, c in zip(cls.models, cursors[x]):
                    assert F(*m.exact_ratio(x)) == c.value == m.evaluate_exact(x), (m, x)
                row = oracle.weighted_row(cls, x)
                zero_members += row.count(0)
                assert bayes_mixture(cls, x) == sum(row)
                zero_mixtures += sum(row) == 0
                rho = outcome(lambda: oracle.map_choice(cls, x, LARGEST_WEIGHT)[1])
                assert outcome(lambda: two_part_value(cls, x)) == rho
                refusals += rho is IndeterminateTailError
                for tb in TIE_BREAKS:
                    want = outcome(lambda: oracle.map_choice(cls, x, tb))
                    got = outcome(lambda: map_estimator(cls, x, tb))
                    if want is not IndeterminateTailError:
                        got = (got.index, got.value, got.tie_set)
                    assert got == want, (cls.describe(), x, tb)
                    for y in (x, x[:-1], fixed):
                        got = outcome(lambda: two_part_value_at(cls, x, y, tb))
                        refused = want is IndeterminateTailError
                        assert got == (want if refused else oracle.weighted_row(cls, y)[want[0]])
        assert refusals and zero_members and zero_mixtures

    @staticmethod
    def _count_exact_ratio_calls(monkeypatch) -> Counter:
        """Count every family's ``exact_ratio`` calls, per family."""
        calls = Counter()
        for family in (
            Semimeasure,
            FactorizableModel,
            IidModel,
            DeterministicModel,
            LeakySemimeasure,
            OscillatingStepModel,
        ):
            original = family.__dict__["exact_ratio"]

            def counted(self, x, original=original, family=family):
                calls[family] += 1
                return original(self, x)

            monkeypatch.setattr(family, "exact_ratio", counted)
        return calls

    def test_one_row_memo_per_class(self, monkeypatch):
        # The class keeps only the row of its last word: after a query at
        # another word, a query at the first word makes the same calls as
        # the first time, while an immediate repeat reuses the row.
        calls = self._count_exact_ratio_calls(monkeypatch)
        cls = oracle.differential_classes()[0]
        word, other = (1, 0, 1, 1), (0, 1)
        queries = {
            "map_estimator": lambda x: map_estimator(cls, x),
            "two_part_value": lambda x: two_part_value(cls, x),
            "bayes_mixture": lambda x: bayes_mixture(cls, x),
            "two_part_value_at": lambda x: two_part_value_at(cls, x, x[:2]),
        }
        for name, query in queries.items():
            counts = []
            for x in ((), word, other, word, word):
                calls.clear()
                query(x)
                counts.append(dict(calls))
            _, first, _, again, repeated = counts
            assert again == first and sum(first.values()) >= len(cls), name
            # rho^y reads the row at its chooser, then evaluates its choice.
            assert sum(repeated.values()) == (name == "two_part_value_at"), name

    @staticmethod
    def _count_row_builds(monkeypatch) -> Counter:
        """Count the rows model_class builds, per word."""
        builds = Counter()
        original = model_class._build_scores

        def counted(cls, word):
            builds[word] += 1
            return original(cls, word)

        monkeypatch.setattr(model_class, "_build_scores", counted)
        return builds

    def test_lemma_rounds_build_three_rows_per_word(self, monkeypatch):
        # Criterion 03's call order at every word shorter than 8, two rounds
        # on one class.  Per word, the rows at x (three requests), x0 and x1
        # (two each) are built once each, and rho^y keeps its choice at the
        # chooser y: the row at y is built once in the first round and never
        # in the second, and it never evicts the row at x.
        cls = random_semimeasure_class(1, 1)
        y = (1, 0, 0, 1, 1, 0, 1, 0, 1)  # longer than every word the round asks for
        words = all_words(7)
        chosen_at_y = oracle.map_index(cls, y, LARGEST_WEIGHT)
        want = [oracle.weighted_row(cls, x)[chosen_at_y] for x in words]
        calls = self._count_exact_ratio_calls(monkeypatch)
        builds = self._count_row_builds(monkeypatch)
        rounds = []
        for _ in range(2):
            builds.clear()
            calls.clear()
            got = []
            for x in words:
                bayes_mixture(cls, x)
                two_part_value(cls, x)
                chosen = map_estimator(cls, x).index
                got.append(two_part_value_at(cls, y, x))
                for a in (0, 1):
                    bayes_mixture(cls, x + (a,))
                    two_part_value(cls, x + (a,))
                    cls.models[chosen].evaluate_exact(x + (a,))
            assert got == want
            rounds.append((builds.pop(y, 0), sum(builds.values()), sum(calls.values())))
        assert [chooser for chooser, _, _ in rounds] == [1, 0]
        assert rounds[0][1] == rounds[1][1] == 3 * len(words)
        calls.clear()
        model_class._build_scores(cls, y)
        assert rounds[0][2] - rounds[1][2] == sum(calls.values())  # the row at y, once

    def test_chooser_memo_keys_on_word_and_tie_break(self, monkeypatch):
        # rho^y keeps one choice: a repeat at an equal chooser under the same
        # tie-break builds no row, while another chooser or another
        # tie-break builds the chooser's row afresh, and every value is the
        # oracle's.  Example 3 ties at 111, where the tie-breaks choose
        # lambda or nu, and only lambda gives 01 a positive value.
        cls = model_class.example3_class()
        builds = self._count_row_builds(monkeypatch)
        x, y, other = (0, 1), (1, 1, 1), (0,)
        rr0, rr1 = model_class.round_robin(0), model_class.round_robin(1)
        calls = [
            (y, LARGEST_WEIGHT, 1),
            (y, LARGEST_WEIGHT, 0),
            (tuple(list(y)), LARGEST_WEIGHT, 0),  # equal, not the same object
            (y, rr0, 1),
            (y, rr0, 0),
            (y, rr1, 1),
            (other, rr1, 1),
            (y, rr1, 1),
        ]
        values = set()
        for chooser, tb, built in calls:
            builds.clear()
            want = oracle.weighted_row(cls, x)[oracle.map_index(cls, chooser, tb)]
            assert two_part_value_at(cls, chooser, x, tb) == want, (chooser, tb)
            assert sum(builds.values()) == built, (chooser, tb)
            values.add(want)
        assert len(values) == 2

    def test_open_tail_chooser_refuses_on_every_call(self, monkeypatch):
        # A chooser whose choice the unmaterialized tail could overturn is
        # refused on every call and never kept: the kept choice stays that
        # of the last chooser answered.
        cls = oracle.geometric_class()
        builds = self._count_row_builds(monkeypatch)
        x, y, open_tail = (1, 0), (1,), (1, 1, 1, 1)
        want = oracle.weighted_row(cls, x)[oracle.map_index(cls, y, LARGEST_WEIGHT)]
        assert want and two_part_value_at(cls, y, x) == want
        for _ in range(3):
            builds.clear()
            with pytest.raises(IndeterminateTailError):
                two_part_value_at(cls, open_tail, x)
            assert sum(builds.values()) == 1
        builds.clear()
        assert two_part_value_at(cls, y, x) == want
        assert sum(builds.values()) == 0

    def test_invalid_words_are_never_kept(self):
        # A word that fails validation is refused on every call, also right
        # after a query at a valid word that it compares equal to: only a
        # validated word is kept, and only the kept object itself skips
        # validation.
        class EqualToAll:
            def __eq__(self, other):
                return True

        cls = oracle.differential_classes()[0]
        kept = (0, 1)
        equal = (0, EqualToAll())
        assert equal == kept
        queries = (
            map_estimator,
            two_part_value,
            bayes_mixture,
            lambda c, x: two_part_value_at(c, x, kept),
            lambda c, x: two_part_value_at(c, kept, x),
            predict_bayes,
            predict_dynamic,
            predict_static,
            predict_hybrid,
        )
        for query in queries:
            for bad in ((0, 2), (0, -1), equal):
                map_estimator(cls, kept)
                query(cls, kept)
                for _ in range(2):
                    with pytest.raises(AlphabetMismatchError):
                        query(cls, bad)

    def test_threads_see_only_their_own_row(self):
        # Four threads query one class, three words and rho^y choosers
        # between them (the fourth thread shares the first one's objects),
        # so the memos' words alternate.  Each word compares slowly, so
        # threads switch between a memo's word check and what it keeps;
        # every reader must still get its own word's row and its own
        # chooser's choice.
        class SlowWord(tuple):
            __hash__ = tuple.__hash__

            def __eq__(self, other):
                time.sleep(0.0002)
                return tuple.__eq__(self, other)

            def __ne__(self, other):
                return not self == other

        cls = oracle.differential_classes()[1]
        words = [SlowWord(w) for w in ((0, 1, 1), (1, 1, 0, 1), (1,))]
        choosers = [SlowWord(y) for y in ((), (1,), (1, 0, 1, 1))]
        chosen = [oracle.map_index(cls, y, LARGEST_WEIGHT) for y in choosers]
        want = {w: list(oracle.weighted_row(cls, tuple(w))) for w in words}
        assert len({tuple(row) for row in want.values()}) == len(words)
        for row in want.values():  # each chooser gives each word its own value
            assert len({row[i] for i in chosen}) == len(chosen)
        start = threading.Barrier(4)
        wrong, done = [], []

        def reader(k):
            start.wait(timeout=30)
            word, chooser, index = words[k % 3], choosers[k % 3], chosen[k % 3]
            for n in range(60):
                scores, den = class_scores(cls, word)
                if [F(s, den) for s in scores] != want[word]:
                    wrong.append((k, n, tuple(word)))
                if two_part_value_at(cls, chooser, word) != want[word][index]:
                    wrong.append((k, n, tuple(chooser)))
            done.append(k)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and wrong == []

    def test_warm_point_queries_read_no_fraction_parts(self, monkeypatch):
        # On a class of table, i.i.d., deterministic and leaky members with
        # no tail, at words with no tie, a warmed query reads laws, keeps and
        # weights as integers: no Fraction numerator or denominator is read.
        half = (F(1, 2), F(1, 2))
        table = FactorizableModel.from_steps(BINARY, [(F(1, 4), F(3, 4)), (F(1), F(0))], half)
        third = IidModel((F(1, 3), F(2, 3)))
        det = DeterministicModel((1,), (0, 1))
        cls = WeightedClass(
            [third, table, det, LeakySemimeasure(third, F(1, 5)),
             LeakySemimeasure(table, F(1, 7)), LeakySemimeasure(det, F(1, 3))],
            [F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13), F(1, 17)],
        )
        warm, x, mixed, chooser = (0, 1), (1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 1, 0)
        for word in (warm, x, mixed, chooser):
            assert len(oracle.map_choice(cls, word, LARGEST_WEIGHT)[2]) == 1, word
        index, value, _ = oracle.map_choice(cls, x, LARGEST_WEIGHT)
        want = [(index, value), sum(oracle.weighted_row(cls, mixed))]
        want.append(oracle.weighted_row(cls, x)[oracle.map_choice(cls, chooser, LARGEST_WEIGHT)[0]])
        queries = (
            lambda: map_estimator(cls, x),
            lambda: bayes_mixture(cls, mixed),
            lambda: two_part_value_at(cls, chooser, x),
        )
        map_estimator(cls, warm), bayes_mixture(cls, warm), two_part_value_at(cls, warm, warm)
        calls = self._count_exact_ratio_calls(monkeypatch)
        reads = Counter()
        for name in ("numerator", "denominator"):
            read = F.__dict__[name].fget
            monkeypatch.setattr(
                F, name, property(lambda f, read=read, name=name: reads.update((name,)) or read(f))
            )
        got = [query() for query in queries]
        monkeypatch.undo()
        assert reads == Counter()
        assert sum(calls.values()) >= 3 * len(cls)  # every row was built afresh
        assert [(got[0].index, got[0].value), *got[1:]] == want

    def test_integer_laws_equal_the_fraction_laws(self):
        # Each integer law a zoo member keeps is its Fraction law exactly,
        # over the denominator the draws use; likewise keeps and weights.
        checked = 0
        for model, _, step in reference_zoo():
            base = model
            if isinstance(model, LeakySemimeasure):
                keep_num, keep_den = model._keep_ratio
                assert type(keep_num) is int and type(keep_den) is int
                assert F(keep_num, keep_den) == model.keep
                base = model.base
                checked += 1
            if type(base) is IidModel:
                laws = [base._law] * REFERENCE_DEPTH
            elif type(base) is FactorizableModel:
                laws = [*base._step_laws, *[base._tail_law] * REFERENCE_DEPTH]
            else:
                continue
            checked += 1
            for i, (nums, den) in enumerate(laws[: REFERENCE_DEPTH - 1], start=1):
                dist = base.step_distribution(i)
                assert all(type(n) is int for n in (*nums, den)), (model, i)
                assert tuple(F(n, den) for n in nums) == dist, (model, i)
                if step is not None:
                    assert dist == step(i), (model, i)
                assert (list(nums), den) == measures.step_multipliers(dist), (model, i)
        assert checked == 7  # five laws (one under a leaky wrapper) and two keeps
        for cls in oracle.differential_classes():
            assert tuple(F(n, d) for n, d in cls._weight_ratios) == cls.weights

    def test_laws_and_weights_are_checked_on_integers(self):
        # A law must have one entry per symbol, none negative, summing to 1;
        # a weight must be positive.
        half = (F(1, 2), F(1, 2))
        for bad, message in (
            ((F(1, 3), F(1, 3)), "sum to exactly 1"),
            ((F(3, 2), F(-1, 2)), "nonnegative"),
        ):
            with pytest.raises(ValueError, match=message):
                IidModel(bad)
        for law in ((F(1, 2), F(1, 3)), (F(3, 2), F(-1, 2)), (F(1),), (F(1, 2), F(1, 4), F(1, 4))):
            with pytest.raises(ValueError, match="invalid per-step distribution"):
                FactorizableModel.from_steps(BINARY, [half, law], half)
            with pytest.raises(ValueError, match="invalid per-step distribution"):
                FactorizableModel.from_steps(BINARY, [half], law)
        for weights in ((F(1, 2), F(0)), (F(-1, 4), F(1, 2))):
            with pytest.raises(ValueError, match="strictly positive"):
                WeightedClass([IidModel(half)] * 2, weights)
