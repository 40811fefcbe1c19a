import ast
import itertools
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdl_lab.errors import AllZeroError, IndeterminateTailError, ZeroHistoryError
from mdl_lab import measures
from mdl_lab.measures import Alphabet, IidModel, derived_rng, sample_path
from mdl_lab.metrics import monte_carlo_rows, walk_support
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    EvalStats,
    WeightedClass,
    bernoulli_class,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
    round_robin,
)
from mdl_lab.predictors import (
    ALL_KINDS,
    HYBRID,
    RHO,
    STATIC,
    TRUE,
    XI,
    PredictionNode,
    PredictiveDistribution,
    _node_at,
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
from oracle import (
    CURSOR_KINDS,
    TIE_BREAKS,
    EvaluateOnly,
    all_words,
    leaky_semimeasure_classes,
    outcome,
    truncated_classes,
    zero_history_class,
)


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
        # N_rho(x) is the product of sum_a rho(x_<t a) / rho(x_<t), exactly.
        for case in range(20):
            rng = suite_rng(21, case)
            cls = random_measure_class(21, case)
            x = random_word(rng, cls.alphabet, 5)
            try:
                product = normalizer_product(cls, x)
            except ZeroHistoryError:
                continue
            want = F(1)
            for t in range(len(x) + 1):
                rho = [max(oracle.weighted_row(cls, x[:t] + (a,))) for a in (0, 1)]
                want *= sum(rho) / max(oracle.weighted_row(cls, x[:t]))
            assert product == want


class TestSemimeasureDifferenceLemma:
    def test_mixture_minus_two_part_is_semimeasure(self):
        # xi - rho keeps the semimeasure inequality, in both variants,
        # on random classes including leaky members.
        from mdl_lab.model_class import map_estimator, two_part_value

        for case in range(8):
            cls = random_semimeasure_class(31, case)
            for x in all_words(5):
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
            for x in all_words(5):
                rho_x = two_part_value(cls, x)
                total = sum(
                    (two_part_value(cls, tuple(x) + (a,)) for a in (0, 1)), F(0)
                )
                assert total >= rho_x

    def test_dominance(self):
        for case in range(8):
            cls = random_semimeasure_class(33, case)
            for x in all_words(5):
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
# Prediction nodes and the predict_* readers against the oracle
# ----------------------------------------------------------------------

FACADE = {
    XI: lambda cls, x, tb, stats: predict_bayes(cls, x),
    RHO: predict_dynamic,
    STATIC: predict_static,
    HYBRID: predict_hybrid,
}


def _row(node, a=None):
    """The node's score row at prefix (+ a) as the Fractions w_i * nu_i."""
    scores, den = node.scores(a)
    return tuple(F(s, den) for s in scores)


def _assert_matches_oracle(cls, words):
    """Every node row, choice and prediction kind, and every predict_* reader
    with its search count, equal the oracle at each word and tie-break.

    A reader searches at x (static), at x and every child (dynamic,
    hybrid) or nowhere (xi), and refuses where the oracle's MAP choice
    refuses at a searched word.  Returns the kinds answered and the error
    types raised.
    """
    seen = set()
    k = cls.alphabet.size
    searches = {XI: 0, RHO: 1 + k, STATIC: 1, HYBRID: 1 + k}
    for x in words:
        live = cls.true_index is not None and cls.true_model.evaluate_exact(x) != 0
        around = [x] + [x + (a,) for a in cls.alphabet.symbols()]
        for tb in TIE_BREAKS:
            node = _node_at(cls, x, tb)
            for a, xa in zip((None, *cls.alphabet.symbols()), around):
                assert _row(node, a) == oracle.weighted_row(cls, xa), (cls.describe(), xa)
                assert node.choice(a) == oracle.map_index(cls, xa, tb), (cls.describe(), xa, tb)
            refused = [
                outcome(lambda: oracle.map_choice(cls, y, tb)) is IndeterminateTailError
                for y in around
            ]
            for kind in ALL_KINDS:
                if kind == TRUE and not live:
                    continue  # walks and paths visit positive true mass only
                want = outcome(lambda: oracle.prediction(kind, cls, x, tb))
                assert outcome(lambda: node.prediction(kind)) == want, (cls.describe(), x, tb, kind)
                seen.add(want if isinstance(want, type) else kind)
                if kind in FACADE:
                    stats = EvalStats()
                    got = outcome(lambda: tuple(FACADE[kind](cls, x, tb, stats).values))
                    if any(refused[: searches[kind]]):
                        want = IndeterminateTailError
                    assert got == (want if isinstance(want, type) else tuple(want)), (
                        cls.describe(), x, tb, kind,
                    )
                    if isinstance(got, tuple):
                        assert stats.map_searches == searches[kind]
                    else:
                        seen.add(got)
    return seen


class TestFacadeDifferential:
    def test_random_measure_classes(self):
        for case in range(12):
            _assert_matches_oracle(random_measure_class(41, case), all_words(5))

    def test_random_semimeasure_classes(self):
        for case in range(12):
            _assert_matches_oracle(random_semimeasure_class(42, case), all_words(5))

    def test_named_classes(self):
        for cls in (example1_class(4), example3_class()):
            _assert_matches_oracle(cls, all_words(5))


class TestNodeOracle:
    def classes(self):
        for case in range(6):
            yield random_measure_class(44, case)
            yield random_semimeasure_class(45, case)
        yield random_measure_class(46, 0, alphabet=Alphabet(3))
        yield example5_class()
        yield zero_history_class()

    def test_every_kind_matches_the_oracle(self):
        seen = set()
        for cls in self.classes():
            k = cls.alphabet.size
            seen |= _assert_matches_oracle(cls, all_words(5 if k == 2 else 3, k))
        assert seen == set(ALL_KINDS) | {ZeroHistoryError, AllZeroError}

    def test_rows_and_choices_match_the_oracle(self):
        cls = example3_class()
        for x in all_words(4):
            for tb in TIE_BREAKS:
                node = _node_at(cls, x, tb)
                assert _row(node) == oracle.weighted_row(cls, x)
                assert node.choice() == oracle.map_index(cls, x, tb)
                for a in (0, 1):
                    assert _row(node, a) == oracle.weighted_row(cls, x + (a,))
                    assert node.choice(a) == oracle.map_index(cls, x + (a,), tb)


class TestOnlineQueries:
    """``predict_*`` along a growing prefix step from the node the class kept."""

    @staticmethod
    def _count_advances(monkeypatch) -> Counter:
        advances = Counter()

        def counting(advance):
            def counted(cursor, a):
                advances["advance"] += 1
                return advance(cursor, a)

            return counted

        for kind in CURSOR_KINDS:
            monkeypatch.setattr(kind, "advance", counting(kind.advance))
        return advances

    def test_walks_match_the_oracle(self):
        # Each reader walks along 1^n, along seeded random words and through
        # every short word, kind by kind and interleaved, under every
        # tie-break, round robin with either phase: every answer and refusal
        # is the oracle's, and every call makes as many MAP searches as a
        # query from scratch.
        classes = [example3_class(), example1_class(4), example5_class()]
        classes += [random_measure_class(49, 0), random_semimeasure_class(49, 1)]
        classes += [random_measure_class(49, 2, alphabet=Alphabet(3))]
        for case, cls in enumerate(classes):
            k = cls.alphabet.size
            searches = {XI: 0, RHO: 1 + k, STATIC: 1, HYBRID: 1 + k}
            rng = suite_rng(49, case)
            paths = [(1,) * 10] + [random_word(rng, cls.alphabet, 10) for _ in range(3)]
            walks = [[path[:t] for t in range(len(path) + 1)] for path in paths]
            walks.append(all_words(3, k))  # siblings, and longer words that extend none
            for words, tb in itertools.product(walks, TIE_BREAKS + (round_robin(0),)):
                order = [(kind, x) for kind in FACADE for x in words]
                order += [(kind, x) for x in words for kind in FACADE]
                for kind, x in order:
                    want = outcome(lambda: oracle.prediction(kind, cls, x, tb))
                    stats = EvalStats()
                    got = outcome(lambda: tuple(FACADE[kind](cls, x, tb, stats).values))
                    answered = isinstance(got, tuple)
                    assert got == (tuple(want) if answered else want), (cls.describe(), x, tb, kind)
                    # a refused query has made its search at x, and none at xa
                    searched = searches[kind] if answered else min(searches[kind], 1)
                    assert stats.map_searches == searched

    def test_prefix_walks_advance_linearly(self, monkeypatch):
        # Along a growing prefix each query steps from the kept node, so
        # every member's cursor advances by each symbol once per prefix:
        # (n + 1) * |C| * k advances for n symbols, where a query from
        # scratch would also advance along the whole prefix.
        advances = self._count_advances(monkeypatch)
        cls = random_measure_class(49, 3, alphabet=Alphabet(3))
        classes = [
            (example3_class(), (1,) * 30),
            (example1_class(5), (1,) * 30),
            (cls, sample_path(cls.true_model, 30, suite_rng(49, 3))),
        ]
        for cls, path in classes:
            n, per_node = len(path), len(cls) * cls.alphabet.size
            advances.clear()
            for t in range(n + 1):
                for tb in (round_robin(1), round_robin(1)):
                    predict_dynamic(cls, path[:t], tb)
                    predict_hybrid(cls, path[:t], tb, EvalStats())
                    predict_static(cls, path[:t], tb)
            assert advances["advance"] == (n + 1) * per_node, cls.describe()
            fresh = WeightedClass(cls.models, cls.weights)
            advances.clear()
            normalizer_product(fresh, path)
            assert advances["advance"] == (n + 1) * per_node, cls.describe()

    def test_another_tie_break_or_class_misses(self, monkeypatch):
        # The kept node answers only its own class and tie-break: example 3
        # ties along 1^n, where hybrid follows the tie-break asked for, and
        # a miss builds from scratch.
        advances = self._count_advances(monkeypatch)
        cls, twin = example3_class(), example3_class()
        x = (1,) * 5
        node = _node_at(cls, x)
        assert _node_at(cls, x) is node and _node_at(cls, "11111") is node
        child = _node_at(cls, x + (1,))
        assert child.cursors is node.child_cursors[1]
        scratch = (len(x) + 1) * len(cls) + len(cls) * 2  # along x1, then the children
        rr0, rr1 = round_robin(0), round_robin(1)
        calls = [(LARGEST_WEIGHT, 0), (rr0, scratch), (rr1, scratch)]
        calls += [(LARGEST_WEIGHT, scratch), (LARGEST_WEIGHT, 0), (rr0, scratch)]
        for tb, built in calls:
            advances.clear()
            want = tuple(oracle.prediction(HYBRID, cls, x + (1,), tb))
            assert predict_hybrid(cls, x + (1,), tb).values == want, tb
            assert advances["advance"] == built, tb
        assert len({tuple(oracle.prediction(HYBRID, cls, x + (1,), tb)) for tb, _ in calls}) > 1
        want = predict_dynamic(cls, x + (1,)).values
        advances.clear()
        assert predict_dynamic(twin, x + (1,)).values == want
        assert advances["advance"] == scratch


def _assert_node_matches_oracle(node):
    """The node's rows, choices and every kind equal the oracle at its prefix."""
    cls, x, tb = node.cls, node.prefix, node.tie_break
    for a in (None, *cls.alphabet.symbols()):
        xa = x if a is None else x + (a,)
        assert _row(node, a) == oracle.weighted_row(cls, xa), (cls.describe(), xa)
        assert node.choice(a) == oracle.map_index(cls, xa, tb), (cls.describe(), xa, tb)
    for kind in ALL_KINDS:
        want = outcome(lambda: oracle.prediction(kind, cls, x, tb))
        assert outcome(lambda: node.prediction(kind)) == want, (cls.describe(), x, tb, kind)


class TestSampledPathDifferential:
    def test_stepped_nodes_match_the_oracle_and_fresh_nodes(self):
        # Nodes stepped from their parents along seeded paths -- past
        # leaky, dying, dyadic and evaluate-only members -- equal the
        # oracle and a fresh node built from the same cursors, and the
        # path is the oracle's draw from the true conditionals.
        horizon, samples, seed = 9, 3, 61
        classes = oracle.sampled_path_classes() + leaky_semimeasure_classes(62, 2)
        for cls in classes:
            for tb in TIE_BREAKS:

                def row(node, mu_cond):
                    _assert_node_matches_oracle(node)
                    fresh = PredictionNode(cls, tb, node.prefix, node.cursors, node.weight)
                    for a in (None, *cls.alphabet.symbols()):
                        assert _row(fresh, a) == _row(node, a)
                        assert fresh.choice(a) == node.choice(a)
                    for kind in ALL_KINDS:
                        want = outcome(lambda: fresh.prediction(kind))
                        assert outcome(lambda: node.prediction(kind)) == want
                    assert node.weight == cls.true_model.evaluate_exact(node.prefix)
                    assert mu_cond == node.true_conditionals()
                    return node.prefix

                paths = monte_carlo_rows(cls, horizon, samples, seed, row, tb)
                for i, prefixes in enumerate(paths):
                    drawn = oracle.draw_path(cls.true_model, horizon - 1, derived_rng(seed, i))
                    assert prefixes == [drawn[:t] for t in range(horizon)], (cls.describe(), i)


class TestTailRefusal:
    def test_predictors_refuse_where_map_estimator_refuses(self):
        seen = set()
        for cls in truncated_classes(43, 6):
            seen |= _assert_matches_oracle(cls, all_words(5))
        assert IndeterminateTailError in seen


def test_oracle_reads_no_engine():
    # An engine entry point the oracle imported or read as an attribute
    # would make it check an engine against itself; predict_* count too.
    engines = {
        "class_scores", "map_estimator", "two_part_value", "two_part_value_at",
        "bayes_mixture", "PredictionNode", "map_trace", "walk_support",
        "cumulative_distances", "check_bounds", "check_tail", "select", "choose", "*",
    }
    read = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {name for alias in node.names for name in alias.name.split(".")}
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert not {n for n in read if n in engines or n.startswith("predict_")}, read


class _Counted(F):
    """A model value that counts the quotients formed with it."""

    quotients = 0

    def __truediv__(self, other):
        _Counted.quotients += 1
        return F(self) / F(other)


class _CountedModel(EvaluateOnly):
    """An evaluate-only member whose values are counted."""

    def evaluate_exact(self, x):
        return _Counted(super().evaluate_exact(x))


def _counted(cls):
    return WeightedClass(
        [_CountedModel(m) for m in cls.models], cls.weights, true_index=cls.true_index
    )


def _read_everything(node, mu_cond):
    """Every kind and every row of a node, twice."""
    for _ in range(2):
        for kind in ALL_KINDS:
            outcome(lambda: node.prediction(kind))
        for a in (None, *node.cls.alphabet.symbols()):
            node.scores(a)


class TestNodeWork:
    def test_all_kinds_form_each_weighted_product_once(self, monkeypatch):
        # Along a sampled path whose nodes read every kind and row twice,
        # each prefix's score row -- its products w_i * nu_i -- is built
        # once (a child node takes the row its parent stepped), and each
        # cursor is advanced at most once per symbol.
        builds, advances = Counter(), Counter()
        build = PredictionNode._build_row

        def counted_build(node, a):
            builds[node.prefix if a is None else node.prefix + (a,)] += 1
            return build(node, a)

        def counting(advance):
            def counted(cursor, a):
                advances[cursor, a] += 1  # the key keeps the cursor, so no id is reused
                return advance(cursor, a)

            return counted

        monkeypatch.setattr(PredictionNode, "_build_row", counted_build)
        for kind in CURSOR_KINDS:
            monkeypatch.setattr(kind, "advance", counting(kind.advance))
        classes = [random_measure_class(47, 0), example3_class(), zero_history_class()]
        classes += [example5_class(), oracle.sampled_path_classes()[0]]
        classes += leaky_semimeasure_classes(47, 2)
        for cls in classes:
            for seed in range(3):
                builds.clear()
                advances.clear()
                monte_carlo_rows(cls, 8, 1, seed, _read_everything)
                assert len(builds) > 8 and max(builds.values()) == 1, (cls.describe(), builds)
                assert max(advances.values()) == 1, cls.describe()

    def test_sampled_paths_reduce_no_cursor_value(self, monkeypatch):
        # On factorizable classes, leaky wrappers included, nodes and draws
        # step on factors: only the root cursors' values are ever read.
        depths = []
        pairs = ((measures._FactorizableCursor, "_step"), (measures._LeakyCursor, "_depth"))
        for kind, depth in pairs:
            value = kind.value

            def counted(cursor, value=value, depth=depth):
                depths.append(getattr(cursor, depth))
                return value.fget(cursor)

            monkeypatch.setattr(kind, "value", property(counted))
        classes = [random_measure_class(48, case) for case in range(4)]
        classes += [example3_class(), example4_class()] + leaky_semimeasure_classes(48, 3)
        for cls in classes:
            assert all(
                m.is_factorizable or m.base.is_factorizable for m in cls.models
            ), cls.describe()
            for tb in TIE_BREAKS:
                monte_carlo_rows(cls, 12, 2, 5, _read_everything, tb)
            sample_path(cls.true_model, 12, derived_rng(5, 0))
        assert set(depths) == {0}

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
