import functools
import itertools
import pickle
from collections import Counter
from fractions import Fraction as F

import pytest

from mdl_lab import measures
from mdl_lab.errors import AlphabetMismatchError, IndeterminateTailError, SamplingError
from mdl_lab.measures import (
    BINARY,
    Alphabet,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    Semimeasure,
    check_semimeasure,
    derived_rng,
    example3_pair,
    example5_pair,
    make_example4_pair,
    sample_path,
    sample_sequence,
)
from mdl_lab.metrics import monte_carlo_distances, monte_carlo_rows, walk_support
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    LOWEST_INDEX,
    WeightedClass,
    check_tail,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
    map_estimator,
    round_robin,
    two_part_value,
    two_part_value_at,
)
from mdl_lab.predictors import bayes_mixture
from mdl_lab.stabilization import monte_carlo_stabilization


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
    """Alphabet.word as first written: an all-int scan, then a range scan."""
    if isinstance(x, tuple) and all(isinstance(s, int) for s in x):
        w = x
    elif isinstance(x, str):
        w = tuple(int(c) for c in x)
    else:
        w = tuple(int(s) for s in x)
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


REFERENCE_DEPTH = 9  # every word shorter than this is checked


def _iid_reference(theta):
    def nu(x):
        out = F(1)
        for a, p in enumerate(theta):
            out *= p ** x.count(a)
        return out

    return nu, lambda i: theta


def _deterministic_reference(preperiod, period):
    target = (preperiod + period * REFERENCE_DEPTH)[:REFERENCE_DEPTH]

    def step(i):
        return tuple(F(int(a == target[i - 1])) for a in (0, 1))

    return (lambda x: F(int(x == target[: len(x)]))), step


def _product_reference(step):
    def nu(x):
        out = F(1)
        for i, s in enumerate(x, start=1):
            out *= step(i)[s]
        return out

    return nu, step


def _table_reference(steps, tail):
    return _product_reference(lambda i: steps[i - 1] if i <= len(steps) else tail)


def _example4_reference(offset):
    # mu_i(1) = 1 - 2^(-2*ceil(i/2)) (offset 0), nu_i(1) = 1 - 2^(1-2*ceil((i+1)/2)).
    def step(i):
        p0 = F(1, 2 ** (2 * ((i + offset + 1) // 2) - offset))
        return (p0, 1 - p0)

    return _product_reference(step)


def _martingale_reference(x):
    f, dead = F(1), False
    for n, a in enumerate(x):
        f0, f1, d0, d1 = _fraction_children(f, dead, n)
        f, dead = (f0, d0) if a == 0 else (f1, d1)
    return f / 2 ** len(x)


def reference_zoo():
    """(model, nu, step) with nu and per-step law computed independently.

    ``step`` is None for a model that is not factorizable.
    """
    half, third = (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))
    table = [(F(1, 4), F(3, 4)), (F(1), F(0))]
    leaky_nu, _ = _iid_reference(half)
    mu, nu = make_example4_pair()
    return [
        (IidModel(half), *_iid_reference(half)),
        (IidModel(third), *_iid_reference(third)),
        (IidModel((F(1), F(0))), *_iid_reference((F(1), F(0)))),
        (DeterministicModel((1,), (0,)), *_deterministic_reference((1,), (0,))),
        (DeterministicModel((), (1,)), *_deterministic_reference((), (1,))),
        (DeterministicModel((0, 0), (1, 0, 1)), *_deterministic_reference((0, 0), (1, 0, 1))),
        (FactorizableModel.from_steps(BINARY, table, half), *_table_reference(table, half)),
        (mu, *_example4_reference(0)),
        (nu, *_example4_reference(1)),
        (OscillatingMartingaleMeasure(), _martingale_reference, None),
        (
            LeakySemimeasure(IidModel(half), F(1, 4)),
            lambda x: leaky_nu(x) * F(3, 4) ** len(x),
            None,
        ),
        (
            LeakySemimeasure(OscillatingMartingaleMeasure(), F(1, 3)),
            lambda x: _martingale_reference(x) * F(2, 3) ** len(x),
            None,
        ),
    ]


class TestCursors:
    def test_cursor_matches_evaluate(self):
        # Cursors, closed forms, conditionals and per-step laws against
        # formulas written here, on every word shorter than REFERENCE_DEPTH.
        for model, nu, step in reference_zoo():
            for i in range(1, REFERENCE_DEPTH + 1):
                assert model.step_distribution(i) == (None if step is None else step(i))
            stack = [((), model.cursor())]
            while stack:
                x, cur = stack.pop()
                assert cur.value == model.evaluate_exact(x) == nu(x), (model, x)
                for a in (0, 1):
                    xa = x + (a,)
                    assert cur.advance(a).value == nu(xa), (model, xa)
                    cond = nu(xa) / nu(x) if nu(x) else 0
                    assert model.conditional_exact(a, x) == cond, (model, xa)
                    if len(xa) < REFERENCE_DEPTH:
                        stack.append((xa, cur.advance(a)))

    def test_model_defining_neither_cursor_nor_evaluate_refuses(self):
        class Bare(Semimeasure):
            alphabet = BINARY

        for read in (lambda m: m.evaluate("01"), lambda m: m.cursor()):
            with pytest.raises(NotImplementedError, match=r"cursor\(\) or evaluate_exact\(\)"):
                read(Bare())


class _Counting(Semimeasure):
    """A member without a cursor of its own that counts evaluations per prefix."""

    def __init__(self, model):
        self.alphabet = model.alphabet
        self.is_proper_measure = model.is_proper_measure
        self._model = model
        self.calls = Counter()

    def evaluate_exact(self, x):
        self.calls[x] += 1
        return self._model.evaluate_exact(x)


class TestCursorProtocol:
    def test_each_prefix_evaluated_once(self):
        # Every caller reads a child's value from the cursor it steps to,
        # so no prefix is evaluated twice on one walk, path or check.
        def counted_class():
            truth = _Counting(IidModel((F(1, 3), F(2, 3))))
            other = _Counting(LeakySemimeasure(OscillatingMartingaleMeasure(), F(1, 4)))
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
        for model in (IidModel((F(1, 3), F(2, 3))), OscillatingMartingaleMeasure()):
            for seed in range(4):
                counted = _Counting(model)
                sample_path(counted, 12, derived_rng(seed, 0))
                assert most_calls(counted) == 1
            counted = _Counting(model)
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
            _Counting(OscillatingMartingaleMeasure()),
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
            zoo.append((model, _table_reference(dists[:-1], dists[-1])[0]))
        words = [w for n in range(8) for w in itertools.product((0, 1), repeat=n)]
        for model, nu in zoo:
            copy = pickle.loads(pickle.dumps(model))
            assert repr(copy) == repr(model)
            assert copy.step_prob_infimum == model.step_prob_infimum
            for x in words:
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
        for n in range(8):
            for bits in itertools.product((0, 1), repeat=n):
                f = m.f_value(bits)
                assert 2 * f == m.f_value(bits + (0,)) + m.f_value(bits + (1,))

    def test_figure_nodes(self):
        # 000 is the first dead string; every other length-<=3 node is alive.
        m = OscillatingMartingaleMeasure()
        assert m.is_dead("000")
        for n in range(4):
            for bits in itertools.product((0, 1), repeat=n):
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


def _fraction_children(f, dead, parent_len):
    """The martingale's child rule on Fractions, as first written."""
    n = parent_len + 1
    if dead:
        return f, f, True, True
    if f > F(3, 4):
        f0 = F(3, 4) - F(1, 2 ** (n + 2))
        f1 = 2 * f - f0
    else:
        f1 = F(3, 4) + F(1, 2 ** (n + 2))
        f0 = 2 * f - f1

    def dead_at(g):
        return g <= F(3, 4) and g < F(3, 8) + F(1, 2 ** (n + 4))

    return f0, f1, dead_at(f0), dead_at(f1)


def _fraction_dead_masses(depth):
    level = {(F(1), False): F(1)}
    masses = [F(0)]
    for length in range(1, depth + 1):
        nxt = {}
        for (f, dead), mass in level.items():
            f0, f1, d0, d1 = _fraction_children(f, dead, length - 1)
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
        f0, f1, _, _ = _fraction_children(f, dead, len(bits))
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
                f0, f1, d0, d1 = _fraction_children(f, dead, len(bits))
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
                f0, f1, d0, d1 = _fraction_children(f, dead, t)
                f, dead = (f0, d0) if a == 0 else (f1, d1)
                cur = cur.advance(a)
            self._check(m, path, cur, f, dead)
            if len(seen) == 2:
                return
        pytest.fail("no alive and dead 2000-step paths among 100 samples")

    def test_dead_masses_and_lumped_walk_unchanged(self):
        from mdl_lab.metrics import walk_support
        from mdl_lab.model_class import example5_class

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
                    f0, f1, d0, d1 = _fraction_children(f, dead, n)
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

    def test_fair_coin_frequency_30_seeds(self):
        # Binomial concentration: 6+ sigma event per seed at n = 1e5.
        model = IidModel((F(1, 2), F(1, 2)))
        n = 100_000
        for seed in range(30):
            path = sample_path(model, n, derived_rng(seed, 0))
            freq = sum(path) / n
            assert abs(freq - 0.5) < 0.01, (seed, freq)


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
# Point queries on integers against the Fraction formulas they replaced
# ----------------------------------------------------------------------

WORDS_BELOW_8 = [w for n in range(8) for w in itertools.product((0, 1), repeat=n)]
TIE_BREAKS = (LARGEST_WEIGHT, LOWEST_INDEX, round_robin(1))


def _cursor_values(cls):
    """{word: [nu(word) per member]} for every word shorter than 8, by cursor."""
    out = {}
    stack = [((), [m.cursor() for m in cls.models])]
    while stack:
        x, cursors = stack.pop()
        out[x] = [c.value for c in cursors]
        if len(x) < 7:
            for a in (0, 1):
                stack.append((x + (a,), [c.advance(a) for c in cursors]))
    return out


class _Refusal(tuple):
    """The message of an IndeterminateTailError, as a comparable outcome."""


def _refused(read):
    try:
        return read()
    except IndeterminateTailError as exc:
        return _Refusal((str(exc),))


def _old_map(cls, values, n, tie_break):
    """map_estimator as first written: w * nu(x) Fractions, max, tie set."""
    scored = [w * v for w, v in zip(cls.weights, values)]
    index, tie_set = tie_break.select(scored, cls.weights, n)
    check_tail(cls, scored[index])
    return index, scored[index], tie_set


def _differential_classes():
    zoo = [model for model, _, _ in reference_zoo()]
    bases = [m for m in zoo if not isinstance(m, LeakySemimeasure)]
    third = (F(1, 3), F(2, 3))
    evaluate_only = [_Counting(IidModel(third)), _Counting(OscillatingMartingaleMeasure())]
    geometric = [DeterministicModel((1,) * i, (0,)) for i in range(4)]
    return [
        WeightedClass(zoo, [F(1, len(zoo))] * len(zoo)),
        WeightedClass(zoo, [F(i + 1, 100) for i in range(len(zoo))]),
        WeightedClass(
            [LeakySemimeasure(m, F(1, 5)) for m in bases + evaluate_only],
            [F(1, len(bases) + 2)] * (len(bases) + 2),
        ),
        WeightedClass(
            evaluate_only + [LeakySemimeasure(evaluate_only[0], F(1, 3)), IidModel(third)],
            [F(1, 4), F(1, 8), F(1, 8), F(1, 2)],
        ),
        example1_class(4),
        example3_class(),
        example4_class(),
        example5_class(),
        WeightedClass(
            geometric,
            [F(1, 2 ** (i + 1)) for i in range(4)],
            tail_bound=F(1, 16),
            descending_weights=True,
        ),
        WeightedClass(
            [IidModel((F(1, 2), F(1, 2))), IidModel(third), geometric[1]],
            [F(1, 4), F(1, 4), F(1, 8)],
            tail_bound=F(1, 64),
        ),
    ]


class TestIntegerPointQueries:
    def test_exact_ratio_matches_cursor_values(self):
        for model, nu, _ in reference_zoo():
            for x in WORDS_BELOW_8:
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
        for model in families:
            for x in ((0, 2), (1, -1)):
                for entry in entry_points:
                    with pytest.raises(AlphabetMismatchError, match="outside alphabet of size 2"):
                        entry(model, x)

    def test_queries_match_fraction_formulas(self):
        # Every word shorter than 8, every tie-break: index, value, tie set,
        # rho, rho^y and xi equal the Fraction formulas exactly, and the
        # truncated classes refuse at the same words.
        fixed = (1, 0, 1, 1, 0, 0, 1)
        refusals = zero_members = zero_mixtures = 0
        for cls in _differential_classes():
            values = _cursor_values(cls)
            for x in WORDS_BELOW_8:
                for m, v in zip(cls.models, values[x]):
                    assert F(*m.exact_ratio(x)) == m.evaluate_exact(x) == v, (cls.describe(), x)
                zero_members += values[x].count(0)
                xi = sum((w * v for w, v in zip(cls.weights, values[x])), F(0))
                assert bayes_mixture(cls, x) == xi
                zero_mixtures += xi == 0
                rho = _refused(lambda: _old_map(cls, values[x], len(x), LARGEST_WEIGHT)[1])
                assert _refused(lambda: two_part_value(cls, x)) == rho
                refusals += isinstance(rho, _Refusal)
                for tb in TIE_BREAKS:
                    old = _refused(lambda: _old_map(cls, values[x], len(x), tb))
                    new = _refused(lambda: map_estimator(cls, x, tb))
                    if not isinstance(old, _Refusal):
                        new = (new.index, new.value, new.tie_set)
                        assert new[1] == max(w * v for w, v in zip(cls.weights, values[x]))
                    assert new == old, (cls.describe(), x, tb)
                    for y in (x, x[:-1], fixed):
                        expected = old
                        if not isinstance(old, _Refusal):
                            expected = cls.weights[old[0]] * values[y][old[0]]
                        got = _refused(lambda: two_part_value_at(cls, x, y, tb))
                        assert got == expected, (cls.describe(), x, y, tb)
        assert refusals and zero_members and zero_mixtures

    def test_no_value_memo_survives_a_call(self, monkeypatch):
        # A repeated query evaluates every member again: nothing is kept on
        # models or classes between calls.
        calls = Counter()
        families = (
            Semimeasure,
            FactorizableModel,
            IidModel,
            DeterministicModel,
            LeakySemimeasure,
        )
        for family in families:
            original = family.__dict__["exact_ratio"]

            def counted(self, x, original=original, family=family):
                calls[family] += 1
                return original(self, x)

            monkeypatch.setattr(family, "exact_ratio", counted)
        cls = _differential_classes()[0]
        word = (1, 0, 1, 1)
        for query in (
            lambda: map_estimator(cls, word),
            lambda: two_part_value_at(cls, word, word[:2]),
            lambda: bayes_mixture(cls, word),
        ):
            counts = []
            for _ in range(2):
                calls.clear()
                query()
                counts.append(dict(calls))
            assert counts[0] == counts[1] and sum(counts[0].values()) >= len(cls)
