"""Reference formulas the engines are checked against, and the zoo they run on.

Every value here is recomputed from scratch: each model is evaluated with
``evaluate_exact`` at each word, the MAP choice is the maximal entries of
the weighted row with each tie rule and the tail refusal written out, and
the prediction kinds are the Fraction quotients that define them, a
sampled path draws each symbol from those quotients on their lcm, and the
distances are their defining sums.  No
engine entry point is imported (``test_predictors`` parses this file to
hold that), so a fast path is checked against the formula rather than
against another engine.

The model zoo pairs each built-in family with an independent formula for
nu and its per-step law; the class zoo gathers the classes the
differential tests share: mixed families, leaky wrappers, members with
only ``evaluate_exact``, truncated tails and exact ties.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from mdl_lab import measures
from mdl_lab.errors import AllZeroError, IndeterminateTailError, ZeroHistoryError
from mdl_lab.measures import (
    BINARY,
    DeterministicModel,
    FactorizableModel,
    IidModel,
    LeakySemimeasure,
    OscillatingMartingaleMeasure,
    Semimeasure,
    make_example4_pair,
)
from mdl_lab.model_class import (
    LARGEST_WEIGHT,
    LOWEST_INDEX,
    WeightedClass,
    example1_class,
    example3_class,
    example4_class,
    example5_class,
    round_robin,
)
from mdl_lab.predictors import HYBRID, RHO, RHO_NORM, STATIC, STATIC_NORM, TRUE, XI
from mdl_lab.suites import random_measure_class, random_semimeasure_class

TIE_BREAKS = (LARGEST_WEIGHT, LOWEST_INDEX, round_robin(1))

# Every cursor class of the engine, for tests that count or refuse its reads.
CURSOR_KINDS = (
    measures._GenericCursor,
    measures._FactorizableCursor,
    measures._MartingaleCursor,
    measures._LeakyCursor,
)


def all_words(max_len, k=2):
    """Every word over symbols 0..k-1 of length 0..max_len, shortest first."""
    symbols = range(k)
    return [w for n in range(max_len + 1) for w in itertools.product(symbols, repeat=n)]


def outcome(fn):
    """``fn()``, or the type of the prediction error it raised."""
    try:
        return fn()
    except (ZeroHistoryError, IndeterminateTailError, AllZeroError) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# The model zoo: every family with nu and its step law written out
# ----------------------------------------------------------------------

REFERENCE_DEPTH = 9  # the step laws cover every word shorter than this


def _iid_reference(theta):
    def nu(x):
        out = Fraction(1)
        for a, p in enumerate(theta):
            out *= p ** x.count(a)
        return out

    return nu, lambda i: theta


def _deterministic_reference(preperiod, period):
    target = (preperiod + period * REFERENCE_DEPTH)[:REFERENCE_DEPTH]

    def step(i):
        return tuple(Fraction(int(a == target[i - 1])) for a in (0, 1))

    return (lambda x: Fraction(int(x == target[: len(x)]))), step


def _product_reference(step):
    def nu(x):
        out = Fraction(1)
        for i, s in enumerate(x, start=1):
            out *= step(i)[s]
        return out

    return nu, step


def table_reference(steps, tail):
    """(nu, step) of a factorizable law: the listed steps, then ``tail``."""
    return _product_reference(lambda i: steps[i - 1] if i <= len(steps) else tail)


def _example4_reference(offset):
    # mu_i(1) = 1 - 2^(-2*ceil(i/2)) (offset 0), nu_i(1) = 1 - 2^(1-2*ceil((i+1)/2)).
    def step(i):
        p0 = Fraction(1, 2 ** (2 * ((i + offset + 1) // 2) - offset))
        return (p0, 1 - p0)

    return _product_reference(step)


def martingale_children(f, dead, parent_len):
    """The martingale's child rule on Fractions: (f0, f1, dead0, dead1)."""
    n = parent_len + 1
    if dead:
        return f, f, True, True
    if f > Fraction(3, 4):
        f0 = Fraction(3, 4) - Fraction(1, 2 ** (n + 2))
        f1 = 2 * f - f0
    else:
        f1 = Fraction(3, 4) + Fraction(1, 2 ** (n + 2))
        f0 = 2 * f - f1

    def dead_at(g):
        return g <= Fraction(3, 4) and g < Fraction(3, 8) + Fraction(1, 2 ** (n + 4))

    return f0, f1, dead_at(f0), dead_at(f1)


def _martingale_reference(x):
    f, dead = Fraction(1), False
    for n, a in enumerate(x):
        f0, f1, d0, d1 = martingale_children(f, dead, n)
        f, dead = (f0, d0) if a == 0 else (f1, d1)
    return f / 2 ** len(x)


def reference_zoo():
    """(model, nu, step) with nu and per-step law computed independently.

    ``step`` is None for a model that is not factorizable.
    """
    half, third = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))
    table = [(Fraction(1, 4), Fraction(3, 4)), (Fraction(1), Fraction(0))]
    leaky_nu, _ = _iid_reference(half)
    mu, nu = make_example4_pair()
    return [
        (IidModel(half), *_iid_reference(half)),
        (IidModel(third), *_iid_reference(third)),
        (IidModel((Fraction(1), Fraction(0))), *_iid_reference((Fraction(1), Fraction(0)))),
        (DeterministicModel((1,), (0,)), *_deterministic_reference((1,), (0,))),
        (DeterministicModel((), (1,)), *_deterministic_reference((), (1,))),
        (DeterministicModel((0, 0), (1, 0, 1)), *_deterministic_reference((0, 0), (1, 0, 1))),
        (FactorizableModel.from_steps(BINARY, table, half), *table_reference(table, half)),
        (mu, *_example4_reference(0)),
        (nu, *_example4_reference(1)),
        (OscillatingMartingaleMeasure(), _martingale_reference, None),
        (
            LeakySemimeasure(IidModel(half), Fraction(1, 4)),
            lambda x: leaky_nu(x) * Fraction(3, 4) ** len(x),
            None,
        ),
        (
            LeakySemimeasure(OscillatingMartingaleMeasure(), Fraction(1, 3)),
            lambda x: _martingale_reference(x) * Fraction(2, 3) ** len(x),
            None,
        ),
    ]


class EvaluateOnly(Semimeasure):
    """A member without a cursor of its own, counting evaluations per prefix.

    It defines only ``evaluate_exact``, so engines read it through the
    generic cursor; ``calls[x]`` counts the evaluations of prefix x.
    """

    def __init__(self, model):
        self.alphabet = model.alphabet
        self.is_proper_measure = model.is_proper_measure
        self._model = model
        self.calls = Counter()

    def evaluate_exact(self, x):
        self.calls[x] += 1
        return self._model.evaluate_exact(x)


class StopsAfter(Semimeasure):
    """Uniform up to length n and 0 beyond: its mass runs out.

    Only ``evaluate_exact`` is defined, so its cursor is the generic one.
    """

    alphabet = BINARY

    def __init__(self, n):
        self.n = n

    def evaluate_exact(self, x):
        return Fraction(1, 2 ** len(x)) if len(x) <= self.n else Fraction(0)

    def __repr__(self):
        return f"stops_after({self.n})"


# ----------------------------------------------------------------------
# The class zoo
# ----------------------------------------------------------------------


def truncated(base, tail_bound):
    """``base`` with its weights halved and an unmaterialized tail."""
    return WeightedClass(base.models, [w / 2 for w in base.weights], tail_bound=tail_bound)


def geometric_class():
    """nu_i on 1^i 0^inf with weight 2^-(i+1); four materialized, tail 1/16."""
    return WeightedClass(
        [DeterministicModel((1,) * i, (0,)) for i in range(4)],
        [Fraction(1, 2 ** (i + 1)) for i in range(4)],
        tail_bound=Fraction(1, 16),
        descending_weights=True,
    )


def truncated_classes(seed, count):
    """The geometric class, then ``count`` truncated random measure classes."""
    return [geometric_class()] + [
        truncated(random_measure_class(seed, case), Fraction(1, 2 ** (3 + case % 3)))
        for case in range(count)
    ]


def zero_history_class():
    """Mass runs out after two symbols off the true path 1^inf."""
    return WeightedClass(
        [StopsAfter(2), DeterministicModel((), (1,))],
        [Fraction(1, 2), Fraction(1, 4)],
        true_index=1,
    )


def leaky_semimeasure_classes(seed, count):
    """The first ``count`` random semimeasure classes holding a leaky member."""
    classes = (random_semimeasure_class(seed, case) for case in range(4 * count))
    leaky = [
        cls for cls in classes if any(isinstance(m, LeakySemimeasure) for m in cls.models)
    ]
    assert len(leaky) >= count
    return leaky[:count]


def differential_classes():
    """Every family, leaky and evaluate-only members, named classes, tails."""
    zoo = [model for model, _, _ in reference_zoo()]
    bases = [m for m in zoo if not isinstance(m, LeakySemimeasure)]
    half, third = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))
    evaluate_only = [EvaluateOnly(IidModel(third)), EvaluateOnly(OscillatingMartingaleMeasure())]
    return [
        WeightedClass(zoo, [Fraction(1, len(zoo))] * len(zoo)),
        WeightedClass(zoo, [Fraction(i + 1, 100) for i in range(len(zoo))]),
        WeightedClass(
            [LeakySemimeasure(m, Fraction(1, 5)) for m in bases + evaluate_only],
            [Fraction(1, len(bases) + 2)] * (len(bases) + 2),
        ),
        WeightedClass(
            evaluate_only + [LeakySemimeasure(evaluate_only[0], Fraction(1, 3)), IidModel(third)],
            [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 2)],
        ),
        example1_class(4),
        example3_class(),
        example4_class(),
        example5_class(),
        geometric_class(),
        WeightedClass(
            [IidModel(half), IidModel(third), DeterministicModel((1,), (0,))],
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)],
            tail_bound=Fraction(1, 64),
        ),
    ]


def sampled_path_classes():
    """The zoo with an evaluate-only member, under six proper-measure truths.

    Every class holds leaky members, deterministic members that die, the
    martingale and an evaluate-only member.  The truths are a fair coin, a
    table-then-tail law, example 4's mu, an eventually periodic sequence,
    the martingale and the evaluate-only member; the weights alternate
    between uniform (ties) and distinct.
    """
    zoo = [model for model, _, _ in reference_zoo()]
    zoo.append(EvaluateOnly(IidModel((Fraction(1, 3), Fraction(2, 3)))))
    n = len(zoo)
    classes = []
    for k, truth in enumerate((0, 6, 7, 5, 9, n - 1)):
        if k % 2:
            weights = [Fraction(i + 1, 2 * n * n) for i in range(n)]
        else:
            weights = [Fraction(1, n)] * n
        classes.append(WeightedClass(zoo, weights, true_index=truth))
    return classes


# ----------------------------------------------------------------------
# The formulas
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 14)
def weighted_row(cls, x):
    """(w_i * nu_i(x)) over the class, formed once per class and word."""
    return tuple(w * m.evaluate_exact(x) for m, w in zip(cls.models, cls.weights))


def pick(cls, row, x_len, tie_break):
    """(index, tie set): the maximal entries of the row, then the policy."""
    best = max(row)
    tied = tuple(i for i, s in enumerate(row) if s == best)
    if tie_break.kind == "lowest_index":
        return tied[0], tied
    if tie_break.kind == "largest_weight":
        heaviest = max(cls.weights[i] for i in tied)
        return next(i for i in tied if cls.weights[i] == heaviest), tied
    return tied[(x_len + tie_break.phase) % len(tied)], tied


def map_index(cls, x, tie_break):
    """The MAP index at x, with no tail check."""
    return pick(cls, weighted_row(cls, x), len(x), tie_break)[0]


def map_choice(cls, x, tie_break):
    """(index, value w nu(x), tie set) of the MAP search at x.

    Refused with IndeterminateTailError when the unmaterialized tail could
    hold a member at least as large: each tail member weighs at most the
    tail bound, and at most the last materialized weight when the weights
    are declared descending, and its nu(x) is at most 1.
    """
    row = weighted_row(cls, x)
    index, tied = pick(cls, row, len(x), tie_break)
    if cls.tail_bound is not None:
        cap = cls.tail_bound
        if cls.descending_weights:
            cap = min(cap, cls.weights[-1])
        if row[index] <= cap:
            raise IndeterminateTailError(x)
    return index, row[index], tied


def map_trace(cls, word, tie_break):
    """(indices, tie flags, error) of the MAP choice at every prefix of word.

    ``error`` is None, or (error type, prefix length) at the first prefix
    whose search is refused (IndeterminateTailError) or whose maximum is 0
    (ZeroHistoryError); the lists stop before that prefix.
    """
    indices, ties = [], []
    for t in range(len(word) + 1):
        try:
            index, value, tied = map_choice(cls, word[:t], tie_break)
        except IndeterminateTailError:
            return indices, ties, (IndeterminateTailError, t)
        if value == 0:
            return indices, ties, (ZeroHistoryError, t)
        indices.append(index)
        ties.append(len(tied) > 1)
    return indices, ties, None


def prediction(kind, cls, x, tie_break):
    """The next-symbol values of one predictor kind at history x."""
    children = [x + (a,) for a in cls.alphabet.symbols()]
    if kind in (RHO_NORM, STATIC_NORM):
        values = prediction(RHO if kind == RHO_NORM else STATIC, cls, x, tie_break)
        total = sum(values)
        if total == 0:
            raise AllZeroError(x)
        return [v / total for v in values]
    if kind == XI:
        base = sum(weighted_row(cls, x))
        if base == 0:
            raise ZeroHistoryError(x)
        return [sum(weighted_row(cls, xa)) / base for xa in children]
    if kind == RHO:
        base = max(weighted_row(cls, x))
        if base == 0:
            raise ZeroHistoryError(x)
        return [max(weighted_row(cls, xa)) / base for xa in children]
    if kind == TRUE:
        mu = cls.true_model
        return [mu.evaluate_exact(xa) / mu.evaluate_exact(x) for xa in children]
    chosen = cls.models[map_index(cls, x, tie_break)]
    base = chosen.evaluate_exact(x)
    if base == 0:
        raise ZeroHistoryError(x)
    if kind == STATIC:
        return [chosen.evaluate_exact(xa) / base for xa in children]
    assert kind == HYBRID, kind
    return [
        cls.models[map_index(cls, xa, tie_break)].evaluate_exact(xa) / base
        for xa in children
    ]


def draw_path(model, n, rng):
    """x_1:n drawn from nu(a|x) = nu(xa) / nu(x): each symbol is the first
    whose cumulative numerator exceeds rng.randrange(lcm of the reduced
    denominators)."""
    x = ()
    for _ in range(n):
        base = model.evaluate_exact(x)
        conditionals = [model.evaluate_exact(x + (a,)) / base for a in model.alphabet.symbols()]
        den = math.lcm(*(p.denominator for p in conditionals))
        r = rng.randrange(den)
        total = 0
        for a, p in enumerate(conditionals):
            total += p * den
            if r < total:
                x += (a,)
                break
    return x


# ----------------------------------------------------------------------
# Per-step distances between true conditionals mu and a prediction phi
# ----------------------------------------------------------------------


def square(mu, phi):
    return sum(((Fraction(p) - q) ** 2 for p, q in zip(mu, phi)), Fraction(0))


def absolute(mu, phi):
    return sum((abs(Fraction(p) - q) for p, q in zip(mu, phi)), Fraction(0))


def hellinger_float(mu, phi):
    return sum((math.sqrt(p) - math.sqrt(q)) ** 2 for p, q in zip(mu, phi))


def kl_float(mu, phi):
    """sum_a mu ln(mu / phi) over mu > 0; +inf once phi = 0 where mu > 0."""
    if any(p > 0 and q == 0 for p, q in zip(mu, phi)):
        return math.inf
    return sum(float(p) * math.log(Fraction(p) / q) for p, q in zip(mu, phi) if p > 0)
