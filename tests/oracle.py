"""Reference formulas the engines are checked against, and shared test helpers.

Every value here is recomputed from scratch: each model is evaluated with
``evaluate_exact`` at each word, and the prediction kinds are written out
as the Fraction quotients that define them, so a fast path is checked
against the formula rather than against another engine.
"""

import itertools
from fractions import Fraction

from mdl_lab.errors import AllZeroError, IndeterminateTailError, ZeroHistoryError
from mdl_lab.measures import BINARY, Semimeasure
from mdl_lab.predictors import HYBRID, RHO, RHO_NORM, STATIC, STATIC_NORM, TRUE, XI


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


def weighted_row(cls, x):
    """[w_i * nu_i(x)] over the class."""
    return [w * m.evaluate_exact(x) for m, w in zip(cls.models, cls.weights)]


def map_index(cls, x, tie_break):
    """The MAP index at x: the maximal entries of the row, then the policy."""
    row = weighted_row(cls, x)
    tied = [i for i, s in enumerate(row) if s == max(row)]
    if tie_break.kind == "lowest_index":
        return tied[0]
    if tie_break.kind == "largest_weight":
        heaviest = max(cls.weights[i] for i in tied)
        return next(i for i in tied if cls.weights[i] == heaviest)
    return tied[(len(x) + tie_break.phase) % len(tied)]


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
