"""The four prediction rules over a weighted class, plus normalization.

Given a class C with weights w and history x, the next-symbol values are

* Bayes mixture:   xi(a|x)      = xi(xa) / xi(x),  xi = sum_nu w_nu nu
* dynamic MDL:     rho(a|x)     = rho(xa) / rho(x), rho = max_nu w_nu nu
* static MDL:      rho_st(a|x)  = nu^x(xa) / nu^x(x) for the single
                   maximizer nu^x at the history
* hybrid MDL:      nu^{xa}(xa) / nu^x(x) -- re-select per continuation
                   but drop the weights from the quotient

All four are quotients of the model values nu(x) and nu(xa), so one
engine computes them: a :class:`PredictionNode` holds those values at
one history, read from per-model cursors.  A node advances each cursor
once per symbol and keeps the children, which tree walks and sampled
paths step to; ``predict_*`` advance every cursor along x and read one node.
Exact rationals and certified enclosures; float only for ledgers: every
value here is an exact rational, and the float ledgers of
:mod:`mdl_lab.metrics` convert at the edges.

Dynamic and hybrid re-select the maximizer for the history and all k
continuations (k+1 MAP searches per step); static needs one.  Both report
their search counts through :class:`~mdl_lab.model_class.EvalStats`, and
on a truncated class each search refuses when the unmaterialized tail
could still hold the winner.

Bayes, dynamic and static entries always lie in [0, 1].  Hybrid entries
can exceed 1 when re-selection jumps to a model with a larger bare value;
that instability is the point of studying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .enclosure import FracInterval
from .errors import AllZeroError, ZeroHistoryError
from .measures import Word
from .model_class import (  # noqa: F401  map_estimator stays a name of this module
    LARGEST_WEIGHT,
    EvalStats,
    TieBreak,
    WeightedClass,
    check_tail,
    class_scores,
    map_estimator,
)

# Predictor kinds.
TRUE = "true"
XI = "xi"
RHO = "rho"
RHO_NORM = "rho_norm"
STATIC = "static"
STATIC_NORM = "static_norm"
HYBRID = "hybrid"

ALL_KINDS = (TRUE, XI, RHO, RHO_NORM, STATIC, STATIC_NORM, HYBRID)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-symbol next-step values; a sub-probability unless normalized."""

    values: Tuple[Fraction, ...]
    normalized: bool

    def entry(self, a: int) -> Fraction:
        return self.values[a]

    def sum_value(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def belief(self, a: int = 1) -> float:
        """Scalar belief in symbol ``a``; decision layer input."""
        return float(self.values[a])


def _distribution(values) -> PredictiveDistribution:
    return PredictiveDistribution(tuple(values), sum(values) == 1)


# ----------------------------------------------------------------------
# Fused prediction node: every predictor's values at one prefix
# ----------------------------------------------------------------------


class PredictionNode:
    """All model and predictor values at one history prefix.

    Built from per-model cursors, so each node costs O(|C| * k) exact
    operations regardless of depth; ``child_cursors[a]`` holds every
    cursor advanced by a and ``child_values[a]`` their values.  Everything
    here is exact; Monte-Carlo estimates convert to floats at the edges.
    ``weight`` is mu(prefix), the true-measure weight a tree walk or
    sampled path carries; it is None for a node built to answer one query.
    """

    __slots__ = (
        "cls",
        "tie_break",
        "prefix",
        "weight",
        "cursors",
        "values",
        "child_cursors",
        "child_values",
        "_cache",
    )

    def __init__(
        self,
        cls: WeightedClass,
        tie_break: TieBreak,
        prefix: Word,
        cursors,
        weight: Optional[Fraction] = None,
    ):
        self.cls = cls
        self.tie_break = tie_break
        self.prefix = prefix
        self.cursors = cursors
        self.weight = weight
        self.values = [c.value for c in cursors]
        k = cls.alphabet.size
        self.child_cursors = [[c.advance(a) for c in cursors] for a in range(k)]
        self.child_values = [[c.value for c in row] for row in self.child_cursors]
        self._cache: dict = {}

    # -- raw aggregates --------------------------------------------------

    @property
    def t(self) -> int:
        return len(self.prefix)

    def rho(self) -> Fraction:
        out = self._cache.get("rho")
        if out is None:
            w = self.cls.weights
            out = max(w[i] * v for i, v in enumerate(self.values))
            self._cache["rho"] = out
        return out

    def rho_child(self, a: int) -> Fraction:
        key = ("rho_child", a)
        out = self._cache.get(key)
        if out is None:
            w = self.cls.weights
            out = max(w[i] * v for i, v in enumerate(self.child_values[a]))
            self._cache[key] = out
        return out

    def xi(self) -> Fraction:
        out = self._cache.get("xi")
        if out is None:
            out = sum(
                (w * v for w, v in zip(self.cls.weights, self.values)), Fraction(0)
            )
            self._cache["xi"] = out
        return out

    def xi_child(self, a: int) -> Fraction:
        key = ("xi_child", a)
        out = self._cache.get(key)
        if out is None:
            out = sum(
                (w * v for w, v in zip(self.cls.weights, self.child_values[a])),
                Fraction(0),
            )
            self._cache[key] = out
        return out

    def map_index(self) -> int:
        """Maximizer index at the prefix, under the node's tie-break."""
        out = self._cache.get("map_index")
        if out is None:
            out = self._argmax(self.values, len(self.prefix))
            self._cache["map_index"] = out
        return out

    def map_child_index(self, a: int) -> int:
        key = ("map_child", a)
        out = self._cache.get(key)
        if out is None:
            out = self._argmax(self.child_values[a], len(self.prefix) + 1)
            self._cache[key] = out
        return out

    def _argmax(self, values, x_len: int) -> int:
        w = self.cls.weights
        return self.tie_break.select([w[i] * v for i, v in enumerate(values)], w, x_len)[0]

    # -- predictions ------------------------------------------------------

    def true_conditionals(self) -> List[Fraction]:
        i = self.cls.true_index
        if i is None:
            raise ValueError("class has no designated true model")
        base = self.values[i]
        return [cv[i] / base for cv in self.child_values]

    def prediction(self, kind: str) -> List[Fraction]:
        out = self._cache.get(("pred", kind))
        if out is None:
            out = self._prediction(kind)
            self._cache[("pred", kind)] = out
        return out

    def _prediction(self, kind: str) -> List[Fraction]:
        k = self.cls.alphabet.size
        if kind == TRUE:
            return self.true_conditionals()
        if kind == XI:
            base = self.xi()
            if base == 0:
                raise ZeroHistoryError(f"xi = 0 at {self.prefix}")
            return [self.xi_child(a) / base for a in range(k)]
        if kind == RHO:
            base = self.rho()
            if base == 0:
                raise ZeroHistoryError(f"rho = 0 at {self.prefix}")
            return [self.rho_child(a) / base for a in range(k)]
        if kind == RHO_NORM:
            return _normalize_list(self.prediction(RHO))
        if kind == STATIC:
            i = self.map_index()
            base = self.values[i]
            if base == 0:
                raise ZeroHistoryError(f"nu^x = 0 at {self.prefix}")
            return [self.child_values[a][i] / base for a in range(k)]
        if kind == STATIC_NORM:
            return _normalize_list(self.prediction(STATIC))
        if kind == HYBRID:
            i = self.map_index()
            base = self.values[i]
            if base == 0:
                raise ZeroHistoryError(f"nu^x = 0 at {self.prefix}")
            return [
                self.child_values[a][self.map_child_index(a)] / base for a in range(k)
            ]
        raise ValueError(f"unknown predictor kind {kind!r}")

    def child_node(self, a: int) -> "PredictionNode":
        return PredictionNode(
            self.cls,
            self.tie_break,
            self.prefix + (a,),
            self.child_cursors[a],
            self.weight * self.true_conditionals()[a],
        )


def _normalize_list(values: Sequence[Fraction]) -> List[Fraction]:
    total = sum(values)
    if total == 0:
        raise AllZeroError("prediction entries all zero; cannot normalize")
    return [v / total for v in values]


def _node_at(
    cls: WeightedClass, x, tie_break: TieBreak = LARGEST_WEIGHT
) -> PredictionNode:
    """The node at history x: every model's cursor advanced along x."""
    word = cls.word(x)
    cursors = [m.cursor() for m in cls.models]
    for a in word:
        cursors = [c.advance(a) for c in cursors]
    return PredictionNode(cls, tie_break, word, cursors)


# ----------------------------------------------------------------------
# Functional predictors: thin readers of one node
# ----------------------------------------------------------------------


def bayes_mixture(cls: WeightedClass, x) -> Fraction:
    """xi(x) = sum_nu w_nu nu(x) over the materialized models.

    For truncated infinite classes this is the lower end of the interval
    returned by :func:`bayes_mixture_bounds`.
    """
    scores, den = class_scores(cls, cls.word(x))
    return Fraction(sum(scores), den)


def bayes_mixture_bounds(cls: WeightedClass, x) -> FracInterval:
    """Exact interval containing xi(x) when a weight tail is unmaterialized."""
    lower = bayes_mixture(cls, x)
    tail = cls.tail_bound or Fraction(0)
    return FracInterval(lower, lower + tail)


def _search(cls: WeightedClass, best: Fraction, stats: Optional[EvalStats]) -> None:
    """Account for one MAP search whose materialized maximum is ``best``."""
    check_tail(cls, best)
    if stats is not None:
        stats.map_searches += 1


def predict_bayes(cls: WeightedClass, x) -> PredictiveDistribution:
    """Entries xi(a|x) = xi(xa) / xi(x)."""
    return _distribution(_node_at(cls, x).prediction(XI))


def predict_dynamic(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
    stats: Optional[EvalStats] = None,
) -> PredictiveDistribution:
    """Entries rho(a|x) = rho(xa) / rho(x); k+1 MAP searches."""
    return _reselecting(cls, x, tie_break, stats, RHO)


def predict_static(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
    stats: Optional[EvalStats] = None,
) -> PredictiveDistribution:
    """Entries nu^x(xa) / nu^x(x) for the single maximizer at the history."""
    node = _node_at(cls, x, tie_break)
    _search(cls, node.rho(), stats)
    return _distribution(node.prediction(STATIC))


def predict_hybrid(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
    stats: Optional[EvalStats] = None,
) -> PredictiveDistribution:
    """Entries nu^{xa}(xa) / nu^x(x): re-select per child, drop the weights."""
    return _reselecting(cls, x, tie_break, stats, HYBRID)


def _reselecting(cls, x, tie_break, stats, kind: str) -> PredictiveDistribution:
    """Dynamic or hybrid: one search at x, then one per continuation xa."""
    node = _node_at(cls, x, tie_break)
    _search(cls, node.rho(), stats)
    values = node.prediction(kind)  # a zero history raises before the child searches
    for a in cls.alphabet.symbols():
        _search(cls, node.rho_child(a), stats)
    return _distribution(values)


def predict_true(cls: WeightedClass, x) -> PredictiveDistribution:
    """Conditionals of the designated true model (baseline, not a learner).

    Entries are 0 at a history of true probability 0.
    """
    word = cls.word(x)
    mu = cls.true_model
    return _distribution([mu.conditional(a, word) for a in cls.alphabet.symbols()])


def normalize(dist: PredictiveDistribution) -> PredictiveDistribution:
    """Scale the entries to sum to one (Solomonoff normalization)."""
    if dist.normalized:
        return dist
    total = dist.sum_value()
    if total == 0:
        raise AllZeroError("cannot normalize an all-zero prediction")
    return PredictiveDistribution(
        tuple(v / total for v in dist.values), normalized=True
    )


def normalizer_product(cls: WeightedClass, x) -> Fraction:
    """Running product N_rho(x) of per-step prediction sums.

    N_rho(x) = prod_{t=1..len(x)+1} [sum_a rho(x_<t a)] / rho(x_<t);
    the value is 1 for every x when the class holds a single proper
    measure, and tie-breaking never enters because only rho values do.
    """
    word = cls.word(x)
    product = Fraction(1)
    for t in range(len(word) + 1):
        product *= predict_dynamic(cls, word[:t]).sum_value()
    return product
