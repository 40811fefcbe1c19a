"""The four prediction rules over a weighted class, plus normalization.

Given a class C with weights w and history x, the next-symbol values are

* Bayes mixture:   xi(a|x)      = xi(xa) / xi(x),  xi = sum_nu w_nu nu
* dynamic MDL:     rho(a|x)     = rho(xa) / rho(x), rho = max_nu w_nu nu
* static MDL:      rho_st(a|x)  = nu^x(xa) / nu^x(x) for the single
                   maximizer nu^x at the history
* hybrid MDL:      nu^{xa}(xa) / nu^x(x) -- re-select per continuation
                   but drop the weights from the quotient

All four are quotients of reductions of one weighted row, w_nu nu(x)
over the class: xi and rho divide the sums or maxima of the rows at xa
and at x, and static and hybrid divide the model values at the argmax of
a row.  One engine computes them: a :class:`PredictionNode` holds the
per-model cursors at one history and their children, and forms each row
once, on first read, as integer scores over one denominator.  A child's
row is its parent's scores times the child cursors' step factors, so
along a sampled path the denominator grows only by each step's small
lcm and no big number is divided; a node built from bare cursors, or
with a member that reports no factor, puts the cursor values over one
lcm instead.  The argmax and tie set are taken on the integers, static
and true read the factors, and xi, rho and hybrid build one Fraction per
entry.  A node advances each cursor once per symbol and keeps the
children, which tree walks and sampled paths step to.  ``predict_*`` read
one node, and the class keeps the last node they built: a query at its
history and tie-break reads it again, one at its history plus one symbol
steps from it as a tree walk does, and any other query advances every
cursor along x, so an online walk along a sequence costs one step per
symbol.
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
from .measures import Word, step_multipliers
from .model_class import (  # noqa: F401  map_estimator stays a name of this module
    LARGEST_WEIGHT,
    EvalStats,
    TieBreak,
    WeightedClass,
    check_tail,
    cursor_scores,
    map_estimator,
    row_at,
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
    cursor advanced by a.

    Every predictor is a quotient of reductions of one weighted row,
    ``scores(a)`` = (scores, den) with scores[i] / den = w_i * nu_i(prefix
    + a) (``scores()`` at the prefix itself): xi and rho divide the sums
    or maxima of two rows, hybrid divides entries of two rows at
    ``choice(a)`` and ``choice()`` (the tie-break's MAP index on a row),
    and static and true read the step factors of the chosen or the true
    model.  A child row is the prefix row stepped by its cursors' factors;
    ``row``, when given, is the prefix row a parent already built, and
    otherwise, as for any row with a member that reports no factor, it is
    put together from the cursor values.  Each row, choice and prediction
    is built on first read and kept.  Everything here is exact;
    Monte-Carlo estimates convert to floats at the edges.  ``weight`` is
    mu(prefix), the true-measure weight a tree walk or sampled path
    carries; it is None for a node built to answer one query.
    """

    __slots__ = (
        "cls",
        "tie_break",
        "prefix",
        "weight",
        "cursors",
        "child_cursors",
        "_cache",
    )

    def __init__(
        self,
        cls: WeightedClass,
        tie_break: TieBreak,
        prefix: Word,
        cursors,
        weight: Optional[Fraction] = None,
        row: Optional[Tuple[List[int], int]] = None,
    ):
        self.cls = cls
        self.tie_break = tie_break
        self.prefix = prefix
        self.cursors = cursors
        self.weight = weight
        k = cls.alphabet.size
        self.child_cursors = [[c.advance(a) for c in cursors] for a in range(k)]
        self._cache: dict = {} if row is None else {("scores", None): row}

    @property
    def t(self) -> int:
        return len(self.prefix)

    def scores(self, a: Optional[int] = None) -> Tuple[List[int], int]:
        """(scores, den), integers with scores[i] / den = w_i * nu_i(prefix),
        or at prefix + (a,) when a is given."""
        key = ("scores", a)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._build_row(a)
        return out

    def _build_row(self, a: Optional[int]) -> Tuple[List[int], int]:
        cursors = self.cursors if a is None else self.child_cursors[a]
        factors = None if a is None else [c.factor for c in cursors]
        if factors is None or any(f is None for f in factors):
            return cursor_scores(self.cls.weights, cursors)
        scores, den = self.scores()
        multipliers, step = step_multipliers(factors)
        return [s * m for s, m in zip(scores, multipliers)], den * step

    def choice(self, a: Optional[int] = None) -> int:
        """The MAP index on ``scores(a)`` under the node's tie-break."""
        key = ("choice", a)
        out = self._cache.get(key)
        if out is None:
            x_len = len(self.prefix) + (a is not None)
            out = self.tie_break.select(self.scores(a)[0], self.cls.weights, x_len)[0]
            self._cache[key] = out
        return out

    def true_conditionals(self) -> List[Fraction]:
        return self.prediction(TRUE)

    def prediction(self, kind: str) -> List[Fraction]:
        out = self._cache.get(kind)
        if out is None:
            out = self._cache[kind] = self._prediction(kind)
        return out

    def _prediction(self, kind: str) -> List[Fraction]:
        symbols = self.cls.alphabet.symbols()
        if kind in (XI, RHO):
            reduce = sum if kind == XI else max
            scores, den = self.scores()
            base = reduce(scores)
            if base == 0:
                raise ZeroHistoryError(f"{kind} = 0 at {self.prefix}")
            out = []
            for a in symbols:
                child, child_den = self.scores(a)
                out.append(Fraction(reduce(child) * den, child_den * base))
            return out
        if kind == RHO_NORM:
            return _normalize_list(self.prediction(RHO))
        if kind == STATIC_NORM:
            return _normalize_list(self.prediction(STATIC))
        if kind == TRUE:
            i = self.cls.true_index
            if i is None:
                raise ValueError("class has no designated true model")
            return self._conditionals(i)
        if kind not in (STATIC, HYBRID):
            raise ValueError(f"unknown predictor kind {kind!r}")
        i = self.choice()
        scores, den = self.scores()
        if scores[i] == 0:
            raise ZeroHistoryError(f"nu^x = 0 at {self.prefix}")
        if kind == STATIC:
            return self._conditionals(i)
        # nu_j(xa) / nu_i(x) = (child[j] / (child_den w_j)) / (scores[i] / (den w_i))
        wi = self.cls.weights[i]
        out = []
        for a in symbols:
            j = self.choice(a)
            wj = self.cls.weights[j]
            child, child_den = self.scores(a)
            out.append(
                Fraction(
                    child[j] * den * wi.numerator * wj.denominator,
                    child_den * scores[i] * wj.numerator * wi.denominator,
                )
            )
        return out

    def _conditionals(self, i: int) -> List[Fraction]:
        """nu_i(xa) / nu_i(x) for each a: the step factors of model i, or
        quotients of its cursor values where it reports none."""
        children = [row[i] for row in self.child_cursors]
        factors = [c.factor for c in children]
        if any(f is None for f in factors):
            base = self.cursors[i].value
            return [c.value / base for c in children]
        return factors

    def child_node(self, a: int) -> "PredictionNode":
        return PredictionNode(
            self.cls,
            self.tie_break,
            self.prefix + (a,),
            self.child_cursors[a],
            self.weight * self.true_conditionals()[a],
            self.scores(a),
        )


def _normalize_list(values: Sequence[Fraction]) -> List[Fraction]:
    total = sum(values)
    if total == 0:
        raise AllZeroError("prediction entries all zero; cannot normalize")
    return [v / total for v in values]


def _node_at(
    cls: WeightedClass, x, tie_break: TieBreak = LARGEST_WEIGHT
) -> PredictionNode:
    """The node at history x, kept by the class for the next query: the
    kept node itself, its child, or every model's cursor advanced along x."""
    word = cls.word(x)
    last = cls._last_node
    if last is not None and last.tie_break == tie_break:
        prefix = last.prefix
        if word == prefix:
            return last
        t = len(prefix)
        if len(word) == t + 1 and word[:t] == prefix:
            a = word[t]
            node = PredictionNode(cls, tie_break, word, last.child_cursors[a], row=last.scores(a))
            cls._last_node = node
            return node
    cursors = [m.cursor() for m in cls.models]
    for a in word:
        cursors = [c.advance(a) for c in cursors]
    node = PredictionNode(cls, tie_break, word, cursors)
    cls._last_node = node
    return node


# ----------------------------------------------------------------------
# Functional predictors: thin readers of one node
# ----------------------------------------------------------------------


def bayes_mixture(cls: WeightedClass, x) -> Fraction:
    """xi(x) = sum_nu w_nu nu(x) over the materialized models.

    For truncated infinite classes this is the lower end of the interval
    returned by :func:`bayes_mixture_bounds`.
    """
    scores, den = row_at(cls, x)[1]
    return Fraction(sum(scores), den)


def bayes_mixture_bounds(cls: WeightedClass, x) -> FracInterval:
    """Exact interval containing xi(x) when a weight tail is unmaterialized."""
    lower = bayes_mixture(cls, x)
    tail = cls.tail_bound or Fraction(0)
    return FracInterval(lower, lower + tail)


def _search(node: PredictionNode, a: Optional[int], stats: Optional[EvalStats]) -> None:
    """Account for one MAP search on ``node.scores(a)``, refused on an open tail."""
    if node.cls.tail_bound is not None:
        scores, den = node.scores(a)
        check_tail(node.cls, Fraction(max(scores), den))
    if stats is not None:
        stats.map_searches += 1


def _predict(node: PredictionNode, kind: str, stats: Optional[EvalStats]) -> List[Fraction]:
    """``node.prediction(kind)`` after one search at x; dynamic and hybrid
    re-select, so they add one search per continuation xa."""
    _search(node, None, stats)
    values = node.prediction(kind)  # a zero history raises before the child searches
    if kind != STATIC:
        for a in node.cls.alphabet.symbols():
            _search(node, a, stats)
    return values


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
    return _distribution(_predict(_node_at(cls, x, tie_break), RHO, stats))


def predict_static(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
    stats: Optional[EvalStats] = None,
) -> PredictiveDistribution:
    """Entries nu^x(xa) / nu^x(x) for the single maximizer at the history."""
    return _distribution(_predict(_node_at(cls, x, tie_break), STATIC, stats))


def predict_hybrid(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
    stats: Optional[EvalStats] = None,
) -> PredictiveDistribution:
    """Entries nu^{xa}(xa) / nu^x(x): re-select per child, drop the weights."""
    return _distribution(_predict(_node_at(cls, x, tie_break), HYBRID, stats))


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
