"""Weighted countable hypothesis classes and the two-part (MAP) estimator.

A :class:`WeightedClass` pairs an ordered list of semimeasures with prior
weights w_nu > 0 summing to at most 1.  -lb(w_nu) is the description
length of the model, so the maximizer of w_nu * nu(x) is simultaneously
the MAP estimator and the minimizer of the two-part code length.

Infinite classes are represented by a materialized prefix plus an exact
bound on the weight mass left out; the estimator refuses to answer when
the tail could still contain the winner.

Point queries at one string -- the MAP choice, rho(x) = max w_nu nu(x) and
xi(x) = sum w_nu nu(x) -- read :func:`class_scores`: every member's
``exact_ratio`` times its weight, kept by the class as an integer pair,
put over one common integer denominator, so the argmax, the tie set, the
max and the sum run on integers, and each query builds a Fraction only for
the value it returns.  A class keeps the row of the last word it was
asked for, and only that one: the queries that follow one another at a
word (xi, rho and the MAP choice at x) build its row once, a query whose
argument is the kept word object itself skips validating it again, and a
query at any other word builds a fresh row.  rho^y(x) keeps its own memo,
the MAP choice at the last chooser y and tie-break, and builds the row at
y without evicting the row at x, so a sweep over x at one y selects at y
once.  Prediction nodes and MAP traces keep such a row along a sequence
and step it with :func:`~mdl_lab.measures.step_multipliers`, the one
integer form of a step law, so its denominator grows only by the small
denominators of each step's factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

from .errors import IndeterminateTailError
from .measures import Alphabet, Semimeasure, Word
from .values import log2_frac


@dataclass(frozen=True)
class TieBreak:
    """Deterministic tie-breaking policy for the MAP argmax.

    * ``largest_weight``: prefer larger prior weight, then lower index
      (the default; the secondary key matters for uniform weights).
    * ``lowest_index``: prefer the earliest model in class order.
    * ``round_robin``: rotate through the tied candidates, keyed by the
      length of the queried string plus a caller-owned phase.  The key
      advances once per prediction step and is independent of how many
      child evaluations a predictor performs within the step.
    """

    kind: str = "largest_weight"
    phase: int = 0

    def __post_init__(self):
        if self.kind not in ("largest_weight", "lowest_index", "round_robin"):
            raise ValueError(f"unknown tie-break kind {self.kind!r}")

    def choose(self, tied: Sequence[int], weights: Sequence[Fraction], x_len: int) -> int:
        if len(tied) == 1:
            return tied[0]
        if self.kind == "lowest_index":
            return min(tied)
        if self.kind == "largest_weight":
            return max(tied, key=lambda i: (weights[i], -i))
        ordered = sorted(tied)
        return ordered[(x_len + self.phase) % len(ordered)]

    def select(
        self, scores: Sequence, weights: Sequence[Fraction], x_len: int
    ) -> Tuple[int, Tuple[int, ...]]:
        """(chosen index, every index of a maximal score) for one MAP search.

        ``scores`` are proportional to w_nu * nu(x) for a string x of
        length ``x_len``; the policy picks among the maximal ones.
        """
        best = max(scores)
        tie_set = tuple(i for i, s in enumerate(scores) if s == best)
        return self.choose(tie_set, weights, x_len), tie_set


LARGEST_WEIGHT = TieBreak("largest_weight")
LOWEST_INDEX = TieBreak("lowest_index")


def round_robin(phase: int = 0) -> TieBreak:
    return TieBreak("round_robin", phase)


# The kept word of an empty memo: no caller holds it, so no query hits it.
_NO_WORD = object()


@dataclass(frozen=True)
class MapResult:
    """Outcome of one MAP search.

    ``value`` is the two-part estimator value w_nu * nu(x) of the chosen
    model; ``tie_set`` lists every index achieving the maximum exactly.
    """

    index: int
    value: Fraction
    tied: bool
    tie_set: Tuple[int, ...]


class WeightedClass:
    """Ordered countable class of semimeasures with prior weights."""

    # The last-query memos, each one tuple or object so that a reader never
    # pairs one word with another word's row: (word, row) of the last
    # class_scores call, (word, tie-break, index) of the last rho^y chooser,
    # and the last node predictors._node_at built.  An instance shadows
    # these empty ones on its first query.
    _last_row = (_NO_WORD, None)
    _last_chooser = (_NO_WORD, None, None)
    _last_node = None

    def __init__(
        self,
        models: Sequence[Semimeasure],
        weights: Sequence,
        true_index: Optional[int] = None,
        tail_bound: Optional[Fraction] = None,
        descending_weights: bool = False,
    ):
        if not models:
            raise ValueError("a weighted class needs at least one model")
        self.models: Tuple[Semimeasure, ...] = tuple(models)
        self.weights: Tuple[Fraction, ...] = tuple(Fraction(w) for w in weights)
        if len(self.models) != len(self.weights):
            raise ValueError("models and weights must have equal length")
        # Each weight as (num, den) for class_scores.
        self._weight_ratios = tuple([(w.numerator, w.denominator) for w in self.weights])
        if min(num for num, _ in self._weight_ratios) <= 0:
            raise ValueError("weights must be strictly positive")
        self.tail_bound = Fraction(tail_bound) if tail_bound is not None else None
        total = sum(self.weights) + (self.tail_bound or 0)
        if total > 1:
            raise ValueError(f"weights sum to {total} > 1")
        alphabet = self.models[0].alphabet
        if any(m.alphabet != alphabet for m in self.models):
            raise ValueError("all models must share one alphabet")
        self.alphabet: Alphabet = alphabet
        if true_index is not None and not 0 <= true_index < len(self.models):
            raise ValueError("true_index out of range")
        self.true_index = true_index
        if descending_weights and any(
            self.weights[i] < self.weights[i + 1] for i in range(len(self.weights) - 1)
        ):
            raise ValueError("weights are not in descending order")
        self.descending_weights = descending_weights

    def __getstate__(self) -> dict:
        """Pickle without the last-query memos, which only save a rebuild."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_last_")}

    def __len__(self) -> int:
        return len(self.models)

    @property
    def true_model(self) -> Semimeasure:
        """The designated true distribution.

        Only expectation and bound computations may consult this;
        predictors never see it.
        """
        if self.true_index is None:
            raise ValueError("class has no designated true model")
        return self.models[self.true_index]

    @property
    def true_weight(self) -> Fraction:
        if self.true_index is None:
            raise ValueError("class has no designated true model")
        return self.weights[self.true_index]

    def word(self, x) -> Word:
        return self.alphabet.word(x)

    def scaled(self, factor) -> "WeightedClass":
        """Same class with every weight multiplied by a positive rational.

        The MAP argmax is invariant under this rescaling; bound
        computations must renormalize before quoting w_mu.
        """
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return WeightedClass(
            self.models,
            [w * factor for w in self.weights],
            true_index=self.true_index,
            tail_bound=self.tail_bound * factor if self.tail_bound else None,
            descending_weights=self.descending_weights,
        )

    def describe(self) -> str:
        parts = [f"{w}*{m!r}" for m, w in zip(self.models, self.weights)]
        tail = f" tail<={self.tail_bound}" if self.tail_bound else ""
        return "{" + ", ".join(parts) + "}" + tail


def check_tail(cls: WeightedClass, best: Fraction) -> None:
    """Refuse a MAP choice the unmaterialized tail could still overturn.

    ``best`` is the materialized maximum of w_nu * nu(x).  Any
    non-materialized candidate is at most its own weight; the sum bound
    caps each one, and with verified descending order the last
    materialized weight caps them further.
    """
    if cls.tail_bound is None:
        return
    threshold = cls.tail_bound
    if cls.descending_weights:
        threshold = min(threshold, cls.weights[-1])
    if best <= threshold:
        raise IndeterminateTailError(
            f"materialized maximum {best} does not exceed the tail "
            f"bound {threshold}; materialize more of the class"
        )


def common_denominator(terms) -> Tuple[list, int]:
    """(scores, den) for (num_i, den_i) pairs, den_i > 0: integers over the
    lcm of the den_i with scores[i] / den = num_i / den_i, so they compare,
    add and tie exactly as the rational values do."""
    den = lcm(*[d for _, d in terms])
    return [n * (den // d) if n else 0 for n, d in terms], den


def class_scores(cls: WeightedClass, word: Word) -> Tuple[list, int]:
    """(scores, den): integers with scores[i] / den = w_i * nu_i(word).

    ``den`` is the lcm of the members' w_den * nu_den over their
    ``exact_ratio`` pairs, so scores compare, add and tie exactly as the
    rational values do.  ``word`` must already be a Word.  The class keeps
    the row of the last word it was asked for, so the next query at that
    word reuses it: callers must not mutate the row.
    """
    last_word, row = cls._last_row
    if last_word == word:
        return row
    row = _build_scores(cls, word)
    cls._last_row = (word, row)
    return row


def _build_scores(cls: WeightedClass, word: Word) -> Tuple[list, int]:
    terms = []
    for m, (w_num, w_den) in zip(cls.models, cls._weight_ratios):
        num, den = m.exact_ratio(word)
        terms.append((w_num * num, w_den * den))
    return common_denominator(terms)


def row_at(cls: WeightedClass, x) -> Tuple[Word, Tuple[list, int]]:
    """(word, class_scores row) at x, validating x only on a miss: an x
    that *is* the kept word was validated when it was kept."""
    kept = cls._last_row
    if x is kept[0]:
        return kept
    word = cls.word(x)
    return word, class_scores(cls, word)


def cursor_scores(weights: Sequence[Fraction], cursors) -> Tuple[list, int]:
    """(scores, den): integers with scores[i] / den = w_i * cursors[i].value."""
    terms = []
    for w, c in zip(weights, cursors):
        v = c.value
        terms.append((w.numerator * v.numerator, w.denominator * v.denominator))
    return common_denominator(terms)


def _map_choice(cls: WeightedClass, x_len: int, scores: list, den: int, tie_break: TieBreak):
    """(index, tie set) of one MAP search on a row at a word of length
    ``x_len``, refused on an open tail."""
    index, tie_set = tie_break.select(scores, cls.weights, x_len)
    if cls.tail_bound is not None:
        check_tail(cls, Fraction(scores[index], den))
    return index, tie_set


def map_estimator(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> MapResult:
    """argmax over the class of w_nu * nu(x) under the tie-break policy."""
    word, (scores, den) = row_at(cls, x)
    index, tie_set = _map_choice(cls, len(word), scores, den, tie_break)
    return MapResult(
        index=index,
        value=Fraction(scores[index], den),
        tied=len(tie_set) > 1,
        tie_set=tie_set,
    )


def two_part_value(cls: WeightedClass, x) -> Fraction:
    """rho(x) = max_nu w_nu * nu(x); independent of tie-breaking."""
    return map_estimator(cls, x, LARGEST_WEIGHT).value


def two_part_value_at(
    cls: WeightedClass,
    chooser,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> Fraction:
    """rho^y(x) = w_{nu^y} * nu^y(x): select at y, evaluate at x.

    The class keeps the choice at its last chooser and tie-break, and a
    chooser whose tail check refuses is not kept.
    """
    kept, kept_tie_break, chosen = cls._last_chooser
    word = chooser if chooser is kept else cls.word(chooser)
    if word != kept or tie_break != kept_tie_break:
        scores, den = _build_scores(cls, word)
        chosen = _map_choice(cls, len(word), scores, den, tie_break)[0]
        cls._last_chooser = (word, tie_break, chosen)
    word = x if x is cls._last_row[0] else cls.word(x)
    num, den = cls.models[chosen].exact_ratio(word)
    w_num, w_den = cls._weight_ratios[chosen]
    return Fraction(w_num * num, w_den * den)


def complexity(cls: WeightedClass, index: int) -> float:
    """Description length -lb(w_nu) of a class member, as a double."""
    return -log2_frac(cls.weights[index])


@dataclass
class EvalStats:
    """Observability counter of the MAP searches done by predictors."""

    map_searches: int = 0


# ----------------------------------------------------------------------
# Named class constructions
# ----------------------------------------------------------------------


def example1_class(n_models: int) -> WeightedClass:
    """N equally weighted deterministic measures.

    nu_i concentrates on 1^(i-1) 0^inf for i = 1..N-1; the true model,
    listed last, concentrates on 1^inf.  Along the true sequence the
    normalized dynamic predictions stay at 1/2 for N-1 steps, so the
    cumulative square error is exactly (N-1)/2.
    """
    from .measures import BINARY, DeterministicModel

    if n_models < 2:
        raise ValueError("need at least two models")
    models = [
        DeterministicModel(preperiod=(1,) * (i - 1), period=(0,), alphabet=BINARY)
        for i in range(1, n_models)
    ]
    models.append(DeterministicModel(preperiod=(), period=(1,), alphabet=BINARY))
    w = Fraction(1, n_models)
    return WeightedClass(models, [w] * n_models, true_index=n_models - 1)


def example3_class() -> WeightedClass:
    """Uniform lambda (weight 2/3) versus leading-one nu (weight 1/3).

    Every string starting with 1 is an exact tie, so predictions that
    depend on the tie-breaking choice expose their instability here.
    The true distribution is lambda.
    """
    from .measures import example3_pair

    lam, nu, w_lam, w_nu = example3_pair()
    return WeightedClass([lam, nu], [w_lam, w_nu], true_index=0)


def example4_class(w_mu=Fraction(1, 2), w_nu=Fraction(1, 2)) -> WeightedClass:
    """The oscillating factorizable pair; true model is mu (index 0)."""
    from .measures import make_example4_pair

    mu, nu = make_example4_pair()
    return WeightedClass([mu, nu], [w_mu, w_nu], true_index=0)


def example5_class() -> WeightedClass:
    """Uniform lambda (3/7) versus the martingale measure (4/7).

    The MAP choice compares f(x) with 3/4 at every step; along alive
    paths f crosses 3/4 at every extension, so the choice never settles.
    """
    from .measures import example5_pair

    lam, nu, w_lam, w_nu = example5_pair()
    return WeightedClass([lam, nu], [w_lam, w_nu], true_index=0)


def bernoulli_class(thetas: Sequence, weights=None, true_index=0) -> WeightedClass:
    """Bernoulli models with success parameters ``thetas`` (symbol 1)."""
    from .measures import IidModel

    models = [IidModel((1 - Fraction(t), Fraction(t))) for t in thetas]
    if weights is None:
        weights = [Fraction(1, len(models))] * len(models)
    return WeightedClass(models, weights, true_index=true_index)


def bernoulli_sharpness_class(n_extra: int) -> WeightedClass:
    """Fair coin plus N parameters 1/2 + 2^-(k+1) crowding it from above.

    Uniform weights 1/(N+1); the true model is the fair coin.  The static
    estimator keeps flirting with the crowding parameters, which is what
    makes its cumulative error exceed the mixture's ln(N+1) budget over
    long horizons.
    """
    thetas = [Fraction(1, 2)] + [
        Fraction(1, 2) + Fraction(1, 2 ** (k + 1)) for k in range(1, n_extra + 1)
    ]
    return bernoulli_class(thetas, true_index=0)
