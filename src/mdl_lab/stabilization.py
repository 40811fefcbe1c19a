"""MAP-choice traces along sequences, and when the choice settles down.

For factorizable, uniformly stochastic classes the maximizing element
stabilizes almost surely; the oscillating pairs built in ``measures``
show both ways this can fail (vanishing per-step probabilities, or
history dependence).  Almost-sure statements are not falsifiable at a
finite horizon, so the verdicts here use an explicit finite proxy: a
trace "stabilized" when no change of choice occurs within the final
observation window.  Window and horizon always travel with the verdict.

A trace compares w_nu * nu(x_1:t) across the class at every prefix, as
integer scores over one growing denominator.  Each step multiplies the
scores by the step's factors scaled to their small lcm, the stepping of
prediction nodes (:func:`~mdl_lab.model_class.step_multipliers`): a
factorizable model's factor is its step probability, a leaky wrapper
multiplies that by its keep factor 1 - gamma, and the martingale
measure's dyadic cursor holds nu as an integer over a power of two, which
joins the scores as a shift.  While no member's step distribution
changes (i.i.d. models, step tables run into their tails), each symbol's
multipliers are computed once.  Only a class with a member that has no
cursor of its own puts the cursor values over one lcm at every prefix.

A class of i.i.d. members (exactly :class:`~mdl_lab.measures.IidModel`)
with no tail skips the runs of steps whose choice its scores already
decide.  With S_i = w_i * prod_a m_ia^{n_a} the integer scores and m_ia
member i's multiplier for symbol a, a unique maximum b at a prefix stays
the unique maximum for the next s steps when s * U_bj <= G_j for every
live j != b with U_bj > 0, where

    G_j = bl(S_b) - bl(S_j) - 1,
    U_bj = max over a with m_ba > 0 of bl(m_ja) - bl(m_ba) + 1,

and bl is the bit length.  G_j is a strict lower bound on
log2(S_b / S_j), and a step on a symbol that b gives positive probability
raises log2(S_j / S_b) by less than U_bj, so a j with U_bj <= 0 never
gains.  The run also stops before the next symbol that b gives
probability 0.  The trace then
records s unforced choices of b and multiplies each score by m_ia^{c_a},
with c_a the count of a in the skipped symbols.  Where there is a tie or
no certified step, one exact step follows; after a failed certificate the
next attempt waits 1, 2, 4, ... exact steps, so a class that stays near a
tie pays little for the attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ZeroHistoryError
from .measures import (
    DyadicCursor,
    IidModel,
    LeakySemimeasure,
    Semimeasure,
    Word,
    derived_rng,
    sample_path,
)
from .model_class import (
    LARGEST_WEIGHT,
    TieBreak,
    WeightedClass,
    check_tail,
    common_denominator,
    cursor_scores,
    step_multipliers,
)
from .metrics import check_samples, ordered_parallel_map


@dataclass
class MapTrace:
    """Chosen model index after 0..T observed symbols, with tie flags."""

    indices: List[int]
    tie_flags: List[bool]

    @property
    def horizon(self) -> int:
        return len(self.indices) - 1

    def change_times(self) -> List[int]:
        return [
            t
            for t in range(1, len(self.indices))
            if self.indices[t] != self.indices[t - 1]
        ]


@dataclass
class StabilizationVerdict:
    """Finite-horizon stabilization proxy for one trace.

    ``stabilized_by`` is the last change time when no change falls in the
    final ``window`` steps, else None.  A constant trace stabilized at 0.
    """

    stabilized_by: Optional[int]
    change_count: int
    final_index: int
    horizon: int
    window: int

    @property
    def stabilized(self) -> bool:
        return self.stabilized_by is not None


def _integer_parts(model: Semimeasure):
    """(step rule, keep, dyadic cursor) of one member, or None.

    The member's value factors as nu(x_1:t) = prod_{s<=t} rule(s)[x_s] *
    keep^t * N_t / 2^e_t: ``rule`` is the per-step distribution of a
    factorizable model (None: no such factor), ``keep`` the product of
    the leaky wrappers' 1 - gamma, and N_t / 2^e_t the value of a dyadic
    cursor (None: 1).  Members with neither form give None.
    """
    keep = Fraction(1)
    while isinstance(model, LeakySemimeasure):
        keep *= model.keep
        model = model.base
    if model.is_factorizable:
        return model.step_distribution, keep, None
    cursor = model.cursor()
    if isinstance(cursor, DyadicCursor):
        return None, keep, cursor
    return None


def _weighted_scores(cls: WeightedClass, word: Word) -> Iterator[Tuple[list, int]]:
    """Scores proportional to w_nu * nu(x_1:t) for t = 0..len(word).

    Each item is (scores, denominator), integers with score_i /
    denominator == w_i * nu_i(x_1:t) exactly.  When every member is
    factorizable, dyadic or a leaky wrapper of either, each step
    multiplies the scores by its factors (step probability times keep)
    over their lcm, and a dyadic cursor's numerator joins with the largest
    cursor exponent as one more power of two in the denominator.  Any
    other class puts the cursor values over one lcm at every prefix.
    """
    models, weights = cls.models, cls.weights
    parts = [_integer_parts(m) for m in models]
    if any(p is None for p in parts):
        cursors = [m.cursor() for m in models]
        yield cursor_scores(weights, cursors)
        for a in word:
            cursors = [c.advance(a) for c in cursors]
            yield cursor_scores(weights, cursors)
        return
    rules = [rule for rule, _, _ in parts]
    keeps = [keep for _, keep, _ in parts]
    cursors = [c for _, _, c in parts]
    dyadic = [i for i, c in enumerate(cursors) if c is not None]
    products, den = common_denominator([(w.numerator, w.denominator) for w in weights])
    # A dyadic member's product is kept as products[i] << shifts[i], so the
    # powers of two that its step factors share with the cursor's
    # denominator stay shifts instead of growing the multiplicand.
    shifts = [0] * len(models)
    # Each symbol's (multipliers, lcm), valid while every member's step
    # distribution equals the one they were made for.
    dists = None
    by_symbol: dict = {}

    def scored():
        if not dyadic:
            return products, den
        top = max(cursors[i].exponent for i in dyadic)
        scores = [
            s << top if c is None else s * c.numerator << (sh + top - c.exponent)
            for s, c, sh in zip(products, cursors, shifts)
        ]
        return scores, den << top

    yield scored()
    for t, a in enumerate(word, start=1):
        now = [rule(t) if rule else None for rule in rules]
        if now != dists:  # identical objects compare without reading them
            dists = now
            by_symbol = {}
        step = by_symbol.get(a)
        if step is None:
            factors = [keep if d is None else d[a] * keep for d, keep in zip(dists, keeps)]
            step = by_symbol[a] = step_multipliers(factors)
        multipliers, step_lcm = step
        products = [s * m for s, m in zip(products, multipliers)]
        den *= step_lcm
        for i in dyadic:
            low = (products[i] & -products[i]).bit_length() - 1
            products[i] >>= low
            shifts[i] += low
            cursors[i] = cursors[i].advance(a)
        yield scored()


def _skipping_trace(cls: WeightedClass, word: Word, tie_break: TieBreak) -> MapTrace:
    """:func:`map_trace` of a class of i.i.d. members with no tail.

    Takes one exact step (a multiply per member and a
    :meth:`TieBreak.select`) only where the bit-length certificate of the
    module docstring fixes no run of steps.
    """
    weights = cls.weights
    scores, _ = common_denominator([(w.numerator, w.denominator) for w in weights])
    columns = [
        step_multipliers([m.theta[a] for m in cls.models])[0]
        for a in cls.alphabet.symbols()
    ]
    # bits[i][a] = bl(m_ia); rates[b][j] = U_bj, made when b first leads.
    bits = [[m.bit_length() for m in row] for row in zip(*columns)]
    rates: dict = {}
    end = len(word)
    indices: List[int] = []
    ties: List[bool] = []
    t = 0
    wait = 0  # exact steps left before the next certificate attempt
    patience = 1  # the wait after the next failed attempt
    while True:
        index, tied = tie_break.select(scores, weights, t)
        if not scores[index]:
            raise ZeroHistoryError(f"rho = 0 after {t} symbols")
        indices.append(index)
        ties.append(len(tied) > 1)
        if len(tied) == 1 and not wait and t < end:
            lead = bits[index]
            rate = rates.get(index)
            if rate is None:
                rate = rates[index] = [
                    max(bj - bb for bj, bb in zip(row, lead) if bb) + 1 for row in bits
                ]
            while True:
                top = scores[index].bit_length()
                run = end - t
                for j, u in enumerate(rate):
                    s = scores[j]
                    if u > 0 and s and j != index:
                        run = min(run, (top - s.bit_length() - 1) // u)
                if run <= 0:
                    break
                segment = word[t : t + run]
                for a, bb in enumerate(lead):
                    if not bb and a in segment:  # b gives a probability 0
                        segment = segment[: segment.index(a)]
                run = len(segment)
                if not run:
                    break
                counts = [(col, segment.count(a)) for a, col in enumerate(columns)]
                for i, s in enumerate(scores):
                    if s:
                        factor = 1
                        for col, c in counts:
                            factor *= col[i] ** c
                        scores[i] = s * factor
                indices += [index] * run
                ties += [False] * run
                t += run
                patience = 1
            wait = patience
            patience *= 2
        if t == end:
            return MapTrace(indices, ties)
        if wait:
            wait -= 1
        column = columns[word[t]]
        scores = [s * m for s, m in zip(scores, column)]
        t += 1


def map_trace(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> MapTrace:
    """Exact maximizer index at every prefix of x.

    Agrees with :func:`map_estimator` at every prefix: the same index and
    tie flag, :class:`IndeterminateTailError` where the unmaterialized
    tail could overturn the choice, and :class:`ZeroHistoryError` once
    every member gives the prefix probability zero.  Every prefix is
    compared on exact integers over a common denominator; only a class
    with a member that has no cursor of its own reads cursor values.  A
    class whose members are all :class:`IidModel` and that has no tail
    skips every run of steps whose choice a bit-length bound on its
    scores already fixes (module docstring): it records the unique
    maximum for the whole run, with no tie, and steps its scores by one
    power per member and symbol.
    """
    word = cls.word(x)
    if cls.tail_bound is None and all(type(m) is IidModel for m in cls.models):
        return _skipping_trace(cls, word, tie_break)
    weights = cls.weights
    indices: List[int] = []
    ties: List[bool] = []
    for t, (scores, den) in enumerate(_weighted_scores(cls, word)):
        index, tied = tie_break.select(scores, weights, t)
        best = scores[index]
        if cls.tail_bound is not None:
            check_tail(cls, Fraction(best, den))
        if best == 0:
            raise ZeroHistoryError(f"rho = 0 after {t} symbols")
        indices.append(index)
        ties.append(len(tied) > 1)
    return MapTrace(indices, ties)


def _check_window(window: int, horizon: int) -> None:
    if not 0 <= window <= horizon:
        raise ValueError(f"window {window} is outside 0..{horizon}, the horizon")


def stabilization_verdict(trace: MapTrace, window: int) -> StabilizationVerdict:
    _check_window(window, trace.horizon)
    changes = trace.change_times()
    last = changes[-1] if changes else 0
    stabilized_by = last if last <= trace.horizon - window else None
    return StabilizationVerdict(
        stabilized_by=stabilized_by,
        change_count=len(changes),
        final_index=trace.indices[-1],
        horizon=trace.horizon,
        window=window,
    )


@dataclass
class StabilizationSummary:
    fraction_stabilized: Fraction
    verdicts: List[StabilizationVerdict]
    horizon: int
    window: int
    samples: int
    seed: int


def monte_carlo_stabilization(
    cls: WeightedClass,
    horizon: int,
    samples: int,
    window: int,
    seed: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
    workers: int = 1,
) -> StabilizationSummary:
    """Fraction of true-model paths whose MAP trace stabilizes.

    Per-sample RNGs are derived from (seed, index), so results are
    byte-identical for any worker count.  A negative horizon, or a window
    outside 0..horizon, is refused before any path is drawn.
    """
    check_samples(samples)
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    _check_window(window, horizon)
    mu = cls.true_model

    def one(i: int) -> StabilizationVerdict:
        path = sample_path(mu, horizon, derived_rng(seed, i))
        return stabilization_verdict(map_trace(cls, path, tie_break), window)

    verdicts = ordered_parallel_map(one, range(samples), workers)
    stabilized = sum(1 for v in verdicts if v.stabilized)
    return StabilizationSummary(
        fraction_stabilized=Fraction(stabilized, samples),
        verdicts=verdicts,
        horizon=horizon,
        window=window,
        samples=samples,
        seed=seed,
    )


@dataclass
class ClassProfile:
    """Structural hypothesis check for the stabilization sufficient condition."""

    all_factorizable: bool
    all_measures: bool
    uniform_stochasticity_delta: Optional[Fraction]
    checked_depth: int


def profile_class(cls: WeightedClass, depth: int = 16) -> ClassProfile:
    """Classify the class per the factorizable + uniformly-stochastic test.

    delta is the least declared positive lower bound on nonzero per-step
    probabilities, present only when every model is factorizable and
    declares one; the declared bound is cross-checked against every
    per-step distribution up to ``depth``.  Models with vanishing
    per-step probabilities (no positive bound) leave delta absent.
    """
    all_fact = all(m.is_factorizable for m in cls.models)
    all_meas = all(m.is_proper_measure for m in cls.models)
    delta: Optional[Fraction] = None
    if all_fact:
        declared = [m.step_prob_infimum for m in cls.models]
        if all(d is not None and d > 0 for d in declared):
            delta = min(declared)
            for m in cls.models:
                for i in range(1, depth + 1):
                    dist = m.step_distribution(i)
                    bad = [p for p in dist if 0 < p < delta]
                    if bad:
                        raise AssertionError(
                            f"{m!r} declares infimum {m.step_prob_infimum} but "
                            f"step {i} has probability {bad[0]}"
                        )
    return ClassProfile(
        all_factorizable=all_fact,
        all_measures=all_meas,
        uniform_stochasticity_delta=delta,
        checked_depth=depth,
    )


def hybrid_value_series(
    cls: WeightedClass,
    x,
    tie_break: TieBreak,
) -> List[Fraction]:
    """On-sequence hybrid quotients nu^{x_1:t}(x_1:t) / nu^{x_<t}(x_<t).

    The series whose oscillation separates hybrid from static/dynamic
    under tie rotation.
    """
    word = cls.word(x)
    trace = map_trace(cls, word, tie_break)
    cursors = [m.cursor() for m in cls.models]
    values = []
    for t, a in enumerate(word, start=1):
        den = cursors[trace.indices[t - 1]].value
        cursors = [c.advance(a) for c in cursors]
        values.append(cursors[trace.indices[t]].value / den)
    return values


def alternation_count(series: Sequence[Fraction]) -> int:
    """Number of strict changes between successive values."""
    return sum(1 for a, b in zip(series, series[1:]) if a != b)


def increment_sign_changes(series: Sequence[Fraction]) -> int:
    """Strict sign alternations of successive increments of a series."""
    signs = []
    for a, b in zip(series, series[1:]):
        d = b - a
        if d != 0:
            signs.append(1 if d > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
