"""MAP-choice traces along sequences, and when the choice settles down.

For factorizable, uniformly stochastic classes the maximizing element
stabilizes almost surely; the oscillating pairs built in ``measures``
show both ways this can fail (vanishing per-step probabilities, or
history dependence).  Almost-sure statements are not falsifiable at a
finite horizon, so the verdicts here use an explicit finite proxy: a
trace "stabilized" when no change of choice occurs within the final
observation window.  Window and horizon always travel with the verdict.

A trace compares w_nu * nu(x_1:t) across the class at every prefix, as
integer scores, in one loop: at each prefix it reaches it selects the
maximum, refuses an open tail, raises on a zero history and records the
choice; then it makes one exact step or takes a certified run.  An exact
step multiplies the scores by the step's factors scaled to their small
lcm, the stepping of prediction nodes
(:func:`~mdl_lab.measures.step_multipliers`).  Each member's step comes
from its split in ``measures`` (``_integer_parts``), and this module tests
no model or cursor type: a factorizable model's
factor is its step probability, a leaky wrapper multiplies that by its
keep factor 1 - gamma, and the martingale measure's dyadic cursor holds
nu as an integer over a power of two, which joins the scores as a shift.
Each symbol's multipliers (its column) are made once while no member's
step law moves (i.i.d. and dyadic members, step tables run into their
tails).  The scores' common denominator is kept only for the tail
refusal, and only a class with a member that has no cursor of its own
puts the cursor values over one lcm at every prefix.

A certified run needs stationary columns with no dyadic member and no
tail: every member's base is exactly an :class:`~mdl_lab.measures.IidModel`,
under any leaky wrappers.  With S_i = w_i * prod_a m_ia^{n_a} the integer
scores and m_ia member i's multiplier for symbol a, a unique maximum b at
a prefix stays the unique maximum for the next s steps when
s * U_bj <= G_j for every live j != b with U_bj > 0, where

    G_j = bl(S_b) - bl(S_j) - 1,
    U_bj = max over a with m_ba > 0 of bl(m_ja) - bl(m_ba) + 1,

and bl is the bit length.  G_j is a strict lower bound on
log2(S_b / S_j), and a step on a symbol that b gives positive probability
raises log2(S_j / S_b) by less than U_bj, so a j with U_bj <= 0 never
gains.  The run also stops before the next symbol that b gives
probability 0.  The trace then records s unforced choices of b and
multiplies each score by m_ia^{c_a}, with c_a the count of a in the
skipped symbols.  Where there is a tie or no certified step, one exact
step follows; after a failed certificate the next attempt waits 1, 2, 4,
... exact steps, so a class that stays near a tie pays little for the
attempts.

Sampled runs that read nothing but the MAP choice draw each path and its
trace with :func:`sampled_trace`: the stabilization verdicts here, and
the true, static and static_norm Monte-Carlo ledgers of ``metrics`` and
``decisions``.  Those ledgers read each member's conditionals along the
path with :func:`~mdl_lab.measures.step_conditionals` instead of building
a prediction node per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import ZeroHistoryError
from .measures import (
    Word,
    _integer_parts,
    check_samples,
    derived_rng,
    ordered_parallel_map,
    sample_path,
    step_multipliers,
)
from .model_class import (
    LARGEST_WEIGHT,
    TieBreak,
    WeightedClass,
    check_tail,
    common_denominator,
    cursor_scores,
)


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


def map_trace(
    cls: WeightedClass,
    x,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> MapTrace:
    """Exact maximizer index at every prefix of x.

    Agrees with :func:`map_estimator` at every prefix: the same index and
    tie flag, :class:`IndeterminateTailError` where the unmaterialized
    tail could overturn the choice, and :class:`ZeroHistoryError` once
    every member gives the prefix probability zero.  One loop selects,
    checks the tail and the zero history, and records at each prefix it
    reaches, then steps the integer scores (module docstring) by one
    symbol or by a certified run.  Runs are certified only where
    :func:`~mdl_lab.measures._integer_parts` finds every member's base an
    :class:`IidModel` (leaky wrappers allowed) and the class has no tail:
    there a run whose choice a bit-length bound on the scores already
    fixes records the unique maximum, with no tie, and multiplies each
    score by one power per symbol.  Only a class with a member that has
    no cursor of its own reads cursor values.
    """
    word = cls.word(x)
    weights = cls.weights
    tail = cls.tail_bound is not None
    parts = [_integer_parts(m) for m in cls.models]
    generic = None in parts
    if generic:  # cursor values at every prefix
        laws = keeps = dyadic = ()
        cursors = [m.cursor() for m in cls.models]
        products, den = cursor_scores(weights, cursors)
    else:
        laws, keeps, cursors = zip(*parts)
        dyadic = [i for i, c in enumerate(cursors) if c is not None]
        cursors = list(cursors)
        products, den = common_denominator([(w.numerator, w.denominator) for w in weights])
    # A dyadic member's product is kept as products[i] << shifts[i], so the
    # powers of two that its step factors share with the cursor's
    # denominator stay shifts instead of growing the multiplicand.
    shifts = [0] * len(weights)
    # Laws that move with t are read at every step; so is every cursor value
    # of a generic class.
    moving = generic or any(map(callable, laws))
    dists = laws  # each member's step law

    def column(a):
        """(multipliers, lcm) of a step on symbol a under ``dists``."""
        return step_multipliers(
            [d[a] if keep is None else d[a] * keep for d, keep in zip(dists, keeps)]
        )

    # columns[a] is symbol a's (multipliers, lcm) under ``dists``: made once
    # when no law moves, else on first use after the laws change.
    symbols = range(cls.alphabet.size)
    columns = [None] * len(symbols) if moving else [column(a) for a in symbols]
    skipping = not (tail or moving or dyadic)
    if skipping:
        # bits[i][a] = bl(m_ia); rates[b][j] = U_bj, made when b first leads.
        bits = [list(map(int.bit_length, row)) for row in zip(*[c for c, _ in columns])]
        rates: dict = {}
    end = len(word)
    indices: List[int] = []
    ties: List[bool] = []
    t = 0
    wait = 0  # exact steps left before the next certificate attempt
    patience = 1  # the wait after the next failed attempt
    scale = 0  # the dyadic members' largest cursor exponent
    select = tie_break.select
    while True:
        scores = products
        if dyadic:
            scale = max(cursors[i].exponent for i in dyadic)
            scores = [
                s << scale if c is None else s * c.numerator << (sh + scale - c.exponent)
                for s, c, sh in zip(products, cursors, shifts)
            ]
        index, tied = select(scores, weights, t)
        best = scores[index]
        if tail:
            check_tail(cls, Fraction(best, den << scale))
        if not best:
            raise ZeroHistoryError(f"rho = 0 after {t} symbols")
        indices.append(index)
        ties.append(len(tied) > 1)
        if skipping and len(tied) == 1 and not wait and t < end:
            lead = bits[index]
            rate = rates.get(index)
            if rate is None:
                rate = rates[index] = [
                    max(bj - bb for bj, bb in zip(row, lead) if bb) + 1 for row in bits
                ]
            while True:
                top = products[index].bit_length()
                run = end - t
                for j, u in enumerate(rate):
                    s = products[j]
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
                counts = [(col, segment.count(a)) for a, (col, _) in enumerate(columns)]
                for i, s in enumerate(products):
                    if s:
                        factor = 1
                        for col, c in counts:
                            factor *= col[i] ** c
                        products[i] = s * factor
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
        a = word[t]
        t += 1
        if moving:
            if generic:
                cursors = [c.advance(a) for c in cursors]
                products, den = cursor_scores(weights, cursors)
                continue
            now = [law(t) if callable(law) else law for law in laws]
            if now != dists:  # identical objects compare without reading them
                dists = now
                columns = [None] * len(symbols)
            if columns[a] is None:
                columns[a] = column(a)
        multipliers, step_lcm = columns[a]
        products = list(map(mul, products, multipliers))
        if tail:
            den *= step_lcm
        for i in dyadic:
            low = (products[i] & -products[i]).bit_length() - 1
            products[i] >>= low
            shifts[i] += low
            cursors[i] = cursors[i].advance(a)


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


def sampled_trace(
    cls: WeightedClass,
    length: int,
    seed: int,
    index: int,
    tie_break: TieBreak = LARGEST_WEIGHT,
) -> Tuple[Word, MapTrace]:
    """Path ``index`` of a seeded run and its MAP trace.

    ``length`` symbols drawn from the true model with
    ``derived_rng(seed, index)`` (:func:`~mdl_lab.measures.sample_path`),
    and :func:`map_trace` along them.  Every sampled run that reads only
    the MAP choice draws its paths here.
    """
    word = sample_path(cls.true_model, length, derived_rng(seed, index))
    return word, map_trace(cls, word, tie_break)


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
    byte-identical for any worker count.  A negative horizon, a window
    outside 0..horizon, or fewer than one worker is refused before any
    path is drawn.
    """
    check_samples(samples)
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    _check_window(window, horizon)

    def one(i: int) -> StabilizationVerdict:
        return stabilization_verdict(sampled_trace(cls, horizon, seed, i, tie_break)[1], window)

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
    per-step probabilities (no positive bound) leave delta absent.  A
    negative depth is refused.
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
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
