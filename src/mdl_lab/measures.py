"""Semimeasures on finite strings and the built-in model families.

A semimeasure assigns each finite string x over a finite alphabet a value
nu(x) in [0, 1] with nu(empty) <= 1 and sum_a nu(xa) <= nu(x); equality in
both makes it a proper measure.  Strings are tuples of symbols 0..k-1;
helpers accept ASCII digit strings like "110" as well.

All built-in families evaluate to exact rationals, and each is defined
once.  i.i.d., deterministic and general factorizable models are products
of per-step distributions given by ``step_distribution``; one cursor
serves all three, and their laws are plain data, so every built-in model
pickles.  The martingale measure is defined by its cursor, which also
gives its values.  The leaky wrapper scales any base by a keep factor per
step.

A value at one string is computed on integers: ``exact_ratio(x)`` returns
(num, den), not necessarily in lowest terms, with num/den = nu(x).  An
i.i.d. model and a step table keep each law, beside the Fractions that
``step_distribution`` returns, as an integer law (nums, den) =
``step_multipliers(law)``: den is the lcm of the reduced denominators and
nums[a] / den is the probability of symbol a.  The constructors build
these once and check the law on them: one entry per symbol, none
negative, sum(nums) == den.
Step tables multiply the nums and dens of their steps, i.i.d. models
raise each nums[a] to the count of a over den^len(x), formula models
(example 4) multiply their steps' Fractions, deterministic models compare
x with their target, and the leaky wrapper multiplies its base's pair by
keep^len(x), with keep kept as an integer pair; each of these reads
``evaluate_exact`` as ``Fraction(*exact_ratio(x))``.  Any other
semimeasure gets the pair from ``evaluate_exact``, which by default reads
the cursor.  Every built-in family's ``exact_ratio``, ``evaluate_exact``
and cursor ``advance`` raise AlphabetMismatchError for a symbol outside
the alphabet: cursors and factorizable products compare each symbol they
already read, i.i.d. models compare the sum of their symbol counts with
len(x), and deterministic models scan x for its least and greatest symbol
only on a miss.

A cursor is an O(1)-per-step incremental evaluator used by tree walks and
prediction nodes; it only steps forward, so callers read nu(xa) from the
child they step to and evaluate each prefix once.  A factorizable or
leaky cursor also reports the exact factor of its last step, so
prediction nodes step on small step probabilities and never divide two
values; its own value is an unreduced integer pair made a Fraction only
when read.  ``evaluate_exact`` and ``conditional_exact`` read the same
definition.

How a member takes its next step is decided here alone: MAP traces step
on :func:`_integer_parts`, and :func:`step_conditionals` reads from it
the conditionals that sampled ledgers and :func:`sample_path` read, so a
factorizable truth draws from its step laws and advances no cursor.
:func:`step_multipliers` is the one integer form of a law, which the
constructors, the draws, prediction nodes and MAP traces read.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .errors import AlphabetMismatchError, SamplingError

Word = tuple  # tuple of int symbols

EMPTY: Word = ()


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet size must be at least 2")

    def symbols(self) -> range:
        return range(self.size)

    def word(self, x) -> Word:
        """Normalize a string spec ("110", iterable of ints) to a Word.

        A symbol that is not an integer, or lies outside the alphabet,
        raises AlphabetMismatchError.
        """
        if isinstance(x, tuple):
            size = self.size
            for s in x:
                if not (isinstance(s, int) and 0 <= s < size):
                    break
            else:
                return x  # one pass: every symbol is an in-range int
        w = tuple(_symbol(s) for s in x)
        for s in w:
            if not 0 <= s < self.size:
                raise _outside_alphabet(s, self.size)
        return w

    def format(self, w: Word) -> str:
        return "".join(str(s) for s in w)


BINARY = Alphabet(2)


def _symbol(s) -> int:
    """A symbol as an int: an integral number, or a digit of a string spec."""
    try:
        value = int(s)
    except (TypeError, ValueError):
        value = None
    if value is None or (value != s and not isinstance(s, str)):
        raise AlphabetMismatchError(f"symbol {s!r} is not an integer")
    return value


def _outside_alphabet(symbol: int, size: int) -> AlphabetMismatchError:
    return AlphabetMismatchError(f"symbol {symbol} outside alphabet of size {size}")


class SemimeasureCursor:
    """Incremental evaluator positioned at some prefix.

    Four members: ``value`` is nu(prefix); ``advance(a)`` returns a new
    immutable cursor one symbol deeper, whose ``value`` is nu(prefix + (a,)),
    so a caller that needs a child's value keeps that child; ``factor`` is
    the exact factor nu(prefix) / nu(prefix[:-1]) of the last step, or None
    when the cursor does not know it without dividing; ``state_key()`` is a
    hashable summary of the state.  Two cursors of one model at one depth
    with equal keys have equal ``value``, and advancing both by the same
    symbol gives equal keys again, so their subtrees are identical.  Lumped
    tree walks merge prefixes on these keys.

    A factorizable cursor's factor is the step probability, a leaky
    cursor's is its base's times keep, and a cursor below a prefix of
    value 0 has factor 0 and reads no distribution.  Root, generic and
    dyadic cursors give None, and their callers divide values instead.
    """

    __slots__ = ()

    factor: Optional[Fraction] = None

    @property
    def value(self) -> Fraction:
        raise NotImplementedError

    def advance(self, a: int) -> "SemimeasureCursor":
        raise NotImplementedError

    def state_key(self):
        raise NotImplementedError


class Semimeasure:
    """Abstract evaluatable semimeasure."""

    alphabet: Alphabet
    is_proper_measure: bool = False

    # -- evaluation ----------------------------------------------------

    def evaluate_exact(self, x: Word) -> Fraction:
        """nu(x), read from :meth:`cursor` advanced along x.

        A subclass defines :meth:`cursor` or :meth:`evaluate_exact`; each
        default is built on the other.
        """
        if type(self).cursor is Semimeasure.cursor:
            raise NotImplementedError(
                f"{type(self).__name__} must define cursor() or evaluate_exact()"
            )
        return _advance_along(self.cursor(), x).value

    def exact_ratio(self, x: Word) -> tuple:
        """(num, den), non-negative integers with den > 0 and num/den = nu(x).

        Neither need be in lowest terms.  This default reads
        :meth:`evaluate_exact`; the built-in families compute the pair on
        integers and read their ``evaluate_exact`` from it.
        """
        value = self.evaluate_exact(x)
        return value.numerator, value.denominator

    def evaluate(self, x) -> Fraction:
        return self.evaluate_exact(self.alphabet.word(x))

    def conditional_exact(self, a: int, x: Word) -> Fraction:
        """nu(xa)/nu(x), defined as 0 when nu(x) = 0."""
        vx = self.evaluate_exact(x)
        if vx == 0:
            return Fraction(0)
        return self.evaluate_exact(x + (a,)) / vx

    def conditional(self, a: int, x) -> Fraction:
        return self.conditional_exact(a, self.alphabet.word(x))

    # -- structure -----------------------------------------------------

    def cursor(self) -> SemimeasureCursor:
        return _GenericCursor(self, EMPTY)

    def step_distribution(self, i: int) -> Optional[Sequence[Fraction]]:
        """Per-step symbol distribution at step i (1-based) if factorizable."""
        return None

    @property
    def is_factorizable(self) -> bool:
        return self.step_distribution(1) is not None

    @property
    def step_prob_infimum(self) -> Optional[Fraction]:
        """Positive lower bound on all nonzero per-step probabilities, if any.

        None means "not factorizable" or "no positive bound exists".
        """
        return None

    def describe(self) -> str:
        return repr(self)


def _advance_along(cursor: SemimeasureCursor, x: Word) -> SemimeasureCursor:
    for a in x:
        cursor = cursor.advance(a)
    return cursor


class _GenericCursor(SemimeasureCursor):
    __slots__ = ("_model", "_prefix", "_value")

    def __init__(self, model: Semimeasure, prefix: Word):
        self._model = model
        self._prefix = prefix
        self._value = model.evaluate_exact(prefix)

    @property
    def value(self) -> Fraction:
        return self._value

    def advance(self, a: int) -> "_GenericCursor":
        return _GenericCursor(self._model, self._prefix + (a,))

    def state_key(self):
        return self._prefix  # nothing is known about the model: never merge


# ----------------------------------------------------------------------
# Factorizable models: i.i.d., deterministic and general per-step products
# ----------------------------------------------------------------------


class FactorizableModel(Semimeasure):
    """Product of per-step symbol distributions mu_1, mu_2, ...

    The model is plain data: a finite table of per-step distributions
    (steps 1..len(steps)) followed by an i.i.d. ``tail``, validated once
    and stored as tuples of Fractions and as integer laws (nums, den) that
    ``exact_ratio`` reads, so every step is a lookup and the model
    pickles.  ``step_prob_infimum`` is the least nonzero probability
    of the table and tail.  Subclasses whose law is a formula in the step
    (i.i.d., deterministic, the example-4 pair) keep that formula's
    parameters as fields and override :meth:`step_distribution` and the
    infimum instead; an infimum of ``None`` means no positive bound exists.
    """

    is_proper_measure = True

    def __init__(
        self,
        alphabet: Alphabet,
        steps: Sequence[Sequence],
        tail: Sequence,
        name: str = "factorizable",
    ):
        table = tuple(tuple(Fraction(p) for p in dist) for dist in steps)
        tail = tuple(Fraction(p) for p in tail)
        laws = []
        for dist in table + (tail,):
            nums, den = law = step_multipliers(dist)
            if len(dist) != alphabet.size or sum(nums) != den or min(nums) < 0:
                raise ValueError(f"invalid per-step distribution {dist}")
            laws.append(law)
        self.alphabet = alphabet
        self._steps = table
        self._tail = tail
        self._tail_law = laws.pop()
        self._step_laws = tuple(laws)
        self._infimum = min(p for dist in table + (tail,) for p in dist if p > 0)
        self._name = name

    @classmethod
    def from_steps(
        cls,
        alphabet: Alphabet,
        steps: Sequence[Sequence],
        tail: Sequence,
        name: str = "factorizable",
    ) -> "FactorizableModel":
        """The model of a step table followed by an i.i.d. tail."""
        return cls(alphabet, steps, tail, name)

    def step_distribution(self, i: int) -> Sequence[Fraction]:
        return self._steps[i - 1] if i <= len(self._steps) else self._tail

    def evaluate_exact(self, x: Word) -> Fraction:
        return Fraction(*self.exact_ratio(x))

    def exact_ratio(self, x: Word) -> tuple:
        """prod_i nums_i[x_i] over prod_i den_i, read off the integer laws."""
        size = self.alphabet.size
        table = self._step_laws
        num = den = 1
        for (nums, d), s in zip(table, x):
            if not 0 <= s < size:
                raise _outside_alphabet(s, size)
            num *= nums[s]
            den *= d
        nums, d = self._tail_law
        rest = x[len(table):]
        for s in rest:
            if not 0 <= s < size:
                raise _outside_alphabet(s, size)
            num *= nums[s]
        return (num, den * d ** len(rest)) if num else (0, 1)

    def cursor(self) -> SemimeasureCursor:
        return _FactorizableCursor(self.step_distribution, self.alphabet.size, 0, 1, 1, None)

    @property
    def step_prob_infimum(self) -> Optional[Fraction]:
        return self._infimum

    def __repr__(self) -> str:
        return self._name


def step_multipliers(factors: Sequence[Fraction]) -> Tuple[list, int]:
    """(multipliers, step): the exact factors as integers over one denominator.

    ``step`` is the lcm of the factors' reduced denominators and
    multipliers[i] = factors[i] * step.  A law's integer form (nums, den),
    the draws' cumulative numerators, and one step of a score row all read
    it: scores[i] * multipliers[i] over den * step equal scores[i] / den *
    factors[i], so a row's denominator grows only by the step's small lcm
    and no big number is divided.
    """
    # A list, not a generator: ``lcm(*generator)`` resizes a fresh argument
    # tuple each call, and every such tuple stays on the interpreter's tuple
    # free list, which then grows by one tuple per step of a long path (up
    # to its cap of 2000 tuples per size).
    step = lcm(*[f.denominator for f in factors])
    return [f.numerator * (step // f.denominator) for f in factors], step


def _product_ratio(dists, x: Word, size: int) -> tuple:
    """prod_i dists[i][x_i]: one distribution per symbol of x."""
    num = den = 1
    for dist, s in zip(dists, x):
        if not 0 <= s < size:
            raise _outside_alphabet(s, size)
        p = dist[s]
        num *= p.numerator
        den *= p.denominator
    return (num, den) if num else (0, 1)


_ZERO = Fraction(0)


class _FactorizableCursor(SemimeasureCursor):
    """nu(prefix) = num / den, an unreduced product of step probabilities.

    ``factor`` is the last step probability; the Fraction ``value`` is
    built and kept on first read.
    """

    __slots__ = ("_step_distribution", "_size", "_step", "_num", "_den", "factor", "_value")

    def __init__(self, step_distribution, size: int, step: int, num: int, den: int, factor):
        self._step_distribution = step_distribution  # the model's bound method
        self._size = size  # the alphabet's: a dead cursor reads no distribution
        self._step = step
        self._num = num
        self._den = den
        self.factor = factor
        self._value = None

    @property
    def value(self) -> Fraction:
        value = self._value
        if value is None:
            value = self._value = Fraction(self._num, self._den)
        return value

    def advance(self, a: int) -> "_FactorizableCursor":
        size = self._size
        if not 0 <= a < size:
            raise _outside_alphabet(a, size)
        step = self._step + 1
        p = self._step_distribution(step)[a] if self._num else _ZERO
        if not p:
            return _FactorizableCursor(self._step_distribution, size, step, 0, 1, p)
        return _FactorizableCursor(
            self._step_distribution, size, step,
            self._num * p.numerator, self._den * p.denominator, p,
        )

    def state_key(self):
        return self.value  # the step is the depth


class IidModel(FactorizableModel):
    """Product measure of a fixed rational symbol distribution."""

    def __init__(self, theta: Iterable, alphabet: Alphabet | None = None):
        theta = tuple(Fraction(t) for t in theta)
        if alphabet is None:
            alphabet = Alphabet(len(theta))
        if len(theta) != alphabet.size:
            raise ValueError("theta length must match alphabet size")
        nums, den = law = step_multipliers(theta)
        if min(nums) < 0:
            raise ValueError("theta components must be nonnegative")
        if sum(nums) != den:
            raise ValueError("theta must sum to exactly 1")
        self.alphabet = alphabet
        self.theta = theta
        self._law = law

    def step_distribution(self, i: int) -> Sequence[Fraction]:
        return self.theta

    def exact_ratio(self, x: Word) -> tuple:
        """prod_a nums[a]^count_a over den^len(x), one power per symbol count."""
        nums, den = self._law
        num = 1
        counted = 0
        for a, p in enumerate(nums):
            count = x.count(a)
            if count:
                counted += count
                num *= p**count
        if counted != len(x):  # a symbol no count saw would drop out of the product
            raise AlphabetMismatchError(
                f"{x} has a symbol outside alphabet of size {len(nums)}"
            )
        return (num, den ** len(x)) if num else (0, 1)

    @property
    def step_prob_infimum(self) -> Optional[Fraction]:
        nonzero = [t for t in self.theta if t > 0]
        return min(nonzero)

    def __repr__(self) -> str:
        return f"iid({','.join(str(t) for t in self.theta)})"


class DeterministicModel(FactorizableModel):
    """Point mass on an eventually periodic infinite sequence.

    nu(x) = 1 if x is a prefix of preperiod + period^infinity, else 0.
    """

    def __init__(self, preperiod, period, alphabet: Alphabet = BINARY):
        self.alphabet = alphabet
        self.preperiod = alphabet.word(preperiod)
        self.period = alphabet.word(period)
        if not self.period:
            raise ValueError("period must be nonempty")
        # The point mass on each symbol, indexed by the target symbol.
        self._point_masses = tuple(
            tuple(Fraction(int(a == target)) for a in alphabet.symbols())
            for target in alphabet.symbols()
        )

    def target_symbol(self, i: int) -> int:
        """Symbol at position i (0-based) of the target sequence."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def step_distribution(self, i: int) -> Sequence[Fraction]:
        return self._point_masses[self.target_symbol(i - 1)]

    def exact_ratio(self, x: Word) -> tuple:
        pre, period = self.preperiod, self.period
        rest = len(x) - len(pre)
        if rest <= 0:
            hit = x == pre[: len(x)]
        else:
            target = pre + period * (rest // len(period) + 1)
            hit = x == target[: len(x)]
        if hit:
            return 1, 1
        low, high = min(x), max(x)  # a miss can hide a symbol outside the alphabet
        if low < 0 or high >= self.alphabet.size:
            raise _outside_alphabet(low if low < 0 else high, self.alphabet.size)
        return 0, 1

    @property
    def step_prob_infimum(self) -> Fraction:
        return Fraction(1)

    def __repr__(self) -> str:
        pre = self.alphabet.format(self.preperiod)
        per = self.alphabet.format(self.period)
        return f"det({pre}({per})^inf)"


# ----------------------------------------------------------------------
# Oscillating-martingale measure
# ----------------------------------------------------------------------


class DyadicCursor(SemimeasureCursor):
    """Cursor whose value is an integer numerator over a power of two.

    ``numerator`` and ``exponent`` give nu(prefix) = numerator / 2^exponent
    exactly, so traces can compare such values on integers without
    normalizing Fractions.
    """

    __slots__ = ()

    numerator: int
    exponent: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)


def _martingale_children(big_f: int, dead: bool, parent_len: int):
    """(F(x0), F(x1), dead(x0), dead(x1)) for a node x of length parent_len.

    F is f scaled to an integer: f(x) = F(x) / 2^(len(x)+2).  For children
    of length n below an alive x, f(x) > 3/4 (F(x) > 3*2^(n-1)) sets
    f(x0) = 3/4 - 2^-(n+2), i.e. F(x0) = 3*2^n - 1, and otherwise
    f(x1) = 3/4 + 2^-(n+2), i.e. F(x1) = 3*2^n + 1; the other child gets
    2f(x) minus that, i.e. F = 4F(x) minus it.  A child dies when it falls
    below the floor 3/8 + 2^-(n+4) needed to extend it once more,
    4F < 3*2^(n+1) + 1.  As 4F is a multiple of 4, that is F <= 3*2^(n-1),
    the same bound as the 3/4 test of the parent.  Dead subtrees freeze f,
    so F doubles per level.
    """
    if dead:
        frozen = 2 * big_f
        return frozen, frozen, True, True
    bound = 3 << parent_len  # f(x) = 3/4 for the parent, 3/8 for a child
    if big_f > bound:
        f0 = (bound << 1) - 1
        f1 = 4 * big_f - f0
    else:
        f1 = (bound << 1) + 1
        f0 = 4 * big_f - f1
    return f0, f1, f0 <= bound, f1 <= bound


class OscillatingMartingaleMeasure(Semimeasure):
    """Binary measure nu(x) = f(x) * 2^-len(x) for a martingale f.

    f(empty) = 1 and f(x) = (f(x0) + f(x1)) / 2 exactly at every node;
    along alive paths f converges to 3/4 while crossing it at every step,
    so the ratio of nu to the uniform measure oscillates forever.  Nodes
    whose value falls below the per-depth floor are "dead": their value
    freezes on the whole subtree.  All values are dyadic rationals: f at
    length n is kept as the integer F = f * 2^(n+2), so nu(x) is
    F / 2^(2n+2) and every step of the construction is an integer shift,
    add or compare.
    """

    alphabet = BINARY
    is_proper_measure = True

    def f_value(self, x) -> Fraction:
        return _advance_along(self.cursor(), self.alphabet.word(x)).f_value

    def is_dead(self, x) -> bool:
        return _advance_along(self.cursor(), self.alphabet.word(x)).dead

    def cursor(self) -> SemimeasureCursor:
        return _MartingaleCursor(4, False, 0)

    def dead_mass_by_depth(self, depth: int) -> list:
        """Uniform-measure mass of dead nodes at each length 0..depth.

        Aggregates nodes by (F, dead flag), with each level's mass held as
        an integer over 2^length; the construction admits only O(depth)
        distinct values per level, so this runs in O(depth^2) integer
        operations independent of the 2^depth node count.
        """
        level = {(4, False): 1}
        masses = [Fraction(0)]
        for length in range(1, depth + 1):
            nxt: dict = {}
            for (big_f, dead), mass in level.items():
                f0, f1, d0, d1 = _martingale_children(big_f, dead, length - 1)
                for key in ((f0, d0), (f1, d1)):
                    nxt[key] = nxt.get(key, 0) + mass
            level = nxt
            dead_mass = sum(m for (_, d), m in level.items() if d)
            masses.append(Fraction(dead_mass, 1 << length))
        return masses

    def __repr__(self) -> str:
        return "martingale_measure"


class _MartingaleCursor(DyadicCursor):
    """nu(x) = F / 2^(2n+2) at length n, with F = f(x) * 2^(n+2).

    The first ``advance`` computes both children's (F, dead) and keeps
    them, so advancing one node by 0 and by 1 computes them once.
    """

    __slots__ = ("_f", "_dead", "_len", "_children")

    def __init__(self, big_f: int, dead: bool, length: int):
        self._f = big_f
        self._dead = dead
        self._len = length
        self._children = None

    @property
    def numerator(self) -> int:
        return self._f

    @property
    def exponent(self) -> int:
        return 2 * self._len + 2

    @property
    def f_value(self) -> Fraction:
        return Fraction(self._f, 1 << (self._len + 2))

    @property
    def dead(self) -> bool:
        return self._dead

    def advance(self, a: int) -> "_MartingaleCursor":
        children = self._children
        if children is None:
            children = self._children = _martingale_children(
                self._f, self._dead, self._len
            )
        f0, f1, d0, d1 = children
        if a == 0:
            return _MartingaleCursor(f0, d0, self._len + 1)
        if a == 1:
            return _MartingaleCursor(f1, d1, self._len + 1)
        raise _outside_alphabet(a, 2)

    def state_key(self):
        return (self._f, self._dead)  # at one length, a bijection of (f, dead)


# ----------------------------------------------------------------------
# Leaky wrapper
# ----------------------------------------------------------------------


class LeakySemimeasure(Semimeasure):
    """Strict semimeasure: a per-step multiplicative leak over a base model.

    nu(x) = base(x) * (1 - gamma)^len(x), so sum_a nu(xa) =
    (1 - gamma) * nu(x) at every node with base a measure.
    """

    is_proper_measure = False

    def __init__(self, base: Semimeasure, leak: Fraction):
        leak = Fraction(leak)
        if not 0 < leak < 1:
            raise ValueError("leak must lie strictly between 0 and 1")
        self.alphabet = base.alphabet
        self.base = base
        self.leak = leak
        self.keep = keep = 1 - leak
        self._keep_ratio = keep.numerator, keep.denominator

    def evaluate_exact(self, x: Word) -> Fraction:
        return Fraction(*self.exact_ratio(x))

    def exact_ratio(self, x: Word) -> tuple:
        num, den = self.base.exact_ratio(x)
        if not num:
            return 0, 1
        n = len(x)
        keep_num, keep_den = self._keep_ratio
        return num * keep_num**n, den * keep_den**n

    def cursor(self) -> SemimeasureCursor:
        return _LeakyCursor(self.keep, self.base.cursor(), 0, None)

    def __repr__(self) -> str:
        return f"leaky({self.base!r},gamma={self.leak})"


class _LeakyCursor(SemimeasureCursor):
    """nu(prefix) = base(prefix) * keep^depth, built and kept on first read."""

    __slots__ = ("_keep", "_base", "_depth", "factor", "_value")

    def __init__(self, keep: Fraction, base: SemimeasureCursor, depth: int, factor):
        self._keep = keep
        self._base = base
        self._depth = depth
        self.factor = factor
        self._value = None

    @property
    def value(self) -> Fraction:
        value = self._value
        if value is None:
            value = self._value = self._base.value * self._keep**self._depth
        return value

    def advance(self, a: int) -> "_LeakyCursor":
        base = self._base.advance(a)
        factor = base.factor
        if factor is not None:
            factor = factor * self._keep
        return _LeakyCursor(self._keep, base, self._depth + 1, factor)

    def state_key(self):
        return self._base.state_key()  # the scale is fixed by the depth


# ----------------------------------------------------------------------
# Structural checks and sampling
# ----------------------------------------------------------------------


@dataclass
class SemimeasureCheck:
    """Result of a finite-depth semimeasure verification."""

    passed: bool
    all_equalities: bool
    nodes_checked: int
    violation_at: Optional[Word] = None
    detail: str = ""


def check_semimeasure(model: Semimeasure, depth: int) -> SemimeasureCheck:
    """Verify nu(empty) <= 1 and sum_a nu(xa) <= nu(x) for all len(x) < depth.

    Proper measures must satisfy both with equality.  Runs in exact
    arithmetic and reports the first violating node.  Zero-valued nodes
    are verified to have all-zero children, then not descended further.
    A depth below 1 checks no node and is refused.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    k = model.alphabet.size
    root = model.cursor()
    if root.value > 1:
        return SemimeasureCheck(False, False, 1, EMPTY, f"nu(empty)={root.value} > 1")
    if model.is_proper_measure and root.value != 1:
        return SemimeasureCheck(
            False, False, 1, EMPTY, f"measure with nu(empty)={root.value} != 1"
        )
    all_eq = True
    nodes = 0
    stack = [(EMPTY, root)]
    while stack:
        x, cur = stack.pop()
        nodes += 1
        children = [cur.advance(a) for a in range(k)]
        total = sum(child.value for child in children)
        if total > cur.value:
            return SemimeasureCheck(
                False, False, nodes, x, f"sum of children {total} > nu(x)={cur.value}"
            )
        if total < cur.value:
            all_eq = False
            if model.is_proper_measure:
                return SemimeasureCheck(
                    False,
                    False,
                    nodes,
                    x,
                    f"measure with children sum {total} < nu(x)={cur.value}",
                )
        if len(x) + 1 < depth:
            for a, child in enumerate(children):
                if child.value > 0:
                    stack.append((x + (a,), child))
    return SemimeasureCheck(True, all_eq, nodes)


def derived_rng(seed: int, index: int) -> random.Random:
    """Stream-stable RNG for sample `index` of a seeded run.

    String seeding hashes with SHA-512 internally, so the stream does not
    depend on PYTHONHASHSEED or the process drawing it.
    """
    return random.Random(f"mdl-lab:{seed}:{index}")


def check_samples(samples: int) -> None:
    """Refuse a Monte-Carlo run of fewer than one sampled path."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def ordered_parallel_map(fn, items, workers: int):
    """``[fn(i) for i in items]`` in the calling thread, for any worker
    count; fewer than one worker is refused before any item runs."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return [fn(i) for i in items]


def sample_sequence(model: Semimeasure, n: int, seed: int) -> Word:
    """Draw x_{1:n} with probability exactly nu(x_{1:n}); seed-reproducible."""
    return sample_path(model, n, derived_rng(seed, 0))


def _integer_parts(model: Semimeasure):
    """(law, keep, dyadic cursor) of one member, or None.

    The member's value factors as nu(x_1:t) = prod_{s<=t} law_s[x_s] *
    keep^t * N_t / 2^e_t.  ``law`` is the distribution itself for an
    :class:`IidModel` base, the per-step rule (a callable of s) of any
    other factorizable base, and all ones for a dyadic base; ``keep`` is
    the product of the leaky wrappers' 1 - gamma (None: no wrapper);
    N_t / 2^e_t is the value of a dyadic cursor (None: 1).  Members with
    neither form give None, and a member without a cursor of its own gives
    None without building one, which would evaluate its empty word.
    """
    keep = None
    while isinstance(model, LeakySemimeasure):
        keep = model.keep if keep is None else keep * model.keep
        model = model.base
    if type(model) is IidModel:
        return model.theta, keep, None
    if model.is_factorizable:
        return model.step_distribution, keep, None
    if type(model).cursor is Semimeasure.cursor:
        return None
    cursor = model.cursor()
    if isinstance(cursor, DyadicCursor):
        return (1,) * model.alphabet.size, keep, cursor
    return None


def step_conditionals(model: Semimeasure, word: Word) -> Callable[[int], Sequence]:
    """``read(t)``: nu(a | word[:t]) for every symbol a, for t = 0, 1, ... in order.

    The values a prediction node's conditionals of the member take at that
    prefix, read where nu(word[:t]) > 0 without building a node; ``word``
    may grow between reads, as a draw appends to it.  A factorizable member
    (:func:`_integer_parts`) reads its step law at t + 1, times its keep
    under leaky wrappers; a law that does not move gives the same object at
    every t.  Any other member steps one cursor of its own along the word
    and divides its children's values by its own, and a prefix of value 0
    raises SamplingError.
    """
    parts = _integer_parts(model)
    if parts is not None and parts[2] is None:
        law, keep, _ = parts
        if not callable(law):
            row = law if keep is None else tuple([p * keep for p in law])
            return lambda t: row
        if keep is None:
            return lambda t: law(t + 1)
        return lambda t: tuple([p * keep for p in law(t + 1)])
    symbols = model.alphabet.symbols()
    cursor, at, children = model.cursor(), 0, None

    def read_cursor(t: int) -> Sequence:
        nonlocal cursor, at, children
        while at < t:
            cursor = children[word[at]] if children else cursor.advance(word[at])
            children = None
            at += 1
        if children is None:
            children = [cursor.advance(a) for a in symbols]
        base = cursor.value
        if not base:
            raise SamplingError("cannot sample beyond a zero-probability prefix")
        return [c.value / base for c in children]

    return read_cursor


def _draw_exact(probs, rng: random.Random) -> int:
    """Inverse-CDF draw with one integer uniform on a common denominator:
    the first symbol whose cumulative numerator exceeds the draw."""
    nums, den = step_multipliers(probs)
    a = bisect_right(list(accumulate(nums)), rng.randrange(den))
    if a == len(nums):
        raise SamplingError("conditional probabilities sum to less than 1")
    return a


def sample_path(model: Semimeasure, n: int, rng: random.Random) -> Word:
    """Draw x_{1:n} exactly; a strict semimeasure is refused at every n.

    Each symbol is one integer uniform on the lcm of the reduced
    conditionals' denominators (:func:`_draw_exact`), which
    :func:`step_conditionals` reads along the symbols drawn so far.  A law
    that never moves (an i.i.d. model) makes its denominator and
    cumulative numerators once, for the same draws; its last cumulative
    numerator is the denominator, so no draw overruns.  A negative ``n``
    is refused.
    """
    if n < 0:
        raise ValueError(f"path length must be at least 0, got {n}")
    if not model.is_proper_measure:
        raise SamplingError("sampling requires a proper measure")
    parts = _integer_parts(model)
    if parts is not None and parts[2] is None and not callable(parts[0]):
        nums, den = step_multipliers(parts[0])
        cumulative = list(accumulate(nums))
        draw, first_above = rng.randrange, bisect_right
        return tuple([first_above(cumulative, draw(den)) for _ in range(n)])
    out: list = []
    read = step_conditionals(model, out)
    for t in range(n):
        out.append(_draw_exact(read(t), rng))
    return tuple(out)


# ----------------------------------------------------------------------
# Named constructions
# ----------------------------------------------------------------------


class OscillatingStepModel(FactorizableModel):
    """Example 4's factorizable rule, symbol 1 at step i with probability
    1 - 2^-(2*ceil((i + shift)/2) - shift).

    Shift 0 gives mu and shift 1 gives nu of :func:`make_example4_pair`.
    The probability of symbol 0 tends to zero, so no positive infimum
    exists.
    """

    _infimum = None

    def __init__(self, shift: int, name: str):
        self.alphabet = BINARY
        self.shift = shift
        self._name = name

    def step_distribution(self, i: int) -> Sequence[Fraction]:
        zero = Fraction(1, 1 << (2 * ((i + 1 + self.shift) // 2) - self.shift))
        return (zero, 1 - zero)

    def exact_ratio(self, x: Word) -> tuple:
        steps = map(self.step_distribution, range(1, len(x) + 1))
        return _product_ratio(steps, x, self.alphabet.size)


def make_example4_pair() -> tuple:
    """Factorizable pair (mu, nu) whose likelihood ratio oscillates forever.

    mu_i(1) = 1 - 2^(-2*ceil(i/2)) and nu_i(1) = 1 - 2^(-2*ceil((i+1)/2)+1).
    Both put positive mass on the all-ones sequence, the per-step
    probabilities of symbol 0 tend to zero (so no positive uniform
    stochasticity bound exists), and nu/mu along 1^t rises at even t and
    falls at odd t.
    """
    return OscillatingStepModel(0, "osc_mu"), OscillatingStepModel(1, "osc_nu")


def example3_pair() -> tuple:
    """(lambda, nu, w_lambda, w_nu): the tie construction.

    lambda is uniform; nu forces a leading 1 and is uniform afterwards.
    With weights 2/3 and 1/3 every string starting with 1 is an exact tie.
    """
    lam = IidModel((Fraction(1, 2), Fraction(1, 2)))
    nu = FactorizableModel.from_steps(
        BINARY,
        steps=[(Fraction(0), Fraction(1))],
        tail=(Fraction(1, 2), Fraction(1, 2)),
        name="one_then_uniform",
    )
    return lam, nu, Fraction(2, 3), Fraction(1, 3)


def example5_pair() -> tuple:
    """(lambda, martingale measure, w_lambda=3/7, w_nu=4/7)."""
    lam = IidModel((Fraction(1, 2), Fraction(1, 2)))
    nu = OscillatingMartingaleMeasure()
    return lam, nu, Fraction(3, 7), Fraction(4, 7)
