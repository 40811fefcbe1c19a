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
(num, den), not necessarily in lowest terms, with num/den = nu(x).
Factorizable models multiply the numerators and denominators of their
steps, i.i.d. models raise theta's to the symbol counts, deterministic
models compare x with their target, and the leaky wrapper multiplies its
base's pair by keep^len(x); each of these reads ``evaluate_exact`` as
``Fraction(*exact_ratio(x))``.  Any other semimeasure gets the pair from
``evaluate_exact``, which by default reads the cursor.  Every built-in
family's ``exact_ratio``, ``evaluate_exact`` and cursor ``advance`` raise
AlphabetMismatchError for a symbol outside the alphabet: cursors and
factorizable products compare each symbol they already read, i.i.d.
models compare the sum of their symbol counts with len(x), and
deterministic models scan x for its least and greatest symbol only on
a miss.

A cursor is an O(1)-per-step incremental evaluator used by tree walks,
samplers and Monte-Carlo traces; it only steps forward, so callers read
nu(xa) from the child they step to and evaluate each prefix once.
``evaluate_exact`` and ``conditional_exact`` read the same definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

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
        """Normalize a string spec ("110", iterable of ints) to a Word."""
        if isinstance(x, tuple):
            size = self.size
            for s in x:
                if not (isinstance(s, int) and 0 <= s < size):
                    break
            else:
                return x  # one pass: every symbol is an in-range int
        if isinstance(x, str):
            w = tuple(int(c) for c in x)
        else:
            w = tuple(int(s) for s in x)
        for s in w:
            if not 0 <= s < self.size:
                raise _outside_alphabet(s, self.size)
        return w

    def format(self, w: Word) -> str:
        return "".join(str(s) for s in w)


BINARY = Alphabet(2)


def _outside_alphabet(symbol: int, size: int) -> AlphabetMismatchError:
    return AlphabetMismatchError(f"symbol {symbol} outside alphabet of size {size}")


class SemimeasureCursor:
    """Incremental evaluator positioned at some prefix.

    Three members: ``value`` is nu(prefix); ``advance(a)`` returns a new
    immutable cursor one symbol deeper, whose ``value`` is nu(prefix + (a,)),
    so a caller that needs a child's value keeps that child; ``state_key()``
    is a hashable summary of the state.  Two cursors of one model at one
    depth with equal keys have equal ``value``, and advancing both by the
    same symbol gives equal keys again, so their subtrees are identical.
    Lumped tree walks merge prefixes on these keys.
    """

    __slots__ = ()

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
    and stored as tuples of Fractions, so every step is a lookup and the
    model pickles.  ``step_prob_infimum`` is the least nonzero probability
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
        for dist in table + (tail,):
            if len(dist) != alphabet.size or sum(dist) != 1 or any(p < 0 for p in dist):
                raise ValueError(f"invalid per-step distribution {dist}")
        self.alphabet = alphabet
        self._steps = table
        self._tail = tail
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
        steps = map(self.step_distribution, range(1, len(x) + 1))
        return _product_ratio(steps, x, self.alphabet.size)

    def cursor(self) -> SemimeasureCursor:
        return _FactorizableCursor(self.step_distribution, self.alphabet.size, 0, Fraction(1))

    @property
    def step_prob_infimum(self) -> Optional[Fraction]:
        return self._infimum

    def __repr__(self) -> str:
        return self._name


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


class _FactorizableCursor(SemimeasureCursor):
    __slots__ = ("_step_distribution", "_size", "_step", "_value")

    def __init__(self, step_distribution, size: int, step: int, value: Fraction):
        self._step_distribution = step_distribution  # the model's bound method
        self._size = size  # the alphabet's: a dead cursor reads no distribution
        self._step = step
        self._value = value

    @property
    def value(self) -> Fraction:
        return self._value

    def advance(self, a: int) -> "_FactorizableCursor":
        size = self._size
        if not 0 <= a < size:
            raise _outside_alphabet(a, size)
        value = self._value
        if value:
            p = self._step_distribution(self._step + 1)[a]
            if not p:
                value = p
            elif p != 1:
                value = value * p
        return _FactorizableCursor(self._step_distribution, size, self._step + 1, value)

    def state_key(self):
        return self._value  # the step is the depth


class IidModel(FactorizableModel):
    """Product measure of a fixed rational symbol distribution."""

    def __init__(self, theta: Iterable, alphabet: Alphabet | None = None):
        theta = tuple(Fraction(t) for t in theta)
        if alphabet is None:
            alphabet = Alphabet(len(theta))
        if len(theta) != alphabet.size:
            raise ValueError("theta length must match alphabet size")
        if any(t < 0 for t in theta):
            raise ValueError("theta components must be nonnegative")
        if sum(theta) != 1:
            raise ValueError("theta must sum to exactly 1")
        self.alphabet = alphabet
        self.theta = theta

    def step_distribution(self, i: int) -> Sequence[Fraction]:
        return self.theta

    def exact_ratio(self, x: Word) -> tuple:
        """prod_i theta[x_i], as one integer power per symbol count."""
        num = den = 1
        counted = 0
        for a, p in enumerate(self.theta):
            count = x.count(a)
            if count:
                counted += count
                num *= p.numerator**count
                den *= p.denominator**count
        if counted != len(x):  # a symbol no count saw would drop out of the product
            raise AlphabetMismatchError(
                f"{x} has a symbol outside alphabet of size {len(self.theta)}"
            )
        return (num, den) if num else (0, 1)

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
        self.keep = 1 - leak

    def evaluate_exact(self, x: Word) -> Fraction:
        return Fraction(*self.exact_ratio(x))

    def exact_ratio(self, x: Word) -> tuple:
        num, den = self.base.exact_ratio(x)
        if not num:
            return 0, 1
        n, keep = len(x), self.keep
        return num * keep.numerator**n, den * keep.denominator**n

    def cursor(self) -> SemimeasureCursor:
        return _LeakyCursor(self.keep, self.base.cursor(), Fraction(1))

    def __repr__(self) -> str:
        return f"leaky({self.base!r},gamma={self.leak})"


class _LeakyCursor(SemimeasureCursor):
    __slots__ = ("_keep", "_base", "_scale", "_value")

    def __init__(self, keep: Fraction, base: SemimeasureCursor, scale: Fraction):
        self._keep = keep
        self._base = base
        self._scale = scale
        self._value = base.value * scale

    @property
    def value(self) -> Fraction:
        return self._value

    def advance(self, a: int) -> "_LeakyCursor":
        return _LeakyCursor(self._keep, self._base.advance(a), self._scale * self._keep)

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
    """
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
    depend on PYTHONHASHSEED, the process, or the thread executing it.
    """
    return random.Random(f"mdl-lab:{seed}:{index}")


def sample_sequence(model: Semimeasure, n: int, seed: int) -> Word:
    """Draw x_{1:n} with probability exactly nu(x_{1:n}); seed-reproducible."""
    return sample_path(model, n, derived_rng(seed, 0))


def _draw_exact(probs, rng: random.Random) -> int:
    """Inverse-CDF draw with one integer uniform on a common denominator."""
    den = lcm(*(p.denominator for p in probs))
    r = rng.randrange(den)
    acc = 0
    for a, p in enumerate(probs):
        acc += p.numerator * (den // p.denominator)
        if r < acc:
            return a
    raise SamplingError("conditional probabilities sum to less than 1")


def sample_path(model: Semimeasure, n: int, rng: random.Random) -> Word:
    """Draw x_{1:n} exactly; a strict semimeasure is refused at every n."""
    if not model.is_proper_measure:
        raise SamplingError("sampling requires a proper measure")
    if isinstance(model, IidModel):
        # Same draws as the generic walk (identical probs per step), one
        # integer uniform per symbol without cursor arithmetic.
        return tuple(_draw_exact(model.theta, rng) for _ in range(n))
    cur = model.cursor()
    out = []
    k = model.alphabet.size
    for _ in range(n):
        v = cur.value
        if v == 0:
            raise SamplingError("cannot sample beyond a zero-probability prefix")
        children = [cur.advance(a) for a in range(k)]
        symbol = _draw_exact([child.value / v for child in children], rng)
        out.append(symbol)
        cur = children[symbol]
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
