"""The constructive two-part code: model header + arithmetic payload.

A string x is coded in three self-delimiting pieces:

* header   -- Shannon-Fano-Elias codeword of the model index over the
              prior weights (prefix-free, at most ceil(-lb w) + 1 bits);
* length   -- Elias-gamma code of len(x) + 1 (so the empty string works);
* payload  -- the first len-ceil(-lb nu(x)) binary fraction inside the
              cumulative interval [S_{j-1}, S_j) of x among the length-n
              strings in lexicographic order.

Everything is exact interval arithmetic on integers, so the payload
length equals ceil(-lb nu(x)) bit for bit and distinct strings get
disjoint intervals (injectivity).  Encoding and decoding share one
descent that keeps the cumulative interval as [lo, lo + num) / den and
refines it per symbol by the step law in integer form, with no
finite-precision renormalisation.  Enumerating all of X^n in
lexicographic order yields the identical interval, which
:func:`block_interval` exposes for cross-checking.  Total length is
within an explicit additive constant of ceil(-lb w) + ceil(-lb nu(x)):
the gamma field costs 2*floor(lb(n+1)) + 1 bits and the header rounding
at most 2 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from .errors import MalformedCodeError, NonMeasureError, ZeroProbabilityError
from .measures import Semimeasure, Word, step_conditionals, step_multipliers
from .model_class import LARGEST_WEIGHT, TieBreak, WeightedClass, map_estimator
from .values import neg_log2_ceil

Bits = str  # "0"/"1" characters


@dataclass(frozen=True)
class TwoPartCode:
    """A complete two-part codeword and its accounting."""

    model_index: int
    header: Bits
    length_field: Bits
    payload: Bits
    string_length: int

    @property
    def bits(self) -> Bits:
        return self.header + self.length_field + self.payload

    @property
    def total_bits(self) -> int:
        return len(self.bits)

    def hex(self) -> str:
        """Hex rendering, left-padded to whole bytes; '' for empty codes."""
        if not self.bits:
            return ""
        width = -(-len(self.bits) // 4)
        return f"{int(self.bits, 2):0{width}x}"


# -- prefix-free header over the class weights ---------------------------


def header_codeword(cls: WeightedClass, index: int) -> Bits:
    """Shannon-Fano-Elias codeword for a model index over the weights."""
    return _codeword(sum(cls.weights[:index], Fraction(0)), cls.weights[index])


def _codeword(below: Fraction, w: Fraction) -> Bits:
    """The codeword of a weight w placed above cumulative weight ``below``."""
    return _binary_expansion(below + w / 2, neg_log2_ceil(w) + 1)


def _binary_expansion(q: Fraction, bits: int) -> Bits:
    """First ``bits`` binary digits of q in [0, 1): floor(q 2^bits) in binary."""
    return format((q.numerator << bits) // q.denominator, f"0{bits}b")


def _decode_header(cls: WeightedClass, bits: Bits) -> Tuple[int, int]:
    below = Fraction(0)  # the running cumulative weight: one pass, O(k)
    for i, w in enumerate(cls.weights):
        code = _codeword(below, w)
        if bits.startswith(code):
            return i, len(code)
        below += w
    raise MalformedCodeError("no model header matches the bitstring")


# -- Elias gamma ----------------------------------------------------------


def gamma_encode(k: int) -> Bits:
    """Elias gamma code of a positive integer."""
    if k < 1:
        raise ValueError("gamma codes positive integers")
    body = bin(k)[2:]
    return "0" * (len(body) - 1) + body


def gamma_decode(bits: Bits, pos: int) -> Tuple[int, int]:
    zeros = 0
    while pos + zeros < len(bits) and bits[pos + zeros] == "0":
        zeros += 1
    end = pos + zeros + zeros + 1
    if end > len(bits):
        raise MalformedCodeError("truncated gamma length field")
    return int(bits[pos + zeros : end], 2), end


# -- arithmetic payload ----------------------------------------------------


def _member(cls: WeightedClass, index: int) -> Semimeasure:
    if not 0 <= index < len(cls.models):
        raise IndexError(f"model index {index} outside 0..{len(cls.models) - 1}")
    return cls.models[index]


def _descend(model: Semimeasure, n: int, choose) -> Tuple[list, int, int, int]:
    """(word, lo, num, den): n steps down the model's cumulative-interval tree.

    [lo, lo + num) / den is the interval of the word so far.  Each step puts
    it over den * step for the law nums / step at the word so far, and the
    child ``choose(t, lo, num, den, nums)`` names starts num * sum(nums[:a])
    above lo and is num * nums[a] wide.  Below a prefix of value 0 every
    child is [lo, lo), so the word stops there without reading a law.
    """
    word: list = []
    read = step_conditionals(model, word)
    num, den = model.exact_ratio(())
    lo, law = 0, None
    for t in range(n):
        if not num:
            break
        probs = read(t)
        if probs is not law:  # a law that does not move is converted once
            law = probs
            nums, step = step_multipliers(probs)
        lo *= step
        den *= step
        a = choose(t, lo, num, den, nums)
        lo += num * sum(nums[:a])
        num *= nums[a]
        word.append(a)
    return word, lo, num, den


def sequential_interval(cls: WeightedClass, index: int, x: Word) -> Tuple[Fraction, Fraction]:
    """[S_{j-1}, S_j) for x under model ``index`` by per-symbol refinement."""
    word = cls.word(x)
    _, lo, num, den = _descend(_member(cls, index), len(word), lambda t, *_: word[t])
    return Fraction(lo, den), Fraction(lo + num, den)


def block_interval(cls: WeightedClass, index: int, x: Word) -> Tuple[Fraction, Fraction]:
    """Same interval via brute lexicographic enumeration of X^len(x).

    Exponential in len(x); exists purely as the independent cross-check
    of :func:`sequential_interval`.
    """
    model = _member(cls, index)
    k = cls.alphabet.size
    lo = Fraction(0)
    for y in product(range(k), repeat=len(x)):
        if y == tuple(x):
            return lo, lo + model.evaluate_exact(y)
        lo += model.evaluate_exact(y)
    raise AssertionError("x not found in its own alphabet block")


def payload_bits(lo: int, num: int, den: int) -> Bits:
    """The canonical ceil(-lb p)-bit number inside [lo, lo + num) / den,
    p = num / den in (0, 1]."""
    length = (-(-den // num) - 1).bit_length()  # least L with 2^L >= den / num
    if length == 0:
        return ""
    z = -(-(lo << length) // den)  # ceil
    return format(z, f"0{length}b")


def _code(cls: WeightedClass, index: int, word: Word, lo: int, num: int, den: int) -> TwoPartCode:
    """The code of ``word`` under member ``index`` from its interval."""
    if not num:
        raise ZeroProbabilityError(f"{cls.models[index]!r} assigns zero probability to {word}")
    return TwoPartCode(
        model_index=index,
        header=header_codeword(cls, index),
        length_field=gamma_encode(len(word) + 1),
        payload=payload_bits(lo, num, den),
        string_length=len(word),
    )


def encode(cls: WeightedClass, model_index: int, x) -> TwoPartCode:
    """Two-part code of x under the chosen class member."""
    model = _member(cls, model_index)
    if not model.is_proper_measure:
        raise NonMeasureError("arithmetic coding needs a proper measure")
    word = cls.word(x)
    _, lo, num, den = _descend(model, len(word), lambda t, *_: word[t])
    return _code(cls, model_index, word, lo, num, den)


def decode(cls: WeightedClass, bits: Bits) -> Word:
    """Recover x exactly from a two-part code; reject anything else.

    Descends the alphabet tree keeping the payload point inside the
    running interval, then re-encodes from the interval it reached and
    insists on bit identity, so corrupted inputs either raise or are
    caught by the mismatch.
    """
    if not set(bits) <= {"0", "1"}:
        raise MalformedCodeError("a code holds only the characters 0 and 1")
    index, pos = _decode_header(cls, bits)
    n_plus_1, pos = gamma_decode(bits, pos)
    n = n_plus_1 - 1
    payload = bits[pos:]
    # The payload point is point / 2^shift.
    point, shift = (int(payload, 2), len(payload)) if payload else (0, 0)

    model = cls.models[index]
    if not model.is_proper_measure:
        raise NonMeasureError("arithmetic coding needs a proper measure")

    def place(t, lo, num, den, nums):
        # The first child with lo_a <= point / 2^shift < lo_a + width, over den.
        target = point * den
        for a, m in enumerate(nums):
            width = num * m
            if width and lo << shift <= target < (lo + width) << shift:
                return a
            lo += width
        raise MalformedCodeError("payload point left the coding interval")

    word, lo, num, den = _descend(model, n, place)
    if len(word) < n:  # the interval was empty from the start
        raise MalformedCodeError("payload point left the coding interval")
    result = tuple(word)
    if _code(cls, index, result, lo, num, den).bits != bits:
        raise MalformedCodeError("bitstring is not a canonical code")
    return result


# -- length accounting ------------------------------------------------------


@dataclass(frozen=True)
class CodeLengthRow:
    model_index: int
    header_bits: int
    length_bits: int
    payload_bits: Optional[int]  # None when the model gives x probability 0
    chosen: bool

    @property
    def total_bits(self) -> Optional[int]:
        if self.payload_bits is None:
            return None
        return self.header_bits + self.length_bits + self.payload_bits


def code_length_report(
    cls: WeightedClass, x, tie_break: TieBreak = LARGEST_WEIGHT
) -> List[CodeLengthRow]:
    """Per-model code lengths for x, with the two-part choice flagged.

    The chosen row realizes min over models of ceil(-lb w) +
    ceil(-lb nu(x)) up to 2 bits of rounding slack (the selection
    maximizes the unrounded product w * nu(x)).
    """
    word = cls.word(x)
    chosen = map_estimator(cls, word, tie_break).index
    gamma_bits = len(gamma_encode(len(word) + 1))
    rows = []
    for i, model in enumerate(cls.models):
        p = model.evaluate_exact(word)
        rows.append(
            CodeLengthRow(
                model_index=i,
                header_bits=len(header_codeword(cls, i)),
                length_bits=gamma_bits,
                payload_bits=None if p == 0 else neg_log2_ceil(p),
                chosen=i == chosen,
            )
        )
    return rows


def kraft_sum(cls: WeightedClass, model_index: int, length: int) -> Fraction:
    """sum over x in X^length of 2^-payload_bits(x); at most 1 (Kraft)."""
    model = _member(cls, model_index)
    total = Fraction(0)
    for y in product(range(cls.alphabet.size), repeat=length):
        p = model.evaluate_exact(y)
        if p > 0:
            total += Fraction(1, 2 ** neg_log2_ceil(p))
    return total
