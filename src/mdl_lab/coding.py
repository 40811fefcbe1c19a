"""The constructive two-part code: model header + arithmetic payload.

A string x is coded in three self-delimiting pieces:

* header   -- Shannon-Fano-Elias codeword of the model index over the
              prior weights (prefix-free, at most ceil(-lb w) + 1 bits);
* length   -- Elias-gamma code of len(x) + 1 (so the empty string works);
* payload  -- the first len-ceil(-lb nu(x)) binary fraction inside the
              cumulative interval [S_{j-1}, S_j) of x among the length-n
              strings in lexicographic order.

Everything is exact rational interval arithmetic, so the payload length
equals ceil(-lb nu(x)) bit for bit and distinct strings get disjoint
intervals (injectivity).  The cumulative interval is built by sequential
per-symbol refinement; enumerating all of X^n in lexicographic order
yields the identical interval, which :func:`block_interval` exposes for
cross-checking.  Total length is within an explicit additive constant of
ceil(-lb w) + ceil(-lb nu(x)): the gamma field costs
2*floor(lb(n+1)) + 1 bits and the header rounding at most 2 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from .errors import MalformedCodeError, NonMeasureError, ZeroProbabilityError
from .measures import Word
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
    w = cls.weights[index]
    length = neg_log2_ceil(w) + 1
    midpoint = sum(cls.weights[:index], Fraction(0)) + w / 2
    return _binary_expansion(midpoint, length)


def _binary_expansion(q: Fraction, bits: int) -> Bits:
    """First ``bits`` binary digits of q in [0, 1)."""
    out = []
    for _ in range(bits):
        q *= 2
        digit = int(q)
        out.append(str(digit))
        q -= digit
    return "".join(out)


def _decode_header(cls: WeightedClass, bits: Bits) -> Tuple[int, int]:
    for i in range(len(cls.models)):
        code = header_codeword(cls, i)
        if bits.startswith(code):
            return i, len(code)
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


def sequential_interval(cls: WeightedClass, index: int, x: Word) -> Tuple[Fraction, Fraction]:
    """[S_{j-1}, S_j) for x under model ``index`` by per-symbol refinement."""
    model = cls.models[index]
    cur = model.cursor()
    lo = Fraction(0)
    for symbol in x:
        for b in range(symbol):
            lo += cur.advance(b).value
        cur = cur.advance(symbol)
    return lo, lo + cur.value


def block_interval(cls: WeightedClass, index: int, x: Word) -> Tuple[Fraction, Fraction]:
    """Same interval via brute lexicographic enumeration of X^len(x).

    Exponential in len(x); exists purely as the independent cross-check
    of :func:`sequential_interval`.
    """
    model = cls.models[index]
    k = cls.alphabet.size
    lo = Fraction(0)
    for y in product(range(k), repeat=len(x)):
        if y == tuple(x):
            return lo, lo + model.evaluate_exact(y)
        lo += model.evaluate_exact(y)
    raise AssertionError("x not found in its own alphabet block")


def payload_bits(p: Fraction, lo: Fraction) -> Bits:
    """The canonical ceil(-lb p)-bit number inside [lo, lo + p)."""
    length = neg_log2_ceil(p)
    if length == 0:
        return ""
    scaled = lo * 2**length
    z = -(-scaled.numerator // scaled.denominator)  # ceil
    return format(z, f"0{length}b")


def encode(cls: WeightedClass, model_index: int, x) -> TwoPartCode:
    """Two-part code of x under the chosen class member."""
    model = cls.models[model_index]
    if not model.is_proper_measure:
        raise NonMeasureError("arithmetic coding needs a proper measure")
    word = cls.word(x)
    lo, hi = sequential_interval(cls, model_index, word)
    p = hi - lo
    if p == 0:
        raise ZeroProbabilityError(f"{model!r} assigns zero probability to {word}")
    return TwoPartCode(
        model_index=model_index,
        header=header_codeword(cls, model_index),
        length_field=gamma_encode(len(word) + 1),
        payload=payload_bits(p, lo),
        string_length=len(word),
    )


def decode(cls: WeightedClass, bits: Bits) -> Word:
    """Recover x exactly from a two-part code; reject anything else.

    Descends the alphabet tree keeping the payload point inside the
    running interval, then re-encodes and insists on bit identity, so
    corrupted inputs either raise or are caught by the mismatch.
    """
    if not set(bits) <= {"0", "1"}:
        raise MalformedCodeError("a code holds only the characters 0 and 1")
    index, pos = _decode_header(cls, bits)
    n_plus_1, pos = gamma_decode(bits, pos)
    n = n_plus_1 - 1
    payload = bits[pos:]
    length = len(payload)
    point = Fraction(int(payload, 2), 2**length) if length else Fraction(0)

    model = cls.models[index]
    if not model.is_proper_measure:
        raise NonMeasureError("arithmetic coding needs a proper measure")
    cur = model.cursor()
    lo = Fraction(0)
    word: List[int] = []
    for _ in range(n):
        placed = False
        for a in range(cls.alphabet.size):
            child = cur.advance(a)
            width = child.value
            if width > 0 and lo <= point < lo + width:
                word.append(a)
                cur = child
                placed = True
                break
            lo += width
        if not placed:
            raise MalformedCodeError("payload point left the coding interval")
    result = tuple(word)
    expected = encode(cls, index, result)
    if expected.bits != bits:
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
    model = cls.models[model_index]
    total = Fraction(0)
    for y in product(range(cls.alphabet.size), repeat=length):
        p = model.evaluate_exact(y)
        if p > 0:
            total += Fraction(1, 2 ** neg_log2_ceil(p))
    return total
