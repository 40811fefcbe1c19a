import itertools
import math
from fractions import Fraction as F

import pytest

from mdl_lab import coding
from mdl_lab.coding import (
    block_interval,
    code_length_report,
    decode,
    encode,
    gamma_decode,
    gamma_encode,
    header_codeword,
    kraft_sum,
    sequential_interval,
)
from mdl_lab.errors import (
    AlphabetMismatchError,
    MalformedCodeError,
    NonMeasureError,
    ZeroProbabilityError,
)
from mdl_lab.measures import Alphabet, DeterministicModel, IidModel, LeakySemimeasure, sample_path
from mdl_lab.model_class import WeightedClass, bernoulli_class, example1_class
from mdl_lab.suites import suite_rng
from mdl_lab.values import neg_log2_ceil
from oracle import EvaluateOnly, all_words, reference_zoo


class TestGamma:
    def test_roundtrip(self):
        for k in list(range(1, 40)) + [100, 1000]:
            bits = gamma_encode(k)
            value, pos = gamma_decode(bits, 0)
            assert value == k and pos == len(bits)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gamma_encode(0)


class TestHeaders:
    def test_prefix_free_and_length(self):
        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)])
        codes = [header_codeword(cls, i) for i in range(3)]
        for i, code in enumerate(codes):
            assert len(code) <= neg_log2_ceil(cls.weights[i]) + 1
            for j, other in enumerate(codes):
                if i != j:
                    assert not code.startswith(other)

    def test_decoded_header_of_every_member_of_a_large_class(self, monkeypatch):
        # 400 i.i.d. members of unequal weights: each header decodes to its
        # member, and a decode builds the header codeword only once, to
        # re-encode, so it walks the weights once rather than once per member.
        thetas = [F(i, 401) for i in range(1, 401)]
        cls = bernoulli_class(thetas, [F(1, 400 * 2 ** (i % 7 + 1)) for i in range(400)])
        for i in range(len(cls)):
            code = header_codeword(cls, i)
            assert coding._decode_header(cls, code + "01") == (i, len(code))
        built = []
        real = coding.header_codeword
        monkeypatch.setattr(
            coding, "header_codeword", lambda c, i: built.append(i) or real(c, i)
        )
        for i in (0, 137, 399):
            for x in ((), (1, 0, 1), (0,) * 9):
                code = encode(cls, i, x)
                built.clear()
                assert decode(cls, code.bits) == x
                assert built == [i]


class TestEncode:
    def test_fair_coin_eight_bits(self):
        cls = bernoulli_class([F(1, 2)])
        assert len(encode(cls, 0, "10110100").payload) == 8

    def test_deterministic_zero_bits(self):
        cls = WeightedClass([DeterministicModel((), (1,))], [F(1)])
        assert encode(cls, 0, "1111").payload == ""

    def test_quarter_coin_frozen(self):
        # nu(1100) = (1/4)^2 (3/4)^2 = 9/256; ceil(lb 256/9) = 5 bits.
        cls = bernoulli_class([F(1, 4)])
        assert len(encode(cls, 0, "1100").payload) == 5

    def test_zero_probability_rejected(self):
        cls = WeightedClass([DeterministicModel((), (1,))], [F(1)])
        with pytest.raises(ZeroProbabilityError):
            encode(cls, 0, "10")

    def test_semimeasure_rejected(self):
        leaky = LeakySemimeasure(IidModel((F(1, 2), F(1, 2))), F(1, 4))
        cls = WeightedClass([leaky], [F(1)])
        with pytest.raises(NonMeasureError):
            encode(cls, 0, "1")

    def test_payload_length_exact_up_to_64(self):
        cls = bernoulli_class([F(1, 3), F(2, 3)])
        rng = suite_rng(40, 0)
        for n in (1, 7, 33, 64):
            for index in (0, 1):
                word = sample_path(cls.models[index], n, rng)
                code = encode(cls, index, word)
                p = cls.models[index].evaluate_exact(word)
                assert len(code.payload) == neg_log2_ceil(p)


class TestDecode:
    def test_roundtrip_fuzz(self):
        rng = suite_rng(41, 0)
        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)])
        for _ in range(400):
            index = rng.randrange(3)
            n = rng.randint(0, 20)
            word = sample_path(cls.models[index], n, rng) if n else ()
            code = encode(cls, index, word)
            assert decode(cls, code.bits) == word

    def test_empty_string(self):
        cls = bernoulli_class([F(1, 2)])
        code = encode(cls, 0, "")
        assert code.payload == "" and decode(cls, code.bits) == ()

    def test_corrupted_bits_never_silently_wrong_model_payload(self):
        rng = suite_rng(42, 0)
        cls = bernoulli_class([F(1, 4), F(3, 4)])
        detected, other, same = 0, 0, 0
        for _ in range(300):
            index = rng.randrange(2)
            word = sample_path(cls.models[index], rng.randint(1, 16), rng)
            code = encode(cls, index, word)
            pos = rng.randrange(code.total_bits)
            bits = code.bits
            corrupted = bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1 :]
            try:
                got = decode(cls, corrupted)
            except MalformedCodeError:
                detected += 1
            else:
                if got == word:
                    same += 1
                else:
                    other += 1
        assert detected > 0  # most corruptions break canonicality
        # Any accepted corruption is itself a canonical code, so decoding
        # it back must re-encode to the corrupted bits exactly.

    def test_truncated_rejected(self):
        cls = bernoulli_class([F(1, 2)])
        code = encode(cls, 0, "1011")
        with pytest.raises(MalformedCodeError):
            decode(cls, code.bits[:-1])


class TestIndexAndAlphabet:
    def test_model_index_outside_the_class_refused(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)])
        for index in (-1, -2, 2):
            with pytest.raises(IndexError):
                encode(cls, index, "01")
            with pytest.raises(IndexError):
                sequential_interval(cls, index, "01")

    def test_cross_checks_refuse_an_index_outside_the_class(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)])
        for index in (-1, len(cls)):
            with pytest.raises(IndexError):
                block_interval(cls, index, (0, 1))
            with pytest.raises(IndexError):
                kraft_sum(cls, index, 3)

    def test_symbol_outside_the_alphabet_refused(self):
        cls = bernoulli_class([F(1, 4), F(3, 4)])
        for x in ((0, -1), (2,), (1, 0, 3)):
            with pytest.raises(AlphabetMismatchError):
                sequential_interval(cls, 0, x)
            with pytest.raises(AlphabetMismatchError):
                encode(cls, 0, x)


def zoo_classes():
    """(class, longest word): the reference zoo's proper measures -- i.i.d.
    with a zero entry, deterministic, a step table with a zero step, example
    4's pair, the martingale -- and two evaluate-only members; then a
    ternary class with zero entries, one of them evaluate-only.  The
    evaluate-only members step generic cursors, which refuse to read a law
    below a prefix of value zero."""
    binary = [m for m, _, _ in reference_zoo() if m.is_proper_measure]
    binary.append(EvaluateOnly(IidModel((F(1, 3), F(2, 3)))))
    binary.append(EvaluateOnly(DeterministicModel((0,), (1, 0))))
    ternary = [
        IidModel((F(1, 2), F(1, 3), F(1, 6))),
        IidModel((F(0), F(1, 4), F(3, 4))),
        EvaluateOnly(IidModel((F(1, 5), F(0), F(4, 5)))),
    ]
    return [
        (WeightedClass(binary, [F(1, len(binary))] * len(binary)), 5),
        (WeightedClass(ternary, [F(1, 2), F(1, 4), F(1, 4)]), 3),
    ]


def reference_decode(cls, bits):
    """decode written out on Fractions: each child's width is nu(xa) from
    ``evaluate_exact``, and the canonical payload is the least multiple of
    2^-ceil(-lb nu(x)) at or above the interval's lower end."""
    index = next((i for i in range(len(cls)) if bits.startswith(header_codeword(cls, i))), None)
    if index is None:
        raise MalformedCodeError("header")
    n_plus_1, pos = gamma_decode(bits, len(header_codeword(cls, index)))
    payload = bits[pos:]
    point = F(int(payload, 2), 2 ** len(payload)) if payload else F(0)
    model, lo, word = cls.models[index], F(0), ()
    for _ in range(n_plus_1 - 1):
        for a in cls.alphabet.symbols():
            width = model.evaluate_exact(word + (a,))
            if width > 0 and lo <= point < lo + width:
                word += (a,)
                break
            lo += width
        else:
            raise MalformedCodeError("left the interval")
    length = neg_log2_ceil(model.evaluate_exact(word))
    canonical = format(math.ceil(lo * 2**length), f"0{length}b") if length else ""
    if bits != header_codeword(cls, index) + gamma_encode(n_plus_1) + canonical:
        raise MalformedCodeError("not canonical")
    return word


def decoded(decoder, cls, bits):
    try:
        return decoder(cls, bits)
    except MalformedCodeError:
        return MalformedCodeError


class TestZooDifferential:
    def test_intervals_and_round_trips(self):
        # Every member, every short word: the sequential interval is the
        # block interval, a word of positive value round-trips with
        # ceil(-lb nu(x)) payload bits, and one of value zero is refused.
        zero = 0
        for cls, depth in zoo_classes():
            for index, model in enumerate(cls.models):
                for word in all_words(depth, cls.alphabet.size):
                    assert sequential_interval(cls, index, word) == block_interval(
                        cls, index, word
                    ), (model, word)
                    p = model.evaluate_exact(word)
                    if p == 0:
                        zero += 1
                        with pytest.raises(ZeroProbabilityError):
                            encode(cls, index, word)
                        continue
                    code = encode(cls, index, word)
                    assert len(code.payload) == neg_log2_ceil(p)
                    assert decode(cls, code.bits) == word == reference_decode(cls, code.bits)
        assert zero

    def test_semimeasure_intervals(self):
        # On semimeasures the block enumeration no longer matches, but the
        # per-symbol refinement does: S = sum over t and b < x_t of
        # nu(x_<t b), and the interval is [S, S + nu(x)).
        cls = WeightedClass([m for m, _, _ in reference_zoo()], [F(1, 16)] * 12)
        assert not all(m.is_proper_measure for m in cls.models)
        for index, model in enumerate(cls.models):
            for word in all_words(4):
                branches = [word[:t] + (b,) for t in range(len(word)) for b in range(word[t])]
                lo = sum(map(model.evaluate_exact, branches), F(0))
                want = (lo, lo + model.evaluate_exact(word))
                assert sequential_interval(cls, index, word) == want, (model, word)

    def test_one_bit_corruptions_match_a_fraction_descent(self):
        # Every one-bit corruption of every code of a short word decodes to
        # the same word, or is refused alike, as the Fraction descent.
        outcomes = set()
        for cls, depth in zoo_classes():
            for index, model in enumerate(cls.models):
                for word in all_words(depth - 1, cls.alphabet.size):
                    if model.evaluate_exact(word) == 0:
                        continue
                    bits = encode(cls, index, word).bits
                    for pos in range(len(bits)):
                        flip = "1" if bits[pos] == "0" else "0"
                        corrupted = bits[:pos] + flip + bits[pos + 1 :]
                        want = decoded(reference_decode, cls, corrupted)
                        assert decoded(decode, cls, corrupted) == want, (model, word, pos)
                        outcomes.add(want is MalformedCodeError)
        assert outcomes == {True, False}


class TestIntervals:
    def test_sequential_equals_block_to_12(self):
        cls = bernoulli_class([F(1, 3), F(3, 5)])
        rng = suite_rng(43, 0)
        for index in (0, 1):
            for n in (0, 1, 5, 9, 12):
                word = sample_path(cls.models[index], n, rng) if n else ()
                assert sequential_interval(cls, index, word) == block_interval(
                    cls, index, word
                )

    def test_intervals_disjoint_and_injective(self):
        cls = bernoulli_class([F(2, 7)])
        seen = {}
        for word in itertools.product((0, 1), repeat=6):
            lo, hi = sequential_interval(cls, 0, word)
            code = encode(cls, 0, word)
            assert code.payload not in seen.values() or len(set([code.payload])) == 1
            for other, (olo, ohi) in seen.items():
                assert hi <= olo or ohi <= lo  # disjoint
            seen[word] = (lo, hi)
        payloads = {encode(cls, 0, w).payload for w in seen}
        assert len(payloads) == len(seen)  # distinct payloads per string


class TestKraft:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_sums_at_most_one(self, n):
        cls = bernoulli_class([F(1, 3), F(2, 3)])
        for index in (0, 1):
            assert kraft_sum(cls, index, n) <= 1


class TestLengthReport:
    def test_single_model(self):
        cls = bernoulli_class([F(1, 2)])
        rows = code_length_report(cls, "0110")
        assert len(rows) == 1 and rows[0].chosen

    def test_chosen_row_near_minimal(self):
        cls = bernoulli_class([F(1, 4), F(1, 2), F(3, 4)])
        for word in ("1100", "1111", "0001", ""):
            rows = code_length_report(cls, word)
            finite = [
                r.header_bits + r.payload_bits
                for r in rows
                if r.payload_bits is not None
            ]
            chosen = next(r for r in rows if r.chosen)
            assert chosen.payload_bits is not None
            assert chosen.header_bits + chosen.payload_bits <= min(finite) + 2

    def test_total_budget(self):
        # total <= ceil(-lb w) + ceil(-lb nu(x)) + 2 ceil(lb(n+1)) + 3
        cls = example1_class(5)
        rng = suite_rng(44, 0)
        for n in (0, 1, 3, 9, 17):
            word = (1,) * n
            rows = code_length_report(cls, word)
            for row in rows:
                if row.payload_bits is None:
                    continue
                model = cls.models[row.model_index]
                budget = (
                    neg_log2_ceil(cls.weights[row.model_index])
                    + neg_log2_ceil(model.evaluate_exact(word))
                    + 2 * math.ceil(math.log2(n + 1))
                    + 3
                )
                assert row.total_bits <= budget
