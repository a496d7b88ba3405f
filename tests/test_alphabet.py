"""Tests for string encoding and the synthetic-character generator."""

import numpy as np
import pytest

from repro import alphabet
from repro.errors import AlphabetError


class TestEncode:
    def test_str_roundtrip(self):
        s = "hello, braids"
        assert alphabet.decode(alphabet.encode(s)) == s

    def test_bytes(self):
        assert alphabet.encode(b"ab").tolist() == [97, 98]

    def test_int_list(self):
        assert alphabet.encode([5, -3, 5]).tolist() == [5, -3, 5]

    def test_ndarray_passthrough(self):
        arr = np.array([1, 2, 3], dtype=np.int32)
        out = alphabet.encode(arr)
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_empty(self):
        assert alphabet.encode("").size == 0

    def test_str_codes_equal_ord(self, rng):
        """Code points of every plane, lone surrogates included, encode
        to exactly ``[ord(c) for c in s]``."""
        strings = ["", "\ud800", "a\udfffb", "\U0010ffff\U0001f600", "\x00\xff\u20ac"]
        for _ in range(200):
            length = int(rng.integers(0, 40))
            points = rng.integers(0, 0x110000, size=length)
            if length:
                points[rng.integers(0, length)] = rng.integers(0xD800, 0xE000)
            strings.append("".join(chr(int(c)) for c in points))
        for s in strings:
            out = alphabet.encode(s)
            assert out.dtype == np.int64
            assert out.tolist() == [ord(c) for c in s], repr(s)

    def test_rejects_2d(self):
        with pytest.raises(AlphabetError):
            alphabet.encode(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_float_array(self):
        with pytest.raises(AlphabetError):
            alphabet.encode(np.zeros(3, dtype=np.float64))


class TestDNA:
    def test_roundtrip(self):
        s = "ACGTGTCA"
        assert alphabet.decode_dna(alphabet.encode_dna(s)) == s

    def test_lowercase_accepted(self):
        assert alphabet.encode_dna("acgt").tolist() == [0, 1, 2, 3]

    def test_rejects_ambiguity_codes(self):
        with pytest.raises(AlphabetError):
            alphabet.encode_dna("ACGN")


class TestBinary:
    def test_is_binary(self):
        assert alphabet.is_binary(np.array([0, 1, 1, 0]))
        assert not alphabet.is_binary(np.array([0, 2]))
        assert alphabet.is_binary(np.array([], dtype=np.int64))

    def test_to_binary_two_symbols(self):
        out = alphabet.to_binary("abba")
        assert out.tolist() == [0, 1, 1, 0]

    def test_to_binary_one_symbol(self):
        assert alphabet.to_binary("aaa").tolist() == [0, 0, 0]

    def test_to_binary_rejects_three(self):
        with pytest.raises(AlphabetError):
            alphabet.to_binary("abc")


class TestRandomString:
    def test_sigma_controls_zero_fraction(self, rng):
        small = alphabet.random_string(rng, 20_000, sigma=0.5)
        large = alphabet.random_string(rng, 20_000, sigma=4.0)
        assert (small == 0).mean() > (large == 0).mean()

    def test_sigma_one_zero_fraction_matches_erfc(self, rng):
        s = alphabet.random_string(rng, 200_000, sigma=1.0)
        # paper: proportion of zeros for sigma=1 is ~0.683
        assert abs((s == 0).mean() - 0.683) < 0.01

    def test_negative_length_rejected(self, rng):
        with pytest.raises(AlphabetError):
            alphabet.random_string(rng, -1)


class TestMatchFrequency:
    def test_identical_single_char(self):
        a = np.zeros(10, dtype=np.int64)
        assert alphabet.match_frequency(a, a) == 1.0

    def test_disjoint(self):
        a = np.zeros(4, dtype=np.int64)
        b = np.ones(4, dtype=np.int64)
        assert alphabet.match_frequency(a, b) == 0.0

    def test_empty(self):
        assert alphabet.match_frequency(np.array([], dtype=int), np.array([1])) == 0.0

    def test_half(self):
        a = np.array([0, 1])
        b = np.array([0, 0])
        # pairs: (0,0),(0,0),(1,0),(1,0) -> 2/4
        assert alphabet.match_frequency(a, b) == 0.5


class TestHelpers:
    def test_alphabet_size(self):
        assert alphabet.alphabet_size(np.array([1, 2]), np.array([2, 3])) == 3
        assert alphabet.alphabet_size() == 0

    def test_concat(self):
        out = alphabet.concat([np.array([1]), np.array([2, 3])])
        assert out.tolist() == [1, 2, 3]
        assert alphabet.concat([]).size == 0
