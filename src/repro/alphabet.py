"""Encoding of input strings into integer code arrays.

Every algorithm in the library operates on 1-D NumPy integer arrays
("encoded strings"). This module converts Python strings, bytes, integer
sequences, and NumPy arrays into that canonical representation, and provides
alphabet utilities (size detection, binary checks, decoding).

The paper evaluates on three input families: synthetic integer sequences
(characters drawn from a rounded normal distribution — these may be
negative, which is fine: only equality of codes matters), virus genome
strings over ``ACGT``, and binary strings for the bit-parallel algorithm.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import AlphabetError
from .types import CodeArray, Sequenceish

#: Canonical DNA alphabet used by the genome dataset helpers.
DNA = "ACGT"

_DNA_CODES = {ch: i for i, ch in enumerate(DNA)}


def encode(s: Sequenceish, dtype: np.dtype | type = np.int64) -> CodeArray:
    """Encode *s* into a contiguous 1-D integer array.

    - ``str`` → Unicode code points,
    - ``bytes``/``bytearray`` → byte values,
    - integer sequences / arrays → validated and converted.

    Only equality of codes matters to the algorithms, so any injective
    encoding works; code points are the simplest.

    >>> encode("aba").tolist()
    [97, 98, 97]
    """
    if isinstance(s, str):
        # UTF-32 is one code unit per code point; surrogatepass keeps lone
        # surrogates as their own code points, as ord() does
        arr = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(dtype)
    elif isinstance(s, (bytes, bytearray)):
        arr = np.frombuffer(bytes(s), dtype=np.uint8).astype(dtype)
    elif isinstance(s, np.ndarray):
        if s.ndim != 1:
            raise AlphabetError(f"expected a 1-D array, got shape {s.shape}")
        if not np.issubdtype(s.dtype, np.integer):
            raise AlphabetError(f"expected an integer array, got dtype {s.dtype}")
        arr = np.ascontiguousarray(s, dtype=dtype)
    else:
        try:
            arr = np.asarray(list(s), dtype=dtype)
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            raise AlphabetError(f"cannot encode {type(s).__name__} as a string") from exc
        if arr.ndim != 1:
            raise AlphabetError("expected a flat sequence of integer codes")
    return arr


def decode(codes: CodeArray) -> str:
    """Inverse of :func:`encode` for strings encoded from ``str``."""
    return "".join(chr(int(c)) for c in codes)


def encode_dna(s: str, dtype: np.dtype | type = np.int8) -> CodeArray:
    """Encode a DNA string over ``ACGT`` into codes ``0..3``.

    Ambiguity codes (``N`` etc.) are rejected; the genome simulator never
    produces them, and the algorithms require concrete characters.
    """
    try:
        return np.fromiter((_DNA_CODES[c] for c in s.upper()), dtype=dtype, count=len(s))
    except KeyError as exc:
        raise AlphabetError(f"non-ACGT character {exc.args[0]!r} in DNA string") from exc


def decode_dna(codes: CodeArray) -> str:
    """Inverse of :func:`encode_dna`."""
    return "".join(DNA[int(c)] for c in codes)


def alphabet_size(*strings: CodeArray) -> int:
    """Number of distinct codes across all the given encoded strings."""
    if not strings:
        return 0
    return len(np.unique(np.concatenate([np.asarray(s) for s in strings])))


def is_binary(*strings: CodeArray) -> bool:
    """True if every code in every string is 0 or 1.

    The bit-parallel algorithms (paper §4.4) require a binary alphabet.
    """
    for s in strings:
        a = np.asarray(s)
        if a.size and (a.min() < 0 or a.max() > 1):
            return False
    return True


def to_binary(s: Sequenceish) -> CodeArray:
    """Encode *s* and remap its codes onto ``{0, 1}``.

    Raises :class:`AlphabetError` when more than two distinct characters
    are present.
    """
    codes = encode(s)
    uniq = np.unique(codes)
    if len(uniq) > 2:
        raise AlphabetError(f"binary alphabet required, got {len(uniq)} distinct characters")
    out = np.zeros(len(codes), dtype=np.uint8)
    if len(uniq) == 2:
        out[codes == uniq[1]] = 1
    return out


def random_string(
    rng: np.random.Generator, length: int, sigma: float = 1.0
) -> CodeArray:
    """Synthetic string per the paper's generator (§5).

    Characters are sampled from a normal distribution with zero mean and
    standard deviation ``sigma``, then *rounded towards zero*. Small sigma
    gives high match frequency (most characters are 0), large sigma low
    match frequency.
    """
    if length < 0:
        raise AlphabetError("length must be non-negative")
    return np.trunc(rng.normal(0.0, sigma, size=length)).astype(np.int64)


def match_frequency(a: CodeArray, b: CodeArray) -> float:
    """Fraction of character pairs (one from each string) that match.

    Used to characterize workloads in benchmarks (the paper varies σ to
    emulate high/medium/low matching frequency).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0.0
    codes, counts_a = np.unique(a, return_counts=True)
    freq_b = {int(c): int(n) for c, n in zip(*np.unique(b, return_counts=True))}
    matches = sum(int(na) * freq_b.get(int(c), 0) for c, na in zip(codes, counts_a))
    return matches / (a.size * b.size)


def concat(parts: Iterable[CodeArray]) -> CodeArray:
    """Concatenate encoded strings."""
    parts = list(parts)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
