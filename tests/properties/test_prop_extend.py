"""Differential tests for kernel extension: every way of growing a kernel
by a raw block — ``extend_kernel`` at either end, ``reverse_kernel``,
``KernelBuilder`` and ``QueryEngine.append`` / ``prepend`` — equals
Listing 1 combing the concatenated (or reversed) strings from scratch."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.combing import iterative as it
from repro.core.combing.iterative import iterative_combing_rowmajor as listing1
from repro.core.compose import extend_kernel, reverse_kernel
from repro.core.incremental import KernelBuilder
from repro.errors import ShapeMismatchError
from repro.query import QueryEngine


@st.composite
def triples(draw):
    """``(a, block, b)`` of lengths 0-16: code lists over 1-4 letters
    (one letter is the unary alphabet) or text."""
    if draw(st.booleans()):
        strings = st.text(alphabet="abc", max_size=16)
    else:
        sigma = draw(st.integers(1, 4))
        strings = st.lists(st.integers(0, sigma - 1), max_size=16)
    return draw(strings), draw(strings), draw(strings)


def edge_cases(test):
    """Empty a, block and b, length 1 and the unary alphabet, always."""
    for case in [
        ("", "", ""),
        ([], [2], [0, 2, 1]),
        ([1, 0], [], [1]),
        ("ab", "ba", ""),
        ("a", "b", "a"),
        ([0] * 5, [0] * 3, [0] * 4),
    ]:
        test = example(case)(test)
    return test


@given(triples())
@edge_cases
@settings(max_examples=300, deadline=None)
def test_extend_kernel_at_both_ends(case):
    a, block, b = case
    base = listing1(a, b)
    assert np.array_equal(extend_kernel(base, len(a), block, b), listing1(a + block, b))
    assert np.array_equal(
        extend_kernel(base, len(a), block, b, at="start"), listing1(block + a, b)
    )
    assert np.array_equal(reverse_kernel(base), listing1(a[::-1], b[::-1]))


@given(triples())
@edge_cases
@settings(max_examples=100, deadline=None)
def test_kernel_builder(case):
    a, block, b = case
    builder = KernelBuilder(b).append(a).append(block)
    assert np.array_equal(builder.raw_kernel(), listing1(a + block, b))


@given(triples())
@edge_cases
@settings(max_examples=100, deadline=None)
def test_query_engine_append_and_prepend(case):
    a, block, b = case
    eng = QueryEngine()
    assert np.array_equal(eng.append(a, block, b).kernel, listing1(a + block, b))
    assert np.array_equal(eng.prepend(block, a, b).kernel, listing1(block + a, b))


def test_rejects_a_kernel_of_the_wrong_order():
    base = listing1("abc", "ab")
    with pytest.raises(ShapeMismatchError):
        extend_kernel(base, 2, "a", "ab")
    with pytest.raises(ValueError):
        extend_kernel(base, 3, "a", "ab", at="middle")


@pytest.mark.parametrize("limit", [30, 50, 59, 60, 200])
def test_both_strand_dtypes_straddling_the_limit(monkeypatch, limit):
    """m + n = 50 and m + |block| + n = 60 straddle the patched limit:
    below, at and above, so each path runs on uint16 and int64 strands."""
    rng = np.random.default_rng(limit)
    a, block, b = (rng.integers(0, 3, size).tolist() for size in (20, 10, 30))
    seen = []
    kernel = it.comb_antidiagonals

    def spy(a_rev, b_codes, h, *args):
        seen.append(h.dtype)
        return kernel(a_rev, b_codes, h, *args)

    monkeypatch.setattr(it, "comb_antidiagonals", spy)
    monkeypatch.setattr(it, "_UNSIGNED_LIMIT_16", limit)
    base = listing1(a, b)
    appended, prepended = listing1(a + block, b), listing1(block + a, b)
    assert np.array_equal(extend_kernel(base, 20, block, b), appended)
    assert np.array_equal(extend_kernel(base, 20, block, b, at="start"), prepended)
    assert np.array_equal(KernelBuilder(b).append(a).append(block).raw_kernel(), appended)
    eng = QueryEngine()
    assert np.array_equal(eng.append(a, block, b).kernel, appended)
    assert np.array_equal(eng.prepend(block, a, b).kernel, prepended)

    def dt(strands):
        return np.dtype(np.uint16 if strands <= limit else np.int64)

    # two extensions, the builder's two, the engine's base comb and its
    # two extensions
    assert seen == [dt(60), dt(60), dt(50), dt(60), dt(50), dt(60), dt(60)]
