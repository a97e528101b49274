import time
import tracemalloc

import pytest

from fndecomp import ArgumentError, ResourceError, identities
from fndecomp.identities import (
    PAIR_COUNT_MAX_M,
    binom,
    even_sum_lhs,
    even_sum_rhs,
    even_sum_rows,
    odd_sum_lhs,
    odd_sum_pair_count,
    odd_sum_rhs,
    odd_sum_rows,
)
from helpers import FULL_ENUM_MAX_M, odd_sum_pair_count_full


def test_binom_convention():
    assert binom(-1, 0) == 1  # forced by the lhs at boundary parameters
    assert binom(5, 0) == 1
    assert binom(-2, 3) == 0
    assert binom(3, -1) == 0
    assert binom(3, 5) == 0
    assert binom(6, 2) == 15


def test_even_sum_examples():
    assert even_sum_lhs(5, 1) == even_sum_rhs(5, 1) == 5
    assert even_sum_lhs(4, 1) == even_sum_rhs(4, 1) == 1  # exercises C(0,1)=0
    assert even_sum_lhs(2, 0) == even_sum_rhs(2, 0) == 1  # exercises C(-1,0)=1


def test_even_sum_exhaustive():
    for m, t, lhs, rhs, ok in even_sum_rows(24):
        assert ok, (m, t, lhs, rhs)


def test_even_sum_range_errors():
    with pytest.raises(ArgumentError):
        even_sum_lhs(3, 1)
    with pytest.raises(ArgumentError):
        even_sum_rhs(2, -1)


def test_odd_sum_examples():
    assert odd_sum_lhs(3, 1) == odd_sum_rhs(3, 1) == odd_sum_pair_count(3, 1) == 3
    assert odd_sum_lhs(4, 1) == odd_sum_rhs(4, 1) == odd_sum_pair_count(4, 1) == 12
    assert odd_sum_lhs(1, 0) == odd_sum_rhs(1, 0) == odd_sum_pair_count(1, 0) == 1


def test_odd_sum_exhaustive_with_oracle():
    for m, t, lhs, rhs, cnt, ok in odd_sum_rows(22):
        assert ok and lhs == rhs, (m, t)
        if m <= PAIR_COUNT_MAX_M:
            assert cnt == lhs == odd_sum_pair_count(m, t), (m, t)
        else:
            assert cnt is None, (m, t)


def test_full_enumeration_oracle_agrees():
    for m in range(1, FULL_ENUM_MAX_M + 1):
        for t in range((m - 1) // 2 + 1):
            assert odd_sum_pair_count_full(m, t) == odd_sum_pair_count(m, t)


def test_pair_counts_walk_in_bounded_memory():
    # the walk in blocks counts each Q once: one block up to m = 10, 2^10 at
    # m = 20; and it never holds the 2^m subset sizes at once
    for m in range(1, PAIR_COUNT_MAX_M + 1):
        assert identities._odd_pair_counts(m) == [
            odd_sum_lhs(m, t) for t in range((m - 1) // 2 + 1)], m
    tracemalloc.start()
    try:
        identities._odd_pair_counts(PAIR_COUNT_MAX_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_oracle_guardrails(monkeypatch):
    def walk(m):
        raise AssertionError(f"walked the subsets of [{m}]")

    # the cap is checked before any subset is visited
    monkeypatch.setattr(identities, "_odd_pair_counts", walk)
    with pytest.raises(ResourceError):
        odd_sum_pair_count(21, 0)
    with pytest.raises(ResourceError):
        odd_sum_pair_count_full(13, 0)
    with pytest.raises(ArgumentError):
        odd_sum_lhs(4, 2)


def test_one_identity_call_charges_its_product_bits_first():
    # the widest rows the identities command admits (max_m 340, t = 0) are
    # answered; past the budget a call is refused before any product is built
    assert even_sum_lhs(340, 0) == even_sum_rhs(340, 0)
    assert odd_sum_lhs(340, 0) == odd_sum_rhs(340, 0)
    for call in (lambda: even_sum_lhs(10**4, 0), lambda: even_sum_rhs(10**12, 0),
                 lambda: odd_sum_lhs(10**4, 0), lambda: odd_sum_rhs(10**12, 0),
                 lambda: odd_sum_pair_count(10**12, 0)):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="bits"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 1 << 20


def test_parity_corollaries():
    # the coefficient consumed by the odd-case uniqueness argument is odd
    for t in range(0, 6):
        for r in range(t + 1, 12):
            assert even_sum_lhs(2 * r + 1, t) % 2 == 1
    # the even-case second sum collapses to an even multiple
    for t in range(0, 6):
        for r in range(t + 1, 12):
            assert odd_sum_rhs(2 * r + 1, t) % 2 == 0
