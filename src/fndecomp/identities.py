"""Two exact binomial identities, each checkable against an independent count.

Identity over even lower indices, for 0 <= t <= m/2 - 1:

    sum_{i=t+1}^{floor(m/2)} C(m, 2i) C(i-1, t)
        = 2^(m-2t-1) * sum_{k=0}^{floor(t/2)} C(m-3-t-2k, t-2k) + (-1)^(t+1)

Identity over odd lower indices, for 0 <= t <= (m-1)/2:

    sum_{k=t+1}^{floor((m+1)/2)} C(m, 2k-1) C(2k-1, 2t) = C(m, 2t) 2^(m-2t-1)

The second counts pairs (P, Q) with P subset of Q subset of [m], |P| = 2t and
|Q| odd; ``odd_sum_pair_count`` reproduces it by enumerating every set Q once
per m, tallied by odd |Q|, which gives the count for every t from one walk;
the walk goes in blocks of 2^10 sets, so its memory does not grow with m.

All arithmetic is exact big-integer.  The right-hand side of the first
identity can hit a binomial with negative upper index at boundary parameters;
direct evaluation of the left-hand side forces the generalized convention
C(n, 0) = 1 for every integer n (e.g. m=2, t=0 needs C(-1, 0) = 1).
A negative upper index with positive lower index never occurs in range.
"""

from __future__ import annotations

from math import comb

from .errors import ArgumentError, ResourceError, charge, excerpt_int
from .groups import as_int
from .tables import _support_sizes

PAIR_COUNT_MAX_M = 20
# the pair count walks the subsets of [m] in blocks of 2^_BLOCK_BITS, so it
# never holds more than 2^_BLOCK_BITS subset sizes at once
_BLOCK_BITS = 10


def binom(n: int, k: int) -> int:
    """C(n, k) with C(n, 0) = 1 for all n; 0 for k < 0 or 0 <= n < k or n < 0 < k."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0:
        return 0
    return comb(n, k) if k <= n else 0


def _charge_products(m: int, products: int) -> None:
    """ResourceError when products of up to m bits each, the size of C(m, j)
    and of 2^(m-1), would take more than MAX_CELLS bits, before any is built."""
    charge(products * m, "bits", "an identity row of {} products of up to m={} bits", products, m)


def _even_products(m: int, t: int) -> int:
    """m//2 - t products on the left-hand side, t//2 + 1 on the right."""
    return m // 2 - t + t // 2 + 1


def _odd_products(m: int, t: int) -> int:
    """(m+1)//2 - t products on the left-hand side, one on the right."""
    return (m + 1) // 2 - t + 1


def _check_even_sum_args(m: int, t: int) -> tuple[int, int]:
    """m and t as plain ints (groups.as_int), with 0 <= t <= m/2 - 1 and
    the products of the row within budget (_charge_products)."""
    m, t = as_int("m", m), as_int("t", t)
    if m < 0 or t < 0 or 2 * t + 2 > m:
        raise ArgumentError(
            f"need 0 <= t <= m/2 - 1, got m={excerpt_int(m)}, t={excerpt_int(t)}")
    _charge_products(m, _even_products(m, t))
    return m, t


def even_sum_lhs(m: int, t: int) -> int:
    m, t = _check_even_sum_args(m, t)
    return sum(comb(m, 2 * i) * comb(i - 1, t) for i in range(t + 1, m // 2 + 1))


def even_sum_rhs(m: int, t: int) -> int:
    m, t = _check_even_sum_args(m, t)
    tail = sum(binom(m - 3 - t - 2 * k, t - 2 * k) for k in range(t // 2 + 1))
    return 2 ** (m - 2 * t - 1) * tail + (-1) ** (t + 1)


def _check_odd_sum_args(m: int, t: int) -> tuple[int, int]:
    """m and t as plain ints (groups.as_int), with 0 <= t <= (m-1)/2 and
    the products of the row within budget (_charge_products)."""
    m, t = as_int("m", m), as_int("t", t)
    if m < 1 or t < 0 or 2 * t + 1 > m:
        raise ArgumentError(
            f"need 0 <= t <= (m-1)/2, got m={excerpt_int(m)}, t={excerpt_int(t)}")
    _charge_products(m, _odd_products(m, t))
    return m, t


def odd_sum_lhs(m: int, t: int) -> int:
    m, t = _check_odd_sum_args(m, t)
    return sum(comb(m, 2 * k - 1) * comb(2 * k - 1, 2 * t)
               for k in range(t + 1, (m + 1) // 2 + 1))


def odd_sum_rhs(m: int, t: int) -> int:
    m, t = _check_odd_sum_args(m, t)
    return comb(m, 2 * t) * 2 ** (m - 2 * t - 1)


def _odd_pair_counts(m: int) -> list[int]:
    """Pair counts for t = 0, ..., (m-1)/2 from one walk over every Q of [m]."""
    # block h holds the Q whose elements from low_bits up are the bits of h;
    # low[q] = |q| for the bitmask q of the rest, so the Q of size s in the
    # block are the q with low[q] = s - |h|
    low_bits = min(m, _BLOCK_BITS)
    low = _support_sizes(2, low_bits)
    odd = range(1, m + 1, 2)
    tally = [0] * len(odd)
    for h in range(1 << (m - low_bits)):
        high = h.bit_count()
        for j, s in enumerate(odd):
            if s >= high:
                tally[j] += low.count(s - high)
    return [sum(k * comb(s, 2 * t) for s, k in zip(odd, tally))
            for t in range((m - 1) // 2 + 1)]


def odd_sum_pair_count(m: int, t: int) -> int:
    """Count pairs (P, Q), P subset of Q subset of [m], |P| = 2t, |Q| odd,
    by enumerating every Q."""
    m, t = _check_odd_sum_args(m, t)
    if m > PAIR_COUNT_MAX_M:
        raise ResourceError(f"pair enumeration capped at m <= {PAIR_COUNT_MAX_M}")
    return _odd_pair_counts(m)[t]


def _check_row_work(max_m: int) -> int:
    """max_m as a plain int (groups.as_int); ArgumentError when max_m < 1,
    ResourceError when the rows of both identities for m <= max_m would
    evaluate more than MAX_CELLS binomial products, counted before any row."""
    max_m = as_int("max_m", max_m)
    if max_m < 1:
        raise ArgumentError(f"max_m must be at least 1, got {excerpt_int(max_m)}")
    count = 0
    for m in range(1, max_m + 1):
        count += sum(_even_products(m, t) for t in range((m - 2) // 2 + 1))
        count += sum(_odd_products(m, t) for t in range((m - 1) // 2 + 1))
        charge(count, "binomial products", "the evaluation of the identity rows up to m={}", max_m)
    return max_m


def even_sum_rows(max_m: int) -> list[tuple[int, int, int, int, bool]]:
    """(m, t, lhs, rhs, equal) for every valid pair with m <= max_m."""
    max_m = _check_row_work(max_m)
    out = []
    for m in range(2, max_m + 1):
        for t in range((m - 2) // 2 + 1):
            l, r = even_sum_lhs(m, t), even_sum_rhs(m, t)
            out.append((m, t, l, r, l == r))
    return out


def odd_sum_rows(max_m: int) -> list[tuple[int, int, int, int, int | None, bool]]:
    """(m, t, lhs, rhs, pair_count_or_None, all_equal) for m <= max_m."""
    max_m = _check_row_work(max_m)
    out = []
    for m in range(1, max_m + 1):
        counts = _odd_pair_counts(m) if m <= PAIR_COUNT_MAX_M else None
        for t in range((m - 1) // 2 + 1):
            l, r = odd_sum_lhs(m, t), odd_sum_rhs(m, t)
            cnt = None if counts is None else counts[t]
            ok = l == r and (cnt is None or cnt == l)
            out.append((m, t, l, r, cnt, ok))
    return out
