"""Self-verifying constructors for the non-decomposability counterexamples.

Each bundle packages a table together with a derivative witness (position
set, parameter tuple, expected nonzero value) refuting k-decomposability for
the claimed k.  ``verify`` recomputes the derivative and raises when the
bundle does not certify what it claims.
"""

from __future__ import annotations

from .calculus import derivative_at_zero
from .errors import ArgumentError, InternalConsistencyError
from .groups import Element, Group
from .oddsupport import PhiMap, table_from_phi
from .records import Record
from .tables import FnTable


class WitnessBundle(Record):
    _fields = ("table", "positions", "params", "expected", "claimed_k")

    def __init__(
        self,
        table: FnTable,
        positions: frozenset[int],
        params: tuple[int, ...],
        expected: Element,
        claimed_k: int,
    ):
        self.__dict__.update(
            table=table, positions=positions, params=params, expected=expected,
            claimed_k=claimed_k,
        )

    def verify(self) -> None:
        """Recompute the derivative witness; raise if the bundle lies."""
        if len(self.positions) != self.claimed_k + 1:
            raise InternalConsistencyError(
                f"witness on {len(self.positions)} positions cannot refute "
                f"k={self.claimed_k}"
            )
        value = derivative_at_zero(self.table, self.positions, self.params)
        if value != self.expected:
            raise InternalConsistencyError(
                f"derivative value {value} differs from claimed {self.expected}"
            )
        if value == self.table.group.zero:
            raise InternalConsistencyError("witness derivative vanishes")


def tightness_witness(ell: int, e: int, group: Group, b: Element, n: int) -> WitnessBundle:
    """Function on alphabet {0..ell}, determined by odd support, that meets the
    (|A|+e-2)-decomposability bound exactly: it refutes k = |A|+e-3.

    Requires exp(group) = 2**e with e >= 1, b of full order 2**e, and
    n >= ell+e-1.  phi sends exactly the supports containing all of
    {1..ell} to b.
    """
    if ell < 1:
        raise ArgumentError(f"alphabet parameter ell must be >= 1, got {ell}")
    if e < 1 or group.exponent != 1 << e:
        raise ArgumentError(
            f"group exponent {group.exponent} is not 2**{e}"
        )
    b = group.validate(b)
    if group.order_of(b) != 1 << e:
        raise ArgumentError(f"element {b} must have order 2**{e}")
    if n < ell + e - 1:
        raise ArgumentError(f"arity must be >= ell+e-1 = {ell + e - 1}, got {n}")
    a_size = ell + 1
    zero = group.zero
    nonzero_above = frozenset(range(1, a_size))
    phi = PhiMap.on_phi_domain(
        a_size, n, group, lambda S: b if nonzero_above <= S else zero
    )
    table = table_from_phi(phi)
    positions = frozenset(range(ell + e - 1))
    params = tuple(range(1, ell)) + (ell,) * e + (0,) * (n - ell - e + 1)
    expected = group.scalar_mul((-1) ** (e - 1) * (1 << (e - 1)), b)
    return WitnessBundle(table, positions, params, expected, a_size + e - 3)


def hamming_witness(n: int, group: Group, b: Element) -> WitnessBundle:
    """Binary-alphabet function (value b on even Hamming weight, 0 on odd)
    that is determined by odd support yet not (n-1)-decomposable.

    Requires the order of b not to be a power of two.
    """
    if n < 1:
        raise ArgumentError(f"arity must be >= 1, got {n}")
    b = group.validate(b)
    order = group.order_of(b)
    if order & (order - 1) == 0:
        raise ArgumentError(
            f"element {b} has order {order}, a power of two; the construction "
            "needs an order with an odd prime factor"
        )
    table = hamming_extension(n, 2, group, b)
    expected = group.scalar_mul((-1) ** n * (1 << (n - 1)), b)
    return WitnessBundle(table, frozenset(range(n)), (1,) * n, expected, n - 1)


def hamming_extension(n: int, a_size: int, group: Group, b: Element) -> FnTable:
    """Odd-support-determined table on a larger alphabet restricting to the
    Hamming witness on {0,1}^n: phi(S) = b exactly when 1 is not in S."""
    if a_size < 2:
        raise ArgumentError(f"alphabet size must be >= 2, got {a_size}")
    b = group.validate(b)
    zero = group.zero
    return table_from_phi(PhiMap.on_phi_domain(a_size, n, group, lambda S: zero if 1 in S else b))


def large_alphabet_witness(n: int, a_size: int, group: Group, b: Element) -> WitnessBundle:
    """Indicator-style function on an alphabet larger than its arity that is
    determined by odd support but not (n-1)-decomposable, for any group.

    f(x) = b exactly when {x_1, ..., x_n} = {1, ..., n} as a set; requires
    a_size >= n+1 and b != 0.
    """
    if n < 2:
        raise ArgumentError(f"arity must be >= 2, got {n}")
    if a_size < n + 1:
        raise ArgumentError(f"alphabet size must be >= n+1 = {n + 1}, got {a_size}")
    b = group.validate(b)
    if b == group.zero:
        raise ArgumentError("witness value b must be nonzero")
    # n letters with odd support {1..n} are 1..n once each
    target = frozenset(range(1, n + 1))
    zero = group.zero
    table = table_from_phi(
        PhiMap.on_phi_domain(a_size, n, group, lambda S: b if S == target else zero)
    )
    return WitnessBundle(
        table, frozenset(range(n)), tuple(range(1, n + 1)), b, n - 1
    )
