"""Canonical decompositions of odd-support-determined functions over Boolean groups.

For a Boolean codomain (every factor Z2) and n = arity, |A| = alphabet size:

* odd case, n - |A| = 2t+1 > 0: f is determined by odd support iff it equals
  the double sum over i in [t+1, n//2] and position sets I of size n-2i of
  C(i-1, t) * phi(odd_support(x restricted to I)), for a unique phi on
  phi_domain(|A|, n).
* even case, n - |A| = 2t > 0: same first sum plus a second sum over sets K
  of size n-2k+1 (k in [t+1, (n+1)//2]) with coefficient C(2k-1, 2t), for a
  unique phi on the full power set satisfying phi(S) = phi(S symdiff {0}).
* uniform case ("fitilde"), n > max(|A|, 3): the coefficient-free sum over
  all sizes n-2, n-4, ... reproduces every determined f for a unique phi on
  phi_domain(|A|, n).

Every defining sum is symmetric in the positions, so it depends on x only
through its letter counts.  On every (|A|, n) the cell budget admits, in
each case, the sum at every count class reads phi at odd_support(x) alone:
tests/test_booldecomp.py checks all 85 such systems class by class, with a
unit code per key.  So each defining sum is x -> phi(odd_support(x)), the
table ``table_from_phi`` builds, and each reconstruction returns that table
after its checks (in the even case, of phi restricted to phi_domain(|A|, n)).
In particular f at representative_tuple(S, n) is phi(S): phi is read, not
solved, and the unique phi, in the uniform case too, is extract_phi(f).
Each decomposer rebuilds the table from the phi it returns and raises
InternalConsistencyError unless that rebuild is f.
"""

from __future__ import annotations

from .errors import ArgumentError, InternalConsistencyError, PreconditionError, excerpt, excerpt_int
from .groups import Group, as_int
from .minors import pair_scan_limit
from .oddsupport import PhiMap, domain_sizes, extract_phi, table_from_phi
from .tables import FnTable, check_cells


# ----------------------------------------------------------------------
# case structure: the regime of each decomposition
# ----------------------------------------------------------------------


def odd_case_shift(a_size: int, n: int) -> int:
    d = n - a_size
    if d <= 0 or d % 2 == 0:
        raise PreconditionError(
            "parity mismatch: n-|A| even" if d % 2 == 0 else "n-|A| must be positive"
        )
    return (d - 1) // 2


def even_case_shift(a_size: int, n: int) -> int:
    d = n - a_size
    if d <= 0 or d % 2 == 1:
        raise PreconditionError(
            "parity mismatch: n-|A| odd" if d % 2 == 1 else "n-|A| must be positive"
        )
    return d // 2


def require_uniform_regime(a_size: int, n: int) -> None:
    """The regime n > max(|A|, 3) of decompose_uniform."""
    limit = pair_scan_limit(a_size)
    if n <= limit:
        raise PreconditionError(
            f"uniform decomposition needs arity > max(|A|, 3) = {excerpt_int(limit)}, "
            f"got {excerpt_int(n)}"
        )


def require_boolean(group: Group) -> None:
    if not group.is_boolean():
        raise PreconditionError(
            f"codomain {excerpt(group.to_text())} is not Boolean (every factor must be Z2)"
        )


# ----------------------------------------------------------------------
# the defining sums, each the table of phi through odd support
# ----------------------------------------------------------------------


def reconstruct_odd(phi: PhiMap) -> FnTable:
    """The odd-case decomposition sum of a phi_domain-keyed map."""
    if phi.arity is None:
        raise ArgumentError("odd-case reconstruction needs a pnprime phi map")
    require_boolean(phi.group)
    odd_case_shift(phi.a_size, phi.arity)
    return table_from_phi(phi)


def reconstruct_even(phi: PhiMap, n: int) -> FnTable:
    """The even-case decomposition sum of a full paired map at arity n."""
    if phi.arity is not None:
        raise ArgumentError("even-case reconstruction needs a full paired phi map")
    require_boolean(phi.group)
    n = as_int("arity", n)
    even_case_shift(phi.a_size, n)
    check_cells(phi.a_size, n)
    return table_from_phi(PhiMap.on_phi_domain(phi.a_size, n, phi.group, phi.value))


def reconstruct_uniform(phi: PhiMap) -> FnTable:
    """The coefficient-free sum over sizes n-2, n-4, ..., in the regime
    n > max(|A|, 3) of decompose_uniform only (PreconditionError outside it)."""
    if phi.arity is None:
        raise ArgumentError("uniform reconstruction needs a pnprime phi map")
    require_boolean(phi.group)
    require_uniform_regime(phi.a_size, phi.arity)
    return table_from_phi(phi)


# ----------------------------------------------------------------------
# phi recovery: extract_phi, checked by a rebuild
# ----------------------------------------------------------------------


def _read_phi(f: FnTable) -> PhiMap:
    """extract_phi(f), keyed on phi_domain(f.a_size, f.arity); a table that
    is not determined by odd support has no decomposition."""
    phi = extract_phi(f)
    if phi is None:
        raise PreconditionError("function is not determined by odd support")
    return phi


def _rebuilds(phi: PhiMap, rebuilt: FnTable, f: FnTable) -> PhiMap:
    """phi, once rebuilt, the table its defining sum gives, is checked to be f."""
    if rebuilt.values != f.values:
        raise InternalConsistencyError("reconstruction does not reproduce the input")
    return phi


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f, checked by that rebuild."""
    require_boolean(f.group)
    odd_case_shift(f.a_size, f.arity)
    phi = _read_phi(f)
    return _rebuilds(phi, reconstruct_odd(phi), f)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f,
    checked by that rebuild."""
    require_boolean(f.group)
    even_case_shift(f.a_size, f.arity)
    phi = full_map_from_domain_entries(f.a_size, f.group, _read_phi(f).entries)
    return _rebuilds(phi, reconstruct_even(phi, f.arity), f)


def full_map_from_domain_entries(a_size: int, group: Group, entries) -> PhiMap:
    """Extend values given on phi_domain keys to the full power set via pairing.

    Above arity |A| every subset S is a key or the partner S symdiff {0} of
    one; a given entry wins over a partner, so a conflicting input still fails
    the pairing check.
    """
    return PhiMap(a_size, group, None, {**{S ^ {0}: v for S, v in entries.items()}, **entries})


def decompose_uniform(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_uniform(phi) == f, checked by that
    rebuild.

    It exists for every determined f in the regime n > max(|A|, 3), and it
    is extract_phi(f), unique there, because every admissible probe system
    is the identity (see the module docstring and uniform_system_rank).
    """
    require_boolean(f.group)
    require_uniform_regime(f.a_size, f.arity)
    phi = _read_phi(f)
    return _rebuilds(phi, reconstruct_uniform(phi), f)


def uniform_system_rank(a_size: int, n: int) -> tuple[int, int]:
    """(rank, unknowns) of the uniform probe system, in the regime of
    decompose_uniform only (PreconditionError outside it).

    Every admissible probe system is the identity, as the tests check, so
    the rank is the number of unknowns, one per phi_domain key, and the phi
    that extract_phi reads is the only one.
    """
    a_size, n = check_cells(a_size, n)
    require_uniform_regime(a_size, n)
    k = domain_sizes(a_size, n)[2]
    return k, k
