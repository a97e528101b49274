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
solved, and the unique phi, in the uniform case too, is extract_phi(f).  The
uniform probe system's rank is its number k of unknowns, one per phi_domain
key, so ``decompose --mode fitilde`` reports system_rank k/k with k the size
of the phi it returns.
Each decomposer rebuilds the table from the phi it returns and raises
InternalConsistencyError unless that rebuild is f.  What a case needs of a
table, a Boolean codomain and then its regime, is checked by ``require_case``
alone, in the decomposers, the reconstructions and the CLI's header hook.
"""

from __future__ import annotations

from .errors import ArgumentError, InternalConsistencyError, PreconditionError, excerpt, excerpt_int
from .groups import Group, as_int
from .minors import pair_scan_limit
from .oddsupport import PhiMap, extract_phi, table_from_phi
from .tables import FnTable, check_cells


# ----------------------------------------------------------------------
# case structure: the regime of each decomposition
# ----------------------------------------------------------------------


def _case_shift(a_size: int, n: int, parity: int) -> int:
    """t with n - |A| = 2t + parity > 0: the shift of the odd (parity 1) or
    even (parity 0) case."""
    d = n - a_size
    if d % 2 != parity:
        raise PreconditionError(f"parity mismatch: n-|A| {('even', 'odd')[d % 2]}")
    if d <= 0:
        raise PreconditionError("n-|A| must be positive")
    return d // 2


def require_case(case: str, group: Group, a_size: int, n: int) -> int:
    """The arity n as an int, once the codomain is checked Boolean, then
    (a_size, n) in the regime of case "odd", "even" or "uniform"; what a
    decomposition and its reconstruction need of a table's header."""
    if not group.is_boolean():
        raise PreconditionError(
            f"codomain {excerpt(group.to_text())} is not Boolean (every factor must be Z2)"
        )
    n = as_int("arity", n)
    limit = pair_scan_limit(a_size)
    if case != "uniform":
        _case_shift(a_size, n, case == "odd")
    elif n <= limit:
        raise PreconditionError(
            f"uniform decomposition needs arity > max(|A|, 3) = {excerpt_int(limit)}, "
            f"got {excerpt_int(n)}"
        )
    return n


# ----------------------------------------------------------------------
# the defining sums, each the table of phi through odd support
# ----------------------------------------------------------------------


def _pnprime_sum(phi: PhiMap, case: str, name: str) -> FnTable:
    """The defining sum of case "odd" or "uniform" (called name in messages)
    of a phi_domain-keyed map, the table of phi through odd support."""
    if phi.arity is None:
        raise ArgumentError(f"{name} reconstruction needs a pnprime phi map")
    require_case(case, phi.group, phi.a_size, phi.arity)
    return table_from_phi(phi)


def reconstruct_odd(phi: PhiMap) -> FnTable:
    """The odd-case decomposition sum of a phi_domain-keyed map."""
    return _pnprime_sum(phi, "odd", "odd-case")


def reconstruct_even(phi: PhiMap, n: int) -> FnTable:
    """The even-case decomposition sum of a full paired map at arity n."""
    if phi.arity is not None:
        raise ArgumentError("even-case reconstruction needs a full paired phi map")
    n = require_case("even", phi.group, phi.a_size, n)
    check_cells(phi.a_size, n)
    return table_from_phi(PhiMap.on_phi_domain(phi.a_size, n, phi.group, phi.value))


def reconstruct_uniform(phi: PhiMap) -> FnTable:
    """The coefficient-free sum over sizes n-2, n-4, ..., in the regime
    n > max(|A|, 3) of decompose_uniform only (PreconditionError outside it)."""
    return _pnprime_sum(phi, "uniform", "uniform")


# ----------------------------------------------------------------------
# phi recovery: extract_phi, checked by a rebuild
# ----------------------------------------------------------------------


def _decompose(case: str, f: FnTable) -> PhiMap:
    """extract_phi(f), extended to the full power set in the even case, once
    f is checked to be in case "odd", "even" or "uniform" and determined by
    odd support, and the table its defining sum gives is checked to be f."""
    require_case(case, f.group, f.a_size, f.arity)
    phi = extract_phi(f)
    if phi is None:
        raise PreconditionError("function is not determined by odd support")
    if case == "even":
        phi = full_map_from_domain_entries(f.a_size, f.group, phi.entries)
        rebuilt = reconstruct_even(phi, f.arity)
    else:
        rebuilt = (reconstruct_odd if case == "odd" else reconstruct_uniform)(phi)
    if rebuilt.values != f.values:
        raise InternalConsistencyError("reconstruction does not reproduce the input")
    return phi


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f, checked by that rebuild."""
    return _decompose("odd", f)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f,
    checked by that rebuild."""
    return _decompose("even", f)


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
    is the identity (see the module docstring): the system's rank is the
    number of unknowns, len(phi.entries), one per phi_domain key.
    """
    return _decompose("uniform", f)

