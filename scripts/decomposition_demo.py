#!/usr/bin/env python3
"""Round-trip demo of the canonical decompositions over Boolean groups.

Builds every odd-support-determined function for a few (alphabet, arity)
pairs, recovers the unique phi, which is extract_phi(f) because every
admissible probe system is the identity (as the tests check), confirms the
reconstruction is exact, and reports the rank of the coefficient-free
("fitilde") system.
"""

from itertools import product

from fndecomp import (
    Group,
    PhiMap,
    decompose_even,
    decompose_odd,
    phi_domain,
    reconstruct_even,
    reconstruct_odd,
    uniform_system_rank,
)
from fndecomp.booldecomp import full_map_from_domain_entries

Z2 = Group((2,))


def sweep(a_size: int, n: int) -> None:
    keys = phi_domain(a_size, n)
    odd_case = (n - a_size) % 2 == 1
    label = "odd" if odd_case else "even"
    count = 0
    for combo in product(list(Z2.elements()), repeat=len(keys)):
        entries = dict(zip(keys, combo))
        if odd_case:
            phi = PhiMap.on_phi_domain(a_size, n, Z2, entries)
            f = reconstruct_odd(phi)
            assert decompose_odd(f) == phi
        else:
            phi = full_map_from_domain_entries(a_size, Z2, entries)
            f = reconstruct_even(phi, n)
            assert decompose_even(f) == phi
        count += 1
    rank, unknowns = uniform_system_rank(a_size, n)
    print(f"|A|={a_size} n={n} ({label} case): {count} functions round-trip exactly; "
          f"uniform system rank {rank}/{unknowns}")


def main() -> None:
    for a_size, n in ((2, 4), (2, 5), (3, 4), (3, 5), (2, 6)):
        sweep(a_size, n)


if __name__ == "__main__":
    main()
