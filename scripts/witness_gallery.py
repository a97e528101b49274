#!/usr/bin/env python3
"""Build the non-decomposability witnesses, which verify themselves, and print
the numbers.

For each witness: the refuted k, the derivative witness (positions, params),
the exact derivative value, and the decomposability verdicts on both sides of
the bound.
"""

from fndecomp import (
    Group,
    hamming_witness,
    is_k_decomposable,
    large_alphabet_witness,
    min_decomposition_arity,
    tightness_witness,
)


def show(name, bundle):
    t = bundle.table
    fmt = t.group.format_element
    print(f"{name}: alphabet {t.a_size}, arity {t.arity}, codomain {t.group.to_text()}")
    print(f"  derivative on positions {sorted(bundle.positions)} at params {bundle.params}")
    print(f"  value = {fmt(bundle.expected)}  (nonzero -> not {bundle.claimed_k}-decomposable)")
    print(f"  k={bundle.claimed_k}: {is_k_decomposable(t, bundle.claimed_k)}"
          f"   k={bundle.claimed_k + 1}: {is_k_decomposable(t, bundle.claimed_k + 1)}")
    print(f"  minimal decomposition arity: {min_decomposition_arity(t)}")


def main() -> None:
    show("tightness e=1 (alphabet {0,1,2}, Z2)",
         tightness_witness(2, 1, Group((2,)), (1,), 4))
    show("tightness e=2 (alphabet {0,1,2}, Z4)",
         tightness_witness(2, 2, Group((4,)), (1,), 5))
    show("hamming n=3 over Z3", hamming_witness(3, Group((3,)), (1,)))
    show("hamming n=4 over Z6", hamming_witness(4, Group((6,)), (1,)))
    show("large alphabet n=2, |A|=3 over Z2",
         large_alphabet_witness(2, 3, Group((2,)), (1,)))
    show("large alphabet n=3, |A|=4 over Z2",
         large_alphabet_witness(3, 4, Group((2,)), (1,)))


if __name__ == "__main__":
    main()
