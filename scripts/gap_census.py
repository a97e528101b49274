#!/usr/bin/env python3
"""Census of arity gaps over all small Boolean tables.

Enumerates every table {0,1}^n -> Z2 for n in {2, 3, 4}, tallies the gap
distribution, and breaks the gap-2 tables down by canonical form.  Doubles
as a consistency sweep: the explicit classification must agree on every
table with the gap taken from its definition, the least drop in essential
arity over the identification minors of pairs of essential variables
(tables.pair_scan_gap on the table restricted to its essential variables).
"""

import argparse
import time
from collections import Counter

from fndecomp import FnTable, Group, classify_boolean, reduce_to_essential
from fndecomp.tables import pair_scan_gap

Z2 = Group((2,))


def census(n: int) -> None:
    size = 1 << n
    gaps = Counter()
    forms = Counter()
    start = time.time()
    for code in range(1 << size):
        g = reduce_to_essential(FnTable(2, n, Z2, tuple(code >> i & 1 for i in range(size))))
        if g.arity < 2:
            gaps["undefined (ess<2)"] += 1
            continue
        result = classify_boolean(g)
        direct = pair_scan_gap(g)
        assert result.gap == direct, (code, result, direct)
        gaps[f"gap {direct}"] += 1
        if result.form is not None:
            label = result.form.kind
            if result.form.m is not None:
                label += f"(m={result.form.m})"
            forms[f"{label} c={result.form.c}"] += 1
    elapsed = time.time() - start
    print(f"arity {n}: {1 << size} tables in {elapsed:.1f}s")
    for key in sorted(gaps):
        print(f"  {key}: {gaps[key]}")
    if forms:
        print("  gap-2 forms:")
        for key in sorted(forms):
            print(f"    {key}: {forms[key]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-arity", type=int, default=4, choices=(2, 3, 4))
    args = parser.parse_args()
    for n in range(2, args.max_arity + 1):
        census(n)


if __name__ == "__main__":
    main()
