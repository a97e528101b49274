"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with ``pytest -s``); a failed
assertion means the criterion does not hold.  Wall-time targets are asserted
where stated.
"""

import random
import time
from itertools import combinations, product

import numpy as np

from fndecomp import (
    FnTable,
    Group,
    PhiMap,
    decompose_even,
    decompose_odd,
    decompose_uniform,
    derivative_at_zero,
    essential_arity,
    extract_phi,
    hamming_witness,
    higher_derivative,
    is_k_decomposable,
    odd_support,
    phi_domain,
    reconstruct_even,
    reconstruct_odd,
    reconstruct_uniform,
    table_from_phi,
    taylor_terms,
    tightness_witness,
    classify_boolean,
    determined_count,
)
from fndecomp.booldecomp import full_map_from_domain_entries
from fndecomp.classify import Z3Params, params_from_phi, phi_values_for_params, z3_build, z3_classify
from fndecomp.identities import even_sum_rows, odd_sum_rows
from fndecomp.tables import iter_tuples
from helpers import (
    all_phi_assignments,
    boolean_corpus,
    higher_derivative_expansion,
    pair_scan_arity_gap,
    random_full_arity_table,
    sum_tables,
)

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z6 = Group((6,))
Z2xZ2 = Group((2, 2))


def test_criterion_01_boolean_classification_exhaustive():
    start = time.time()
    checked = 0
    for n in (3, 4):
        for case in boolean_corpus(n):
            if case.essential_arity < 2:
                continue
            assert classify_boolean(case.table).gap == case.gap
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPT-01 boolean classification ({checked} tables, {elapsed:.1f}s): PASS")


def test_criterion_02_willard_dichotomy():
    # exhaustive at |A|=2, n=4
    mismatches = 0
    for case in boolean_corpus(4):
        if case.essential_arity != 4:
            continue
        if (case.gap == 2) != (extract_phi(case.table) is not None):
            mismatches += 1
    assert mismatches == 0

    # n=5 over |A|=2 (Z2) and |A|=3 (Z3): all determined + 10000 random each
    rng = random.Random(20240)
    for a_size, group in ((2, Z2), (3, Z3)):
        for entries in all_phi_assignments(a_size, 5, group):
            f = table_from_phi(PhiMap.on_phi_domain(a_size, 5, group, entries))
            if essential_arity(f) != 5:
                continue
            assert pair_scan_arity_gap(f) == 2
        for _ in range(10000):
            f = random_full_arity_table(rng, a_size, 5, group)
            assert (pair_scan_arity_gap(f) == 2) == (extract_phi(f) is not None)
    print("ACCEPT-02 willard dichotomy: PASS")


def test_criterion_03_taylor_exactness():
    rng = random.Random(30303)
    combos = [
        (a, n, g)
        for a in (2, 3)
        for n in (1, 2, 3)
        for g in (Z2, Z3, Z4, Z2xZ2)
    ]
    done = 0
    while done < 1000:
        a, n, g = combos[done % len(combos)]
        f = FnTable(a, n, g, tuple(rng.randrange(g.order) for _ in range(a**n)))
        terms = taylor_terms(f)
        assert sum_tables(g, [t for _, t in terms]) == f.values
        done += 1
    print(f"ACCEPT-03 taylor exactness ({done} tables): PASS")


def test_criterion_04_derivative_consistency():
    rng = random.Random(40404)
    for a_size in (2, 3):
        for n in (1, 2, 3):
            for g in (Z2, Z3, Z4):
                tables = [
                    FnTable.constant(a_size, n, g, g.decode(g.order - 1)),
                    FnTable.from_callable(a_size, n, g,
                                          lambda x: g.decode(sum(x) % g.order)),
                ] + [
                    FnTable(a_size, n, g,
                            tuple(rng.randrange(g.order) for _ in range(a_size**n)))
                    for _ in range(4)
                ]
                for f in tables:
                    for r in range(n + 1):
                        for I in combinations(range(n), r):
                            for assign in product(range(a_size), repeat=r):
                                params = [0] * n
                                for t, i in enumerate(I):
                                    params[i] = assign[t]
                                lhs = higher_derivative(f, I, tuple(params))
                                rhs = higher_derivative_expansion(f, I, tuple(params))
                                assert lhs.values == rhs.values
    print("ACCEPT-04 derivative consistency: PASS")


def test_criterion_05_upper_bound_and_tightness():
    # exhaustive: |A|=3, B=Z2 (e=1), bound k = |A|+e-2 = 2
    for n in (4, 5):
        for entries in all_phi_assignments(3, n, Z2):
            f = table_from_phi(PhiMap.on_phi_domain(3, n, Z2, entries))
            assert is_k_decomposable(f, 2)

    # 200 random over B=Z4 (e=2), bound k = 3
    rng = random.Random(50505)
    keys = phi_domain(3, 5)
    for _ in range(200):
        entries = {S: (rng.randrange(4),) for S in keys}
        f = table_from_phi(PhiMap.on_phi_domain(3, 5, Z4, entries))
        assert is_k_decomposable(f, 3)

    # tightness refutes |A|+e-3 with value exactly (-1)^(e-1) * 2^(e-1) * b
    for ell, e, group, b, n in [(2, 1, Z2, (1,), 4), (2, 2, Z4, (1,), 5)]:
        w = tightness_witness(ell, e, group, b, n)
        w.verify()
        expected = group.scalar_mul((-1) ** (e - 1) * 2 ** (e - 1), b)
        assert w.expected == expected != group.zero
        assert derivative_at_zero(w.table, w.positions, w.params) == expected
        assert not is_k_decomposable(w.table, ell + 1 + e - 3)
        assert is_k_decomposable(w.table, ell + 1 + e - 2)
    print("ACCEPT-05 upper bound and tightness: PASS")


def test_criterion_06_lower_bound_hamming():
    for group, mod in ((Z3, 3), (Z6, 6)):
        for n in (3, 4, 5):
            w = hamming_witness(n, group, (1,))
            w.verify()
            expected = (((-1) ** n * 2 ** (n - 1)) % mod,)
            assert w.expected == expected
            assert derivative_at_zero(w.table, range(n), (1,) * n) == expected
            assert not is_k_decomposable(w.table, n - 1)
    print("ACCEPT-06 lower bound hamming witnesses: PASS")


def test_criterion_07_unique_round_trips():
    cases = [
        ("odd", 2, 5, Z2),
        ("even", 2, 4, Z2),
        ("odd", 3, 4, Z2),
        ("even", 3, 5, Z2),
        ("odd", 3, 4, Z2xZ2),
    ]
    for mode, a_size, n, group in cases:
        seen = set()
        for entries in all_phi_assignments(a_size, n, group):
            if mode == "odd":
                phi = PhiMap.on_phi_domain(a_size, n, group, entries)
                f = reconstruct_odd(phi)
                assert decompose_odd(f) == phi
            else:
                phi = full_map_from_domain_entries(a_size, group, entries)
                f = reconstruct_even(phi, n)
                assert decompose_even(f) == phi
            seen.add(f.values)
        assert len(seen) == group.order ** len(phi_domain(a_size, n))
    print("ACCEPT-07 unique decomposition round trips: PASS")


def test_criterion_08_uniform_existence():
    for a_size, n in ((2, 4), (2, 5), (3, 4)):
        for entries in all_phi_assignments(a_size, n, Z2):
            f = table_from_phi(PhiMap.on_phi_domain(a_size, n, Z2, entries))
            phi = decompose_uniform(f)
            assert reconstruct_uniform(phi).values == f.values
    print("ACCEPT-08 uniform-decomposition existence: PASS")


def test_criterion_09_z3_theorem():
    start = time.time()
    quadruples = [Z3Params(a, b, c, d)
                  for a in range(3) for b in range(3)
                  for c in range(3) for d in range(3)]
    for n in (4, 5, 6, 7):
        seen = set()
        for params in quadruples:
            f = z3_build(n, params)
            seen.add(f.values)
            res = z3_classify(f)
            if params.a == params.b == params.c == 0:
                assert res.verdict == "degenerate" and set(f.values) == {params.d}
            else:
                assert res.verdict == "gap2" and res.params == params
        assert len(seen) == 81
    # the worked value
    assert z3_build(4, Z3Params(1, 2, 2, 2)).eval((0, 0, 1, 2)) == (1,)
    # arity 7: recovered phi equals the linear image of the params
    for params in quadruples:
        phi = extract_phi(z3_build(7, params))
        assert phi is not None
        for S, v in phi_values_for_params(7, params).items():
            assert phi.value(S) == v
        assert params_from_phi(phi) == params
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPT-09 ternary classification ({elapsed:.1f}s): PASS")


def test_criterion_10_binomial_identities():
    start = time.time()
    for m, t, lhs, rhs, ok in even_sum_rows(24):
        assert ok, (m, t, lhs, rhs)
    for m, t, lhs, rhs, cnt, ok in odd_sum_rows(20):
        assert ok and cnt == lhs == rhs, (m, t)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPT-10 binomial identities ({elapsed:.1f}s): PASS")


def test_criterion_11_determined_counts():
    # (2,3) and (2,4): every table of the Boolean corpus through the library
    for n in (3, 4):
        hits = sum(extract_phi(case.table) is not None for case in boolean_corpus(n))
        assert hits == determined_count(2, n, Z2)

    # (3,3): 2**27 tables, enumerated in numpy chunks; a table is determined
    # exactly when it is constant on every odd-support class
    class_mask: dict = {}
    for idx, x in enumerate(iter_tuples(3, 3)):
        S = odd_support(3, x)
        class_mask[S] = class_mask.get(S, 0) | 1 << idx
    masks = [np.uint32(m) for m in class_mask.values()]
    total = 0
    chunk = 1 << 22
    for start in range(0, 1 << 27, chunk):
        t = np.arange(start, start + chunk, dtype=np.uint32)
        ok = np.ones(chunk, dtype=bool)
        for m in masks:
            v = t & m
            ok &= (v == 0) | (v == m)
        total += int(ok.sum())
    assert total == determined_count(3, 3, Z2) == 16
    print("ACCEPT-11 determined-function counts: PASS")
