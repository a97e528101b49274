import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import (
    ArgumentError,
    FnTable,
    Group,
    PreconditionError,
    ResourceError,
    decomposability_witness,
    decompose_via_taylor,
    derivative_at_zero,
    essential_variables,
    higher_derivative,
    hamming_witness,
    is_k_decomposable,
    min_decomposition_arity,
    partial_derivative,
    taylor_terms,
    tightness_witness,
)
from helpers import (
    all_tuples,
    higher_derivative_expansion,
    oracle_decomposability_witness,
    oracle_min_decomposition_arity,
    oracle_taylor_terms,
    random_sum_table,
    random_table,
)

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z2xZ3 = Group((2, 3))


def table_sum(group, parts):
    add = group.code_add_table
    acc = [0] * len(parts[0].values)
    for p in parts:
        acc = [add[x][y] for x, y in zip(acc, p.values)]
    return tuple(acc)


def test_partial_derivative_examples():
    const = FnTable.constant(2, 2, Z3, (1,))
    assert set(partial_derivative(const, 0, 1).values) == {0}
    ident = FnTable.from_callable(2, 1, Z2, lambda x: (x[0],))
    d = partial_derivative(ident, 0, 1)
    assert [d.eval((v,)) for v in range(2)] == [(1,), (0,)]  # 1 - x


def test_partial_derivative_definition_oracle():
    rng = random.Random(2)
    for _ in range(20):
        f = random_table(rng, 3, 2, Z4)
        i = rng.randrange(2)
        a = rng.randrange(3)
        d = partial_derivative(f, i, a)
        for x in all_tuples(3, 2):
            shifted = x[:i] + (a,) + x[i + 1:]
            assert d.eval(x) == Z4.sub(f.eval(shifted), f.eval(x))
    # above RUN cells: strided slices cut into chunks (low i) and contiguous
    # ones (high i), every position, every nonzero parameter
    for a_size, n in ((2, 10), (3, 7)):
        f = random_table(rng, a_size, n, Z4)
        for i in range(n):
            for a in range(1, a_size):
                d = partial_derivative(f, i, a)
                for x in all_tuples(a_size, n):
                    shifted = x[:i] + (a,) + x[i + 1:]
                    assert d.eval(x) == Z4.sub(f.eval(shifted), f.eval(x))


def test_derivative_additivity():
    rng = random.Random(8)
    add = Z4.code_add_table
    for _ in range(20):
        f = random_table(rng, 2, 3, Z4)
        g = random_table(rng, 2, 3, Z4)
        s = FnTable(2, 3, Z4, tuple(add[a][b] for a, b in zip(f.values, g.values)))
        i, a = rng.randrange(3), rng.randrange(2)
        df, dg = partial_derivative(f, i, a), partial_derivative(g, i, a)
        ds = partial_derivative(s, i, a)
        assert ds.values == tuple(add[x][y] for x, y in zip(df.values, dg.values))


def test_inessential_iff_derivative_vanishes():
    rng = random.Random(9)
    for _ in range(25):
        f = random_table(rng, 2, 3, Z3)
        ess = essential_variables(f)
        for i in range(3):
            zero_for_all = all(
                not any(partial_derivative(f, i, a).values) for a in range(2)
            )
            zero_for_some = any(
                not any(partial_derivative(f, i, a).values) for a in range(2)
            )
            assert zero_for_all == zero_for_some == (i not in ess)


def test_higher_derivative_empty_set_is_identity():
    f = random_table(random.Random(1), 2, 3, Z3)
    assert higher_derivative(f, (), (0, 0, 0)).values == f.values
    assert higher_derivative_expansion(f, (), (0, 0, 0)).values == f.values


def test_second_derivative_four_term_expansion():
    rng = random.Random(12)
    for _ in range(15):
        f = random_table(rng, 2, 2, Z4)
        a, b = rng.randrange(2), rng.randrange(2)
        d = higher_derivative(f, (0, 1), (a, b))
        for x in all_tuples(2, 2):
            expect = Z4.sub(
                Z4.add(f.eval((a, b)), f.eval(x)),
                Z4.add(f.eval((a, x[1])), f.eval((x[0], b))),
            )
            assert d.eval(x) == expect


def test_iterated_vs_expansion_exhaustive_small():
    rng = random.Random(14)
    for a_size, n, group in [(2, 2, Z2), (2, 3, Z3), (3, 2, Z4), (3, 3, Z2)]:
        for _ in range(6):
            f = random_table(rng, a_size, n, group)
            for r in range(n + 1):
                for I in combinations(range(n), r):
                    for assign in product(range(a_size), repeat=r):
                        params = [0] * n
                        for t, i in enumerate(I):
                            params[i] = assign[t]
                        lhs = higher_derivative(f, I, tuple(params))
                        rhs = higher_derivative_expansion(f, I, tuple(params))
                        assert lhs.values == rhs.values


def test_derivative_commutes():
    rng = random.Random(15)
    for _ in range(10):
        f = random_table(rng, 3, 3, Z4)
        for i, j in combinations(range(3), 2):
            for a, b in product(range(3), repeat=2):
                ij = partial_derivative(partial_derivative(f, i, a), j, b)
                ji = partial_derivative(partial_derivative(f, j, b), i, a)
                assert ij.values == ji.values


def test_derivative_at_zero_matches_tables():
    rng = random.Random(16)
    for _ in range(10):
        f = random_table(rng, 2, 4, Z4)
        for r in range(5):
            for I in combinations(range(4), r):
                params = tuple(rng.randrange(2) for _ in range(4))
                full = higher_derivative(f, I, params)
                assert derivative_at_zero(f, I, params) == full.eval((0, 0, 0, 0))
                base = tuple(rng.randrange(2) for _ in range(4))
                assert derivative_at_zero(f, I, params, base) == full.eval(base)


def test_hamming_derivative_value():
    w = hamming_witness(3, Z3, (1,))
    assert derivative_at_zero(w.table, range(3), (1, 1, 1)) == (2,)


def test_taylor_terms_examples():
    const = FnTable.constant(2, 2, Z3, (2,))
    terms = dict(taylor_terms(const))
    for I, t in terms.items():
        if I:
            assert not any(t.values)
        else:
            assert set(t.values) == {Z3.encode((2,))}
    ident = FnTable.from_callable(2, 1, Z2, lambda x: (x[0],))
    terms = dict(taylor_terms(ident))
    assert terms[frozenset()].values == (0, 0)
    assert [terms[frozenset({0})].eval((v,)) for v in range(2)] == [(0,), (1,)]


def test_taylor_reconstruction_random():
    rng = random.Random(18)
    for a_size, n, group in [(3, 2, Z3), (2, 3, Z4), (3, 3, Z2), (2, 2, Group((2, 2)))]:
        for _ in range(10):
            f = random_table(rng, a_size, n, group)
            terms = taylor_terms(f)
            assert len(terms) == 1 << n
            assert table_sum(group, [t for _, t in terms]) == f.values
            # term for I depends on at most the I positions
            for I, t in terms:
                assert essential_variables(t) <= I


def test_taylor_reconstruction_nonzero_base():
    rng = random.Random(19)
    f = random_table(rng, 3, 2, Z4)
    base = (2, 1)
    assert table_sum(Z4, [t for _, t in taylor_terms(f, base)]) == f.values


def test_taylor_resource_guard():
    f = FnTable.constant(2, 17, Z2, (0,))
    with pytest.raises(ResourceError):
        taylor_terms(f)
    # the budget counts cells, not arity: 2**8 terms of 5**8 cells, and the
    # 9908 terms on at most 7 of 14 positions, are far over it
    with pytest.raises(ResourceError):
        taylor_terms(FnTable.constant(5, 8, Z2, (0,)))
    with pytest.raises(ResourceError):
        decompose_via_taylor(FnTable.constant(2, 14, Z2, (0,)), 7)


def test_decomposability_examples():
    par4 = FnTable.from_callable(2, 4, Z2, lambda x: (sum(x) % 2,))
    assert is_k_decomposable(par4, 1)
    assert min_decomposition_arity(par4) == 1

    w = hamming_witness(3, Z3, (1,))
    assert not is_k_decomposable(w.table, 2)
    witness = decomposability_witness(w.table, 2)
    assert witness == (frozenset({0, 1, 2}), (1, 1, 1))

    const = FnTable.constant(2, 3, Z3, (1,))
    assert min_decomposition_arity(const) == 0
    parts = decompose_via_taylor(const, 0)
    assert len(parts) == 1 and parts[0][0] == frozenset()
    assert set(parts[0][1].values) == {Z3.encode((1,))}


def test_oddsupp_determined_bound_example():
    # alphabet {0,1,2}, Boolean codomain: 2-decomposable
    from fndecomp import PhiMap, table_from_phi

    rng = random.Random(20)
    for _ in range(5):
        entries = {S: (rng.randrange(2),) for S in __import__("fndecomp").phi_domain(3, 4)}
        f = table_from_phi(PhiMap.on_phi_domain(3, 4, Z2, entries))
        assert is_k_decomposable(f, 2)


def test_min_arity_bounded_by_alphabet_and_exponent():
    # sampled: min_decomposition_arity <= |A| + e - 2 when exp(B) = 2**e
    from fndecomp import PhiMap, phi_domain, table_from_phi

    rng = random.Random(22)
    for a_size, n in [(2, 4), (2, 5), (3, 4), (3, 5)]:
        for group in (Z2, Z4, Group((2, 2))):
            e = group.exponent_pow2()
            bound = a_size + e - 2
            for _ in range(8):
                entries = {S: group.decode(rng.randrange(group.order))
                           for S in phi_domain(a_size, n)}
                f = table_from_phi(PhiMap.on_phi_domain(a_size, n, group, entries))
                assert min_decomposition_arity(f) <= bound


def test_two_power_exponent_side_of_the_dichotomy():
    # with exp(B) a power of two, every determined table at desk scale is
    # (n-1)-decomposable; Z3/Z6 counterexamples exist (see witness tests)
    from fndecomp import PhiMap, table_from_phi
    from helpers import all_phi_assignments

    for group in (Z2, Z4):
        for entries in all_phi_assignments(2, 4, group):
            f = table_from_phi(PhiMap.on_phi_domain(2, 4, group, entries))
            assert is_k_decomposable(f, 3)


def test_min_decomposition_arity_tightness():
    # alphabet size 3, exponent 4 (e=2): minimum is |A| + e - 2 = 3
    w = tightness_witness(2, 2, Z4, (1,), 5)
    assert min_decomposition_arity(w.table) == 3
    assert is_k_decomposable(w.table, 3)
    assert not is_k_decomposable(w.table, 2)


def test_decompose_via_taylor_round_trip_and_failure():
    par4 = FnTable.from_callable(2, 4, Z2, lambda x: (sum(x) % 2,))
    parts = decompose_via_taylor(par4, 1)
    assert table_sum(Z2, [p for _, p in parts]) == par4.values
    assert all(essential_variables(p) <= I and len(I) <= 1 for I, p in parts)

    w = hamming_witness(3, Z3, (1,))
    with pytest.raises(PreconditionError) as exc:
        decompose_via_taylor(w.table, 2)
    assert exc.value.witness == (frozenset({0, 1, 2}), (1, 1, 1))


def test_verdict_base_point_independence():
    rng = random.Random(21)
    for _ in range(10):
        f = random_table(rng, 2, 3, Z3)
        for k in range(4):
            verdict = is_k_decomposable(f, k)
            for base in all_tuples(2, 3):
                assert is_k_decomposable(f, k, base) == verdict


def test_witness_search_order_deterministic():
    w = hamming_witness(4, Z3, (1,))
    first = decomposability_witness(w.table, 0)
    # size descending: the arity-4 derivative is found before smaller ones,
    # with the lexicographically first nonzero parameter tuple
    assert first is not None and len(first[0]) == 4
    assert first == decomposability_witness(w.table, 0)


def test_bad_arguments():
    f = FnTable.constant(2, 2, Z2, (0,))
    with pytest.raises(ArgumentError):
        is_k_decomposable(f, 3)
    with pytest.raises(ArgumentError):
        partial_derivative(f, 2, 0)


# ----------------------------------------------------------------------
# the one-pass transform against the per-derivative alternating sums
# ----------------------------------------------------------------------


def _pairs(terms):
    return [(I, t.values) for I, t in terms]


def assert_matches_oracle(f, base):
    assert min_decomposition_arity(f, base) == oracle_min_decomposition_arity(f, base)
    terms = _pairs(oracle_taylor_terms(f, base))
    assert _pairs(taylor_terms(f, base)) == terms
    for k in range(f.arity + 1):
        witness = oracle_decomposability_witness(f, k, base)
        assert decomposability_witness(f, k, base) == witness
        if witness is None:
            kept = [(I, values) for I, values in terms if len(I) <= k]
            assert _pairs(decompose_via_taylor(f, k, base)) == kept
        else:
            with pytest.raises(PreconditionError) as exc:
                decompose_via_taylor(f, k, base)
            assert exc.value.witness == witness


def test_coefficients_are_the_derivatives_at_the_base():
    # tables long enough that the transform splits its runs in both layouts
    from fndecomp.calculus import _derivative_coefficients

    rng = random.Random(23)
    for a_size, n, group in [(2, 10, Z3), (3, 7, Z4), (5, 5, Z2xZ3)]:
        f = random_table(rng, a_size, n, group)
        base = tuple(rng.randrange(a_size) for _ in range(n))
        c = _derivative_coefficients(f, base)
        for x, code in zip(all_tuples(a_size, n), c):
            positions = [i for i in range(n) if x[i] != base[i]]
            assert group.decode(code) == derivative_at_zero(f, positions, x, base)


@pytest.mark.parametrize("a_size, n, group", [(2, 3, Z2), (3, 2, Z2), (2, 2, Z3)])
def test_transform_matches_oracle_exhaustive(a_size, n, group):
    # every table, at every base point and every k
    for values in product(range(group.order), repeat=a_size**n):
        f = FnTable(a_size, n, group, values)
        for base in all_tuples(a_size, n):
            assert_matches_oracle(f, base)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transform_matches_oracle_random(data):
    a_size = data.draw(st.integers(2, 5), label="a_size")
    n = data.draw(st.integers(0, 5), label="n")
    group = data.draw(st.sampled_from([Z2, Z3, Z4, Z2xZ3]), label="group")
    r = data.draw(st.integers(0, n), label="planted arity")
    f = random_sum_table(random.Random(data.draw(st.integers(0, 2**32))), a_size, n, group, r)
    base = data.draw(st.tuples(*[st.integers(0, a_size - 1)] * n), label="base")
    assert_matches_oracle(f, base)
