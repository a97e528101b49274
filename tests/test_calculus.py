import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import (
    ArgumentError,
    DomainError,
    FnTable,
    Group,
    InternalConsistencyError,
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
    corner_elements,
    higher_derivative_expansion,
    list_derivative_coefficients,
    list_partial_derivative,
    oracle_taylor_terms,
    oracle_top_witness,
    random_sum_table,
    random_table,
    sum_tables,
)

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z2xZ3 = Group((2, 3))


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
    for _ in range(20):
        f = random_table(rng, 2, 3, Z4)
        g = random_table(rng, 2, 3, Z4)
        s = FnTable(2, 3, Z4, sum_tables(Z4, [f, g]))
        i, a = rng.randrange(3), rng.randrange(2)
        df, dg = partial_derivative(f, i, a), partial_derivative(g, i, a)
        ds = partial_derivative(s, i, a)
        assert ds.values == sum_tables(Z4, [df, dg])


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
            assert sum_tables(group, [t for _, t in terms]) == f.values
            for I, t in terms:
                assert_term_support(I, t)


def assert_term_support(I, t):
    """The term on I vanishes wherever some x_i = 0 for i in I and reads only
    x_I: a nonzero term has exactly I essential, a zero term nothing."""
    assert essential_variables(t) == (I if any(t.values) else frozenset())


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
    assert sum_tables(Z2, [p for _, p in parts]) == par4.values
    for I, p in parts:
        assert len(I) <= 1
        assert_term_support(I, p)

    w = hamming_witness(3, Z3, (1,))
    with pytest.raises(PreconditionError) as exc:
        decompose_via_taylor(w.table, 2)
    assert exc.value.witness == (frozenset({0, 1, 2}), (1, 1, 1))


def test_decompose_via_taylor_checks_that_its_terms_add_back(monkeypatch):
    from fndecomp import calculus

    par4 = FnTable.from_callable(2, 4, Z2, lambda x: (sum(x) % 2,))
    wrong = [(frozenset(), FnTable.constant(2, 4, Z2, (0,)))]
    monkeypatch.setattr(calculus, "_taylor_terms_upto", lambda f, c, k: wrong)
    with pytest.raises(InternalConsistencyError, match="add back"):
        decompose_via_taylor(par4, 1)


def test_taylor_terms_check_that_they_add_back(monkeypatch):
    from fndecomp import calculus

    # the budget is checked before the transform, and the terms are added
    # back up to f before they are returned
    monkeypatch.setattr(calculus, "_derivative_coefficients",
                        lambda f: pytest.fail("transform before the budget check"))
    with pytest.raises(ResourceError):
        taylor_terms(FnTable.constant(2, 17, Z2, (0,)))
    monkeypatch.undo()
    par4 = FnTable.from_callable(2, 4, Z2, lambda x: (sum(x) % 2,))
    wrong = [(frozenset(), FnTable.constant(2, 4, Z2, (0,)))]
    monkeypatch.setattr(calculus, "_taylor_terms_upto", lambda f, c, k: wrong)
    with pytest.raises(InternalConsistencyError, match="add back"):
        taylor_terms(par4)


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
    with pytest.raises(DomainError, match="^parameter tuple has 1 components, arity is 2$"):
        derivative_at_zero(f, (0,), (1,))


def test_k_must_be_an_integer():
    import numpy as np

    f = FnTable.from_callable(2, 3, Z2, lambda x: ((x[0] * x[1] + x[2]) % 2,))
    # a float or a numeric str is refused with the argument quoted, not read
    # as a bound (1.5 answered False) or left to a bare TypeError
    for call, message in ((lambda: is_k_decomposable(f, 1.5), "1.5"),
                          (lambda: decompose_via_taylor(f, 2.0), "2.0"),
                          (lambda: decomposability_witness(f, "1"), "'1'"),
                          (lambda: is_k_decomposable(f, "9" * 100), "'" + "9" * 39 + "...")):
        with pytest.raises(ArgumentError, match=f"^k must be an integer, got {message}$"):
            call()
    # an integer k keeps its range message, and numpy ints and bools pass
    with pytest.raises(ArgumentError, match="^k must be between 0 and 3, got -1$"):
        is_k_decomposable(f, -1)
    assert is_k_decomposable(f, np.int64(2)) and not is_k_decomposable(f, True)
    assert len(decompose_via_taylor(f, np.int32(2))) == 7


# ----------------------------------------------------------------------
# the one-pass transform against the per-derivative alternating sums
# ----------------------------------------------------------------------


def _pairs(terms):
    return [(I, t.values) for I, t in terms]


def assert_matches_oracle(f):
    from fndecomp.calculus import _derivative_coefficients

    # the packed kernel against the list kernel, cell by cell
    assert tuple(_derivative_coefficients(f)) == list_derivative_coefficients(f)
    for i in range(f.arity):
        for d in range(f.a_size):
            assert partial_derivative(f, i, d).values == list_partial_derivative(f, i, d)
    top, top_witness = oracle_top_witness(f)
    assert min_decomposition_arity(f) == top
    oracle_terms = oracle_taylor_terms(f)
    for I, t in oracle_terms:
        assert_term_support(I, t)
    terms = _pairs(oracle_terms)
    assert _pairs(taylor_terms(f)) == terms
    # the terms add back up to f (decompose_via_taylor checks its own with the packed add)
    assert sum_tables(f.group, [FnTable(f.a_size, f.arity, f.group, t) for _, t in terms]) == (
        f.values)
    for k in range(f.arity + 1):
        witness = top_witness if k < top else None
        assert decomposability_witness(f, k) == witness
        if witness is None:
            kept = [(I, values) for I, values in terms if len(I) <= k]
            assert _pairs(decompose_via_taylor(f, k)) == kept
        else:
            with pytest.raises(PreconditionError) as exc:
                decompose_via_taylor(f, k)
            assert exc.value.witness == witness


def test_coefficients_are_the_derivatives_at_the_base():
    # tables long enough that the transform splits its runs in both layouts
    from fndecomp.calculus import _derivative_coefficients

    rng = random.Random(23)
    for a_size, n, group in [(2, 10, Z3), (3, 7, Z4), (5, 5, Z2xZ3)]:
        f = random_table(rng, a_size, n, group)
        c = _derivative_coefficients(f)
        for x, code in zip(all_tuples(a_size, n), c):
            positions = [i for i in range(n) if x[i]]
            assert group.decode(code) == derivative_at_zero(f, positions, x)


# groups of every kind the packed kernel meets: one or more factors, prime
# and composite orders, (Z2)**11 at 22 of a cell's 32 bits, and moduli on
# each side of the 8-, 16- and 32-bit cells
Z5, Z6, Z2xZ4, Z2_11 = Group((5,)), Group((6,)), Group((2, 4)), Group((2,) * 11)
BOUNDARY = [Group((m,)) for m in (64, 65, 128, 129, 16384, 16385, 32768, 32769, 2**30 - 1,
                                  2**31)]


@pytest.mark.parametrize("a_size, n, group", [
    (2, 3, Z2), (3, 2, Z2), (2, 2, Z3), (3, 1, Z5), (2, 1, Z6), (2, 1, Z2xZ3), (2, 1, Z2xZ4),
    (2, 1, Z2_11), *[(2, 1, g) for g in BOUNDARY]])
def test_transform_matches_oracle_exhaustive(a_size, n, group):
    # every table and every k; above order 6 every table over the corner
    # elements, the ends of every field
    codes = (range(group.order) if group.order <= 6
             else [group.encode(x) for x in corner_elements(group)])
    for values in product(codes, repeat=a_size**n):
        assert_matches_oracle(FnTable(a_size, n, group, values))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_matches_oracle_random(data):
    group = data.draw(st.sampled_from([Z2, Z3, Z4, Z5, Z6, Z2xZ3, Z2xZ4, Z2_11, *BOUNDARY]),
                      label="group")
    a_size = data.draw(st.integers(2, 5), label="a_size")
    # the oracle's code arithmetic caches nothing of a large group: keep its
    # tables at 125 cells
    n = data.draw(st.integers(0, 5 if group.order <= 6 else 3), label="n")
    r = data.draw(st.integers(0, n), label="planted arity")
    f = random_sum_table(random.Random(data.draw(st.integers(0, 2**32))), a_size, n, group, r)
    assert_matches_oracle(f)
