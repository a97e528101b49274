import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import (
    FnTable,
    Group,
    PhiMap,
    PreconditionError,
    ResourceError,
    decompose_even,
    decompose_odd,
    decompose_uniform,
    essential_variables,
    is_determined,
    phi_domain,
    reconstruct_even,
    reconstruct_odd,
    reconstruct_uniform,
    table_from_phi,
    uniform_system_rank,
)
from fndecomp.booldecomp import (
    first_sum_sizes,
    full_map_from_domain_entries,
    gf2_solve,
    odd_case_shift,
    even_case_shift,
    second_sum_sizes,
    uniform_sum_sizes,
)
from helpers import all_phi_assignments, phi_preimages_bruteforce, pointwise_sum_table

Z2 = Group((2,))
Z2xZ2 = Group((2, 2))


def parity(n):
    return FnTable.from_callable(2, n, Z2, lambda x: (sum(x) % 2,))


def test_case_shift_preconditions():
    assert odd_case_shift(2, 5) == 1
    assert odd_case_shift(3, 4) == 0
    assert even_case_shift(2, 4) == 1
    assert even_case_shift(3, 5) == 1
    with pytest.raises(PreconditionError, match="even"):
        odd_case_shift(2, 4)
    with pytest.raises(PreconditionError, match="odd"):
        even_case_shift(2, 5)
    with pytest.raises(PreconditionError):
        odd_case_shift(3, 3)


def test_sum_size_structure():
    # only sizes whose binomial coefficient is odd survive
    assert first_sum_sizes(5, 1) == [1]
    assert first_sum_sizes(4, 0) == [2, 0]
    assert first_sum_sizes(6, 1) == [2]
    assert second_sum_sizes(4, 1) == [1]
    assert second_sum_sizes(5, 1) == [2]
    assert uniform_sum_sizes(5) == [3, 1]
    assert uniform_sum_sizes(4) == [2, 0]


def test_gf2_solve_small():
    # x0 + x1 = 1, x1 = 1 over GF(2)
    rows = [0b11 | 1 << 2, 0b10 | 1 << 2]
    sols, rank, consistent = gf2_solve(rows, 2, 1)
    assert consistent and rank == 2 and sols == [0b10]
    # inconsistent: x0 = 0 and x0 = 1
    rows = [0b1, 0b1 | 1 << 1]
    _, _, consistent = gf2_solve(rows, 1, 1)
    assert not consistent
    # underdetermined: free variable pinned to 0
    sols, rank, consistent = gf2_solve([0b11 | 1 << 2], 2, 1)
    assert consistent and rank == 1 and sols == [0b01]


def test_reconstruct_odd_zero_and_parity():
    zero_phi = PhiMap.on_phi_domain(2, 5, Z2, lambda S: (0,))
    assert not any(reconstruct_odd(zero_phi).values)
    phi = PhiMap.on_phi_domain(
        2, 5, Z2, {frozenset({0}): (0,), frozenset({1}): (1,)}
    )
    assert reconstruct_odd(phi).values == parity(5).values


def test_decompose_odd_parity():
    phi = decompose_odd(parity(5))
    assert phi.value({0}) == (0,) and phi.value({1}) == (1,)
    assert reconstruct_odd(phi).values == parity(5).values


def test_decompose_odd_zero():
    zero = FnTable.constant(2, 5, Z2, (0,))
    phi = decompose_odd(zero)
    assert all(v == (0,) for _, v in phi.sorted_items())


def test_odd_round_trip_exhaustive():
    for a, n, group in [(2, 5, Z2), (3, 4, Z2), (3, 6, Z2), (3, 4, Z2xZ2)]:
        tables = set()
        for entries in all_phi_assignments(a, n, group):
            phi = PhiMap.on_phi_domain(a, n, group, entries)
            f = reconstruct_odd(phi)
            tables.add(f.values)
            assert decompose_odd(f) == phi
            assert is_determined(f)
        # injectivity: distinct phi -> distinct tables
        assert len(tables) == group.order ** len(phi_domain(a, n))


def test_even_round_trip_exhaustive():
    for a, n, group in [(2, 4, Z2), (3, 5, Z2), (2, 6, Z2)]:
        tables = set()
        for entries in all_phi_assignments(a, n, group):
            phi = full_map_from_domain_entries(a, group, entries)
            f = reconstruct_even(phi, n)
            tables.add(f.values)
            assert decompose_even(f) == phi
            assert is_determined(f)
        assert len(tables) == group.order ** len(phi_domain(a, n))


def assert_reconstructions_match_pointwise_sums(a, n, group, entries):
    """Every reconstruction that applies at (a, n) equals the defining sum
    evaluated one tuple at a time."""
    phi = PhiMap.on_phi_domain(a, n, group, entries)
    if (n - a) % 2 == 1:
        sizes = first_sum_sizes(n, odd_case_shift(a, n))
        assert reconstruct_odd(phi) == pointwise_sum_table(phi, n, sizes)
    else:
        t = even_case_shift(a, n)
        full = full_map_from_domain_entries(a, group, entries)
        sizes = first_sum_sizes(n, t) + second_sum_sizes(n, t)
        assert reconstruct_even(full, n) == pointwise_sum_table(full, n, sizes)
    assert reconstruct_uniform(phi) == pointwise_sum_table(phi, n, uniform_sum_sizes(n))


def test_reconstructions_match_pointwise_sums_exhaustive():
    for a, n, group in [(2, 3, Z2), (2, 4, Z2), (2, 5, Z2), (3, 4, Z2), (3, 5, Z2),
                        (2, 4, Z2xZ2), (3, 4, Z2xZ2)]:
        for entries in all_phi_assignments(a, n, group):
            assert_reconstructions_match_pointwise_sums(a, n, group, entries)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_reconstructions_match_pointwise_sums_random(data):
    a = data.draw(st.integers(2, 4), label="a")
    n = data.draw(st.integers(a + 1, 6), label="n")
    group = data.draw(st.sampled_from([Z2, Z2xZ2, Group((2, 2, 2))]), label="group")
    elements = list(group.elements())
    entries = {S: data.draw(st.sampled_from(elements)) for S in phi_domain(a, n)}
    assert_reconstructions_match_pointwise_sums(a, n, group, entries)


def test_even_parity_example():
    phi = decompose_even(parity(4))
    assert phi.value(frozenset()) == (0,)
    assert phi.value({0}) == (0,)  # paired with the empty set
    assert phi.value({1}) == (1,)
    assert phi.value({0, 1}) == (1,)
    assert reconstruct_even(phi, 4).values == parity(4).values
    # a full map takes any arity; a table over the cell budget is refused
    with pytest.raises(ResourceError):
        reconstruct_even(phi, 30)


def test_reconstructions_cover_exactly_the_determined_functions():
    # over (2, 5): the 4 odd-case reconstructions are exactly the 4 determined tables
    recon = set()
    for entries in all_phi_assignments(2, 5, Z2):
        recon.add(reconstruct_odd(PhiMap.on_phi_domain(2, 5, Z2, entries)).values)
    determined = set()
    for entries in all_phi_assignments(2, 5, Z2):
        determined.add(table_from_phi(PhiMap.on_phi_domain(2, 5, Z2, entries)).values)
    assert recon == determined


def test_summands_certify_alphabet_bound():
    # every summand in the defining sums depends on at most |A|-1 positions
    for a, n in [(2, 5), (3, 4)]:
        t = odd_case_shift(a, n)
        assert all(s <= a - 1 for s in first_sum_sizes(n, t))
    for a, n in [(2, 4), (3, 5)]:
        t = even_case_shift(a, n)
        assert all(s <= a - 1 for s in first_sum_sizes(n, t) + second_sum_sizes(n, t))


def test_bruteforce_oracle_agrees():
    for f in [parity(5), FnTable.constant(2, 5, Z2, (1,))]:
        pre = phi_preimages_bruteforce(f, "odd")
        assert len(pre) == 1
        assert pre[0] == decompose_odd(f)
    pre = phi_preimages_bruteforce(parity(4), "even")
    assert len(pre) == 1 and pre[0] == decompose_even(parity(4))


def test_decompose_preconditions():
    with pytest.raises(PreconditionError, match="even"):
        decompose_odd(parity(4))
    with pytest.raises(PreconditionError, match="odd"):
        decompose_even(parity(5))
    with pytest.raises(PreconditionError, match="Boolean"):
        decompose_odd(FnTable.constant(2, 5, Group((4,)), (0,)))
    not_det = FnTable.from_callable(2, 5, Z2, lambda x: (x[0],))
    with pytest.raises(PreconditionError, match="determined"):
        decompose_odd(not_det)


def test_uniform_decomposition():
    for f in [parity(4), parity(5), FnTable.constant(2, 4, Z2, (0,))]:
        phi = decompose_uniform(f)
        assert reconstruct_uniform(phi).values == f.values
    # exhaustive at (2, 5): every determined function reconstructs exactly
    for entries in all_phi_assignments(2, 5, Z2):
        f = table_from_phi(PhiMap.on_phi_domain(2, 5, Z2, entries))
        phi = decompose_uniform(f)
        assert reconstruct_uniform(phi).values == f.values
    # existence route from brute force agrees on solvability
    assert len(phi_preimages_bruteforce(parity(5), "uniform")) >= 1


def test_uniform_regime_precondition():
    with pytest.raises(PreconditionError, match="max"):
        decompose_uniform(FnTable.from_callable(2, 3, Z2, lambda x: (sum(x) % 2,)))


def test_uniform_rank_reported():
    rank, unknowns = uniform_system_rank(2, 4)
    assert unknowns == len(phi_domain(2, 4))
    assert 0 <= rank <= unknowns
    # solvable for every determined table even when rank deficient
    rank5, unknowns5 = uniform_system_rank(2, 5)
    assert 0 <= rank5 <= unknowns5 == 2
    with pytest.raises(ResourceError):
        uniform_system_rank(2, 30)


def test_multi_factor_group_round_trip_spotcheck():
    phi = PhiMap.on_phi_domain(
        3, 4, Z2xZ2, lambda S: (len(S) % 2, 1 if 1 in S else 0)
    )
    f = reconstruct_odd(phi)
    assert decompose_odd(f) == phi
    assert len(essential_variables(f)) in (0, 4)
