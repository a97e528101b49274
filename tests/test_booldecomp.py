import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import (
    ArgumentError,
    FnTable,
    Group,
    InternalConsistencyError,
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
    representative_tuple,
    table_from_phi,
    uniform_system_rank,
)
from fndecomp import booldecomp
from fndecomp.booldecomp import (
    full_map_from_domain_entries,
    odd_case_shift,
    even_case_shift,
)
from fndecomp.errors import MAX_CELLS
from fndecomp.oddsupport import subset_mask
from helpers import (
    all_phi_assignments,
    class_sum,
    class_sum_values,
    count_classes,
    first_sum_sizes,
    phi_preimages_bruteforce,
    pointwise_probe_rows,
    pointwise_sum_table,
    second_sum_sizes,
    sum_sizes,
    uniform_sum_sizes,
)

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
    # the oracle's size lists: only sizes whose binomial coefficient is odd
    # survive
    assert first_sum_sizes(5, 1) == [1]
    assert first_sum_sizes(4, 0) == [2, 0]
    assert first_sum_sizes(6, 1) == [2]
    assert second_sum_sizes(4, 1) == [1]
    assert second_sum_sizes(5, 1) == [2]
    assert uniform_sum_sizes(5) == [3, 1]
    assert uniform_sum_sizes(4) == [2, 0]


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
    """Every reconstruction that applies at (a, n), and the count-class DP of
    its defining sum, equal that sum evaluated one tuple at a time."""
    phi = PhiMap.on_phi_domain(a, n, group, entries)
    if (n - a) % 2 == 1:
        cases = [("odd", phi, reconstruct_odd(phi))]
    else:
        full = full_map_from_domain_entries(a, group, entries)
        cases = [("even", full, reconstruct_even(full, n))]
    if n > max(a, 3):
        cases.append(("uniform", phi, reconstruct_uniform(phi)))
    for case, psi, rebuilt in cases:
        sizes = sum_sizes(case, a, n)
        expected = pointwise_sum_table(psi, n, sizes)
        assert rebuilt == expected, (case, a, n)
        assert class_sum_values(psi, n, sizes) == expected.values, (case, a, n)


def test_reconstructions_match_pointwise_sums_exhaustive():
    for a, n, group in [(2, 3, Z2), (2, 4, Z2), (2, 5, Z2), (3, 4, Z2), (3, 5, Z2),
                        (2, 4, Z2xZ2), (3, 4, Z2xZ2)]:
        for entries in all_phi_assignments(a, n, group):
            assert_reconstructions_match_pointwise_sums(a, n, group, entries)
    # one random phi where letters repeat many times in a tuple
    for a, n in [(2, 9), (3, 7), (3, 8), (4, 7)]:
        rng = random.Random(100 * a + n)
        elements = list(Z2xZ2.elements())
        entries = {S: rng.choice(elements) for S in phi_domain(a, n)}
        assert_reconstructions_match_pointwise_sums(a, n, Z2xZ2, entries)


def unit_codes(case, a, n):
    """Key c of phi_domain(a, n) carries the unit code 1 << c, and in the even
    case so does its partner, key c symdiff {0}, which the full map pairs
    with it."""
    flips = (0, 1) if case == "even" else (0,)
    return {subset_mask(S) ^ flip: 1 << c
            for c, S in enumerate(phi_domain(a, n)) for flip in flips}


def probe_rows(case, a, n):
    """The defining sum at representative_tuple(S, n) of each phi_domain key
    S, as a bitset over the keys (unit_codes)."""
    units = unit_codes(case, a, n)
    reps = [representative_tuple(S, n) for S in phi_domain(a, n)]
    return [class_sum([r.count(d) for d in range(a)], sum_sizes(case, a, n), units)
            for r in reps]


def test_probe_rows_match_pointwise_oracle():
    for a in (2, 3, 4):
        for n in range(1, 13):
            if a**n > 1 << 12:
                break
            cases = ["uniform"]
            if n - a > 0:
                cases.append("odd" if (n - a) % 2 else "even")
            for case in cases:
                expected = pointwise_probe_rows(a, n, sum_sizes(case, a, n), case == "even")
                assert probe_rows(case, a, n) == expected, (case, a, n)


def admissible_probe_systems():
    """(case, a, n) for every probe system the cell budget admits: each case's
    regime at every (a, n) with a**n <= MAX_CELLS."""
    out = []
    for a in range(2, MAX_CELLS.bit_length()):
        for n in range(1, MAX_CELLS.bit_length()):
            if a**n > MAX_CELLS:
                break
            if n > a:
                out.append(("odd" if (n - a) % 2 else "even", a, n))
            if n > max(a, 3):
                out.append(("uniform", a, n))
    return out


def test_every_admissible_probe_system_is_the_identity():
    # with a unit code per key, the sum at every letter-count class reads
    # phi at the key of its odd support alone.  The sum is linear in phi, so
    # each defining sum is x -> phi(odd_support(x)), the table that
    # table_from_phi builds and that every reconstruction returns; at the
    # representative of key S it is phi(S), so phi is extract_phi(f) and
    # the recovered phi is unique, in every case
    systems = admissible_probe_systems()
    assert {case for case, *_ in systems} == {"odd", "even", "uniform"}
    assert len(systems) == 85
    classes = 0
    for case, a, n in systems:
        units, sizes = unit_codes(case, a, n), sum_sizes(case, a, n)
        for counts in count_classes(a, n):
            support = sum(1 << d for d, k in enumerate(counts) if k & 1)
            assert class_sum(counts, sizes, units) == units[support], (case, a, n, counts)
            classes += 1
    assert classes == 11864


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


@pytest.mark.parametrize("decompose, rebuild, n", [
    (decompose_odd, "reconstruct_odd", 5),
    (decompose_even, "reconstruct_even", 4),
    (decompose_uniform, "reconstruct_uniform", 4),
], ids=["odd", "even", "uniform"])
def test_decomposers_check_their_rebuild(monkeypatch, decompose, rebuild, n):
    wrong = FnTable.constant(2, n, Z2, (0,))
    monkeypatch.setattr(booldecomp, rebuild, lambda *args: wrong)
    with pytest.raises(InternalConsistencyError, match="reconstruction"):
        decompose(parity(n))


@pytest.mark.parametrize("decompose, n", [
    (decompose_odd, 5), (decompose_even, 4), (decompose_uniform, 5),
], ids=["odd", "even", "uniform"])
def test_a_wrong_phi_fails_the_rebuild(monkeypatch, decompose, n):
    extract = booldecomp.extract_phi

    def flipped(f):
        phi = extract(f)
        S = phi_domain(f.a_size, f.arity)[0]
        return PhiMap(phi.a_size, phi.group, phi.arity,
                      {**phi.entries, S: (1 - phi.entries[S][0],)})

    monkeypatch.setattr(booldecomp, "extract_phi", flipped)
    with pytest.raises(InternalConsistencyError, match="does not reproduce the input"):
        decompose(parity(n))


def test_full_map_pairs_the_domain_entries():
    entries = {frozenset(): (0,), frozenset({1}): (1,)}
    full = full_map_from_domain_entries(2, Z2, entries)
    assert full == PhiMap(2, Z2, None, {**entries, frozenset({0}): (0,),
                                        frozenset({0, 1}): (1,)})
    # a given entry wins over a partner, so a conflict fails the pairing check
    with pytest.raises(ArgumentError, match="pairing violated"):
        full_map_from_domain_entries(2, Z2, {**entries, frozenset({0}): (1,)})
    # a subset that is neither a key nor the partner of one is not covered
    with pytest.raises(ArgumentError, match="cover every subset"):
        full_map_from_domain_entries(3, Z2, entries)


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
    for case, a, n in [("odd", 2, 5), ("odd", 3, 4), ("even", 2, 4), ("even", 3, 5)]:
        assert all(s <= a - 1 for s in sum_sizes(case, a, n))


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
    # the one preimage brute force finds is the decomposition, for every
    # determined table at each size
    for a, n in [(2, 4), (2, 5), (3, 4)]:
        for entries in all_phi_assignments(a, n, Z2):
            f = table_from_phi(PhiMap.on_phi_domain(a, n, Z2, entries))
            assert phi_preimages_bruteforce(f, "uniform") == [decompose_uniform(f)]


def test_uniform_regime_precondition():
    with pytest.raises(PreconditionError, match="max"):
        decompose_uniform(FnTable.from_callable(2, 3, Z2, lambda x: (sum(x) % 2,)))
    # outside the regime the coefficient-free sum is not phi through odd
    # support, so the reconstruction refuses too
    with pytest.raises(PreconditionError, match="max"):
        reconstruct_uniform(PhiMap.on_phi_domain(4, 2, Z2, lambda S: (len(S) & 1,)))


def test_uniform_rank_reported():
    assert uniform_system_rank(2, 4) == (2, 2)
    assert uniform_system_rank(2, 5) == (2, 2)
    # every (|A|, n) of the regime n > max(|A|, 3) that the cell budget admits
    admitted = [(a, n) for a in range(2, 8) for n in range(max(a, 3) + 1, 23)
                if a**n <= MAX_CELLS]
    assert len(admitted) == 19 + 10 + 7 + 4 + 2
    for a, n in admitted:
        assert uniform_system_rank(a, n) == (len(phi_domain(a, n)),) * 2
    with pytest.raises(ResourceError):
        uniform_system_rank(2, 30)


@pytest.mark.parametrize("a, n", [(2, 3), (40, 2), (100, 2)])
def test_uniform_rank_refuses_outside_the_regime_at_once(a, n):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="max"):
        uniform_system_rank(a, n)
    assert time.perf_counter() - start < 0.1


def test_multi_factor_group_round_trip_spotcheck():
    phi = PhiMap.on_phi_domain(
        3, 4, Z2xZ2, lambda S: (len(S) % 2, 1 if 1 in S else 0)
    )
    f = reconstruct_odd(phi)
    assert decompose_odd(f) == phi
    assert len(essential_variables(f)) in (0, 4)
