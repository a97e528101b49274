import random
from itertools import combinations
from operator import add, xor

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import (
    ArgumentError,
    DomainError,
    FnTable,
    Group,
    ParseError,
    PreconditionError,
    ResourceError,
    ShapeError,
    arity_gap,
    dump_table,
    essential_arity,
    essential_variables,
    identification_minor,
    is_totally_symmetric,
    load_table,
    reduce_to_essential,
    simple_minor,
)
from fndecomp.oddsupport import phi_domain
from fndecomp.tables import (
    RUN,
    axis_fold,
    check_cells,
    iter_tuples,
    linear_index,
    zero_slices,
)
from helpers import (
    class_tables,
    naive_arity_gap,
    naive_essential_variables,
    naive_identification_values,
    naive_is_totally_symmetric,
    pair_scan_arity_gap,
    pointwise_dump_table,
    random_full_arity_table,
    random_table,
    symmetric_tables,
    with_cell_flipped,
)

Z2 = Group((2,))
Z3 = Group((3,))


def gf2(fn, n):
    return FnTable.from_callable(2, n, Z2, lambda x: (fn(x) % 2,))


PARITY4 = gf2(lambda x: sum(x), 4)
AND2 = gf2(lambda x: x[0] * x[1], 2)
MAJ3 = gf2(lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2], 3)


def test_indexing_convention():
    # index(x) = sum x[i] * a**i, component 0 least significant
    f = FnTable(3, 2, Z3, tuple(i % 3 for i in range(9)))
    assert f.index_of((1, 0)) == 1
    assert f.index_of((0, 1)) == 3
    assert f.index_of((2, 2)) == 8
    assert f.eval((2, 1)) == ((2 + 3) % 3,)
    # the fold gives one value per table index, component 0 varying fastest
    rng = random.Random(1)
    for a in (2, 3, 5):
        for n in range(5):
            assert linear_index(a, [a**i for i in range(n)]) == list(range(a**n))
            axes = [[rng.randrange(64) for _ in range(a)] for _ in range(n)]
            for op in (add, xor):
                start = rng.randrange(64)
                expect = []
                for x in iter_tuples(a, n):
                    v = start
                    for axis, d in zip(axes, x):
                        v = op(v, axis[d])
                    expect.append(v)
                assert axis_fold(a, axes, op, start) == expect
    assert axis_fold(3, [], xor, 7) == [7]


def test_eval_examples():
    const = FnTable.constant(3, 2, Z3, (2,))
    assert const.eval((1, 2)) == (2,)
    par2 = gf2(lambda x: sum(x), 2)
    assert par2.eval((1, 1)) == (0,)
    with pytest.raises(DomainError):
        par2.eval((2, 0))
    with pytest.raises(DomainError):
        par2.eval((0, 0, 0))


def test_construction_errors():
    with pytest.raises(ShapeError):
        FnTable(2, 2, Z2, (0, 1, 0))
    with pytest.raises(DomainError):
        FnTable(2, 1, Z2, (0, 2))
    with pytest.raises(ArgumentError):
        FnTable(1, 1, Z2, (0,))
    # the cell budget is checked before any value is computed
    check_cells(2, 22)
    check_cells(4, 11)
    for a, n in ((2, 23), (3, 14), (2, 10**9)):
        with pytest.raises(ResourceError):
            FnTable.from_callable(a, n, Z2, lambda x: (0,))
    # so are the constant table, a minor's target arity and a bare constructor
    with pytest.raises(ResourceError):
        FnTable.constant(2, 30, Z2, (0,))
    with pytest.raises(ResourceError):
        simple_minor(AND2, (0, 1), 30)
    with pytest.raises(ResourceError):
        FnTable(2, 30, Z2, ())


def test_caches_of_table_sized_data_are_bounded():
    assert 2 <= phi_domain.cache_parameters()["maxsize"] <= 16


def test_simple_minor_identity_and_collapse():
    ident = simple_minor(PARITY4, (0, 1, 2, 3), 4)
    assert ident.values == PARITY4.values
    # x0 + x1 with both pulled from one variable collapses to constant 0
    par2 = gf2(lambda x: sum(x), 2)
    g = simple_minor(par2, (0, 0), 1)
    assert g.values == (0, 0)
    # x0 * x1 diagonalized gives the identity map (x*x = x over GF(2))
    h = simple_minor(AND2, (0, 0), 1)
    assert [h.eval((v,)) for v in range(2)] == [(0,), (1,)]


def test_simple_minor_matches_direct_evaluation():
    rng = random.Random(7)
    for _ in range(25):
        f = random_table(rng, 3, 3, Z3)
        m = rng.randrange(1, 4)
        sigma = tuple(rng.randrange(m) for _ in range(3))
        g = simple_minor(f, sigma, m)
        for y in g.domain():
            assert g.eval(y) == f.eval(tuple(y[s] for s in sigma))


def test_simple_minor_composition():
    rng = random.Random(11)
    for _ in range(25):
        f = random_table(rng, 2, 3, Z2)
        s1 = tuple(rng.randrange(3) for _ in range(3))  # [3] -> [3]
        s2 = tuple(rng.randrange(2) for _ in range(3))  # [3] -> [2]
        step = simple_minor(simple_minor(f, s1, 3), s2, 2)
        fused = simple_minor(f, tuple(s2[s1[i]] for i in range(3)), 2)
        assert step.values == fused.values


def test_simple_minor_composition_exhaustive_tiny():
    from itertools import product as iproduct

    for code in range(16):
        f = FnTable(2, 2, Z2, tuple(code >> i & 1 for i in range(4)))
        for s1 in iproduct(range(2), repeat=2):
            for s2 in iproduct(range(2), repeat=2):
                step = simple_minor(simple_minor(f, s1, 2), s2, 2)
                fused = simple_minor(f, tuple(s2[s1[i]] for i in range(2)), 2)
                assert step.values == fused.values


def test_identification_minor():
    par2 = gf2(lambda x: sum(x), 2)
    g = identification_minor(par2, 1, 0)
    assert essential_arity(g) == 0
    h = identification_minor(MAJ3, 1, 0)  # majority(x0, x0, x2) == x0
    assert essential_variables(h) == frozenset({0})
    for x in h.domain():
        assert h.eval(x) == (x[0],)
    with pytest.raises(ArgumentError):
        identification_minor(par2, 0, 0)
    with pytest.raises(ArgumentError):
        identification_minor(par2, 0, 5)


def test_identification_matches_naive():
    rng = random.Random(3)
    for _ in range(20):
        f = random_table(rng, 3, 3, Z3)
        i, j = rng.sample(range(3), 2)
        g = identification_minor(f, i, j)
        assert g.element_values() == naive_identification_values(f, i, j)
        assert i not in essential_variables(g)


def test_essential_variables_examples():
    assert essential_variables(FnTable.constant(2, 3, Z2, (0,))) == frozenset()
    proj = gf2(lambda x: x[0], 2)
    assert essential_variables(proj) == frozenset({0})
    assert essential_variables(PARITY4) == frozenset(range(4))
    assert essential_arity(PARITY4) == 4


def test_zero_slices_cover_the_bound_cells_once():
    shapes = [(a, n) for a in (2, 3, 4) for n in range(6)] + [(3, 6), (3, 7), (2, 10)]
    for a, n in shapes:
        for size in range(min(n, 3) + 1):
            for bound in combinations(range(n), size):
                cells = []
                # the bound may come in any order
                for lo, hi, step in zero_slices(a, n, bound[::-1]):
                    run = range(lo, hi, step)
                    assert 0 < len(run) <= RUN and run[-1] < a**n
                    cells.extend(run)
                expected = [c for c in range(a**n) if all(c // a**t % a == 0 for t in bound)]
                assert sorted(cells) == expected, (a, n, bound)


def test_essential_variables_matches_naive():
    rng = random.Random(5)
    for a_size, n, g in [(2, 3, Z2), (3, 2, Z3), (2, 4, Z2), (3, 3, Z2)]:
        for _ in range(15):
            f = random_table(rng, a_size, n, g)
            assert essential_variables(f) == frozenset(naive_essential_variables(f))
    # g read on the positions kept, the others inessential, and tables above
    # RUN cells, whose slices are cut into chunks
    for a_size, n in [(2, 5), (3, 4), (2, 10), (3, 7)]:
        for _ in range(3):
            kept = sorted(rng.sample(range(n), rng.randrange(n + 1)))
            g = random_table(rng, a_size, len(kept), Z3)
            # one cell off a constant: the difference sits in a late slice
            one = FnTable(a_size, len(kept), Z3, [0] * (a_size ** len(kept) - 1) + [1])
            for f in (simple_minor(g, kept, n), simple_minor(one, kept, n)):
                assert essential_variables(f) == frozenset(naive_essential_variables(f))
            assert essential_variables(simple_minor(one, kept, n)) == frozenset(kept)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_essential_variables_matches_naive_under_hypothesis(data):
    a_size, n = data.draw(st.sampled_from([(2, 3), (2, 6), (2, 9), (3, 3), (3, 6), (4, 4)]))
    kept = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    values = data.draw(st.lists(st.integers(0, 2), min_size=a_size ** len(kept),
                                max_size=a_size ** len(kept)))
    f = simple_minor(FnTable(a_size, len(kept), Z3, values), kept, n)
    assert essential_variables(f) == frozenset(naive_essential_variables(f))


def test_arity_gap_examples():
    assert arity_gap(PARITY4) == 2
    assert arity_gap(AND2) == 1
    assert arity_gap(MAJ3) == 2
    with pytest.raises(PreconditionError):
        arity_gap(gf2(lambda x: x[0], 2))


def test_arity_gap_matches_naive():
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        f = random_table(rng, 2, 3, Z2)
        if essential_arity(f) < 2:
            continue
        assert arity_gap(f) == naive_arity_gap(f)
        checked += 1


def test_gap_invariants():
    rng = random.Random(17)
    for _ in range(30):
        f = random_table(rng, 2, 4, Z2)
        m = essential_arity(f)
        if m < 2:
            continue
        gap = arity_gap(f)
        assert 1 <= gap <= m
        assert gap == arity_gap(reduce_to_essential(f))


def test_gap_invariant_under_added_inessential_variable():
    # parity in 3 of 4 positions: position 3 inessential
    f = gf2(lambda x: x[0] + x[1] + x[2], 4)
    assert essential_variables(f) == frozenset({0, 1, 2})
    assert arity_gap(f) == 2


def test_willard_crosscheck_ternary_arity4():
    # for f depending on all 4 variables over a 3-letter alphabet:
    # gap 2 exactly when f is determined by odd support
    from fndecomp import PhiMap, extract_phi, table_from_phi
    from helpers import all_phi_assignments, random_full_arity_table

    for entries in all_phi_assignments(3, 4, Z2):
        f = table_from_phi(PhiMap.on_phi_domain(3, 4, Z2, entries))
        if essential_arity(f) == 4:
            assert pair_scan_arity_gap(f) == 2
    rng = random.Random(41)
    for _ in range(300):
        f = random_full_arity_table(rng, 3, 4, Z3)
        assert (pair_scan_arity_gap(f) == 2) == (extract_phi(f) is not None)


def test_symmetry_and_reduction():
    assert is_totally_symmetric(PARITY4)
    assert is_totally_symmetric(MAJ3)
    proj = gf2(lambda x: x[0], 2)
    assert not is_totally_symmetric(proj)
    r = reduce_to_essential(proj)
    assert r.arity == 1 and [r.eval((v,)) for v in range(2)] == [(0,), (1,)]
    c = reduce_to_essential(FnTable.constant(2, 3, Z2, (1,)))
    assert c.arity == 0 and c.eval(()) == (1,)


def test_reduction_agrees_on_all_tuples():
    rng = random.Random(23)
    for _ in range(20):
        f = random_table(rng, 2, 4, Z2)
        ess = sorted(essential_variables(f))
        r = reduce_to_essential(f)
        assert r.arity == len(ess)
        for x in f.domain():
            assert f.eval(x) == r.eval(tuple(x[i] for i in ess))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_symmetry_equals_permutation_invariance(code):
    f = FnTable(2, 4, Z2, tuple(code >> i & 1 for i in range(16)))
    expect = all(
        simple_minor(f, perm, 4).values == f.values
        for perm in __import__("itertools").permutations(range(4))
    )
    assert is_totally_symmetric(f) == expect


def test_symmetry_matches_the_permutation_definition_exhaustively():
    # every Boolean table at arities 0-3 and every {0,1,2}^2 -> Z2 table:
    # n = 2, where the transposition and the cycle coincide, and n < 2,
    # where there is no generator at all
    for a, n in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)]:
        size = a**n
        for code in range(1 << size):
            f = FnTable(a, n, Z2, tuple(code >> i & 1 for i in range(size)))
            assert is_totally_symmetric(f) == naive_is_totally_symmetric(f)
    # |A| = 3, n = 3, where the transposition, the cycle and the block
    # strides all differ: every symmetric table, each of them with one cell
    # flipped, and every table invariant under the cycle alone
    symmetric = symmetric_tables(3, 3)
    cyclic = class_tables(3, 3, lambda x: min(x[k:] + x[:k] for k in range(3)))
    assert len(symmetric) == 2**10 and len(cyclic) == 2**11
    flipped = [with_cell_flipped(f, k % 27) for k, f in enumerate(symmetric)]
    for f in symmetric + flipped + cyclic:
        assert is_totally_symmetric(f) == naive_is_totally_symmetric(f)


def test_determination_above_the_pair_scan_limit_builds_no_minor(monkeypatch):
    import fndecomp.tables as tables_mod
    from fndecomp import (
        BooleanGapForm,
        PhiMap,
        classify_boolean,
        determined_via_symmetry,
        table_from_phi,
    )

    rng = random.Random(43)
    parity = gf2(lambda x: sum(x), 6)
    determined = table_from_phi(PhiMap.on_phi_domain(3, 5, Z3, lambda S: (len(S) % 3,)))
    cases = [(parity, 2), (determined, 2), (random_full_arity_table(rng, 2, 6, Z2), 1),
             (random_full_arity_table(rng, 3, 5, Z3), 1)]
    built = []
    for name in ("simple_minor", "identification_minor", "_identification_drop"):
        real = getattr(tables_mod, name)
        monkeypatch.setattr(tables_mod, name, lambda *args, _name=name, _real=real:
                            built.append(_name) or _real(*args))
    for f, gap in cases:
        assert essential_arity(f) > tables_mod.pair_scan_limit(f.a_size)
        assert determined_via_symmetry(f) == (gap == 2)
        assert arity_gap(f) == gap
        if f.a_size == 2:
            assert classify_boolean(f).gap == gap
    assert classify_boolean(parity).form == BooleanGapForm("parity_sum", 0, 6)
    assert built == []


def test_file_round_trip():
    rng = random.Random(29)
    for f in [
        PARITY4,
        random_table(rng, 3, 2, Group((2, 4))),
        FnTable.constant(2, 0, Z3, (1,)),
        random_table(rng, 2, 3, Group(())),
    ]:
        assert dump_table(f) == pointwise_dump_table(f)
        assert load_table(dump_table(f)) == f


def test_file_format_details():
    text = """# a comment
domain=2
arity=2
group=Z2
0 1
# trailing comment
1 0
"""
    f = load_table(text)
    assert f.values == (0, 1, 1, 0)
    with pytest.raises(ParseError):
        load_table("domain=2\narity=2\ngroup=Z2\n0 1 1\n")  # too few
    with pytest.raises(ParseError):
        load_table("domain=2\narity=1\ngroup=Z2\n0 1 1\n")  # too many
    with pytest.raises(ParseError):
        load_table("arity=2\ndomain=2\ngroup=Z2\n0 1 1 0\n")  # wrong order
    with pytest.raises(ParseError):
        load_table("domain=2\narity=1\ngroup=Z9x\n0 1\n")
    # header numbers are ASCII digits; values are canonical element texts
    for bad in ("domain=\u00b2\narity=1\ngroup=Z2\n0 1\n",
                "domain=2\narity=\u0661\ngroup=Z2\n0 1\n",
                "domain=2\narity=1\ngroup=Z\u00b2\n0 1\n",
                "domain=2\narity=1\ngroup=Z2\n0 +1\n",
                "domain=2\narity=1\ngroup=Z2\n0 01\n"):
        with pytest.raises(ParseError):
            load_table(bad)
    # the header is checked against the cell budget before any value is read
    for header in ("domain=3\narity=9000", "domain=3\narity=10000000", "domain=2\narity=23"):
        with pytest.raises(ResourceError):
            load_table(header + "\ngroup=Z2\n0\n")
