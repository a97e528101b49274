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
from fndecomp.minors import RUN, zero_slices
from fndecomp.oddsupport import phi_domain
from fndecomp.tables import axis_fold, check_cells, iter_tuples
from helpers import (
    boolean_corpus,
    class_tables,
    minor_restriction,
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
    with_inessential,
)

Z2 = Group((2,))
Z3 = Group((3,))
Z2xZ2 = Group((2, 2))


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
            assert axis_fold([[d * a**i for d in range(a)] for i in range(n)]) == \
                list(range(a**n))
            axes = [[rng.randrange(64) for _ in range(a)] for _ in range(n)]
            for op in (add, xor):
                expect = []
                for x in iter_tuples(a, n):
                    v = 0
                    for axis, d in zip(axes, x):
                        v = op(v, axis[d])
                    expect.append(v)
                assert axis_fold(axes, op) == expect
    assert axis_fold([], xor) == [0]


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


def test_sizes_must_be_integers():
    import numpy as np

    for args, message in (((2.0, 2), "alphabet size must be an integer, got 2.0"),
                          ((2, 2.0), "arity must be an integer, got 2.0"),
                          (("2", 2), "alphabet size must be an integer, got '2'"),
                          ((2, 0.5), "arity must be an integer, got 0.5")):
        # the constructor and both table builders, before any cell is made
        for build in (lambda: FnTable(*args, Z2, (0, 1, 1, 0)),
                      lambda: FnTable.from_callable(*args, Z2, lambda x: (0,)),
                      lambda: FnTable.constant(*args, Z2, (0,))):
            with pytest.raises(ArgumentError, match=f"^{message}$"):
                build()
    f = FnTable(np.int64(2), np.int32(2), Z2, (0, 1, 1, 0))
    assert type(f.a_size) is int and type(f.arity) is int
    assert f == gf2(lambda x: x[0] + x[1], 2)
    # the builders check the bounds before the cell budget, which divided by
    # zero on an empty alphabet and a negative arity
    with pytest.raises(ArgumentError, match="^alphabet size must be >= 2, got 0$"):
        FnTable.from_callable(0, -1, Z2, lambda x: (0,))
    # every other integer parameter of the public API is read the same way
    # (tests/test_package.py, CONTRACT), and so are the row bounds of the
    # identities
    from fndecomp.identities import even_sum_rows, odd_sum_rows
    for call, message in ((lambda: even_sum_rows(3.0), "max_m must be an integer, got 3.0"),
                          (lambda: odd_sum_rows(3.0), "max_m must be an integer, got 3.0")):
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            call()


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

    for case in boolean_corpus(2):
        f = case.table
        for s1 in iproduct(range(2), repeat=2):
            for s2 in iproduct(range(2), repeat=2):
                step = simple_minor(simple_minor(f, s1, 2), s2, 2)
                fused = simple_minor(f, tuple(s2[s1[i]] for i in range(2)), 2)
                assert step.values == fused.values


def test_minor_positions_must_be_integers():
    import numpy as np

    # 2.0 and 1.0 built tables, and "3" raised a bare TypeError
    for call, message in ((lambda: simple_minor(MAJ3, (0, 1, 2.0), 3),
                           "sigma target must be an integer, got 2.0"),
                          (lambda: simple_minor(MAJ3, (0, 1, 2), "3"),
                           "target arity must be an integer, got '3'"),
                          (lambda: identification_minor(MAJ3, 0, 1.0),
                           "position must be an integer, got 1.0"),
                          (lambda: identification_minor(MAJ3, "0", 1),
                           "position must be an integer, got '0'")):
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            call()
    with pytest.raises(DomainError):
        simple_minor(MAJ3, (0, 1, 3), 3)
    g = simple_minor(MAJ3, (np.int64(0), True, 2), np.int32(3))
    assert g == MAJ3 and type(g.arity) is int
    assert identification_minor(MAJ3, np.int64(1), 0) == identification_minor(MAJ3, 1, 0)


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


def test_reduction_matches_the_minor_for_every_set_of_inessential_positions():
    # each inessential set at |A| = 2, 3 and n <= 4 drops coordinates by one
    # slice, by slices per block and by strided slices per offset
    rng = random.Random(47)
    for a_size, group in [(2, Z3), (3, Z3), (2, Z2xZ2), (3, Z2xZ2)]:
        for n in range(5):
            for m in range(n + 1):
                for kept in combinations(range(n), m):
                    for _ in range(2):
                        g = random_full_arity_table(rng, a_size, m, group)
                        f = with_inessential(g, kept, n)
                        assert reduce_to_essential(f) == minor_restriction(f) == g


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_matches_the_minor_under_hypothesis(data):
    a_size, n = data.draw(st.sampled_from([(2, 6), (2, 9), (3, 5), (3, 6)]))
    group = data.draw(st.sampled_from([Z3, Z2xZ2]))
    kept = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    size = a_size ** len(kept)
    values = data.draw(st.lists(st.integers(0, group.order - 1), min_size=size, max_size=size))
    f = with_inessential(FnTable(a_size, len(kept), group, values), kept, n)
    assert reduce_to_essential(f) == minor_restriction(f)


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
    # every Boolean table at arities 0-3 and every {0,1,2}^2 -> Z2 table
    # (constant on the classes of x itself): n = 2, where the transposition
    # and the cycle coincide, and n < 2, where there is no generator at all
    tables = [case.table for n in range(4) for case in boolean_corpus(n)]
    for f in tables + class_tables(3, 2, lambda x: x):
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


def test_determination_above_the_pair_scan_limit_builds_no_minor(monkeypatch, tmp_path, capsys):
    import json

    import fndecomp.minors as minors_mod
    import fndecomp.tables as tables_mod
    from fndecomp import (
        BooleanGapForm,
        PhiMap,
        classify_boolean,
        determined_via_symmetry,
        save_table_file,
        table_from_phi,
    )
    from fndecomp.cli import main

    rng = random.Random(43)
    parity = gf2(lambda x: sum(x), 6)
    determined = table_from_phi(PhiMap.on_phi_domain(3, 5, Z3, lambda S: (len(S) % 3,)))
    cases = [(parity, 2), (determined, 2), (random_full_arity_table(rng, 2, 6, Z2), 1),
             (random_full_arity_table(rng, 3, 5, Z3), 1)]
    # the same tables padded with x0 and x3 inessential: the restriction
    # is read off slices, with no index list
    cases += [(with_inessential(f, [k for k in range(f.arity + 2) if k not in (0, 3)],
                                f.arity + 2), gap) for f, gap in cases]
    built = []

    def refuse(name):
        def call(*args):
            built.append(name)
            raise AssertionError(f"{name} called")
        return call

    real_drop = minors_mod._identification_drop
    for name in ("simple_minor", "identification_minor", "_identification_drop"):
        monkeypatch.setattr(minors_mod, name, refuse(name))
    # axis_fold is defined in tables and bound in minors, where simple_minor
    # calls it
    for module in (tables_mod, minors_mod):
        monkeypatch.setattr(module, "axis_fold", refuse("axis_fold"))
    for f, gap in cases:
        g = reduce_to_essential(f)
        assert g.arity == essential_arity(f) > minors_mod.pair_scan_limit(f.a_size)
        assert determined_via_symmetry(g) == (gap == 2)
        assert arity_gap(f) == gap
        # classify_boolean checks gap 2 by the rebuild from phi and one slice
        if f.a_size == 2 and gap == 2:
            assert classify_boolean(f).gap == gap
    assert classify_boolean(parity).form == BooleanGapForm("parity_sum", 0, 6)
    assert built == []
    # and gap 1 by the pairs up to the first drop of one
    monkeypatch.setattr(minors_mod, "_identification_drop", real_drop)
    for k, (f, gap) in enumerate(cases):
        path = str(tmp_path / f"{k}.tbl")
        save_table_file(f, path)
        commands = [["analyze", path]]
        if f.a_size == 2:
            commands.append(["classify", path, "--target", "boolean"])
        for argv in commands:
            assert main(argv + ["--json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdicts"]["gap"] == gap
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
