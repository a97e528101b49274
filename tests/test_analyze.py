"""``analyze`` against the five public calls it replaces.

``oddsupport.analyze`` reads every verdict off the restriction of a table to
its essential variables, found in one pass by
``minors.essential_restriction``.  These tests compare it with
``five_call_analysis``, the five public functions on the whole table, and
the one pass with the definitions: ``naive_essential_variables``, the
restriction as a general minor (``minor_restriction``) and the arity gap
scanned over every pair (``naive_arity_gap``).  The tables are built with
inessential positions at every place, exhaustively for Boolean tables of
essential arity up to 3 and under hypothesis above that.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import FnTable, Group, PhiMap, ResourceError, analyze, oddsupport, table_from_phi
from fndecomp.minors import essential_restriction
from helpers import (
    boolean_corpus,
    five_call_analysis,
    minor_restriction,
    naive_arity_gap,
    naive_essential_variables,
    random_table,
    with_inessential,
)

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z2xZ3 = Group((2, 3))


def assert_analysis_agrees(f, gap_of_restriction=None):
    """analyze(f) against the five calls, and the one pass against the
    oracles; the gap is checked by its definition on f, or on the minor
    restriction when the caller passes naive_arity_gap of it."""
    result = analyze(f)
    assert result == five_call_analysis(f), f
    ess, g = essential_restriction(f)
    assert ess == tuple(sorted(naive_essential_variables(f)))
    assert g == minor_restriction(f)
    if len(ess) >= 2:
        assert result.gap == (gap_of_restriction or naive_arity_gap(f))
    return result


def test_boolean_tables_of_essential_arity_up_to_3_at_every_embedding():
    # every Boolean g all of whose m <= 3 variables are essential, placed at
    # every choice of m positions among n <= 5; naive_arity_gap of the
    # restriction stands for the gap of its 3 270 embeddings of arity up to 5
    checked = {0: 0, 1: 0, 2: 0, 3: 0}
    for m in range(4):
        for case in boolean_corpus(m):
            g = case.table
            if len(naive_essential_variables(g)) < m:
                continue
            gap = naive_arity_gap(g) if m >= 2 else None
            for n in range(m, 6):
                for kept in combinations(range(n), m):
                    f = with_inessential(g, kept, n)
                    result = assert_analysis_agrees(f, gap)
                    assert result.essential_variables == kept
                    checked[m] += 1
    # 2, 2, 10 and 218 tables, each at C(6, m + 1) embeddings
    assert checked == {0: 12, 1: 30, 2: 200, 3: 3270}


def test_tables_above_the_pair_scan_limit():
    # the gap read off determination, and minimal decomposition arities past
    # those of the exhaustive test, each table with one inessential position
    rng = random.Random(26)
    arities = set()
    for a_size, group, m in ((2, Z2, 5), (2, Z3, 6), (3, Z3, 4), (3, Z2xZ3, 4)):
        # symmetric and not constant, so every variable is essential
        determined = table_from_phi(PhiMap.on_phi_domain(
            a_size, m, group, lambda S: group.decode((1 + sum(S)) % group.order)))
        for g in (random_table(rng, a_size, m, group), determined):
            kept = tuple(sorted(rng.sample(range(m + 1), m)))
            result = assert_analysis_agrees(with_inessential(g, kept, m + 1))
            assert result.essential_variables == kept
            assert result.gap == (2 if g is determined else 1)
            arities.add(result.min_decomposition_arity)
    assert arities == {1, 4, 5, 6}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_analysis_matches_the_five_calls_under_hypothesis(data):
    a_size = data.draw(st.integers(2, 4), label="a_size")
    group = data.draw(st.sampled_from([Z2, Z3, Z4, Z2xZ3]), label="group")
    pad = data.draw(st.integers(0, 3), label="pad")
    # at most 4**5 cells in all
    m = data.draw(st.integers(0, {2: 6, 3: 4, 4: 3}[a_size] - max(pad - 2, 0)), label="m")
    kind = data.draw(st.sampled_from(["random", "determined", "constant"]), label="kind")
    if kind == "determined" and m >= 1:
        g = table_from_phi(PhiMap.on_phi_domain(
            a_size, m, group, lambda S: group.decode(data.draw(st.integers(0, group.order - 1)))))
    elif kind == "constant":
        g = FnTable.constant(a_size, m, group, group.decode(group.order - 1))
    else:
        g = random_table(random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed")),
                         a_size, m, group)
    n = m + pad
    kept = tuple(sorted(data.draw(st.permutations(range(n)), label="order")[:m]))
    assert_analysis_agrees(with_inessential(g, kept, n))


def test_analyze_runs_one_slice_test(monkeypatch):
    import importlib

    import fndecomp

    # above the pair-scan limit, with every variable essential, the gap and
    # phi both come from one determination test: the parity of x0..x7 and a
    # random table of the same shape
    calls = []
    real = fndecomp.minors.determined_via_symmetry
    for name in fndecomp._EXPORTS:
        module = importlib.import_module(f"fndecomp.{name}")
        if hasattr(module, "determined_via_symmetry"):
            monkeypatch.setattr(module, "determined_via_symmetry",
                                lambda f: calls.append(f.arity) or real(f))
    parity = FnTable.from_callable(2, 8, Z2, lambda x: (sum(x) % 2,))
    for f, gap in ((parity, 2), (random_table(random.Random(8), 2, 8, Z2), 1)):
        calls.clear()
        result = analyze(f)
        assert calls == [8]
        assert result.gap == gap and (result.phi is not None) == (gap == 2)
        assert result == five_call_analysis(f)


def test_analyze_charges_the_masks_only_where_it_reads_phi(monkeypatch):
    # 3**4 cells take 81 mask words, over a budget of 80: a rebuild from phi
    # would not fit, so a table whose phi analyze reads is refused, through
    # the representative cells of g or through extract_phi, but a table that
    # is not symmetric has no phi to read and is answered
    determined = table_from_phi(PhiMap.on_phi_domain(3, 4, Z3, lambda S: (len(S) % 3,)))
    constant = FnTable.constant(3, 4, Z3, (1,))
    asymmetric = random_table(random.Random(13), 3, 4, Z3)
    expected = five_call_analysis(asymmetric)
    monkeypatch.setattr(oddsupport, "MAX_CELLS", 80)
    assert analyze(asymmetric) == expected and not expected.totally_symmetric
    for f in (determined, constant):
        with pytest.raises(ResourceError, match="odd-support masks of 3\\*\\*4 cells"):
            analyze(f)
