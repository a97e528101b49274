"""The arity gap against the pair scan of its definition.

Above essential arity max(|A|, 3) the library reads the gap off odd-support
determination of the restriction to the essential variables; at or below it
the library scans the pairs.  These tests compare both paths with
``pair_scan_arity_gap`` on either side of that threshold, on tables whose
arity exceeds their essential arity too, and count the identification minors
each path reads.  The kernel that reads the drop of one identification off
the value tuple is checked against the minor it stands for.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import fndecomp.minors as minors_mod
from fndecomp import (
    FnTable,
    Group,
    PhiMap,
    arity_gap,
    essential_arity,
    identification_minor,
    reduce_to_essential,
    simple_minor,
    table_from_phi,
)
from helpers import all_phi_assignments, pair_scan_arity_gap, random_table

Z2 = Group((2,))
Z3 = Group((3,))


def threshold(a_size):
    return max(a_size, 3)


def boolean_tables(n):
    size = 1 << n
    for code in range(1 << size):
        yield FnTable(2, n, Z2, tuple(code >> i & 1 for i in range(size)))


def determined_and_changed(a_size, n, group, step):
    """Every table determined by odd support at (a_size, n), and each of them
    changed in every step-th cell: the gap-2 side of the theorem and tables
    one cell away from it."""
    for entries in all_phi_assignments(a_size, n, group):
        f = table_from_phi(PhiMap.on_phi_domain(a_size, n, group, entries))
        yield f
        for idx in range(0, len(f.values), step):
            values = list(f.values)
            values[idx] = (values[idx] + 1) % group.order
            yield FnTable(a_size, n, group, values)


def padded(f, slot):
    """f with one inessential position inserted at slot."""
    sigma = [i + (i >= slot) for i in range(f.arity)]
    return simple_minor(f, sigma, f.arity + 1)


def assert_gaps_agree(tables):
    checked = 0
    for f in tables:
        if essential_arity(f) < 2:
            continue
        assert arity_gap(f) == pair_scan_arity_gap(f), f
        checked += 1
    return checked


def test_boolean_tables_at_and_above_the_threshold_exhaustively():
    # every table of arity 3 and 4; those of arity 4 include every table of
    # essential arity 2 or 3 with inessential positions, such as majority
    # (gap 2, not determined by odd support) on three of four positions
    assert assert_gaps_agree(boolean_tables(3)) == 248
    assert assert_gaps_agree(boolean_tables(4)) == 65526


@pytest.mark.parametrize("a_size, group, steps", [
    (3, Z2, (1, 1)),
    (3, Z3, (9, 27)),
    (4, Z2, (128, 1024)),
])
def test_wider_alphabets_at_and_above_the_threshold(a_size, group, steps):
    t = threshold(a_size)
    for n, step in zip((t, t + 1), steps):
        family = list(determined_and_changed(a_size, n, group, step))
        assert assert_gaps_agree(family) > len(family) // 2
        # the same tables with one inessential position: at n = t the
        # arity is above the threshold while the essential arity is not
        sample = family[:: 3 if n == t else 17]
        assert assert_gaps_agree(padded(f, k % (n + 1)) for k, f in enumerate(sample))


def test_random_tables_at_and_above_the_threshold():
    rng = random.Random(8)
    for a_size, group in ((3, Z3), (4, Z2)):
        t = threshold(a_size)
        for n in (t, t + 1):
            tables = [random_table(rng, a_size, n, group) for _ in range(10)]
            assert assert_gaps_agree(tables) == 10


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gap_matches_pair_scan_under_hypothesis(data):
    a_size = data.draw(st.sampled_from([2, 3, 4]), label="a_size")
    t = threshold(a_size)
    n = data.draw(st.integers(2, t + 1), label="n")
    group = data.draw(st.sampled_from([Z2, Z3]), label="group")
    if data.draw(st.booleans(), label="determined"):
        f = table_from_phi(PhiMap.on_phi_domain(
            a_size, n, group, lambda S: (data.draw(st.integers(0, group.order - 1)),)))
        if data.draw(st.booleans(), label="changed"):
            values = list(f.values)
            idx = data.draw(st.integers(0, len(values) - 1), label="cell")
            values[idx] = (values[idx] + 1) % group.order
            f = FnTable(a_size, n, group, values)
    else:
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        f = random_table(random.Random(seed), a_size, n, group)
    if n <= t and data.draw(st.booleans(), label="padded"):
        f = padded(f, data.draw(st.integers(0, n), label="slot"))
    if essential_arity(f) >= 2:
        assert arity_gap(f) == pair_scan_arity_gap(f)


def assert_drops_match_the_minors(f):
    """The kernel's drop against m - essential_arity of the identification
    minor, for both orders of every pair of f's essential variables."""
    g = reduce_to_essential(f)
    m = g.arity
    for i in range(m):
        for j in range(m):
            if i != j:
                drop = m - essential_arity(identification_minor(g, i, j))
                assert minors_mod._identification_drop(g, i, j) == drop, (g, i, j)
    return m * (m - 1)


def test_identification_drop_matches_the_minor_exhaustively():
    # every Boolean table of arity up to 3 and every Z3 table at (3, 2)
    booleans = [f for n in range(4) for f in boolean_tables(n)]
    ternary = (FnTable(3, 2, Z3, [code // 3**k % 3 for k in range(9)]) for code in range(3**9))
    # ordered pairs: 40 tables of essential arity 2, 218 of essential arity 3
    assert sum(map(assert_drops_match_the_minors, booleans)) == 40 * 2 + 218 * 6
    # all 3**9 tables but 3 constants and 2 * 24 of one essential variable
    assert sum(map(assert_drops_match_the_minors, ternary)) == (3**9 - 3 - 48) * 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identification_drop_matches_the_minor_under_hypothesis(data):
    a_size = data.draw(st.integers(2, 4), label="a_size")
    n = data.draw(st.integers(2, 5), label="n")
    group = data.draw(st.sampled_from([Z2, Z3, Group((2, 2))]), label="group")
    code = st.integers(0, group.order - 1)
    if data.draw(st.booleans(), label="determined"):
        f = table_from_phi(PhiMap.on_phi_domain(
            a_size, n, group, lambda S: group.decode(data.draw(code))))
        if data.draw(st.booleans(), label="changed"):
            values = list(f.values)
            idx = data.draw(st.integers(0, len(values) - 1), label="cell")
            values[idx] = (values[idx] + 1) % group.order
            f = FnTable(a_size, n, group, values)
    else:
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        f = random_table(random.Random(seed), a_size, n, group)
    if n < 5 and data.draw(st.booleans(), label="padded"):
        f = padded(f, data.draw(st.integers(0, n), label="slot"))
    assert_drops_match_the_minors(f)


def test_minors_built_on_each_side_of_the_threshold(monkeypatch):
    # each pair the scan tries is one call of the kernel that reads the drop
    # of its identification minor
    built = []
    real = minors_mod._identification_drop

    def counting(f, i, j):
        built.append((i, j))
        return real(f, i, j)

    monkeypatch.setattr(minors_mod, "_identification_drop", counting)
    rng = random.Random(9)
    parity6 = FnTable.from_callable(2, 6, Z2, lambda x: (sum(x) % 2,))
    above = [parity6, padded(parity6, 2), random_table(rng, 2, 5, Z2),
             random_table(rng, 3, 5, Z3), random_table(rng, 4, 5, Z2)]
    for f in above:
        assert essential_arity(f) > threshold(f.a_size)
        arity_gap(f)
    assert built == []
    majority = FnTable.from_callable(2, 3, Z2, lambda x: (int(sum(x) >= 2),))
    below = [majority, padded(padded(majority, 0), 4), random_table(rng, 3, 3, Z3),
             random_table(rng, 4, 4, Z2), padded(random_table(rng, 4, 4, Z2), 1),
             random_table(rng, 5, 4, Z2)]
    for f in below:
        assert 2 <= essential_arity(f) <= threshold(f.a_size)
        built.clear()
        arity_gap(f)
        assert 1 <= len(built) <= comb(threshold(f.a_size), 2)
