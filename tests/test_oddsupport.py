import random
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from fndecomp import (
    ArgumentError,
    CoverageError,
    DomainError,
    FnTable,
    Group,
    ParseError,
    PhiMap,
    PreconditionError,
    ResourceError,
    determined_count,
    determined_via_symmetry,
    dump_phi,
    extract_phi,
    is_determined,
    load_phi,
    odd_support,
    phi_domain,
    representative_tuple,
    table_from_phi,
)
from fndecomp import oddsupport
from helpers import (
    all_phi_assignments,
    boolean_corpus,
    naive_is_determined,
    partition_extract_phi,
    random_table,
    sum_tables,
    symmetric_tables,
    with_cell_flipped,
)

Z2 = Group((2,))
Z3 = Group((3,))


def test_odd_support_examples():
    assert odd_support(3, (0, 0, 1, 2)) == frozenset({1, 2})
    assert odd_support(3, (2, 2)) == frozenset()
    assert odd_support(3, (0, 1, 2, 0, 1)) == frozenset({2})
    with pytest.raises(DomainError):
        odd_support(2, (0, 2))


@given(st.integers(2, 4).flatmap(
    lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=7).map(
        lambda xs: (a, tuple(xs))
    )
))
def test_odd_support_permutation_invariant(ax):
    a, x = ax
    base = odd_support(a, x)
    for _ in range(3):
        x = tuple(random.sample(x, len(x)))
        assert odd_support(a, x) == base


@given(st.integers(2, 4).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.integers(0, a - 1),
        st.lists(st.integers(0, a - 1), min_size=0, max_size=5),
    )
))
def test_odd_support_duplicate_pair_removal(avx):
    a, v, rest = avx
    assert odd_support(a, (v, v) + tuple(rest)) == odd_support(a, tuple(rest))


def test_phi_domain_examples():
    assert [sorted(S) for S in phi_domain(2, 3)] == [[0], [1]]
    assert [sorted(S) for S in phi_domain(3, 4)] == [[], [0, 1], [0, 2], [1, 2]]
    assert [sorted(S) for S in phi_domain(3, 5)] == [[0], [1], [2], [0, 1, 2]]


def test_phi_domain_is_exactly_the_reachable_supports():
    for a, n in [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)]:
        reachable = {odd_support(a, x[::-1]) for x in product(range(a), repeat=n)}
        assert reachable == set(phi_domain(a, n))


def test_representative_tuple():
    assert representative_tuple({1, 2}, 4) == (1, 1, 1, 2)
    assert representative_tuple(frozenset(), 4) == (0, 0, 0, 0)
    assert representative_tuple({0, 1, 2}, 5) == (0, 0, 0, 1, 2)
    with pytest.raises(ArgumentError):
        representative_tuple(frozenset(), 3)
    with pytest.raises(ArgumentError):
        representative_tuple({0}, 4)
    with pytest.raises(ArgumentError):
        representative_tuple({0, 1, 2}, 2)
    # the letters are read as a set: {1} at arity 2 and {1, 2} at arity 3
    for letters, n in (([1, 1], 2), ([2, 1, 1], 3)):
        with pytest.raises(ArgumentError, match="wrong parity"):
            representative_tuple(letters, n)


@given(st.lists(st.integers(0, 5), max_size=8), st.integers(0, 9))
def test_representative_tuple_reads_its_letters_as_a_set(letters, n):
    # a repeated letter counts once, as in PhiMap.value: the tuple exists
    # exactly when the set is a reachable support at arity n, and its odd
    # support is that set
    S = frozenset(letters)
    reachable = len(S) <= n and (n - len(S)) % 2 == 0
    try:
        x = representative_tuple(letters, n)
    except ArgumentError:
        assert not reachable
    else:
        assert reachable and len(x) == n and odd_support(6, x) == S


def test_representative_tuple_checks_its_arguments_before_building():
    from fndecomp.errors import MAX_CELLS

    # the tuple has n entries, so n is held to the cell budget
    for S, n in (({0}, 10**30 + 1), (set(), 10**30), (set(), MAX_CELLS + 2),
                 ({0, 1}, MAX_CELLS + 2)):
        with pytest.raises(ResourceError, match=f"budget of {MAX_CELLS} cells"):
            representative_tuple(S, n)
    with pytest.raises(ArgumentError, match="got -2$"):
        representative_tuple(set(), -2)
    with pytest.raises(DomainError, match="letter -1 is negative"):
        representative_tuple({-1}, 1)
    with pytest.raises(DomainError):
        representative_tuple({-1, 0}, 4)


def test_representative_tuple_round_trip():
    for a, n in [(2, 3), (2, 6), (3, 4), (3, 5), (4, 4)]:
        for S in phi_domain(a, n):
            rep = representative_tuple(S, n)
            assert len(rep) == n
            assert odd_support(a, rep) == S


def test_table_from_phi_constant_and_parity():
    const = PhiMap.on_phi_domain(2, 3, Z3, lambda S: (2,))
    assert set(table_from_phi(const).values) == {2}
    phi = PhiMap.on_phi_domain(
        2, 3, Z2, {frozenset({0}): (0,), frozenset({1}): (1,)}
    )
    t = table_from_phi(phi)
    # oracle: exhaustive grouping says this is 3-ary parity
    for x in t.domain():
        assert t.eval(x) == (sum(x) % 2,)


def test_table_from_phi_refuses_a_full_map():
    # a full map has no arity; the even case rebuilds through its sum table
    full = PhiMap(2, Z2, None, {
        frozenset(): (0,), frozenset({0}): (0,),
        frozenset({1}): (1,), frozenset({0, 1}): (1,),
    })
    with pytest.raises(ArgumentError, match="pnprime"):
        table_from_phi(full)


def test_theta_additivity():
    rng = random.Random(4)
    for _ in range(20):
        e1 = {S: (rng.randrange(3),) for S in phi_domain(3, 3)}
        e2 = {S: (rng.randrange(3),) for S in phi_domain(3, 3)}
        p1 = PhiMap.on_phi_domain(3, 3, Z3, e1)
        p2 = PhiMap.on_phi_domain(3, 3, Z3, e2)
        psum = PhiMap.on_phi_domain(
            3, 3, Z3, {S: Z3.add(e1[S], e2[S]) for S in e1}
        )
        t1, t2, ts = table_from_phi(p1), table_from_phi(p2), table_from_phi(psum)
        assert ts.values == sum_tables(Z3, [t1, t2])


def test_extract_phi_examples():
    par3 = FnTable.from_callable(2, 3, Z2, lambda x: (sum(x) % 2,))
    phi = extract_phi(par3)
    assert phi is not None
    assert phi.value({0}) == (0,) and phi.value({1}) == (1,)
    proj = FnTable.from_callable(2, 2, Z2, lambda x: (x[0],))
    assert extract_phi(proj) is None
    const = FnTable.constant(3, 3, Z3, (2,))
    phi_c = extract_phi(const)
    assert phi_c is not None and all(v == (2,) for _, v in phi_c.sorted_items())


def test_extract_phi_round_trip_exhaustive():
    # every phi over Z2 with a_size <= 3, n <= 5 is recovered exactly
    for a in (2, 3):
        for n in range(1, 6):
            for entries in all_phi_assignments(a, n, Z2):
                phi = PhiMap.on_phi_domain(a, n, Z2, entries)
                back = extract_phi(table_from_phi(phi))
                assert back == phi


def test_extract_phi_matches_partition_oracle_exhaustively():
    # every table at (2, 3) and (2, 4) over Z2 and at (3, 2) over Z3
    booleans = [case.table for n in (3, 4) for case in boolean_corpus(n)]
    ternary = [FnTable(3, 2, Z3, [code // 3**k % 3 for k in range(9)]) for code in range(3**9)]
    determined = 0
    for f in booleans + ternary:
        phi = extract_phi(f)
        assert phi == partition_extract_phi(f)
        determined += phi is not None
    assert determined == sum(map(determined_count, (2, 2, 3), (3, 4, 2), (Z2, Z2, Z3)))


@st.composite
def oracle_cases(draw):
    """A random table, a determined one, or a determined one with one cell
    changed, for a <= 4 and n <= 5 over Z2, Z3 or Z2xZ2."""
    a = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    group = draw(st.sampled_from([Z2, Z3, Group((2, 2))]))
    elements = list(group.elements())
    kind = draw(st.sampled_from(["random", "determined", "flipped"]))
    if kind == "random":
        return random_table(random.Random(draw(st.integers(0, 2**32))), a, n, group)
    entries = {S: draw(st.sampled_from(elements)) for S in phi_domain(a, n)}
    f = table_from_phi(PhiMap.on_phi_domain(a, n, group, entries))
    if kind == "flipped":
        idx = draw(st.integers(0, a**n - 1))
        codes = list(f.values)
        codes[idx] = (codes[idx] + draw(st.integers(1, group.order - 1))) % group.order
        f = FnTable(a, n, group, codes)
    return f


@given(oracle_cases())
def test_extract_phi_matches_partition_oracle(f):
    assert extract_phi(f) == partition_extract_phi(f)


def test_detection_routes_agree():
    rng = random.Random(6)
    for a, n, g in [(2, 3, Z2), (2, 4, Z2), (3, 3, Z3), (3, 4, Z2)]:
        for _ in range(40):
            f = random_table(rng, a, n, g)
            assert (extract_phi(f) is not None) == determined_via_symmetry(f)
            assert (extract_phi(f) is not None) == naive_is_determined(f)
        for entries in all_phi_assignments(a, n, Z2):
            t = table_from_phi(PhiMap.on_phi_domain(a, n, Z2, entries))
            if t.group == g:
                assert determined_via_symmetry(t)
    # symmetric tables at |A| = 3, n = 3 (16 of the 1024 are determined),
    # each of them with one cell flipped (3 of which become determined: the
    # flipped cell (d, d, d) was the one that broke determination), and
    # symmetric tables that are not determined: majority, and a letter count
    # at |A| = 4, n = 4
    symmetric = symmetric_tables(3, 3)
    flipped = [with_cell_flipped(f, k % 27) for k, f in enumerate(symmetric)]
    majority = FnTable.from_callable(2, 3, Z2, lambda x: (int(sum(x) >= 2),))
    zeros = FnTable.from_callable(4, 4, Z2, lambda x: (int(x.count(0) >= 2),))
    determined = 0
    for f in symmetric + flipped + [majority, zeros]:
        verdict = determined_via_symmetry(f)
        assert verdict == naive_is_determined(f) == (extract_phi(f) is not None)
        determined += verdict
    assert determined == 16 + 3
    with pytest.raises(PreconditionError, match="^odd-support determination needs arity >= 1$"):
        determined_via_symmetry(FnTable.constant(2, 0, Z2, (1,)))


def test_boolean_determined_are_constants_and_parities():
    # assertable restatement of the affine-functions fact, n <= 4
    for n in (1, 2, 3, 4):
        size = 1 << n
        expected = {
            tuple(0 for _ in range(size)),
            tuple(1 for _ in range(size)),
            tuple(k.bit_count() & 1 for k in range(size)),
            tuple(k.bit_count() + 1 & 1 for k in range(size)),
        }
        found = {case.table.values for case in boolean_corpus(n) if is_determined(case.table)}
        assert found == expected


def test_is_determined_reads_the_verdict_not_phi():
    # the verdict extract_phi reads, on every Boolean table of arity 1 to 4;
    # a table too wide for phi's odd-support masks is answered too
    for n in (1, 2, 3, 4):
        for case in boolean_corpus(n):
            assert is_determined(case.table) == (extract_phi(case.table) is not None)
    wide = FnTable.constant(129, 3, Z2, (1,))
    assert is_determined(wide)
    with pytest.raises(ResourceError):
        extract_phi(wide)


def test_determined_count_examples():
    assert determined_count(2, 3, Z2) == 4
    assert determined_count(3, 4, Z2) == 16
    assert determined_count(2, 2, Z3) == 9
    # the key count, summed from binomials, against the keys phi_domain builds
    for a in range(2, 7):
        for n in range(1, 9):
            for group in (Z2, Z3, Group((2, 2))):
                assert determined_count(a, n, group) == group.order ** len(phi_domain(a, n))


def test_determined_count_matches_enumeration():
    # exhaustive over all 256 tables at (2, 3)
    hits = sum(is_determined(case.table) for case in boolean_corpus(3))
    assert hits == determined_count(2, 3, Z2)


def time_and_peak(call):
    """Wall time and tracemalloc peak of call(), which may raise."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        call()
    finally:
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return elapsed, peak


def forbid_phi_domain(monkeypatch):
    def build(*args):
        raise AssertionError("phi_domain was called")

    monkeypatch.setattr(oddsupport, "phi_domain", build)


def test_determined_count_builds_no_key(monkeypatch):
    # 2**21 keys at (22, 22): counted, not built, and phi_domain not called
    forbid_phi_domain(monkeypatch)
    counts = []
    elapsed, peak = time_and_peak(lambda: counts.append(determined_count(22, 22, Z2)))
    assert counts == [2 ** 2**21]
    assert elapsed < 1.0 and peak < 5 << 20


def test_full_phi_map_is_checked_by_count_and_containment():
    def refuse(a_size, entries):
        with pytest.raises(ArgumentError, match="full phi map must cover every subset"):
            PhiMap(a_size, Z2, None, entries)

    # 2**22 subsets are counted, not built
    elapsed, peak = time_and_peak(lambda: refuse(22, {}))
    assert elapsed < 1.0 and peak < 5 << 20
    # 2**2 keys, one of which holds a letter outside the alphabet
    PhiMap(2, Z2, None, {frozenset(S): (0,) for S in ((), (0,), (1,), (0, 1))})
    refuse(2, {frozenset(S): (0,) for S in ((), (0,), (1,), (0, 2))})


def test_pnprime_phi_map_is_checked_by_count_and_containment(monkeypatch):
    # 2**21 keys at (22, 22) are counted, not built, by the map and by the
    # phi file reader, and phi_domain is not called
    forbid_phi_domain(monkeypatch)

    def refuse(call):
        with pytest.raises((ArgumentError, ParseError),
                           match="^pnprime phi map keys do not match phi_domain$"):
            call()

    for call in (lambda: PhiMap(22, Z2, 22, {}),
                 lambda: load_phi("phi domain=pnprime:22 a=22 group=Z2\n")):
        elapsed, peak = time_and_peak(lambda: refuse(call))
        assert elapsed < 1.0 and peak < 5 << 20


@given(st.data())
def test_pnprime_key_rule_is_the_set_comparison(data):
    # the whole domain or part of it, with or without subsets of range(a + 1)
    # from outside it, some of which hold the letter a outside the alphabet
    a, n = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 6))
    domain = set(phi_domain(a, n))
    subsets = [frozenset(S) for size in range(a + 2) for S in combinations(range(a + 1), size)]
    inside = data.draw(st.one_of(st.just(domain), st.sets(st.sampled_from(
        [S for S in subsets if S in domain]))))
    outside = data.draw(st.sets(st.sampled_from([S for S in subsets if S not in domain]),
                                max_size=3))
    entries = {S: (len(S) % 2,) for S in inside | outside}
    if set(entries) == domain:
        assert PhiMap(a, Z2, n, entries).entries == entries
    else:
        with pytest.raises(ArgumentError, match="^pnprime phi map keys do not match phi_domain$"):
            PhiMap(a, Z2, n, entries)


def test_phi_map_validation():
    with pytest.raises(ArgumentError):
        PhiMap(2, Z2, 3, {frozenset({0}): (0,)})  # missing key
    with pytest.raises(ArgumentError):
        PhiMap(2, Z2, None, {
            frozenset(): (0,), frozenset({0}): (1,),
            frozenset({1}): (0,), frozenset({0, 1}): (0,),
        })  # pairing violated
    phi = PhiMap.on_phi_domain(2, 4, Z2, lambda S: (0,))
    with pytest.raises(CoverageError):
        phi.value({0})  # size-1 subsets are outside an even-arity domain
    # a Mapping goes to the constructor as it is: missing keys and extra keys
    # are refused by its key check
    for entries in ({}, {frozenset(): (0,), frozenset({0}): (0,), frozenset({1}): (1,)}):
        with pytest.raises(ArgumentError, match="keys do not match phi_domain"):
            PhiMap.on_phi_domain(2, 3, Z2, entries)
    # a full map over fewer than two letters is refused, not half-built
    with pytest.raises(ArgumentError, match="alphabet size"):
        PhiMap(1, Z2, None, {frozenset(): (1,), frozenset({0}): (1,)})
    for text in ("phi domain=full a=0 group=Z2\n{} -> 1\n",
                 "phi domain=full a=1 group=Z2\n{} -> 1\n{0} -> 1\n"):
        with pytest.raises(ParseError, match="alphabet size"):
            load_phi(text)


def test_phi_file_round_trip():
    phi = PhiMap.on_phi_domain(
        3, 4, Group((2, 2)),
        lambda S: (len(S) % 2, 1 if 0 in S else 0),
    )
    assert load_phi(dump_phi(phi)) == phi
    full = PhiMap(2, Z2, None, {
        frozenset(): (0,), frozenset({0}): (0,),
        frozenset({1}): (1,), frozenset({0, 1}): (1,),
    })
    assert load_phi(dump_phi(full)) == full
    with pytest.raises(ParseError):
        load_phi("phi domain=pnprime:3 a=2 group=Z2\n{0} -> 0\n")  # incomplete
    with pytest.raises(ParseError):
        load_phi("phi domain=nope a=2 group=Z2\n")
    # header numbers and subset letters are ASCII digits, and a subset reads
    # only as format_subset writes it: ascending, each letter once, no
    # leading zero
    text = dump_phi(full)
    for old, new in (("a=2", "a=\u00b2"), ("a=2", "a=" + "9" * 5000), ("{0}", "{\u0660}"),
                     ("{1}", "{+1}"), ("{0,1}", "{0,1_}"), ("-> 1", "-> +1"),
                     ("{1}", "{01}"), ("{1}", "{1,1}"), ("{0}", "{00}"), ("{0,1}", "{1,0}")):
        with pytest.raises(ParseError) as exc:
            load_phi(text.replace(old, new, 1))
        # the message quotes at most a short excerpt of the input
        assert len(str(exc.value)) < 100
    odd = dump_phi(phi)
    assert "pnprime:4" in odd
    with pytest.raises(ParseError):
        load_phi(odd.replace("pnprime:4", "pnprime:\u2074"))
    # the keys are counted against the cell budget before any is built;
    # the alphabet itself is not capped
    assert len(phi_domain(30, 2)) == 436


FULL_PHI = "phi domain=full a=2 group=Z2\n{} -> 0\n{0} -> 0\n{1} -> 1\n{0,1} -> 1\n"


@pytest.mark.parametrize("text, message, line", [
    ("", "empty phi file", None),
    ("# a comment\n\n   \n", "empty phi file", None),
    ("phi domain=full a=2\n", "bad phi header (expected 'phi domain=... a=... group=...')", 1),
    ("fi domain=full a=2 group=Z2\n", "bad phi header (expected 'phi domain=... a=... group=...')",
     1),
    ("# a comment\nphi domain=full a=2 grp=Z2\n", "bad phi header fields", 2),
    ("phi domain=full a=2 domain=full\n", "bad phi header fields", 1),
    ("# a comment\n\nphi domain=full a=2 group=Q2\n", "bad group factor 'q2' in 'Q2'", 3),
    (FULL_PHI.replace("{1} -> 1", "{1} 1"), "bad phi entry '{1} 1'", 4),
    (FULL_PHI.replace("{1} -> 1", "{0} -> 1"), "duplicate key {0}", 4),
])
def test_phi_file_refusals(text, message, line):
    with pytest.raises(ParseError) as exc:
        load_phi(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_phi_file_skips_comments_and_blank_lines():
    commented = FULL_PHI.replace("{1} -> 1\n", "# a comment\n{1} -> 1\n\n  \n")
    assert load_phi(commented) == load_phi(FULL_PHI)


def test_phi_with_bool_and_numpy_residues_round_trips():
    import numpy as np

    # residues are stored as plain ints, so the text names them as digits
    for value in (lambda S: (1 in S,), lambda S: (np.int64(1 in S),)):
        phi = PhiMap.on_phi_domain(2, 3, Z2, value)
        text = dump_phi(phi)
        assert text == "phi domain=pnprime:3 a=2 group=Z2\n{0} -> 0\n{1} -> 1\n"
        assert load_phi(text) == phi
    with pytest.raises(DomainError, match="not an integer"):
        PhiMap.on_phi_domain(2, 3, Z2, lambda S: (1.0,))
    for header in ("phi domain=full a=40 group=Z2", "phi domain=pnprime:6 a=100000 group=Z2"):
        with pytest.raises(ResourceError):
            load_phi(header + "\n")
    # a mask over a letters takes ceil(a/64) words: the keys and the per-cell
    # masks are charged for them
    with pytest.raises(ResourceError):
        phi_domain(1024, 2)
    with pytest.raises(ResourceError):
        extract_phi(FnTable(100000, 1, Z2, (0,) * 100000))
    # 129^3 cells at 3 words each: its keys fit, its per-cell masks do not
    with pytest.raises(ResourceError, match="cells"):
        extract_phi(FnTable(129, 3, Z2, (0,) * 129**3))
