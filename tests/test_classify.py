import random

import pytest

from fndecomp import (
    ArgumentError,
    FnTable,
    Group,
    InternalConsistencyError,
    PreconditionError,
    arity_gap,
    classify_boolean,
    essential_arity,
    extract_phi,
    is_determined,
    phi_domain,
    reduce_to_essential,
    save_table_file,
    z3_build,
    z3_classify,
)
from fndecomp.classify import (
    BooleanGapForm,
    Z3Classification,
    Z3Params,
    _gap_certified,
    params_from_phi,
    phi_values_for_params,
)
from fndecomp.cli import main
from fndecomp.errors import MAX_CELLS
from fndecomp.tables import iter_tuples
from helpers import (boolean_corpus, count_classes, orbit_form_index, pair_scan_arity_gap,
                     pointwise_z3_build, random_table, with_inessential, z3_class_form)

Z2 = Group((2,))
Z3 = Group((3,))


def gf2(fn, n):
    return FnTable.from_callable(2, n, Z2, lambda x: (fn(x) % 2,))


def all_z3_params():
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    yield Z3Params(a, b, c, d)


def test_classify_boolean_examples():
    par4 = gf2(lambda x: sum(x), 4)
    res = classify_boolean(par4)
    assert res.gap == 2 and res.form == BooleanGapForm("parity_sum", 0, 4)

    and2 = gf2(lambda x: x[0] * x[1], 2)
    assert classify_boolean(and2).gap == 1

    maj = gf2(lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2], 3)
    res = classify_boolean(maj)
    assert res.gap == 2 and res.form == BooleanGapForm("majority", 0)

    res = classify_boolean(gf2(lambda x: x[0] * x[1] + x[0] + 1, 2))
    assert res.gap == 2 and res.form == BooleanGapForm("product_plus_arg", 1)

    res = classify_boolean(
        gf2(lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2] + x[0] + x[1], 3)
    )
    assert res.gap == 2 and res.form == BooleanGapForm("majority_plus_pair", 0)


def test_classify_boolean_handles_permuted_and_padded_forms():
    # linear pair on other positions, plus an inessential variable
    f = gf2(lambda x: x[2] * x[3] + x[3], 4)
    res = classify_boolean(f)
    assert res.gap == 2 and res.form.kind == "product_plus_arg"
    assert arity_gap(f) == 2


def test_classify_boolean_preconditions():
    with pytest.raises(PreconditionError):
        classify_boolean(gf2(lambda x: x[0], 3))
    with pytest.raises(ArgumentError):
        classify_boolean(FnTable.constant(3, 2, Z2, (0,)))
    with pytest.raises(ArgumentError):
        classify_boolean(FnTable.constant(2, 2, Z3, (0,)))


def test_classify_boolean_matches_orbit_index_at_higher_arity():
    rng = random.Random(41)
    for m in range(2, 8):
        oracle = orbit_form_index(m)
        if m <= 3:
            # every table whose m variables are all essential, against the
            # permutation orbits of the forms
            for case in boolean_corpus(m):
                if case.essential_arity == m:
                    assert classify_boolean(case.table).form == oracle.get(case.table.values)
            continue
        # above m = 3 the only forms are the two parity sums, which
        # classify_boolean reads off determination, not off the polynomial
        assert len(oracle) == 2
        for values, form in oracle.items():
            assert classify_boolean(FnTable(2, m, Z2, values)).form == form
        if m < 5:
            continue
        cases = [(gf2(lambda x: sum(x) + c, m), True) for c in (0, 1)]
        cases += [(random_table(rng, 2, m, Z2), False) for _ in range(3)]
        for g, parity in cases:
            # permute the variables and pad with one inessential position
            positions = rng.sample(range(m + 1), m)
            f = FnTable.from_callable(2, m + 1, Z2,
                                      lambda x: g.eval(tuple(x[p] for p in positions)))
            res = classify_boolean(f)
            assert res.gap == pair_scan_arity_gap(f)
            assert res.form == oracle.get(g.values)
            assert (res.gap == 2) == parity


def test_boolean_gap_certificate(monkeypatch):
    import fndecomp.minors as minors_mod

    built = []
    real = minors_mod._identification_drop
    monkeypatch.setattr(minors_mod, "_identification_drop",
                        lambda f, i, j: built.append((i, j)) or real(f, i, j))
    rng = random.Random(12)
    parity = FnTable.from_callable(2, 6, Z2, lambda x: (sum(x) % 2,))
    majority = FnTable.from_callable(2, 4, Z2, lambda x: (int(x[1] + x[2] + x[3] >= 2),))
    # identifying positions 0 and 1 of the last table drops exactly two, yet
    # its gap is 1: a gap-2 witness pair needs determination beside it
    cases = [parity, majority, random_table(rng, 2, 6, Z2), random_table(rng, 2, 3, Z2),
             FnTable.from_callable(2, 5, Z2, lambda x: ((x[0] * x[1] + x[0]) % 2,)),
             FnTable.from_callable(2, 6, Z2, lambda x: ((x[0] + x[1] + x[2] * x[3]
                                                         + x[4] * x[5]) % 2,))]
    for f in cases:
        gap = pair_scan_arity_gap(f)
        for claim in (1, 2, 3):
            assert _gap_certified(reduce_to_essential(f), claim) == (claim == gap)
    # above the threshold: the rebuild from phi and one slice for gap 2, no
    # pair read, and the pairs up to the first witness for gap 1
    built.clear()
    assert _gap_certified(parity, 2) and built == []
    built.clear()
    assert _gap_certified(reduce_to_essential(cases[2]), 1) and 1 <= len(built) <= 14


def test_gap1_certificate_keeps_no_table_sized_data():
    import tracemalloc

    # x0 + ... + x10 + x11*x12: identifying x0 with any of x1..x10 drops two,
    # so the witness (0, 11) is the 11th pair tried
    f = FnTable.from_callable(2, 13, Z2, lambda x: ((sum(x[:11]) + x[11] * x[12]) % 2,))
    assert reduce_to_essential(f) is f
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _gap_certified(f, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8 * len(f.values)


def test_gap2_slice_drop_matches_identification_minor():
    from fndecomp import PhiMap, identification_minor, table_from_phi
    from helpers import all_phi_assignments

    # on a determined table g(x1, x1, rest) = g(0, 0, rest), so the drop of
    # identifying x0 with x1 is read off the slice of cells with x0 = x1 = 0
    checked = 0
    for a, n in ((2, 4), (2, 5), (3, 4), (3, 5), (4, 5)):
        for group in (Z2, Z3) if a < 4 else (Z2,):
            for entries in all_phi_assignments(a, n, group):
                g = table_from_phi(PhiMap.on_phi_domain(a, n, group, entries))
                minor_drop = n - essential_arity(identification_minor(g, 0, 1))
                rest = FnTable(a, n - 2, group, g.values[::a * a])
                assert n - essential_arity(rest) == minor_drop
                if essential_arity(g) == n:
                    assert minor_drop == 2 and _gap_certified(g, 2)
                checked += 1
    assert checked == 476


def test_gap2_certificate_does_not_rest_on_the_slice_test(tmp_path, capsys, monkeypatch):
    import fndecomp.classify as classify_mod
    import fndecomp.minors as minors_mod
    import fndecomp.oddsupport as oddsupport_mod
    from fndecomp.minors import identification_minor

    # gap 1, yet identifying x0 with x1 drops exactly two
    f = FnTable.from_callable(2, 6, Z2, lambda x: ((x[0] + x[1] + x[2] * x[3]
                                                    + x[4] * x[5]) % 2,))
    assert 6 - essential_arity(identification_minor(f, 0, 1)) == 2
    # oddsupport reads the slice test off its lazy minors module
    with monkeypatch.context() as patch:
        patch.setattr(minors_mod, "determined_via_symmetry", lambda g: True)
        assert oddsupport_mod.extract_phi(f) is not None
    assert not _gap_certified(f, 2) and _gap_certified(f, 1)
    # the classifier misreads f as the parity sum; its check refuses that
    monkeypatch.setattr(classify_mod, "determined_via_symmetry", lambda g: True)
    path = tmp_path / "gap1.tbl"
    save_table_file(f, path)
    code = main(["classify", str(path), "--target", "boolean"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "internal consistency failure: classification disagrees with direct gap\n"


def test_classify_boolean_checks_its_verdict(monkeypatch):
    import fndecomp.classify as classify_mod

    majority = gf2(lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2], 3)
    and2 = gf2(lambda x: x[0] * x[1], 2)
    real = classify_mod._gap2_form
    # a gap-2 table read as gap 1, and a gap-1 table read as a gap-2 form
    for f, misread in ((majority, lambda g: None),
                       (and2, lambda g: BooleanGapForm("product_plus_arg", 0))):
        monkeypatch.setattr(classify_mod, "_gap2_form", misread)
        with pytest.raises(InternalConsistencyError,
                           match="^classification disagrees with direct gap$"):
            classify_boolean(f)
        monkeypatch.setattr(classify_mod, "_gap2_form", real)
        assert classify_boolean(f).gap == pair_scan_arity_gap(f)


def test_z3_classify_checks_its_parameters(tmp_path, capsys, monkeypatch):
    import fndecomp.classify as classify_mod

    f = z3_build(4, Z3Params(1, 2, 2, 2))
    monkeypatch.setattr(classify_mod, "params_from_phi", lambda phi: Z3Params(0, 1, 2, 2))
    with pytest.raises(InternalConsistencyError,
                       match="^parameter certificate does not rebuild f$"):
        z3_classify(f)
    path = tmp_path / "z3.tbl"
    save_table_file(f, path)
    assert main(["classify", str(path), "--target", "z3"]) == 4
    assert capsys.readouterr() == (
        "", "internal consistency failure: parameter certificate does not rebuild f\n")


def test_z3_build_examples():
    t = z3_build(4, Z3Params(1, 2, 2, 2))
    assert t.eval((0, 0, 1, 2)) == (1,)
    zero = z3_build(4, Z3Params(0, 0, 0, 0))
    assert set(zero.values) == {0}
    with pytest.raises(ArgumentError):
        z3_build(3, Z3Params(0, 0, 0, 0))
    with pytest.raises(ArgumentError):
        Z3Params(3, 0, 0, 0)


def test_z3_build_matches_pointwise_form():
    # the fold at every tuple pins z3_build and the class form of the tests
    for n in range(4, 9):
        counts = [tuple(x.count(u) for u in range(3)) for x in iter_tuples(3, n)]
        for params in all_z3_params():
            expected = pointwise_z3_build(n, params)
            assert z3_build(n, params) == expected, (n, params)
            form = z3_class_form(n, params)
            value = {k: form(k) for k in set(counts)}
            assert tuple(map(value.__getitem__, counts)) == expected.values, (n, params)


def test_z3_form_is_its_link_image_through_odd_support_at_every_class():
    # z3_build is table_from_phi of the link image: at every letter-count
    # class of every arity the cell budget admits, the form is the link image
    # at the class's odd support
    assert 3**13 <= MAX_CELLS < 3**14
    classes = 0
    for n in range(4, 14):
        for params in all_z3_params():
            link, form = phi_values_for_params(n, params), z3_class_form(n, params)
            for counts in count_classes(3, n):
                support = frozenset(u for u, k in enumerate(counts) if k & 1)
                assert link[support] == (form(counts),), (n, params, counts)
                classes += 1
    assert classes == 43740


def test_z3_build_identification_cancels():
    rng = random.Random(31)
    for _ in range(5):
        params = Z3Params(*(rng.randrange(3) for _ in range(4)))
        f = z3_build(5, params)
        for x3, x4, x5 in [(0, 1, 2), (2, 2, 1), (0, 0, 0)]:
            vals = {f.eval((x, x, x3, x4, x5)) for x in range(3)}
            assert len(vals) == 1


def test_z3_round_trip_all_params():
    # a = b = c = 0 makes the polynomial part vanish, so those three
    # quadruples build the constant tables; their verdict is degenerate
    # (the gap is undefined below two essential variables).
    for n in (4, 5):
        seen = set()
        for params in all_z3_params():
            f = z3_build(n, params)
            seen.add(f.values)
            res = z3_classify(f)
            if params.a == params.b == params.c == 0:
                assert res.verdict == "degenerate"
                assert set(f.values) == {params.d}
            else:
                assert res.verdict == "gap2" and res.params == params
            assert is_determined(f)
        assert len(seen) == 81


def test_z3_classify_gap1_and_degenerate():
    linear = FnTable.from_callable(3, 4, Z3, lambda x: (sum(x) % 3,))
    assert extract_phi(linear) is None  # mod-3 sum is not support-determined
    assert z3_classify(linear).verdict == "gap1"
    const = FnTable.constant(3, 4, Z3, (2,))
    assert z3_classify(const).verdict == "degenerate"
    with pytest.raises(ArgumentError):
        z3_classify(FnTable.constant(3, 3, Z3, (0,)))
    with pytest.raises(ArgumentError):
        z3_classify(FnTable.constant(2, 4, Z2, (0,)))


def z3_forms(rng):
    """Ternary tables of arity 0-5 with gap 1, 2 or 3 or no gap: random ones,
    u * (x0 - x1) + c, tables determined by odd support (one that is 1 exactly
    on distinct letters has gap 3) and z3_build forms, the constant ones
    among them."""
    from fndecomp import PhiMap, table_from_phi

    forms = [random_table(rng, 3, m, Z3) for m in range(5) for _ in range(4)]
    forms += [FnTable.from_callable(3, 2, Z3, lambda x, u=u, c=c: ((u * (x[0] - x[1]) + c) % 3,))
              for u in (1, 2) for c in range(3)]
    forms += [FnTable.from_callable(3, 3, Z3, lambda x: ((x[0] - x[1]) * x[2] % 3,)),
              FnTable.from_callable(3, 3, Z3, lambda x: (int(len(set(x)) == 3),))]
    forms += [table_from_phi(PhiMap.on_phi_domain(3, m, Z3, lambda S: (rng.randrange(3),)))
              for m in (2, 3) for _ in range(3)]
    forms += [z3_build(m, Z3Params(*(rng.randrange(3) for _ in range(4))))
              for m in (4, 4, 4, 5, 5)]
    forms += [z3_build(4, Z3Params(0, 0, 0, 1)), z3_build(4, Z3Params(1, 2, 0, 1))]
    return forms


def test_z3_classify_decides_on_the_essential_restriction():
    # each form at random positions of arity 4 and 5, in order or permuted:
    # the verdict is that of the restriction to the essential variables
    rng = random.Random(28)
    seen = set()
    for g in z3_forms(rng):
        for n in range(max(g.arity, 4), 6):
            kept = rng.sample(range(n), g.arity)
            if rng.randrange(2):
                kept.sort()
            f = with_inessential(g, kept, n)
            res, m = z3_classify(f), essential_arity(f)
            if m < 2:
                assert res == Z3Classification("degenerate", None)
                continue
            gap = arity_gap(f)
            assert gap == pair_scan_arity_gap(f)
            assert res.verdict == f"gap{gap}"
            # parameters exactly for gap 2 at essential arity >= 4, and they
            # describe the restriction
            assert (res.params is not None) == (gap == 2 and m >= 4)
            if res.params is not None:
                assert z3_build(m, res.params) == reduce_to_essential(f)
            seen.add((res.verdict, m, m < f.arity))
    assert {("gap1", 2, True), ("gap1", 4, True), ("gap2", 2, True), ("gap2", 3, True),
            ("gap2", 4, True), ("gap2", 5, False), ("gap3", 3, True)} <= seen


def test_z3_classify_checks_its_gap(tmp_path, capsys, monkeypatch):
    import fndecomp.classify as classify_mod
    import fndecomp.minors as minors_mod

    # a gap-1 table of essential arity 5 padded to 6, misread as determined:
    # the parameters read off it do not rebuild its restriction
    rng = random.Random(5)
    g = random_table(rng, 3, 5, Z3)
    f = with_inessential(g, (0, 1, 3, 4, 5), 6)
    assert arity_gap(f) == 1 and z3_classify(f) == Z3Classification("gap1", None)
    path = tmp_path / "gap1.tbl"
    save_table_file(f, path)
    with monkeypatch.context() as patch:
        patch.setattr(minors_mod, "determined_via_symmetry", lambda g: True)
        with pytest.raises(InternalConsistencyError,
                           match="^parameter certificate does not rebuild f$"):
            z3_classify(f)
        assert main(["classify", str(path), "--target", "z3"]) == 4
        assert capsys.readouterr() == (
            "", "internal consistency failure: parameter certificate does not rebuild f\n")
    # each gap read the other way round: a gap 2 below and above the
    # pair-scan limit is refused by the check from the definition, and the
    # gap 1 above it by the rebuild from its parameters
    x0_minus_x1 = FnTable.from_callable(3, 4, Z3, lambda x: ((x[1] - x[3]) % 3,))
    for f, message in ((x0_minus_x1, "classification disagrees with direct gap"),
                       (z3_build(5, Z3Params(1, 2, 0, 1)),
                        "classification disagrees with direct gap"),
                       (f, "parameter certificate does not rebuild f")):
        gap = arity_gap(f)
        monkeypatch.setattr(classify_mod, "restriction_gap", lambda g: 3 - gap)
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            z3_classify(f)
        save_table_file(f, path)
        assert main(["classify", str(path), "--target", "z3"]) == 4
        assert capsys.readouterr() == ("", f"internal consistency failure: {message}\n")


def test_small_restrictions_are_checked_without_the_pair_scan(monkeypatch):
    import importlib

    import fndecomp

    # at essential arity 2 and 3 restriction_gap decides by pair_scan_gap;
    # the check reads each drop off an identification minor, so a pair scan
    # that returns a wrong gap is caught: x1 - x3 (gap 2) and x0 + x1 * x2
    # (gap 1), each at arity 4
    cases = [FnTable.from_callable(3, 4, Z3, lambda x: ((x[1] - x[3]) % 3,)),
             FnTable.from_callable(3, 4, Z3, lambda x: ((x[0] + x[1] * x[2]) % 3,))]
    assert [z3_classify(f).verdict for f in cases] == ["gap2", "gap1"]
    real = fndecomp.minors.pair_scan_gap
    for name in fndecomp._EXPORTS:
        module = importlib.import_module(f"fndecomp.{name}")
        if hasattr(module, "pair_scan_gap"):
            monkeypatch.setattr(module, "pair_scan_gap", lambda g: 3 - real(g))
    for f in cases:
        with pytest.raises(InternalConsistencyError,
                           match="^classification disagrees with direct gap$"):
            z3_classify(f)


def test_z3_gap2_matches_direct_gap():
    rng = random.Random(37)
    for _ in range(6):
        params = Z3Params(*(rng.randrange(3) for _ in range(4)))
        f = z3_build(4, params)
        if essential_arity(f) == 4:
            assert pair_scan_arity_gap(f) == 2


def test_phi_link_for_arity_3_mod_4():
    # the recovered support map matches the linear image of the parameters,
    # for both parities of n and both classes of the constant term (n % 4)
    for n in (4, 5, 6, 7):
        for params in all_z3_params():
            f = z3_build(n, params)
            phi = extract_phi(f)
            assert phi is not None
            expected = phi_values_for_params(n, params)
            assert set(expected) == set(phi_domain(3, n))
            for S, v in expected.items():
                assert phi.value(S) == v
            assert params_from_phi(phi) == params


def test_phi_link_is_a_bijection():
    for n in (4, 5, 6, 7):
        images = {tuple(sorted((tuple(sorted(S)), v) for S, v in
                               phi_values_for_params(n, p).items()))
                  for p in all_z3_params()}
        assert len(images) == 81
