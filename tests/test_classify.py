import random

import pytest

from fndecomp import (
    ArgumentError,
    FnTable,
    Group,
    PreconditionError,
    arity_gap,
    classify_boolean,
    essential_arity,
    extract_phi,
    is_determined,
    phi_domain,
    z3_build,
    z3_classify,
)
from fndecomp.classify import (
    BooleanGapForm,
    Z3Params,
    params_from_phi,
    phi_values_for_params,
)
from helpers import orbit_form_index, pair_scan_arity_gap, pointwise_z3_build, random_table

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


def test_classify_boolean_exhaustive_3ary():
    # every table of arity 3 and 4 (65 536 of them at arity 4)
    for n in (3, 4):
        size = 1 << n
        for code in range(1 << size):
            f = FnTable(2, n, Z2, tuple(code >> i & 1 for i in range(size)))
            if essential_arity(f) < 2:
                continue
            assert classify_boolean(f).gap == pair_scan_arity_gap(f)


def test_classify_boolean_matches_orbit_index_at_higher_arity():
    rng = random.Random(41)
    for m in range(2, 8):
        oracle = orbit_form_index(m)
        if m <= 3:
            # every table whose m variables are all essential, against the
            # permutation orbits of the forms
            size = 1 << m
            for code in range(1 << size):
                f = FnTable(2, m, Z2, tuple(code >> i & 1 for i in range(size)))
                if essential_arity(f) == m:
                    assert classify_boolean(f).form == oracle.get(f.values)
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
    for n in range(4, 9):
        for params in all_z3_params():
            assert z3_build(n, params) == pointwise_z3_build(n, params), (n, params)


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
