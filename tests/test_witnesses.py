import pytest

from fndecomp import (
    ArgumentError,
    FnTable,
    Group,
    InternalConsistencyError,
    ResourceError,
    WitnessBundle,
    decomposability_witness,
    derivative_at_zero,
    essential_variables,
    hamming_extension,
    hamming_witness,
    is_determined,
    is_k_decomposable,
    large_alphabet_witness,
    tightness_witness,
)
from helpers import pointwise_hamming_table, pointwise_large_alphabet_table

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z6 = Group((6,))
Z2xZ2 = Group((2, 2))


def count_value_hits(bundle, value):
    """How many subsets J of the witness positions hit f(0 with J set) == value."""
    table, positions, params = bundle.table, sorted(bundle.positions), bundle.params
    n = table.arity
    hits = 0
    for jmask in range(1 << len(positions)):
        x = [0] * n
        for t, i in enumerate(positions):
            if jmask >> t & 1:
                x[i] = params[i]
        if table.eval(tuple(x)) == value:
            hits += 1
    return hits


def test_tightness_witness_e1():
    w = tightness_witness(2, 1, Z2, (1,), 4)
    w.verify()
    assert len(w.positions) == 2 and w.claimed_k == 1
    assert w.expected == (1,)
    assert not is_k_decomposable(w.table, 1)
    assert is_k_decomposable(w.table, 2)
    assert is_determined(w.table)
    assert count_value_hits(w, (1,)) == 1  # 2^(e-1) with e = 1


def test_tightness_witness_e2():
    w = tightness_witness(2, 2, Z4, (1,), 5)
    w.verify()
    assert len(w.positions) == 3 and w.claimed_k == 2
    assert w.expected == (2,)  # (-1)^(e-1) * 2^(e-1) * b = -2 in Z4
    assert w.params == (1, 2, 2, 0, 0)
    assert not is_k_decomposable(w.table, 2)
    assert is_k_decomposable(w.table, 3)
    assert count_value_hits(w, (1,)) == 2  # 2^(e-1)


def test_a_bundle_that_claims_a_vanishing_derivative_is_refused():
    # the claim matches the derivative, but a zero derivative refutes nothing
    constant = FnTable.constant(2, 1, Z2, (0,))
    bundle = WitnessBundle(constant, frozenset({0}), (1,), (0,), 0)
    with pytest.raises(InternalConsistencyError, match="^witness derivative vanishes$"):
        bundle.verify()


def test_tightness_witness_boolean_product_group():
    w = tightness_witness(1, 1, Z2xZ2, (0, 1), 3)
    w.verify()
    assert w.claimed_k == 0
    assert not is_k_decomposable(w.table, 0)
    assert is_k_decomposable(w.table, 1)


def test_tightness_witness_argument_errors():
    with pytest.raises(ArgumentError):
        tightness_witness(2, 1, Z3, (1,), 4)  # exponent 3 is not 2**1
    with pytest.raises(ArgumentError):
        tightness_witness(2, 2, Z4, (2,), 5)  # order of 2 in Z4 is 2, not 4
    with pytest.raises(ArgumentError):
        tightness_witness(2, 2, Z4, (1,), 2)  # n below ell+e-1
    with pytest.raises(ArgumentError):
        tightness_witness(0, 1, Z2, (1,), 4)


def test_hamming_witness_values():
    w3 = hamming_witness(3, Z3, (1,))
    w3.verify()
    assert w3.expected == (2,)  # -4 mod 3
    assert w3.claimed_k == 2
    assert not is_k_decomposable(w3.table, 2)

    w4 = hamming_witness(4, Z6, (1,))
    w4.verify()
    assert w4.expected == (2,)  # 8 mod 6
    assert not is_k_decomposable(w4.table, 3)


def test_hamming_witness_is_determined_and_self_verifying():
    for n in (2, 3, 4):
        w = hamming_witness(n, Z3, (1,))
        assert is_determined(w.table)
        found = decomposability_witness(w.table, w.claimed_k)
        assert found is not None
        positions, params = found
        zero = w.table.group.zero
        assert derivative_at_zero(w.table, positions, params) != zero
        # the bundled pair is itself a valid violation
        assert derivative_at_zero(w.table, w.positions, w.params) == w.expected != zero


def test_hamming_witness_rejects_two_power_orders():
    with pytest.raises(ArgumentError):
        hamming_witness(3, Z4, (1,))  # order 4 = 2**2
    with pytest.raises(ArgumentError):
        hamming_witness(3, Z6, (3,))  # order 2
    with pytest.raises(ArgumentError):
        hamming_witness(3, Z3, (0,))  # order 1 = 2**0
    # order 3 inside Z6 is fine
    hamming_witness(3, Z6, (2,)).verify()


def test_hamming_extension_restricts_to_witness():
    w = hamming_witness(3, Z3, (1,))
    ext = hamming_extension(3, 3, Z3, (1,))
    assert is_determined(ext)
    for x in w.table.domain():
        assert ext.eval(x) == w.table.eval(x)
    # the extension is still not (n-1)-decomposable
    assert not is_k_decomposable(ext, 2)


def test_large_alphabet_witness():
    w = large_alphabet_witness(2, 3, Z2, (1,))
    w.verify()
    assert w.expected == (1,) and w.claimed_k == 1
    assert not is_k_decomposable(w.table, 1)
    assert is_determined(w.table)

    w3 = large_alphabet_witness(3, 4, Z2, (1,))
    w3.verify()
    assert w3.expected == (1,)
    assert derivative_at_zero(w3.table, w3.positions, w3.params) == (1,)


def test_witness_tables_match_their_pointwise_definitions():
    for group, b in ((Z3, (1,)), (Z6, (2,)), (Z2xZ2, (1, 1))):
        for n in range(1, 6):
            for a_size in (2, 3, 4):
                assert hamming_extension(n, a_size, group, b) == \
                    pointwise_hamming_table(n, a_size, group, b)
            for a_size in (n + 1, n + 2):
                if n >= 2:
                    assert large_alphabet_witness(n, a_size, group, b).table == \
                        pointwise_large_alphabet_table(n, a_size, group, b)
    # the Hamming witness takes b of an order that is not a power of two
    for group, b in ((Z3, (1,)), (Z6, (2,))):
        for n in range(1, 6):
            assert hamming_witness(n, group, b).table == pointwise_hamming_table(n, 2, group, b)


def test_large_alphabet_witness_errors():
    with pytest.raises(ArgumentError):
        large_alphabet_witness(3, 3, Z2, (1,))  # alphabet not larger than arity
    with pytest.raises(ArgumentError):
        large_alphabet_witness(2, 3, Z2, (0,))  # zero witness value


def test_witnesses_over_the_cell_budget_are_refused():
    # declared sizes only: each is refused before its table is built
    with pytest.raises(ResourceError):
        hamming_witness(30, Z3, (1,))
    with pytest.raises(ResourceError):
        large_alphabet_witness(12, 13, Z2, (1,))
    with pytest.raises(ResourceError):
        tightness_witness(2, 1, Z2, (1,), 30)
    with pytest.raises(ResourceError):
        hamming_extension(30, 3, Z3, (1,))


def test_witness_tables_depend_on_all_positions():
    for w in (
        tightness_witness(2, 1, Z2, (1,), 4),
        hamming_witness(4, Z3, (1,)),
        large_alphabet_witness(2, 3, Z2, (1,)),
    ):
        assert essential_variables(w.table) == frozenset(range(w.table.arity))


@pytest.mark.parametrize("build", [
    lambda: tightness_witness(2, 2, Z4, (1,), 5),
    lambda: hamming_witness(3, Z3, (1,)),
    lambda: large_alphabet_witness(2, 3, Z2, (1,)),
], ids=["tightness", "hamming", "large-alphabet"])
def test_witness_builders_verify_their_bundles(monkeypatch, build):
    import fndecomp.witnesses as witnesses_mod

    w = build()
    # a derivative that reads zero refutes the claimed value
    monkeypatch.setattr(witnesses_mod, "derivative_at_zero",
                        lambda table, positions, params: table.group.zero)
    with pytest.raises(InternalConsistencyError,
                       match=r"^derivative value \(0,\) differs from claimed "):
        build()
    # a bundle built by hand is checked only when it is asked to be
    by_hand = WitnessBundle(w.table, w.positions, w.params, w.expected, w.claimed_k)
    with pytest.raises(InternalConsistencyError, match="differs from claimed"):
        by_hand.verify()
    monkeypatch.undo()
    assert by_hand.verify() is by_hand
