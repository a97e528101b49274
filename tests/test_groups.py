import pytest
from hypothesis import given, strategies as st

from fndecomp import ArgumentError, DomainError, Group, ParseError, ResourceError, ShapeError
from fndecomp.errors import MAX_CELLS
from fndecomp.packing import PACKED_BITS, Packing, packed_cell
from helpers import code_add, code_sub, corner_elements

Z2 = Group((2,))
Z3 = Group((3,))
Z4 = Group((4,))
Z2xZ4 = Group((2, 4))
TRIVIAL = Group(())

groups_st = st.lists(st.integers(2, 6), min_size=0, max_size=3).map(
    lambda ms: Group(tuple(ms))
)


def element_st(g):
    return st.tuples(*(st.integers(0, m - 1) for m in g.moduli))


def test_add_examples():
    assert Z4.add((3,), (3,)) == (2,)
    assert Z2xZ4.add((1, 2), (1, 2)) == (0, 0)
    assert Z2xZ4.add((1, 3), Z2xZ4.zero) == (1, 3)


def test_neg_and_scalar_examples():
    assert Z3.neg((1,)) == (2,)
    assert Z4.scalar_mul(2, (1,)) == (2,)
    assert Z4.scalar_mul(-4, (3,)) == (0,)


def test_scalar_mul_matches_iterated_addition():
    # oracle: k-fold addition, negatives via neg of the positive sum
    for g in (Z2, Z3, Z4, Z2xZ4):
        for x in g.elements():
            for k in range(-5, 9):
                acc = g.zero
                for _ in range(abs(k)):
                    acc = g.add(acc, x)
                if k < 0:
                    acc = g.neg(acc)
                assert g.scalar_mul(k, x) == acc


def test_order_of_examples_and_oracle():
    assert Z4.order_of((1,)) == 4
    assert Z2xZ4.order_of((1, 2)) == 2
    assert Z2xZ4.order_of(Z2xZ4.zero) == 1
    for g in (Z2, Z3, Z4, Z2xZ4, Group((6,)), Group((2, 2, 2))):
        for x in g.elements():
            n = g.order_of(x)
            assert g.scalar_mul(n, x) == g.zero
            for d in range(1, n):
                assert g.scalar_mul(d, x) != g.zero


def test_exponent():
    assert Z2xZ4.exponent == 4 and Z2xZ4.exponent_pow2() == 2
    assert Z3.exponent == 3 and Z3.exponent_pow2() is None
    g = Group((2, 2))
    assert g.exponent == 2 and g.exponent_pow2() == 1 and g.is_boolean()
    assert TRIVIAL.exponent == 1 and TRIVIAL.exponent_pow2() == 0
    assert not Z4.is_boolean()


def test_exponent_is_max_order():
    for g in (Z2, Z3, Z4, Z2xZ4, Group((2, 3)), Group((4, 4)), Group((2, 2, 2))):
        assert g.order <= 64
        assert g.exponent == max(g.order_of(x) for x in g.elements())


@given(groups_st.flatmap(lambda g: st.tuples(st.just(g), element_st(g), element_st(g))))
def test_add_commutes(gxy):
    g, x, y = gxy
    assert g.add(x, y) == g.add(y, x)


@given(groups_st.flatmap(
    lambda g: st.tuples(st.just(g), element_st(g), element_st(g), element_st(g))
))
def test_add_associates(gxyz):
    g, x, y, z = gxyz
    assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))


@given(groups_st.flatmap(lambda g: st.tuples(st.just(g), element_st(g))))
def test_neg_is_inverse(gx):
    g, x = gx
    assert g.add(g.neg(x), x) == g.zero
    assert g.scalar_mul(-1, x) == g.neg(x)


def test_add_associative_commutative_exhaustive_small():
    for g in (Z4, Z2xZ4, Group((2, 2))):
        assert g.order <= 16
        elems = list(g.elements())
        for x in elems:
            for y in elems:
                assert g.add(x, y) == g.add(y, x)
                for z in elems:
                    assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))


def test_shape_and_domain_errors():
    with pytest.raises(ShapeError):
        Z2xZ4.add((1,), (0, 0))
    with pytest.raises(DomainError):
        Z2xZ4.add((1, 4), (0, 0))
    with pytest.raises(ArgumentError):
        Group((1, 2))


def test_moduli_and_residues_must_be_integers():
    import numpy as np

    for modulus, quoted in ((2.5, "2.5"), (2.0, "2.0"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ArgumentError,
                           match=f"^cyclic factor modulus must be an integer, got {quoted}$"):
            Group((modulus,))
    assert Group((np.int64(3), True + 1)).moduli == (3, 2)
    assert all(type(m) is int for m in Group((np.int64(3),)).moduli)
    # validate hands back plain ints; a residue that is no integer is refused
    for x in ((True,), (np.int8(1),), [1]):
        assert Z2.validate(x) == (1,) and type(Z2.validate(x)[0]) is int
    assert Z2xZ4.encode((True, np.uint16(3))) == 7
    for x in ((1.0,), ("1",), (None,)):
        with pytest.raises(DomainError, match="has a residue that is not an integer"):
            Z2.validate(x)
    with pytest.raises(DomainError, match="not an integer"):
        Z3.add((1.5,), (0,))


def test_text_round_trip():
    assert Group.from_text("Z2xZ4") == Z2xZ4
    assert Group.from_text("z2XZ4") == Z2xZ4
    assert Group.from_text("Z1") == TRIVIAL
    assert Z2xZ4.to_text() == "Z2xZ4"
    assert TRIVIAL.to_text() == "Z1"
    for bad in ("", "Z0", "Q8", "Z2x", "Z-3", "Z\u00b3", "Z\u0663", "Z+3"):
        with pytest.raises(ParseError):
            Group.from_text(bad)


def test_element_text():
    assert Z2xZ4.format_element((1, 2)) == "1,2"
    assert Z3.format_element((2,)) == "2"
    assert TRIVIAL.format_element(()) == "0"
    assert Z2xZ4.parse_element("1,2") == (1, 2)
    assert TRIVIAL.parse_element("0") == ()
    with pytest.raises(ParseError):
        Z3.parse_element("3")
    with pytest.raises(ParseError):
        Z2xZ4.parse_element("1")
    # only the canonical decimal text str(r) names residue r
    Z12 = Group((12,))
    for bad in ("+1", "-0", "01", "00", "1_0", "\u0661", "\u00b9", "1, 2", "None"):
        with pytest.raises(ParseError):
            (Z2xZ4 if "," in bad else Z12).parse_element(bad)


def test_codes_round_trip():
    for g in (Z2, Z3, Z2xZ4, TRIVIAL, Group((3, 2, 2))):
        for i, x in enumerate(g.elements()):
            assert g.encode(x) == i
            assert g.decode(i) == x


def ordered_moduli(limit):
    """Every tuple of moduli >= 2 whose product is at most limit, () included."""
    yield ()
    for m in range(2, limit + 1):
        for rest in ordered_moduli(limit // m):
            yield (m,) + rest


def packed_code_tables(g):
    """The add, neg and sub tables of codes, from Packing: every pair of codes
    (x, y), x slowest, packed as two tables and added or subtracted at once."""
    n = g.order
    p = Packing(g, n * n)
    xs, ys = [x for x in range(n) for _ in range(n)], list(range(n)) * n
    px, py = p.pack(xs), p.pack(ys)
    assert p.unpack(px).tolist() == xs and p.unpack(py).tolist() == ys
    add, sub = p.unpack(p.add(px, py)).tolist(), p.unpack(p.sub(px, py)).tolist()
    neg = p.unpack(p.sub(0, py)).tolist()[:n]
    rows = range(0, n * n, n)
    return [add[r:r + n] for r in rows], neg, [sub[r:r + n] for r in rows]


def test_code_tables_match_element_arithmetic():
    for g in (Z3, Z2xZ4):
        add, neg, sub = packed_code_tables(g)
        for cx, x in enumerate(g.elements()):
            assert neg[cx] == g.encode(g.neg(x))
            for cy, y in enumerate(g.elements()):
                assert add[cx][cy] == g.encode(g.add(x, y))
                assert sub[cx][cy] == g.encode(g.sub(x, y))


def test_code_tables_match_the_per_entry_oracle():
    # every factor order and every factor count up to order 32, then three
    # groups of order 64: every pair of elements each
    moduli = [*ordered_moduli(32), (64,), (2, 32), (4, 4, 4)]
    assert len(moduli) == 139 and () in moduli and (2, 2, 2, 2, 2) in moduli
    for ms in moduli:
        g = Group(ms)
        codes = range(g.order)
        oracle = ([[code_add(g, x, y) for y in codes] for x in codes],
                  [code_sub(g, 0, x) for x in codes],
                  [[code_sub(g, x, y) for y in codes] for x in codes])
        assert packed_code_tables(g) == oracle, ms


def assert_packed_arithmetic(g, pairs):
    """Packing's add and sub on all pairs at once, against Group.add and
    Group.sub element by element."""
    xs, ys = [g.encode(x) for x, _ in pairs], [g.encode(y) for _, y in pairs]
    p = Packing(g, len(pairs))
    px, py = p.pack(xs), p.pack(ys)
    assert p.unpack(px).tolist() == xs
    assert p.unpack(p.add(px, py)).tolist() == [g.encode(g.add(x, y)) for x, y in pairs]
    assert p.unpack(p.sub(px, py)).tolist() == [g.encode(g.sub(x, y)) for x, y in pairs]


def test_packed_arithmetic_matches_element_arithmetic():
    import random

    # the ends of every field and random pairs, on each side of each field and
    # cell width: 8 bits hold Z128, 16 bits Z32768, 32 bits Z2**31 and the
    # order-2048 groups of most factors
    rng = random.Random(5)
    for ms in ((64,), (65,), (127,), (128,), (129,), (2048,), (16384,), (16385,),
               (32768,), (32769,), (2**30 - 1,), (2**31,), (2,) * 11, (2,) * 8 + (8,),
               (3,) * 5 + (2,) * 3, (2, 4), (2, 3), (5, 6), (2**15, 2**15)):
        g = Group(ms)
        corners = corner_elements(g)
        randoms = [tuple(rng.randrange(m) for m in ms) for _ in range(200)]
        pairs = [(x, y) for x in corners for y in corners] + list(zip(randoms, randoms[::-1]))
        assert_packed_arithmetic(g, pairs)


def test_packing_over_the_cell_width_is_refused_before_any_cell():
    import tracemalloc

    # one cell holds 32 bits: Z2**31 and (Z2)**16 fit, one bit more does not
    Packing(Group((2**31,)), 2)
    Packing(Group((2,) * 16), 2)
    for ms in ((2**31 + 1,), (2,) * 17, (2**16, 2**16), (10**4000 + 1,)):
        g = Group(ms)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as info:
                Packing(g, MAX_CELLS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bits = sum((m - 1).bit_length() + 1 for m in ms)
        assert bits > PACKED_BITS == 32
        assert str(info.value).endswith(
            f" too large for packed residues: {bits} bits per cell, more than 32")
        # one byte per cell would take MAX_CELLS bytes
        assert peak < 1 << 16


def test_messages_quote_long_numbers_in_excerpt():
    big = Group((10**4000 + 1,))
    tens = "1" + "0" * 39 + "..."
    with pytest.raises(DomainError) as info:
        big.validate((10**5000,))
    assert str(info.value) == f"residue {tens} out of range for modulus {tens}"
    with pytest.raises(DomainError, match=r"^element code -1 out of range for Z10{38}\.\.\.$"):
        big.decode(-1)
    with pytest.raises(ShapeError, match=r"group Z10{38}\.\.\. has 1 factors"):
        big.validate(())
    # an order of 8 001 digits, more than str() converts
    for g in (big, Group((10**4000 + 1,) * 2)):
        with pytest.raises(ResourceError) as info:
            packed_cell(g.moduli)
        bits = sum((m - 1).bit_length() + 1 for m in g.moduli)
        assert str(info.value) == (
            f"group order {tens} too large for packed residues: {bits} bits per cell, more than 32")
    # short texts are quoted whole
    with pytest.raises(DomainError, match=r"^residue 5 out of range for modulus 4$"):
        Z4.validate((5,))
    with pytest.raises(DomainError, match=r"^element code 8 out of range for Z2xZ4$"):
        Z2xZ4.decode(8)
