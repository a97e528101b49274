import pytest
from hypothesis import given, strategies as st

from fndecomp import ArgumentError, DomainError, Group, ParseError, ShapeError

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


def test_code_tables_match_element_arithmetic():
    for g in (Z3, Z2xZ4):
        add, neg, sub = g.code_add_table, g.code_neg_table, g.code_sub_table
        for cx, x in enumerate(g.elements()):
            assert neg[cx] == g.encode(g.neg(x))
            for cy, y in enumerate(g.elements()):
                assert add[cx][cy] == g.encode(g.add(x, y))
                assert sub[cx][cy] == g.encode(g.sub(x, y))
