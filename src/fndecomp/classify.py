"""Explicit arity-gap classifications.

Boolean tables ({0,1}^n -> Z2) with at least two essential variables have
gap 2 exactly when, after dropping inessential variables, they match one of
four polynomial shapes over GF(2) up to permutation of variables:

    parity_sum          x1 + ... + xm + c          (m >= 2)
    product_plus_arg    x1*x2 + x1 + c             (m == 2)
    majority            x1x2 + x1x3 + x2x3 + c     (m == 3)
    majority_plus_pair  majority + x1 + x2 + c     (m == 3)

Ternary-domain operations (Z3^n -> Z3, n >= 4) have gap 2 exactly when they
arise from a parameter quadruple (a, b, c, d): with p(u) = a*u^2 + b*u + c
evaluated in Z3 and terms combined by symmetric difference on singleton sets
(xor-folding masks over {0,1,2}), the table is

    XOR_{i<j} ((x_i - x_j)^2 p(x_i + x_j) + d)  [XOR_i (p(x_i) + d)]  [XOR d]

where the unary terms appear for n odd and the trailing constant for
n % 4 in {0, 3}.  The fold always lands on a singleton, so values stay in Z3.

Both classifiers read the small object the theorem gives instead of
enumerating tables.  For m >= 4 the only Boolean gap-2 form is the parity
sum, the one Boolean table with m essential variables that is determined by
odd support, so its verdict is ``determined_via_symmetry`` and its constant
c is f(0, ..., 0).  At m = 2 and m = 3 the form is read off the GF(2)
polynomial of the reduced table: a Moebius transform over its at most 8
values gives the coefficients, the number of monomials of each degree names
the form (each such degree profile is one orbit under permuting the
variables), and c is the constant coefficient.  The 81 quadruples build
exactly the 81 odd-support-determined tables, and phi on four support keys is
a linear bijective image of (a, b, c, d) that depends only on the parity of
n, so a ternary verdict is ``extract_phi`` followed by one linear inverse.  The
certificate ``z3_build`` rebuilds the table from the parameters alone; the
form is symmetric in the positions, so it is evaluated once per letter-count
class and broadcast, without ``extract_phi`` or the link.
"""

from __future__ import annotations

from math import comb

from .errors import ArgumentError, InternalConsistencyError, PreconditionError
from .groups import Group
from .oddsupport import PhiMap, extract_phi
from .records import Record
from .tables import (
    FnTable,
    by_letter_counts,
    determined_via_symmetry,
    essential_variables,
    pair_scan_limit,
    reduce_to_essential,
)

Z3 = Group((3,))


# ----------------------------------------------------------------------
# Boolean classification
# ----------------------------------------------------------------------

PARITY_SUM = "parity_sum"
PRODUCT_PLUS_ARG = "product_plus_arg"
MAJORITY = "majority"
MAJORITY_PLUS_PAIR = "majority_plus_pair"


class BooleanGapForm(Record):
    _fields = ("kind", "c", "m")

    def __init__(self, kind: str, c: int, m: int | None = None):
        # m, the essential arity, is recorded for parity_sum only
        self.__dict__.update(kind=kind, c=c, m=m)


class BooleanClassification(Record):
    _fields = ("gap", "form")

    def __init__(self, gap: int, form: BooleanGapForm | None):
        self.__dict__.update(gap=gap, form=form)


# degree profile (monomials of degree 1, ..., m) of each gap-2 polynomial, at
# m = 2 and at m = 3; each profile is one orbit under permuting the variables
_GAP2_PROFILES = {(2, 0): PARITY_SUM, (1, 1): PRODUCT_PLUS_ARG,
                  (3, 0, 0): PARITY_SUM, (0, 3, 0): MAJORITY, (2, 3, 0): MAJORITY_PLUS_PAIR}


def _gap2_form(g: FnTable) -> BooleanGapForm | None:
    """The gap-2 form of a Boolean table of arity 2 or 3, read off the degree
    profile of its GF(2) polynomial, or None."""
    m = g.arity
    # Moebius transform: afterwards coef[I] is the coefficient of prod_{i in I} x_i
    coef = list(g.values)
    for bit in (1 << i for i in range(m)):
        for idx in range(bit, len(coef)):
            if idx & bit:
                coef[idx] ^= coef[idx ^ bit]
    profile = [0] * m
    for idx in range(1, len(coef)):
        profile[idx.bit_count() - 1] += coef[idx]
    kind = _GAP2_PROFILES.get(tuple(profile))
    if kind is None:
        return None
    return BooleanGapForm(kind, coef[0], m if kind == PARITY_SUM else None)


def check_boolean_table(a_size: int, arity: int, group: Group) -> None:
    """What classify_boolean needs of a table's header: {0,1} -> Z2."""
    if a_size != 2 or group.moduli != (2,):
        raise ArgumentError("boolean classification needs a {0,1} -> Z2 table")


def classify_boolean(f: FnTable) -> BooleanClassification:
    """Gap verdict for a Boolean table with at least two essential variables."""
    check_boolean_table(f.a_size, f.arity, f.group)
    g = reduce_to_essential(f)
    if g.arity < 2:
        raise PreconditionError("arity gap undefined: fewer than two essential variables")
    if g.arity <= pair_scan_limit(2):
        form = _gap2_form(g)
    elif determined_via_symmetry(g):
        form = BooleanGapForm(PARITY_SUM, g.values[0], g.arity)
    else:
        form = None
    return BooleanClassification(1 if form is None else 2, form)


# ----------------------------------------------------------------------
# ternary-domain classification
# ----------------------------------------------------------------------


class Z3Params(Record):
    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not 0 <= v < 3:
                raise ArgumentError(f"parameter {name}={v} out of range for Z3")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class Z3Classification(Record):
    _fields = ("verdict", "params")

    def __init__(self, verdict: str, params: Z3Params | None):
        # verdict is "gap2", "gap1" or "degenerate"
        self.__dict__.update(verdict=verdict, params=params)


def _singleton_value(mask: int) -> int:
    if mask not in (1, 2, 4):
        raise InternalConsistencyError(
            f"symmetric-difference fold left a non-singleton mask {mask:#05b}"
        )
    return mask.bit_length() - 1


def z3_build(n: int, params: Z3Params) -> FnTable:
    """The parameterized gap-2 form on Z3^n, evaluated once per letter-count
    class: with k_u copies of letter u, the unary term of u appears k_u times,
    the pair (u, u) C(k_u, 2) times and the pair (u, v) k_u * k_v times, and
    only the parity of each count survives the symmetric-difference fold."""
    if n < 4:
        raise ArgumentError(f"classification form needs arity >= 4, got {n}")
    a, b, c, d = params.as_tuple()
    p = [(a * u * u + b * u + c) % 3 for u in range(3)]
    pair = [[((u - v) ** 2 * p[(u + v) % 3] + d) % 3 for v in range(3)] for u in range(3)]
    unary = [(p[u] + d) % 3 for u in range(3)]
    use_unary = n % 2 == 1
    base_mask = 1 << d if n % 4 in (0, 3) else 0

    def form(counts: list[int]) -> int:
        mask = base_mask
        for u, k in enumerate(counts):
            if use_unary and k & 1:
                mask ^= 1 << unary[u]
            if comb(k, 2) & 1:
                mask ^= 1 << pair[u][u]
            for v in range(u + 1, 3):
                if k * counts[v] & 1:
                    mask ^= 1 << pair[u][v]
        return _singleton_value(mask)

    return FnTable(3, n, Z3, by_letter_counts(3, n, form))


def check_z3_table(a_size: int, arity: int, group: Group) -> None:
    """What z3_classify needs of a table's header: Z3 -> Z3, arity >= 4."""
    if a_size != 3 or group.moduli != (3,):
        raise ArgumentError("ternary classification needs a Z3 -> Z3 table")
    if arity < 4:
        raise ArgumentError(f"ternary classification needs arity >= 4, got {arity}")


def z3_classify(f: FnTable) -> Z3Classification:
    """Gap verdict for an operation Z3^n -> Z3 of arity n >= 4."""
    check_z3_table(f.a_size, f.arity, f.group)
    if len(essential_variables(f)) < 2:
        return Z3Classification("degenerate", None)
    phi = extract_phi(f)
    if phi is None:
        return Z3Classification("gap1", None)
    return Z3Classification("gap2", params_from_phi(phi))


# ----------------------------------------------------------------------
# linear link between parameters and phi values
# ----------------------------------------------------------------------

# phi keys carrying (c+d, a+b+c+d, a+2b+c+d, d), indexed by n % 2
_LINK_KEYS = (
    (frozenset({1, 2}), frozenset({0, 1}), frozenset({0, 2}), frozenset()),
    (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})),
)


def phi_values_for_params(n: int, params: Z3Params) -> dict[frozenset[int], tuple[int]]:
    """phi of z3_build(n, params) on its four support keys, as the linear
    image (c+d, a+b+c+d, a+2b+c+d, d) in Z3 of the parameters."""
    a, b, c, d = params.as_tuple()
    values = ((c + d) % 3, (a + b + c + d) % 3, (a + 2 * b + c + d) % 3, d)
    return {S: (v,) for S, v in zip(_LINK_KEYS[n % 2], values)}


def params_from_phi(phi: PhiMap) -> Z3Params:
    """Invert the link for a phi map on phi_domain(3, n) (determinant 1, so
    exactly one preimage)."""
    u0, u1, u2, u3 = (phi.value(S)[0] for S in _LINK_KEYS[phi.arity % 2])
    return Z3Params(
        (2 * u1 - u0 - u2) % 3,
        (u2 - u1) % 3,
        (u0 - u3) % 3,
        u3,
    )
