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
sum, which is totally symmetric, so only the m = 2 and m = 3 forms are
expanded over variable permutations.  The 81 quadruples build exactly the 81
odd-support-determined tables, and phi on four support keys is a linear
bijective image of (a, b, c, d) that depends only on the parity of n, so a
ternary verdict is ``extract_phi`` followed by one linear inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .errors import ArgumentError, InternalConsistencyError, PreconditionError
from .groups import Group
from .oddsupport import PhiMap, extract_phi
from .tables import (
    FnTable,
    essential_variables,
    iter_tuples,
    reduce_to_essential,
    simple_minor,
)

Z2 = Group((2,))
Z3 = Group((3,))


# ----------------------------------------------------------------------
# Boolean classification
# ----------------------------------------------------------------------

PARITY_SUM = "parity_sum"
PRODUCT_PLUS_ARG = "product_plus_arg"
MAJORITY = "majority"
MAJORITY_PLUS_PAIR = "majority_plus_pair"


@dataclass(frozen=True)
class BooleanGapForm:
    kind: str
    c: int
    m: int | None = None  # essential arity, recorded for parity_sum


@dataclass(frozen=True)
class BooleanClassification:
    gap: int
    form: BooleanGapForm | None


def _gf2_table(m: int, poly) -> tuple[int, ...]:
    """Value tuple of a GF(2) polynomial given as a callable on bit tuples."""
    return tuple(poly(x) & 1 for x in iter_tuples(2, m))


def _parity_values(m: int, c: int) -> tuple[int, ...]:
    return tuple(k.bit_count() + c & 1 for k in range(1 << m))


@lru_cache(maxsize=None)
def _gap2_form_index(m: int) -> dict[tuple[int, ...], BooleanGapForm]:
    """All gap-2 canonical tables of essential arity m, up to variable permutation."""
    # parity sums are totally symmetric: each orbit is the table itself
    index = {_parity_values(m, c): BooleanGapForm(PARITY_SUM, c, m) for c in (0, 1)}

    def orbit(values: tuple[int, ...], form: BooleanGapForm) -> None:
        base = FnTable(2, m, Z2, values)
        for perm in permutations(range(m)):
            index.setdefault(simple_minor(base, perm, m).values, form)

    for c in (0, 1):
        if m == 2:
            orbit(_gf2_table(2, lambda x: x[0] * x[1] + x[0] + c),
                  BooleanGapForm(PRODUCT_PLUS_ARG, c))
        if m == 3:
            maj = lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
            orbit(_gf2_table(3, lambda x: maj(x) + c), BooleanGapForm(MAJORITY, c))
            orbit(_gf2_table(3, lambda x: maj(x) + x[0] + x[1] + c),
                  BooleanGapForm(MAJORITY_PLUS_PAIR, c))
    return index


def classify_boolean(f: FnTable) -> BooleanClassification:
    """Gap verdict for a Boolean table with at least two essential variables."""
    if f.a_size != 2 or f.group.moduli != (2,):
        raise ArgumentError("boolean classification needs a {0,1} -> Z2 table")
    g = reduce_to_essential(f)
    if g.arity < 2:
        raise PreconditionError("arity gap undefined: fewer than two essential variables")
    form = _gap2_form_index(g.arity).get(g.values)
    if form is None:
        return BooleanClassification(1, None)
    return BooleanClassification(2, form)


# ----------------------------------------------------------------------
# ternary-domain classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Z3Params:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            if not 0 <= v < 3:
                raise ArgumentError(f"parameter {name}={v} out of range for Z3")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Z3Classification:
    verdict: str  # "gap2" | "gap1" | "degenerate"
    params: Z3Params | None


def _singleton_value(mask: int) -> int:
    if mask not in (1, 2, 4):
        raise InternalConsistencyError(
            f"symmetric-difference fold left a non-singleton mask {mask:#05b}"
        )
    return mask.bit_length() - 1


def z3_build(n: int, params: Z3Params) -> FnTable:
    """Pointwise evaluation of the parameterized gap-2 form on Z3^n."""
    if n < 4:
        raise ArgumentError(f"classification form needs arity >= 4, got {n}")
    a, b, c, d = params.as_tuple()
    p = [(a * u * u + b * u + c) % 3 for u in range(3)]
    pair = [[((u - v) ** 2 * p[(u + v) % 3] + d) % 3 for v in range(3)] for u in range(3)]
    unary = [(p[u] + d) % 3 for u in range(3)]
    use_unary = n % 2 == 1
    base_mask = 1 << d if n % 4 in (0, 3) else 0
    vals = []
    for x in iter_tuples(3, n):
        mask = base_mask
        for i in range(n):
            xi = x[i]
            if use_unary:
                mask ^= 1 << unary[xi]
            row = pair[xi]
            for j in range(i + 1, n):
                mask ^= 1 << row[x[j]]
        vals.append(_singleton_value(mask))
    return FnTable(3, n, Z3, tuple(vals))


def z3_classify(f: FnTable) -> Z3Classification:
    """Gap verdict for an operation Z3^n -> Z3 of arity n >= 4."""
    if f.a_size != 3 or f.group.moduli != (3,):
        raise ArgumentError("ternary classification needs a Z3 -> Z3 table")
    if f.arity < 4:
        raise ArgumentError(f"ternary classification needs arity >= 4, got {f.arity}")
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
