"""Shared test oracles, kept deliberately independent of the library internals.

The essential-variable / gap / determination oracles work straight from the
definitions on explicit tuples, so they cross-check the library's optimized
index arithmetic.  The derivative oracles evaluate each (positions,
parameters) pair through its own alternating subset sum, which is what the
library's one-pass finite-difference transform replaces.  The defining-sum
oracles evaluate the Boolean decomposition sums, the probe rows at the
representative tuples, and the Z3 gap-2 form one position set (or pair of
positions) at a time, at every tuple.  They pin the count-class oracles: a
parity DP over the letters that evaluates a defining sum once per
letter-count class (class_sum, with the size lists of each case), and the Z3
form as a function of the letter counts.  On those, the tests prove class by
class, over every size the cell budget admits, that each defining sum and
the Z3 form is the table of phi through odd support, which the library
builds with table_from_phi (so phi is extract_phi(f)).  The remaining
oracles are the slow enumerations that the library's direct computations
replace: group arithmetic on codes one entry at a time, through decode,
Group.add or Group.sub and encode (code_add, code_sub), and with it the
finite-difference transform and the partial derivative as list kernels that
the packed kernel replaces, the permutation orbit of every Boolean gap-2 form, every phi map
tried against a reconstruction, every subset pair counted one by one, the
arity gap scanned over every pair of essential variables (which the
library reads off odd-support determination above max(|A|, 3)), phi
extracted by one pass over every cell's odd-support class (which the
library reads off slices of the value tuple and one cell per key), the
restriction to the essential coordinates as a general simple_minor (which
the library reads off slices of the value tuple), analyze's verdicts as the
five public calls on the whole table (which the library reads off that
restriction), and the table parser and printer that parse and format every
value on its own.  The exhaustive Boolean tests read one corpus, every table
{0,1}^n -> Z2 for n <= 4 with its essential arity and pair-scan gap, built
once per session (boolean_corpus).  Every child interpreter the tests start
runs through run_python, with the package of this checkout on its path.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from math import comb
from operator import itemgetter, xor
from pathlib import Path
from typing import NamedTuple

from fndecomp import (
    Analysis,
    ArgumentError,
    FnTable,
    Group,
    PhiMap,
    ResourceError,
    arity_gap,
    derivative_at_zero,
    extract_phi,
    is_totally_symmetric,
    min_decomposition_arity,
    phi_domain,
    reconstruct_even,
    reconstruct_odd,
    reconstruct_uniform,
)
from fndecomp.booldecomp import full_map_from_domain_entries
from fndecomp.classify import (
    MAJORITY,
    MAJORITY_PLUS_PAIR,
    PARITY_SUM,
    PRODUCT_PLUS_ARG,
    BooleanGapForm,
    Z3Params,
)
from fndecomp.errors import InternalConsistencyError, ParseError, excerpt
from fndecomp.groups import parse_decimal
from fndecomp.identities import _check_odd_sum_args
from fndecomp.minors import essential_arity, essential_variables, simple_minor
from fndecomp.oddsupport import representative_tuple, subset_mask
from fndecomp.tables import axis_fold, check_cells, iter_tuples


def all_tuples(a_size, n):
    """Tuples in the same order the library indexes tables (pos 0 fastest)."""
    return [t[::-1] for t in product(range(a_size), repeat=n)]


def code_add(group: Group, x: int, y: int) -> int:
    """The code of x + y for codes x and y, through decode, Group.add and encode."""
    return _code_arithmetic(group.moduli, x, y, 1)


def code_sub(group: Group, x: int, y: int) -> int:
    """The code of x - y for codes x and y, through decode, Group.sub and encode."""
    return _code_arithmetic(group.moduli, x, y, -1)


@lru_cache(maxsize=1 << 16)
def _code_arithmetic(moduli, x, y, sign):
    group = Group(moduli)
    op = group.add if sign > 0 else group.sub
    return group.encode(op(group.decode(x), group.decode(y)))


def corner_elements(group: Group) -> list[tuple[int, ...]]:
    """Elements whose residues are all 0, 1, m // 2 or m - 1, one such value
    in every factor or in one factor alone: the ends of every field of a
    packed cell."""
    picks = [group.zero]
    k = len(group.moduli)
    for value in (lambda m: 1, lambda m: m // 2, lambda m: m - 1):
        picks.append(tuple(value(m) for m in group.moduli))
        for t, m in enumerate(group.moduli):
            picks.append(tuple(value(m) if u == t else 0 for u in range(k)))
    return list(dict.fromkeys(picks))


def sum_tables(group: Group, parts) -> tuple[int, ...]:
    """Cellwise sum of the value codes of the tables in parts, one code_add at a time."""
    acc = [0] * len(parts[0].values)
    for part in parts:
        acc = [code_add(group, x, y) for x, y in zip(acc, part.values)]
    return tuple(acc)


def naive_essential_variables(f: FnTable) -> set[int]:
    pts = all_tuples(f.a_size, f.arity)
    ess = set()
    for i in range(f.arity):
        for x in pts:
            vals = {f.eval(x[:i] + (v,) + x[i + 1:]) for v in range(f.a_size)}
            if len(vals) > 1:
                ess.add(i)
                break
    return ess


def naive_identification_values(f: FnTable, i, j):
    return [f.eval(x[:i] + (x[j],) + x[i + 1:]) for x in all_tuples(f.a_size, f.arity)]


def naive_arity_gap(f: FnTable) -> int:
    ess = naive_essential_variables(f)
    assert len(ess) >= 2
    pts = all_tuples(f.a_size, f.arity)
    drops = []
    for i in ess:
        for j in ess:
            if i == j:
                continue
            vals = naive_identification_values(f, i, j)
            lookup = dict(zip(pts, vals))
            minor_ess = 0
            for p in range(f.arity):
                if any(
                    len({lookup[x[:p] + (v,) + x[p + 1:]] for v in range(f.a_size)}) > 1
                    for x in pts
                ):
                    minor_ess += 1
            drops.append(len(ess) - minor_ess)
    return min(drops)


@lru_cache(maxsize=512)
def _identification_getter(a_size, arity, i, j):
    """The cells of f that identification_minor(f, i, j) reads, as a getter:
    the exhaustive loops over tiny tables call the oracle below with the same
    shapes again and again."""
    weights = [a_size**t for t in range(arity)]
    weights[j] += weights[i]
    weights[i] = 0
    return itemgetter(*[sum(c * w for c, w in zip(x, weights))
                        for x in all_tuples(a_size, arity)])


@lru_cache(maxsize=1 << 10)
def _minor_essential_arity(a_size, arity, group, values):
    """essential_arity of the table with these values: a sweep meets the same
    identification minor again and again (410 distinct minors over the
    65 536 Boolean tables of arity 4)."""
    return essential_arity(FnTable(a_size, arity, group, values))


def pair_scan_arity_gap(f: FnTable) -> int:
    """The arity gap by its definition on the library's index kernels: the
    least drop in essential arity over the identification minors of the
    unordered pairs of essential variables, stopping at a drop of 1 (no
    identification drops less)."""
    return _pair_scan(f, sorted(essential_variables(f)))


def _pair_scan(f: FnTable, ess: list[int]) -> int:
    m = len(ess)
    assert m >= 2
    best = m
    for i, j in combinations(ess, 2):
        minor = _identification_getter(f.a_size, f.arity, i, j)(f.values)
        best = min(best, m - _minor_essential_arity(f.a_size, f.arity, f.group, minor))
        if best == 1:
            break
    return best


def minor_restriction(f: FnTable) -> FnTable:
    """f restricted to its essential coordinates the general way: simple_minor
    with the sigma that sends them to 0, 1, ... in order."""
    ess = sorted(essential_variables(f))
    if not ess:
        return FnTable(f.a_size, 0, f.group, f.values[:1])
    sigma = [0] * f.arity
    for t, pos in enumerate(ess):
        sigma[pos] = t
    return simple_minor(f, tuple(sigma), len(ess))


def with_inessential(g: FnTable, kept, n) -> FnTable:
    """The n-ary table f(x) = g(x[kept[0]], x[kept[1]], ...), cell by cell:
    every position outside kept is inessential."""
    return FnTable.from_callable(g.a_size, n, g.group,
                                 lambda x: g.eval(tuple(x[k] for k in kept)))


def five_call_analysis(f: FnTable) -> Analysis:
    """analyze's verdicts from the five public functions, each run on the
    whole table, in the order the CLI once called them."""
    ess = tuple(sorted(essential_variables(f)))
    symmetric = is_totally_symmetric(f)
    gap = arity_gap(f) if len(ess) >= 2 else None
    phi = extract_phi(f) if f.arity >= 1 else None
    return Analysis(ess, symmetric, gap, phi, min_decomposition_arity(f))


def naive_is_totally_symmetric(f: FnTable) -> bool:
    return all(
        f.eval(tuple(x[p] for p in perm)) == f.eval(x)
        for x in all_tuples(f.a_size, f.arity)
        for perm in permutations(range(f.arity))
    )


def class_tables(a_size, n, key):
    """Every table {0..a_size-1}^n -> Z2 that is constant on the classes of
    key(x), one value bit per class, in the order the classes first occur."""
    keys = [key(x) for x in all_tuples(a_size, n)]
    bit_of = {k: b for b, k in enumerate(dict.fromkeys(keys))}
    z2 = Group((2,))
    return [FnTable(a_size, n, z2, tuple(code >> bit_of[k] & 1 for k in keys))
            for code in range(1 << len(bit_of))]


def symmetric_tables(a_size, n):
    """Every totally symmetric table {0..a_size-1}^n -> Z2: one value per
    letter-count class."""
    return class_tables(a_size, n, lambda x: tuple(sorted(x)))


def with_cell_flipped(f: FnTable, idx: int) -> FnTable:
    """f with the lowest bit of the value code at table index idx flipped."""
    vals = list(f.values)
    vals[idx] ^= 1
    return FnTable(f.a_size, f.arity, f.group, vals)


def naive_odd_support(x, a_size):
    return frozenset(a for a in range(a_size) if sum(1 for c in x if c == a) % 2)


def naive_is_determined(f: FnTable) -> bool:
    seen = {}
    for x in all_tuples(f.a_size, f.arity):
        key = naive_odd_support(x, f.a_size)
        v = f.eval(x)
        if seen.setdefault(key, v) != v:
            return False
    return True


def partition_extract_phi(f: FnTable) -> PhiMap | None:
    """extract_phi by one pass over the cells: each cell's odd-support mask
    (the XOR fold of 1 << x[t]) names its phi key, and f is determined when
    every key meets a single value."""
    a, n = f.a_size, f.arity
    keys = phi_domain(a, n)
    key_id = {subset_mask(S): c for c, S in enumerate(keys)}
    masks = axis_fold([[1 << d for d in range(a)]] * n, xor)
    rep: list[int | None] = [None] * len(keys)
    for cid, v in zip(map(key_id.__getitem__, masks), f.values):
        prev = rep[cid]
        if prev is None:
            rep[cid] = v
        elif prev != v:
            return None
    decode = f.group.decode
    return PhiMap(a, f.group, n, {S: decode(rep[c]) for c, S in enumerate(keys)})


def pointwise_hamming_table(n, a_size, group: Group, b) -> FnTable:
    """hamming_extension cell by cell: b where the letter 1 occurs an even
    number of times, 0 elsewhere (on {0,1}^n, b on even Hamming weight)."""
    zero = group.zero
    return FnTable.from_callable(a_size, n, group,
                                 lambda x: zero if x.count(1) % 2 else b)


def pointwise_large_alphabet_table(n, a_size, group: Group, b) -> FnTable:
    """The large_alphabet_witness table cell by cell: b exactly where the
    letters of x are {1, ..., n} as a set."""
    target = frozenset(range(1, n + 1))
    zero = group.zero
    return FnTable.from_callable(a_size, n, group,
                                 lambda x: b if frozenset(x) == target else zero)


def random_table(rng, a_size, n, group: Group) -> FnTable:
    order = group.order
    return FnTable(
        a_size, n, group,
        tuple(rng.randrange(order) for _ in range(a_size**n)),
    )


def random_sum_table(rng, a_size, n, group: Group, r) -> FnTable:
    """Sum of random functions, one of each r positions, so that the minimal
    decomposition arity is at most r."""
    points = list(iter_tuples(a_size, n))
    values = [0] * len(points)
    for J in combinations(range(n), r):
        part = {}
        for idx, x in enumerate(points):
            key = tuple(x[i] for i in J)
            if key not in part:
                part[key] = rng.randrange(group.order)
            values[idx] = code_add(group, values[idx], part[key])
    return FnTable(a_size, n, group, tuple(values))


def random_full_arity_table(rng, a_size, n, group: Group) -> FnTable:
    from fndecomp import essential_variables

    while True:
        f = random_table(rng, a_size, n, group)
        if len(essential_variables(f)) == n:
            return f


def all_phi_assignments(a_size, n, group):
    """Every mapping phi_domain -> group elements, as dicts in a fixed order."""
    from fndecomp import phi_domain

    keys = phi_domain(a_size, n)
    elements = list(group.elements())
    for combo in product(elements, repeat=len(keys)):
        yield dict(zip(keys, combo))


# ----------------------------------------------------------------------
# derivative oracles: one alternating subset sum per derivative value
# ----------------------------------------------------------------------


def higher_derivative_expansion(f: FnTable, vars, params) -> FnTable:
    """Derivative table on the positions vars with parameters params, as the
    alternating sum over subsets of the positions."""
    positions = sorted(set(vars))
    a = f.a_size
    s = len(positions)
    strides = [a**i for i in positions]
    group, vals = f.group, f.values
    out = []
    for k in range(len(vals)):
        acc = 0
        for jmask in range(1 << s):
            idx = k
            for t in range(s):
                if jmask >> t & 1:
                    d = (k // strides[t]) % a
                    idx += (params[positions[t]] - d) * strides[t]
            term = vals[idx]
            if (s - jmask.bit_count()) & 1:
                acc = code_sub(group, acc, term)
            else:
                acc = code_add(group, acc, term)
        out.append(acc)
    return FnTable(a, f.arity, f.group, tuple(out))


def list_partial_derivative(f: FnTable, i, a_val) -> tuple[int, ...]:
    """Values of partial_derivative(f, i, a_val), one code_sub per cell."""
    stride = f.a_size**i
    vals = f.values
    return tuple(code_sub(f.group, vals[idx + (a_val - idx // stride % f.a_size) * stride], v)
                 for idx, v in enumerate(vals))


def list_derivative_coefficients(f: FnTable) -> tuple[int, ...]:
    """The finite-difference transform as a list kernel: the pass over
    coordinate i subtracts, cell by cell, from every x with x_i != 0 the
    entry with x_i = 0, which that pass leaves as it is."""
    a = f.a_size
    c = list(f.values)
    for i in range(f.arity):
        stride = a**i
        for idx in range(len(c)):
            d = idx // stride % a
            if d:
                c[idx] = code_sub(f.group, c[idx], c[idx - d * stride])
    return tuple(c)


def _masks_by_size(n):
    by = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by[mask.bit_count()].append(mask)
    return by


def _mask_positions(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def oracle_witness_at_size(f: FnTable, s):
    """First nonzero derivative on s positions: mask ascending, then
    parameters over the positions in lexicographic order, other params 0."""
    zero = f.group.zero
    n = f.arity
    for mask in _masks_by_size(n)[s]:
        positions = _mask_positions(mask)
        for assign in product(range(f.a_size), repeat=s):
            params = [0] * n
            for t, i in enumerate(positions):
                params[i] = assign[t]
            if derivative_at_zero(f, positions, params) != zero:
                return (frozenset(positions), tuple(params))
    return None


def oracle_top_witness(f: FnTable):
    """(s, witness) for the largest s with a nonzero derivative on s
    positions, searching down from the arity; (0, None) if there is none.
    That s is the min decomposition arity, and the witness is the
    decomposability witness for every k < s."""
    for s in range(f.arity, 0, -1):
        witness = oracle_witness_at_size(f, s)
        if witness is not None:
            return s, witness
    return 0, None


def oracle_taylor_terms(f: FnTable):
    """(positions, term) for every position set, size ascending then mask
    ascending; each term value is its own alternating subset sum."""
    n = f.arity
    a = f.a_size
    group, vals = f.group, f.values
    terms = []
    for s in range(n + 1):
        for mask in _masks_by_size(n)[s]:
            positions = _mask_positions(mask)
            strides = [a**i for i in positions]
            # term value per assignment to the I positions, in little-endian
            # assignment-index order (matching the broadcast below)
            per_assign = []
            for assign in iter_tuples(a, s):
                deltas = [assign[t] * strides[t] for t in range(s)]
                acc = 0
                for jmask in range(1 << s):
                    idx = 0
                    for t in range(s):
                        if jmask >> t & 1:
                            idx += deltas[t]
                    term = vals[idx]
                    if (s - jmask.bit_count()) & 1:
                        acc = code_sub(group, acc, term)
                    else:
                        acc = code_add(group, acc, term)
                per_assign.append(acc)
            # broadcast: each table index reads the entry for its I-digits
            out = []
            for k in range(len(vals)):
                aidx = 0
                for t in range(s - 1, -1, -1):
                    aidx = aidx * a + (k // strides[t]) % a
                out.append(per_assign[aidx])
            terms.append((frozenset(positions), FnTable(a, n, f.group, tuple(out))))
    return terms


# ----------------------------------------------------------------------
# defining-sum oracles: one position set (or pair) at a time
# ----------------------------------------------------------------------


def pointwise_sum_table(phi: PhiMap, n, sizes) -> FnTable:
    """XOR of phi(odd_support(x|_I)) over all I of the listed sizes, summed
    separately at each x (Boolean codes are bitmasks, so addition is XOR)."""
    a = phi.a_size
    codes: list[int | None] = [None] * (1 << a)
    for S, v in phi.entries.items():
        codes[subset_mask(S)] = phi.group.encode(v)
    vals = []
    for x in iter_tuples(a, n):
        acc = 0
        for s in sizes:
            for I in combinations(range(n), s):
                m = 0
                for p in I:
                    m ^= 1 << x[p]
                c = codes[m]
                if c is None:
                    raise InternalConsistencyError(
                        "support value outside phi domain during reconstruction"
                    )
                acc ^= c
        vals.append(acc)
    return FnTable(a, n, phi.group, tuple(vals))


def pointwise_probe_rows(a_size, n, sizes, pairing) -> list[int]:
    """Probe rows built one position set at a time: the row of key S has
    bit c flipped once per I of the listed sizes with odd_support(rep|_I)
    equal to key c (or, with pairing, to key c symdiff {0}), where
    rep = representative_tuple(S, n)."""
    keys = phi_domain(a_size, n)
    col_of = {subset_mask(S): c for c, S in enumerate(keys)}
    rows = []
    for S in keys:
        rep = representative_tuple(S, n)
        row = 0
        for s in sizes:
            for I in combinations(range(n), s):
                m = 0
                for p in I:
                    m ^= 1 << rep[p]
                if m not in col_of:
                    if not pairing:
                        raise InternalConsistencyError("support value escaped the phi domain")
                    m ^= 1
                    if m not in col_of:
                        raise InternalConsistencyError(
                            "support value escaped the phi domain despite pairing"
                        )
                row ^= 1 << col_of[m]
        rows.append(row)
    return rows


def pointwise_z3_build(n, params: Z3Params) -> FnTable:
    """The parameterized Z3 gap-2 form, folded over every pair of positions
    (and every position, for n odd) separately at each x."""
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
            if use_unary:
                mask ^= 1 << unary[x[i]]
            for j in range(i + 1, n):
                mask ^= 1 << pair[x[i]][x[j]]
        assert mask in (1, 2, 4), "the fold left a non-singleton mask"
        vals.append(mask.bit_length() - 1)
    return FnTable(3, n, Group((3,)), tuple(vals))


# ----------------------------------------------------------------------
# count-class oracles: the defining sums and the Z3 form once per class
# ----------------------------------------------------------------------


def first_sum_sizes(n, t) -> list[int]:
    """Sizes n-2i (i in [t+1, n//2]) whose coefficient C(i-1, t) is odd."""
    return [n - 2 * i for i in range(t + 1, n // 2 + 1) if comb(i - 1, t) & 1]


def second_sum_sizes(n, t) -> list[int]:
    """Sizes n-2k+1 (k in [t+1, (n+1)//2]) whose coefficient C(2k-1, 2t) is odd."""
    return [n - 2 * k + 1 for k in range(t + 1, (n + 1) // 2 + 1) if comb(2 * k - 1, 2 * t) & 1]


def uniform_sum_sizes(n) -> list[int]:
    """Sizes n-2i for i in [1, n//2]; every coefficient is 1."""
    return [n - 2 * i for i in range(1, n // 2 + 1)]


def case_shift(case, a_size, n) -> int:
    """t with n - |A| = 2t + 1 > 0 in the odd case and 2t > 0 in the even
    case, from the paper's statement of each regime; ValueError outside it."""
    d = n - a_size
    if d <= 0 or d % 2 != (case == "odd"):
        raise ValueError(f"(|A|, n) = ({a_size}, {n}) is outside the {case} case")
    return d // 2


def sum_sizes(case, a_size, n) -> list[int]:
    """The sizes of the defining sum of case "odd", "even" or "uniform" at
    (a_size, n); the odd and even cases check their regime."""
    if case == "uniform":
        return uniform_sum_sizes(n)
    t = case_shift(case, a_size, n)
    if case == "odd":
        return first_sum_sizes(n, t)
    return first_sum_sizes(n, t) + second_sum_sizes(n, t)


def count_classes(a_size, n):
    """Every letter-count vector of the n-tuples over a_size letters (counts[d]
    is how often letter d occurs), by stars and bars: C(n+a_size-1, a_size-1)."""
    for bars in combinations(range(n + a_size - 1), a_size - 1):
        edges = (-1, *bars, n + a_size - 1)
        yield tuple(edges[d + 1] - edges[d] - 1 for d in range(a_size))


def class_sum(counts, sizes, codes: dict[int, int]) -> int:
    """XOR of codes[odd_support(x|_I)] over all I of the listed sizes, for any
    x whose letter d occurs counts[d] times.

    Taking j of the k positions that hold letter d puts d in the support when
    j is odd, in C(k, j) ways, and C(k, j) is odd iff j & k == j (Lucas).
    polys[mask] holds, as bit s, the parity of the number of sets I of size s
    over the letters done so far whose support is mask.
    """
    polys = {0: 1}
    for d, k in enumerate(counts):
        steps = [(j, (j & 1) << d) for j in range(k + 1) if j & k == j]
        grown: dict[int, int] = {}
        for mask, poly in polys.items():
            for j, bit in steps:
                grown[mask ^ bit] = grown.get(mask ^ bit, 0) ^ poly << j
        polys = grown
    size_bits = sum(1 << s for s in sizes)
    acc = 0
    for mask, poly in polys.items():
        if (poly & size_bits).bit_count() & 1:
            code = codes.get(mask)
            if code is None:
                raise InternalConsistencyError("support value outside the phi domain")
            acc ^= code
    return acc


def class_sum_values(phi: PhiMap, n, sizes) -> tuple[int, ...]:
    """class_sum at the letter counts of every n-tuple, in table-index order,
    with phi's codes: one DP per class, looked up at each tuple."""
    a = phi.a_size
    codes = {subset_mask(S): phi.group.encode(v) for S, v in phi.entries.items()}
    value: dict[tuple[int, ...], int] = {}
    out = []
    for x in iter_tuples(a, n):
        counts = tuple(x.count(d) for d in range(a))
        if counts not in value:
            value[counts] = class_sum(counts, sizes, codes)
        out.append(value[counts])
    return tuple(out)


def z3_class_form(n, params: Z3Params):
    """The parameterized Z3 gap-2 form as a function of the letter counts:
    with k_u copies of letter u, the unary term of u appears k_u times, the
    pair (u, u) C(k_u, 2) times and the pair (u, v) k_u * k_v times, and only
    the parity of each count survives the symmetric-difference fold."""
    a, b, c, d = params.as_tuple()
    p = [(a * u * u + b * u + c) % 3 for u in range(3)]
    pair = [[((u - v) ** 2 * p[(u + v) % 3] + d) % 3 for v in range(3)] for u in range(3)]
    unary = [(p[u] + d) % 3 for u in range(3)]
    use_unary = n % 2 == 1
    base_mask = 1 << d if n % 4 in (0, 3) else 0

    def form(counts) -> int:
        mask = base_mask
        for u, k in enumerate(counts):
            if use_unary and k & 1:
                mask ^= 1 << unary[u]
            if comb(k, 2) & 1:
                mask ^= 1 << pair[u][u]
            for v in range(u + 1, 3):
                if k * counts[v] & 1:
                    mask ^= 1 << pair[u][v]
        assert mask in (1, 2, 4), "the fold left a non-singleton mask"
        return mask.bit_length() - 1

    return form


# ----------------------------------------------------------------------
# enumeration oracles
# ----------------------------------------------------------------------


class BooleanCase(NamedTuple):
    """A table {0,1}^n -> Z2 with its oracle values: its essential arity and,
    at two or more essential variables, pair_scan_arity_gap (else None)."""

    table: FnTable
    essential_arity: int
    gap: int | None


@cache
def boolean_corpus(n: int) -> tuple[BooleanCase, ...]:
    """Every table {0,1}^n -> Z2 for n <= 4, in the order of its code (cell i
    holds bit i of the code), with its oracle values.  Built once per
    session, on first use, so the exhaustive Boolean tests share one sweep of
    the oracle while each of them still runs alone."""
    assert 0 <= n <= 4
    z2, cases = Group((2,)), []
    # product varies its last component fastest, and cell 0 holds the low bit
    for bits in product((0, 1), repeat=1 << n):
        f = FnTable(2, n, z2, bits[::-1])
        ess = sorted(essential_variables(f))
        cases.append(BooleanCase(f, len(ess), _pair_scan(f, ess) if len(ess) >= 2 else None))
    return tuple(cases)


def orbit_form_index(m: int) -> dict[tuple[int, ...], BooleanGapForm]:
    """Every gap-2 canonical table of essential arity m, with all m!
    permutations of its variables applied to it."""
    z2 = Group((2,))
    index: dict[tuple[int, ...], BooleanGapForm] = {}

    def orbit(poly, form: BooleanGapForm) -> None:
        base = FnTable(2, m, z2, tuple(poly(x) & 1 for x in iter_tuples(2, m)))
        for perm in permutations(range(m)):
            index.setdefault(simple_minor(base, perm, m).values, form)

    maj = lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    for c in (0, 1):
        orbit(lambda x: sum(x) + c, BooleanGapForm(PARITY_SUM, c, m))
        if m == 2:
            orbit(lambda x: x[0] * x[1] + x[0] + c, BooleanGapForm(PRODUCT_PLUS_ARG, c))
        if m == 3:
            orbit(lambda x: maj(x) + c, BooleanGapForm(MAJORITY, c))
            orbit(lambda x: maj(x) + x[0] + x[1] + c, BooleanGapForm(MAJORITY_PLUS_PAIR, c))
    return index


def phi_preimages_bruteforce(f: FnTable, mode: str) -> list[PhiMap]:
    """All phi maps whose reconstruction equals f, by exhaustive enumeration."""
    if not f.group.is_boolean():
        raise ValueError(f"codomain {f.group.to_text()} is not Boolean")
    a, n = f.a_size, f.arity
    keys = phi_domain(a, n)
    if f.group.order ** len(keys) > 1 << 16:
        raise ResourceError("phi space too large for brute force")
    if mode == "odd":
        case_shift("odd", a, n)
        rebuild = reconstruct_odd
    elif mode == "even":
        case_shift("even", a, n)
        rebuild = lambda phi: reconstruct_even(phi, n)
    elif mode == "uniform":
        rebuild = reconstruct_uniform
    else:
        raise ArgumentError(f"unknown mode {mode!r}")
    out = []
    for combo in product(list(f.group.elements()), repeat=len(keys)):
        entries = dict(zip(keys, combo))
        if mode == "even":
            phi = full_map_from_domain_entries(a, f.group, entries)
        else:
            phi = PhiMap(a, f.group, n, entries)
        if rebuild(phi).values == f.values:
            out.append(phi)
    return out


FULL_ENUM_MAX_M = 12


def odd_sum_pair_count_full(m: int, t: int) -> int:
    """Count pairs (P, Q), P subset of Q subset of [m], |P| = 2t, |Q| odd,
    enumerating the subsets P explicitly too."""
    _check_odd_sum_args(m, t)
    if m > FULL_ENUM_MAX_M:
        raise ResourceError(f"full pair enumeration capped at m <= {FULL_ENUM_MAX_M}")
    total = 0
    for q in range(1 << m):
        if q.bit_count() & 1 == 0:
            continue
        bits = [i for i in range(m) if q >> i & 1]
        total += sum(1 for _ in combinations(bits, 2 * t))
    return total


# ----------------------------------------------------------------------
# table parser and printer oracles: every value on its own
# ----------------------------------------------------------------------


def pointwise_load_table(text: str) -> FnTable:
    """The table file parser with one Group.parse_element and encode per
    value token, after collecting every line first."""
    headers: list[tuple[int, str]] = []
    value_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(headers) < 3:
            headers.append((lineno, line))
        else:
            value_lines.append((lineno, line))
    if len(headers) < 3:
        raise ParseError("table file needs domain=, arity= and group= header lines")
    fields = {}
    for (lineno, line), key in zip(headers, ("domain", "arity", "group")):
        prefix = key + "="
        if not line.startswith(prefix):
            raise ParseError(f"expected '{key}=...', got {excerpt(line)!r}", line=lineno)
        fields[key] = (lineno, line[len(prefix):].strip())
    for key in ("domain", "arity"):
        lineno, val = fields[key]
        number = parse_decimal(val)
        if number is None:
            raise ParseError(f"bad {key} value {excerpt(val)!r}", line=lineno)
        fields[key] = (lineno, number)
    lineno, spec = fields["group"]
    try:
        group = Group.from_text(spec)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None
    a_size = fields["domain"][1]
    arity = fields["arity"][1]
    if a_size < 2:
        raise ParseError(f"domain size must be >= 2, got {a_size}", line=fields["domain"][0])
    check_cells(a_size, arity)
    expected = a_size**arity
    codes: list[int] = []
    for lineno, line in value_lines:
        for token in line.split():
            if len(codes) >= expected:
                raise ParseError(f"more than {expected} values", line=lineno)
            try:
                codes.append(group.encode(group.parse_element(token)))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if len(codes) != expected:
        raise ParseError(f"expected {expected} values, found {len(codes)}")
    return FnTable(a_size, arity, group, tuple(codes))


def pointwise_dump_table(f: FnTable) -> str:
    """The table file text with one Group.format_element per cell."""
    lines = [f"domain={f.a_size}", f"arity={f.arity}", f"group={f.group.to_text()}"]
    texts = [f.group.format_element(e) for e in f.element_values()]
    chunk = f.a_size ** min(f.arity, 2) if f.arity else 1
    for start in range(0, len(texts), chunk):
        lines.append(" ".join(texts[start:start + chunk]))
    return "\n".join(lines) + "\n"


SRC = Path(__file__).resolve().parent.parent / "src"
# CPython's built-in SHA-256 module, which the CLI digests with where the
# build has it: _sha2 from Python 3.12 on, _sha256 before
BUILT_IN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def run_python(*args, env=None, stdout=subprocess.PIPE, timeout=60, **kwargs):
    """[sys.executable, *args] run to its end in env (os.environ when None),
    with src first on PYTHONPATH, so the child imports the package of this
    checkout.  Its stderr, and stdout unless redirected, are captured as
    text; kwargs go to subprocess.run, cwd among them."""
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, env={**env, "PYTHONPATH": path}, **kwargs)
