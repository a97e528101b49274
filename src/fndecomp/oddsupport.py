"""Odd-support analysis: which alphabet letters occur an odd number of times.

A function f: A^n -> B is *determined by odd support* when f(x) depends only
on odd_support(x).  Such functions correspond bijectively to maps phi from
the reachable support values into B; ``phi_domain(a_size, n)`` lists those
values (the subsets of the alphabet whose size is n, n-2, n-4, ...).

Whether a table is determined is decided in one place,
``minors.determined_via_symmetry``, on slices of its value tuple;
``extract_phi`` then reads phi at one representative cell per key.  The way
back, ``table_from_phi``, maps the XOR fold of ``1 << x[t]`` (the mask of
odd_support(x)) through the phi codes, so a rebuild checks determination
from the definition without the slice test.  It is the one builder of a
determined table: the Boolean reconstructions and ``classify.z3_build``
return it.  A ``PhiMap`` of either kind checks its keys by count and
containment, with no key built, so a map builds ``phi_domain`` only where
``on_phi_domain`` calls a function per key, and nothing is cached.

``analyze`` gives every verdict of ``fndecomp analyze``, read off the
restriction to the essential variables.  This module reaches ``calculus``
and ``minors`` as attributes of their lazy modules, so a command that never
calls ``analyze`` compiles no ``calculus``, and one that only builds tables
from phi maps (``witness``) no ``minors``.  ``phi_texts`` gives the texts of
a phi map's domain and entries, which the JSON report and the phi file
format (``phitext``) share; the file format itself is not here, so the
commands that write no phi file do not compile it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import combinations
from math import comb
from operator import xor

from . import calculus, minors
from .errors import ArgumentError, CoverageError, DomainError, charge, excerpt_int
from .groups import Element, Group, as_int, at_least, below
from .records import Record
from .tables import FnTable, axis_fold, check_cells, tuple_index

Subset = frozenset[int]


def odd_support(a_size: int, x: Sequence[int]) -> Subset:
    """Letters occurring an odd number of times in x."""
    a_size, mask = at_least("alphabet size", a_size, 2), 0
    where = f"alphabet {excerpt_int(a_size)}"
    for c in x:
        mask ^= 1 << below("component", c, a_size, where)
    return _subset_from_mask(mask)


def subset_mask(S: Iterable[int]) -> int:
    mask = 0
    for v in S:
        mask |= 1 << v
    return mask


def _subset_from_mask(mask: int) -> Subset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def subset_sort_key(S: Subset) -> tuple[int, int]:
    return (len(S), subset_mask(S))


def format_subset(S: Subset) -> str:
    return "{" + ",".join(str(v) for v in sorted(S)) + "}"


def phi_domain(a_size: int, n: int) -> tuple[Subset, ...]:
    """Subsets of the alphabet with size in {n, n-2, ...}, sorted by (size, mask).

    These are exactly the odd-support values reachable from n-tuples, hence
    the key domain a phi map for arity n must cover.
    """
    a_size, sizes, _ = domain_sizes(a_size, n)
    out = [frozenset(S) for size in sizes for S in combinations(range(a_size), size)]
    out.sort(key=subset_sort_key)
    return tuple(out)


def domain_sizes(a_size: int, n: int) -> tuple[int, range, int]:
    """a_size checked, the key sizes of phi_domain(a_size, n) and the number
    of its keys, counted and charged against the budget with no key built."""
    a_size, n = at_least("alphabet size", a_size, 2), at_least("arity", n, 1)
    sizes = range(n % 2, min(a_size, n) + 1, 2)
    return a_size, sizes, _check_key_count(a_size, sizes)


# errors.charge templates of the two mask charges; the last number is a_size
_KEY_SET = "the key set of a phi map over a {}-letter alphabet"
_MASK_LIST = "the list of odd-support masks of {}**{} cells over a {}-letter alphabet"


def _check_mask_words(a_size: int, count: int, what: str, *numbers: int) -> None:
    """Charge count subset masks over a_size letters, at ceil(a_size/64)
    machine words each: errors.charge of what, filled with numbers and
    a_size."""
    charge(count * -(-a_size // 64), "words", what, *numbers, a_size)


def _check_key_count(a_size: int, sizes: Iterable[int]) -> int:
    """The number of subsets of the alphabet with the given sizes, counted
    before any subset is built and charged by _check_mask_words."""
    count = 0
    for size in sizes:
        count += comb(a_size, size)
        _check_mask_words(a_size, count, _KEY_SET)
    return count


class PhiMap(Record):
    """Map from alphabet subsets to group elements.

    With an arity n the map is keyed exactly on phi_domain(a_size, n) (kind
    "pnprime"); with arity None it is keyed on every subset, with the pairing
    constraint phi(S) == phi(S symdiff {0}) for all S (kind "full").  The
    arity alone tells the two apart, so ``kind`` is read off it, not given.
    Either key set is checked without building it: as many distinct keys as
    the domain holds, each a subset of the alphabet of a size it holds.

    The entries are a dict, so a PhiMap compares by value but is unhashable.
    """

    _fields = ("a_size", "group", "arity", "entries")

    def __init__(
        self,
        a_size: int,
        group: Group,
        arity: int | None,
        entries: Mapping[Subset, Element],
    ):
        a_size = at_least("alphabet size", a_size, 2)
        entries = {frozenset(S): group.validate(v) for S, v in entries.items()}
        # a full map is keyed on the subsets of every size; as many distinct
        # keys as the domain holds, each in it, are all of it.  The count is
        # charged, once, before the alphabet is built.
        if arity is None:
            sizes = range(a_size + 1)
            count = _check_key_count(a_size, sizes)
        else:
            _, sizes, count = domain_sizes(a_size, arity)
        letters = frozenset(range(a_size))
        if len(entries) != count or not all(len(S) in sizes and S <= letters for S in entries):
            raise ArgumentError("full phi map must cover every subset of the alphabet"
                                if arity is None else "pnprime phi map keys do not match phi_domain")
        if arity is None:
            for S in entries:
                if entries[S] != entries[S ^ {0}]:
                    raise ArgumentError(
                        f"pairing violated: phi({format_subset(S)}) != "
                        f"phi({format_subset(S ^ {0})})"
                    )
        self.__dict__.update(a_size=a_size, group=group, arity=arity, entries=entries)

    @property
    def kind(self) -> str:
        return "full" if self.arity is None else "pnprime"

    @classmethod
    def on_phi_domain(
        cls,
        a_size: int,
        n: int,
        group: Group,
        assign: Mapping[Subset, Element] | Callable[[Subset], Element],
    ) -> "PhiMap":
        """The pnprime map of arity n whose entries are assign: a Mapping,
        whose keys must be phi_domain(a_size, n) (ArgumentError otherwise),
        or a function called once per key."""
        if isinstance(assign, Mapping):
            return cls(a_size, group, n, assign)
        return cls(a_size, group, n, {S: assign(S) for S in phi_domain(a_size, n)})

    def value(self, S: Iterable[int]) -> Element:
        key = frozenset(S)
        try:
            return self.entries[key]
        except KeyError:
            raise CoverageError(
                f"{format_subset(key)} outside the domain of this {self.kind} phi map"
            ) from None

    def sorted_items(self) -> list[tuple[Subset, Element]]:
        return sorted(self.entries.items(), key=lambda kv: subset_sort_key(kv[0]))


def table_from_phi(phi: PhiMap) -> FnTable:
    """Table of x -> phi(odd_support(x)) on the n-tuples of a pnprime phi map
    of arity n: the XOR fold of 1 << x[t] over t is the mask of
    odd_support(x)."""
    if phi.arity is None:
        raise ArgumentError(f"table_from_phi needs a pnprime phi map, not a {phi.kind} one")
    a, n = phi.a_size, phi.arity
    check_cells(a, n)
    _check_mask_words(a, a**n, _MASK_LIST, a, n)
    code_of = {subset_mask(S): phi.group.encode(v) for S, v in phi.entries.items()}
    masks = axis_fold([[1 << d for d in range(a)]] * n, xor)
    return FnTable(a, n, phi.group, tuple(map(code_of.__getitem__, masks)))


def extract_phi(f: FnTable) -> PhiMap | None:
    """The phi map witnessing that f is determined by odd support, else None.

    The verdict is determined_via_symmetry (PreconditionError at arity 0);
    phi is then read by _phi_at_representatives.
    """
    return _phi_at_representatives(f) if minors.determined_via_symmetry(f) else None


def _phi_at_representatives(f: FnTable) -> PhiMap:
    """phi(S) = f(representative_tuple(S, n)), one cell per key of
    phi_domain(|A|, n), n >= 1: the phi map of f when f is determined by odd
    support, which is not tested here.  The per-cell masks a rebuild from it
    would take are charged against the budget first, so a table too wide
    for table_from_phi is refused wherever phi is read."""
    a, n = f.a_size, f.arity
    _check_mask_words(a, a**n, _MASK_LIST, a, n)
    values, decode = f.values, f.group.decode
    # each representative is a tuple of the alphabet, so its cell is read by
    # index, without FnTable.eval's check of every component
    return PhiMap.on_phi_domain(
        a, n, f.group, lambda S: decode(values[tuple_index(a, representative_tuple(S, n))]))


class Analysis(Record):
    """What ``fndecomp analyze`` reports of a table: its essential positions,
    ascending, whether it is totally symmetric, its arity gap (None below two
    essential variables), its phi map (None unless it is determined by odd
    support) and its minimal decomposition arity."""

    _fields = ("essential_variables", "totally_symmetric", "gap", "phi", "min_decomposition_arity")

    def __init__(self, essential_variables: tuple[int, ...], totally_symmetric: bool,
                 gap: int | None, phi: PhiMap | None, min_decomposition_arity: int):
        self.__dict__.update(zip(self._fields, (essential_variables, totally_symmetric, gap,
                                                phi, min_decomposition_arity)))


def analyze(f: FnTable) -> Analysis:
    """The Analysis of f, read off its restriction g to the essential
    variables (minors.essential_restriction, one pass).

    f is totally symmetric exactly when it has no essential variable, or all
    are essential (g is f) and g is symmetric.  Determination by odd support
    implies symmetry, so phi is extracted in those two cases only, and the
    masks a rebuild from it would take are charged against the budget only
    where it is read.  The gap is minors.restriction_gap of g, which above
    the pair-scan limit is 2 exactly when g is determined: there, with
    every variable essential, phi is read at representative cells when the
    gap is 2, so the slice test runs once.  A derivative at 0 on a set
    holding an inessential position vanishes, so f and g have the same
    minimal decomposition arity, which calculus reads off g's transform.
    """
    ess, g = minors.essential_restriction(f)
    a, n, m = f.a_size, f.arity, g.arity
    gap = minors.restriction_gap(g) if m >= 2 else None
    if m == n > minors.pair_scan_limit(a):
        phi = _phi_at_representatives(g) if gap == 2 else None
    else:
        phi = extract_phi(f) if n >= 1 and m in (0, n) else None
    symmetric = phi is not None or (m == n and minors.is_totally_symmetric(g))
    return Analysis(ess, symmetric, gap, phi, calculus.min_decomposition_arity(g))


def is_determined(f: FnTable) -> bool:
    return f.arity >= 1 and minors.determined_via_symmetry(f)


def representative_tuple(S: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonical n-tuple with odd_support equal to the set S; a letter
    repeated in S counts once, as in PhiMap.value.

    For S = {s1 < ... < sk} nonempty: s1 repeated n-k+1 times, then s2..sk.
    For S empty (n must be even): the all-zero tuple.  n is checked against
    MAX_CELLS, as the cells of a table are, before the tuple is built.
    """
    n = at_least("arity", n, 0)
    charge(n, "cells", "a tuple of {} components", n)
    s = sorted({as_int("letter", c) for c in S})
    if s and s[0] < 0:
        raise DomainError(f"letter {excerpt_int(s[0])} is negative")
    if not s:
        if n % 2:
            raise ArgumentError("empty support needs even arity")
        return (0,) * n
    if len(s) > n:
        raise ArgumentError(f"support of size {len(s)} unreachable at arity {excerpt_int(n)}")
    if (n - len(s)) % 2:
        raise ArgumentError(f"support size {len(s)} has wrong parity for arity {excerpt_int(n)}")
    r = (n - len(s)) // 2
    return (s[0],) * (2 * r + 1) + tuple(s[1:])


def determined_count(a_size: int, n: int, group: Group) -> int:
    """|B| ** |phi_domain|: how many n-ary functions are determined by odd support."""
    return group.order ** domain_sizes(a_size, n)[2]


def phi_texts(phi: PhiMap) -> tuple[str, list[tuple[str, str]]]:
    """The text of phi's domain (``pnprime:<n>`` or ``full``) and the
    (subset, element) texts of its entries in key order, as the CLI reports
    them and phitext.dump_phi writes them."""
    domain = "full" if phi.arity is None else f"pnprime:{phi.arity}"
    fmt = phi.group.format_element
    return domain, [(format_subset(S), fmt(v)) for S, v in phi.sorted_items()]
