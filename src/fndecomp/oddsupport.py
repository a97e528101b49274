"""Odd-support analysis: which alphabet letters occur an odd number of times.

A function f: A^n -> B is *determined by odd support* when f(x) depends only
on odd_support(x).  Such functions correspond bijectively to maps phi from
the reachable support values into B; ``phi_domain(a_size, n)`` lists those
values (the subsets of the alphabet whose size is n, n-2, n-4, ...).

Whether a table is determined is decided in one place,
``tables.determined_via_symmetry``, on slices of its value tuple;
``extract_phi`` then reads phi at one representative cell per key.  The way
back, ``table_from_phi``, maps the XOR fold of ``1 << x[t]`` (the mask of
odd_support(x)) through the phi codes, so a rebuild checks determination
from the definition without the slice test.  The one cache, ``phi_domain``'s,
holds the keys of at most 8 (alphabet, arity) pairs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import xor
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArgumentError,
    CoverageError,
    DomainError,
    ParseError,
    PreconditionError,
    ResourceError,
    excerpt,
)
from .groups import Element, Group, parse_decimal
from .records import Record
from .tables import MAX_CELLS, FnTable, axis_fold, check_cells, determined_via_symmetry

Subset = frozenset[int]


def odd_support(a_size: int, x: Sequence[int]) -> Subset:
    """Letters occurring an odd number of times in x."""
    mask = 0
    for c in x:
        if not 0 <= c < a_size:
            raise DomainError(f"component {c} out of range for alphabet {a_size}")
        mask ^= 1 << c
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


def parse_subset(text: str) -> Subset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad subset text {excerpt(text)!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    letters = [parse_decimal(p) for p in inner.split(",")]
    if None in letters:
        raise ParseError(f"bad subset text {excerpt(text)!r}")
    return frozenset(letters)


# each entry holds up to MAX_CELLS words of keys; one process uses one (a, n)
@lru_cache(maxsize=8)
def phi_domain(a_size: int, n: int) -> tuple[Subset, ...]:
    """Subsets of the alphabet with size in {n, n-2, ...}, sorted by (size, mask).

    These are exactly the odd-support values reachable from n-tuples, hence
    the key domain a phi map for arity n must cover.
    """
    if a_size < 2:
        raise ArgumentError(f"alphabet size must be >= 2, got {a_size}")
    if n < 1:
        raise ArgumentError(f"arity must be >= 1, got {n}")
    sizes = range(n % 2, min(a_size, n) + 1, 2)
    _check_key_count(a_size, sizes)
    out = [frozenset(S) for size in sizes for S in combinations(range(a_size), size)]
    out.sort(key=subset_sort_key)
    return tuple(out)


def _check_mask_words(a_size: int, count: int, what: str) -> None:
    """ResourceError when count subset masks over a_size letters, at
    ceil(a_size/64) machine words each, take more than MAX_CELLS words."""
    if count * -(-a_size // 64) > MAX_CELLS:
        raise ResourceError(
            f"{what} over a {a_size}-letter alphabet would take more than {MAX_CELLS} words"
        )


def _check_key_count(a_size: int, sizes: Iterable[int]) -> None:
    """_check_mask_words for the subsets of the alphabet with the given sizes,
    counted before any subset is built."""
    count = 0
    for size in sizes:
        count += comb(a_size, size)
        _check_mask_words(a_size, count, "the keys of a phi map")


PNPRIME = "pnprime"
FULL = "full"


class PhiMap(Record):
    """Map from alphabet subsets to group elements.

    kind "pnprime": keyed exactly on phi_domain(a_size, arity).
    kind "full": keyed on every subset, with the pairing constraint
    phi(S) == phi(S symdiff {0}) for all S.

    The entries are a dict, so a PhiMap compares by value but is unhashable.
    """

    _fields = ("a_size", "group", "kind", "arity", "entries")

    def __init__(
        self,
        a_size: int,
        group: Group,
        kind: str,
        arity: int | None,
        entries: Mapping[Subset, Element],
    ):
        if a_size < 2:
            raise ArgumentError(f"alphabet size must be >= 2, got {a_size}")
        entries = {frozenset(S): group.validate(v) for S, v in entries.items()}
        if kind == PNPRIME:
            if arity is None:
                raise ArgumentError("pnprime phi map needs an arity")
            expected = set(phi_domain(a_size, arity))
            if set(entries) != expected:
                raise ArgumentError("pnprime phi map keys do not match phi_domain")
        elif kind == FULL:
            if arity is not None:
                raise ArgumentError("full phi map takes no arity")
            _check_key_count(a_size, range(a_size + 1))
            all_subsets = {
                frozenset(S)
                for size in range(a_size + 1)
                for S in combinations(range(a_size), size)
            }
            if set(entries) != all_subsets:
                raise ArgumentError("full phi map must cover every subset of the alphabet")
            for S in all_subsets:
                if entries[S] != entries[S ^ {0}]:
                    raise ArgumentError(
                        f"pairing violated: phi({format_subset(S)}) != "
                        f"phi({format_subset(S ^ {0})})"
                    )
        else:
            raise ArgumentError(f"unknown phi map kind {kind!r}")
        self.__dict__.update(a_size=a_size, group=group, kind=kind, arity=arity, entries=entries)

    @classmethod
    def on_phi_domain(
        cls,
        a_size: int,
        n: int,
        group: Group,
        assign: Mapping[Subset, Element] | Callable[[Subset], Element],
    ) -> "PhiMap":
        getter = assign.__getitem__ if isinstance(assign, Mapping) else assign
        entries = {S: getter(S) for S in phi_domain(a_size, n)}
        return cls(a_size, group, PNPRIME, n, entries)

    @classmethod
    def full_paired(
        cls, a_size: int, group: Group, entries: Mapping[Subset, Element]
    ) -> "PhiMap":
        return cls(a_size, group, FULL, None, dict(entries))

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


def table_from_phi(phi: PhiMap, n: int | None = None) -> FnTable:
    """Table of x -> phi(odd_support(x)) on n-tuples: the XOR fold of
    1 << x[t] over t is the mask of odd_support(x)."""
    if phi.kind == PNPRIME:
        if n is None:
            n = phi.arity
        elif n != phi.arity:
            raise ArgumentError(f"pnprime phi map is for arity {phi.arity}, not {n}")
    elif n is None:
        raise ArgumentError("full phi map needs an explicit arity")
    a = phi.a_size
    check_cells(a, n)
    _check_mask_words(a, a**n, f"the odd-support masks of {a}**{n} cells")
    code_of = {}
    for S in phi_domain(a, n):
        try:
            code_of[subset_mask(S)] = phi.group.encode(phi.entries[S])
        except KeyError:
            raise CoverageError(
                f"phi map does not cover support value {format_subset(S)}"
            ) from None
    masks = axis_fold(a, [[1 << d for d in range(a)]] * n, xor)
    return FnTable(a, n, phi.group, tuple(map(code_of.__getitem__, masks)))


def extract_phi(f: FnTable) -> PhiMap | None:
    """The phi map witnessing that f is determined by odd support, else None.

    The verdict is determined_via_symmetry; phi(S) is then read at
    representative_tuple(S, n), one cell per key.  The per-cell masks a
    rebuild would take are charged against the budget first, so a table too
    wide for table_from_phi is refused here too.
    """
    if f.arity < 1:
        raise PreconditionError("odd-support determination needs arity >= 1")
    a, n = f.a_size, f.arity
    _check_mask_words(a, a**n, f"the odd-support masks of {a}**{n} cells")
    if not determined_via_symmetry(f):
        return None
    return PhiMap.on_phi_domain(a, n, f.group, lambda S: f.eval(representative_tuple(S, n)))


def is_determined(f: FnTable) -> bool:
    return f.arity >= 1 and extract_phi(f) is not None


def representative_tuple(S: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonical n-tuple with odd_support equal to S.

    For S = {s1 < ... < sk} nonempty: s1 repeated n-k+1 times, then s2..sk.
    For S empty (n must be even): the all-zero tuple.
    """
    s = sorted(S)
    if not s:
        if n % 2:
            raise ArgumentError("empty support needs even arity")
        return (0,) * n
    if len(s) > n:
        raise ArgumentError(f"support of size {len(s)} unreachable at arity {n}")
    if (n - len(s)) % 2:
        raise ArgumentError(f"support size {len(s)} has wrong parity for arity {n}")
    r = (n - len(s)) // 2
    return (s[0],) * (2 * r + 1) + tuple(s[1:])


def determined_count(a_size: int, n: int, group: Group) -> int:
    """|B| ** |phi_domain|: how many n-ary functions are determined by odd support."""
    return group.order ** len(phi_domain(a_size, n))


# ----------------------------------------------------------------------
# phi map text format
# ----------------------------------------------------------------------


def dump_phi(phi: PhiMap) -> str:
    domain = f"pnprime:{phi.arity}" if phi.kind == PNPRIME else "full"
    lines = [f"phi domain={domain} a={phi.a_size} group={phi.group.to_text()}"]
    for S, v in phi.sorted_items():
        lines.append(f"{format_subset(S)} -> {phi.group.format_element(v)}")
    return "\n".join(lines) + "\n"


def load_phi(text: str) -> PhiMap:
    header = None
    entry_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (lineno, line)
        else:
            entry_lines.append((lineno, line))
    if header is None:
        raise ParseError("empty phi file")
    lineno, line = header
    parts = line.split()
    if len(parts) != 4 or parts[0] != "phi":
        raise ParseError("bad phi header (expected 'phi domain=... a=... group=...')", line=lineno)
    fields = {}
    for part in parts[1:]:
        key, _, val = part.partition("=")
        fields[key] = val
    if set(fields) != {"domain", "a", "group"}:
        raise ParseError("bad phi header fields", line=lineno)
    a_size = parse_decimal(fields["a"])
    if a_size is None:
        raise ParseError(f"bad alphabet size {excerpt(fields['a'])!r}", line=lineno)
    try:
        group = Group.from_text(fields["group"])
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None
    domain = fields["domain"]
    head, _, count = domain.partition(":")
    arity = parse_decimal(count) if head == "pnprime" else None
    if domain == "full":
        kind = FULL
    elif arity is not None:
        kind = PNPRIME
    else:
        raise ParseError(f"bad phi domain {excerpt(domain)!r}", line=lineno)
    entries: dict[Subset, Element] = {}
    for lineno, line in entry_lines:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError(f"bad phi entry {excerpt(line)!r}", line=lineno)
        try:
            S = parse_subset(left)
            v = group.parse_element(right)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if S in entries:
            raise ParseError(f"duplicate key {format_subset(S)}", line=lineno)
        entries[S] = v
    try:
        return PhiMap(a_size, group, kind, arity, entries)
    except ArgumentError as exc:
        raise ParseError(str(exc)) from None
