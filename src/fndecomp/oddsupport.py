"""Odd-support analysis: which alphabet letters occur an odd number of times.

A function f: A^n -> B is *determined by odd support* when f(x) depends only
on odd_support(x).  Such functions correspond bijectively to maps phi from
the reachable support values into B; ``phi_domain(a_size, n)`` lists those
values (the subsets of the alphabet whose size is n, n-2, n-4, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
)
from .groups import Element, Group, parse_decimal
from .tables import (
    MAX_CELLS,
    FnTable,
    axis_fold,
    check_cells,
    essential_variables,
    identification_minor,
    is_totally_symmetric,
)

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
        raise ParseError(f"bad subset text {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    letters = [parse_decimal(p) for p in inner.split(",")]
    if None in letters:
        raise ParseError(f"bad subset text {text!r}")
    return frozenset(letters)


@lru_cache(maxsize=None)
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


def _check_key_count(a_size: int, sizes: Iterable[int]) -> None:
    """ResourceError when the subsets of the alphabet with the given sizes
    number more than MAX_CELLS; counted before any subset is built."""
    count = 0
    for size in sizes:
        count += comb(a_size, size)
        if count > MAX_CELLS:
            raise ResourceError(
                f"a phi map on a {a_size}-letter alphabet would have more than "
                f"{MAX_CELLS} keys"
            )


@lru_cache(maxsize=8)
def _support_partition(a_size: int, n: int) -> tuple[tuple[int, ...], tuple[Subset, ...]]:
    """Per-index odd-support class id plus the class keys, cached per (a_size, n)."""
    keys = phi_domain(a_size, n)
    key_id = {subset_mask(S): c for c, S in enumerate(keys)}
    masks = axis_fold(a_size, [[1 << d for d in range(a_size)]] * n, xor)
    return tuple(map(key_id.__getitem__, masks)), keys


PNPRIME = "pnprime"
FULL = "full"


@dataclass(frozen=True, eq=True)
class PhiMap:
    """Map from alphabet subsets to group elements.

    kind "pnprime": keyed exactly on phi_domain(a_size, arity).
    kind "full": keyed on every subset, with the pairing constraint
    phi(S) == phi(S symdiff {0}) for all S.
    """

    a_size: int
    group: Group
    kind: str
    arity: int | None
    entries: dict[Subset, Element]

    def __post_init__(self):
        entries = {frozenset(S): self.group.validate(v) for S, v in self.entries.items()}
        object.__setattr__(self, "entries", entries)
        if self.kind == PNPRIME:
            if self.arity is None:
                raise ArgumentError("pnprime phi map needs an arity")
            expected = set(phi_domain(self.a_size, self.arity))
            if set(entries) != expected:
                raise ArgumentError("pnprime phi map keys do not match phi_domain")
        elif self.kind == FULL:
            if self.arity is not None:
                raise ArgumentError("full phi map takes no arity")
            _check_key_count(self.a_size, range(self.a_size + 1))
            all_subsets = {
                frozenset(S)
                for size in range(self.a_size + 1)
                for S in combinations(range(self.a_size), size)
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
            raise ArgumentError(f"unknown phi map kind {self.kind!r}")

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

    @cached_property
    def codes_by_mask(self) -> list[int | None]:
        """Value codes indexed by subset bitmask; None outside the key domain."""
        out: list[int | None] = [None] * (1 << self.a_size)
        for S, v in self.entries.items():
            out[subset_mask(S)] = self.group.encode(v)
        return out


def table_from_phi(phi: PhiMap, n: int | None = None) -> FnTable:
    """Table of x -> phi(odd_support(x)) on n-tuples."""
    if phi.kind == PNPRIME:
        if n is None:
            n = phi.arity
        elif n != phi.arity:
            raise ArgumentError(f"pnprime phi map is for arity {phi.arity}, not {n}")
    elif n is None:
        raise ArgumentError("full phi map needs an explicit arity")
    check_cells(phi.a_size, n)
    class_of, keys = _support_partition(phi.a_size, n)
    codes = []
    for S in keys:
        try:
            codes.append(phi.group.encode(phi.entries[S]))
        except KeyError:
            raise CoverageError(
                f"phi map does not cover support value {format_subset(S)}"
            ) from None
    return FnTable(phi.a_size, n, phi.group, tuple(codes[c] for c in class_of))


def extract_phi(f: FnTable) -> PhiMap | None:
    """The phi map witnessing that f is determined by odd support, else None."""
    if f.arity < 1:
        raise PreconditionError("odd-support determination needs arity >= 1")
    class_of, keys = _support_partition(f.a_size, f.arity)
    rep: list[int | None] = [None] * len(keys)
    for idx, cid in enumerate(class_of):
        v = f.values[idx]
        prev = rep[cid]
        if prev is None:
            rep[cid] = v
        elif prev != v:
            return None
    decode = f.group.decode
    entries = {S: decode(rep[c]) for c, S in enumerate(keys)}
    return PhiMap(f.a_size, f.group, PNPRIME, f.arity, entries)


def is_determined(f: FnTable) -> bool:
    return f.arity >= 1 and extract_phi(f) is not None


def determined_via_symmetry(f: FnTable) -> bool:
    """Detection by structure instead of grouping: totally symmetric, and
    identifying the first two arguments kills all dependence on them."""
    if f.arity < 1:
        raise PreconditionError("odd-support determination needs arity >= 1")
    if f.arity == 1:
        return True
    if not is_totally_symmetric(f):
        return False
    return 0 not in essential_variables(identification_minor(f, 1, 0))


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
        raise ParseError(f"bad alphabet size {fields['a']!r}", line=lineno)
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
        raise ParseError(f"bad phi domain {domain!r}", line=lineno)
    entries: dict[Subset, Element] = {}
    for lineno, line in entry_lines:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError(f"bad phi entry {line!r}", line=lineno)
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
