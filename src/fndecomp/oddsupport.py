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
return it.  The one cache, ``phi_domain``'s, holds the keys of at most 8
(alphabet, arity) pairs.

``analyze`` gives every verdict of ``fndecomp analyze``, read off the
restriction to the essential variables.  It reaches ``calculus`` as an
attribute of its lazy module, so a command that never calls it compiles no
``calculus``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import xor
from typing import Callable, Iterable, Mapping, Sequence

from . import calculus
from .errors import (
    MAX_CELLS,
    ArgumentError,
    CoverageError,
    DomainError,
    ParseError,
    ResourceError,
    excerpt,
    excerpt_int,
)
from .groups import Element, Group, as_int, as_text, at_least, below, parse_decimal
from .minors import (determined_via_symmetry, essential_restriction, is_totally_symmetric,
                     pair_scan_limit, restriction_gap)
from .records import Record
from .tables import FnTable, axis_fold, check_cells

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
@lru_cache(maxsize=8, typed=True)
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


def _check_mask_words(a_size: int, count: int, what: str) -> None:
    """ResourceError when count subset masks over a_size letters, at
    ceil(a_size/64) machine words each, take more than MAX_CELLS words."""
    if count * -(-a_size // 64) > MAX_CELLS:
        raise ResourceError(
            f"{what} over a {excerpt_int(a_size)}-letter alphabet would take more than "
            f"{MAX_CELLS} words"
        )


def _check_key_count(a_size: int, sizes: Iterable[int]) -> int:
    """The number of subsets of the alphabet with the given sizes, counted
    before any subset is built and charged by _check_mask_words."""
    count = 0
    for size in sizes:
        count += comb(a_size, size)
        _check_mask_words(a_size, count, "the keys of a phi map")
    return count


class PhiMap(Record):
    """Map from alphabet subsets to group elements.

    With an arity n the map is keyed exactly on phi_domain(a_size, n) (kind
    "pnprime"); with arity None it is keyed on every subset, with the pairing
    constraint phi(S) == phi(S symdiff {0}) for all S (kind "full").  The
    arity alone tells the two apart, so ``kind`` is read off it, not given.

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
        if arity is not None:
            if set(entries) != set(phi_domain(a_size, arity)):
                raise ArgumentError("pnprime phi map keys do not match phi_domain")
        else:
            # 2**a_size distinct subsets of the alphabet are all of them
            if len(entries) != _check_key_count(a_size, range(a_size + 1)) or not all(
                    map(frozenset(range(a_size)).issuperset, entries)):
                raise ArgumentError("full phi map must cover every subset of the alphabet")
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
    _check_mask_words(a, a**n, f"the odd-support masks of {a}**{n} cells")
    code_of = {subset_mask(S): phi.group.encode(v) for S, v in phi.entries.items()}
    masks = axis_fold([[1 << d for d in range(a)]] * n, xor)
    return FnTable(a, n, phi.group, tuple(map(code_of.__getitem__, masks)))


def extract_phi(f: FnTable) -> PhiMap | None:
    """The phi map witnessing that f is determined by odd support, else None.

    The verdict is determined_via_symmetry (PreconditionError at arity 0);
    phi is then read by _phi_at_representatives.
    """
    return _phi_at_representatives(f) if determined_via_symmetry(f) else None


def _phi_at_representatives(f: FnTable) -> PhiMap:
    """phi(S) = f(representative_tuple(S, n)), one cell per key of
    phi_domain(|A|, n), n >= 1: the phi map of f when f is determined by odd
    support, which is not tested here.  The per-cell masks a rebuild from it
    would take are charged against the budget first, so a table too wide
    for table_from_phi is refused wherever phi is read."""
    a, n = f.a_size, f.arity
    _check_mask_words(a, a**n, f"the odd-support masks of {a}**{n} cells")
    return PhiMap.on_phi_domain(a, n, f.group, lambda S: f.eval(representative_tuple(S, n)))


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
    ess, g = essential_restriction(f)
    a, n, m = f.a_size, f.arity, g.arity
    gap = restriction_gap(g) if m >= 2 else None
    if m == n > pair_scan_limit(a):
        phi = _phi_at_representatives(g) if gap == 2 else None
    else:
        phi = extract_phi(f) if n >= 1 and m in (0, n) else None
    symmetric = phi is not None or (m == n and is_totally_symmetric(g))
    return Analysis(ess, symmetric, gap, phi, calculus.min_decomposition_arity(g))


def is_determined(f: FnTable) -> bool:
    return f.arity >= 1 and determined_via_symmetry(f)


def representative_tuple(S: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonical n-tuple with odd_support equal to S.

    For S = {s1 < ... < sk} nonempty: s1 repeated n-k+1 times, then s2..sk.
    For S empty (n must be even): the all-zero tuple.  n is checked against
    MAX_CELLS, as the cells of a table are, before the tuple is built.
    """
    n = at_least("arity", n, 0)
    if n > MAX_CELLS:
        raise ResourceError(f"a tuple of {excerpt_int(n)} components exceeds the budget of "
                            f"{MAX_CELLS} cells")
    s = sorted(as_int("letter", c) for c in S)
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


# ----------------------------------------------------------------------
# phi map text format
# ----------------------------------------------------------------------


def phi_texts(phi: PhiMap) -> tuple[str, list[tuple[str, str]]]:
    """The text of phi's domain (``pnprime:<n>`` or ``full``) and the
    (subset, element) texts of its entries in key order, as dump_phi writes
    them and load_phi reads them."""
    domain = "full" if phi.arity is None else f"pnprime:{phi.arity}"
    fmt = phi.group.format_element
    return domain, [(format_subset(S), fmt(v)) for S, v in phi.sorted_items()]


def dump_phi(phi: PhiMap) -> str:
    domain, entries = phi_texts(phi)
    lines = [f"phi domain={domain} a={phi.a_size} group={phi.group.to_text()}"]
    lines += [f"{S} -> {v}" for S, v in entries]
    return "\n".join(lines) + "\n"


def load_phi(text: str) -> PhiMap:
    header = None
    entry_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(as_text("phi text", text).splitlines(), start=1):
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
    if arity is None and domain != "full":
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
        return PhiMap(a_size, group, arity, entries)
    except ArgumentError as exc:
        raise ParseError(str(exc)) from None
