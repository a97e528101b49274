"""The phi file format: ``dump_phi`` writes a phi map as text and ``load_phi``
reads it back, strictly.

The first line that is neither blank nor a ``#`` comment is the header
``phi domain=<pnprime:n|full> a=<alphabet size> group=<group>``, and every
later one an entry ``<subset> -> <element>``, in the texts of
``oddsupport.phi_texts``.  Only ``fndecomp decompose --out`` writes a phi
file, and no command reads one, so the format is a module of its own: the
commands that never write one do not compile it.
"""

from __future__ import annotations

from .errors import ArgumentError, ParseError, excerpt
from .groups import Element, Group, as_text, parse_decimal
from .oddsupport import PhiMap, Subset, format_subset, phi_texts


def parse_subset(text: str) -> Subset:
    """The subset S with format_subset(S) == text.strip(): letters
    ascending, each once, in canonical decimal."""
    text = text.strip()
    inner = text[1:-1]
    letters = [parse_decimal(p) for p in inner.split(",")] if inner else []
    if None in letters or format_subset(frozenset(letters)) != text:
        raise ParseError(f"bad subset text {excerpt(text)!r}")
    return frozenset(letters)


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
