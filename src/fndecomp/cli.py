"""Command-line front door: analyze, decompose, classify, identities, witness.

Reports are deterministic: identical inputs produce byte-identical output
(JSON is key-sorted and carries no timestamps unless --meta is given).
Each command reads its input, makes one library call and reports the
result.  Four commands print only what the library has checked: each
decomposer adds its Taylor terms back up or rebuilds the table from phi,
both classifiers classify the restriction of the table to its essential
variables and check every verdict (z3_classify's parameters describe that
restriction and rebuild it) and each witness builder verifies the
derivative it claims, all before they return; identities exits 4 unless
both sides of every row are equal.  analyze prints the verdicts of
oddsupport.analyze as computed, all read off the restriction of the table
to its essential variables.

Exit codes: 0 all requested checks passed, 2 ParseError, 4
InternalConsistencyError (a theorem-violation tripwire that should be
unreachable), 3 any other FnDecompError (a precondition or argument error),
among them a report that standard output refuses, such as a closed pipe.

Start-up loads only what a command runs.  This module holds what every
command shares: reading an input and its digest, the report (_emit), the
parser and main.  Each subcommand's handler is the ``run`` of a module of
its own, ``cli_<command>``, which no other subcommand compiles.  The
library modules are the package's lazy modules, each compiled at its first
attribute access.  main loads those of the named subcommand and then its
handler (_RUNS), and only then imports argparse and builds the parser, so
``--help`` compiles none beyond ``errors`` and ``decompose --mode taylor``
none of the index kernels (``minors``).  ``hashlib`` and ``json`` are
imported where they are used, so commands that need neither (``--help``,
``identities`` and ``witness`` without ``--json``) skip them.
"""

from __future__ import annotations

import os
import sys
import time
from importlib import import_module

from . import groups, oddsupport, packing, tables
from .errors import ArgumentError, FnDecompError, InternalConsistencyError, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> tuple[str, dict]:
    """The file's text, decoded strictly as UTF-8, and the digest of the very
    bytes that were decoded."""
    import hashlib

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    digest = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return tables.decode_text(data, path), digest


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc}") from None


def _load_table(path: str, check) -> tuple[tables.FnTable, dict]:
    """The table in the file at path and its digest; check(a_size, arity,
    group) runs once the header is read, before any value is parsed."""
    text, digest = _read_text(path)
    return tables.load_table(text, check), digest


def _packable(a_size: int, arity: int, group: groups.Group) -> None:
    """What the packed group arithmetic needs of a table's header: cells of
    at most packing.PACKED_BITS bits, which packing.packed_cell checks."""
    packing.packed_cell(group.moduli)


def _phi_payload(phi: oddsupport.PhiMap) -> dict:
    domain, entries = oddsupport.phi_texts(phi)
    return {"domain": domain, "a": phi.a_size, "group": phi.group.to_text(), "entries": entries}


def _emit(args, inputs: list, verdicts: dict, payload: dict) -> None:
    """Print the report of command args.cmd: its input digests, verdicts and
    payload, as key-sorted JSON under --json and as lines otherwise."""
    if args.json:
        import json

        report = {"command": args.cmd, "inputs": inputs, "verdicts": verdicts,
                  "payload": payload}
        if args.meta:
            report["meta"] = {"unix_time": time.time()}
        _print(json.dumps(report, indent=2, sort_keys=True))
        return
    lines = [f"command: {args.cmd}"]
    for inp in inputs:
        lines.append(f"input: {inp['path']} sha256={inp['sha256'][:16]}...")
    for key, val in sorted(verdicts.items()):
        lines.append(f"{key}: {val}")
    for key, val in sorted(payload.items()):
        if key == "phi":
            lines.append("phi:")
            for subset, elem in val["entries"]:
                lines.append(f"  {subset} -> {elem}")
        elif key in ("even_sum_rows", "odd_sum_rows"):
            lines.append(f"{key}:")
            for row in val:
                lines.append("  " + " ".join(str(c) for c in row))
        elif isinstance(val, list):
            lines.append(f"{key}:")
            for item in val:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {val}")
    _print("\n".join(lines))


def _print(text: str) -> None:
    """Print text and flush it; ArgumentError when standard output refuses
    it, say a pipe whose reader is gone."""
    try:
        print(text, flush=True)
    except OSError as exc:
        # what is still buffered would fail again at interpreter exit, so
        # standard output goes to the null device from here on
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise ArgumentError(f"cannot write standard output: {exc}") from None


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fndecomp",
        description="Analyze and decompose finite functions valued in finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--meta", action="store_true",
                       help="attach volatile metadata (timestamps) to the report")

    p = sub.add_parser("analyze", help="essential variables, gap, symmetry, determination")
    p.add_argument("table", help="function table file")
    common(p)

    p = sub.add_parser("decompose", help="additive decompositions of a table")
    p.add_argument("table", help="function table file")
    p.add_argument("--mode", required=True, choices=["taylor", "odd", "even", "fitilde"])
    p.add_argument("--k", type=int, help="target essential arity for --mode taylor")
    p.add_argument("--out", help="write the recovered phi map to this file")
    common(p)

    p = sub.add_parser("classify", help="explicit gap classification of a table")
    p.add_argument("table", help="function table file")
    p.add_argument("--target", required=True, choices=["boolean", "z3"])
    common(p)

    p = sub.add_parser("identities", help="verify the two binomial identities")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    common(p)

    p = sub.add_parser("witness", help="build a non-decomposability witness table")
    p.add_argument("--kind", required=True, choices=["tightness", "hamming", "large-alphabet"])
    p.add_argument("--group", required=True, help="codomain group spec, e.g. Z3 or Z2xZ4")
    p.add_argument("--b", required=True, help="witness element text, e.g. 1 or 1,0")
    p.add_argument("--n", type=int, help="arity")
    p.add_argument("--ell", type=int, help="tightness: alphabet is {0..ell}")
    p.add_argument("--e", type=int, help="tightness: group exponent is 2**e")
    p.add_argument("--a-size", type=int, dest="a_size", help="large-alphabet: alphabet size")
    p.add_argument("--out", required=True, help="where to write the table file")
    common(p)

    return parser


# The modules each subcommand, and each decompose mode, runs: the library
# modules, each after those it imports from this list (a test in
# tests/test_cli.py reads that order off the imports), then the subcommand's
# handler, which reaches the modules of a decompose mode as lazy modules and so
# may come before them.  The package loads its library modules lazily; main
# loads the modules of every word of argv named here, or of the value of an
# option written --option=value, before it imports argparse (any attribute
# access loads a module).  A module compiled after argparse,
# hashlib or the input stacks its compile memory on top of theirs and raises
# the command's peak resident set; so does one compiled while a module that
# imports it runs.  argparse still decides what runs.
_RUNS = {"analyze": ("tables", "minors", "oddsupport", "packing", "calculus", "cli_analyze"),
         "decompose": ("tables", "cli_decompose"),
         "classify": ("tables", "minors", "oddsupport", "classify", "cli_classify"),
         "identities": ("tables", "identities", "cli_identities"),
         "witness": ("tables", "minors", "packing", "calculus", "oddsupport", "witnesses",
                     "cli_witness"),
         "taylor": ("packing", "calculus"), "odd": ("minors", "oddsupport", "booldecomp"),
         "even": ("minors", "oddsupport", "booldecomp"),
         "fitilde": ("minors", "oddsupport", "booldecomp")}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for word in argv:
        if word.startswith("--"):
            word = word.partition("=")[2]
        for name in _RUNS.get(word, ()):
            vars(import_module(f"{__package__}.{name}"))
    args = _build_parser().parse_args(argv)
    try:
        if args.meta and not args.json:
            raise ArgumentError("--meta requires --json")
        import_module(f"{__package__}.cli_{args.cmd}").run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FnDecompError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    # the handlers import this module as fndecomp.cli, which run as a script
    # it is not yet: without the alias they would compile a second copy
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    raise SystemExit(main())
