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
among them a report that standard output refuses, such as a closed pipe, and
a MemoryError, which prints the one line "precondition failed: out of
memory".

Start-up loads only what a command runs.  This module holds what every
command shares: reading an input and its digest, the report (_emit), the
writer of output files (_write_files), the option table (_COMMANDS), its two
readers and main.  A well-formed command is read by _read_argv, which
imports nothing, so it never imports argparse; --help, abbreviations and
usage errors go through the argparse parser that _build_parser builds from
the same table.  Each subcommand's handler is the
``run`` of a module of its own, ``cli_<command>``, which no other subcommand
compiles.  The library modules are the package's lazy modules, each compiled
at its first attribute access, which comes inside main's error mapping, so an
out-of-memory while a module compiles exits 3 like any other.  ``--help``
compiles none beyond ``errors`` and ``decompose --mode taylor`` none of the
index kernels (``minors``); ROWS in tests/test_console.py pins the set each
command compiles.  The input digest is CPython's built-in SHA-256
(``_sha2``, or ``_sha256`` before Python 3.12), the module hashlib itself
falls back to: hashlib would load OpenSSL (``_hashlib``) for one digest, and
no command does.  The digest module and ``json`` are imported where they are used, so
commands that need neither (``--help``, ``identities`` and ``witness``
without ``--json``) skip them.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
import types
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
    # CPython's built-in SHA-256, which hashlib itself falls back to: hashlib
    # would map OpenSSL (_hashlib), the largest share of a small command's
    # memory, for one digest
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    digest = {"path": path, "sha256": sha256(data).hexdigest()}
    return tables.decode_text(data, path), digest


def _write_files(files) -> None:
    """Write each (path, text) of files whole to a new temporary beside the
    file its path resolves to, symlinks followed, then replace those files
    with the temporaries in order.  ArgumentError "cannot write <path>:
    <reason>", naming the path as given: a path that resolves to a directory
    (an empty path names the working directory) or to a file that is not a
    regular file is refused before any temporary is made, and a failed write
    before any file changes; no temporary is left."""
    targets = [(path, os.path.realpath(path)) for path, _ in files]
    for path, real in targets:
        if os.path.isdir(real):
            raise ArgumentError(f"cannot write {path}: Is a directory")
        if os.path.exists(real) and not os.path.isfile(real):
            raise ArgumentError(f"cannot write {path}: Not a regular file")
    temps: list[str] = []
    names = (f".fndecomp-{os.getpid()}-{i}" for i in itertools.count())
    try:
        for (path, real), (_, text) in zip(targets, files):
            # a name that is taken, say by a command of the same pid killed
            # mid-write, is passed over: only a file created here is touched
            for name in names:
                tmp = os.path.join(os.path.dirname(real), name)
                try:
                    fh = open(tmp, "x", encoding="utf-8")
                except FileExistsError:
                    continue
                break
            with fh:
                temps.append(tmp)
                fh.write(text)
        for (path, real), tmp in zip(targets, temps):
            os.replace(tmp, real)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        # a temporary still there was never moved into place
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


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


# Every subcommand's help, its positional argument (name and help, or None)
# and its options, each (flag, kind, required, help): kind is bool for a
# switch, int, str for text or the tuple of its choices, and the option's dest
# is its flag without the dashes, "-" read as "_", as argparse derives it.
# _build_parser declares them to argparse and _read_argv reads them.
_TABLE = ("table", "function table file")
_COMMON = (("--json", bool, False, "emit a JSON report"),
           ("--meta", bool, False, "attach volatile metadata (timestamps) to the report"))
_COMMANDS = {
    "analyze": ("essential variables, gap, symmetry, determination", _TABLE, ()),
    "decompose": ("additive decompositions of a table", _TABLE, (
        ("--mode", ("taylor", "odd", "even", "fitilde"), True, None),
        ("--k", int, False, "target essential arity for --mode taylor"),
        ("--out", str, False, "write the recovered phi map to this file"))),
    "classify": ("explicit gap classification of a table", _TABLE, (
        ("--target", ("boolean", "z3"), True, None),)),
    "identities": ("verify the two binomial identities", None, (
        ("--max-m", int, True, None),)),
    "witness": ("build a non-decomposability witness table", None, (
        ("--kind", ("tightness", "hamming", "large-alphabet"), True, None),
        ("--group", str, True, "codomain group spec, e.g. Z3 or Z2xZ4"),
        ("--b", str, True, "witness element text, e.g. 1 or 1,0"),
        ("--n", int, False, "arity"),
        ("--ell", int, False, "tightness: alphabet is {0..ell}"),
        ("--e", int, False, "tightness: group exponent is 2**e"),
        ("--a-size", int, False, "large-alphabet: alphabet size"),
        ("--out", str, True, "where to write the table file"))),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS: the one source of help text and of
    usage errors, and the reader of every argv that _read_argv declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fndecomp",
        description="Analyze and decompose finite functions valued in finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (summary, positional, options) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=summary)
        if positional:
            p.add_argument(positional[0], help=positional[1])
        for flag, kind, required, text in options + _COMMON:
            how = ({"action": "store_true"} if kind is bool else
                   {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument(flag, required=required, help=text, **how)
    return parser


def _read_argv(argv) -> types.SimpleNamespace | None:
    """The namespace _build_parser().parse_args(argv) returns, read off
    _COMMANDS without argparse; None wherever argparse could answer
    otherwise: an unknown subcommand, a word starting with "-" that is not
    an exact long option of the subcommand (an abbreviation, -h, --, a
    negative number), a repeated option, a switch given a value, a missing
    or empty value or one starting with "-", a value that int() or the
    choices refuse, the wrong number of positionals or a missing required
    option.  argparse then reads argv, and prints the help or usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positional, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options + _COMMON}
    values, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        flag, eq, value = word.partition("=")
        kind = kinds.get(flag)
        if kind is None or flag in values or kind is bool and eq:
            return None
        if kind is bool:
            value = True
        else:
            if not eq:
                value = next(words, "")
            if not value or value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
        values[flag] = value
    names = (positional[0],) if positional else ()
    if len(positionals) != len(names) or any(
            required and flag not in values for flag, _, required, _ in options):
        return None
    return types.SimpleNamespace(
        cmd=argv[0], **dict(zip(names, positionals)),
        **{flag[2:].replace("-", "_"): values.get(flag, False if kind is bool else None)
           for flag, kind in kinds.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
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
    except MemoryError:
        # a constant line: the handler formats nothing while memory is short
        sys.stderr.write("precondition failed: out of memory\n")
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    # the handlers import this module as fndecomp.cli, which run as a script
    # it is not yet: without the alias they would compile a second copy
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    raise SystemExit(main())
