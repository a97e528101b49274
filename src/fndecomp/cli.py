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

Start-up loads only what a command runs.  ``hashlib`` and ``json`` are
imported where they are used, so commands that need neither (``--help``,
``identities`` and ``witness`` without ``--json``) skip them.  The library
modules bound below are the package's lazy modules: each is compiled at its
first attribute access, and main loads those of the named subcommand (_RUNS)
before it builds the parser, so ``--help`` compiles none beyond ``errors``
and ``decompose --mode taylor`` none of the index kernels (``minors``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import (booldecomp, calculus, classify, groups, identities, minors, oddsupport, tables,
               witnesses)
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
    at most groups.PACKED_BITS bits, which groups.packed_cell checks."""
    groups.packed_cell(group.moduli)


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
# subcommands
# ----------------------------------------------------------------------


def _cmd_analyze(args) -> None:
    f, digest = _load_table(args.table, _packable)
    r = oddsupport.analyze(f)
    ess = list(r.essential_variables)
    verdicts = {"essential_variables": ess, "essential_arity": len(ess), "gap": r.gap,
                "totally_symmetric": r.totally_symmetric, "oddsupp_determined": r.phi is not None,
                "min_decomposition_arity": r.min_decomposition_arity}
    if r.gap is None:
        verdicts["gap_status"] = "undefined: ess<2"
    _emit(args, [digest], verdicts, {} if r.phi is None else {"phi": _phi_payload(r.phi)})


def _cmd_decompose(args) -> None:
    taylor = args.mode == "taylor"
    if taylor and args.k is None:
        raise ArgumentError("--mode taylor requires --k")
    if not taylor and args.k is not None:
        raise ArgumentError(f"--k applies to --mode taylor only, not --mode {args.mode}")
    if taylor and args.out is not None:
        raise ArgumentError("--out writes a phi map, which --mode taylor does not produce")
    if not taylor:
        # each decomposer rebuilds f from its phi and raises unless that is exact
        regime, decompose = {
            "odd": (booldecomp.odd_case_shift, booldecomp.decompose_odd),
            "even": (booldecomp.even_case_shift, booldecomp.decompose_even),
            "fitilde": (booldecomp.require_uniform_regime, booldecomp.decompose_uniform),
        }[args.mode]

    def header(a_size: int, arity: int, group: groups.Group) -> None:
        # the library's own checks of what the mode needs of the header; the
        # phi modes run them in the library's order
        if taylor:
            _packable(a_size, arity, group)
            calculus.check_k(arity, args.k)
        else:
            booldecomp.require_boolean(group)
            regime(a_size, arity)

    f, digest = _load_table(args.table, header)
    verdicts: dict = {"mode": args.mode, "reconstruction": "exact"}
    if taylor:
        # decompose_via_taylor raises unless its terms add back up to f
        terms = calculus.decompose_via_taylor(f, args.k)
        verdicts["k"] = args.k
        import json

        # a nonzero term on positions I vanishes wherever some x_i = 0 for
        # i in I and reads only x_I, so exactly I is essential
        summands = []
        for positions, term in terms:
            zero = not any(term.values)
            summands.append({"positions": sorted(positions),
                             "essential_arity": 0 if zero else len(positions), "zero": zero})
        _emit(args, [digest], verdicts,
              {"summands": [json.dumps(s, sort_keys=True) for s in summands]})
        return
    phi = decompose(f)
    if args.mode == "fitilde":
        rank, unknowns = booldecomp.uniform_system_rank(f.a_size, f.arity)
        verdicts["system_rank"] = f"{rank}/{unknowns}"
    payload = {"phi": _phi_payload(phi)}
    if args.out:
        _write_text(args.out, oddsupport.dump_phi(phi))
        payload["phi_file"] = args.out
    _emit(args, [digest], verdicts, payload)


def _cmd_classify(args) -> None:
    f, digest = _load_table(args.table, classify.check_boolean_table
                            if args.target == "boolean" else classify.check_z3_table)
    verdicts: dict = {"target": args.target}
    payload: dict = {}
    if args.target == "boolean":
        result = classify.classify_boolean(f)
        verdicts["gap"] = result.gap
        if result.form is not None:
            payload["form"] = {
                "kind": result.form.kind,
                "c": result.form.c,
                **({"m": result.form.m} if result.form.m is not None else {}),
            }
    else:
        result = classify.z3_classify(f)
        verdicts["verdict"] = result.verdict
        if result.verdict != "degenerate":
            verdicts["gap"] = int(result.verdict.removeprefix("gap"))
        if result.params is not None:
            a, b, c, d = result.params.as_tuple()
            payload["params"] = {"a": a, "b": b, "c": c, "d": d}
    _emit(args, [digest], verdicts, payload)


def _cmd_identities(args) -> None:
    even_rows = identities.even_sum_rows(args.max_m)
    odd_rows = identities.odd_sum_rows(args.max_m)
    ok = all(r[-1] for r in even_rows) and all(r[-1] for r in odd_rows)
    _emit(args, [], {"max_m": args.max_m, "all_equal": ok},
          {"even_sum_rows": [list(r) for r in even_rows],
           "odd_sum_rows": [list(r) for r in odd_rows]})
    if not ok:
        raise InternalConsistencyError("binomial identity mismatch")


def _cmd_witness(args) -> None:
    if args.kind == "tightness" and None in (args.ell, args.e, args.n):
        raise ArgumentError("--kind tightness requires --ell, --e and --n")
    if args.kind == "hamming" and args.n is None:
        raise ArgumentError("--kind hamming requires --n")
    if args.kind == "large-alphabet" and None in (args.n, args.a_size):
        raise ArgumentError("--kind large-alphabet requires --n and --a-size")
    group = groups.Group.from_text(args.group)
    # witness packs nothing (verify sums residues factor by factor); the
    # packing cap keeps every table it writes one that analyze and
    # decompose --mode taylor read back
    groups.packed_cell(group.moduli)
    b = group.parse_element(args.b)
    if args.kind == "tightness":
        bundle = witnesses.tightness_witness(args.ell, args.e, group, b, args.n)
    elif args.kind == "hamming":
        bundle = witnesses.hamming_witness(args.n, group, b)
    else:
        bundle = witnesses.large_alphabet_witness(args.n, args.a_size, group, b)
    created = not os.path.lexists(args.out)
    try:
        # append mode creates --out only when it is absent and leaves a file
        # that is there as it was until the sidecar is written
        open(args.out, "ab").close()
    except OSError as exc:
        raise ArgumentError(f"cannot write {args.out}: {exc}") from None
    sidecar = args.out + ".witness.txt"
    expected = bundle.table.group.format_element(bundle.expected)
    positions, params = sorted(bundle.positions), list(bundle.params)
    try:
        _write_text(sidecar, f"positions={positions}\nparams={params}\n"
                             f"expected={expected}\nclaimed_k={bundle.claimed_k}\n")
    except ArgumentError:
        # a refused witness leaves no table; a path that was there before is not ours to remove
        if created:
            os.remove(args.out)
        raise
    _write_text(args.out, tables.dump_table(bundle.table))
    _emit(args, [],
          {"kind": args.kind, "verified": True, "claimed_k": bundle.claimed_k,
           "expected": expected},
          {"table_file": args.out, "sidecar_file": sidecar, "positions": positions,
           "params": params})


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decompose", help="additive decompositions of a table")
    p.add_argument("table", help="function table file")
    p.add_argument("--mode", required=True, choices=["taylor", "odd", "even", "fitilde"])
    p.add_argument("--k", type=int, help="target essential arity for --mode taylor")
    p.add_argument("--out", help="write the recovered phi map to this file")
    common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("classify", help="explicit gap classification of a table")
    p.add_argument("table", help="function table file")
    p.add_argument("--target", required=True, choices=["boolean", "z3"])
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("identities", help="verify the two binomial identities")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    common(p)
    p.set_defaults(fn=_cmd_identities)

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
    p.set_defaults(fn=_cmd_witness)

    return parser


# What each subcommand, and each decompose mode, runs of the library, each
# module after those it imports from this list (a test in tests/test_cli.py
# reads that order off the imports).  The package loads its
# modules lazily; main loads those of every word of argv named here before
# argparse builds the parser (any attribute access loads a module).  A module
# compiled after argparse, hashlib or the input stacks its compile memory on
# top of theirs and raises the command's peak resident set; so does one
# compiled while a module that imports it runs.  argparse still decides what
# runs.
_RUNS = {"analyze": (tables, minors, oddsupport, calculus), "decompose": (tables,),
         "classify": (tables, minors, oddsupport, classify), "identities": (tables, identities),
         "witness": (tables, minors, calculus, oddsupport, witnesses), "taylor": (calculus,),
         "odd": (minors, oddsupport, booldecomp), "even": (minors, oddsupport, booldecomp),
         "fitilde": (minors, oddsupport, booldecomp)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for word in argv:
        for module in _RUNS.get(word, ()):
            vars(module)
    args = _build_parser().parse_args(argv)
    try:
        if args.meta and not args.json:
            raise ArgumentError("--meta requires --json")
        args.fn(args)
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
    raise SystemExit(main())
