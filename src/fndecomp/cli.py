"""Command-line front door: analyze, decompose, classify, identities, witness.

Reports are deterministic: identical inputs produce byte-identical output
(JSON is key-sorted and carries no timestamps unless --meta is given).
Every printed verdict is re-checked against its certificate first.

Exit codes: 0 all requested checks passed, 2 parse error, 3 precondition or
argument error, 4 internal-consistency failure (a theorem-violation tripwire
that should be unreachable).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import booldecomp, calculus, classify, identities, oddsupport, tables, witnesses
from .errors import (
    ArgumentError,
    CoverageError,
    DomainError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
    ResourceError,
    ShapeError,
)
from .groups import Group

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> tuple[str, dict]:
    """The file's text, decoded strictly as UTF-8, and the digest of the very
    bytes that were decoded."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    digest = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return tables.decode_text(data, path), digest


def _load_table(path: str) -> tuple[tables.FnTable, dict]:
    text, digest = _read_text(path)
    return tables.load_table(text), digest


def _phi_payload(phi: oddsupport.PhiMap) -> dict:
    domain = f"pnprime:{phi.arity}" if phi.kind == oddsupport.PNPRIME else "full"
    return {
        "domain": domain,
        "a": phi.a_size,
        "group": phi.group.to_text(),
        "entries": [
            [oddsupport.format_subset(S), phi.group.format_element(v)]
            for S, v in phi.sorted_items()
        ],
    }


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [f"command: {report['command']}"]
    for inp in report.get("inputs", []):
        lines.append(f"input: {inp['path']} sha256={inp['sha256'][:16]}...")
    for key, val in sorted(report.get("verdicts", {}).items()):
        lines.append(f"{key}: {val}")
    payload = report.get("payload", {})
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
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    if getattr(args, "meta", False):
        report = dict(report)
        report["meta"] = {"unix_time": time.time()}
    print(_render(report, args.json))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    f, digest = _load_table(args.table)
    ess = sorted(tables.essential_variables(f))
    verdicts = {
        "essential_variables": ess,
        "essential_arity": len(ess),
        "totally_symmetric": tables.is_totally_symmetric(f),
    }
    if len(ess) >= 2:
        verdicts["gap"] = tables.arity_gap(f)
    else:
        verdicts["gap"] = None
        verdicts["gap_status"] = "undefined: ess<2"
    payload = {}
    phi = oddsupport.extract_phi(f) if f.arity >= 1 else None
    verdicts["oddsupp_determined"] = phi is not None
    if phi is not None:
        payload["phi"] = _phi_payload(phi)
    verdicts["min_decomposition_arity"] = calculus.min_decomposition_arity(f)
    report = {
        "command": "analyze",
        "inputs": [digest],
        "verdicts": verdicts,
        "payload": payload,
    }
    _emit(report, args)
    return EXIT_OK


def _sum_tables(group, parts):
    add = group.code_add_table
    acc = [0] * len(parts[0].values)
    for part in parts:
        acc = [add[x][y] for x, y in zip(acc, part.values)]
    return tuple(acc)


def _cmd_decompose(args) -> int:
    f, digest = _load_table(args.table)
    payload: dict = {}
    verdicts: dict = {"mode": args.mode}
    if args.mode == "taylor":
        if args.k is None:
            raise ArgumentError("--mode taylor requires --k")
        terms = calculus.decompose_via_taylor(f, args.k)
        if _sum_tables(f.group, [t for _, t in terms]) != f.values:
            raise InternalConsistencyError("taylor summands do not add back to f")
        verdicts["reconstruction"] = "exact"
        verdicts["k"] = args.k
        inventory = [
            {
                "positions": sorted(positions),
                "essential_arity": len(tables.essential_variables(term)),
                "zero": not any(term.values),
            }
            for positions, term in terms
        ]
        payload["summands"] = [json.dumps(e, sort_keys=True) for e in inventory]
    else:
        if args.mode == "fitilde":
            # decompose_uniform raises unless its phi reconstructs f exactly
            phi = booldecomp.decompose_uniform(f)
            rank, unknowns = booldecomp.uniform_system_rank(f.a_size, f.arity)
            verdicts["system_rank"] = f"{rank}/{unknowns}"
        else:
            if args.mode == "odd":
                phi = booldecomp.decompose_odd(f)
                rebuilt = booldecomp.reconstruct_odd(phi)
            else:
                phi = booldecomp.decompose_even(f)
                rebuilt = booldecomp.reconstruct_even(phi, f.arity)
            if rebuilt.values != f.values:
                raise InternalConsistencyError("reconstruction does not reproduce the input")
        verdicts["reconstruction"] = "exact"
        payload["phi"] = _phi_payload(phi)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(oddsupport.dump_phi(phi))
            payload["phi_file"] = args.out
    report = {
        "command": "decompose",
        "inputs": [digest],
        "verdicts": verdicts,
        "payload": payload,
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    f, digest = _load_table(args.table)
    verdicts: dict = {"target": args.target}
    payload: dict = {}
    if args.target == "boolean":
        result = classify.classify_boolean(f)
        if tables.arity_gap(f) != result.gap:
            raise InternalConsistencyError("classification disagrees with direct gap")
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
        if result.params is not None:
            rebuilt = classify.z3_build(f.arity, result.params)
            if rebuilt.values != f.values:
                raise InternalConsistencyError("parameter certificate does not rebuild f")
            verdicts["gap"] = 2
            a, b, c, d = result.params.as_tuple()
            payload["params"] = {"a": a, "b": b, "c": c, "d": d}
        elif result.verdict == "gap1":
            verdicts["gap"] = 1
    report = {
        "command": "classify",
        "inputs": [digest],
        "verdicts": verdicts,
        "payload": payload,
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_identities(args) -> int:
    even_rows = identities.even_sum_rows(args.max_m)
    odd_rows = identities.odd_sum_rows(args.max_m)
    ok = all(r[-1] for r in even_rows) and all(r[-1] for r in odd_rows)
    report = {
        "command": "identities",
        "inputs": [],
        "verdicts": {"max_m": args.max_m, "all_equal": ok},
        "payload": {
            "even_sum_rows": [list(r) for r in even_rows],
            "odd_sum_rows": [list(r) for r in odd_rows],
        },
    }
    _emit(report, args)
    if not ok:
        raise InternalConsistencyError("binomial identity mismatch")
    return EXIT_OK


def _cmd_witness(args) -> int:
    group = Group.from_text(args.group)
    b = group.parse_element(args.b)
    if args.kind == "tightness":
        if args.ell is None or args.e is None or args.n is None:
            raise ArgumentError("--kind tightness requires --ell, --e and --n")
        bundle = witnesses.tightness_witness(args.ell, args.e, group, b, args.n)
    elif args.kind == "hamming":
        if args.n is None:
            raise ArgumentError("--kind hamming requires --n")
        bundle = witnesses.hamming_witness(args.n, group, b)
    else:
        if args.n is None or args.a_size is None:
            raise ArgumentError("--kind large-alphabet requires --n and --a-size")
        bundle = witnesses.large_alphabet_witness(args.n, args.a_size, group, b)
    bundle.verify()
    tables.save_table_file(bundle.table, args.out)
    sidecar = args.out + ".witness.txt"
    fmt = bundle.table.group.format_element
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(f"positions={sorted(bundle.positions)}\n")
        fh.write(f"params={list(bundle.params)}\n")
        fh.write(f"expected={fmt(bundle.expected)}\n")
        fh.write(f"claimed_k={bundle.claimed_k}\n")
    report = {
        "command": "witness",
        "inputs": [],
        "verdicts": {
            "kind": args.kind,
            "verified": True,
            "claimed_k": bundle.claimed_k,
            "expected": fmt(bundle.expected),
        },
        "payload": {
            "table_file": args.out,
            "sidecar_file": sidecar,
            "positions": sorted(bundle.positions),
            "params": list(bundle.params),
        },
    }
    _emit(report, args)
    return EXIT_OK


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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ArgumentError, PreconditionError, DomainError, ShapeError,
            CoverageError, ResourceError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
