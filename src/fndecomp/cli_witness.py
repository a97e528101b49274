"""``fndecomp witness``: a verified witness table and its sidecar."""

from __future__ import annotations

import os

from . import groups, packing, tables, witnesses
from .cli import _emit
from .errors import ArgumentError


def run(args) -> None:
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
    packing.packed_cell(group.moduli)
    b = group.parse_element(args.b)
    if args.kind == "tightness":
        bundle = witnesses.tightness_witness(args.ell, args.e, group, b, args.n)
    elif args.kind == "hamming":
        bundle = witnesses.hamming_witness(args.n, group, b)
    else:
        bundle = witnesses.large_alphabet_witness(args.n, args.a_size, group, b)
    sidecar = args.out + ".witness.txt"
    expected = bundle.table.group.format_element(bundle.expected)
    positions, params = sorted(bundle.positions), list(bundle.params)
    files = ((sidecar, f"positions={positions}\nparams={params}\n"
                       f"expected={expected}\nclaimed_k={bundle.claimed_k}\n"),
             (args.out, tables.dump_table(bundle.table)))
    # both files are written whole to new temporaries beside them before
    # either path changes, so a refused or failed witness leaves both as they
    # were; a table path that is a directory is refused before, and a name
    # too long fails at the sidecar's, which is replaced first
    temps: list[str] = []
    try:
        for path, text in files:
            tmp = os.path.join(os.path.dirname(path), f".fndecomp-{os.getpid()}-{len(temps)}")
            with open(tmp, "x", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        if os.path.isdir(args.out):
            raise ArgumentError(f"cannot write {args.out}: Is a directory")
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        # a temporary still there was never moved into place
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
    _emit(args, [],
          {"kind": args.kind, "verified": True, "claimed_k": bundle.claimed_k,
           "expected": expected},
          {"table_file": args.out, "sidecar_file": sidecar, "positions": positions,
           "params": params})

