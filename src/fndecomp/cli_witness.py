"""``fndecomp witness``: a verified witness table and its sidecar."""

from __future__ import annotations

from . import groups, packing, tables, witnesses
from .cli import _emit, _write_files
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
    # the sidecar is replaced first, so a name too long fails at the sidecar's
    # before the table changes
    _write_files(files)
    _emit(args, [],
          {"kind": args.kind, "verified": True, "claimed_k": bundle.claimed_k,
           "expected": expected},
          {"table_file": args.out, "sidecar_file": sidecar, "positions": positions,
           "params": params})

