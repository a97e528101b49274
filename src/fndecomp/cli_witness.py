"""``fndecomp witness``: a verified witness table and its sidecar."""

from __future__ import annotations

import os

from . import groups, packing, tables, witnesses
from .cli import _emit, _write_text
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
    created = [path for path in (args.out, sidecar) if not os.path.lexists(path)]
    try:
        # append mode creates --out only when it is absent and leaves a file
        # that is there as it was until the sidecar is written
        open(args.out, "ab").close()
    except OSError as exc:
        raise ArgumentError(f"cannot write {args.out}: {exc}") from None
    expected = bundle.table.group.format_element(bundle.expected)
    positions, params = sorted(bundle.positions), list(bundle.params)
    try:
        # the table's text is built before either file is written, so running
        # out of memory there leaves a sidecar that was there as it was
        text = tables.dump_table(bundle.table)
        _write_text(sidecar, f"positions={positions}\nparams={params}\n"
                             f"expected={expected}\nclaimed_k={bundle.claimed_k}\n")
        _write_text(args.out, text)
    except (ArgumentError, MemoryError):
        # a refused witness leaves neither file behind; a path that was there
        # before is not ours to remove
        for path in created:
            if os.path.lexists(path):
                os.remove(path)
        raise
    _emit(args, [],
          {"kind": args.kind, "verified": True, "claimed_k": bundle.claimed_k,
           "expected": expected},
          {"table_file": args.out, "sidecar_file": sidecar, "positions": positions,
           "params": params})
