"""``fndecomp decompose``: the Taylor terms of a table, or the phi map of one
of the Boolean decompositions, each checked by its decomposer.

The modes share this handler but not their library modules: it reaches
``calculus``, ``booldecomp`` and ``phitext`` as attributes of their lazy
modules, so ``--mode taylor`` compiles no ``booldecomp``, the phi modes no
``calculus``, and only ``--out`` the phi file format, once the decomposition
is done.
"""

from __future__ import annotations

from . import booldecomp, calculus, groups, phitext
from .cli import _emit, _load_table, _packable, _phi_payload, _write_files
from .errors import ArgumentError


def run(args) -> None:
    taylor = args.mode == "taylor"
    if taylor and args.k is None:
        raise ArgumentError("--mode taylor requires --k")
    if not taylor and args.k is not None:
        raise ArgumentError(f"--k applies to --mode taylor only, not --mode {args.mode}")
    if taylor and args.out is not None:
        raise ArgumentError("--out writes a phi map, which --mode taylor does not produce")
    if not taylor:
        # each decomposer rebuilds f from its phi and raises unless that is exact
        case, decompose = {
            "odd": ("odd", booldecomp.decompose_odd),
            "even": ("even", booldecomp.decompose_even),
            "fitilde": ("uniform", booldecomp.decompose_uniform),
        }[args.mode]

    def header(a_size: int, arity: int, group: groups.Group) -> None:
        # the library's own checks of what the mode needs of the header
        if taylor:
            _packable(a_size, arity, group)
            calculus.check_k(arity, args.k)
        else:
            booldecomp.require_case(case, group, a_size, arity)

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
        # every admissible probe system is the identity: its rank is the
        # number of unknowns, one per phi key
        k = len(phi.entries)
        verdicts["system_rank"] = f"{k}/{k}"
    payload = {"phi": _phi_payload(phi)}
    if args.out is not None:
        _write_files(((args.out, phitext.dump_phi(phi)),))
        payload["phi_file"] = args.out
    _emit(args, [digest], verdicts, payload)
