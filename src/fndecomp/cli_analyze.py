"""``fndecomp analyze``: every verdict of oddsupport.analyze, as computed."""

from __future__ import annotations

from . import oddsupport
from .cli import _emit, _load_table, _packable, _phi_payload


def run(args) -> None:
    f, digest = _load_table(args.table, _packable)
    r = oddsupport.analyze(f)
    ess = list(r.essential_variables)
    verdicts = {"essential_variables": ess, "essential_arity": len(ess), "gap": r.gap,
                "totally_symmetric": r.totally_symmetric, "oddsupp_determined": r.phi is not None,
                "min_decomposition_arity": r.min_decomposition_arity}
    if r.gap is None:
        verdicts["gap_status"] = "undefined: ess<2"
    _emit(args, [digest], verdicts, {} if r.phi is None else {"phi": _phi_payload(r.phi)})
