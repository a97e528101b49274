"""``fndecomp identities``: both sides of every row of the two binomial
identities; exit 4 unless they agree."""

from __future__ import annotations

from . import identities
from .cli import _emit
from .errors import InternalConsistencyError


def run(args) -> None:
    even_rows = identities.even_sum_rows(args.max_m)
    odd_rows = identities.odd_sum_rows(args.max_m)
    ok = all(r[-1] for r in even_rows) and all(r[-1] for r in odd_rows)
    _emit(args, [], {"max_m": args.max_m, "all_equal": ok},
          {"even_sum_rows": [list(r) for r in even_rows],
           "odd_sum_rows": [list(r) for r in odd_rows]})
    if not ok:
        raise InternalConsistencyError("binomial identity mismatch")
