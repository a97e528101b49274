"""The cost table: interpreter calls and traced bytes per table cell of each
library stage behind a CLI command, two counts that host load does not move.

Each row of COST runs one stage on one table of 2^16 or 3^10 cells and pins
an upper bound, a little above the figure measured when the row was set
(CPython 3.11), on

  * calls per cell: the "call" and "c_call" events of sys.setprofile, the
    Python and C functions that bytecode calls, so a loop over the cells in
    Python costs about one call per cell and a kernel that runs in C almost
    none;
  * bytes per cell: the tracemalloc peak of the stage, whose input is built
    before tracing starts.

A change that moves a stage into C lowers its row's bounds; one that raises
a bound says why in CHANGES.md.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from functools import cache

import pytest

import fndecomp
from fndecomp import FnTable, Group
from fndecomp.booldecomp import decompose_even, decompose_odd, decompose_uniform
from fndecomp.calculus import decompose_via_taylor
from fndecomp.classify import Z3Params, classify_boolean, z3_build, z3_classify
from fndecomp.oddsupport import analyze
from fndecomp.tables import dump_table, load_table

Z2, Z3 = Group((2,)), Group((3,))


@cache
def table(name: str):
    """The input of a COST row: a table, or the text of one for load_table."""
    if name == "parity 2^16":
        return FnTable.from_callable(2, 16, Z2, lambda x: (sum(x) % 2,))
    if name == "random Z3 3^10":
        rng = random.Random(1)
        return FnTable(3, 10, Z3, [rng.randrange(3) for _ in range(3**10)])
    if name == "Z3 gap-2 form 3^10":
        return z3_build(10, Z3Params(1, 2, 1, 1))
    if name == "sum mod 2 3^10":
        # the odd case, n - |A| = 7: the number of 1s, mod 2
        return FnTable.from_callable(3, 10, Z2, lambda x: (sum(x) % 2,))
    return dump_table(table(name.removeprefix("text of ")))


# (stage, input, calls per cell at most, bytes per cell at most), with the
# figure measured when the row was set in the comment
COST = [
    # analyze
    ("load_table", "text of parity 2^16", 3.6, 26.0),  # 3.502, 24.68
    ("analyze", "parity 2^16", 0.02, 12.5),  # 0.008, 11.70
    ("load_table", "text of random Z3 3^10", 3.35, 18.0),  # 3.224, 16.71
    ("analyze", "random Z3 3^10", 0.01, 13.5),  # 0.004, 12.75
    # decompose
    ("decompose_via_taylor", "parity 2^16", 0.05, 155.0),  # 0.039, 147.80
    ("decompose_uniform", "parity 2^16", 2.1, 19.0),  # 2.005, 17.67
    ("decompose_even", "parity 2^16", 2.1, 19.0),  # 2.007, 17.69
    ("decompose_odd", "sum mod 2 3^10", 1.6, 17.5),  # 1.507, 16.55
    # classify
    ("classify_boolean", "parity 2^16", 2.1, 19.0),  # 2.007, 17.67
    ("z3_classify", "Z3 gap-2 form 3^10", 1.6, 17.5),  # 1.509, 16.53
]
STAGES = {
    "load_table": load_table,
    "analyze": analyze,
    "decompose_via_taylor": lambda f: decompose_via_taylor(f, 1),
    "decompose_uniform": decompose_uniform,
    "decompose_even": decompose_even,
    "decompose_odd": decompose_odd,
    "classify_boolean": classify_boolean,
    "z3_classify": z3_classify,
}


def per_cell_cost(stage, arg, cells: int) -> tuple[float, float]:
    """Calls and peak traced bytes of stage(arg), each per cell."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        stage(arg)
    finally:
        sys.setprofile(None)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        stage(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return calls / cells, peak / cells


@pytest.mark.parametrize("stage, name, max_calls, max_bytes", COST,
                         ids=[f"{stage}-{name}" for stage, name, *_ in COST])
def test_cost_per_cell(stage, name, max_calls, max_bytes):
    # every library module is compiled before the count, so that no lazy
    # module's first load is charged to the stage
    for module in fndecomp._EXPORTS:
        vars(getattr(fndecomp, module))
    arg = table(name)
    cells = 2**16 if "2^16" in name else 3**10
    calls, peak = per_cell_cost(STAGES[stage], arg, cells)
    assert calls <= max_calls and peak <= max_bytes, (calls, peak)
