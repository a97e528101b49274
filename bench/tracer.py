"""Per-layer trace of one CLI command, taken from outside the library.

``install`` replaces the public functions named below by timing wrappers in
every fndecomp module that holds them (``witnesses.derivative_at_zero`` and
``calculus.derivative_at_zero`` alike), so library code is traced without
being edited. Each call becomes a span (name, parent span, start, end) kept
in memory; ``Tracer.write`` turns the spans into per-name call counts, busy
time (outermost spans of a name only) and per-module self time (a span's
duration minus the part its child spans cover) and writes them with the
work counters and the ``lru_cache`` statistics as one JSON file.

The group element codecs are only counted: one call is below timer
resolution, so their time stays in the caller's self time. Names missing from
the library under test are skipped, and their metrics read as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

from gen import sum_sizes

SPANS = {
    "tables": ["load_table", "essential_variables", "arity_gap", "identification_minor",
               "is_totally_symmetric", "simple_minor", "reduce_to_essential", "save_table_file"],
    "calculus": ["min_decomposition_arity", "decomposability_witness", "derivative_at_zero",
                 "taylor_terms"],
    "oddsupport": ["extract_phi", "table_from_phi"],
    "booldecomp": ["decompose_odd", "decompose_even", "decompose_uniform", "reconstruct_odd",
                   "reconstruct_even", "reconstruct_uniform", "gf2_solve", "uniform_system_rank"],
    "classify": ["classify_boolean", "z3_classify", "z3_build"],
    "identities": ["even_sum_rows", "odd_sum_rows"],
    "witnesses": ["tightness_witness", "hamming_witness", "large_alphabet_witness"],
    "cli": ["main"],
}
METHOD_SPANS = {"witnesses.verify": ("witnesses", "WitnessBundle", "verify")}
COUNTED_METHODS = {f"groups.{m}.calls": ("groups", "Group", m)
                   for m in ("parse_element", "encode", "decode")}
CACHES = {"oddsupport.partition_cache": ("oddsupport", "_support_partition"),
          "classify.z3_build_cache": ("classify", "_z3_build_cached")}


def _cli_k():
    argv = sys.argv
    return int(argv[argv.index("--k") + 1]) if "--k" in argv else -1


def _load_work(counters, args, kwargs, table):
    counters["tables.load_table.cells"] += len(table.values)


def _derivative_work(counters, args, kwargs, value):
    f, positions, params = args[0], set(args[1]), args[2]
    base = kwargs.get("base", args[3] if len(args) > 3 else None) or (0,) * f.arity
    counters["calculus.derivative_at_zero.terms"] += 1 << len(positions)
    counters["calculus.derivative_at_zero.useful"] += all(params[i] != base[i] for i in positions)


def _taylor_work(counters, args, kwargs, terms):
    # the CLI keeps the terms on at most --k positions
    k = _cli_k()
    for positions, term in terms:
        counters["calculus.taylor_terms.cells_built"] += len(term.values)
        if len(positions) <= k:
            counters["calculus.taylor_terms.cells_kept"] += len(term.values)


def _extract_work(counters, args, kwargs, phi):
    counters["oddsupport.extract_phi.determined"] += phi is not None


def _reconstruct_work(mode):
    def hook(counters, args, kwargs, table):
        phi = args[0]
        n = phi.arity if mode != "even" else kwargs.get("n", args[1] if len(args) > 1 else None)
        sizes = sum_sizes(mode, phi.a_size, n)
        counters["booldecomp.reconstruct.terms"] += phi.a_size**n * sum(comb(n, s) for s in sizes)
    return hook


def _solve_work(counters, args, kwargs, solution):
    counters["booldecomp.gf2_solve.rows"] += len(args[0])


HOOKS = {
    "tables.load_table": _load_work,
    "calculus.derivative_at_zero": _derivative_work,
    "calculus.taylor_terms": _taylor_work,
    "oddsupport.extract_phi": _extract_work,
    "booldecomp.reconstruct_odd": _reconstruct_work("odd"),
    "booldecomp.reconstruct_even": _reconstruct_work("even"),
    "booldecomp.reconstruct_uniform": _reconstruct_work("fitilde"),
    "booldecomp.gf2_solve": _solve_work,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, nested in a span of the same name, start, end)
        self.stack = []
        self.active = defaultdict(int)
        self.counters = defaultdict(int)

    def span(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, active = self.spans, self.stack, self.active

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            active[name] += 1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[sid] = (name, parent, nested, start, end)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        importlib.import_module("fndecomp.cli")
        mods = [m for name, m in sys.modules.items()
                if name == "fndecomp" or name.startswith("fndecomp.")]
        for short, attrs in SPANS.items():
            module = sys.modules[f"fndecomp.{short}"]
            for attr in attrs:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                wrapped = self.span(f"{short}.{attr}", orig)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        for name, (short, cls_name, meth) in {**METHOD_SPANS, **COUNTED_METHODS}.items():
            cls = getattr(sys.modules[f"fndecomp.{short}"], cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is not None:
                make = self.span if name in METHOD_SPANS else self.count
                setattr(cls, meth, make(name, orig))

    def summary(self):
        child = [0.0] * len(self.spans)
        for name, parent, nested, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, (name, parent, nested, start, end) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                busy[name] += end - start
            self_s[name.split(".")[0]] += end - start - child[sid]
        caches = {}
        for label, (short, attr) in CACHES.items():
            info = getattr(getattr(sys.modules[f"fndecomp.{short}"], attr, None), "cache_info", None)
            if info is not None:
                stats = info()
                caches[label] = {"hits": stats.hits, "misses": stats.misses}
        return {"calls": calls, "busy": busy, "self": self_s, "counters": self.counters,
                "caches": caches}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
