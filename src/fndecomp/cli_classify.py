"""``fndecomp classify``: the checked gap verdict of either classifier."""

from __future__ import annotations

from . import classify
from .cli import _emit, _load_table


def run(args) -> None:
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
