"""Output checker: compares one CLI result with the answer planted in its input.

``check`` returns None when the command's exit code, verdict fields and
planted payload all match, else a one-line reason. A timeout is a failure.
"""

from __future__ import annotations

import json
import re

from gen import decomposition_value

WITNESS_RE = re.compile(r"derivative on positions \[([\d, ]*)\] with parameters \(([\d, ]*)\)")


def _ints(text):
    return [int(t) for t in text.replace(",", " ").split()]


def _mask(subset_text):
    inner = subset_text.strip()[1:-1]
    return sum(1 << v for v in _ints(inner))


def check(expect, rc, out, err, timed_out):
    if timed_out:
        return "timeout"
    if rc != expect["exit"]:
        return f"exit {rc}, expected {expect['exit']}: {err.strip()[-200:]}"
    if "witness" in expect:
        return _check_witness(expect["witness"], out + "\n" + err)
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not a JSON report"
    verdicts = report.get("verdicts", {})
    payload = report.get("payload", {})
    for key, want in expect.get("verdicts", {}).items():
        if verdicts.get(key) != want:
            return f"verdict {key}={verdicts.get(key)!r}, expected {want!r}"
    for key, want in expect.get("payload", {}).items():
        if payload.get(key) != want:
            return f"payload {key} differs from the planted answer"
    if "payload" in expect and not expect["payload"] and payload:
        return f"unexpected payload keys {sorted(payload)}"
    if "summand_positions" in expect:
        return _check_summands(expect, payload)
    if "fitilde" in expect:
        return _check_fitilde(expect["fitilde"], verdicts, payload)
    if "rows" in expect:
        for key, count in expect["rows"].items():
            rows = payload.get(key, [])
            if len(rows) != count or not all(row[-1] is True for row in rows):
                return f"{key}: {len(rows)} rows, expected {count} all equal"
    return None


def _check_witness(want, text):
    match = WITNESS_RE.search(text)
    if match is None:
        return "refusal names no derivative witness"
    positions, params = _ints(match.group(1)), _ints(match.group(2))
    if positions != want["positions"] or params != want["params"]:
        return f"witness {positions} {params}, expected {want['positions']} {want['params']}"
    return None


def _check_summands(expect, payload):
    summands = [json.loads(s) for s in payload.get("summands", [])]
    if [s["positions"] for s in summands] != expect["summand_positions"]:
        return "summand position sets differ from all sets of size <= k"
    lead = expect["nonzero_summand"]
    for s in summands:
        if s["positions"] == lead and (s["zero"] or s["essential_arity"] != len(lead)):
            return f"planted summand on {lead} is zero or lost a variable"
    return None


def _check_fitilde(want, verdicts, payload):
    if verdicts.get("system_rank", "").split("/")[-1] != str(want["unknowns"]):
        return f"system_rank {verdicts.get('system_rank')!r}, expected {want['unknowns']} unknowns"
    entries = payload.get("phi", {}).get("entries", [])
    psi = {_mask(s): sum(r << i for i, r in enumerate(_ints(e))) for s, e in entries}
    if len(psi) != want["unknowns"]:
        return "returned phi does not cover the phi domain"
    for key, (rep, code) in want["targets"].items():
        try:
            got = decomposition_value(psi, rep, want["sizes"])
        except KeyError:
            return "returned phi misses a support value"
        if got != code:
            return f"returned phi does not re-sum to f at the representative of {key}"
    return None
