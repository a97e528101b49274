"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

    python -m pytest bench/test_smoke.py -q
"""

import json
from pathlib import Path

import pytest

import gen
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny_run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    lines, result = tiny_run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("error_rate ") for line in lines)


def test_wrong_expected_answer_counts_in_error_rate(capsys, monkeypatch):
    built = []

    def with_one_wrong_answer(workload, seed, work, tiny=False):
        cases = gen.build_cases(workload, seed, work, tiny)
        cases[0].expect["verdicts"]["min_decomposition_arity"] += 1
        built.extend(cases)
        return cases

    monkeypatch.setattr(run, "build_cases", with_one_wrong_answer)
    lines, result = tiny_run(capsys, "analyze", 0)
    passes = result["attempted"] // len(built)
    assert passes >= 1 and result["failed"] == passes and not result["correct"]
    assert f"error_rate       {passes / result['attempted']:.6g} failed/attempted" in "\n".join(lines)
