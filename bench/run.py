"""Benchmark of the fndecomp CLI on planted tables.

    python3 bench/run.py --workload analyze|taylor|phi --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/fndecomp`` of the checkout
that holds this file, run from source. Before any timing, the workload's
inputs are generated from the seed under ``.bench_work/`` together with their
planted answers (gen.py). Then one CLI command at a time runs as its own
process (closed loop, one client) through launch.py, in whole passes over the
workload's fixed command list. Each list is sized so that one pass takes about
PASS_SECONDS on a 2-vCPU machine, and a run makes round(seconds / PASS_SECONDS)
passes, at least one: a pass count fixed by ``--seconds`` keeps the mix of
commands behind the tail percentile the same from run to run. Outputs are
checked against the planted answers (check.py) after timing.

``--trace 0`` prints the end-to-end metrics:
  setup_s         median wall time of ``fndecomp --help`` (interpreter, import,
                  argparse), from several starts in the run
  cmds_per_s      commands completed per second of their summed wall time
  latency_p50_s   median wall time of one command, process start included
  latency_tail_s  highest percentile with at least ten samples beyond it, as
                  the Harrell-Davis estimate: a weighted mean of all order
                  statistics around that rank, so that no single sample on a
                  shared host decides the tail
  peak_rss_mb     largest VmHWM of any command process
  error_rate      printed in the report and carried by ``failed``/``attempted``:
                  a wrong exit code, a wrong verdict or a timeout is a failure

``--trace 1`` alternates untraced and traced passes (tracer.py) and prints the
per-layer metrics, per pass of the command list, plus ``trace.overhead_ratio``
(traced over untraced wall time) and ``trace.accounted_ratio`` (the module
self times summed, over traced wall time minus setup_s).

Known costs at the time the benchmark was defined, cited by metric name:
  * ``classify --target boolean`` applies all m! permutations to the parity
    table (``tables.simple_minor.calls``, ``classify.classify_boolean.busy_s``
    on phi): 0.21 s at m=6, 2.9 s at m=7, 44 s at m=8 per command.
  * ``decompose --mode fitilde`` reconstructs the table twice, once inside
    ``decompose_uniform`` and once in the CLI
    (``booldecomp.reconstruct.calls_per_cmd`` on phi): 21 s at 3^10.
  * ``min_decomposition_arity`` evaluates derivatives that are zero by
    definition (a parameter equal to the base) before reaching (1,...,1):
    about 3280 of them on a random 3^8 table
    (``calculus.derivative_at_zero.useful_ratio`` on analyze).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check
from gen import WORKLOADS, build_cases

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCH = BENCH / "launch.py"

PASS_SECONDS = 7.5
COMMAND_TIMEOUT_S = 60.0
# no command starts after this many seconds, so a run ends within 180 s even
# when the program under test has become much slower
LAUNCH_DEADLINE_S = 100.0
STARTS_PER_PASS = 4

END_TO_END = [("setup_s", "s"), ("cmds_per_s", "commands/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("peak_rss_mb", "MB")]

BUSY = ["calculus.min_decomposition_arity", "calculus.decomposability_witness",
        "calculus.taylor_terms", "tables.load_table", "tables.arity_gap",
        "tables.is_totally_symmetric", "tables.reduce_to_essential", "oddsupport.extract_phi",
        "oddsupport.table_from_phi", "booldecomp.decompose_odd", "booldecomp.decompose_even",
        "booldecomp.decompose_uniform", "booldecomp.reconstruct_odd",
        "booldecomp.reconstruct_even", "booldecomp.reconstruct_uniform",
        "booldecomp.gf2_solve", "classify.classify_boolean", "classify.z3_classify",
        "classify.z3_build", "identities.odd_sum_rows", "identities.even_sum_rows",
        "witnesses.verify", "cli.main"]
CALLS = ["calculus.derivative_at_zero", "tables.essential_variables",
         "tables.identification_minor", "tables.simple_minor"]
MODULES = ["cli", "tables", "calculus", "oddsupport", "booldecomp", "classify", "identities",
           "witnesses"]
WITNESS_BUILDERS = ["witnesses.tightness_witness", "witnesses.hamming_witness",
                    "witnesses.large_alphabet_witness"]


@dataclass
class Result:
    case: object
    wall: float
    rc: int | None
    out: str
    err: str
    timed_out: bool
    hwm_kb: int | None
    trace: dict | None


class Runner:
    """Starts command processes one at a time and collects what they report."""

    def __init__(self, work):
        self.hwm_path = work / "vmhwm.txt"
        self.trace_path = work / "trace.json"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FNDECOMP_BENCH_")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        FNDECOMP_BENCH_HWM=str(self.hwm_path))

    def run(self, case, argv, traced=False):
        env = self.env
        if traced:
            env = dict(env, FNDECOMP_BENCH_TRACE=str(self.trace_path))
        for path in (self.hwm_path, self.trace_path):
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(LAUNCH), *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            rc, out, err, timed_out = proc.returncode, proc.stdout, proc.stderr, False
        except subprocess.TimeoutExpired as exc:
            rc, out, err, timed_out = None, _text(exc.stdout), _text(exc.stderr), True
        wall = time.perf_counter() - start
        hwm = int(self.hwm_path.read_text()) if self.hwm_path.exists() else None
        trace = json.loads(self.trace_path.read_text()) if traced and self.trace_path.exists() else None
        return Result(case, wall, rc, out, err, timed_out, hwm, trace)


def _text(data):
    return data.decode(errors="replace") if isinstance(data, bytes) else (data or "")


def no_op_start(runner):
    """Wall time of a CLI start that does no work (``fndecomp --help``)."""
    res = runner.run(None, ["--help"])
    if res.rc != 0 or "usage: fndecomp" not in res.out:
        raise SystemExit(f"fndecomp --help failed (exit {res.rc}): {res.err.strip()[-300:]}")
    return res.wall


def run_passes(runner, cases, passes, traced_too, starts_per_pass):
    """Whole passes over the command list; with ``traced_too`` every untraced
    pass is followed by a traced one. Before each pass come ``starts_per_pass``
    no-op CLI starts, so that setup_s samples the whole run.

    Returns (untraced results, traced results, no-op start walls, passes made).
    """
    plain, traced, setup = [], [], []
    no_op_start(runner)  # warm-up: bytecode cache and page cache
    start = time.perf_counter()
    for done in range(passes):
        setup += [no_op_start(runner) for _ in range(starts_per_pass)]
        for trace in ((False, True) if traced_too else (False,)):
            for case in cases:
                if time.perf_counter() - start > LAUNCH_DEADLINE_S:
                    return plain, traced, setup, done
                (traced if trace else plain).append(runner.run(case, case.argv, trace))
    return plain, traced, setup, passes


def tail_percentile(walls):
    """(percentile, Harrell-Davis value, samples beyond it, order statistic at
    its rank) for the highest percentile that has at least ten samples beyond
    it; the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], 0, ordered[-1]
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, harrell_davis(ordered, p / 100), n - rank, ordered[rank - 1]


def harrell_davis(ordered, q):
    """Harrell-Davis estimate of quantile q: the order statistics weighted by
    how much of a Beta(q(n+1), (1-q)(n+1)) density falls on each [i/n, (i+1)/n),
    integrated with the midpoint rule."""
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100 * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(t)
                                            + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(results, setup, lines):
    walls = [r.wall for r in results]
    completed = sum(not r.timed_out for r in results)
    p, tail, beyond, at_rank = tail_percentile(walls)
    peak = max((r for r in results if r.hwm_kb is not None), key=lambda r: r.hwm_kb, default=None)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmds_per_s": completed / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "peak_rss_mb": peak.hwm_kb / 1024 if peak else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} no-op CLI starts",
        "cmds_per_s": f"{completed} completed in {sum(walls):.1f} s",
        "latency_p50_s": f"of {len(walls)} commands",
        "latency_tail_s": f"p{p} of {len(walls)} samples, {beyond} beyond it; "
                          f"the sample at that rank reads {at_rank:.4g} s",
        "peak_rss_mb": f"VmHWM of {peak.case.label}" if peak else "VmHWM unavailable",
    }
    for name, unit in END_TO_END:
        lines.append(f"{name:<16} {metrics[name]:.6g} {unit}  ({notes[name]})")
    return metrics


def per_layer(traced, plain, passes, setup_s, lines):
    """Per-layer metrics per pass of the command list, from the traced results."""
    calls, busy, counters, self_s, caches = {}, {}, {}, {}, {}
    recon_cmds = 0
    for r in traced:
        t = r.trace or {}
        for name, v in t.get("calls", {}).items():
            calls[name] = calls.get(name, 0) + v
        for name, v in t.get("busy", {}).items():
            busy[name] = busy.get(name, 0.0) + v
        for name, v in t.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + v
        for name, v in t.get("self", {}).items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in t.get("caches", {}).items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += v["hits"]
            acc["misses"] += v["misses"]
        recon_cmds += any(n.startswith("booldecomp.reconstruct_") for n in t.get("calls", {}))
    per = max(passes, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics, units = {}, {}

    def put(name, value, unit, present=True):
        metrics[name], units[name] = value, unit
        if not present:
            lines.append(f"{name:<48} absent (not called on this workload)")
        else:
            lines.append(f"{name:<48} {value:.6g} {unit}")

    for name in BUSY:
        put(f"{name}.busy_s", busy.get(name, 0.0) / per, "s", name in calls)
    put("witnesses.build.busy_s", sum(busy.get(n, 0.0) for n in WITNESS_BUILDERS) / per, "s",
        any(n in calls for n in WITNESS_BUILDERS))
    for name in CALLS:
        put(f"{name}.calls", calls.get(name, 0) / per, "count", name in calls)
    for name in ("parse_element", "encode", "decode"):
        key = f"groups.{name}.calls"
        put(key, counters.get(key, 0) / per, "count", key in counters)
    deriv = calls.get("calculus.derivative_at_zero", 0)
    put("calculus.derivative_at_zero.terms",
        counters.get("calculus.derivative_at_zero.terms", 0) / per, "terms", deriv > 0)
    put("calculus.derivative_at_zero.useful_ratio",
        ratio(counters.get("calculus.derivative_at_zero.useful", 0), deriv), "ratio", deriv > 0)
    built = counters.get("calculus.taylor_terms.cells_built", 0)
    put("calculus.taylor_terms.cells_built", built / per, "cells", built > 0)
    put("calculus.taylor_terms.kept_ratio",
        ratio(counters.get("calculus.taylor_terms.cells_kept", 0), built), "ratio", built > 0)
    put("tables.load_table.cells", counters.get("tables.load_table.cells", 0) / per, "cells",
        "tables.load_table" in calls)
    extract = calls.get("oddsupport.extract_phi", 0)
    put("oddsupport.extract_phi.determined_ratio",
        ratio(counters.get("oddsupport.extract_phi.determined", 0), extract), "ratio", extract > 0)
    part = caches.get("oddsupport.partition_cache", {"hits": 0, "misses": 0})
    lookups = part["hits"] + part["misses"]
    put("oddsupport.partition_cache.hit_ratio", ratio(part["hits"], lookups), "ratio", lookups > 0)
    recon = sum(calls.get(f"booldecomp.reconstruct_{m}", 0) for m in ("odd", "even", "uniform"))
    put("booldecomp.reconstruct.calls_per_cmd", ratio(recon, recon_cmds), "calls/cmd", recon > 0)
    put("booldecomp.reconstruct.terms", counters.get("booldecomp.reconstruct.terms", 0) / per,
        "terms", recon > 0)
    put("booldecomp.gf2_solve.rows", counters.get("booldecomp.gf2_solve.rows", 0) / per, "rows",
        "booldecomp.gf2_solve" in calls)
    z3 = caches.get("classify.z3_build_cache", {"misses": 0})["misses"]
    put("classify.z3_tables_built", z3 / per, "count", z3 > 0)
    put("cli.main.self_s", self_s.get("cli", 0.0) / per, "s", "cli.main" in calls)
    for module in MODULES[1:]:
        put(f"{module}.self_s", self_s.get(module, 0.0) / per, "s", module in self_s)

    traced_wall = sum(r.wall for r in traced)
    plain_wall = sum(r.wall for r in plain[:len(traced)])
    put("trace.overhead_ratio", ratio(traced_wall, plain_wall), "ratio")
    accounted = sum(self_s.get(m, 0.0) for m in MODULES)
    put("trace.accounted_ratio", ratio(accounted, traced_wall - setup_s * len(traced)), "ratio")
    shares = sorted(ratio(sum((r.trace or {}).get("self", {}).values()), r.wall - setup_s)
                    for r in traced)
    if shares:
        lines.append(f"per command, module self times / (wall - setup_s): "
                     f"min {shares[0]:.3f}, median {statistics.median(shares):.3f}, "
                     f"max {shares[-1]:.3f}")
    return metrics, units


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None, tiny=False):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fndecomp" / "cli.py").is_file():
        print(f"no fndecomp sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = build_cases(args.workload, args.seed, str(work), tiny)
        runner = Runner(work)
        # a traced pass follows each untraced one, so a pair takes two passes' time
        passes = max(1, round(args.seconds / ((1 + args.trace) * PASS_SECONDS)))
        plain, traced, setup, passes = run_passes(
            runner, cases, passes, args.trace == 1, 3 if tiny else STARTS_PER_PASS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    results = plain + traced
    failures = []
    for r in results:
        reason = check(r.case.expect, r.rc, r.out, r.err, r.timed_out)
        if reason is not None:
            failures.append((r.case.label, reason))
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  git {git_sha()}",
        f"{len(cases)} commands per pass, {passes} passes, {len(results)} attempted, "
        f"{len(failures)} failed",
        f"error_rate       {len(failures) / len(results):.6g} failed/attempted "
        f"({len(failures)}/{len(results)})",
    ]
    lines += [f"FAIL {label}: {reason}" for label, reason in failures[:20]]
    if args.trace == 0:
        metrics = end_to_end(plain, setup, lines)
        units = dict(END_TO_END)
        by_label = {}
        for r in plain:
            by_label.setdefault(r.case.label, []).append(r.wall)
        lines.append("median wall per command:")
        lines += [f"  {statistics.median(w):8.4f} s  {label}" for label, w in by_label.items()]
    else:
        setup_s = statistics.median(setup)
        metrics, units = per_layer(traced, plain, passes, setup_s, lines)
        lines.append(f"setup_s {setup_s:.6g} s (used for trace.accounted_ratio)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
