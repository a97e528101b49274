"""Command process of the benchmark: runs ``python -m fndecomp <args>`` in this
process, then reports this process's own peak resident set.

    python3 bench/launch.py analyze table.tbl --json

``FNDECOMP_BENCH_HWM`` names a file that receives ``VmHWM`` (kB) from
``/proc/self/status`` at exit; ``ru_maxrss`` of a forked child would carry the
parent's resident set instead. ``FNDECOMP_BENCH_TRACE`` names a file that
receives the per-layer trace (see tracer.py); without it nothing is wrapped.
"""

import os
import runpy
import sys


def _vmhwm_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return line.split()[1]
    except OSError:
        pass
    return None


def main():
    trace_path = os.environ.get("FNDECOMP_BENCH_TRACE")
    hwm_path = os.environ.get("FNDECOMP_BENCH_HWM")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # the CLI sees the same sys.path and argv as under `python -m fndecomp`
    del sys.path[0]
    sys.argv = ["fndecomp", *sys.argv[1:]]
    try:
        runpy.run_module("fndecomp", run_name="__main__", alter_sys=True)
    finally:
        if tracer is not None:
            tracer.write(trace_path)
        hwm = _vmhwm_kb()
        if hwm_path and hwm is not None:
            with open(hwm_path, "w", encoding="ascii") as fh:
                fh.write(hwm)


if __name__ == "__main__":
    main()
