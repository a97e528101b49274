"""The process contract of python -m fndecomp: exit codes, exact stderr lines,
the files each command leaves and the modules it compiles.  Every command
line run as a child interpreter is a row of ROWS, run in a fresh directory by
the fndecomp fixture, or once under the probe by probe(); test_cli.py holds
the checks of the CLI made in process.  The installed console script calls the same cli.main; CI runs it
on its own."""

import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from fndecomp import FnTable, Group, dump_table, load_phi, load_table_file
from fndecomp.classify import Z3Params, z3_build
from fndecomp.cli import _COMMANDS
from helpers import BUILT_IN_SHA256, run_python


def z4096_table():
    """A table over Z4096 whose least decomposition arity is 2: a sum of
    unary functions of its 12 variables plus 3 * x0 * x1."""
    rng = random.Random(7)
    unary = [[rng.randrange(4096) for _ in range(2)] for _ in range(12)]
    return FnTable.from_callable(2, 12, Group((4096,)), lambda x: (
        (sum(unary[i][d] for i, d in enumerate(x)) + 3 * x[0] * x[1]) % 4096,))


# the files every row's directory holds before it runs
INPUTS = {
    "parity3.tbl": "domain=2\narity=3\ngroup=Z2\n0 1 1 0 1 0 0 1\n",
    "parity4.tbl": "domain=2\narity=4\ngroup=Z2\n0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0\n",
    "z3.tbl": "domain=2\narity=2\ngroup=Z3\n0 1 2 0\n",
    "z3form.tbl": dump_table(z3_build(4, Z3Params(1, 2, 0, 1))),
    "z4096.tbl": dump_table(z4096_table()),
    # a header of 2**23 cells and no values
    "huge.tbl": "domain=2\narity=23\ngroup=Z2\n",
}
# a command line: the argv after python -m <module>, and, for a command run
# to its end, the modules of the package it compiles besides fndecomp.cli
Row = namedtuple("Row", "argv modules module", defaults=(None, "fndecomp"))
BASE = {"errors", "records", "groups", "tables"}
TAYLOR = BASE | {"packing", "calculus", "cli_decompose"}
PHI = BASE | {"minors", "oddsupport", "booldecomp", "cli_decompose"}
ANALYZE = BASE | {"packing", "calculus", "minors", "oddsupport", "cli_analyze"}
CLASSIFY = BASE | {"minors", "oddsupport", "classify", "cli_classify"}
IDENTITIES = BASE | {"identities", "cli_identities"}
WITNESS = BASE | {"packing", "calculus", "oddsupport", "witnesses", "cli_witness"}
HAMMING = ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1", "--out"]
ODD = ["decompose", "parity3.tbl", "--mode", "odd"]
TAYLOR_Z4096 = ["decompose", "z4096.tbl", "--mode", "taylor", "--k"]
ROWS = {
    "help": Row(["--help"], {"errors"}),
    "usage": Row(["analyze"]),
    "exact": Row(["identities", "--max-m", "3"], IDENTITIES),
    "abbreviated": Row(["identities", "--max", "3"], IDENTITIES),
    # the CLI module run as __main__
    "script": Row(["identities", "--max-m", "2"], IDENTITIES, "fndecomp.cli"),
    "budget": Row(["analyze", "huge.tbl"]),
    "analyze": Row(["analyze", "z3.tbl"], ANALYZE),
    "hamming": Row([*HAMMING, "w.tbl"], WITNESS),
    "digest": Row(["analyze", "w.tbl", "--json"]),
    "taylor": Row(["decompose", "parity3.tbl", "--mode", "taylor", "--k", "1", "--json"], TAYLOR),
    "taylor=": Row(["decompose", "z3.tbl", "--mode=taylor", "--k", "1"], TAYLOR),
    "odd": Row([*ODD, "--json"], PHI),
    "odd=": Row(["decompose", "parity3.tbl", "--mode=odd"], PHI),
    "odd-out": Row([*ODD, "--out", "phi.txt"], PHI | {"phitext"}),
    "directory": Row([*ODD, "--out", "outdir"]),
    "fifo": Row([*HAMMING, "fifo"]),
    "symlink": Row([*HAMMING, "link.tbl"]),
    "fresh": Row([*HAMMING, "w-fresh.tbl"]),
    "stale": Row([*ODD, "--out", "phi-stale.txt"]),
    "boolean": Row(["classify", "parity3.tbl", "--target", "boolean", "--json"], CLASSIFY),
    "even": Row(["decompose", "parity4.tbl", "--mode", "even", "--json"], PHI),
    "even-out": Row(["decompose", "parity4.tbl", "--mode", "even", "--out", "phi-even.txt"]),
    "fitilde": Row(["decompose", "parity4.tbl", "--mode", "fitilde", "--json"], PHI),
    "z3": Row(["classify", "z3form.tbl", "--target", "z3", "--json"], CLASSIFY),
    "tightness": Row(["witness", "--kind", "tightness", "--ell", "1", "--e", "1", "--n", "3",
                      "--group", "Z2", "--b", "1", "--out", "t.tbl"], WITNESS),
    "large-alphabet": Row(["witness", "--kind", "large-alphabet", "--a-size", "4", "--n", "3",
                           "--group", "Z3", "--b", "1", "--out", "la.tbl"], WITNESS),
    "closed-pipe": Row(["identities", "--max-m", "60", "--json"]),
    "z4096-analyze": Row(["analyze", "z4096.tbl", "--json"]),
    "z4096-k2": Row([*TAYLOR_Z4096, "2", "--json"]),
    "z4096-k1": Row([*TAYLOR_Z4096, "1"]),
    "z4095-witness": Row(["witness", "--kind", "hamming", "--n", "12", "--group", "Z4095",
                          "--b", "1", "--out", "w4095.tbl", "--json"]),
}
# the rows whose argv cli._read_argv declines and argparse reads
ARGPARSE = {"help", "abbreviated", "usage"}
# the rows run to their end
PROBED = [name for name, row in ROWS.items() if row.modules]

# The end of a child's code: it runs the module and argv that follow the code
# on the command line, in its own process, as python -m does.
RUN = ("\nimport runpy, sys\n"
       "sys.argv = sys.argv[1:]\n"
       "runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)\n")


def run_row(cwd, row, *args, **kwargs):
    """Runs a row in cwd, which holds INPUTS, and returns its exit code,
    stdout and stderr: as python -m runs it, or as python with the given
    arguments, which end in -c code, and the row's module and argv after
    them.  A row run by python -m leaves no temporary of the writer."""
    argv, _, module = ROWS[row]
    proc = run_python(*(args or ["-m"]), module, *argv, cwd=cwd, **kwargs)
    if not args:
        assert not list(cwd.rglob(".fndecomp-*"))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def fndecomp(tmp_path):
    """run_row in tmp_path, filled with INPUTS."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    return functools.partial(run_row, tmp_path)


def test_rows_run_every_handler():
    # each subcommand, and each mode, target and kind, is code of its own
    argvs = [row.argv for row in ROWS.values()]
    assert set(_COMMANDS) <= {argv[0] for argv in argvs}
    pairs = {pair for argv in argvs for pair in zip(argv, argv[1:])}
    for _, _, options in _COMMANDS.values():
        for flag, kind, _, _ in options:
            if isinstance(kind, tuple):
                assert {(flag, choice) for choice in kind} <= pairs, flag


# Prints to a file, stderr by default, a label and the names in sys.modules.
# A library module counts once it is loaded: until then it is a lazy module,
# whose type changes to types.ModuleType at its first attribute access.
LOADED = ("import sys, types\n"
          "def loaded(label, file=sys.stderr):\n"
          "    print(label, *[name for name, module in sys.modules.items()\n"
          "                   if not name.startswith('fndecomp.')\n"
          "                   or type(module) is types.ModuleType], file=file, flush=True)\n")
# Runs a row and prints to PROBED_TO what is loaded each time the code of
# cli.py runs ("cli"), when cli._read_argv returns ("argv") and at exit
# ("done"); stdout and stderr stay the command's own.
PROBED_TO = "probe.txt"
PROBE = LOADED + (
    f"probed_to = open({PROBED_TO!r}, 'w', encoding='utf-8')\n"
    "import atexit\n"
    "atexit.register(loaded, 'done', probed_to)\n"
    "def exec_hook(event, args):\n"
    "    if event == 'exec' and getattr(args[0], 'co_filename', '').endswith('cli.py'):\n"
    "        loaded('cli', probed_to)\n"
    "sys.addaudithook(exec_hook)\n"
    "def profile(frame, event, arg):\n"
    "    if event == 'return' and frame.f_code.co_name == '_read_argv':\n"
    "        loaded('argv', probed_to)\n"
    "sys.setprofile(profile)\n") + RUN
# stdlib modules that would cost every command milliseconds of start-up
SLOW = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
DIGEST = {"_sha2", "_sha256", "hashlib", "_hashlib"}


@functools.cache
def baselines():
    """The names loaded by a bare interpreter without site, and those that
    importing fndecomp.cli adds; run once for the whole session."""
    bare, cli = (run_python("-S", "-c", LOADED + code + "\nloaded('done')")
                 for code in ("pass", "import fndecomp.cli"))
    assert bare.returncode == cli.returncode == 0, bare.stderr + cli.stderr
    bare = set(bare.stderr.split()[1:])
    return bare, set(cli.stderr.split()[1:]) - bare


@functools.cache
def probe(row):
    """The exit code, stdout and stderr of a row run to its end under PROBE,
    without site, in a fresh directory that holds INPUTS, and the lines it
    printed to PROBED_TO, each split into its words.  Each row is run once
    for the whole session, whichever tests read it."""
    with tempfile.TemporaryDirectory() as cwd:
        cwd = Path(cwd)
        for name, text in INPUTS.items():
            (cwd / name).write_text(text)
        code, out, err = run_row(cwd, row, "-S", "-c", PROBE)
        lines = [line.split() for line in (cwd / PROBED_TO).read_text().splitlines()]
    return code, out, err, lines


def assert_compiles_only_its_modules(row):
    # without bytecode every module loaded is compiled from source, and
    # without site (-S) no site-packages .pth file imports typing or any
    # other module before the command starts.  The CLI module is compiled
    # once, also when it runs as __main__, and compiles no library module;
    # reading argv compiles none either, and argparse only where
    # cli._read_argv declines argv; the command then compiles the modules it
    # runs, each at its first use; one that reads no table loads no digest
    # module and no json (none of them takes --json), and none loads OpenSSL
    # (_hashlib)
    bare, cli = baselines()
    assert "fndecomp.cli" in cli and not cli & SLOW
    assert {name for name in cli if name.startswith("fndecomp.")} <= {
        "fndecomp.cli", "fndecomp.errors"}
    argv, modules, _ = ROWS[row]
    code, out, err, lines = probe(row)
    assert (code, err) == (0, "") and out, err
    assert [line[0] for line in lines] == ["cli", "argv", "done"], lines
    _, at_argv, done = ({name for name in line[1:] if name.startswith("fndecomp.")}
                        for line in lines)
    assert at_argv == {"fndecomp.cli", "fndecomp.errors"}
    assert done == {"fndecomp.cli", *(f"fndecomp.{name}" for name in modules)}
    loaded = set(lines[-1][1:]) - bare
    assert not loaded & SLOW
    if row in ARGPARSE:
        assert "argparse" in loaded
    else:
        assert not loaded & {"argparse", "gettext", "locale"}
    if argv[0] not in ("analyze", "decompose", "classify"):
        assert not loaded & (DIGEST | {"json"})
    elif BUILT_IN_SHA256:
        assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.parametrize("row", PROBED)
def test_a_row_run_to_its_end_compiles_only_its_modules(row):
    assert_compiles_only_its_modules(row)


@pytest.mark.parametrize("row", ["help", "taylor", "odd", "boolean", "even", "tightness",
                                 "large-alphabet"])
def test_row_exits_0(row):
    # the probe's child: its stdout and stderr are the command's own
    code, out, err, _ = probe(row)
    assert (code, err) == (0, ""), err
    assert out


# for each row run to its end, one of the modules it compiles; abbreviated
# and script run the command of exact, and help compiles no library module
COMPILED = {"taylor": "calculus", "taylor=": "packing", "odd": "booldecomp", "odd=": "records",
            "even": "oddsupport", "fitilde": "groups", "odd-out": "phitext", "analyze": "minors",
            "boolean": "tables", "z3": "classify", "exact": "identities", "hamming": "witnesses",
            "tightness": "packing", "large-alphabet": "calculus"}
# Fails the compilation of the module it names with MemoryError, from source
# or from bytecode.
FAIL_COMPILE = ("from importlib.machinery import SourceFileLoader\n"
                "get_code = SourceFileLoader.get_code\n"
                "def get_code_or_fail(self, fullname):\n"
                "    if fullname == %r:\n"
                "        raise MemoryError\n"
                "    return get_code(self, fullname)\n"
                "SourceFileLoader.get_code = get_code_or_fail\n")


@pytest.mark.parametrize("row, module", COMPILED.items(), ids=COMPILED)
def test_memory_error_while_a_module_compiles_exits_3(fndecomp, tmp_path, row, module):
    # every module a command runs compiles inside main's error mapping: out
    # of memory while one compiles is one stderr line and exit 3, and the
    # command writes no file
    assert set(COMPILED) == set(PROBED) - {"help", "abbreviated", "script"}
    assert module in ROWS[row].modules
    code = FAIL_COMPILE % f"fndecomp.{module}" + RUN
    assert fndecomp(row, "-c", code) == (3, "", "precondition failed: out of memory\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(INPUTS)


def test_an_abbreviation_reads_as_its_option_and_a_usage_error_exits_2(fndecomp):
    # both go through argparse, whose behaviour differs across versions
    exact = fndecomp("exact")
    assert exact[0] == 0 and fndecomp("abbreviated") == exact
    code, out, err = fndecomp("usage")
    assert (code, out) == (2, "") and err.startswith("usage: fndecomp analyze")


def test_a_header_over_the_budget_exits_3_with_one_line(fndecomp):
    assert fndecomp("budget") == (3, "", "precondition failed: a table of 2**23 cells "
                                         "exceeds the budget of 4194304 cells\n")


def test_the_reported_digest_is_sha256(fndecomp, tmp_path):
    assert fndecomp("hamming")[0] == 0
    code, out, _ = fndecomp("digest")
    assert code == 0
    digest = json.loads(out)["inputs"][0]["sha256"]
    assert digest == hashlib.sha256((tmp_path / "w.tbl").read_bytes()).hexdigest()
    # coreutils, an oracle outside Python: the CLI digests with CPython's
    # built-in SHA-256, _sha2 from 3.12 on and _sha256 before
    if shutil.which("sha256sum"):
        line = subprocess.run(["sha256sum", "w.tbl"], cwd=tmp_path, capture_output=True,
                              text=True, check=True).stdout
        assert line.split()[0] == digest


def test_a_phi_file_is_replaced_whole(fndecomp, tmp_path):
    phi = tmp_path / "phi.txt"
    assert fndecomp("odd-out")[0] == 0
    first = phi.read_bytes()
    assert first.splitlines()[0] == b"phi domain=pnprime:3 a=2 group=Z2"
    assert fndecomp("odd-out")[0] == 0
    assert phi.read_bytes() == first


def test_an_even_phi_file_is_a_full_map(fndecomp, tmp_path):
    assert fndecomp("even-out")[0] == 0
    text = (tmp_path / "phi-even.txt").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "phi domain=full a=2 group=Z2"
    phi = load_phi(text)
    assert phi.kind == "full" and len(phi.entries) == 4


def test_an_out_that_is_no_regular_file_is_refused(fndecomp, tmp_path):
    (tmp_path / "outdir").mkdir()
    assert fndecomp("directory") == (
        3, "", "precondition failed: cannot write outdir: Is a directory\n")
    os.mkfifo(tmp_path / "fifo")
    assert fndecomp("fifo") == (
        3, "", "precondition failed: cannot write fifo: Not a regular file\n")
    assert (tmp_path / "fifo").is_fifo()
    assert not (tmp_path / "fifo.witness.txt").exists()


def test_an_out_through_a_symlink_replaces_its_target(fndecomp, tmp_path):
    (tmp_path / "w.tbl").write_text("junk")
    (tmp_path / "link.tbl").symlink_to("w.tbl")
    assert fndecomp("symlink")[0] == 0
    assert (tmp_path / "link.tbl").is_symlink()
    assert fndecomp("fresh")[0] == 0
    assert (tmp_path / "w-fresh.tbl").read_bytes() == (tmp_path / "w.tbl").read_bytes()


def test_a_stale_temporary_is_passed_over_and_kept(fndecomp, tmp_path):
    # the first name the command's writer tries, left by a killed command of
    # the same pid
    prelude = ("import os\n"
               "with open(f'.fndecomp-{os.getpid()}-0', 'x') as fh:\n"
               "    fh.write('junk')")
    assert fndecomp("stale", "-c", prelude + RUN)[0] == 0
    [stale] = tmp_path.rglob(".fndecomp-*")
    assert stale.read_text() == "junk"
    stale.unlink()
    assert fndecomp("odd-out")[0] == 0
    assert (tmp_path / "phi-stale.txt").read_bytes() == (tmp_path / "phi.txt").read_bytes()


def test_the_fitilde_rank_is_the_phi_key_count(fndecomp):
    # two keys at phi_domain(2, 4)
    code, out, _ = fndecomp("fitilde")
    assert code == 0 and json.loads(out)["verdicts"]["system_rank"] == "2/2"


def test_a_z3_form_gives_back_its_parameters(fndecomp):
    code, out, _ = fndecomp("z3")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["verdict"] == "gap2"
    assert report["payload"]["params"] == {"a": 1, "b": 2, "c": 0, "d": 1}


def test_a_report_into_a_closed_pipe_exits_3(fndecomp):
    # the report of closed-pipe is larger than a pipe buffer (64 KiB on
    # Linux; test_cli.py checks its size in process), that of exact fits in
    # stdout's own buffer, whose flush at interpreter exit would fail again;
    # the read end is closed before the command starts, and stdout is
    # buffered or not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for row, unbuffered in (("closed-pipe", {}), ("exact", {}),
                            ("exact", {"PYTHONUNBUFFERED": "1"})):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = fndecomp(row, env={**env, **unbuffered}, stdout=write_end,
                                    timeout=120)
        finally:
            os.close(write_end)
        assert (code, err) == (3, "precondition failed: cannot write standard output: "
                                  "[Errno 32] Broken pipe\n"), row


# Runs python -m with the arguments after the code, writes its wall seconds
# and ru_maxrss to run.stats and exits with its exit code.  The launcher is a
# fresh interpreter, so the resident set the command inherits at the fork is
# the launcher's few megabytes, not that of the test process.
LAUNCHER = """import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
with open("run.stats", "w") as fh:
    fh.write(f"{time.perf_counter() - start} {usage.ru_maxrss}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_codomains_above_order_2048_answer(fndecomp, tmp_path):
    # codomains of order above 2048, Z4096 and Z4095: each command answers in
    # a fresh interpreter within 10 s and 100 MB (about 0.1 s and 20 MB on a
    # 2-vCPU host)
    refusal = ("precondition failed: not 1-decomposable: derivative on positions [0, 1] "
               f"with parameters {(1, 1) + (0,) * 10} is nonzero\n")
    for row in ("z4096-analyze", "z4096-k2", "z4096-k1", "z4095-witness"):
        code, out, err = fndecomp(row, "-c", LAUNCHER, timeout=120)
        wall, maxrss = (float(word) for word in (tmp_path / "run.stats").read_text().split())
        # ru_maxrss is in kilobytes on Linux
        assert wall < 10 and maxrss / 1024 < 100, (row, wall, maxrss)
        if row == "z4096-k1":
            assert (code, out, err) == (3, "", refusal)
            continue
        assert (code, err) == (0, ""), err
        verdicts = json.loads(out)["verdicts"]
        if row == "z4096-analyze":
            assert verdicts["min_decomposition_arity"] == 2
            assert verdicts["essential_arity"] == 12
        elif row == "z4096-k2":
            assert verdicts["reconstruction"] == "exact"
        else:
            assert verdicts["verified"] is True and verdicts["expected"] == "2048"
            assert load_table_file(tmp_path / "w4095.tbl").group == Group((4095,))
