"""The process contract of python -m fndecomp: exit codes, exact stderr lines
and the files each command leaves.  Every command line is a row of ROWS, run
as a child interpreter in a fresh directory by the fndecomp fixture.  The
installed console script calls the same cli.main; CI runs it on its own."""

import hashlib
import json
import os
import shutil
import subprocess

import pytest

from fndecomp import load_phi, save_table_file
from fndecomp.classify import Z3Params, z3_build
from fndecomp.cli import _COMMANDS
from helpers import run_python

# the files every row's directory holds before it runs
INPUTS = {
    "parity3.tbl": "domain=2\narity=3\ngroup=Z2\n0 1 1 0 1 0 0 1\n",
    "parity4.tbl": "domain=2\narity=4\ngroup=Z2\n0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0\n",
    # a header of 2**23 cells and no values
    "huge.tbl": "domain=2\narity=23\ngroup=Z2\n",
}
HAMMING = ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1", "--out"]
ODD = ["decompose", "parity3.tbl", "--mode", "odd"]
ROWS = {
    "help": ["--help"],
    "usage": ["analyze"],
    "exact": ["identities", "--max-m", "3", "--json"],
    "abbreviated": ["identities", "--max", "3", "--json"],
    "budget": ["analyze", "huge.tbl"],
    "hamming": [*HAMMING, "w.tbl"],
    "digest": ["analyze", "w.tbl", "--json"],
    "taylor": ["decompose", "parity3.tbl", "--mode", "taylor", "--k", "1", "--json"],
    "odd": [*ODD, "--json"],
    "odd-out": [*ODD, "--out", "phi.txt"],
    "directory": [*ODD, "--out", "outdir"],
    "fifo": [*HAMMING, "fifo"],
    "symlink": [*HAMMING, "link.tbl"],
    "fresh": [*HAMMING, "w-fresh.tbl"],
    "stale": [*ODD, "--out", "phi-stale.txt"],
    "boolean": ["classify", "parity3.tbl", "--target", "boolean", "--json"],
    "even": ["decompose", "parity4.tbl", "--mode", "even", "--json"],
    "even-out": ["decompose", "parity4.tbl", "--mode", "even", "--out", "phi-even.txt"],
    "fitilde": ["decompose", "parity4.tbl", "--mode", "fitilde", "--json"],
    "z3": ["classify", "z3form.tbl", "--target", "z3", "--json"],
    "tightness": ["witness", "--kind", "tightness", "--ell", "1", "--e", "1", "--n", "3",
                  "--group", "Z2", "--b", "1", "--out", "t.tbl"],
    "large-alphabet": ["witness", "--kind", "large-alphabet", "--a-size", "4", "--n", "3",
                       "--group", "Z3", "--b", "1", "--out", "la.tbl"],
    "closed-pipe": ["identities", "--max-m", "60", "--json"],
}
# a prelude ends by running the row's command in its own process, whose pid
# it keeps
EXEC = ("\nimport os, sys\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'fndecomp', *sys.argv[1:]])")


@pytest.fixture
def fndecomp(tmp_path):
    """Runs a row in tmp_path, which holds INPUTS, and returns its exit code,
    stdout and stderr.  With a prelude, the child runs it first and then the
    row; without, no temporary of the writer is left after the row."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)

    def run(row, prelude="", **kwargs):
        args = ["-c", prelude + EXEC] if prelude else ["-m", "fndecomp"]
        proc = run_python(*args, *ROWS[row], cwd=tmp_path, **kwargs)
        if not prelude:
            assert not list(tmp_path.rglob(".fndecomp-*"))
        return proc.returncode, proc.stdout, proc.stderr

    return run


def test_rows_run_every_handler():
    # each subcommand, and each mode, target and kind, is code of its own
    assert set(_COMMANDS) <= {row[0] for row in ROWS.values()}
    pairs = {pair for row in ROWS.values() for pair in zip(row, row[1:])}
    for _, _, options in _COMMANDS.values():
        for flag, kind, _, _ in options:
            if isinstance(kind, tuple):
                assert {(flag, choice) for choice in kind} <= pairs, flag


@pytest.mark.parametrize("row", ["help", "taylor", "odd", "boolean", "even", "tightness",
                                 "large-alphabet"])
def test_row_exits_0(fndecomp, row):
    code, out, err = fndecomp(row)
    assert (code, err) == (0, ""), err
    assert out


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
    assert fndecomp("stale", prelude)[0] == 0
    [stale] = tmp_path.rglob(".fndecomp-*")
    assert stale.read_text() == "junk"
    stale.unlink()
    assert fndecomp("odd-out")[0] == 0
    assert (tmp_path / "phi-stale.txt").read_bytes() == (tmp_path / "phi.txt").read_bytes()


def test_the_fitilde_rank_is_the_phi_key_count(fndecomp):
    # two keys at phi_domain(2, 4)
    code, out, _ = fndecomp("fitilde")
    assert code == 0 and json.loads(out)["verdicts"]["system_rank"] == "2/2"


def test_a_z3_form_gives_back_its_parameters(fndecomp, tmp_path):
    save_table_file(z3_build(4, Z3Params(1, 2, 0, 1)), tmp_path / "z3form.tbl")
    code, out, _ = fndecomp("z3")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["verdict"] == "gap2"
    assert report["payload"]["params"] == {"a": 1, "b": 2, "c": 0, "d": 1}


def test_a_report_into_a_closed_pipe_exits_3(fndecomp):
    # the report is larger than a pipe buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = fndecomp("closed-pipe", stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (3, "precondition failed: cannot write standard output: "
                              "[Errno 32] Broken pipe\n")
