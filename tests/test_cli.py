import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fndecomp import (
    FnTable,
    Group,
    ParseError,
    errors,
    load_phi,
    load_table_file,
    save_table_file,
)
from fndecomp.cli import _COMMANDS, _COMMON, _build_parser, _read_argv, _read_text, main
from fndecomp.classify import Z3Params, z3_build
from helpers import BUILT_IN_SHA256, SRC
from test_console import ARGPARSE, ROWS, assert_compiles_only_its_modules

Z2 = Group((2,))
Z3 = Group((3,))


def write_parity(tmp_path, n, name="parity.tbl"):
    f = FnTable.from_callable(2, n, Z2, lambda x: (sum(x) % 2,))
    path = tmp_path / name
    save_table_file(f, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_refused(code, out, err):
    """Exit 3 with nothing on stdout and one short line on stderr."""
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and len(err) <= 200 and "Traceback" not in err


# a number of 4 300 digits, the most int() converts, and its excerpt
HUGE = "9" * 4300
HUGE_EXCERPT = "9" * 40 + "..."


def test_analyze_parity(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["gap"] == 2
    assert report["verdicts"]["oddsupp_determined"] is True
    assert report["verdicts"]["min_decomposition_arity"] == 1
    assert report["verdicts"]["essential_arity"] == 4


def test_extract_phi_and_analyze_fold_no_cells(tmp_path, capsys, monkeypatch):
    import random

    import fndecomp.minors as minors_mod
    import fndecomp.oddsupport as oddsupport_mod
    import fndecomp.tables as tables_mod
    from fndecomp import PhiMap, extract_phi, table_from_phi
    from helpers import random_full_arity_table

    folds = []
    real = tables_mod.axis_fold
    for module in (tables_mod, minors_mod, oddsupport_mod):
        monkeypatch.setattr(module, "axis_fold",
                            lambda *args: folds.append(len(args[0][0])) or real(*args))
    parity = FnTable.from_callable(2, 6, Z2, lambda x: (sum(x) % 2,))
    determined = table_from_phi(PhiMap.on_phi_domain(3, 5, Z3, lambda S: (len(S) % 3,)))
    ternary = random_full_arity_table(random.Random(9), 3, 5, Z3)
    # the rebuild folds the cells once: the counter sees it
    assert folds == [3]
    folds.clear()
    assert extract_phi(parity) is not None and extract_phi(determined) is not None
    assert extract_phi(ternary) is None
    save_table_file(ternary, tmp_path / "random.tbl")
    for path in (write_parity(tmp_path, 6), str(tmp_path / "random.tbl")):
        code, _, _ = run(capsys, "analyze", path)
        assert code == 0
    assert folds == []


def test_analyze_and2_and_constant(tmp_path, capsys):
    and2 = FnTable.from_callable(2, 2, Z2, lambda x: (x[0] * x[1] % 2,))
    p = tmp_path / "and2.tbl"
    save_table_file(and2, p)
    code, out, _ = run(capsys, "analyze", str(p), "--json")
    assert code == 0 and json.loads(out)["verdicts"]["gap"] == 1

    const = FnTable.constant(2, 3, Z2, (1,))
    p2 = tmp_path / "const.tbl"
    save_table_file(const, p2)
    code, out, _ = run(capsys, "analyze", str(p2), "--json")
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["gap"] is None
    assert report["verdicts"]["gap_status"] == "undefined: ess<2"
    assert report["verdicts"]["min_decomposition_arity"] == 0


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("domain=2\narity=2\ngroup=Z2\n0 1 1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "expected 4 values" in err
    bad.write_text("domain=\u00b2\narity=2\ngroup=Z2\n0 1 1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "bad domain value" in err
    bad.write_bytes(b"domain=2\narity=2\ngroup=Z2\n0 1 1 \xff\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "not UTF-8" in err
    with pytest.raises(ParseError, match="not UTF-8"):
        load_table_file(bad)
    # a header over the cell budget is refused before its size is computed
    for domain, arity in ((3, 9000), (3, 100000), (3, 10000000), (2, 23)):
        bad.write_text(f"domain={domain}\narity={arity}\ngroup=Z2\n0\n")
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "budget" in err and "Traceback" not in err
    # the numbers such a refusal quotes are cut to 40 digits: an arity of
    # 4 300 digits under every table command
    bad.write_text(f"domain=2\narity={HUGE}\ngroup=Z2\n0\n")
    for argv in (["analyze"], ["classify", "--target", "boolean"],
                 ["classify", "--target", "z3"], ["decompose", "--mode", "odd"],
                 ["decompose", "--mode", "even"], ["decompose", "--mode", "fitilde"],
                 ["decompose", "--mode", "taylor", "--k", "1"]):
        code, out, err = run(capsys, *argv, str(bad))
        assert_refused(code, out, err)
        assert f"a table of 2**{HUGE_EXCERPT} cells exceeds the budget" in err
    # a domain of 4 300 digits at arity 0 is one cell, so the uniform regime
    # check is the one to quote it
    bad.write_text(f"domain={HUGE}\narity=0\ngroup=Z2\n0\n")
    code, out, err = run(capsys, "decompose", str(bad), "--mode", "fitilde")
    assert_refused(code, out, err)
    assert f"max(|A|, 3) = {HUGE_EXCERPT}, got 0" in err
    # a header number longer than int() converts is a parse error
    bad.write_text("domain=" + "9" * 5000 + "\narity=2\ngroup=Z2\n0\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "bad domain value" in err and len(err) < 100
    # a table inside the cell budget whose odd-support masks are not: each
    # mask over 100000 letters takes 1563 words
    bad.write_text("domain=100000\narity=1\ngroup=Z2\n" + "0 " * 100000 + "\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "words" in err and "Traceback" not in err


def test_long_group_texts_are_quoted_in_excerpt(tmp_path, capsys):
    # moduli of up to 4 300 digits parse; the messages about such a group
    # quote at most 40 characters of it, even when its order has more
    # digits than str() converts
    nines = "9" * 4000
    for spec, zero in ((f"Z{nines}", "0"), (f"Z{nines}xZ{nines}", "0,0")):
        path = tmp_path / "big.tbl"
        path.write_text(f"domain=2\narity=2\ngroup={spec}\n" + f"{zero} " * 4 + "\n")
        for argv in (["analyze"], ["decompose", "--mode", "odd"]):
            code, out, err = run(capsys, *argv, str(path))
            assert code == 3 and out == ""
            assert len((out + err).encode()) < 200 and "..." in err


def test_reported_digest_is_of_the_parsed_bytes(tmp_path, capsys):
    path = write_parity(tmp_path, 3)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    data = (tmp_path / "parity.tbl").read_bytes()
    assert json.loads(out)["inputs"] == [
        {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    ]


@settings(max_examples=100, deadline=None)
@given(st.text().map(str.encode))
@example(b"")
@example(b"1" * 55)
@example(b"1" * 56)
@example(b"1" * 63)
@example(b"1" * 64)
@example(b"1" * 65)
@example("\u00e9".encode() * (1 << 19))
def test_digest_is_hashlib_sha256_of_the_bytes(tmp_path_factory, data):
    # hashlib is the oracle: empty input, the last length one padded block
    # holds (55), the lengths about a block (64) and 1 MiB
    path = tmp_path_factory.mktemp("digest") / "input.tbl"
    path.write_bytes(data)
    assert _read_text(str(path)) == (data.decode(), {"path": str(path),
                                                      "sha256": hashlib.sha256(data).hexdigest()})


def test_digest_falls_back_to_hashlib(tmp_path, monkeypatch):
    # with the built-in modules hidden the digest goes through hashlib, and
    # is the same digest
    path = tmp_path / "parity.tbl"
    data = b"domain=2\narity=1\ngroup=Z2\n0 1\n"
    path.write_bytes(data)
    real = hashlib.sha256
    calls = []
    monkeypatch.setattr(hashlib, "sha256", lambda chunk: calls.append(chunk) or real(chunk))
    expected = real(data).hexdigest()
    assert _read_text(str(path))[1]["sha256"] == expected
    assert calls == ([] if BUILT_IN_SHA256 else [data])
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    assert _read_text(str(path))[1]["sha256"] == expected
    assert calls[-1:] == [data]


def test_decompose_odd_round_trip(tmp_path, capsys):
    path = write_parity(tmp_path, 5)
    out_phi = tmp_path / "phi.txt"
    code, out, _ = run(capsys, "decompose", path, "--mode", "odd",
                       "--out", str(out_phi), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["reconstruction"] == "exact"
    phi = load_phi(out_phi.read_text())
    assert phi.value({1}) == (1,)


def test_decompose_parity_mismatch_exit_3(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, _, err = run(capsys, "decompose", path, "--mode", "odd")
    assert code == 3
    assert "parity mismatch: n-|A| even" in err


def test_decompose_taylor_inventory_and_failure(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, out, _ = run(capsys, "decompose", path, "--mode", "taylor", "--k", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["reconstruction"] == "exact"
    assert len(report["payload"]["summands"]) == 5  # empty set + 4 singletons

    from fndecomp import hamming_witness
    w = hamming_witness(3, Z3, (1,))
    p = tmp_path / "ham.tbl"
    save_table_file(w.table, p)
    code, _, err = run(capsys, "decompose", str(p), "--mode", "taylor", "--k", "2")
    assert code == 3 and "not 2-decomposable" in err and "[0, 1, 2]" in err

    # 9908 terms of 2**14 cells each: far over the Taylor cell budget
    p = tmp_path / "big.tbl"
    save_table_file(FnTable.constant(2, 14, Z2, (1,)), p)
    code, _, err = run(capsys, "decompose", str(p), "--mode", "taylor", "--k", "7")
    assert code == 3 and "budget" in err
    # a --k of 4 000 digits either side of the range is quoted to 40 of them
    for sign in ("", "-"):
        k = sign + "9" * 4000
        code, out, err = run(capsys, "decompose", path, "--mode", "taylor", "--k", k)
        assert_refused(code, out, err)
        assert err.endswith(f"k must be between 0 and 4, got {sign}{HUGE_EXCERPT}\n")


def test_decompose_refuses_flags_its_mode_ignores(tmp_path, capsys):
    # --k means nothing to the phi modes and --out nothing to taylor: both
    # are refused, with no report and no file written
    odd_table = write_parity(tmp_path, 5)
    out_phi = tmp_path / "phi.txt"
    for argv, message in (
        (["--mode", "taylor", "--k", "1", "--out", str(out_phi)], "--out"),
        (["--mode", "odd", "--k", "1", "--out", str(out_phi)], "--k"),
        (["--mode", "even", "--k", "2"], "--k"),
        (["--mode", "fitilde", "--k", "0", "--json"], "--k"),
    ):
        code, out, err = run(capsys, "decompose", odd_table, *argv)
        assert code == 3 and out == "" and not out_phi.exists()
        assert err.startswith(f"precondition failed: {message} ")
        assert err.count("\n") == 1


def test_flags_are_checked_before_any_input_is_read(tmp_path, capsys):
    # a refused flag is reported even when the input would not parse
    missing = str(tmp_path / "missing.tbl")
    out_tbl = tmp_path / "w.tbl"
    for argv, message in (
        (["decompose", missing, "--mode", "odd", "--k", "1"], "--k applies to"),
        (["decompose", missing, "--mode", "taylor"], "--mode taylor requires --k"),
        (["decompose", missing, "--mode", "taylor", "--k", "1", "--out", "p.txt"], "--out"),
        (["witness", "--kind", "hamming", "--group", "Z0", "--b", "1"],
         "--kind hamming requires --n"),
        (["witness", "--kind", "tightness", "--n", "3", "--group", "Z4", "--b", "x"],
         "--kind tightness requires"),
        (["witness", "--kind", "large-alphabet", "--n", "2", "--group", "Zq", "--b", "1"],
         "--kind large-alphabet requires"),
    ):
        if argv[0] == "witness":
            argv += ["--out", str(out_tbl)]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and not out_tbl.exists()
        assert err.startswith(f"precondition failed: {message}") and err.count("\n") == 1


def test_meta_requires_json(tmp_path, capsys):
    path = write_parity(tmp_path, 3)
    out_tbl = tmp_path / "w.tbl"
    for argv in (["analyze", path, "--meta"], ["identities", "--max-m", "2", "--meta"],
                 ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1",
                  "--out", str(out_tbl), "--meta"]):
        assert run(capsys, *argv) == (3, "", "precondition failed: --meta requires --json\n")
    assert not out_tbl.exists() and not (tmp_path / "w.tbl.witness.txt").exists()
    code, out, _ = run(capsys, "analyze", path, "--meta", "--json")
    assert code == 0 and "meta" in json.loads(out)


def test_a_closed_pipe_exits_3_with_one_line(capsys, monkeypatch):
    # the report of closed-pipe is larger than a pipe buffer (64 KiB on
    # Linux); a standard output whose reader is gone is one stderr line and
    # exit 3.  test_console.py runs the same into a closed pipe in a child,
    # where stdout is buffered or not
    argv = ROWS["closed-pipe"].argv
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out) > 1 << 17
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        monkeypatch.undo()
    assert (code, *capsys.readouterr()) == (3, "", "precondition failed: cannot write "
                                                   "standard output: [Errno 32] Broken pipe\n")


def test_wide_codomains_are_refused_before_any_value_is_parsed(tmp_path, capsys, monkeypatch):
    # a cell of packed residues holds 32 bits: the order of the group, and
    # the width of its cell, are known once the header or --group is parsed,
    # so no value is parsed and no table is built or scanned before the
    # refusal; witness packs nothing, but writes only tables analyze reads
    import fndecomp.minors as minors_mod
    import fndecomp.witnesses as witnesses_mod

    def no_table_work(*args, **kwargs):
        raise AssertionError("table work before the packing refusal")

    monkeypatch.setattr(Group, "parse_element", no_table_work)
    monkeypatch.setattr(minors_mod, "essential_variables", no_table_work)
    monkeypatch.setattr(witnesses_mod, "hamming_witness", no_table_work)
    path = tmp_path / "wide.tbl"
    out_tbl = tmp_path / "w.tbl"
    huge = 10**3999 + 1
    for spec, order, bits in (("Z2147483649", "2147483649", 33),
                              ("Z2x" * 16 + "Z2", "131072", 34),
                              (f"Z{huge}", "1" + "0" * 39 + "...", 13286)):
        message = (f"precondition failed: group order {order} too large for packed residues: "
                   f"{bits} bits per cell, more than 32\n")
        path.write_text(f"domain=2\narity=20\ngroup={spec}\n0\n")
        for argv in (["analyze"], ["decompose", "--mode", "taylor", "--k", "1"]):
            assert run(capsys, *argv, str(path)) == (3, "", message)
        assert run(capsys, "witness", "--kind", "hamming", "--n", "20", "--group", spec,
                   "--b", "1", "--out", str(out_tbl)) == (3, "", message)
        assert not out_tbl.exists()


def test_command_header_facts_are_checked_before_any_value_is_parsed(tmp_path, capsys,
                                                                       monkeypatch):
    # classify and decompose refuse a table whose header rules it out with
    # the library's own message, before any value is parsed: a codomain, an
    # arity against the alphabet or a --k out of range costs no parse
    from fndecomp import (classify_boolean, decompose_even, decompose_odd, decompose_uniform,
                          decompose_via_taylor, z3_classify)

    def refusal(fn, table):
        with pytest.raises(errors.FnDecompError) as info:
            fn(table)
        return f"precondition failed: {info.value}\n"

    cases = []
    for a_size, arity, moduli in ((3, 4, (2,)), (2, 4, (3,))):
        table = FnTable.constant(a_size, arity, Group(moduli), (0,))
        cases.append((table, ["classify", "--target", "boolean"], refusal(classify_boolean, table)))
    for a_size, arity, moduli in ((3, 3, (3,)), (3, 4, (9,)), (2, 4, (3,))):
        table = FnTable.constant(a_size, arity, Group(moduli), (0,))
        cases.append((table, ["classify", "--target", "z3"], refusal(z3_classify, table)))
    z6 = FnTable.constant(2, 4, Group((6,)), (0,))
    for mode in ("odd", "even", "fitilde"):
        cases.append((z6, ["decompose", "--mode", mode], refusal(decompose_odd, z6)))
    # the phi modes' arities: n - |A| odd, n - |A| even, n > max(|A|, 3)
    n3, n4, a3 = (FnTable.constant(a, n, Z2, (0,)) for a, n in ((2, 3), (2, 4), (3, 2)))
    for table, mode, fn in ((n4, "odd", decompose_odd), (a3, "odd", decompose_odd),
                            (n3, "even", decompose_even), (a3, "even", decompose_even),
                            (n3, "fitilde", decompose_uniform)):
        cases.append((table, ["decompose", "--mode", mode], refusal(fn, table)))
    for k in (-1, 5):
        cases.append((n4, ["decompose", "--mode", "taylor", "--k", str(k)],
                      refusal(lambda table: decompose_via_taylor(table, k), n4)))
    # a file whose header rules the command out and whose body is bad fails
    # on the header; analyze, which takes its header, fails on the body
    path = tmp_path / "t.tbl"
    path.write_text("domain=2\narity=1\ngroup=Z2xZ4\n1,3 1,4\n")
    assert run(capsys, "analyze", str(path)) == (
        2, "", "parse error: line 4: residue 4 out of range for modulus 4 in '1,4'\n")
    assert run(capsys, "decompose", str(path), "--mode", "odd") == (
        3, "", "precondition failed: codomain Z2xZ4 is not Boolean (every factor must be Z2)\n")
    path.write_text("domain=2\narity=4\ngroup=Z2\n0 x\n")
    assert run(capsys, "decompose", str(path), "--mode", "taylor", "--k", "4") == (
        2, "", "parse error: line 4: bad element text 'x'\n")
    assert run(capsys, "decompose", str(path), "--mode", "taylor", "--k", "5") == (
        3, "", "precondition failed: k must be between 0 and 4, got 5\n")
    monkeypatch.setattr(Group, "parse_element", lambda *args: pytest.fail("a value was parsed"))
    for table, argv, message in cases:
        path.write_text(f"domain={table.a_size}\narity={table.arity}\n"
                        f"group={table.group.to_text()}\n0\n")
        assert run(capsys, argv[0], str(path), *argv[1:]) == (3, "", message)
    path.write_text("domain=2\narity=22\ngroup=Z4194304\n0\n")
    assert run(capsys, "classify", str(path), "--target", "z3") == (
        3, "", "precondition failed: ternary classification needs a Z3 -> Z3 table\n")
    assert run(capsys, "decompose", str(path), "--mode", "odd") == (
        3, "", "precondition failed: codomain Z4194304 is not Boolean (every factor must be Z2)\n")
    path.write_text("domain=2\narity=22\ngroup=Z2\n0\n")
    assert run(capsys, "decompose", str(path), "--mode", "odd") == (
        3, "", "precondition failed: parity mismatch: n-|A| even\n")
    assert run(capsys, "decompose", str(path), "--mode", "taylor", "--k", "30") == (
        3, "", "precondition failed: k must be between 0 and 22, got 30\n")


def test_decompose_fitilde_reports_rank(tmp_path, capsys):
    # every admissible probe system is the identity, so the rank is the
    # number of unknowns, one per phi_domain key
    from fndecomp import PhiMap, phi_domain, table_from_phi

    cases = [FnTable.from_callable(2, n, Z2, lambda x: (sum(x) % 2,)) for n in (4, 16)]
    cases += [table_from_phi(PhiMap.on_phi_domain(a, n, group, value))
              for a, n, group, value in (
                  (3, 4, Z2, lambda S: (len(S) & 1,)),
                  (2, 5, Group((2, 2)), lambda S: (len(S) & 1, 1 if 1 in S else 0)))]
    for f in cases:
        path = tmp_path / "f.tbl"
        save_table_file(f, path)
        code, out, _ = run(capsys, "decompose", str(path), "--mode", "fitilde", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["reconstruction"] == "exact"
        k = len(phi_domain(f.a_size, f.arity))
        assert report["verdicts"]["system_rank"] == f"{k}/{k}"


@pytest.mark.parametrize("mode, n, module, target, message", [
    ("odd", 5, "booldecomp", "reconstruct_odd", "reconstruction"),
    ("even", 4, "booldecomp", "reconstruct_even", "reconstruction"),
    ("fitilde", 4, "booldecomp", "reconstruct_uniform", "reconstruction"),
    ("taylor", 4, "calculus", "_taylor_terms_upto", "add back"),
], ids=["odd", "even", "fitilde", "taylor"])
def test_decompose_reconstruction_still_guards_the_verdict(tmp_path, capsys, monkeypatch, mode,
                                                           n, module, target, message):
    # each decomposer's rebuild (or add-back) of f is wrong: no verdict is printed
    import importlib

    path = write_parity(tmp_path, n)
    wrong = FnTable.constant(2, n, Z2, (0,))
    monkeypatch.setattr(importlib.import_module(f"fndecomp.{module}"), target,
                        lambda *args: [(frozenset(), wrong)] if mode == "taylor" else wrong)
    flags = ["--k", "1"] if mode == "taylor" else []
    code, out, err = run(capsys, "decompose", path, "--mode", mode, *flags, "--json")
    assert code == 4 and out == "" and message in err


def test_classify_boolean_and_z3(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, out, _ = run(capsys, "classify", path, "--target", "boolean", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["gap"] == 2
    assert report["payload"]["form"]["kind"] == "parity_sum"

    t = z3_build(4, Z3Params(1, 2, 2, 2))
    p = tmp_path / "z3.tbl"
    save_table_file(t, p)
    code, out, _ = run(capsys, "classify", str(p), "--target", "z3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["verdict"] == "gap2"
    assert report["payload"]["params"] == {"a": 1, "b": 2, "c": 2, "d": 2}


def test_classify_z3_reports_the_gap_of_the_restriction(tmp_path, capsys):
    # a form padded with an inessential x2, and x1 - x3 at arity 4: both have
    # gap 2, and the parameters describe the restriction to x0, x1, x3, x4
    form = z3_build(4, Z3Params(1, 2, 0, 1))
    padded = FnTable.from_callable(3, 5, Z3, lambda x: form.eval(x[:2] + x[3:]))
    difference = FnTable.from_callable(3, 4, Z3, lambda x: ((x[1] - x[3]) % 3,))
    for f, params in ((padded, {"a": 1, "b": 2, "c": 0, "d": 1}), (difference, None)):
        path = tmp_path / "z3.tbl"
        save_table_file(f, path)
        code, out, _ = run(capsys, "classify", str(path), "--target", "z3", "--json")
        report = json.loads(out)
        assert code == 0 and report["verdicts"] == {"target": "z3", "verdict": "gap2", "gap": 2}
        assert report["payload"] == ({} if params is None else {"params": params})
        code, out, _ = run(capsys, "classify", str(path), "--target", "z3")
        assert code == 0 and "\ngap: 2\n" in out and "\nverdict: gap2\n" in out
        assert ("params: " in out) == (params is not None)
        if params is not None:
            assert f"\nparams: {params}\n" in out


def test_classify_runs_one_slice_test(tmp_path, capsys, monkeypatch):
    import importlib
    import random

    import fndecomp
    from helpers import random_table

    # above the pair-scan limit each classify command decides determination
    # once: the Boolean parity sum and a gap-1 table, a z3_build form of
    # arity 7 and a random ternary table
    rng = random.Random(3)
    cases = [("boolean", FnTable.from_callable(2, 5, Z2, lambda x: (sum(x) % 2,))),
             ("boolean", FnTable.from_callable(2, 5, Z2, lambda x: ((x[0] * x[1] + sum(x[2:]))
                                                                  % 2,))),
             ("z3", z3_build(7, Z3Params(2, 0, 1, 1))),
             ("z3", random_table(rng, 3, 5, Z3))]
    calls = []
    real = fndecomp.minors.determined_via_symmetry
    for name in fndecomp._EXPORTS:
        module = importlib.import_module(f"fndecomp.{name}")
        if hasattr(module, "determined_via_symmetry"):
            monkeypatch.setattr(module, "determined_via_symmetry",
                                lambda f: calls.append(f.arity) or real(f))
    for k, (target, f) in enumerate(cases):
        path = tmp_path / f"{k}.tbl"
        save_table_file(f, path)
        calls.clear()
        code, _, _ = run(capsys, "classify", str(path), "--target", target)
        assert code == 0 and calls == [f.arity]


def test_classify_boolean_verdict_is_certified(tmp_path, capsys, monkeypatch):
    import fndecomp.classify as classify_mod

    # the classifier misreads the parity sum as gap 1, and its own check of
    # the gap from the definition refuses that
    path = write_parity(tmp_path, 5)
    real = classify_mod.determined_via_symmetry
    monkeypatch.setattr(classify_mod, "determined_via_symmetry", lambda g: False)
    code, out, err = run(capsys, "classify", path, "--target", "boolean")
    assert code == 4 and out == "" and "direct gap" in err
    monkeypatch.setattr(classify_mod, "determined_via_symmetry", real)
    code, out, _ = run(capsys, "classify", path, "--target", "boolean")
    assert code == 0 and "gap: 2" in out


def test_boolean_classify_reduces_its_table_once(tmp_path, capsys, monkeypatch):
    import importlib

    import fndecomp

    # parity of x1..x5 and x0*x1 + x2 + ... + x5, each padded with x6
    # inessential: gap 2 and gap 1 above the pair-scan limit
    cases = [(lambda x: (sum(x[1:6]) % 2,), 2),
             (lambda x: ((x[0] * x[1] + sum(x[2:6])) % 2,), 1)]
    calls = []
    real = fndecomp.minors.reduce_to_essential
    for name in fndecomp._EXPORTS:
        module = importlib.import_module(f"fndecomp.{name}")
        if hasattr(module, "reduce_to_essential"):
            monkeypatch.setattr(module, "reduce_to_essential",
                                lambda f: calls.append(f.arity) or real(f))
    for k, (fn, gap) in enumerate(cases):
        path = tmp_path / f"{k}.tbl"
        save_table_file(FnTable.from_callable(2, 7, Z2, fn), path)
        calls.clear()
        code, out, _ = run(capsys, "classify", str(path), "--target", "boolean", "--json")
        assert code == 0 and json.loads(out)["verdicts"]["gap"] == gap
        assert calls == [7]


def test_analyze_finds_the_essential_variables_once(tmp_path, capsys, monkeypatch):
    import importlib

    import fndecomp

    # x0*x1 and the parity of x1..x5, each padded to 7 positions, a ternary
    # table with every variable essential and a constant
    cases = [FnTable.from_callable(2, 7, Z2, lambda x: (x[0] * x[1],)),
             FnTable.from_callable(2, 7, Z2, lambda x: (sum(x[1:6]) % 2,)),
             FnTable.from_callable(3, 4, Z3, lambda x: ((x[0] * x[1] + x[2] - x[3]) % 3,)),
             FnTable.constant(2, 3, Z2, (1,))]
    calls = []
    real = fndecomp.minors.essential_restriction
    for name in fndecomp._EXPORTS:
        module = importlib.import_module(f"fndecomp.{name}")
        if hasattr(module, "essential_restriction"):
            monkeypatch.setattr(module, "essential_restriction",
                                lambda f: calls.append(f.arity) or real(f))
    for k, f in enumerate(cases):
        path = tmp_path / f"{k}.tbl"
        save_table_file(f, path)
        calls.clear()
        for argv in (["--json"], []):
            code, _, _ = run(capsys, "analyze", str(path), *argv)
            assert code == 0
        # essential_variables and reduce_to_essential would each add one
        assert calls == [f.arity, f.arity]


def test_identities_ok(capsys):
    code, out, _ = run(capsys, "identities", "--max-m", "22", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["all_equal"] is True
    assert all(row[-1] for row in report["payload"]["even_sum_rows"])
    # the pair count is enumerated up to m = 20 and null above
    odd_rows = report["payload"]["odd_sum_rows"]
    assert all(row[-1] for row in odd_rows)
    assert [row[0] for row in odd_rows if row[4] is None] == [21] * 11 + [22] * 11
    assert all(row[4] == row[2] for row in odd_rows if row[0] <= 20)


def test_identities_work_is_bounded(capsys):
    # the binomial products are counted before any row is computed
    for max_m in ("341", "800", str(10**12), "9" * 4000):
        code, out, err = run(capsys, "identities", "--max-m", max_m)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "binomial products" in err
        assert len(err) <= 200 and f"m={max_m[:40]} " in err.replace("...", " ")
    # a range with no row is refused, not reported as all equal
    for max_m, quoted in (("0", "0"), ("-3", "-3"), ("-" + "9" * 4000, "-" + HUGE_EXCERPT)):
        assert run(capsys, "identities", "--max-m", max_m) == (
            3, "", f"precondition failed: max_m must be at least 1, got {quoted}\n")


def test_identities_mismatch_exits_4(capsys, monkeypatch):
    # the identities hold, so exercise the tripwire wiring with a stub
    import fndecomp.identities as identities_mod

    monkeypatch.setattr(identities_mod, "even_sum_rows", lambda max_m: [(2, 0, 1, 0, False)])
    code, _, err = run(capsys, "identities", "--max-m", "2")
    assert code == 4 and "mismatch" in err


@pytest.mark.parametrize("error, code, prefix", [
    (errors.ParseError, 2, "parse error: "),
    (errors.ShapeError, 3, "precondition failed: "),
    (errors.DomainError, 3, "precondition failed: "),
    (errors.ArgumentError, 3, "precondition failed: "),
    (errors.PreconditionError, 3, "precondition failed: "),
    (errors.CoverageError, 3, "precondition failed: "),
    (errors.ResourceError, 3, "precondition failed: "),
    (errors.FnDecompError, 3, "precondition failed: "),
    (errors.InternalConsistencyError, 4, "internal consistency failure: "),
])
def test_exit_code_of_each_error_class(capsys, monkeypatch, error, code, prefix):
    import fndecomp.cli_identities as handler

    def fail(args):
        raise error("stubbed")

    monkeypatch.setattr(handler, "run", fail)
    assert run(capsys, "identities", "--max-m", "2") == (code, "", prefix + "stubbed\n")


@pytest.mark.parametrize("argv, module, kernel", [
    (["analyze", "z3.tbl"], "calculus", "_derivative_coefficients"),
    (["decompose", "z3.tbl", "--mode", "taylor", "--k", "1"], "calculus",
     "_derivative_coefficients"),
    (["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1",
      "--out", "w.tbl"], "tables", "dump_table"),
], ids=["analyze", "taylor", "witness"])
def test_memory_error_exits_3(tmp_path, capsys, monkeypatch, argv, module, kernel):
    # out of memory is one stderr line and exit 3, and a witness table that
    # the command created is removed; one that was there before stays
    def fail(*args):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    (tmp_path / "z3.tbl").write_text("domain=2\narity=2\ngroup=Z3\n0 1 2 0\n")
    monkeypatch.setattr(importlib.import_module(f"fndecomp.{module}"), kernel, fail)
    out_tbl = tmp_path / "w.tbl"
    for before in (None, "old\n"):
        if before is not None:
            out_tbl.write_text(before)
        code, out, err = run(capsys, *argv)
        assert_refused(code, out, err)
        assert err == "precondition failed: out of memory\n"
        assert (out_tbl.read_text() if out_tbl.exists() else None) == before


def test_a_failed_witness_leaves_no_sidecar(tmp_path, capsys, monkeypatch):
    # out of memory while the table text is built, or a write of the table
    # refused partway, leaves both paths as they were: no file where there
    # was none, an old sidecar and an old table with their bytes, and no
    # temporary file behind
    import errno

    import fndecomp.cli as writer

    def no_memory(*args):
        raise MemoryError

    def refuse_table(file, mode="r", **kwargs):
        # the table's text is written, half of it, and then the disk is full
        fh = open(file, mode, **kwargs)
        write = fh.write

        def no_space(text):
            if text.startswith("domain="):
                write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(text)

        fh.write = no_space
        return fh

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    table, sidecar = out_dir / "w.tbl", out_dir / "w.tbl.witness.txt"
    argv = ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1",
            "--out", str(table)]
    for target, name, fail, message in (
            (importlib.import_module("fndecomp.tables"), "dump_table", no_memory,
             "out of memory"),
            (writer, "open", refuse_table, f"cannot write {table}: No space left on device")):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fail, raising=False)
            assert run(capsys, *argv) == (3, "", f"precondition failed: {message}\n")
            assert list(out_dir.iterdir()) == []
            sidecar.write_text("old\n")
            table.write_bytes(b"old table\r\n")
            assert run(capsys, *argv) == (3, "", f"precondition failed: {message}\n")
            assert sorted(path.name for path in out_dir.iterdir()) == [table.name, sidecar.name]
            assert sidecar.read_text() == "old\n"
            assert table.read_bytes() == b"old table\r\n"
            sidecar.unlink()
            table.unlink()
    # a table path that is a directory is refused before the sidecar changes
    table.mkdir()
    assert run(capsys, *argv) == (3, "", f"precondition failed: cannot write {table}: "
                                         "Is a directory\n")
    assert [path.name for path in out_dir.iterdir()] == [table.name]
    table.rmdir()
    # unpatched, the witness replaces both old files
    sidecar.write_text("old\n")
    table.write_bytes(b"old table\r\n")
    assert run(capsys, *argv)[0] == 0
    assert sorted(path.name for path in out_dir.iterdir()) == [table.name, sidecar.name]
    assert sidecar.read_text().startswith("positions=")
    assert table.read_text().startswith("domain=")


def test_a_failed_phi_write_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # decompose --out writes through the writer witness uses: a write of the phi
    # file refused partway, or an --out that is a directory, leaves the old
    # file with its bytes and no temporary file behind
    import errno

    import fndecomp.cli as writer

    def refuse_phi(file, mode="r", **kwargs):
        # the input is read whole; the phi text is written, half of it, and
        # then the disk is full
        fh = open(file, mode, **kwargs)
        if "b" in mode:
            return fh
        write = fh.write

        def no_space(text):
            write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = no_space
        return fh

    table = write_parity(tmp_path, 5)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    phi = out_dir / "phi.txt"
    phi.write_bytes(b"old phi\r\n")
    argv = ["decompose", table, "--mode", "odd", "--out", str(phi)]
    with monkeypatch.context() as patch:
        patch.setattr(writer, "open", refuse_phi, raising=False)
        assert run(capsys, *argv) == (
            3, "", f"precondition failed: cannot write {phi}: No space left on device\n")
    assert phi.read_bytes() == b"old phi\r\n"
    assert [path.name for path in out_dir.iterdir()] == [phi.name]
    target = out_dir / "dir"
    target.mkdir()
    assert run(capsys, "decompose", table, "--mode", "odd", "--out", str(target)) == (
        3, "", f"precondition failed: cannot write {target}: Is a directory\n")
    assert sorted(path.name for path in out_dir.iterdir()) == [target.name, phi.name]
    assert list(target.iterdir()) == []
    # unpatched, decompose replaces the old file, and again with the same bytes
    assert run(capsys, *argv)[0] == 0
    text = phi.read_bytes()
    assert text.startswith(b"phi domain=pnprime:5 a=2 group=Z2\n")
    assert run(capsys, *argv)[0] == 0
    assert phi.read_bytes() == text
    assert sorted(path.name for path in out_dir.iterdir()) == [target.name, phi.name]


def test_a_stale_temporary_is_passed_over(tmp_path, capsys):
    # a command killed mid-write leaves its temporary behind; a later command
    # of the same pid writes through the next free name and leaves the stale
    # files as they were
    table = write_parity(tmp_path, 5)
    clean, stale = tmp_path / "clean", tmp_path / "stale"
    clean.mkdir()
    stale.mkdir()
    planted = {stale / f".fndecomp-{os.getpid()}-{i}": b"junk %d\n" % i for i in range(2)}
    for path, data in planted.items():
        path.write_bytes(data)
    for out_dir in (clean, stale):
        assert run(capsys, "decompose", table, "--mode", "odd",
                   "--out", str(out_dir / "phi.txt"))[::2] == (0, "")
        assert run(capsys, "witness", "--kind", "hamming", "--n", "3", "--group", "Z3",
                   "--b", "1", "--out", str(out_dir / "w.tbl"))[::2] == (0, "")
    outputs = ["phi.txt", "w.tbl", "w.tbl.witness.txt"]
    assert sorted(path.name for path in clean.iterdir()) == outputs
    assert sorted(path.name for path in stale.iterdir()) == sorted(
        [*outputs, *(path.name for path in planted)])
    for name in outputs:
        assert (stale / name).read_bytes() == (clean / name).read_bytes()
    for path, data in planted.items():
        assert path.read_bytes() == data


WITNESS = ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1"]


def test_an_out_that_is_not_a_regular_file_is_refused(tmp_path, capsys):
    # a FIFO would be replaced by a regular file: it is refused, by witness
    # before its sidecar and by decompose --out, and stays a FIFO
    table = write_parity(tmp_path, 5)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    fifo = out_dir / "pipe"
    os.mkfifo(fifo)
    for argv in ([*WITNESS, "--out", str(fifo)],
                 ["decompose", table, "--mode", "odd", "--out", str(fifo)]):
        assert run(capsys, *argv) == (
            3, "", f"precondition failed: cannot write {fifo}: Not a regular file\n")
        assert [path.name for path in out_dir.iterdir()] == [fifo.name]
        assert fifo.is_fifo()


def test_an_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    # the link stays a link, and the file it names is replaced whole
    table = write_parity(tmp_path, 5)
    clean, linked = tmp_path / "clean", tmp_path / "linked"
    clean.mkdir()
    linked.mkdir()
    for name in ("w.tbl", "phi.txt"):
        (linked / name).write_text("old\n")
        (linked / f"link-{name}").symlink_to(name)
    for out_dir, prefix in ((clean, ""), (linked, "link-")):
        assert run(capsys, *WITNESS, "--out", str(out_dir / f"{prefix}w.tbl"))[::2] == (0, "")
        assert run(capsys, "decompose", table, "--mode", "odd",
                   "--out", str(out_dir / f"{prefix}phi.txt"))[::2] == (0, "")
    assert sorted(path.name for path in linked.iterdir()) == [
        "link-phi.txt", "link-w.tbl", "link-w.tbl.witness.txt", "phi.txt", "w.tbl"]
    for name in ("w.tbl", "phi.txt"):
        assert os.readlink(linked / f"link-{name}") == name
        assert (linked / name).read_bytes() == (clean / name).read_bytes()
    assert ((linked / "link-w.tbl.witness.txt").read_bytes()
            == (clean / "w.tbl.witness.txt").read_bytes())


def test_an_empty_out_is_refused(tmp_path, capsys, monkeypatch):
    # '' names the working directory: refused before any file is written
    table = write_parity(tmp_path, 5)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in ([*WITNESS, "--out", ""], ["decompose", table, "--mode", "odd", "--out", ""]):
        assert run(capsys, *argv) == (3, "", "precondition failed: cannot write : Is a directory\n")
        assert list(work.iterdir()) == []


def test_witness_writes_files(tmp_path, capsys):
    out_tbl = tmp_path / "w.tbl"
    code, out, _ = run(capsys, "witness", "--kind", "hamming", "--n", "3",
                       "--group", "Z3", "--b", "1", "--out", str(out_tbl), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["expected"] == "2"
    assert report["verdicts"]["claimed_k"] == 2
    table = load_table_file(out_tbl)
    assert table.arity == 3 and table.group == Z3
    sidecar = (tmp_path / "w.tbl.witness.txt").read_text()
    assert "expected=2" in sidecar and "claimed_k=2" in sidecar


def test_witness_tightness_and_large_alphabet(tmp_path, capsys):
    code, out, _ = run(capsys, "witness", "--kind", "tightness", "--ell", "2",
                       "--e", "2", "--n", "5", "--group", "Z4", "--b", "1",
                       "--out", str(tmp_path / "t.tbl"), "--json")
    assert code == 0 and json.loads(out)["verdicts"]["expected"] == "2"

    code, out, _ = run(capsys, "witness", "--kind", "large-alphabet", "--n", "2",
                       "--a-size", "3", "--group", "Z2", "--b", "1",
                       "--out", str(tmp_path / "l.tbl"), "--json")
    assert code == 0 and json.loads(out)["verdicts"]["claimed_k"] == 1


def test_witness_bad_arguments_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "witness", "--kind", "hamming", "--n", "3",
                       "--group", "Z4", "--b", "1", "--out", str(tmp_path / "x.tbl"))
    assert code == 3 and "power of two" in err
    # over the cell budget: refused before the table is built or written
    for extra in (["--kind", "hamming", "--n", "30", "--group", "Z3"],
                  ["--kind", "large-alphabet", "--n", "12", "--a-size", "13", "--group", "Z2"]):
        out_tbl = tmp_path / "big.tbl"
        code, _, err = run(capsys, "witness", *extra, "--b", "1", "--out", str(out_tbl))
        assert code == 3 and "budget" in err and not out_tbl.exists()


def test_huge_witness_arguments_are_refused_in_bounded_memory(tmp_path, capsys):
    import tracemalloc

    # each refusal comes before anything sized by the argument is built:
    # 2**e, or the letter sets {1..ell} and {1..n}
    keys = ("the key set of a phi map over a 1000001-letter alphabet exceeds the budget of "
            "4194304 words")
    cases = [(["--kind", "tightness", "--ell", "2", "--e", str(e), "--n", "4", "--group", "Z2"],
              f"group exponent 2 is not 2**{e}") for e in (10**8, 10**18)]
    cases += [(["--kind", "tightness", "--ell", str(10**6), "--e", "1", "--n", str(10**6),
                "--group", "Z2"], keys),
              (["--kind", "large-alphabet", "--n", str(10**6), "--a-size", str(10**6 + 1),
                "--group", "Z2"], keys)]
    # numbers of thousands of digits are quoted to 40 of them, even where the
    # message quotes a sum with more digits than str() converts
    big, cut, one = "9" * 4000, "9" * 40 + "...", "1" + "0" * 39 + "..."
    cases += [
        (["--kind", "large-alphabet", "--n", HUGE, "--a-size", "3", "--group", "Z4"],
         f"alphabet size must be >= n+1 = {one}, got 3"),
        (["--kind", "tightness", "--ell", HUGE, "--e", "2", "--n", "5", "--group", "Z4"],
         f"arity must be >= ell+e-1 = {one}, got 5"),
        (["--kind", "tightness", "--ell", big, "--e", "1", "--n", "5", "--group", "Z2"],
         f"arity must be >= ell+e-1 = {cut}, got 5"),
        (["--kind", "tightness", "--ell", "-" + big, "--e", "1", "--n", "5", "--group", "Z2"],
         f"alphabet parameter ell must be >= 1, got -{cut}"),
        (["--kind", "tightness", "--ell", "2", "--e", big, "--n", "5", "--group", "Z2"],
         f"group exponent 2 is not 2**{cut}"),
        (["--kind", "tightness", "--ell", "2", "--e", "1", "--n", big, "--group", "Z2"],
         f"a table of 3**{cut} cells"),
        (["--kind", "hamming", "--n", big, "--group", "Z3"], f"a table of 2**{cut} cells"),
        (["--kind", "hamming", "--n", "-" + big, "--group", "Z3"],
         f"arity must be >= 1, got -{cut}"),
        (["--kind", "large-alphabet", "--n", "3", "--a-size", big, "--group", "Z2"],
         f"the key set of a phi map over a {cut}-letter alphabet"),
        (["--kind", "large-alphabet", "--n", "3", "--a-size", "-" + big, "--group", "Z2"],
         f"alphabet size must be >= n+1 = 4, got -{cut}"),
    ]
    out_tbl = tmp_path / "w.tbl"
    for extra, message in cases:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "witness", *extra, "--b", "1", "--out", str(out_tbl))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and err.startswith(f"precondition failed: {message}")
        assert_refused(code, out, err)
        assert peak < 1 << 21 and not out_tbl.exists()


def test_unwritable_out_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing"
    witness = ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3", "--b", "1", "--out"]
    # the table file, then the sidecar (here a directory of that name, then
    # a name over 255 bytes); a refused witness leaves no table behind
    (tmp_path / "w.tbl.witness.txt").mkdir()
    for out_path in (missing / "w.tbl", tmp_path / "w.tbl", tmp_path / ("w" * 248)):
        code, out, err = run(capsys, *witness, str(out_path))
        assert code == 3 and out == ""
        assert err.startswith("precondition failed: cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_path.exists()
    # a table file that was there before keeps its content
    (tmp_path / "w.tbl").write_text("old\n")
    code, out, err = run(capsys, *witness, str(tmp_path / "w.tbl"))
    assert code == 3 and out == ""
    assert err.startswith(f"precondition failed: cannot write {tmp_path / 'w.tbl.witness.txt'}: ")
    assert (tmp_path / "w.tbl").read_text() == "old\n"
    path = write_parity(tmp_path, 5)
    code, out, err = run(capsys, "decompose", path, "--mode", "odd",
                         "--out", str(missing / "p.txt"))
    assert code == 3 and out == ""
    assert err.startswith(f"precondition failed: cannot write {missing / 'p.txt'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_json_reports_are_deterministic(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code1, out1, _ = run(capsys, "analyze", path, "--json")
    code2, out2, _ = run(capsys, "analyze", path, "--json")
    assert code1 == code2 == 0 and out1 == out2
    # --meta adds a volatile block outside the stable payload
    _, out3, _ = run(capsys, "analyze", path, "--json", "--meta")
    report = json.loads(out3)
    assert "meta" in report
    stable = json.loads(out1)
    del report["meta"]
    assert report == stable


GOLDEN = Path(__file__).with_name("cli_golden.json")
GOLDEN_COMMANDS = {
    "analyze-parity": ["analyze", "parity.tbl"],
    "analyze-constant": ["analyze", "const.tbl"],
    "decompose-odd": ["decompose", "parity.tbl", "--mode", "odd", "--out", "phi.txt"],
    "decompose-taylor": ["decompose", "parity.tbl", "--mode", "taylor", "--k", "1"],
    "decompose-taylor-z3": ["decompose", "xy_plus_z.tbl", "--mode", "taylor", "--k", "2"],
    "classify-boolean": ["classify", "parity.tbl", "--target", "boolean"],
    "classify-z3": ["classify", "z3.tbl", "--target", "z3"],
    "identities": ["identities", "--max-m", "4"],
    "witness-hamming": ["witness", "--kind", "hamming", "--n", "3", "--group", "Z3",
                        "--b", "1", "--out", "w.tbl"],
}
GOLDEN_FAILURES = {
    "parse-error": ["analyze", "bad.tbl"],
    "precondition": ["decompose", "parity4.tbl", "--mode", "odd"],
    "argument": ["decompose", "parity.tbl", "--mode", "taylor"],
}


def golden_outputs(tmp_path):
    """Exit code, stdout, stderr and written files of every golden command,
    each in text and --json, run in tmp_path with its path written <tmp>."""
    import contextlib
    import io

    save_table_file(FnTable.from_callable(2, 3, Z2, lambda x: (sum(x) % 2,)),
                    tmp_path / "parity.tbl")
    save_table_file(FnTable.from_callable(2, 4, Z2, lambda x: (sum(x) % 2,)),
                    tmp_path / "parity4.tbl")
    save_table_file(FnTable.constant(2, 2, Group((2, 4)), (1, 3)), tmp_path / "const.tbl")
    # summands on sets of size 0, 1 and 2, zero and nonzero
    save_table_file(FnTable.from_callable(3, 3, Z3, lambda x: ((x[0] * x[1] + x[2]) % 3,)),
                    tmp_path / "xy_plus_z.tbl")
    save_table_file(z3_build(4, Z3Params(1, 2, 2, 2)), tmp_path / "z3.tbl")
    (tmp_path / "bad.tbl").write_text("domain=2\narity=2\ngroup=Z2\n0 1 1\n")
    cases = {f"{name}{flag}": argv + flag.split() for name, argv in GOLDEN_COMMANDS.items()
             for flag in ("", " --json")}
    cases.update(GOLDEN_FAILURES)
    written = ["phi.txt", "w.tbl", "w.tbl.witness.txt"]
    results = {}
    for name, argv in cases.items():
        for out_name in written:
            (tmp_path / out_name).unlink(missing_ok=True)
        argv = [str(tmp_path / a) if a.endswith((".tbl", ".txt")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {n: (tmp_path / n).read_text() for n in written if (tmp_path / n).exists()}
        result = {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "files": files}
        results[name] = json.loads(json.dumps(result).replace(str(tmp_path), "<tmp>"))
    return results


def test_golden_outputs(tmp_path):
    # the stored outputs are the contract: regenerate them with
    # `python tests/test_cli.py` and review the diff
    assert golden_outputs(tmp_path) == json.loads(GOLDEN.read_text())


def test_no_module_imports_typing():
    # typing costs every command milliseconds to import: annotations are
    # strings (from __future__ import annotations) and the abstract types
    # come from collections.abc.  test_console.py runs the commands without
    # site (-S), where no .pth file imports typing first
    import ast

    for path in sorted((SRC / "fndecomp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert all(name.split(".")[0] != "typing" for name in names), path.name


# The start-up checks under the names of the commands they were first made
# on, each the ROWS row that runs it.  Each asserts everything the probe
# checks (test_console.py); a row's probe child runs once in a session,
# whichever of these tests reads it.
STARTUP = {"help": "help", "taylor": "taylor", "taylor=": "taylor=", "odd": "odd",
           "odd=": "odd=", "even": "even", "fitilde": "fitilde", "odd-out": "odd-out",
           "analyze": "analyze", "classify-boolean": "boolean", "classify-z3": "z3",
           "identities": "exact", "witness": "hamming"}


@pytest.mark.parametrize("argv", [["--help"], ["identities", "--max-m", "3"]])
def test_startup_imports(argv):
    [row] = [name for name in STARTUP.values() if ROWS[name].argv == argv]
    assert_compiles_only_its_modules(row)


@pytest.mark.parametrize("row", STARTUP.values(), ids=STARTUP)
def test_startup_compiles_only_the_modules_a_command_runs(row):
    assert_compiles_only_its_modules(row)


@pytest.mark.parametrize("row", [*STARTUP.values(), "abbreviated"],
                         ids=[*STARTUP, "identities-abbreviated"])
def test_argparse_loads_after_the_modules_a_command_runs(row):
    assert_compiles_only_its_modules(row)


def test_cli_run_as_a_script_is_compiled_once():
    assert_compiles_only_its_modules("script")


PARSER = _build_parser()
# words that are no option of any subcommand, or not of all of them
STRAY = ["", "x", "-", "--", "-h", "--help", "-1", "--1", "-x", "--nope", "--mode", "--target=z3"]
TEXT = st.text("ab1Z,= -", min_size=1).filter(lambda text: not text.startswith("-"))


def option_values(kind):
    """Values an option (or, as str, the positional) of this kind accepts, and
    values it refuses or that only argparse reads (empty, or starting with
    "-")."""
    if kind is int:
        return (st.one_of(st.integers(0, 99).map(str), st.sampled_from([" 7", "+3", "1_0", "007"])),
                st.sampled_from(["", "x", "1.5", "0x1", "-1", "1__0", "9" * 4301]))
    if kind is str:
        return TEXT, st.sampled_from(["", "-", "-x", "-h", "--json", "-1"])
    return st.sampled_from(kind), st.sampled_from(["", "bogus", kind[0][:2], kind[0].upper()])


@st.composite
def command_argv(draw):
    """(argv, well_formed): a subcommand of cli._COMMANDS with a positional
    if it takes one and its options in any order, each written "--opt value"
    or "--opt=value", then up to two mutations: an abbreviated flag, a
    repeated or dropped word, argv cut short, an option moved to the end
    without its value, a stray word, a switch given a value or another
    subcommand name.  A bad value, positional or option, also makes argv not
    well formed."""
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    _, positional, options = _COMMANDS[cmd]
    valued = {flag for flag, kind, _, _ in options if kind is not bool}
    well_formed = True

    def value(kind):
        nonlocal well_formed
        good, bad = option_values(kind)
        valid = draw(st.integers(0, 4)) > 0
        well_formed &= valid
        return draw(good if valid else bad)

    items = [[value(str)]] if positional else []
    for flag, kind, required, _ in options + _COMMON:
        if not required and draw(st.booleans()):
            continue
        if kind is bool:
            items.append([flag])
            continue
        text = value(kind)
        items.append(draw(st.sampled_from([[flag, text], [f"{flag}={text}"]])))
    words = [cmd, *(word for item in draw(st.permutations(items)) for word in item)]
    for _ in range(draw(st.integers(0, 2))):
        well_formed = False
        at = draw(st.integers(1, len(words) - 1)) if len(words) > 1 else None
        mutation = draw(st.sampled_from(["abbreviate", "repeat", "drop", "cut", "no value",
                                         "stray", "switch=", "command"]))
        if mutation == "abbreviate" and at and words[at].startswith("--"):
            flag, eq, value = words[at].partition("=")
            words[at] = flag[:draw(st.integers(2, max(2, len(flag) - 1)))] + eq + value
        elif mutation == "repeat" and at:
            words.insert(draw(st.integers(1, len(words))), words[at])
        elif mutation == "drop" and at:
            del words[at]
        elif mutation == "cut" and at:
            del words[at:]
        elif mutation == "no value" and at and words[at].partition("=")[0] in valued:
            flag, eq, _ = words[at].partition("=")
            del words[at:at + (1 if eq else 2)]
            words.append(flag)
        elif mutation == "stray":
            words.insert(draw(st.integers(1, len(words))), draw(st.sampled_from(STRAY)))
        elif mutation == "switch=":
            switch = draw(st.sampled_from(["--json", "--meta"]))
            words = [word for word in words if word != switch]
            words.insert(draw(st.integers(1, len(words))),
                         f"{switch}={draw(st.sampled_from(['', '1', 'x']))}")
        elif mutation == "command":
            words[0] = draw(st.sampled_from(["", "anal", "Analyze", "-h", "--help", "odd",
                                             *_COMMANDS]))
    return words, well_formed


@settings(max_examples=600, deadline=None)
@given(command_argv())
def test_read_argv_gives_what_argparse_gives_or_declines(case):
    # argparse is the oracle: the reader answers a well-formed command with
    # parse_args' namespace, and declines (None) wherever parse_args exits
    argv, well_formed = case
    read = _read_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(PARSER.parse_args(argv))
    except SystemExit:
        assert read is None
        return
    assert read is None or vars(read) == parsed
    assert read is not None or not well_formed


def test_read_argv_answers_every_golden_and_startup_command():
    argvs = [case["argv"] for case in json.loads(GOLDEN.read_text()).values()]
    argvs += [row.argv for name, row in ROWS.items() if name not in ARGPARSE]
    for argv in argvs:
        read = _read_argv(argv)
        assert read is not None and vars(read) == vars(PARSER.parse_args(argv)), argv
    assert all(_read_argv(ROWS[name].argv) is None for name in ARGPARSE)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_outputs(Path(tmp)), indent=2, sort_keys=True) + "\n")
