import hashlib
import json

import pytest

from fndecomp import FnTable, Group, ParseError, load_phi, load_table_file, save_table_file
from fndecomp.cli import main
from fndecomp.classify import Z3Params, z3_build

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


def test_analyze_parity(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["gap"] == 2
    assert report["verdicts"]["oddsupp_determined"] is True
    assert report["verdicts"]["min_decomposition_arity"] == 1
    assert report["verdicts"]["essential_arity"] == 4


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


def test_reported_digest_is_of_the_parsed_bytes(tmp_path, capsys):
    path = write_parity(tmp_path, 3)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    data = (tmp_path / "parity.tbl").read_bytes()
    assert json.loads(out)["inputs"] == [
        {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    ]


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


def test_decompose_fitilde_reports_rank(tmp_path, capsys):
    path = write_parity(tmp_path, 4)
    code, out, _ = run(capsys, "decompose", path, "--mode", "fitilde", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["reconstruction"] == "exact"
    assert "system_rank" in report["verdicts"]


def test_decompose_fitilde_reconstruction_still_guards_the_verdict(tmp_path, capsys, monkeypatch):
    import fndecomp.booldecomp as booldecomp_mod

    path = write_parity(tmp_path, 4)
    wrong = FnTable.constant(2, 4, Z2, (0,))
    monkeypatch.setattr(booldecomp_mod, "reconstruct_uniform", lambda phi: wrong)
    code, out, err = run(capsys, "decompose", path, "--mode", "fitilde", "--json")
    assert code == 4 and out == "" and "reconstruction" in err


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


def test_identities_mismatch_exits_4(capsys, monkeypatch):
    # the identities hold, so exercise the tripwire wiring with a stub
    import fndecomp.cli as cli_mod

    monkeypatch.setattr(cli_mod.identities, "even_sum_rows",
                        lambda max_m: [(2, 0, 1, 0, False)])
    code, _, err = run(capsys, "identities", "--max-m", "2")
    assert code == 4 and "mismatch" in err


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
