import json

import numpy as np
import pytest

from eqlines.cli import main
from eqlines.hadamard import parse_sign_matrix, render_sign_matrix, sylvester


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hadamard_gen(capsys):
    code, out, _ = run(capsys, "hadamard", "gen", "sylvester:2")
    assert code == 0
    m = parse_sign_matrix(out)
    assert m.d == 4


def test_hadamard_check_ok(capsys):
    code, out, _ = run(capsys, "hadamard", "check", "paley1:7", "--json")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_hadamard_check_fails_with_code_1(capsys, tmp_path):
    p = tmp_path / "bad.had"
    p.write_text("++\n++\n")
    code, out, err = run(capsys, "hadamard", "check", str(p))
    assert code == 1


def test_usage_error_is_code_2(capsys):
    assert run(capsys, "hadamard", "gen", "sylvester:abc")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "sic", "build", "--had", "sylvester:1", "--ring", "gf:5")[0] == 2


def test_sic_build_and_verify_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "sic.json"
    code, _, _ = run(capsys, "sic", "build", "--had", "sylvester:1",
                     "--ring", "gf:3", "--out", str(out_path))
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["verdict"]["passed"] is True
    assert blob["d"] == 2
    code, out, _ = run(capsys, "sic", "verify", str(out_path), "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_sic_verify_rejects_tampered_file(capsys, tmp_path):
    out_path = tmp_path / "sic.json"
    run(capsys, "sic", "build", "--had", "sylvester:1", "--ring", "gf:3",
        "--out", str(out_path))
    blob = json.loads(out_path.read_text())
    blob["vectors"][0][0] = [0, 0]
    out_path.write_text(json.dumps(blob))
    code, _, _ = run(capsys, "sic", "verify", str(out_path))
    assert code == 1


def test_sic_primes(capsys):
    code, out, _ = run(capsys, "sic", "primes", "--dim", "36", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["primes"] == [7] and blob["all_odd_primes"] is False


def test_sic_scan(capsys):
    code, out, _ = run(capsys, "sic", "scan", "--prime", "3", "--max", "50", "--json")
    assert code == 0
    blob = json.loads(out)
    assert [e["d"] for e in blob["dimensions"]] == [2, 8, 20, 32, 44]


def test_aut_hadamard(capsys):
    code, out, _ = run(capsys, "aut", "hadamard", "--had", "sylvester:1",
                       "--strength", "weak", "--json")
    assert code == 0
    assert json.loads(out)["order"] == "4"


def test_aut_sic(capsys):
    code, out, _ = run(capsys, "aut", "sic", "--had", "sylvester:1",
                       "--ring", "gf:3", "--strength", "strong", "--json")
    assert code == 0
    assert json.loads(out)["group"]["order"] == "24"


def test_aut_tilde(capsys):
    code, out, _ = run(capsys, "aut", "tilde", "--had", "sylvester:1", "--json")
    assert code == 0
    assert json.loads(out)["group"]["order"] == "24"


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "aut", "sic", "--had", "paley1:19",
                       "--ring", "gf:3", "--budget", "5")
    assert code == 3
    assert "graph_automorphisms exceeded its budget of 5 search nodes" in err


def test_sandwich_json_deterministic(capsys):
    code, out1, _ = run(capsys, "sandwich", "--had", "sylvester:1",
                        "--ring", "gf:3", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "sandwich", "--had", "sylvester:1",
                        "--ring", "gf:3", "--json")
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["indices"][1] in (1, 2)
    assert blob["groups"]["strong_sic"]["order"] == "24"


def test_sandwich_constructs_once(capsys, monkeypatch):
    import eqlines.analysis as analysis
    import eqlines.cli as cli
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return construct(*args, **kwargs)

    construct = cli.construct_sic
    monkeypatch.setattr(cli, "construct_sic", counted)
    monkeypatch.setattr(analysis, "construct_sic", counted)
    code, _, _ = run(capsys, "sandwich", "--had", "sylvester:1", "--ring", "gf:3")
    assert code == 0 and len(calls) == 1


def test_witness_check(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({
        "pi": [0, 1], "sigma": [0, 1],
        "row_signs": [1, 1], "col_signs": [1, 1],
    }))
    code, out, _ = run(capsys, "witness", "check", "--source", "sylvester:1",
                       "--target", "sylvester:1", "--witness", str(wpath),
                       "--ring", "gf:3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["valid"] is True
    assert blob["induced_index_map"] == [0, 1, 2, 3]


def test_witness_check_rejects(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({
        "pi": [0, 1], "sigma": [0, 1],
        "row_signs": [-1, 1], "col_signs": [1, 1],
    }))
    code, _, _ = run(capsys, "witness", "check", "--source", "sylvester:1",
                     "--target", "sylvester:1", "--witness", str(wpath))
    assert code == 1


def test_failure_payload_goes_to_out(capsys, tmp_path):
    sic_path, out_path = tmp_path / "sic.json", tmp_path / "verdict.json"
    run(capsys, "sic", "build", "--had", "sylvester:1", "--ring", "gf:3",
        "--out", str(sic_path))
    blob = json.loads(sic_path.read_text())
    blob["vectors"][0][0] = [0, 0]
    sic_path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "sic", "verify", str(sic_path), "--json",
                       "--out", str(out_path))
    assert code == 1 and out == ""
    verdict = json.loads(out_path.read_text())
    assert verdict["passed"] is False and verdict["failed_axiom"] == "a"


@pytest.mark.parametrize("argv", [
    ["sandwich", "--had", "sylvester:1", "--ring", "gf:3", "--json"],
    ["aut", "sic", "--had", "sylvester:1", "--ring", "gf:3", "--json"],
])
def test_group_commands_verify_before_searching(capsys, monkeypatch, argv):
    import eqlines.cli as cli
    from eqlines.sic import SicVerdict

    def failing(s):
        one = s.ring.one
        return SicVerdict(False, one, one, one, failed_axiom="b", witness=(0, 1))

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran on an unverified system")

    monkeypatch.setattr(cli, "verify_sic", failing)
    monkeypatch.setattr(cli, "sandwich_report", no_search)
    monkeypatch.setattr(cli, "sic_aut_parts", no_search)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    blob = json.loads(out)
    assert blob["passed"] is False and blob["failed_axiom"] == "b"
    assert blob["witness"] == [0, 1]
