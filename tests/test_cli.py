import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from eqlines.autgraph import DEFAULT_BUDGET
from eqlines.cli import build_parser, main
from eqlines.exactalg import Ring
from eqlines.hadamard import from_recipe, parse_sign_matrix, render_sign_matrix, sylvester
from eqlines.sic import MAX_PRIME_BOUND, SicVerdict, construct_sic


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


@pytest.mark.parametrize("argv", [
    ["sic", "verify", "saved.json", "--cap", "8"],
    ["sic", "primes", "--dim", "8", "--cap", "8"],
    ["hadamard", "gen", "sylvester:1", "--json"],
])
def test_unread_options_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_cli_imports_without_sympy():
    code = "import eqlines.cli, sys; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("recipe", ["sylvester:3", "had file"])
def test_cap_applies_to_every_recipe(capsys, tmp_path, recipe):
    if recipe == "had file":
        recipe = str(tmp_path / "s3.had")
        (tmp_path / "s3.had").write_text(render_sign_matrix(sylvester(3)))
    code, out, err = run(capsys, "hadamard", "gen", recipe, "--cap", "4")
    assert (code, out) == (2, "")
    assert "order 8 exceeds cap 4" in err
    assert run(capsys, "hadamard", "gen", recipe, "--cap", "8")[0] == 0


@pytest.mark.parametrize("recipe", ["kron:sylvester:9,sylvester:1",
                                    "kron:sylvester:1,sylvester:9"])
def test_cap_applies_to_either_kron_factor(capsys, recipe):
    # a factor over the cap is reported as such on either side of the comma
    code, out, err = run(capsys, "hadamard", "gen", recipe)
    assert (code, out) == (2, "")
    assert "order 512 exceeds cap 256" in err


def test_default_budget_is_the_library_default(monkeypatch):
    monkeypatch.delenv("EQLINES_BUDGET", raising=False)
    args = build_parser().parse_args(["aut", "tilde", "--had", "sylvester:1"])
    assert args.budget == DEFAULT_BUDGET


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


def test_sic_primes_bound_is_limited(capsys):
    code, out, err = run(capsys, "sic", "primes", "--dim", "8",
                         "--bound", str(MAX_PRIME_BOUND + 1))
    assert (code, out) == (2, "")
    assert f"exceeds the largest bound {MAX_PRIME_BOUND}" in err


def test_sic_primes_dim8_plain(capsys):
    # for d = 8 every prime divides d - 8, but only p = 3 (mod 4) gives a ring
    code, out, _ = run(capsys, "sic", "primes", "--dim", "8")
    assert (code, out) == (0, "every prime p = 3 (mod 4)\n")


def _reference_build_text(recipe, ring, verdict):
    """The `sic build` payload written by json.dumps from the nested lists
    of SicSystem.to_json_dict."""
    s = construct_sic(from_recipe(recipe), Ring(ring))
    payload = {**s.to_json_dict(), "verdict": verdict}
    return s, json.dumps(payload, sort_keys=True, indent=2) + "\n"


_PASSED = {"a": 12, "b": 16, "c": 96, "failed_axiom": None, "passed": True}


@pytest.mark.parametrize("ring,dtype", [
    ("gf:3", np.int64), ("gf:2305843009213693951", object), ("gauss", np.int64),
    ("gaussq", np.int64),
])
def test_sic_build_writer_matches_json_dumps(capsys, ring, dtype):
    s, want = _reference_build_text("sylvester:3", ring, _PASSED)
    assert s.vectors.re.dtype == dtype
    if ring == "gauss":
        assert (s.vectors.re < 0).any() and (s.vectors.im < 0).any()
    code, out, _ = run(capsys, "sic", "build", "--had", "sylvester:3", "--ring", ring, "--json")
    assert code == 0 and out == want


def test_sic_build_failure_payload_matches_json_dumps(capsys, tmp_path, monkeypatch):
    import eqlines.cli as cli

    def failing(s):
        a, b, c = (s.ring.el(v) for v in (12, 16, 96))
        return SicVerdict(False, a, b, c, failed_axiom="b", witness=(0, 1))

    monkeypatch.setattr(cli, "verify_sic", failing)
    _, want = _reference_build_text("sylvester:3", "gauss",
                                    {**_PASSED, "failed_axiom": "b", "passed": False})
    path = tmp_path / "failed.json"
    code, out, err = run(capsys, "sic", "build", "--had", "sylvester:3", "--ring", "gauss",
                         "--out", str(path))
    assert (code, out) == (1, "") and "verification failed" in err
    assert path.read_text() == want


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


def test_pruned_search_fits_a_small_budget(capsys):
    # without automorphism pruning this search takes 14,079 nodes
    code, out, _ = run(capsys, "aut", "hadamard", "--had", "paley1:31",
                       "--strength", "weak", "--budget", "2000", "--json")
    assert code == 0
    assert json.loads(out)["order"] == "14880"


@pytest.mark.parametrize("budget", ["abc", "0"])
def test_budget_must_be_positive(capsys, budget):
    code, out, err = run(capsys, "aut", "tilde", "--had", "sylvester:1", "--budget", budget)
    assert code == 2 and out == ""
    assert f"argument --budget: '{budget}' is not a positive integer" in err


def test_budget_environment_read_by_search_commands_only(capsys, monkeypatch):
    monkeypatch.setenv("EQLINES_BUDGET", "abc")
    assert run(capsys, "hadamard", "gen", "sylvester:1")[0] == 0
    assert run(capsys, "aut", "tilde", "--had", "sylvester:1")[0] == 2
    monkeypatch.setenv("EQLINES_BUDGET", "3")
    assert run(capsys, "aut", "tilde", "--had", "sylvester:1")[0] == 3


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


_IDENTITY_WITNESS = {"pi": [0, 1], "sigma": [0, 1], "row_signs": [1, 1], "col_signs": [1, 1]}


@pytest.mark.parametrize("change,message", [
    (lambda w: w.pop("col_signs"), "needs the keys pi, sigma, row_signs, col_signs"),
    (lambda w: w.update(pi=[0]), "witness pi must be a list of 2 integers"),
    (lambda w: w.update(sigma=[0, 1, 2]), "witness sigma must be a list of 2 integers"),
    (lambda w: w.update(row_signs=[1]), "witness row_signs must be a list of 2 integers"),
    (lambda w: w.update(col_signs=[1, 1.0]), "witness col_signs must be a list of 2 integers"),
    (lambda w: w.update(pi=[1, 1]), "witness pi is not a permutation of 0..1"),
    (lambda w: w.update(row_signs=[2, 1]), "witness row_signs has entries other than 1 and -1"),
    (lambda w: w.update(col_signs=[1, 0]), "witness col_signs has entries other than 1 and -1"),
], ids=["no col_signs", "short pi", "long sigma", "short row_signs", "fractional sign",
        "pi not a bijection", "row sign 2", "column sign 0"])
def test_witness_check_rejects_malformed_file(capsys, tmp_path, change, message):
    wpath = tmp_path / "w.json"
    witness = dict(_IDENTITY_WITNESS)
    change(witness)
    wpath.write_text(json.dumps(witness))
    code, out, err = run(capsys, "witness", "check", "--source", "sylvester:1",
                         "--target", "sylvester:1", "--witness", str(wpath), "--ring", "gf:3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_witness_check_rejects_order_mismatch(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(_IDENTITY_WITNESS))
    code, out, err = run(capsys, "witness", "check", "--source", "sylvester:1",
                         "--target", "sylvester:2", "--witness", str(wpath))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "order 2 and target order 4 differ" in err


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


@pytest.mark.parametrize("change,message", [
    (lambda blob: blob["vectors"][0][1].__setitem__(0, 2.5), "2.5 is not an integer"),
    (lambda blob: blob.update(vectors=[]), "shape (0,)"),
    (lambda blob: blob.pop("source"), "needs the keys d, ring, source, vectors"),
    (lambda blob: blob.update(d=3), "got d = 3"),
    (lambda blob: blob["vectors"][0].__setitem__(0, [True, False]), "True is not a component"),
], ids=["fractional component", "no vectors", "no source", "wrong d", "boolean component"])
def test_sic_verify_rejects_malformed_file(capsys, tmp_path, change, message):
    path = tmp_path / "sic.json"
    run(capsys, "sic", "build", "--had", "sylvester:1", "--ring", "gf:3", "--out", str(path))
    blob = json.loads(path.read_text())
    change(blob)
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "sic", "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


# SHA-256 of the exact stdout of `sic build --json`, as first recorded
@pytest.mark.parametrize("recipe,ring,digest", [
    ("sylvester:1", "gf:3", "fc16c58b70c23be1bba8ae6c88f5cbf9220ff94ffa6d425e2ca5c1770a586f62"),
    ("sylvester:3", "gaussq", "6a5d45dff0732ecbd7085c87d3cd372ed993091a868037868b10492e294aa8f4"),
    ("sylvester:3", "gf:2305843009213693951",
     "fbea79d9c89f04c02091382d6120d2d4aff1e405048a2f7912e43a4810a8be51"),
    ("sylvester:5", "gf:3", "feb772282348027a991c345d3a9eef3dc7c61ab55b138005d50e78a24ca03916"),
    ("paley2:17", "gf:7", "3de82074aab37bb0ca023d66ea4f6dc5209bad93270d2a5ed878b355d2692a2d"),
])
def test_sic_build_output_bytes(capsys, recipe, ring, digest):
    code, out, _ = run(capsys, "sic", "build", "--had", recipe, "--ring", ring, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the exact stdout of a search command, as first recorded: a
# changed generator list changes it
def test_aut_hadamard_output_bytes(capsys):
    code, out, _ = run(capsys, "aut", "hadamard", "--had", "paley1:19",
                       "--strength", "weak", "--json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "61861a50f06ca8abbde614b9a90b8831a74bf864d91f4a207e3cc4f23fc33a41")


# the same for searches where automorphism pruning skips subtrees, as
# recorded before it was added: the weak groups of wide Hadamard matrices,
# a strong group of Ht, and (slow) the order-20 line-system groups, whose
# two eps = -1 cosets are empty
@pytest.mark.parametrize("argv,digest", [
    (["aut", "hadamard", "--had", "sylvester:5", "--strength", "weak"],
     "a12a5b57f356de81a4e434dd7ba52e8895ed3471de62cbe5b582d6da56a526b8"),
    (["aut", "hadamard", "--had", "paley1:31", "--strength", "weak"],
     "9e57893e8a52f2cadad4ddce27eb9337c0b7a69c2ca78229ae8a9ef1922b3aed"),
    (["aut", "hadamard", "--had", "paley2:17", "--strength", "weak"],
     "01c491dd5956f8fd7f8ca9a492c226dcde3e280d3600edc93d31f3c36351ed9d"),
    (["aut", "tilde", "--had", "paley1:11"],
     "42df99fd07b1c666cf1892e2376b7cd89b30a8061008477d2024e4b93a081291"),
    pytest.param(
        ["aut", "sic", "--had", "paley1:19", "--ring", "gf:3", "--strength", "weak"],
        "26c6cd34a5b7322a4f6b3f3960857f47b725a215e5f34d51ba78d4c952312dfe",
        marks=pytest.mark.slow),
], ids=["sylvester:5 weak", "paley1:31 weak", "paley2:17 weak", "tilde paley1:11",
        "aut sic paley1:19"])
def test_pruned_search_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same for a sandwich: three automorphism searches and the isomorphism
# searches of all three recolorings.  Re-recorded when the chain came to be
# searched bottom-up, each search seeded with the group below it: only the
# generator lists of strong_sic, weak_sic and strong_tilde changed, and
# tests/test_analysis.py::test_seeded_chain_equals_the_unseeded_groups
# shows the groups are the unseeded ones
def test_sandwich_output_bytes(capsys):
    code, out, _ = run(capsys, "sandwich", "--had", "sylvester:3", "--ring", "gf:3", "--json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "95a78fd819b2b58c0be583b38ef5f9982bd9913343d5bfc6d412f71dc0511421")


# the same for the line-system groups: `aut sic` prints the coset
# witnesses, which a sandwich does not; the sandwich is over the Gaussian
# integers (re-recorded with the seeded chain, as above)
@pytest.mark.parametrize("argv,digest", [
    (["aut", "sic", "--had", "sylvester:3", "--ring", "gf:3", "--strength", "weak"],
     "73f450f9ea331903fb6a53eb04dd928c650b4775fdfb19c02dafe61473861fcb"),
    (["sandwich", "--had", "sylvester:3", "--ring", "gauss"],
     "3e6f9c48510e851a7c630e580f4a7c1a5a14c3aa6200268a9b330b7fac1c04e6"),
], ids=["aut sic", "sandwich gauss"])
def test_line_group_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
