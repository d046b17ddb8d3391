import json

from rqgraph.cli import main
from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "table2.csv")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_json_envelope(capsys):
    code, out = run(capsys, ["spectrum", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert payload["tool_version"]
    res = payload["results"]
    assert res["degree"] == 10
    assert res["ramanujan"] is True
    assert res["lambda_max_nontrivial"] == 2.0
    groups = {round(e["value"]): e["multiplicity"] for e in res["entries"]}
    assert groups == {10: 1, 0: 6, -2: 5}


def test_spectrum_oracle_flag(capsys):
    code, out = run(capsys, ["spectrum", "--subset", "m=4;pairs=1,2,3;delta=1;ypairs=0,1,2,3", "--oracle"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["oracle_agrees"] is True
    assert res["oracle_max_delta"] <= 1e-8


def test_spectrum_non_ramanujan_witness(capsys):
    # m=9 at covalency 11 with the whole y-coset kept: |second eigenvalue| = 11
    code, out = run(
        capsys,
        ["spectrum", "--subset", "m=9;pairs=1,2,3;delta=1;ypairs=0,1,2,3,4,5,6,7,8"],
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["covalency"] == 11
    assert res["ramanujan"] is False
    assert res["lambda_max_nontrivial"] == 11.0


def test_spectrum_evaluates_each_block_once(capsys, monkeypatch):
    """full_spectrum, lambda_max_nontrivial and is_ramanujan share one pass."""
    from rqgraph import spectra

    calls = []
    original = spectra._block

    def counting(xp, subset, j):
        calls.append((xp.__name__, j))
        return original(xp, subset, j)

    monkeypatch.setattr(spectra, "_block", counting)
    spectra._raw_values.cache_clear()
    code, out = run(capsys, ["spectrum", "--subset", "m=12;pairs=1,5,7;delta=1;ypairs=0,3,11"])
    assert code == 0
    assert json.loads(out)["results"]["degree"] == 13
    assert sorted(calls) == [("math", j) for j in range(1, 12)]


def test_cli_bad_input_is_a_clean_error(capsys):
    code = main(["spectrum", "--subset", "m=3;pairs=9;delta=0;ypairs=0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)


def test_spectrum_csv(capsys):
    code, out = run(capsys, ["spectrum", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity"
    assert len(lines) == 4


def test_outputs_are_byte_identical(capsys):
    argv = ["spectrum", "--subset", "m=5;pairs=1,3;delta=1;ypairs=0,2,4", "--oracle"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_lbound_exact_and_closed_form(capsys):
    code, out = run(capsys, ["lbound", "--m", "5", "--family", "s", "--exact"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["exact_safe_covalency"] == 6
    assert res["trivial_bound"] == 6
    assert res["matches_trivial_bound"] is True

    code, out = run(capsys, ["lbound", "--m", "63"])
    assert code == 0
    assert json.loads(out)["results"] == {"family": "s", "m": 63, "trivial_bound": 29}

    code, out = run(capsys, ["lbound", "--m", "4", "--family", "sprime", "--exact"])
    assert json.loads(out)["results"]["exact_safe_covalency"] == 6


def test_exceptional_both_routes(capsys):
    code, out = run(capsys, ["exceptional", "--p", "67", "--method", "both"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["routes_agree"] is True
    assert res["verdicts"]["spectral"]["exceptional"] is True
    assert res["verdicts"]["arithmetic"]["witness"] == {"r": 6, "c": 4, "k": 1}

    code, out = run(capsys, ["exceptional", "--p", "151", "--method", "both"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["verdicts"]["spectral"]["exceptional"] is False
    assert res["verdicts"]["arithmetic"]["exceptional"] is False


def test_exceptional_out_of_scope(capsys):
    code, out = run(capsys, ["exceptional", "--p", "61"])
    assert code == 0
    assert json.loads(out)["results"]["status"] == "out of theorem scope"


def test_table2_single_row_csv(capsys):
    code, out = run(capsys, ["table2", "--rows", "9,7", "--xmax", "20000", "--prime-bound", "100000"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,c,k_threshold,p1")
    cells = lines[1].split(",")
    assert cells[:3] == ["9", "7", "1"]
    assert cells[3:8] == ["79", "223", "439", "727", "1087"]


def test_table2_fixture_diff_clean_row(capsys):
    code, out = run(
        capsys,
        ["table2", "--rows", "9,7", "--xmax", str(10**12),
         "--prime-bound", "1000000", "--fixture", FIXTURE, "--json"],
    )
    payload = json.loads(out)
    row = payload["results"]["rows"][0]
    assert row["k_threshold"] == 1
    assert row["count"] == 24281
    assert payload["results"]["failures"] == []
    assert code == 0


def test_table2_fixture_diff_discrepant_row(capsys):
    # the recomputed threshold for this family differs from the reference
    # table (see README); the diff must surface it and fail the run
    code, out = run(
        capsys,
        ["table2", "--rows", "0,-5", "--xmax", str(10**12),
         "--prime-bound", "1000000", "--fixture", FIXTURE, "--json"],
    )
    payload = json.loads(out)
    assert code == 1
    fails = payload["results"]["failures"]
    assert fails and fails[0]["check"] == "fixture_diff"
    assert "k_threshold" in fails[0]["diffs"]


def test_fixture_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RQ_FIXTURE_DIR", str(DATA_DIR))
    code, out = run(
        capsys,
        ["table2", "--rows", "9,7", "--xmax", str(10**12), "--prime-bound", "1000000", "--json"],
    )
    payload = json.loads(out)
    assert payload["parameters"]["fixture"].endswith("table2.csv")
    assert code == 0


def test_float_formatting_is_15_significant_digits(capsys):
    _, out = run(capsys, ["exceptional", "--p", "67", "--method", "spectral"])
    res = json.loads(out)["results"]
    val = res["verdicts"]["spectral"]["witness"]["mu2_abs"]
    assert val == float(f"{val:.15g}")
