import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import rqgraph
from rqgraph import bounds, dense, primes, spectra, subsets
from rqgraph.cli import main
from conftest import DATA_DIR, full_subset

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
    """full_spectrum, lambda_max_nontrivial and is_ramanujan share one pass:
    every frequency 1..m-1 is evaluated once, in doubles, and mpmath never,
    both below spectra.MIN_BLOCK_ANGLES (one frequency at a time) and above
    it (blocks of frequencies)."""
    calls = []
    original = spectra._block

    def counting(xp, *blocks):
        calls.append((xp, np.ravel(blocks[-1]).tolist()))
        return original(xp, *blocks)

    monkeypatch.setattr(spectra, "_block", counting)
    for literal, degree, m in (("m=12;pairs=1,5,7;delta=1;ypairs=0,3,11", 13, 12),
                               (full_subset(40).literal(), 159, 40)):
        calls.clear()
        spectra._raw_values.cache_clear()
        code, out = run(capsys, ["spectrum", "--subset", literal])
        assert code == 0
        assert json.loads(out)["results"]["degree"] == degree
        assert mpmath not in [xp for xp, _ in calls]
        assert sorted(j for _, js in calls for j in js) == list(range(1, m))


def test_cli_imports_mpmath_only_at_a_near_tie():
    """A fresh interpreter runs three commands that meet no near tie without
    importing mpmath; the m = 9 exact tie imports it and is still Ramanujan."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rqgraph.__file__).parents[1])}
    code = """if True:
        import contextlib, io, json, sys
        import rqgraph.cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert rqgraph.cli.main(list(argv)) == 0, argv
            return out.getvalue()

        run("exceptional", "--p", "557")
        run("table2", "--rows", "9,7", "--xmax", "1000000")
        run("spectrum", "--oracle", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2")
        print("mpmath" in sys.modules)
        out = run("spectrum", "--subset", "m=9;pairs=1,2,4,5,7,8;delta=0;ypairs=0,1,2,3,5,6,8")
        print("mpmath" in sys.modules, json.loads(out)["results"]["ramanujan"])
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["False", "True True", ""]


def _extremal(p):
    """The l0 + 1 extremal subset at the prime p, as a literal."""
    split = bounds.maximizing_split(bounds.trivial_bound(p) + 1)
    return subsets.extremal_subset(p, split.l1, split.l2).literal()


@pytest.mark.parametrize("argv, sha256", [
    # below spectra.MIN_BLOCK_ANGLES: one frequency at a time
    (["--subset", "m=12;pairs=1,5,7;delta=1;ypairs=0,3,11"],
     "9a5931efaf1c0b376abdef886499cd22ef082d27c1f0d2e08ca9c47672d27fc8"),
    (["--subset", full_subset(40).literal()],
     "96e5ec77e587ab07d0455c0a15468a8ed227b708f2b1c8cae8351ad701d0fafa"),
    # many blocks of frequencies; np.hypot in place of math.hypot changes p = 547's bytes
    (["--subset", _extremal(503)],
     "d70fb1f7a9acd58393af0a4239439d6423dd2de81e40f826deba491d34374d1e"),
    (["--subset", _extremal(547), "--csv"],
     "e9ad13d64b6de541a05307741405803015145f517cafc078cf7db2319dde9840"),
], ids=["m12", "full40", "p503", "p547-csv"])
def test_spectrum_stdout_is_pinned(capsys, argv, sha256):
    """`rqgraph spectrum` prints the same bytes as when these digests were
    recorded: a change in the last bit of any eigenvalue shows here."""
    code, out = run(capsys, ["spectrum", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_cli_bad_input_is_a_clean_error(capsys):
    errors = []
    for argv in (
        ["spectrum", "--subset", "m=3;pairs=9;delta=0;ypairs=0"],
        ["spectrum", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2;colour=red"],  # unknown field
        ["spectrum", "--subset", "m=1048577;pairs=1;delta=0;ypairs=0"],     # above group.MAX_M
        ["spectrum", "--subset", "m=3;pairs"],                              # malformed field
        ["spectrum", "--subset", "m=3;m=3;pairs=1;delta=0;ypairs=0"],       # duplicate field
        ["spectrum", "--subset", "m=2;pairs=;delta=0;ypairs="],             # no non-trivial eigenvalue
        ["exceptional", "--p", str(2**64 + 13)],        # prime, but above the proven Miller-Rabin range
        *(["exceptional", "--p", p] for p in ("4", "-7", "63", "2")),   # not an odd prime, below 67
        ["exceptional", "--p", "66049"],        # 257^2, the first odd composite the gcd screen passes to Miller-Rabin
        ["table2", "--rows", "9,7", "--xmax", "-10"],
        ["table2", "--rows", "9,7", "--xmax", str(10**14 + 1)],    # above the sieve's limit
        ["table2", "--rows", "9"],
        ["table2", "--rows", "9,7,1"],
        ["lbound", "--m", "21", "--exact"],     # above EXACT_SCAN_MAX_M
        ["lbound", "--m", "-3", "--exact"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        errors.append(json.loads(captured.err)["error"])
    assert "all eigenvalues have magnitude |S|; no non-trivial eigenvalue" in errors
    assert "p must be an odd prime, got -7" in errors


def test_table2_rejects_bad_input_before_scanning(capsys, monkeypatch, tmp_path):
    def no_scan(*args, **kwargs):
        pytest.fail("scan_families ran before the input was checked")

    monkeypatch.setattr(primes, "scan_families", no_scan)
    missing = str(tmp_path / "missing.csv")
    short = tmp_path / "short.csv"
    short.write_text("r,c,k_threshold\n9,7,1\n")
    for argv, error in (
        (["--fixture", missing], f"[Errno 2] No such file or directory: '{missing}'"),
        (["--fixture", str(short)], f"fixture {short} lacks column(s): p1, p2, p3, p4, p5, count, density"),
    ):
        code = main(["table2", "--xmax", str(10**11), *argv])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert json.loads(captured.err) == {"command": "table2", "error": error}


def test_table2_help_states_the_ranges(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["table2", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "0 <= x_max <= 10^14" in text


def test_spectrum_oracle_disagreement_fails(capsys, monkeypatch):
    monkeypatch.setattr(dense, "oracle_max_delta", lambda subset: 1.0)
    code, out = run(capsys, ["spectrum", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2", "--oracle"])
    assert code == 1
    res = json.loads(out)["results"]
    assert res["oracle_agrees"] is False
    assert res["failures"] == [{"check": "oracle_agreement", "max_delta": 1.0}]


def test_spectrum_csv_oracle_disagreement_fails_on_stderr(capsys, monkeypatch):
    argv = ["spectrum", "--subset", "m=3;pairs=1,2;delta=0;ypairs=0,1,2", "--csv"]
    code, table = run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(dense, "oracle_max_delta", lambda subset: 1.0)
    code = main([*argv, "--oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == table
    assert captured.err == '{"failures": [{"check": "oracle_agreement", "max_delta": 1.0}]}\n'


def test_exceptional_route_disagreement_fails(capsys, monkeypatch):
    spectral = bounds.is_exceptional_spectral

    def flipped(p):
        verdict = spectral(p)
        return verdict._replace(exceptional=not verdict.exceptional)

    monkeypatch.setattr(bounds, "is_exceptional_spectral", flipped)
    code, out = run(capsys, ["exceptional", "--p", "67", "--method", "both"])
    assert code == 1
    res = json.loads(out)["results"]
    assert res["routes_agree"] is False
    assert res["failures"] == [{"check": "route_agreement", "p": 67}]


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

    # a mismatch with the trivial bound is data, not a failed check
    code, out = run(capsys, ["lbound", "--m", "5", "--family", "sprime", "--exact"])
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["exact_safe_covalency"], res["trivial_bound"]) == (8, 6)
    assert res["matches_trivial_bound"] is False
    assert "failures" not in res


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

    code, out = run(capsys, ["exceptional", "--p", "65537"])       # prime, decided by the gcd screen
    assert code == 0
    assert json.loads(out)["results"]["routes_agree"] is True


def test_exceptional_verdicts_do_not_depend_on_import_order():
    """`primes` imports names from `bounds`, which imports `primes` once, at its
    end: a fresh interpreter importing either module first gives the same
    verdicts at p = 73 and 1997, and neither route calls builtins.__import__
    (no import statement runs) while both classify 1,000 primes."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rqgraph.__file__).parents[1])}
    code = """if True:
        import builtins, contextlib, io, json
        import rqgraph.{}
        from rqgraph import bounds, primes
        from rqgraph.cli import main

        for p in ("73", "1997"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["exceptional", "--p", p, "--method", "both"]) == 0
            print(json.dumps(json.loads(out.getvalue())["results"]["verdicts"], sort_keys=True))
        plist = [p for p in range(67, 10 ** 4) if primes.is_prime(p)][:1000]
        imports, real = [], builtins.__import__
        builtins.__import__ = lambda *args, **kwargs: imports.append(args[0]) or real(*args, **kwargs)
        for p in plist:
            bounds.is_exceptional_spectral(p)
            primes.is_exceptional_arithmetic(p)
        builtins.__import__ = real
        print(len(plist), imports)
    """
    outs = [
        subprocess.run([sys.executable, "-c", code.format(first)], env=env, capture_output=True, text=True, check=True).stdout
        for first in ("primes", "bounds")
    ]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[2] == "1000 []"
    for line, p in zip(lines, (73, 1997)):
        verdicts = json.loads(line)
        assert verdicts["spectral"]["exceptional"] is verdicts["arithmetic"]["exceptional"] is True, p
        assert verdicts["spectral"]["l0"] == verdicts["arithmetic"]["l0"] == bounds.trivial_bound(p)


def test_exceptional_out_of_scope(capsys):
    code, out = run(capsys, ["exceptional", "--p", "61"])
    assert code == 0
    assert json.loads(out)["results"]["status"] == "out of theorem scope"


def test_table2_single_row_csv(capsys):
    code, out = run(capsys, ["table2", "--rows", "9,7", "--xmax", "20000"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,c,k_threshold,p1")
    cells = lines[1].split(",")
    assert cells[:3] == ["9", "7", "1"]
    assert cells[3:8] == ["79", "223", "439", "727", "1087"]


def test_table2_json_stdout_is_pinned(capsys):
    """`rqgraph table2 --json` prints the same bytes as when this digest was
    recorded, its `prime_bound` parameter and the row's density included."""
    code, out = run(capsys, ["table2", "--rows", "9,7", "--xmax", "20000", "--json"])
    assert code == 0
    assert json.loads(out)["parameters"]["prime_bound"] == 10**7
    assert hashlib.sha256(out.encode()).hexdigest() == "7ea3fa91d8b6b1cb3a0bf377f71a706328d34319f5e9ed2f3ec8e656d9b386a7"


def test_table2_fixture_diff_clean_row(capsys):
    code, out = run(
        capsys,
        ["table2", "--rows", "9,7", "--xmax", str(10**12),
         "--fixture", FIXTURE, "--json"],
    )
    payload = json.loads(out)
    row = payload["results"]["rows"][0]
    assert row["k_threshold"] == 1
    assert row["count"] == 24281
    assert payload["results"]["failures"] == []
    assert code == 0


def test_table2_fixture_without_the_row_fails(capsys, tmp_path):
    fixture = tmp_path / "table2.csv"
    lines = (DATA_DIR / "table2.csv").read_text().splitlines(keepends=True)
    fixture.write_text("".join(line for line in lines if not line.startswith("9,7,")))
    code, out = run(capsys, ["table2", "--rows", "9,7", "--xmax", "20000", "--fixture", str(fixture), "--json"])
    assert code == 1
    assert json.loads(out)["results"]["failures"] == [{"check": "fixture_row_present", "r": 9, "c": 7}]


def test_table2_fixture_diff_discrepant_row(capsys):
    # the recomputed threshold for this family differs from the reference
    # table (see README); the diff must surface it and fail the run
    code, out = run(
        capsys,
        ["table2", "--rows", "0,-5", "--xmax", str(10**12),
         "--fixture", FIXTURE, "--json"],
    )
    payload = json.loads(out)
    assert code == 1
    fails = payload["results"]["failures"]
    assert fails and fails[0]["check"] == "fixture_diff"
    assert "k_threshold" in fails[0]["diffs"]


def test_table2_csv_failures_are_one_json_line_on_stderr(capsys):
    argv = ["table2", "--rows", "0,-5", "--xmax", str(10**12), "--fixture", FIXTURE]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert lines[0] == "r,c,k_threshold,p1,p2,p3,p4,p5,count,density"
    assert len(lines) == 2 and lines[1].startswith("0,-5,")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    stderr = json.loads(captured.err)
    _, out = run(capsys, [*argv, "--json"])
    assert stderr == {"failures": json.loads(out)["results"]["failures"]}
    assert stderr["failures"][0]["check"] == "fixture_diff"


def test_table2_fixture_density_diff(capsys, tmp_path):
    """Densities compare within 0.01; the other fields of (9, 7) still match."""
    fixture = tmp_path / "table2.csv"
    lines = (DATA_DIR / "table2.csv").read_text().splitlines(keepends=True)
    fixture.write_text("".join(
        line.replace(",0.61666", ",0.63666") if line.startswith("9,7,") else line for line in lines
    ))
    code, out = run(
        capsys,
        ["table2", "--rows", "9,7", "--xmax", str(10**12),
         "--fixture", str(fixture), "--json"],
    )
    assert code == 1
    payload = json.loads(out)
    density = payload["results"]["rows"][0]["density"]
    assert payload["results"]["failures"] == [{
        "check": "fixture_diff", "r": 9, "c": 7,
        "diffs": {"density": {"computed": density, "fixture": 0.63666}},
    }]


def test_table2_window_mismatch_fails(capsys, monkeypatch):
    scan = primes.scan_families

    def mismatched(x_max, rows=None):
        return [dataclasses.replace(rep, window_mismatches=1) for rep in scan(x_max, rows=rows)]

    monkeypatch.setattr(primes, "scan_families", mismatched)
    code, out = run(capsys, ["table2", "--rows", "9,7", "--xmax", "20000", "--json"])
    assert code == 1
    assert json.loads(out)["results"]["failures"] == [
        {"check": "window_membership", "r": 9, "c": 7, "mismatches": 1}
    ]


def test_float_formatting_is_15_significant_digits(capsys):
    _, out = run(capsys, ["exceptional", "--p", "67", "--method", "spectral"])
    res = json.loads(out)["results"]
    val = res["verdicts"]["spectral"]["witness"]["mu2_abs"]
    assert val == float(f"{val:.15g}")
