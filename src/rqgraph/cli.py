"""Command-line frontend: JSON/CSV reports for spectra, bounds, and prime scans.

Reports are deterministic: fixed key order, floats printed with 15
significant digits, no timestamps.  Exit code 0 means every requested check
passed; any failure yields exit code 1 and a machine-readable failure list:
under `failures` in the JSON payload, or in CSV mode as one JSON line on
stderr.  `lbound --exact` requests no check: its
`matches_trivial_bound` is data, and a mismatch (sprime at m = 5 gives 8
against l0 = 6) still exits 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, bounds, dense, primes, spectra
from .subsets import parse_subset_literal


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _normalize(obj):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(obj, float):
        return _round15(obj)
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def _envelope(command: str, parameters: dict, results: dict) -> dict:
    return {
        "command": command,
        "parameters": _normalize(parameters),
        "results": _normalize(results),
        "tool_version": __version__,
    }


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _emit_csv(rows: list[dict], fieldnames: list[str], failures: list[dict]) -> None:
    """The rows as CSV on stdout; the failures, if any, as one JSON line on stderr."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(row.get(k, "")) for k in fieldnames})
    sys.stdout.write(buf.getvalue())
    if failures:
        sys.stderr.write(json.dumps({"failures": _normalize(failures)}, sort_keys=True) + "\n")


def _format_cell(v) -> str:
    return f"{v:.15g}" if isinstance(v, float) else str(v)


# -- spectrum ------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    subset = parse_subset_literal(args.subset)
    results = {
        "m": subset.m,
        "subset": subset.literal(),
        "degree": subset.size,
        "covalency": subset.covalency(),
        "profile": vars(subset.profile()),
        "entries": [{"value": v, "multiplicity": k} for v, k in spectra.full_spectrum(subset).entries],
        "lambda_max_nontrivial": spectra.lambda_max_nontrivial(subset),
        "ramanujan_bound": spectra.ramanujan_bound(subset),
        "ramanujan": spectra.is_ramanujan(subset),
    }
    failures = []
    if args.oracle:
        delta = dense.oracle_max_delta(subset)
        results["oracle_max_delta"] = delta
        results["oracle_agrees"] = delta <= 1e-8
        if not results["oracle_agrees"]:
            failures.append({"check": "oracle_agreement", "max_delta": delta})
    results["failures"] = failures
    if args.csv:
        _emit_csv(results["entries"], ["value", "multiplicity"], failures)
    else:
        _emit_json(_envelope("spectrum", {"subset": args.subset, "oracle": bool(args.oracle)}, results))
    return 1 if failures else 0


# -- lbound --------------------------------------------------------------------


def cmd_lbound(args) -> int:
    results = {"m": args.m, "family": args.family, "trivial_bound": bounds.trivial_bound(args.m)}
    if args.exact:
        results["exact_safe_covalency"] = bounds.exact_safe_covalency(args.m, args.family)
        results["matches_trivial_bound"] = (
            results["exact_safe_covalency"] == results["trivial_bound"]
        )
    payload = _envelope(
        "lbound", {"m": args.m, "family": args.family, "exact": bool(args.exact)}, results
    )
    _emit_json(payload)
    return 0


# -- exceptional ----------------------------------------------------------------


def cmd_exceptional(args) -> int:
    p = args.p
    results: dict = {"p": p}
    failures = []
    primes.check_odd_prime(p)
    if p < primes.MIN_EXCEPTIONAL_PRIME:
        results["status"] = "out of theorem scope"
        results["reason"] = f"classification established only for primes >= {primes.MIN_EXCEPTIONAL_PRIME}"
    else:
        verdicts = {}
        for name, classify in (("spectral", bounds.is_exceptional_spectral), ("arithmetic", primes.is_exceptional_arithmetic)):
            if args.method in (name, "both"):
                v = classify(p)
                verdicts[name] = {"exceptional": v.exceptional, "l0": v.l0, "witness": v.witness}
        results["verdicts"] = verdicts
        if args.method == "both":
            agree = verdicts["spectral"]["exceptional"] == verdicts["arithmetic"]["exceptional"]
            results["routes_agree"] = agree
            if not agree:
                failures.append({"check": "route_agreement", "p": p})
        results["failures"] = failures
    _emit_json(_envelope("exceptional", {"p": p, "method": args.method}, results))
    return 1 if failures else 0


# -- table2 ---------------------------------------------------------------------


TABLE_FIELDS = ["r", "c", "k_threshold", "p1", "p2", "p3", "p4", "p5", "count", "density"]


def _parse_rows(text: str) -> list[tuple[int, int]] | None:
    if text == "all":
        return None
    if text.count(",") != 1:
        raise ValueError(f'--rows must be "all" or "r,c", got {text!r}')
    r, c = text.split(",")
    return [(int(r), int(c))]


def load_fixture(path: str) -> dict[tuple[int, int], dict]:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in TABLE_FIELDS if name not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"fixture {path} lacks column(s): {', '.join(missing)}")
        for row in reader:
            key = (int(row["r"]), int(row["c"]))
            out[key] = {
                "k_threshold": int(row["k_threshold"]),
                "first_primes": tuple(int(row[f"p{i}"]) for i in range(1, 6)),
                "count": int(row["count"]),
                "density": float(row["density"]),
            }
    return out


def cmd_table2(args) -> int:
    rows = _parse_rows(args.rows)
    fixture = load_fixture(args.fixture) if args.fixture else None
    reports = primes.scan_families(args.xmax, rows=rows)
    out_rows = []
    failures = []
    for rep in reports:
        fam = rep.family
        density = primes.hardy_littlewood_density(fam.r, fam.c)
        head = list(rep.first_primes) + [""] * (5 - len(rep.first_primes))
        row = dict(zip(TABLE_FIELDS, (fam.r, fam.c, fam.k_threshold, *head, rep.count, density)))
        out_rows.append(row)
        if rep.window_mismatches:
            failures.append(
                {"check": "window_membership", "r": fam.r, "c": fam.c, "mismatches": rep.window_mismatches}
            )
        if fixture is not None:
            ref = fixture.get((fam.r, fam.c))
            if ref is None:
                failures.append({"check": "fixture_row_present", "r": fam.r, "c": fam.c})
                continue
            computed = {**row, "first_primes": rep.first_primes}
            diffs = {
                key: {"computed": computed[key], "fixture": want}
                for key, want in ref.items()
                if (abs(computed[key] - want) > 0.01 if key == "density" else computed[key] != want)
            }
            if diffs:
                failures.append({"check": "fixture_diff", "r": fam.r, "c": fam.c, "diffs": diffs})
    if args.json:
        payload = _envelope(
            "table2",
            {
                "xmax": args.xmax,
                "prime_bound": primes.PRIME_BOUND,
                "rows": args.rows,
                "fixture": args.fixture,
            },
            {"rows": out_rows, "failures": failures},
        )
        _emit_json(payload)
    else:
        _emit_csv(out_rows, TABLE_FIELDS, failures)
    return 1 if failures else 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqgraph",
        description="Spectra and Ramanujan bounds of Cayley graphs on generalized quaternion groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="full spectrum and Ramanujan verdict of one Cayley subset")
    sp.add_argument("--subset", required=True, help="literal: m=<int>;pairs=<list>;delta=<0|1>;ypairs=<list>")
    sp.add_argument("--oracle", action="store_true", help="cross-check against the dense eigensolver")
    sp.add_argument("--csv", action="store_true", help="emit value,multiplicity CSV instead of JSON")
    sp.set_defaults(func=cmd_spectrum)

    lb = sub.add_parser("lbound", help="safe-covalency bounds")
    lb.add_argument("--m", type=int, required=True)
    lb.add_argument("--family", choices=["s", "sprime"], default="s")
    lb.add_argument("--exact", action="store_true", help=f"exact safe covalency from per-frequency extremes of each split, m <= {bounds.EXACT_SCAN_MAX_M}; a mismatch with the trivial bound is reported, not a failure")
    lb.set_defaults(func=cmd_lbound)

    ex = sub.add_parser("exceptional", help="classify an odd prime as exceptional or ordinary")
    ex.add_argument("--p", type=int, required=True)
    ex.add_argument("--method", choices=["spectral", "arithmetic", "both"], default="both")
    ex.set_defaults(func=cmd_exceptional)

    t2 = sub.add_parser("table2", help="regenerate the 54-family table (CSV by default)")
    t2.add_argument("--xmax", type=int, default=10**12, help="scan family values up to x_max, 0 <= x_max <= 10^14 (default 10^12)")
    t2.add_argument("--rows", default="all", help='"all" or "r,c" for a single family')
    t2.add_argument("--fixture", default=None, help="fixture CSV to diff against")
    t2.add_argument("--json", action="store_true", help="JSON envelope instead of CSV")
    t2.set_defaults(func=cmd_table2)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": str(exc), "command": args.command}, sort_keys=True) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
