"""Command-line frontend: JSON/CSV reports for spectra, bounds, and prime scans.

Reports are deterministic: fixed key order, floats printed with 15
significant digits, no timestamps.  Exit code 0 means every requested check
passed; any failure yields exit code 1 and a machine-readable failure list
in the payload.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__, bounds, dense, primes, spectra
from .subsets import FAMILY_ALL, FAMILY_NONFULL_YCOSET, parse_subset_literal

FIXTURE_ENV = "RQ_FIXTURE_DIR"
_FAMILY_FLAG = {"s": FAMILY_ALL, "sprime": FAMILY_NONFULL_YCOSET}


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


def _emit_csv(rows: list[dict], fieldnames: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(row.get(k, "")) for k in fieldnames})
    sys.stdout.write(buf.getvalue())


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{_round15(v):.15g}"
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    return str(v)


# -- spectrum ------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    subset = parse_subset_literal(args.subset)
    spec = spectra.full_spectrum(subset)
    lam = spectra.lambda_max_nontrivial(subset)
    bound = spectra.ramanujan_bound(subset)
    verdict = spectra.is_ramanujan(subset)
    results = {
        "m": subset.m,
        "subset": subset.literal(),
        "degree": subset.size,
        "covalency": subset.covalency(),
        "profile": vars(subset.profile()),
        "entries": [{"value": v, "multiplicity": k} for v, k in spec.entries],
        "lambda_max_nontrivial": lam,
        "ramanujan_bound": bound,
        "ramanujan": verdict,
    }
    failures = []
    if args.oracle:
        dense_vals = dense.symmetric_eigenvalues(dense.adjacency_matrix(subset))
        delta = max(abs(a - b) for a, b in zip(sorted(spec.values), sorted(dense_vals)))
        results["oracle_max_delta"] = delta
        results["oracle_agrees"] = delta <= 1e-8
        if delta > 1e-8:
            failures.append({"check": "oracle_agreement", "max_delta": delta})
    results["failures"] = failures
    payload = _envelope("spectrum", {"subset": args.subset, "oracle": bool(args.oracle)}, results)
    if args.csv:
        rows = [{"value": v, "multiplicity": k} for v, k in spec.entries]
        _emit_csv(rows, ["value", "multiplicity"])
    else:
        _emit_json(payload)
    return 1 if failures else 0


# -- lbound --------------------------------------------------------------------


def cmd_lbound(args) -> int:
    family = _FAMILY_FLAG[args.family]
    results = {"m": args.m, "family": args.family, "trivial_bound": bounds.trivial_bound(args.m)}
    if args.exact:
        results["exact_safe_covalency"] = bounds.exact_safe_covalency(args.m, family)
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
    if p < primes.MIN_EXCEPTIONAL_PRIME:
        results["status"] = "out of theorem scope"
        results["reason"] = f"classification established only for primes >= {primes.MIN_EXCEPTIONAL_PRIME}"
        payload = _envelope("exceptional", {"p": p, "method": args.method}, results)
        _emit_json(payload)
        return 0
    verdicts = {}
    if args.method in ("spectral", "both"):
        v = bounds.is_exceptional_spectral(p)
        verdicts["spectral"] = {"exceptional": v.exceptional, "l0": v.l0, "witness": v.witness}
    if args.method in ("arithmetic", "both"):
        v = primes.is_exceptional_arithmetic(p)
        verdicts["arithmetic"] = {"exceptional": v.exceptional, "l0": v.l0, "witness": v.witness}
    results["verdicts"] = verdicts
    if args.method == "both":
        agree = verdicts["spectral"]["exceptional"] == verdicts["arithmetic"]["exceptional"]
        results["routes_agree"] = agree
        if not agree:
            failures.append({"check": "route_agreement", "p": p})
    results["failures"] = failures
    payload = _envelope("exceptional", {"p": p, "method": args.method}, results)
    _emit_json(payload)
    return 1 if failures else 0


# -- table2 ---------------------------------------------------------------------


TABLE_FIELDS = ["r", "c", "k_threshold", "p1", "p2", "p3", "p4", "p5", "count", "density"]


def _parse_rows(text: str) -> list[tuple[int, int]] | None:
    if text == "all":
        return None
    r, c = text.split(",")
    return [(int(r), int(c))]


def load_fixture(path: str) -> dict[tuple[int, int], dict]:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["r"]), int(row["c"]))
            out[key] = {
                "k_threshold": int(row["k_threshold"]),
                "first_primes": tuple(int(row[f"p{i}"]) for i in range(1, 6)),
                "count": int(row["count"]),
                "density": float(row["density"]),
            }
    return out


def _fixture_path(arg_path: str | None) -> str | None:
    if arg_path:
        return arg_path
    env_dir = os.environ.get(FIXTURE_ENV)
    if env_dir:
        return os.path.join(env_dir, "table2.csv")
    return None


def cmd_table2(args) -> int:
    rows = _parse_rows(args.rows)
    reports = primes.scan_families(args.xmax, rows=rows, processes=args.threads)
    fixture_path = _fixture_path(args.fixture)
    fixture = load_fixture(fixture_path) if fixture_path else None
    out_rows = []
    failures = []
    for rep in reports:
        fam = rep.family
        density = primes.hardy_littlewood_density(fam.r, fam.c, args.prime_bound)
        head = list(rep.first_primes) + [""] * (5 - len(rep.first_primes))
        row = {
            "r": fam.r,
            "c": fam.c,
            "k_threshold": fam.k_threshold,
            "p1": head[0], "p2": head[1], "p3": head[2], "p4": head[3], "p5": head[4],
            "count": rep.count,
            "density": density,
        }
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
            diffs = {}
            if fam.k_threshold != ref["k_threshold"]:
                diffs["k_threshold"] = {"computed": fam.k_threshold, "fixture": ref["k_threshold"]}
            if tuple(rep.first_primes) != ref["first_primes"]:
                diffs["first_primes"] = {
                    "computed": list(rep.first_primes),
                    "fixture": list(ref["first_primes"]),
                }
            if rep.count != ref["count"]:
                diffs["count"] = {"computed": rep.count, "fixture": ref["count"]}
            if abs(density - ref["density"]) > 0.01:
                diffs["density"] = {"computed": density, "fixture": ref["density"]}
            if diffs:
                failures.append({"check": "fixture_diff", "r": fam.r, "c": fam.c, "diffs": diffs})
    if args.json:
        payload = _envelope(
            "table2",
            {
                "xmax": args.xmax,
                "prime_bound": args.prime_bound,
                "rows": args.rows,
                "fixture": fixture_path,
            },
            {"rows": out_rows, "failures": failures},
        )
        _emit_json(payload)
    else:
        _emit_csv(out_rows, TABLE_FIELDS)
        if failures:
            sys.stderr.write(json.dumps({"failures": _normalize(failures)}, sort_keys=True) + "\n")
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
    lb.add_argument("--exact", action="store_true", help="exhaustive enumeration (small m only)")
    lb.set_defaults(func=cmd_lbound)

    ex = sub.add_parser("exceptional", help="classify an odd prime as exceptional or ordinary")
    ex.add_argument("--p", type=int, required=True)
    ex.add_argument("--method", choices=["spectral", "arithmetic", "both"], default="both")
    ex.set_defaults(func=cmd_exceptional)

    t2 = sub.add_parser("table2", help="regenerate the 54-family table (CSV by default)")
    t2.add_argument("--xmax", type=int, default=10**12)
    t2.add_argument("--prime-bound", type=int, default=10**7)
    t2.add_argument("--rows", default="all", help='"all" or "r,c" for a single family')
    t2.add_argument("--threads", type=int, default=1)
    t2.add_argument("--fixture", default=None, help=f"fixture CSV to diff against (or ${FIXTURE_ENV}/table2.csv)")
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
