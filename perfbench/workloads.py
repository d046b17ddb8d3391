"""The four benchmark workloads: inputs from a seed, one job, checks against golden values.

Each workload has `setup(seed) -> inputs`, `run(inputs, span) -> outputs` and
`check(outputs) -> [(check name, passed, detail)]`.  `run` is the timed job;
`span(name)` is a context manager that the traced job turns into a span and
the untraced job into a no-op.  Only public rqgraph names and CLI flags are
used, and library functions are always called through their module so that
the traced job's wrappers see every call.

Job sizes are scaled from the full-size runs so that several fresh-interpreter
jobs fit in one measured run; GOLDEN holds the outputs of exactly these jobs,
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from rqgraph import bounds, cli, dense, group, primes, spectra, subsets

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

ORACLE_TOL = 1e-8
LAMBDA_TOL = 1e-9


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    uses_seed = True

    @staticmethod
    def layer_metrics(out) -> dict:
        """Per-layer metrics that come from the job's outputs rather than its spans."""
        return {"dense.max_abs_delta": 0.0}


# -- table2: the 54-family prime scan through the CLI, default flags ------------

TABLE2_XMAX = 3_000_000_000


class Table2(Workload):
    uses_seed = False

    @staticmethod
    def setup(seed):
        return ["table2", "--xmax", str(TABLE2_XMAX)]

    @staticmethod
    def run(argv, span):
        with span("cli.table2"):
            rc, out = _call_cli(argv)
        return {"rc": rc, "csv": out}

    @staticmethod
    def check(out):
        gold = GOLDEN["table2"]
        rows = out["csv"].count("\n") - 1
        return [
            ("table2.exit_code", out["rc"] == 0, out["rc"]),
            ("table2.rows", rows == gold["rows"], rows),
            ("table2.csv_sha256", _sha256(out["csv"]) == gold["csv_sha256"], _sha256(out["csv"])),
        ]


# -- covalency: exhaustive safe covalency over many tiny spectra ----------------

COVALENCY_CASES = [("s", m) for m in range(2, 11)] + [("sprime", m) for m in range(4, 11)]


class Covalency(Workload):
    uses_seed = False

    @staticmethod
    def setup(seed):
        return COVALENCY_CASES

    @staticmethod
    def run(cases, span):
        return {f"{fam}:{m}": bounds.exact_safe_covalency(m, fam) for fam, m in cases}

    @staticmethod
    def check(out):
        gold = GOLDEN["covalency"]
        return [
            (f"covalency.{key}", value == gold[key], value) for key, value in out.items()
        ]


# -- oracle: dense adjacency + eigensolve against the formula spectra -----------

ORACLE_ENUMERATED_M = range(1, 7)       # every generating subset is enumerated and counted
ORACLE_DENSE_ALL_M = range(1, 5)        # ... all of these are checked densely
ORACLE_SAMPLES = {5: 200, 6: 40}        # ... and seeded samples of these
ORACLE_RANDOM_M = range(7, 13)          # seeded random_subset draws per m
ORACLE_RANDOM_PER_M = 10


class Oracle(Workload):
    @staticmethod
    def setup(seed):
        rng = random.Random(seed)
        randoms = {
            m: [subsets.random_subset(m, rng.randrange(1, 2 * m), rng, "s") for _ in range(ORACLE_RANDOM_PER_M)]
            for m in ORACLE_RANDOM_M
        }
        return {"rng": rng, "randoms": randoms}

    @staticmethod
    def run(inputs, span):
        enumerated = {
            m: [s for l in range(1, 4 * m) for s in subsets.enumerate_family(m, l, "s")]
            for m in ORACLE_ENUMERATED_M
        }
        solve = {m: enumerated[m] for m in ORACLE_DENSE_ALL_M}
        for m, k in ORACLE_SAMPLES.items():
            solve[m] = inputs["rng"].sample(enumerated[m], min(k, len(enumerated[m])))
        solve.update(inputs["randoms"])
        bfs = [group.generates(s.elements(), m) for m, batch in solve.items() for s in batch]
        deltas = []
        for m, batch in solve.items():
            mats = np.stack([dense.adjacency_matrix(s) for s in batch])
            dense_vals = dense.symmetric_eigenvalues_batch(mats)
            for s, dv in zip(batch, dense_vals):
                fv = np.array(sorted(spectra.full_spectrum(s).values, reverse=True))
                deltas.append(float(np.max(np.abs(fv - dv))))
        return {
            "counts": {str(m): len(batch) for m, batch in enumerated.items()},
            "bfs_checked": len(bfs),
            "bfs_failures": bfs.count(False),
            "deltas": deltas,
        }

    @staticmethod
    def layer_metrics(out):
        return {"dense.max_abs_delta": max(out["deltas"])}

    @staticmethod
    def check(out):
        gold = GOLDEN["oracle"]["generating_subsets"]
        checks = [(f"oracle.count.m{m}", out["counts"][m] == gold[m], out["counts"][m]) for m in gold]
        checks += [("oracle.bfs_generates", True, None)] * (out["bfs_checked"] - out["bfs_failures"])
        checks += [("oracle.bfs_generates", False, None)] * out["bfs_failures"]
        checks += [("oracle.spectra_agree", d <= ORACLE_TOL, d) for d in out["deltas"]]
        return checks


# -- classify: both routes over every prime, plus CLI spectra of witnesses ------

CLASSIFY_RANGE = (67, 50_000)
CLASSIFY_WITNESSES = 3      # exceptional and as many ordinary primes from the golden window


class Classify(Workload):

    @staticmethod
    def setup(seed):
        """Witnesses: each class's primes, in order, fall into CLASSIFY_WITNESSES
        runs of adjacent primes, and the seed draws one from each run, so that
        every seed's witnesses spread over the window alike and cost alike."""
        rng = random.Random(seed)
        pool = GOLDEN["classify"]["witnesses"]
        picks = []
        for want in (True, False):
            ordered = sorted((p for p, w in pool.items() if w["exceptional"] is want), key=int)
            n = len(ordered)
            picks += [
                rng.choice(ordered[i * n // CLASSIFY_WITNESSES : (i + 1) * n // CLASSIFY_WITNESSES])
                for i in range(CLASSIFY_WITNESSES)
            ]
        literals = {}
        for p in picks:
            split = bounds.maximizing_split(bounds.trivial_bound(int(p)) + 1)
            literals[p] = subsets.extremal_subset(int(p), split.l1, split.l2).literal()
        return literals

    @staticmethod
    def run(literals, span):
        lo, hi = CLASSIFY_RANGE
        plist = [p for p in range(lo, hi + 1) if primes.is_prime(p)]
        exceptional = []
        disagreements = []
        for p in plist:
            arith = primes.is_exceptional_arithmetic(p).exceptional
            spec = bounds.is_exceptional_spectral(p).exceptional
            if arith:
                exceptional.append(p)
            if arith != spec:
                disagreements.append(p)
        witnesses = {}
        for p, literal in literals.items():
            with span("cli.spectrum"):
                rc, text = _call_cli(["spectrum", "--subset", literal])
            witnesses[p] = {"rc": rc, "results": json.loads(text)["results"]}
        return {
            "primes": len(plist),
            "exceptional": exceptional,
            "disagreements": disagreements,
            "witnesses": witnesses,
        }

    @staticmethod
    def check(out):
        gold = GOLDEN["classify"]
        exc_hash = _sha256(",".join(map(str, out["exceptional"])))
        checks = [
            ("classify.primes", out["primes"] == gold["primes"], out["primes"]),
            ("classify.exceptional", len(out["exceptional"]) == gold["exceptional"], len(out["exceptional"])),
            ("classify.exceptional_sha256", exc_hash == gold["exceptional_sha256"], exc_hash),
        ]
        agreed = out["primes"] - len(out["disagreements"])
        checks += [("classify.routes_agree", True, None)] * agreed
        checks += [("classify.routes_agree", False, p) for p in out["disagreements"]]
        for p, w in out["witnesses"].items():
            want = gold["witnesses"][p]
            res = w["results"]
            checks += [
                (f"classify.witness.{p}.exit_code", w["rc"] == want["rc"], w["rc"]),
                (f"classify.witness.{p}.ramanujan", res["ramanujan"] is want["ramanujan"], res["ramanujan"]),
                (
                    f"classify.witness.{p}.lambda",
                    math.isclose(res["lambda_max_nontrivial"], want["lambda_max_nontrivial"], rel_tol=0, abs_tol=LAMBDA_TOL),
                    res["lambda_max_nontrivial"],
                ),
                (f"classify.witness.{p}.degree", res["degree"] == want["degree"], res["degree"]),
                (f"classify.witness.{p}.covalency", res["covalency"] == want["covalency"], res["covalency"]),
            ]
        return checks


WORKLOADS = {"table2": Table2, "covalency": Covalency, "oracle": Oracle, "classify": Classify}
