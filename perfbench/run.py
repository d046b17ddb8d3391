"""rqgraph benchmark: one workload, measured in fresh single-threaded interpreters.

    python3 perfbench/run.py --workload table2|covalency|oracle|classify \\
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Every job is one closed-loop call in a fresh interpreter: the next job starts
when the last one has returned.  With `--trace 0` the run first makes a few
set-up-only interpreters, then runs jobs while the next one is expected to
end within T seconds, then fills what is left of T with set-up probes; it
reports the median of every end-to-end metric.  With `--trace 1` it runs the
job once untraced and once traced and reports the per-layer metrics of the
traced job, with the tracing overhead as the difference of their wall times
(both at the reference host speed described below).

Other tenants of a shared host slow a job by up to 2x, in bursts that come
and go within milliseconds and in spells that last minutes, which no median
over one run removes.  So every interpreter also times a fixed probe chunk
(see job.py): back to back after set-up, and from a timer every 20 ms while
the job runs.  The job's part of its wall and CPU time is divided by its
host slowdown, the mean probe chunk during the job over PROBE_REF_S; the
set-up part, and every set-up time, by the same ratio for the probe after
set-up.  The times reported are thus the times on a host that runs the probe
chunk in PROBE_REF_S; the raw medians are printed too.

Human-readable lines come first; the last line of stdout is the JSON result.
A results file (and, when traced, a spans file) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from stats import host_slowdown, summary

HERE = Path(__file__).resolve().parent
JOB = HERE / "job.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("table2", "covalency", "oracle", "classify")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

BLAS_THREADS = 1     # pinned; no higher than the 2 cores of the reference machine
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_SETUP_PROBES = 5
# The probe chunk's time on an unhindered host: about its fastest time on the
# 2-vCPU Xeon VM the benchmark was tuned on.  A constant rather than the run's
# own fastest chunk, because some runs never see the host unhindered.
PROBE_REF_S = 115e-6
JOB_TIMEOUT_S = 170


class JobError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(workload: str, seed: int, mode: str, extra: tuple = ()) -> dict:
    """Run one job in a fresh interpreter; times are measured from its start."""
    cmd = [sys.executable, str(JOB), workload, "--seed", str(seed), "--mode", mode, *extra]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise JobError(f"{mode} job exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - t_spawn
    res["setup_s"] = res["setup_done"] - t_spawn
    if "job_end" in res:
        res["wall_s"] = res["setup_s"] + res["job_end"] - res["job_start"]
    return res


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def at_reference_speed(job: dict) -> None:
    """Add a job's host slowdowns and its wall and CPU time scaled to PROBE_REF_S."""
    job["setup_slowdown"] = host_slowdown(job["probe"], PROBE_REF_S)
    job["job_slowdown"] = host_slowdown(job["job_probe"], PROBE_REF_S)
    setup, run = job["setup_s"], job["wall_s"] - job["setup_s"]
    cpu_setup, cpu_run = job["cpu_setup_s"], job["cpu_s"] - job["cpu_setup_s"]
    job["fair_wall_s"] = setup / job["setup_slowdown"] + run / job["job_slowdown"]
    job["fair_cpu_s"] = cpu_setup / job["setup_slowdown"] + cpu_run / job["job_slowdown"]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    """Untraced run: set-up probes, then jobs, then probes until the time is spent.

    Returns the samples at the reference host speed, the raw samples and the jobs.
    """
    deadline = time.monotonic() + seconds
    setups = [spawn(workload, seed, "setup") for _ in range(MIN_SETUP_PROBES)]
    jobs: list[dict] = []
    while not jobs or time.monotonic() + max(j["elapsed_s"] for j in jobs) <= deadline:
        jobs.append(spawn(workload, seed, "run"))
    while time.monotonic() + max(s["elapsed_s"] for s in setups) <= deadline:
        setups.append(spawn(workload, seed, "setup"))
    for r in setups:
        r["setup_slowdown"] = host_slowdown(r["probe"], PROBE_REF_S)
    for j in jobs:
        at_reference_speed(j)
    raw = {name: [j[name] for j in jobs] for name in ("wall_s", "cpu_s", "peak_rss_mb", "job_slowdown")}
    raw["setup_s"] = [r["setup_s"] for r in setups + jobs]
    raw["fastest_probe_s"] = [min(t for r in setups + jobs for t in r["probe"] + r.get("job_probe", []))]
    samples = {
        "wall_s": [j["fair_wall_s"] for j in jobs],
        "cpu_s": [j["fair_cpu_s"] for j in jobs],
        "setup_s": [r["setup_s"] / r["setup_slowdown"] for r in setups + jobs],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return samples, raw, jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and waits for the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "rqgraph" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the root of an rqgraph checkout (src/rqgraph not found)\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            plain = spawn(args.workload, args.seed, "run")
            traced = spawn(args.workload, args.seed, "trace", ("--spans-out", str(spans_path)))
            jobs = [plain, traced]
            values = dict(traced["layers"])
            for job in jobs:
                at_reference_speed(job)
            values["trace.overhead_s"] = traced["fair_wall_s"] - plain["fair_wall_s"]
            report = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in PER_LAYER.items()}
        else:
            samples, raw, jobs = measure(args.workload, args.seed, args.seconds)
            report = {name: dict(summary(samples[name]), unit=unit) for name, unit in END_TO_END.items()}
            raw_report = {name: summary(values) for name, values in raw.items()}
    except (JobError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted = sum(j["attempted"] for j in jobs)
    failures = [f for j in jobs for f in j["failures"]]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(root),
        **jobs[0]["env"],
    }

    print("environment " + json.dumps(env, sort_keys=True))
    for failure in failures:
        print("FAILED CHECK " + json.dumps(failure, default=str), file=sys.stderr)
    if args.trace:
        for name, entry in report.items():
            print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']:6s} moves: {PER_LAYER[name][2]}")
    else:
        for label, entries in (("", report), ("raw ", raw_report)):
            for name, entry in entries.items():
                print(
                    f"{label + name:16s} median {entry['median']:.6g} {entry.get('unit', '')}"
                    f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}"
                )
    print(f"{'fail_ratio':12s} {len(failures) / attempted:.6g}  ({len(failures)} of {attempted} checks failed)")

    raw_out = {} if args.trace else {"raw": raw_report}
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({"environment": env, "metrics": report, **raw_out, "failures": failures}, indent=1, default=str)
    )
    value_key = "value" if args.trace else "median"
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": entry[value_key], "unit": entry["unit"]} for name, entry in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
