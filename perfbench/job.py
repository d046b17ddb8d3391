"""One job of one workload, in the fresh interpreter that runs this script.

    python3 perfbench/job.py <workload> --seed N --mode setup|run|trace

Prints one JSON line on stdout.  Times are time.monotonic() readings, which
on Linux share one clock with the parent process, so the parent can measure
from the moment it started this interpreter.  `setup` stops after rqgraph is
imported and the inputs are built; `run` also runs and checks the job; `trace`
does the same with every traced rqgraph function wrapped in a span, and adds
the per-layer metrics and a spans file.

Right after set-up the interpreter times a fixed probe chunk back to back for
CALIBRATION_S seconds (`probe`), and while the job runs a timer samples the
same chunk every SAMPLE_EVERY_S (`job_probe`).  Neither counts in the job's
own times: the job is timed from job_start, and job_end and cpu_s have the
timer's share taken out.  The parent compares the chunks with a reference
chunk time to tell how much other tenants of the host slowed set-up and job
down.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import signal
import sys
import time

CALIBRATION_S = 0.25    # back-to-back probe chunks after set-up
SAMPLE_EVERY_S = 0.02   # probe ticks while the job runs ...
SAMPLE_CHUNKS = 2       # ... each timing this many chunks after a warm-up one


def _no_span(name):
    return contextlib.nullcontext()


def _probe_chunk() -> float:
    """A fixed 0.1-0.2 ms of interpreter work: integer, float, call and dict traffic."""
    acc, x, seen = 0, 0.0, {}
    for i in range(1, 700):
        acc += i * i % 7
        x += math.sin(i / 7.0)
        seen[i & 31] = acc
    return x


def calibrate(seconds: float) -> list[float]:
    """Wall times of back-to-back probe chunks for `seconds`: how fast the host runs us now."""
    out = []
    end = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        _probe_chunk()
        now = time.perf_counter()
        out.append(now - t)
        if now >= end:
            return out


class Sampler:
    """Times probe chunks from a SIGALRM handler every SAMPLE_EVERY_S while a job runs.

    Each tick runs one chunk to warm it up and times the next SAMPLE_CHUNKS,
    so `chunks` shows how fast the host ran us while the job ran; `wall_s`
    and `cpu_s` are what the ticks themselves took, for the job's clocks to
    subtract.  Python runs the handler between bytecodes, so a long call into
    C delays the tick without losing it.  `hide` wraps each tick; the traced
    job passes `Tracer.paused` so that no span's clock takes the ticks in.
    """

    def __init__(self, hide=contextlib.nullcontext):
        self.chunks: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._hide = hide

    def _tick(self, signum, frame):
        with self._hide():
            w, c = time.perf_counter(), time.process_time()
            _probe_chunk()
            for _ in range(SAMPLE_CHUNKS):
                t = time.perf_counter()
                _probe_chunk()
                self.chunks.append(time.perf_counter() - t)
            self.cpu_s += time.process_time() - c
            self.wall_s += time.perf_counter() - w

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import rqgraph.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    result = {"setup_done": time.monotonic(), "import_s": import_s}
    cpu_cal = _cpu_s()
    result["probe"] = calibrate(CALIBRATION_S)
    cpu_cal = _cpu_s() - cpu_cal
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    span = _no_span
    sampler = Sampler()
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
        span = tracer.span
        sampler = Sampler(hide=tracer.paused)
    cpu_setup = _cpu_s() - cpu_cal
    result["job_start"] = time.monotonic()
    with sampler as ticks:
        outputs = wl.run(inputs, span)
    result["job_end"] = time.monotonic() - ticks.wall_s
    result["cpu_setup_s"] = cpu_setup
    result["cpu_s"] = _cpu_s() - cpu_cal - ticks.cpu_s
    result["job_probe"] = ticks.chunks
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0   # ru_maxrss is in KiB

    checks = wl.check(outputs)
    result["attempted"] = len(checks)
    result["failures"] = [{"check": name, "got": detail} for name, ok, detail in checks if not ok]
    result["env"] = dict(_environment(), seed_used=wl.uses_seed)
    if args.mode == "trace":
        layers = spans.layer_metrics(tracer)
        layers.update(wl.layer_metrics(outputs))
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
