"""Spans recorded around calls into rqgraph's public functions.

The traced job patches each traced function, in its own module and in every
rqgraph module that imported it by name, with a wrapper that records one span
per call.  Spans stay in memory (four flat arrays) and are written out once,
when the job ends.  Functions that are not wrapped count as self time of the
traced caller; `bounds.interpolated_gap_sign`, called 540,000 times by the
threshold derivation, is deliberately left out for that reason.

A span's clock excludes time the tracer spends on its own bookkeeping hooks
(see `Tracer.paused`), so self times measure the library, while the traced
run's wall time still carries the full cost of tracing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import Counter

from stats import self_times

# Verdicts whose |lambda - Ramanujan bound| falls under this window count as near ties.
NEAR_TIE_WINDOW = 1e-6

MODULES = ("group", "subsets", "spectra", "dense", "bounds", "primes", "cli")

# Every per-layer metric: (unit, better, the end-to-end metric it should move, on which workload).
PER_LAYER = {
    "primes.family_primes.s": ("s", "lower", "table2 wall_s, cpu_s"),
    "primes.family_primes.max_s": ("s", "lower", "table2 wall_s, cpu_s"),
    "primes.family_primes.candidates": ("count", "lower", "table2 wall_s, cpu_s"),
    "primes.family_primes.primes": ("count", "higher", "table2 wall_s, cpu_s"),
    "primes.family_primes.yield_ratio": ("ratio", "higher", "table2 wall_s, cpu_s"),
    "primes.derive_k_threshold.s": ("s", "lower", "table2 and classify wall_s (cold cache)"),
    "primes.hardy_littlewood_density.s": ("s", "lower", "table2 wall_s, peak_rss_mb"),
    "primes.is_prime.s": ("s", "lower", "classify wall_s"),
    "primes.is_prime.calls": ("count", "lower", "classify wall_s"),
    "primes.is_exceptional_arithmetic.s": ("s", "lower", "classify wall_s"),
    "subsets.enumerate_family.s": ("s", "lower", "covalency wall_s; oracle wall_s slightly"),
    "subsets.enumerate_family.yielded": ("count", "higher", "covalency wall_s; oracle wall_s slightly"),
    "subsets.enumerate_family.yield_ratio": ("ratio", "higher", "covalency wall_s; oracle wall_s slightly"),
    "spectra.is_ramanujan.s": ("s", "lower", "covalency and classify wall_s"),
    "spectra.is_ramanujan.calls": ("count", "lower", "covalency and classify wall_s"),
    "spectra.full_spectrum.s": ("s", "lower", "classify wall_s; under 1% of oracle"),
    "spectra.full_spectrum.calls": ("count", "lower", "classify wall_s; under 1% of oracle"),
    "spectra.near_ties": ("count", "lower", "fail_ratio of covalency and classify, not time"),
    "spectra.min_abs_margin": ("1", "higher", "fail_ratio of covalency and classify, not time"),
    "dense.eigensolve.s": ("s", "lower", "oracle wall_s, peak_rss_mb"),
    "dense.eigensolve.matrices": ("count", "lower", "oracle wall_s, peak_rss_mb"),
    "dense.eigensolve.bytes_computed": ("bytes", "lower", "oracle wall_s, peak_rss_mb"),
    "dense.adjacency_matrix.s": ("s", "lower", "oracle wall_s"),
    "dense.max_abs_delta": ("1", "lower", "oracle fail_ratio"),
    "group.generates.s": ("s", "lower", "oracle wall_s"),
    "group.generates.calls": ("count", "lower", "oracle wall_s"),
    "bounds.exact_safe_covalency.s": ("s", "lower", "covalency wall_s"),
    "bounds.is_exceptional_spectral.s": ("s", "lower", "classify wall_s"),
    "bounds.is_exceptional_spectral.calls": ("count", "lower", "classify wall_s"),
    "cli.spectrum.s": ("s", "lower", "classify wall_s"),
    "cli.table2.s": ("s", "lower", "table2 wall_s"),
    "cli.import_s": ("s", "lower", "setup_s on every workload"),
    "group.self_s": ("s", "lower", "oracle and covalency wall_s"),
    "subsets.self_s": ("s", "lower", "covalency wall_s; oracle wall_s slightly"),
    "spectra.self_s": ("s", "lower", "covalency, classify and oracle wall_s"),
    "dense.self_s": ("s", "lower", "oracle wall_s"),
    "bounds.self_s": ("s", "lower", "covalency and classify wall_s"),
    "primes.self_s": ("s", "lower", "table2 and classify wall_s"),
    "cli.self_s": ("s", "lower", "table2 and classify wall_s"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s of the same job"),
}

# (module, function, span name) for every wrapped function.
TRACED = (
    ("group", "generates", "group.generates"),
    ("group", "generates_fast", "group.generates_fast"),
    ("subsets", "enumerate_family", "subsets.enumerate_family"),
    ("spectra", "full_spectrum", "spectra.full_spectrum"),
    ("spectra", "lambda_max_nontrivial", "spectra.lambda_max_nontrivial"),
    ("spectra", "is_ramanujan", "spectra.is_ramanujan"),
    ("dense", "adjacency_matrix", "dense.adjacency_matrix"),
    ("dense", "symmetric_eigenvalues_batch", "dense.eigensolve"),
    ("bounds", "exact_safe_covalency", "bounds.exact_safe_covalency"),
    ("bounds", "is_exceptional_spectral", "bounds.is_exceptional_spectral"),
    ("primes", "is_prime", "primes.is_prime"),
    ("primes", "derive_k_threshold", "primes.derive_k_threshold"),
    ("primes", "family_primes", "primes.family_primes"),
    ("primes", "hardy_littlewood_density", "primes.hardy_littlewood_density"),
    ("primes", "is_exceptional_arithmetic", "primes.is_exceptional_arithmetic"),
)


class Tracer:
    """Spans of one job, kept in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._paused = 0.0
        self.counts: Counter = Counter()
        self.min_abs_margin = math.inf
        self.last_lambda = None     # (subset, value) of the latest lambda_max_nontrivial call

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.now())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    @contextlib.contextmanager
    def paused(self):
        """Hide the enclosed bookkeeping from every span's clock."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def record_margin(self, margin: float) -> None:
        self.counts["spectra.verdicts"] += 1
        if abs(margin) < NEAR_TIE_WINDOW:
            self.counts["spectra.near_ties"] += 1
        self.min_abs_margin = min(self.min_abs_margin, abs(margin))

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_return is not None:
                with self.paused():
                    on_return(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each next() of the generator as one span."""
        nid = self.name_id(name)

        def iterate(gen):
            while True:
                i = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def instrument(tracer: Tracer) -> None:
    """Replace every traced function by its wrapper, wherever rqgraph bound it."""
    import rqgraph
    from rqgraph import bounds, cli, dense, group, primes, spectra, subsets  # noqa: F401

    lambda_max_nontrivial = spectra.lambda_max_nontrivial

    def on_lambda(args, kwargs, result):
        tracer.last_lambda = (_first_arg(args, kwargs, "subset"), result)

    def on_is_ramanujan(args, kwargs, result):
        subset = _first_arg(args, kwargs, "subset")
        seen = tracer.last_lambda
        lam = seen[1] if seen is not None and seen[0] is subset else lambda_max_nontrivial(subset)
        tracer.record_margin(lam - spectra.ramanujan_bound(subset))

    def on_exceptional_spectral(args, kwargs, verdict):
        tracer.record_margin(verdict.witness["mu2_abs"] - verdict.witness["ramanujan_bound"])

    def on_eigensolve(args, kwargs, result):
        batch = _first_arg(args, kwargs, "batch")
        tracer.counts["dense.eigensolve.matrices"] += len(batch)
        tracer.counts["dense.eigensolve.bytes_computed"] += batch.nbytes

    def on_family_primes(args, kwargs, report):
        fam = report.family
        k_min = args[3] if len(args) > 3 else kwargs.get("k_min")
        k_lo = fam.k_threshold if k_min is None else k_min
        k_hi = math.isqrt(max(report.x_max, 0) // 36) + 1
        while k_hi >= 0 and fam.value(k_hi) > report.x_max:
            k_hi -= 1
        tracer.counts["primes.family_primes.candidates"] += max(0, k_hi - k_lo + 1)
        tracer.counts["primes.family_primes.primes"] += report.count

    hooks = {
        "spectra.lambda_max_nontrivial": on_lambda,
        "spectra.is_ramanujan": on_is_ramanujan,
        "bounds.is_exceptional_spectral": on_exceptional_spectral,
        "dense.eigensolve": on_eigensolve,
        "primes.family_primes": on_family_primes,
    }
    loaded = [m for n, m in sys.modules.items() if n == "rqgraph" or n.startswith("rqgraph.")]
    for module, attr, name in TRACED:
        original = getattr(getattr(rqgraph, module), attr)
        if name == "subsets.enumerate_family":
            wrapper = tracer.wrap_generator(name, original)
        else:
            wrapper = tracer.wrap(name, original, hooks.get(name))
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its spans and counters."""
    names = tracer.names
    n_names = len(names)
    total = [0.0] * n_names
    calls = [0] * n_names
    longest = [0.0] * n_names
    module_self = dict.fromkeys(MODULES, 0.0)
    module_of = [name.split(".")[0] for name in names]
    tried = 0
    enum_id = tracer.ids.get("subsets.enumerate_family", -1)
    gen_fast_id = tracer.ids.get("group.generates_fast", -1)
    span_self = self_times(tracer.parent, tracer.start, tracer.end)
    for nid, parent, s, e, own in zip(tracer.name, tracer.parent, tracer.start, tracer.end, span_self):
        d = e - s
        total[nid] += d
        calls[nid] += 1
        if d > longest[nid]:
            longest[nid] = d
        module_self[module_of[nid]] += own
        if nid == gen_fast_id and parent >= 0 and tracer.name[parent] == enum_id:
            tried += 1

    def time_of(name):
        nid = tracer.ids.get(name)
        return total[nid] if nid is not None else 0.0

    def calls_of(name):
        nid = tracer.ids.get(name)
        return calls[nid] if nid is not None else 0

    c = tracer.counts
    candidates = c["primes.family_primes.candidates"]
    yielded = c["subsets.enumerate_family.yielded"]
    fam_id = tracer.ids.get("primes.family_primes")
    out = {
        "primes.family_primes.s": time_of("primes.family_primes"),
        "primes.family_primes.max_s": longest[fam_id] if fam_id is not None else 0.0,
        "primes.family_primes.candidates": candidates,
        "primes.family_primes.primes": c["primes.family_primes.primes"],
        "primes.family_primes.yield_ratio": (
            c["primes.family_primes.primes"] / candidates if candidates else 0.0
        ),
        "primes.derive_k_threshold.s": time_of("primes.derive_k_threshold"),
        "primes.hardy_littlewood_density.s": time_of("primes.hardy_littlewood_density"),
        "primes.is_prime.s": time_of("primes.is_prime"),
        "primes.is_prime.calls": calls_of("primes.is_prime"),
        "primes.is_exceptional_arithmetic.s": time_of("primes.is_exceptional_arithmetic"),
        "subsets.enumerate_family.s": time_of("subsets.enumerate_family"),
        "subsets.enumerate_family.yielded": yielded,
        "subsets.enumerate_family.yield_ratio": yielded / max(tried, yielded) if yielded else 0.0,
        "spectra.is_ramanujan.s": time_of("spectra.is_ramanujan"),
        "spectra.is_ramanujan.calls": calls_of("spectra.is_ramanujan"),
        "spectra.full_spectrum.s": time_of("spectra.full_spectrum"),
        "spectra.full_spectrum.calls": calls_of("spectra.full_spectrum"),
        "spectra.near_ties": c["spectra.near_ties"],
        # -1 marks a job that made no Ramanujan verdict at all.
        "spectra.min_abs_margin": tracer.min_abs_margin if c["spectra.verdicts"] else -1.0,
        "dense.eigensolve.s": time_of("dense.eigensolve"),
        "dense.eigensolve.matrices": c["dense.eigensolve.matrices"],
        "dense.eigensolve.bytes_computed": c["dense.eigensolve.bytes_computed"],
        "dense.adjacency_matrix.s": time_of("dense.adjacency_matrix"),
        "group.generates.s": time_of("group.generates"),
        "group.generates.calls": calls_of("group.generates"),
        "bounds.exact_safe_covalency.s": time_of("bounds.exact_safe_covalency"),
        "bounds.is_exceptional_spectral.s": time_of("bounds.is_exceptional_spectral"),
        "bounds.is_exceptional_spectral.calls": calls_of("bounds.is_exceptional_spectral"),
        "cli.spectrum.s": time_of("cli.spectrum"),
        "cli.table2.s": time_of("cli.table2"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module]
    return out
