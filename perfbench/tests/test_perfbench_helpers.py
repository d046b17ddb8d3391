"""Tests for the benchmark's statistics, span arithmetic and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from stats import host_slowdown, median, quartiles, self_times, summary  # noqa: E402


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("values", [[1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [0.3, 0.1, 0.2, 0.9, 0.5, 0.7]])
def test_quartiles_match_statistics_quantiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)


def test_quartiles_of_one_sample_are_the_sample():
    assert quartiles([7.5]) == (7.5, 7.5)


def test_summary_reports_median_quartiles_and_count():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}


def test_host_slowdown_is_mean_probe_over_reference():
    assert host_slowdown([1.0, 1.0, 4.0], 1.0) == 2.0
    assert host_slowdown([0.5], 0.5) == 1.0


@pytest.mark.parametrize("probe, reference", [([], 1.0), ([1.0], 0.0)])
def test_host_slowdown_rejects_empty_probe_or_reference(probe, reference):
    with pytest.raises(ValueError):
        host_slowdown(probe, reference)


def test_calibration_returns_positive_chunk_times():
    import job

    chunks = job.calibrate(0.02)
    assert chunks and all(t > 0.0 for t in chunks)


def test_self_times_subtract_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child g [2, 3].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_roots_are_their_durations():
    assert self_times([-1, -1], [0.0, 2.0], [1.5, 2.25]) == [1.5, 0.25]


def test_tracer_records_nested_spans_and_generator_steps():
    tracer = spans.Tracer()
    inner = tracer.wrap("dense.inner", lambda x: x + 1)

    def numbers(n):
        for i in range(n):
            yield inner(i)

    gen = tracer.wrap_generator("subsets.numbers", numbers)
    with tracer.span("cli.outer"):
        assert list(gen(3)) == [1, 2, 3]
    names = [tracer.names[i] for i in tracer.name]
    # three yielding next() calls, each with one inner call, and the final next().
    assert names.count("subsets.numbers") == 4
    assert names.count("dense.inner") == 3
    assert tracer.counts["subsets.numbers.yielded"] == 3
    outer = names.index("cli.outer")
    assert all(p == outer for p, n in zip(tracer.parent, names) if n == "subsets.numbers")
    for i, n in enumerate(names):
        if n == "dense.inner":
            assert names[tracer.parent[i]] == "subsets.numbers"
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert all(t >= 0.0 for t in own)


def test_paused_bookkeeping_is_hidden_from_spans():
    tracer = spans.Tracer()
    with tracer.span("cli.outer"):
        with tracer.paused():
            sum(range(200_000))
    assert tracer.end[0] - tracer.start[0] < 0.005


def test_near_tie_window_and_min_margin():
    tracer = spans.Tracer()
    for margin in (0.5, -3e-7, 2e-6):
        tracer.record_margin(margin)
    assert tracer.counts["spectra.near_ties"] == 1
    assert tracer.min_abs_margin == 3e-7


def test_benchmark_json_matches_the_metrics_the_harness_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == {
        (name, unit, better) for name, (unit, better, _) in spans.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
