"""Tests of the benchmark's own harness.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
import run  # noqa: E402
from repro.service import CircuitBreakerTripped  # noqa: E402
from repro.telemetry import Span  # noqa: E402
from workloads import PER_LAYER, WORKLOADS  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def _run(argv) -> tuple[int, dict, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv)
    details, result = (json.loads(line) for line in stdout.getvalue().splitlines()[-2:])
    return code, details, result


# -- percentiles and the sample-count rule -----------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile([7.0], 0.99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert harness.beyond(1000, 0.99) == 10
    assert harness.beyond(999, 0.99) == 9
    summary = harness.summarize_latencies([i / 1000.0 for i in range(1000)][::-1])
    assert summary.samples == 1000
    assert summary.beyond_p99 == 10
    assert summary.p50_ms == pytest.approx(499.0)
    assert summary.p99_ms == pytest.approx(989.0)
    assert summary.problem is None
    assert summary.slices == 1
    assert "beyond p99" in harness.summarize_latencies([0.001] * 999).problem


def test_p99_is_the_median_over_slices():
    # Five slices of 1000; a stall makes the second slice ten times slower.
    latencies = [0.001 + i * 1e-6 for i in range(1000)] * 5
    latencies[1000:2000] = [x * 10 for x in latencies[1000:2000]]
    summary = harness.summarize_latencies(latencies)
    assert summary.slices == 5
    assert summary.beyond_p99 == 10
    assert summary.p99_ms == pytest.approx(harness.percentile(sorted(latencies[:1000]), 0.99) * 1e3)


# -- the host probe and the reference speed ------------------------------------


def test_scale_is_reference_over_the_mean_probe_around_an_operation():
    host = harness.HostProbe()
    reference = harness.REFERENCE_S
    host.at, host.took = [0, 2, 4], [reference, reference, 2 * reference]
    assert host.scales(4).tolist() == pytest.approx([1.0, 1.0, 2 / 3, 2 / 3])
    with pytest.raises(ValueError):
        host.scales(5)  # the last operation has no probe after it


def test_probe_runs_when_due_and_times_the_reference_loop():
    host = harness.HostProbe(every_s=60.0)
    host.probe(0)
    assert host.at == [0] and host.took[0] > 0
    assert host.due > time.perf_counter() + 30.0


def test_native_probe_scales_against_the_lp_reference():
    host = harness.HostProbe(every_s=0.0, native=True)
    host.probe(0)
    host.probe(1)
    expected = harness.REFERENCE_LP_S / (sum(host.took) / 2)
    assert host.scales(1).tolist() == pytest.approx([expected])


def test_rate_counts_operation_time_at_the_reference_speed():
    # A batch of 16 took 2 ms while the host ran at half the reference speed.
    rate = harness.summarize_rate([1, 16], [0.001, 0.002], np.array([1.0, 0.5]))
    assert rate == pytest.approx(17 / 0.002)


def test_median_of_even_and_odd_samples():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


# -- failures versus expected refusals ----------------------------------------


def test_expected_refusal_is_not_a_failure():
    tally = harness.Tally()
    refusal = CircuitBreakerTripped("tripped", analyst="a", report=None)
    assert tally.record(None) == "ok"
    assert tally.record(refusal, (CircuitBreakerTripped,)) == "refused"
    assert tally.record(ValueError("bad query"), (CircuitBreakerTripped,)) == "failed"
    # The same refusal from an operation that does not expect it fails.
    assert tally.record(refusal) == "failed"
    assert (tally.attempted, tally.refused, tally.failed) == (4, 1, 2)
    assert tally.errors[0].startswith("ValueError")


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(1, 1, None, "request", 0.0, 10.0),
        Span(1, 2, 1, "charge", 1.0, 3.0),
        Span(1, 3, 1, "audit", 2.0, 4.0),  # overlaps the first child
        Span(1, 4, 3, "decode", 3.0, 1.0),
    ]
    totals = harness.self_times(spans)
    assert totals["request"] == pytest.approx(10.0 - 5.0)
    assert totals["charge"] == pytest.approx(3.0)
    assert totals["audit"] == pytest.approx(3.0)
    assert totals["decode"] == pytest.approx(1.0)


# -- deterministic generation -------------------------------------------------


def _fingerprint(inputs) -> list:
    """Every generated input as plain comparable values."""

    def flat(value):
        if hasattr(value, "mask"):
            return np.packbits(value.mask).tobytes()
        if hasattr(value, "masks"):
            return np.packbits(value.masks).tobytes()
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, dict):
            return sorted((k, flat(v)) for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return [flat(v) for v in value]
        return value

    return [flat(v) for v in vars(inputs).values()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = _fingerprint(workload.generate(5, 0.05))
    assert first == _fingerprint(workload.generate(5, 0.05))
    assert first != _fingerprint(workload.generate(6, 0.05))


# -- the declared names and a traced smoke run ---------------------------------


def test_benchmark_json_names_match_the_code():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_per_layer_metric(name, tmp_path):
    code, details, result = _run(
        ["--workload", name, "--seed", "3", "--seconds", "0.6", "--trace", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0, details
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    assert details["environment"]["seed"] == 3
    assert os.path.exists(details["details"]["spans"])


def test_untraced_run_reports_every_end_to_end_metric():
    code, details, result = _run(
        ["--workload", "serve-hot", "--seed", "4", "--seconds", "0.5", "--trace", "0"]
    )
    assert code == 0, details
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["details"]["latency_samples"] >= 1000
    assert details["details"]["beyond_p99"] >= harness.MIN_TAIL_SAMPLES
    assert set(details["details"]["as_measured"]) <= set(run.END_TO_END)
