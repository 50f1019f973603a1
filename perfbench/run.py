"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--workload all`` runs every workload, each in its own process, and exits
non-zero if any of them does.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced calibration window and then a traced window of the same length,
and reports the per-layer metrics plus the tracing overhead.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it carries the run's environment, the
latency sample counts and the traffic shares the workload actually had.
The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402

#: Set-ups per untraced run, ``setup_s`` being their median at the
#: reference host speed: at least ``SETUP_MIN`` and, while under
#: ``SETUP_BUDGET_S`` seconds in all, more, up to ``SETUP_MAX``, so that
#: millisecond set-ups are still steady.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 100, 2.0
#: Spans kept in the traced run's ring buffer.
SPAN_CAPACITY = 1 << 16
#: Keep one request trace in this many (per-request spans are cheap but
#: not free next to a cache hit of a few microseconds).
SPAN_SAMPLE_EVERY = {"serve-hot": 8, "serve-fresh-capped": 2}

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "leak_agreement": "fraction",
    "reconstruct_records_per_s": "records/s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=os.path.join(ROOT, ".perfbench_out"),
        help="directory the traced run writes its spans to",
    )
    return parser.parse_args(argv)


@contextmanager
def frozen_heap():
    """Keep the objects alive so far (the generated inputs and the set-up
    state) out of the cyclic collector's passes while the phase runs, so a
    long schedule held by the client does not slow the program's requests.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_phase(workload, state, inputs, seconds: float):
    workload.mark(state)
    with frozen_heap():
        return workload.run(state, inputs, seconds)


def end_to_end(workload, inputs, seed: int, seconds: float):
    """Set up several times, run the timed phase once, attack, check."""
    from layers import Probe

    setups = []
    state = None
    host = harness.HostProbe(every_s=0.0)
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S
    ):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        host.probe(len(setups))
        start = time.perf_counter()
        state = workload.setup(inputs, seed, Probe(), None)
        setups.append(time.perf_counter() - start)
    host.probe(len(setups))
    phase = timed_phase(workload, state, inputs, seconds)
    attack = workload.attack(state, inputs, state.probe)
    problems = workload.check(state, inputs, phase)
    shares = workload.shares(state, phase)
    workload.close(state)
    scales = phase.scales()
    throughput, latency = workload.figures(phase, scales)
    raw_throughput, raw_latency = workload.figures(phase, np.ones(len(scales)))
    if latency.problem:
        problems.append(latency.problem)
    values = {
        "setup_s": harness.median(np.asarray(setups) * host.scales(len(setups))),
        "throughput_qps": throughput,
        "latency_p50_ms": latency.p50_ms,
        "latency_p99_ms": latency.p99_ms,
        "leak_agreement": attack.leak,
        "reconstruct_records_per_s": attack.records_per_s,
        "trials_per_s": attack.trials_per_s,
        "peak_rss_mb": phase.peak_rss_mb or harness.peak_rss_mb(),
    }
    details = {
        "latency_samples": latency.samples,
        "latency_slices": latency.slices,
        "beyond_p99": latency.beyond_p99,
        "probe_median_us": harness.median(phase.host.took) * 1e6,
        "as_measured": {
            "setup_s": harness.median(setups),
            "throughput_qps": raw_throughput,
            "latency_p50_ms": raw_latency.p50_ms,
            "latency_p99_ms": raw_latency.p99_ms,
        },
        "requests": phase.requests,
        "queries": phase.queries,
        "elapsed_s": phase.elapsed,
        "refused": phase.tally.refused,
        "setup_runs": len(setups),
    }
    metrics = {name: harness.metric(values[name], unit) for name, unit in END_TO_END.items()}
    return phase.tally, problems, shares, metrics, details


def traced(workload, inputs, seed: int, seconds: float, out: str):
    """Untraced calibration window, then the traced window that reports."""
    from layers import Probe
    from repro.telemetry import SpanRecorder, Telemetry
    from workloads import PER_LAYER

    window = seconds / 2.0
    state = workload.setup(inputs, seed, Probe(), None)
    calibration = timed_phase(workload, state, inputs, window)
    workload.close(state)
    del state
    gc.collect()

    spans = SpanRecorder(
        capacity=SPAN_CAPACITY, sample_every=SPAN_SAMPLE_EVERY.get(workload.name, 1)
    )
    probe = Probe(spans)
    telemetry = Telemetry(spans=spans)
    with probe.span("setup"):
        state = workload.setup(inputs, seed, probe, telemetry)
    phase = timed_phase(workload, state, inputs, window)
    with probe.span("attack"):
        workload.attack(state, inputs, probe)
    problems = workload.check(state, inputs, phase)
    shares = workload.shares(state, phase)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(workload.layers(state, phase))
    workload.close(state)
    for name, share in shares.items():
        values[f"traffic.{name}_share"] = share
    untraced_per_op = calibration.elapsed / max(calibration.tally.attempted, 1)
    traced_per_op = phase.elapsed / max(phase.tally.attempted, 1)
    values["trace.overhead_ratio"] = traced_per_op / untraced_per_op
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics not declared: {sorted(unknown)}")
    path = os.path.join(out, f"spans-{workload.name}-seed{seed}.jsonl")
    recorded = spans.spans()
    harness.write_spans(path, recorded)
    metrics = {name: harness.metric(values[name], PER_LAYER[name]) for name in PER_LAYER}
    details = {
        "requests": phase.requests,
        "calibration_requests": calibration.requests,
        "refused": phase.tally.refused,
        "spans": path,
        "spans_recorded": spans.total_recorded,
        "self_seconds": harness.self_times(recorded),
    }
    return phase.tally, problems, shares, metrics, details


def run_all(args) -> int:
    """Every workload in its own process (so peak memory is per workload)."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", args.out,
        ]
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print(f"== {name} (exit {child.returncode})")
        if len(lines) >= 2:
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            samples = details["details"].get("latency_samples")
            for metric, value in result["metrics"].items():
                note = f"  ({samples} samples)" if "latency" in metric and samples else ""
                print(f"{metric:40s} {value['value']:>16.6g} {value['unit']}{note}")
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} problems={details['problems']}")
        worst = max(worst, child.returncode if child.returncode >= 0 else 1)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        from workloads import WORKLOADS
    except ImportError as missing:
        print(f"cannot import the program under test: {missing}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    inputs = workload.generate(args.seed, args.seconds)
    if args.trace:
        tally, problems, shares, metrics, details = traced(
            workload, inputs, args.seed, args.seconds, args.out
        )
    else:
        tally, problems, shares, metrics, details = end_to_end(
            workload, inputs, args.seed, args.seconds
        )
    if tally.attempted < 1:
        problems.append("no operation was attempted")
    correct = not problems and tally.failed == 0
    print(
        json.dumps(
            {
                "workload": workload.name,
                "trace": args.trace,
                "environment": harness.environment(args.seed),
                "shares": shares,
                "details": details,
                "problems": problems,
                "errors": tally.errors,
            }
        )
    )
    print(harness.result_line(correct, tally, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    # String hashing is salted per process unless PYTHONHASHSEED is set,
    # which moves dict-heavy set-up times by up to a third from one
    # process to the next.  Run under one fixed salt instead.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
