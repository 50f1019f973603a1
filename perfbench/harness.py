"""Workload-independent pieces of the benchmark: the host probe,
statistics, outcome classification, span self times, the run environment
and result lines.

Nothing here imports the program under test, so the harness tests run
without it and a broken checkout fails only where the program is needed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer and the value is one outlier, not a tail.
MIN_TAIL_SAMPLES = 10
#: The p99 is the median of the p99s of up to this many consecutive slices
#: of the run, each large enough for the rule above.
TAIL_SLICES = 5

#: Iterations of the host probe's reference loop.
REFERENCE_LOOPS = 1500
#: The reference loop's time on a quiet host: the 2-vCPU Xeon box this
#: benchmark was tuned on ran it in 155-170 us when nothing else ran there.
REFERENCE_S = 160e-6
#: The native reference's time on the same host when the loop above took
#: under 220 us; when the host was busy, the loop slowed up to 1.8x and
#: this LP only about 1.45x.
REFERENCE_LP_S = 5.2e-3
#: Least seconds between two host probes in a timed phase.
PROBE_EVERY_S = 0.02


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < q <= 1``)."""
    if not len(sorted_values):
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` rank."""
    return count - max(1, math.ceil(q * count))


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def reference_loop(loops: int = REFERENCE_LOOPS) -> int:
    """Fixed pure-Python work (dict stores and lookups) whose time tells
    how fast the host is running this process at the moment."""
    table: dict = {}
    total = 0
    for i in range(loops):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


def reference_lp() -> None:
    """A fixed 48 x 64 LP solved by scipy's HiGHS interior-point method,
    the solver the reconstruction's LP decoding uses: its time tells how
    fast the host is running native numerical code at the moment."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    constraints = rng.random((48, 64))
    linprog(
        -rng.random(64),
        A_ub=constraints,
        b_ub=constraints.sum(axis=1) / 2,
        bounds=(0, 1),
        method="highs-ipm",
    )


class HostProbe:
    """Measures how fast the shared host runs the client, operation by
    operation, so that timings can be given at the reference host speed.

    The box this benchmark was tuned on ran the same pure-Python loop up to
    twice as slowly at some times as at others. It switched every fraction
    of a second to every few minutes, with no steal time to show for it:
    other tenants share the cores. One run's timings then read the host's
    load more than the program: serve-hot's measured throughput read
    53,700 queries/s on the quiet host and 24,800-31,300 an hour later.

    So between operations, at most every ``every_s`` seconds, the client
    times :func:`reference_loop`; no probe falls inside an operation's
    latency. An operation's *scale* is ``REFERENCE_S`` over the mean of
    the two probes around it, and its time times its scale is its time at
    the reference host speed.

    With ``native``, the probe solves :func:`reference_lp` instead, against
    ``REFERENCE_LP_S``: LP decoding runs in native code, which a busy host
    slows less than interpreted Python, so the Python loop would
    over-correct it.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S, native: bool = False) -> None:
        self.every_s = every_s
        self.reference, self.reference_s = (
            (reference_lp, REFERENCE_LP_S) if native else (reference_loop, REFERENCE_S)
        )
        #: ``perf_counter`` time from which the next probe is due.
        self.due = 0.0
        self.at: list[int] = []
        self.took: list[float] = []

    def probe(self, index: int) -> None:
        """Time the reference just before operation ``index``."""
        start = time.perf_counter()
        self.reference()
        end = time.perf_counter()
        self.at.append(index)
        self.took.append(end - start)
        self.due = end + self.every_s

    def scales(self, count: int) -> np.ndarray:
        """Scale of each of ``count`` operations, all of which must lie
        between two probes."""
        at = np.asarray(self.at)
        if len(at) < 2 or at[0] > 0 or at[-1] < count:
            raise ValueError(f"{count} operations are not all between two probes")
        took = np.asarray(self.took)
        around = (took[:-1] + took[1:]) / 2.0
        return np.repeat(self.reference_s / around, np.diff(at))[:count]


def summarize_rate(sizes, seconds, scales) -> float:
    """Work done per second of operation time at the reference speed."""
    return float(np.sum(sizes)) / float(np.dot(seconds, scales))


@dataclass(frozen=True)
class LatencySummary:
    """p50 and p99 of one run's latencies, with the sample count.

    ``beyond_p99`` is the fewest samples beyond the p99 in any slice.
    """

    p50_ms: float
    p99_ms: float
    samples: int
    slices: int
    beyond_p99: int

    @property
    def problem(self) -> str | None:
        """Why the p99 is not a tail measurement, or ``None`` when it is."""
        if self.beyond_p99 >= MIN_TAIL_SAMPLES:
            return None
        return (
            f"{self.samples} latency samples put {self.beyond_p99} beyond p99; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )


def summarize_latencies(latencies_s) -> LatencySummary:
    """p50 over all requests, and p99 as the median over consecutive slices.

    Latencies come in request order.  A stall of the host that lasts a few
    seconds holds more than 1% of a run's requests, so a whole-run p99
    reads the stall (one run's p99 rose from 1.8 to 7 ms that way); the
    median of the slices' p99s reads it only when it covers half the
    slices.  Each slice keeps at least ``100 * MIN_TAIL_SAMPLES`` samples,
    so its p99 has ten beyond it.
    """
    latencies = np.asarray(latencies_s, dtype=float)
    count = len(latencies)
    slices = max(1, min(TAIL_SLICES, count // (100 * MIN_TAIL_SAMPLES)))
    chunks = [np.sort(chunk) for chunk in np.array_split(latencies, slices)]
    return LatencySummary(
        p50_ms=percentile(np.sort(latencies), 0.50) * 1e3,
        p99_ms=median(percentile(chunk, 0.99) for chunk in chunks) * 1e3,
        samples=count,
        slices=slices,
        beyond_p99=min(beyond(len(chunk), 0.99) for chunk in chunks),
    )


@dataclass
class Tally:
    """Operations attempted, failed, and refused in an expected, typed way.

    A refusal is an exception whose type the caller names as expected for
    that operation (a coalition member's ``CircuitBreakerTripped``); it is
    counted on its own and is not a failure.  Every other exception is a
    failure, kept with its type and message so the run can say what broke.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    errors: list = field(default_factory=list)

    def record(self, error: BaseException | None, expected: tuple = ()) -> str:
        """Count one finished operation; return "ok", "refused" or "failed"."""
        self.attempted += 1
        if error is None:
            return "ok"
        if expected and isinstance(error, expected):
            self.refused += 1
            return "refused"
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")
        return "failed"


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are merged first).
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        start, end = span.start, span.start + span.duration
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.start + child.duration, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals


def write_spans(path: str, spans) -> None:
    """Write the spans (one JSON object a line) and their self-time summary."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "trace": span.trace_id,
                        "span": span.span_id,
                        "parent": span.parent_id,
                        "name": span.name,
                        "start": span.start,
                        "duration": span.duration,
                    }
                )
                + "\n"
            )
        handle.write(json.dumps({"self_seconds": self_times(spans)}) + "\n")


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def environment(seed: int) -> dict:
    """Where a result came from, so results of different boxes never mix."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    """The final stdout line: the run's result as one JSON object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": metrics,
        }
    )
