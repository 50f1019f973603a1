"""Metric names and the stage wrappers the serve stack instruments with.

One module owns the metric-family vocabulary so the pipeline, the
sharded front end, the audit workers, the compliance gate, the
accountant, the benchmarks, and the CI smoke all agree on names — the
smoke asserts these exact families appear in the Prometheus export.

The wrappers follow one rule: **wrap the seam, not the call sites**.
:class:`TelemetryStage` decorates any pipeline stage (it preserves
``name`` and delegates ``single``/``batch``), and
:class:`TelemetryAdmission` decorates an
:class:`~repro.service.pipeline.AdmissionControl` (preserving
``enter``/``exit``), so the pipeline's stage list stays the single place
instrumentation attaches.  Nothing here imports the service layer —
rejects are classified by the duck-typed ``reason`` attribute — so
``repro.telemetry`` stays a leaf package the whole stack can depend on.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

__all__ = [
    "ADMISSION_REJECTS",
    "AUDIT_ERRORS",
    "AUDIT_ESCALATIONS",
    "AUDIT_PASS_SECONDS",
    "AUDIT_QUEUE_DEPTH",
    "AUDIT_QUEUE_DEPTH_PEAK",
    "BREAKER_TRIPS",
    "BUDGET_EPSILON_REMAINING",
    "BUDGET_EPSILON_SPENT",
    "CACHE_ENTRIES",
    "CACHE_EVICTIONS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "COMPLIANCE_DENIALS",
    "COMPLIANCE_REQUIRE_SECONDS",
    "REQUESTS_TOTAL",
    "STAGE_SECONDS",
    "TelemetryAdmission",
    "TelemetryStage",
    "analyst_digest_prefix",
]

# -- serve pipeline ---------------------------------------------------------
#: Per-stage serving latency, labeled (stage, shard, mechanism).  The fused
#: cached-replay path reports under stage="cache_hit_fastpath".
STAGE_SECONDS = "repro_serve_stage_seconds"
#: Requests served, labeled (shard, mechanism, analyst=digest prefix).
REQUESTS_TOTAL = "repro_requests_total"
#: Admission refusals, labeled (reason, shard); pre-created at zero.
ADMISSION_REJECTS = "repro_admission_rejects_total"

# -- caches -----------------------------------------------------------------
CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_EVICTIONS = "repro_cache_evictions_total"
CACHE_ENTRIES = "repro_cache_entries"

# -- audit workers ----------------------------------------------------------
AUDIT_QUEUE_DEPTH = "repro_audit_queue_depth"
AUDIT_QUEUE_DEPTH_PEAK = "repro_audit_queue_depth_peak"
AUDIT_PASS_SECONDS = "repro_audit_pass_seconds"
AUDIT_ESCALATIONS = "repro_audit_escalations_total"
AUDIT_ERRORS = "repro_audit_errors_total"
BREAKER_TRIPS = "repro_breaker_trips_total"

# -- compliance gate --------------------------------------------------------
COMPLIANCE_REQUIRE_SECONDS = "repro_compliance_require_seconds"
COMPLIANCE_DENIALS = "repro_compliance_denials_total"

# -- budget accounting ------------------------------------------------------
BUDGET_EPSILON_SPENT = "repro_budget_epsilon_spent"
BUDGET_EPSILON_REMAINING = "repro_budget_epsilon_remaining"


@lru_cache(maxsize=4096)
def analyst_digest_prefix(analyst: str) -> str:
    """A short, stable, non-identifying label for one analyst.

    Four hex characters of a BLAKE2b digest: enough to tell sessions
    apart on a dashboard without writing raw analyst names into metric
    labels (which outlive the session and leave the process via
    exporters).
    """
    return hashlib.blake2b(analyst.encode("utf-8"), digest_size=2).hexdigest()


class TelemetryStage:
    """A pipeline stage wrapper timing ``single``/``batch`` into a histogram.

    Exposes the wrapped stage's ``name`` (the pipeline repr and the stage
    -sequence tests see the same names with telemetry on or off) and the
    raw stage as ``inner`` (identity-sensitive consumers unwrap).
    """

    __slots__ = ("inner", "name", "_hist", "_clock")

    def __init__(self, inner, hist, clock):
        self.inner = inner
        self.name = inner.name
        self._hist = hist
        self._clock = clock

    def single(self, x) -> None:
        start = self._clock()
        try:
            self.inner.single(x)
        finally:
            self._hist.observe(self._clock() - start)

    def batch(self, x) -> None:
        start = self._clock()
        try:
            self.inner.batch(x)
        finally:
            self._hist.observe(self._clock() - start)

    def __repr__(self) -> str:
        return f"TelemetryStage({self.inner!r})"


class TelemetryAdmission:
    """An admission wrapper counting refusals by reason and timing entry.

    ``reject_counters`` maps refusal reasons (the exception's duck-typed
    ``reason`` attribute, e.g. ``"rate_limit"``/``"overload"``) to
    pre-created counters; unknown reasons fall into the ``"other"`` slot
    when one is provided, else go uncounted rather than raising.
    """

    __slots__ = ("inner", "_hist", "_rejects", "_clock")

    name = "admission"

    def __init__(self, inner, hist, reject_counters, clock):
        self.inner = inner
        self._hist = hist
        self._rejects = reject_counters
        self._clock = clock

    @property
    def bucket(self):
        return self.inner.bucket

    @property
    def gate(self):
        return self.inner.gate

    def enter(self, analyst: str) -> None:
        start = self._clock()
        try:
            self.inner.enter(analyst)
        except BaseException as refusal:
            reason = getattr(refusal, "reason", None)
            counter = self._rejects.get(reason) or self._rejects.get("other")
            if counter is not None:
                counter.inc()
            raise
        finally:
            self._hist.observe(self._clock() - start)

    def exit(self, analyst: str) -> None:
        self.inner.exit(analyst)

    def __repr__(self) -> str:
        return f"TelemetryAdmission({self.inner!r})"
