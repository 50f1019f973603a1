"""Probes that measure the program's layers from outside.

Each probe is an object the benchmark hands to the program in place of the
plain one: a :class:`ShardedAccountant` subclass, a :class:`ComplianceGate`
subclass, a verifier wrapper, an auditor subclass, and proxies around the
PSO distribution, mechanism and adversary.  They time the public call,
optionally record a span around it, and delegate.  No probe changes what
the wrapped object computes.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.compliance.gate import ComplianceGate
from repro.compliance.verifiers import Verifier
from repro.core.mechanisms import ComposedMechanism, Mechanism
from repro.data.distributions import ProductDistribution
from repro.privacy.accounting import ShardedAccountant
from repro.service.audit import ReconstructionAuditor
from repro.telemetry.instrument import STAGE_SECONDS

#: Serve-pipeline stages whose histograms the traced run reports.
STAGES = (
    "admission",
    "compliance",
    "cache_lookup",
    "budget_reserve",
    "execute",
    "cache_put",
    "audit_append",
    "cache_hit_fastpath",
    "single_miss",
)


class Timer:
    """Count and total seconds of one kind of call."""

    __slots__ = ("count", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.seconds += seconds

    @property
    def mean(self) -> float:
        return self.seconds / self.count if self.count else 0.0


class Probe:
    """Timers by name plus an optional span recorder shared by all probes."""

    def __init__(self, spans=None) -> None:
        self.spans = spans
        self.timers: dict[str, Timer] = {}

    def timer(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer()
        return timer

    def span(self, name: str):
        return self.spans.span(name) if self.spans is not None else nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and time it."""
        timer = self.timer(name)
        with self.span(name):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.add(time.perf_counter() - start)


class TimedShardedAccountant(ShardedAccountant):
    """A :class:`ShardedAccountant` whose charges are timed and spanned.

    The serve pipeline's budget stage reserves through
    ``BudgetLease.acquire``, which calls :meth:`charge`; ``lease`` goes
    through ``charge`` as well, so timing ``charge`` covers both.
    """

    def __init__(self, probe: Probe, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probe = probe

    def charge(self, analyst: str, count: int, epsilon_per_query: float) -> None:
        self.probe.call(
            "accounting.charge", super().charge, analyst, count, epsilon_per_query
        )


class TimedGate(ComplianceGate):
    """A :class:`ComplianceGate` whose ``require`` lookups are timed."""

    def __init__(self, probe: Probe, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probe = probe

    def require(self, release, *, subject="release", analyst=""):
        return self.probe.call(
            "compliance.require",
            super().require,
            release,
            subject=subject,
            analyst=analyst,
        )


class TimedVerifier(Verifier):
    """Delegates to one verifier, timing its ``check`` under its identifier."""

    def __init__(self, probe: Probe, inner: Verifier):
        self.probe = probe
        self.inner = inner
        self.identifier = inner.identifier

    def check(self, context, policy, rng):
        return self.probe.call(
            f"compliance.verifier.{self.identifier}", self.inner.check, context, policy, rng
        )


class SpannedAuditor(ReconstructionAuditor):
    """A :class:`ReconstructionAuditor` whose cadence checks are spanned.

    Pass timings come from the auditor's own reports; the span only places
    the audit step in the request's trace.
    """

    def __init__(self, probe: Probe, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probe = probe

    def maybe_audit(self, log, analyst):
        with self.probe.span("audit.maybe_audit"):
            return super().maybe_audit(log, analyst)


class TimedDistribution(ProductDistribution):
    """The same product distribution, with ``sample`` timed."""

    def __init__(self, probe: Probe, name: str, inner: ProductDistribution):
        super().__init__(inner.schema, inner.marginals)
        self.probe = probe
        self.label = f"pso.{name}.sample"

    def sample(self, n, rng=None):
        return self.probe.call(self.label, super().sample, n, rng)


class TimedMechanism(Mechanism):
    """Delegates ``release`` to ``inner``, passing each release's seconds to
    ``record``; with a probe, the release is also spanned as ``label``, and
    with an ``outputs`` list every released object is appended to it."""

    def __init__(
        self, inner: Mechanism, record, probe: Probe | None = None, label="", outputs=None
    ):
        self.inner = inner
        self.record = record
        self.probe = probe
        self.label = label
        self.outputs = outputs

    @property
    def name(self) -> str:
        return self.inner.name

    def release(self, dataset, rng=None):
        with self.probe.span(self.label) if self.probe is not None else nullcontext():
            start = time.perf_counter()
            try:
                output = self.inner.release(dataset, rng)
            finally:
                self.record(time.perf_counter() - start)
        if self.outputs is not None:
            self.outputs.append(output)
        return output


def timed_counts(composed: ComposedMechanism, latencies: list) -> ComposedMechanism:
    """The same composition with every count release's seconds appended to
    ``latencies``: one released count is one answered query of pso-games."""
    return ComposedMechanism(
        [TimedMechanism(m, latencies.append) for m in composed.mechanisms]
    )


class TimedAdversary:
    """Delegates ``attack`` to ``inner`` and times it."""

    def __init__(self, probe: Probe, name: str, inner):
        self.probe = probe
        self.inner = inner
        self.label = f"pso.{name}.attack"

    @property
    def name(self) -> str:
        return self.inner.name

    def attack(self, output, context, rng):
        return self.probe.call(self.label, self.inner.attack, output, context, rng)


def stage_metrics(snapshot) -> dict[str, tuple[int, float]]:
    """``stage -> (count, seconds)`` summed over shards from a snapshot."""
    totals = {stage: [0, 0.0] for stage in STAGES}
    for point in snapshot.histograms:
        if point.name != STAGE_SECONDS:
            continue
        stage = dict(point.labels).get("stage")
        if stage in totals:
            totals[stage][0] += point.count
            totals[stage][1] += point.sum
    return {stage: (count, seconds) for stage, (count, seconds) in totals.items()}
