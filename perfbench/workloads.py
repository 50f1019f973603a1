"""The four workloads: input generation, set-up, timed phase, attack phase,
invariant checks and per-layer readings.

Every input (data, query masks, schedules, analyst names) comes from the
seed and is built by ``generate`` before anything is timed.  The timed
phase is a closed loop from one client thread: each request waits for its
reply before the next is sent.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from harness import (
    HostProbe,
    Tally,
    median,
    peak_rss_mb,
    summarize_latencies,
    summarize_rate,
)
from layers import (
    STAGES,
    Probe,
    SpannedAuditor,
    TimedAdversary,
    TimedDistribution,
    TimedGate,
    TimedMechanism,
    TimedShardedAccountant,
    TimedVerifier,
    stage_metrics,
    timed_counts,
)
from repro.anonymity.agreement import AgreementAnonymizer
from repro.compliance import (
    CompliancePipeline,
    ComplianceGate,
    CompositionPolicyVerifier,
    DpClaimVerifier,
    Policy,
)
from repro.core.attackers import KAnonymityPSOAttacker, build_composition_suite
from repro.core.mechanisms import ComposedMechanism, DPCountMechanism, KAnonymityMechanism
from repro.core.pso import PSOGame
from repro.data.distributions import (
    ProductDistribution,
    uniform_bits_distribution,
    uniform_bits_schema,
)
from repro.privacy.accounting import ShardedAccountant
from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.reconstruction.sharding import BlockPartition, ShardedReconstructor
from repro.service import (
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
    ShardedQueryServer,
)
from repro.telemetry import diff
from repro.utils.rng import derive_rng, spawn_rngs

HIT, FRESH, BATCH = 0, 1, 2


@dataclass
class Phase:
    """What one timed phase did."""

    tally: Tally = field(default_factory=Tally)
    #: Per operation: its latency and how many queries it answered.
    latencies: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    host: HostProbe = field(default_factory=HostProbe)
    #: pso-games: the latency of each released count, in trial order.
    count_latencies: list = field(default_factory=list)
    requests: int = 0
    batched: int = 0
    queries: int = 0
    elapsed: float = 0.0
    #: Peak resident memory when the workload's ``memory_after``-th
    #: operation finished (0 when the phase ended before it).
    peak_rss_mb: float = 0.0
    #: Operations scaled by the native reference instead, by index:
    #: audit-coalition's coalition requests, whose audit passes are LP
    #: solves.
    native_scales: dict = field(default_factory=dict)

    def scales(self):
        """Each operation's scale to the reference host speed."""
        scales = self.host.scales(len(self.latencies))
        for index, scale in self.native_scales.items():
            scales[index] = scale
        return scales


@dataclass
class Attack:
    """The attack phase: what an adversary recovered and how fast."""

    leak: float
    trials_per_s: float
    records_per_s: float


def _distinct_masks(n: int, count: int, rng) -> np.ndarray:
    """``count`` random subset masks, pairwise distinct."""
    masks = Workload.random(n, count, rng=rng).masks
    if len({row.tobytes() for row in np.packbits(masks, axis=1)}) != count:
        raise ValueError("generated query masks collide; choose another seed")
    return masks


def _queries(masks: np.ndarray) -> list:
    return [SubsetQuery(row) for row in masks]


def _cache_counts(server) -> tuple[int, int, int]:
    """(hits, misses, evictions) summed over every answer cache."""
    if isinstance(server, ShardedQueryServer):
        caches = [server.shard_cache(i) for i in range(server.shards)]
    else:
        caches = [server.session(a).cache for a in server.analysts]
    return (
        sum(c.hits for c in caches),
        sum(c.misses for c in caches),
        sum(c.evictions for c in caches),
    )


class SpannedSession:
    """A session whose requests are each one root span of the trace."""

    def __init__(self, probe: Probe, session):
        self._probe = probe
        self._session = session

    def ask(self, query):
        with self._probe.span("serve.request"):
            return self._session.ask(query)

    def ask_workload(self, workload):
        with self._probe.span("serve.request"):
            return self._session.ask_workload(workload)


def _pooled_reconstruction(probe: Probe, data, queries, answers, repeats: int) -> tuple:
    """Pool a transcript and reconstruct it as a coalition would.

    Returns ``(agreement, seconds per attempt, result)``; each attempt is
    partition discovery plus sharded decoding, timed through ``probe``, and
    the seconds are the attempts' median at the reference host speed of
    native code.
    """
    workload = Workload(np.stack([q.mask for q in queries]), copy=False)
    answers = np.asarray(answers, dtype=float)
    took = []
    result = None
    host = HostProbe(every_s=0.0, native=True)
    for repeat in range(repeats):
        host.probe(repeat)
        start = time.perf_counter()
        partition = probe.call("reconstruct.partition", BlockPartition.from_workload, workload)
        result = probe.call(
            "reconstruct.decode",
            ShardedReconstructor(alpha=None).reconstruct,
            workload,
            answers,
            partition=partition,
        )
        took.append(time.perf_counter() - start)
    host.probe(repeats)
    seconds = median(np.asarray(took) * host.scales(repeats))
    return result.agreement_with(data), seconds, result


def _attack(probe: Probe, data, transcripts, repeats: int) -> tuple[Attack, object]:
    """Reconstruct each pooled transcript; return the attack and the last
    reconstruction.

    Decoding time depends on the transcript, so the rates count every
    transcript's median attempt and one seed's transcript does not set
    them alone.  The leak is the mean agreement.
    """
    leaks, took = [], 0.0
    for queries, answers in transcripts:
        leak, seconds, result = _pooled_reconstruction(probe, data, queries, answers, repeats)
        leaks.append(leak)
        took += seconds
    count = len(transcripts)
    attack = Attack(
        leak=sum(leaks) / count, trials_per_s=count / took, records_per_s=len(data) * count / took
    )
    return attack, result


def _figures(phase: Phase, scales):
    """Throughput and latencies of a phase's requests, each request's time
    multiplied by its scale."""
    return (
        summarize_rate(phase.sizes, phase.latencies, scales),
        summarize_latencies(np.asarray(phase.latencies) * scales),
    )


class ServeWorkload:
    """Request loop, checks and readings shared by the serving workloads."""

    name = ""
    n = 0
    epsilon = 0.0
    #: Requests per second the pre-generated schedule can sustain; a box
    #: faster than this ends the timed phase when the schedule runs out.
    max_rate = 0
    #: The attack reconstructs this many transcripts, each this many times.
    attack_transcripts = 3
    attack_repeats = 3
    #: Requests after which the peak memory is read.
    memory_after = 0

    @property
    def attack_queries(self) -> int:
        """Answers in one attack transcript: n/4 keeps a decode under a second."""
        return self.n // 4

    def run(self, state, inputs, seconds: float) -> Phase:
        phase = Phase()
        kinds, who, args = inputs.kinds, inputs.who, inputs.args
        sessions = state.sessions
        outcomes = state.outcomes = []
        latencies, host = phase.latencies, phase.host
        perf = time.perf_counter
        begin = perf()
        deadline = begin + seconds
        now = begin
        executed = 0
        failures = []
        for i in range(len(kinds)):
            if now >= deadline:
                break
            if now >= host.due:
                host.probe(i)
            session = sessions[who[i]]
            answer = None
            start = perf()
            try:
                if kinds[i] == BATCH:
                    answer = session.ask_workload(args[i])
                else:
                    answer = session.ask(args[i])
            except Exception as error:  # counted and reported as a failure
                failures.append(error)
            now = perf()
            latencies.append(now - start)
            outcomes.append(answer)
            executed += 1
            if executed == self.memory_after:
                phase.peak_rss_mb = peak_rss_mb()
        host.probe(executed)
        phase.elapsed = now - begin
        phase.tally.attempted = executed - len(failures)
        for error in failures:
            phase.tally.record(error)
        phase.requests = executed
        phase.batched = sum(1 for k in kinds[:executed] if k == BATCH)
        phase.queries = executed + phase.batched * (inputs.batch - 1)
        phase.sizes = [inputs.batch if k == BATCH else 1 for k in kinds[:executed]]
        state.executed = executed
        return phase

    def figures(self, phase: Phase, scales):
        return _figures(phase, scales)

    def fresh_counts(self, state, inputs) -> np.ndarray:
        """Fresh queries each analyst was charged for, as the client counts."""
        counts = np.array(inputs.setup_fresh, dtype=np.int64)
        for i in range(state.executed):
            if state.outcomes[i] is None:
                continue
            kind = inputs.kinds[i]
            if kind == FRESH:
                counts[inputs.who[i]] += 1
            elif kind == BATCH:
                counts[inputs.who[i]] += inputs.batch_fresh
        return counts

    def check(self, state, inputs, phase: Phase) -> list[str]:
        problems = []
        accountant = state.server.accountant
        expected = self.fresh_counts(state, inputs)
        for index, name in enumerate(inputs.names):
            charged = accountant.analyst_queries(name)
            spent = accountant.analyst_epsilon(name)
            if charged != expected[index] or not math.isclose(
                spent, expected[index] * self.epsilon, rel_tol=1e-9, abs_tol=1e-12
            ):
                problems.append(
                    f"ledger of {name}: {charged} queries / eps {spent!r}, "
                    f"expected {expected[index]} / {expected[index] * self.epsilon!r}"
                )
                break
        if phase.tally.failed:
            problems.append(f"{phase.tally.failed} requests refused or failed")
        return problems

    def attack(self, state, inputs, probe: Probe) -> Attack:
        queries, answers = self.transcript(state, inputs)
        size = self.attack_queries
        transcripts = [
            (queries[start : start + size], answers[start : start + size])
            for start in range(0, len(queries), size)
        ]
        attack, state.reconstruction = _attack(
            probe, inputs.data, transcripts, self.attack_repeats
        )
        return attack

    def shares(self, state, phase: Phase) -> dict:
        hits, misses, _ = (
            a - b for a, b in zip(_cache_counts(state.server), state.cache_before)
        )
        charged = state.server.accountant.queries_charged - state.charged_before
        return {
            "cache_hit": hits / max(hits + misses, 1),
            "fresh_charge": charged / max(phase.queries, 1),
            "batched_request": phase.batched / max(phase.requests, 1),
            "escalated_pass": 0.0,
        }

    def mark(self, state) -> None:
        """Remember counters at the start of the timed phase."""
        state.cache_before = _cache_counts(state.server)
        state.charged_before = state.server.accountant.queries_charged
        state.reconciles_before = getattr(state.server.accountant, "reconciliations", 0)
        state.snapshot_before = (
            state.telemetry.snapshot() if state.telemetry is not None else None
        )
        if state.probe is not None:
            state.probe.timers.pop("accounting.charge", None)

    def layers(self, state, phase: Phase) -> dict:
        values = _serving_layers(state)
        charge = state.probe.timer("accounting.charge")
        values["accounting.charges"] = charge.count
        values["accounting.charge_busy_s"] = charge.seconds
        values["accounting.charge_mean_us"] = charge.mean * 1e6
        reconciles = getattr(state.server.accountant, "reconciliations", 0)
        values["accounting.reconciles_per_charge"] = (
            (reconciles - state.reconciles_before) / charge.count if charge.count else 0.0
        )
        values.update(state.setup_layers)
        return values

    def close(self, state) -> None:
        state.server.close()


def _serving_layers(state) -> dict:
    """Stage histograms, cache counters and the attack's reconstruction,
    for a traced serving workload, over the timed phase."""
    values = {}
    activity = diff(state.telemetry.snapshot(), state.snapshot_before)
    for stage, (count, seconds) in stage_metrics(activity).items():
        values[f"pipeline.{stage}.count"] = count
        values[f"pipeline.{stage}.mean_us"] = seconds / count * 1e6 if count else 0.0
    hits, misses, evictions = (
        a - b for a, b in zip(_cache_counts(state.server), state.cache_before)
    )
    values["cache.hit_ratio"] = hits / max(hits + misses, 1)
    values["cache.evictions"] = evictions
    result = state.reconstruction
    values["reconstruct.partition_s"] = state.probe.timer("reconstruct.partition").mean
    values["reconstruct.decode_s"] = state.probe.timer("reconstruct.decode").mean
    values["reconstruct.escalated_shards"] = result.escalated
    values["reconstruct.certified_fraction"] = result.certified / max(result.blocks, 1)
    return values


@dataclass
class ServeInputs:
    data: np.ndarray
    names: list
    kinds: list
    who: list
    args: list
    keys: list
    batch: int
    batch_fresh: int
    setup_fresh: list
    warm: list = field(default_factory=list)
    #: Per-analyst epsilon cap (0 when the workload is uncapped).
    cap: float = 0.0


@dataclass
class ServeState:
    server: object
    sessions: list
    probe: Probe
    telemetry: object
    setup_layers: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)
    executed: int = 0
    expected: list = field(default_factory=list)
    transcript_answers: list = field(default_factory=list)
    reconstruction: object = None


def _fresh_assignment(who: np.ndarray, per_request: np.ndarray, start: np.ndarray):
    """Per-request index of the analyst's first fresh query, and totals."""
    used = np.array(start, dtype=np.int64)
    first = np.empty(len(who), dtype=np.int64)
    for i, (analyst, count) in enumerate(zip(who.tolist(), per_request.tolist())):
        first[i] = used[analyst]
        used[analyst] += count
    return first, used


class ServeHot(ServeWorkload):
    """Cache hits and batches: 64 analysts replaying warmed working sets."""

    name = "serve-hot"
    n = 1024
    epsilon = 0.01
    analysts = 64
    working_set = 32
    fresh_share = 0.1
    batch_every = 16
    batch = 16
    max_rate = 40_000
    memory_after = 100_000

    def generate(self, seed: int, seconds: float) -> ServeInputs:
        rng = derive_rng(seed, "perfbench", self.name)
        data = rng.integers(0, 2, size=self.n)
        names = [f"hot-{i:02d}" for i in range(self.analysts)]
        length = int(seconds * self.max_rate)
        who = rng.integers(0, self.analysts, size=length)
        kinds = np.where(rng.random(length) < self.fresh_share, FRESH, HIT)
        kinds[self.batch_every - 1 :: self.batch_every] = BATCH
        picks = rng.integers(0, self.working_set, size=length)
        half = self.batch // 2
        batch_rows = np.flatnonzero(kinds == BATCH)
        batch_picks = dict(
            zip(
                batch_rows.tolist(),
                rng.random((len(batch_rows), self.working_set)).argsort(axis=1)[:, :half],
            )
        )
        per_request = np.select([kinds == FRESH, kinds == BATCH], [1, half], 0)
        first, totals = _fresh_assignment(who, per_request, np.zeros(self.analysts))
        pool_size = int(totals.max()) + 1
        masks = _distinct_masks(self.n, self.analysts * self.working_set + pool_size, rng)
        working = _queries(masks[: self.analysts * self.working_set])
        pool = _queries(masks[self.analysts * self.working_set :])
        stride = pool_size // self.analysts

        def fresh(analyst: int, index: int):
            return pool[(analyst * stride + index) % pool_size]

        args, keys = [], []
        for i, (kind, analyst) in enumerate(zip(kinds.tolist(), who.tolist())):
            base = analyst * self.working_set
            if kind == HIT:
                key = base + int(picks[i])
                args.append(working[key])
                keys.append(key)
            elif kind == FRESH:
                args.append(fresh(analyst, int(first[i])))
                keys.append(-1)
            else:
                cached = [base + int(k) for k in batch_picks[i]]
                args.append(
                    [working[k] for k in cached]
                    + [fresh(analyst, int(first[i]) + j) for j in range(half)]
                )
                keys.append(cached)
        warm = [working[a * self.working_set : (a + 1) * self.working_set] for a in range(self.analysts)]
        return ServeInputs(
            data=data,
            names=names,
            kinds=kinds.tolist(),
            who=who.tolist(),
            args=args,
            keys=keys,
            batch=self.batch,
            batch_fresh=half,
            setup_fresh=[self.working_set] * self.analysts,
            warm=warm,
        )

    def setup(self, inputs: ServeInputs, seed: int, probe: Probe, telemetry) -> ServeState:
        accountant = (
            TimedShardedAccountant(probe) if telemetry is not None else ShardedAccountant()
        )
        server = ShardedQueryServer(
            inputs.data,
            "laplace",
            {"epsilon_per_query": self.epsilon},
            accountant=accountant,
            seed=seed,
            telemetry=telemetry if telemetry is not None else False,
        )
        sessions = [server.session(name) for name in inputs.names]
        expected, queries = [], []
        for session, working in zip(sessions, inputs.warm):
            expected.extend(session.ask_workload(working).tolist())
            queries.extend(working)
        if telemetry is not None:
            sessions = [SpannedSession(probe, s) for s in sessions]
        state = ServeState(server, sessions, probe, telemetry, expected=expected)
        state.transcript_answers = (queries, expected)
        return state

    def transcript(self, state, inputs):
        # The leading analysts' warmed working sets.
        limit = self.attack_queries * self.attack_transcripts
        queries, answers = state.transcript_answers
        return queries[:limit], answers[:limit]

    def check(self, state, inputs, phase: Phase) -> list[str]:
        problems = super().check(state, inputs, phase)
        expected = state.expected
        mismatched = 0
        for i in range(state.executed):
            answer = state.outcomes[i]
            if answer is None:
                continue
            key = inputs.keys[i]
            if isinstance(key, list):
                replayed = answer[: len(key)]
                mismatched += sum(
                    1 for got, k in zip(replayed.tolist(), key) if got != expected[k]
                )
            elif key >= 0 and answer != expected[key]:
                mismatched += 1
        if mismatched:
            problems.append(f"{mismatched} cache replays differ from the first answer")
        return problems


class ServeFreshCapped(ServeWorkload):
    """Every query fresh, charged against per-analyst and global caps."""

    name = "serve-fresh-capped"
    n = 1024
    epsilon = 0.01
    analysts = 1000
    batch_every = 16
    batch = 16
    max_rate = 20_000
    memory_after = 3_000

    def generate(self, seed: int, seconds: float) -> ServeInputs:
        rng = derive_rng(seed, "perfbench", self.name)
        data = rng.integers(0, 2, size=self.n)
        names = [f"capped-{i:04d}" for i in range(self.analysts)]
        length = int(seconds * self.max_rate)
        who = rng.integers(0, self.analysts, size=length)
        kinds = np.full(length, FRESH)
        kinds[self.batch_every - 1 :: self.batch_every] = BATCH
        per_request = np.where(kinds == BATCH, self.batch, 1)
        first, totals = _fresh_assignment(who, per_request, np.ones(self.analysts))
        pool_size = int(totals.max()) + 1
        pool = _queries(_distinct_masks(self.n, pool_size, rng))
        stride = pool_size // self.analysts or 1

        def fresh(analyst: int, index: int):
            return pool[(analyst * stride + index) % pool_size]

        args = []
        for i, (kind, analyst) in enumerate(zip(kinds.tolist(), who.tolist())):
            if kind == FRESH:
                args.append(fresh(analyst, int(first[i])))
            else:
                args.append([fresh(analyst, int(first[i]) + j) for j in range(self.batch)])
        return ServeInputs(
            data=data,
            names=names,
            kinds=kinds.tolist(),
            who=who.tolist(),
            args=args,
            keys=[-1] * length,
            batch=self.batch,
            batch_fresh=self.batch,
            setup_fresh=[1] * self.analysts,
            warm=[fresh(a, 0) for a in range(self.analysts)],
            cap=self.epsilon * pool_size,
        )

    def setup(self, inputs: ServeInputs, seed: int, probe: Probe, telemetry) -> ServeState:
        traced = telemetry is not None
        cap = inputs.cap
        budgets = dict(per_analyst_epsilon=cap, global_epsilon=cap * self.analysts)
        accountant = (
            TimedShardedAccountant(probe, **budgets) if traced else ShardedAccountant(**budgets)
        )
        policy = Policy(name="perfbench-service", epsilon_cap=cap * self.analysts)
        verifiers = [DpClaimVerifier(), CompositionPolicyVerifier()]
        if traced:
            verifiers = [TimedVerifier(probe, v) for v in verifiers]
        spec = LaplaceAnswerer(inputs.data, self.epsilon).spec
        certificate = probe.call(
            "compliance.certify",
            CompliancePipeline(verifiers, policy, seed=seed).certify,
            spec,
            data=inputs.data,
            accountant=accountant,
            subject="mechanism-spec",
        )
        gate = TimedGate(probe, policy) if traced else ComplianceGate(policy)
        gate.approve(certificate, spec)
        server = ShardedQueryServer(
            inputs.data,
            "laplace",
            {"epsilon_per_query": self.epsilon},
            accountant=accountant,
            seed=seed,
            compliance=gate,
            max_inflight_per_shard=4,
            telemetry=telemetry if traced else False,
        )
        sessions = [server.session(name) for name in inputs.names]
        answers = [session.ask(query) for session, query in zip(sessions, inputs.warm)]
        setup_layers = {}
        if traced:
            certify = probe.timer("compliance.certify")
            require = probe.timer("compliance.require")
            setup_layers = {
                "compliance.certify_s": certify.seconds,
                "compliance.require_calls": require.count,
                "compliance.require_mean_us": require.mean * 1e6,
            }
            for verifier in verifiers:
                name = f"compliance.verifier.{verifier.identifier}"
                setup_layers[f"{name}_s"] = probe.timer(name).seconds
            sessions = [SpannedSession(probe, s) for s in sessions]
        state = ServeState(server, sessions, probe, telemetry, setup_layers=setup_layers)
        state.transcript_answers = (list(inputs.warm), answers)
        return state

    def transcript(self, state, inputs):
        # The first fresh answers served: set-up asks, then the timed
        # phase in schedule order.
        queries, answers = (list(x) for x in state.transcript_answers)
        limit = self.attack_queries * self.attack_transcripts
        for i in range(state.executed):
            if len(queries) >= limit:
                break
            answer = state.outcomes[i]
            if answer is None:
                continue
            if inputs.kinds[i] == BATCH:
                queries.extend(inputs.args[i])
                answers.extend(answer.tolist())
            else:
                queries.append(inputs.args[i])
                answers.append(answer)
        return queries[:limit], answers[:limit]


@dataclass
class AuditInputs:
    data: np.ndarray
    panel: list
    epochs: list  # per epoch: (coalition batches [member][batch], researcher queries)
    schedule: list  # per epoch: list of (kind, who, index) requests


@dataclass
class AuditState:
    server: object
    auditor: object
    probe: Probe
    telemetry: object
    panel_answers: list
    sessions: dict = field(default_factory=dict)
    coalition: dict = field(default_factory=dict)
    replays: list = field(default_factory=list)
    complete_epochs: list = field(default_factory=list)
    reconstruction: object = None


class AuditCoalition:
    """Audit passes under a coalition of identities plus benign traffic."""

    name = "audit-coalition"
    n = 256
    epsilon = 0.5
    members = 8
    threshold = 0.8
    panel_size = 24
    dashboard_per_researcher = 16
    researcher_per_batch = 3
    attack_repeats = 3
    attack_epochs = 4
    #: Requests after which the peak memory is read.
    memory_after = 1_500

    @property
    def batch(self) -> int:
        return self.n // 8

    @property
    def batches_per_member(self) -> int:
        return (self.n // 2) // self.batch

    def generate(self, seed: int, seconds: float) -> AuditInputs:
        rng = derive_rng(seed, "perfbench", self.name)
        data = rng.integers(0, 2, size=self.n)
        panel = list(Workload.random(self.n, self.panel_size, rng=rng))
        epochs, schedule = [], []
        researcher_count = self.members * self.batches_per_member * self.researcher_per_batch
        dash = 0
        for _ in range(int(2 * seconds) + 2):
            batches = [
                [Workload.random(self.n, self.batch, rng=rng) for _ in range(self.batches_per_member)]
                for _ in range(self.members)
            ]
            research = list(Workload.random(self.n, researcher_count, rng=rng))
            epochs.append((batches, research))
            requests = []
            asked = 0
            for b in range(self.batches_per_member):
                for m in range(self.members):
                    requests.append(("coalition", m, b))
                    for _ in range(self.researcher_per_batch):
                        for _ in range(self.dashboard_per_researcher):
                            requests.append(("dashboard", 0, dash % self.panel_size))
                            dash += 1
                        requests.append(("researcher", 0, asked))
                        asked += 1
            schedule.append(requests)
        return AuditInputs(data=data, panel=panel, epochs=epochs, schedule=schedule)

    def setup(self, inputs: AuditInputs, seed: int, probe: Probe, telemetry) -> AuditState:
        options = dict(
            agreement_threshold=self.threshold,
            audit_every=self.n // 8,
            min_queries=self.n // 4,
            alpha=None,
            screen="l2",
            warm_start_passes=True,
        )
        if telemetry is not None:
            auditor = SpannedAuditor(probe, inputs.data, **options)
        else:
            auditor = ReconstructionAuditor(inputs.data, **options)
        server = QueryServer(
            inputs.data,
            "laplace",
            {"epsilon_per_query": self.epsilon},
            auditor=auditor,
            seed=seed,
            audit_dispatch="inline",
            telemetry=telemetry if telemetry is not None else False,
        )
        dashboard = server.session("dashboard")
        answers = [dashboard.ask(query) for query in inputs.panel]
        state = AuditState(server, auditor, probe, telemetry, panel_answers=answers)
        state.sessions["dashboard"] = dashboard
        return state

    def _session(self, state, name: str):
        session = state.sessions.get(name)
        if session is None:
            session = state.server.session(name)
            if state.telemetry is not None:
                session = SpannedSession(state.probe, session)
            state.sessions[name] = session
        return session

    def mark(self, state) -> None:
        state.cache_before = _cache_counts(state.server)
        state.charged_before = state.server.accountant.queries_charged
        state.snapshot_before = (
            state.telemetry.snapshot() if state.telemetry is not None else None
        )
        state.reports_before = len(state.auditor.reports)

    def run(self, state, inputs: AuditInputs, seconds: float) -> Phase:
        phase = Phase()
        latencies, host = phase.latencies, phase.host
        perf = time.perf_counter
        begin = perf()
        deadline = begin + seconds
        now = begin
        for epoch, requests in enumerate(inputs.schedule):
            if now >= deadline:
                break
            batches, research = inputs.epochs[epoch]
            members = [self._session(state, f"coalition-{epoch}-{m}") for m in range(self.members)]
            stopped = set()
            researcher = self._session(state, f"researcher-{epoch}")
            dashboard = state.sessions["dashboard"]
            for kind, who, index in requests:
                if now >= deadline:
                    break
                if kind == "coalition" and who in stopped:
                    continue
                if now >= host.due:
                    host.probe(len(latencies))
                if kind == "coalition":
                    native = HostProbe(every_s=0.0, native=True)
                    native.probe(0)
                error = None
                answer = None
                start = perf()
                try:
                    if kind == "coalition":
                        answer = members[who].ask_workload(batches[who][index])
                    elif kind == "dashboard":
                        answer = dashboard.ask(inputs.panel[index])
                    else:
                        answer = researcher.ask(research[index])
                except Exception as exc:  # classified below
                    error = exc
                now = perf()
                latencies.append(now - start)
                if kind == "coalition":
                    native.probe(1)
                    phase.native_scales[len(latencies) - 1] = native.scales(1)[0]
                if len(latencies) == self.memory_after:
                    phase.peak_rss_mb = peak_rss_mb()
                expected = (CircuitBreakerTripped,) if kind == "coalition" else ()
                outcome = phase.tally.record(error, expected)
                phase.requests += 1
                phase.sizes.append(
                    0 if outcome != "ok" else self.batch if kind == "coalition" else 1
                )
                if kind == "coalition":
                    if outcome == "ok":
                        phase.batched += 1
                        phase.queries += self.batch
                        state.coalition.setdefault(epoch, []).append(
                            (batches[who][index], answer)
                        )
                    else:
                        stopped.add(who)
                elif outcome == "ok":
                    phase.queries += 1
                    if kind == "dashboard":
                        state.replays.append((index, answer))
            else:
                state.complete_epochs.append(epoch)
        host.probe(len(latencies))
        phase.elapsed = now - begin
        return phase

    def figures(self, phase: Phase, scales):
        return _figures(phase, scales)

    def attack(self, state, inputs, probe: Probe) -> Attack:
        """The coalition of each finished epoch, up to ``attack_epochs``,
        pools its answers and reconstructs.  Without a finished epoch, the
        first epoch's partial transcript is used.
        """
        transcripts = []
        for epoch in state.complete_epochs[: self.attack_epochs] or [0]:
            pooled = state.coalition.get(epoch, [])
            if not pooled:
                raise RuntimeError("no coalition workload was served to reconstruct from")
            transcripts.append(
                (
                    [q for workload, _ in pooled for q in workload],
                    [a for _, batch in pooled for a in batch.tolist()],
                )
            )
        attack, state.reconstruction = _attack(
            probe, inputs.data, transcripts, self.attack_repeats
        )
        return attack

    def _timed_reports(self, state):
        return state.auditor.reports[state.reports_before :]

    def check(self, state, inputs, phase: Phase) -> list[str]:
        problems = []
        if phase.tally.failed:
            problems.append(f"{phase.tally.failed} requests failed")
        benign = [name for name in state.sessions if not name.startswith("coalition-")]
        flagged = [name for name in benign if state.auditor.is_tripped(name)]
        if flagged:
            problems.append(f"benign analysts flagged: {flagged}")
        undecided = [r for r in state.auditor.reports if r.flagged and not r.escalated]
        if undecided:
            problems.append(f"{len(undecided)} flagged passes were not decided by the LP")
        drift = sum(1 for index, got in state.replays if got != state.panel_answers[index])
        if drift:
            problems.append(f"{drift} dashboard replays differ from the first answer")
        accountant = state.server.accountant
        for name in state.sessions:
            charged = accountant.analyst_queries(name)
            unique = len(state.server.audit_log.unique_records(name))
            spent = accountant.analyst_epsilon(name)
            if charged != unique or not math.isclose(
                spent, charged * self.epsilon, rel_tol=1e-9, abs_tol=1e-12
            ):
                problems.append(
                    f"ledger of {name}: {charged} queries / eps {spent!r}, "
                    f"{unique} fresh queries served"
                )
                break
        return problems

    def shares(self, state, phase: Phase) -> dict:
        hits, misses, _ = (
            a - b for a, b in zip(_cache_counts(state.server), state.cache_before)
        )
        reports = self._timed_reports(state)
        return {
            "cache_hit": hits / max(hits + misses, 1),
            "fresh_charge": (state.server.accountant.queries_charged - state.charged_before)
            / max(phase.queries, 1),
            "batched_request": phase.batched / max(phase.requests, 1),
            "escalated_pass": sum(r.escalated for r in reports) / max(len(reports), 1),
        }

    def layers(self, state, phase: Phase) -> dict:
        values = _serving_layers(state)
        reports = self._timed_reports(state)
        lp = [r.elapsed_seconds for r in reports if r.escalated]
        l2 = [r.elapsed_seconds for r in reports if not r.escalated]
        coalition = [r.agreement for r in reports if r.analyst.startswith("coalition-")]
        values.update(
            {
                "audit.passes": len(reports),
                "audit.escalations": len(lp),
                "audit.screen_decided_ratio": len(l2) / len(reports) if reports else 0.0,
                "audit.l2_pass_mean_ms": sum(l2) / len(l2) * 1e3 if l2 else 0.0,
                "audit.lp_pass_mean_ms": sum(lp) / len(lp) * 1e3 if lp else 0.0,
                "audit.busy_s": sum(lp) + sum(l2),
                "audit.refused_requests": phase.tally.refused,
                "audit.max_identity_agreement": max(coalition, default=0.0),
            }
        )
        return values

    def close(self, state) -> None:
        state.server.close()


GAMES = ("exact", "dp", "kanon")


@dataclass
class PsoInputs:
    masters: dict  # game -> integer master seed of its trial streams
    trials: int


@dataclass
class PsoState:
    games: dict
    plain: dict
    probe: Probe
    latencies: list
    releases: list
    outcomes: dict = field(default_factory=dict)
    trial_seconds: dict = field(default_factory=dict)
    #: Records each trial's game released, in trial order.
    trial_records: list = field(default_factory=list)
    phase: Phase | None = None


class PsoGames:
    """The PSO layer alone: three games with equal trials each."""

    name = "pso-games"
    n = 256
    width = 64
    total_epsilon = 2.0
    kanon_n = 250
    kanon_width = 192
    kanon_k = 4
    #: Upper bound on rounds the pre-derived trial streams cover.
    max_rounds_per_second = 20
    #: Leading trials of each game replayed through the unwrapped game.
    reference_trials = 2
    #: Trials after which the peak memory is read.
    memory_after = 30

    def generate(self, seed: int, seconds: float) -> PsoInputs:
        rng = derive_rng(seed, "perfbench", self.name)
        masters = {game: int(rng.integers(0, 2**63 - 1)) for game in GAMES}
        return PsoInputs(masters=masters, trials=int(seconds * self.max_rounds_per_second) + 1)

    def _plain_games(self) -> dict:
        distribution = uniform_bits_distribution(self.width)
        suite = build_composition_suite(self.n)
        per_count = self.total_epsilon / suite.num_counts
        dp = ComposedMechanism(
            [DPCountMechanism(m.query, per_count) for m in suite.mechanism.mechanisms]
        )
        kanon = ProductDistribution.uniform(uniform_bits_schema(self.kanon_width))
        return {
            "exact": (distribution, self.n, suite.mechanism, suite.adversary),
            "dp": (distribution, self.n, dp, suite.adversary),
            "kanon": (
                kanon,
                self.kanon_n,
                KAnonymityMechanism(AgreementAnonymizer(self.kanon_k), label="agreement"),
                KAnonymityPSOAttacker("refine"),
            ),
        }

    def setup(self, inputs: PsoInputs, seed: int, probe: Probe, telemetry) -> PsoState:
        traced = telemetry is not None
        plain = self._plain_games()
        latencies: list = []
        releases: list = []
        games = {}
        for game, (distribution, n, mechanism, adversary) in plain.items():
            if isinstance(mechanism, ComposedMechanism):
                mechanism = timed_counts(mechanism, latencies)
            else:
                mechanism = TimedMechanism(mechanism, lambda _: None, outputs=releases)
            if traced:
                distribution = TimedDistribution(probe, game, distribution)
                mechanism = TimedMechanism(
                    mechanism,
                    probe.timer(f"pso.{game}.release").add,
                    probe,
                    f"pso.{game}.release",
                )
                adversary = TimedAdversary(probe, game, adversary)
            games[game] = PSOGame(distribution, n, mechanism, adversary)
        state = PsoState(
            games=games,
            plain={g: PSOGame(*args) for g, args in plain.items()},
            probe=probe,
            latencies=latencies,
            releases=releases,
        )
        return state

    def mark(self, state) -> None:
        state.latencies.clear()
        state.releases.clear()

    def run(self, state, inputs: PsoInputs, seconds: float) -> Phase:
        phase = Phase()
        streams = {g: spawn_rngs(inputs.masters[g], inputs.trials) for g in GAMES}
        state.outcomes = {g: [] for g in GAMES}
        state.trial_seconds = {g: 0.0 for g in GAMES}
        state.trial_records.clear()
        probe, host = state.probe, phase.host
        perf = time.perf_counter
        begin = perf()
        deadline = begin + seconds
        now = begin
        for index in range(inputs.trials):
            if now >= deadline:
                break
            for game in GAMES:
                if now >= host.due:
                    host.probe(len(phase.latencies))
                error = None
                released = len(state.latencies)
                start = perf()
                try:
                    with probe.span("pso.trial"):
                        trial = state.games[game].run_trial(streams[game][index])
                    state.outcomes[game].append(trial)
                except Exception as exc:  # counted and reported as a failure
                    error = exc
                now = perf()
                state.trial_seconds[game] += now - start
                phase.tally.record(error)
                phase.latencies.append(now - start)
                if len(phase.latencies) == self.memory_after:
                    phase.peak_rss_mb = peak_rss_mb()
                state.trial_records.append(state.games[game].context.n)
                phase.sizes.append(len(state.latencies) - released)
        host.probe(len(phase.latencies))
        phase.elapsed = now - begin
        phase.count_latencies = list(state.latencies)
        phase.requests = len(state.latencies)
        phase.queries = len(state.latencies)
        state.phase = phase
        return phase

    def figures(self, phase: Phase, scales):
        """Counts released per second, and the latency of each count.

        The rate and the p50 are at the reference speed, a count taking
        its trial's scale.  The p99 is as measured: it is set by the first
        count of each trial (about 3.5 ms against 0.7 ms for the rest) and
        by collector passes, which the host's load hardly slows.  On the
        box this was tuned on, the measured p99 held at 1.8-2.2 ms whether
        the reference loop ran in 175 or 300 us, while scaling moved it
        from 1.6 to 1.1 ms.
        """
        counts = np.asarray(phase.count_latencies)
        scaled = summarize_latencies(counts * np.repeat(scales, phase.sizes))
        measured = summarize_latencies(counts)
        return (
            summarize_rate(phase.sizes, phase.latencies, scales),
            dataclasses.replace(scaled, p99_ms=measured.p99_ms),
        )

    def attack(self, state, inputs, probe) -> Attack:
        """Attacks ran inside the trials; this reads what they released.

        The leak is the share of private attribute bits that the
        k-anonymous releases publish exactly (a singleton cover set), which
        anyone reading the release recovers.  The count games publish no
        record's bits, only counts.
        """
        disclosed = cells = 0
        for release in state.releases:
            width = len(release.schema.names)
            for values, rows in release.equivalence_classes().items():
                disclosed += len(rows) * sum(1 for v in values if len(v.covers) == 1)
            cells += len(release) * width
        phase = state.phase
        scales = phase.scales()
        return Attack(
            leak=disclosed / max(cells, 1),
            trials_per_s=summarize_rate(np.ones(len(scales)), phase.latencies, scales),
            records_per_s=summarize_rate(state.trial_records, phase.latencies, scales),
        )

    def check(self, state, inputs, phase: Phase) -> list[str]:
        problems = []
        if phase.tally.failed:
            problems.append(f"{phase.tally.failed} trials failed")
        counts = {len(state.outcomes[g]) for g in GAMES}
        if len(counts) != 1:
            problems.append(f"games played unequal trials: {counts}")
        for game in GAMES:
            played = state.outcomes[game][: self.reference_trials]
            if not played:
                continue
            reference = state.plain[game].run(len(played), rng=inputs.masters[game])
            got = (sum(t.succeeded for t in played), sum(t.isolated for t in played))
            want = (
                sum(t.succeeded for t in reference.trials),
                sum(t.isolated for t in reference.trials),
            )
            if got != want or tuple(played) != reference.trials:
                problems.append(
                    f"{game}: success/isolation {got} differ from the seeded reference {want}"
                )
        return problems

    def shares(self, state, phase: Phase) -> dict:
        return {"cache_hit": 0.0, "fresh_charge": 0.0, "batched_request": 0.0, "escalated_pass": 0.0}

    def layers(self, state, phase: Phase) -> dict:
        values = {}
        probe = state.probe
        for game in GAMES:
            trials = len(state.outcomes[game])
            parts = {
                part: probe.timer(f"pso.{game}.{part}").seconds
                for part in ("sample", "release", "attack")
            }
            check = state.trial_seconds[game] - sum(parts.values())
            for part, seconds in (*parts.items(), ("check", check)):
                values[f"pso.{game}.{part}_ms"] = seconds / trials * 1e3 if trials else 0.0
            values[f"pso.{game}.trials"] = trials
        return values

    def close(self, state) -> None:
        pass


WORKLOADS = {w.name: w for w in (ServeHot(), ServeFreshCapped(), AuditCoalition(), PsoGames())}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    **{f"pipeline.{s}.mean_us": "us" for s in STAGES},
    **{f"pipeline.{s}.count": "count" for s in STAGES},
    "cache.hit_ratio": "fraction",
    "cache.evictions": "count",
    "accounting.charge_mean_us": "us",
    "accounting.charge_busy_s": "s",
    "accounting.charges": "count",
    "accounting.reconciles_per_charge": "ratio",
    "audit.passes": "count",
    "audit.escalations": "count",
    "audit.screen_decided_ratio": "fraction",
    "audit.l2_pass_mean_ms": "ms",
    "audit.lp_pass_mean_ms": "ms",
    "audit.busy_s": "s",
    "audit.refused_requests": "count",
    "audit.max_identity_agreement": "fraction",
    "reconstruct.partition_s": "s",
    "reconstruct.decode_s": "s",
    "reconstruct.escalated_shards": "count",
    "reconstruct.certified_fraction": "fraction",
    "compliance.certify_s": "s",
    f"compliance.verifier.{DpClaimVerifier.identifier}_s": "s",
    f"compliance.verifier.{CompositionPolicyVerifier.identifier}_s": "s",
    "compliance.require_calls": "count",
    "compliance.require_mean_us": "us",
    **{
        f"pso.{g}.{part}": unit
        for g in GAMES
        for part, unit in (
            ("sample_ms", "ms"),
            ("release_ms", "ms"),
            ("attack_ms", "ms"),
            ("check_ms", "ms"),
            ("trials", "count"),
        )
    },
    "traffic.cache_hit_share": "fraction",
    "traffic.fresh_charge_share": "fraction",
    "traffic.batched_request_share": "fraction",
    "traffic.escalated_pass_share": "fraction",
    "trace.overhead_ratio": "ratio",
}
