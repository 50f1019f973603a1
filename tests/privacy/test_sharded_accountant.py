"""Budget exactness under sharding.

The sharded accountant's contract is *bit-identity*: for any interleaving
of charges across shards, total spend and every ``BudgetExhausted``
verdict (message, scope, and carried numbers) must match the single-ledger
``ServiceAccountant`` running the same sequence.  Both keep the global
total as one exactly rounded running sum, so the suite also checks that
sum against ``math.fsum`` of the per-analyst spends, and that a charge's
cost does not grow with the number of analysts.
"""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.accounting import (
    AdvancedAccountant,
    BasicAccountant,
    BudgetExhausted,
    PrivacyAccountant,
    ShardedAccountant,
    stable_shard,
)

ANALYSTS = ["alice", "bob", "carol", "dave", "erin", "frank"]


def replay(accountant, schedule):
    """Run a charge schedule, returning per-step outcomes and final spends."""
    outcomes = []
    for analyst, count, epsilon in schedule:
        try:
            accountant.charge(analyst, count, epsilon)
        except BudgetExhausted as refusal:
            outcomes.append(
                (
                    str(refusal),
                    refusal.analyst,
                    refusal.scope,
                    refusal.requested,
                    refusal.budget,
                    refusal.spent,
                )
            )
        else:
            outcomes.append(None)
    spends = {analyst: accountant.analyst_epsilon(analyst) for analyst in ANALYSTS}
    return outcomes, spends, accountant.global_spent(), accountant.queries_charged


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for name in ANALYSTS:
            index = stable_shard(name, 16)
            assert index == stable_shard(name, 16)
            assert 0 <= index < 16

    def test_single_shard_is_identity(self):
        assert all(stable_shard(name, 1) == 0 for name in ANALYSTS)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            stable_shard("x", 0)


class TestConstruction:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedAccountant(shards=0)
        with pytest.raises(ValueError, match="rule"):
            ShardedAccountant(rule="renyi")
        with pytest.raises(ValueError, match="global_epsilon"):
            ShardedAccountant(global_epsilon=0.0)

    def test_charge_validates_inputs(self):
        ledger = ShardedAccountant()
        with pytest.raises(ValueError, match="count"):
            ledger.charge("a", -1, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            ledger.charge("a", 1, -0.1)


class TestBitIdentity:
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ANALYSTS),
                st.integers(min_value=1, max_value=4),
                st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7]),
            ),
            min_size=1,
            max_size=60,
        ),
        shards=st.sampled_from([1, 2, 3, 8, 16]),
        per_analyst=st.sampled_from([None, 1.5, 3.0]),
        global_eps=st.sampled_from([None, 2.0, 5.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_interleaving_matches_single_ledger(
        self, steps, shards, per_analyst, global_eps
    ):
        single = BasicAccountant(per_analyst, global_eps)
        sharded = ShardedAccountant(per_analyst, global_eps, shards=shards)
        assert replay(single, steps) == replay(sharded, steps)

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ANALYSTS),
                st.integers(min_value=1, max_value=3),
                st.sampled_from([0.1, 0.2, 0.4]),
            ),
            min_size=1,
            max_size=40,
        ),
        shards=st.sampled_from([2, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_advanced_rule_matches_single_ledger(self, steps, shards):
        single = AdvancedAccountant(2.0, 4.0)
        sharded = ShardedAccountant(2.0, 4.0, shards=shards, rule="advanced")
        assert replay(single, steps) == replay(sharded, steps)

    def test_refund_matches_single_ledger(self):
        single = BasicAccountant(5.0, 10.0)
        sharded = ShardedAccountant(5.0, 10.0, shards=4)
        for ledger in (single, sharded):
            ledger.charge("alice", 4, 0.5)
            ledger.charge("bob", 2, 0.5)
            ledger.refund("alice", 2, 0.5)
        assert single.global_spent() == sharded.global_spent()
        assert single.analyst_epsilon("alice") == sharded.analyst_epsilon("alice")
        assert single.queries_charged == sharded.queries_charged

    def test_refund_requires_history(self):
        sharded = ShardedAccountant(5.0)
        with pytest.raises(ValueError, match="no charges"):
            sharded.refund("ghost", 1, 0.5)


class TestGlobalCap:
    def test_global_refusal_is_exact_at_the_boundary(self):
        # 16 x 0.25 = 4.0 exactly fills the budget; the 17th must refuse
        # with the same numbers the single ledger reports.
        single = BasicAccountant(None, 4.0)
        sharded = ShardedAccountant(None, 4.0, shards=8)
        schedule = [(ANALYSTS[i % len(ANALYSTS)], 1, 0.25) for i in range(17)]
        assert replay(single, schedule) == replay(sharded, schedule)
        assert sharded.global_spent() == single.global_spent() == 4.0

    def test_rejected_charge_leaves_no_trace(self):
        sharded = ShardedAccountant(None, 1.0, shards=4)
        sharded.charge("alice", 2, 0.5)
        with pytest.raises(BudgetExhausted):
            sharded.charge("bob", 1, 0.5)
        assert sharded.analyst_epsilon("bob") == 0.0
        assert sharded.analyst_queries("bob") == 0
        assert sharded.global_spent() == 1.0

    def test_leases_never_overcommit(self):
        # Held budget leases count against the cap at once: exhaust it via
        # one analyst, then every other analyst, on any shard, must refuse.
        sharded = ShardedAccountant(None, 2.0, shards=16)
        held = [sharded.lease("alice", 1, 0.5) for _ in range(4)]
        for analyst in ANALYSTS[1:]:
            with pytest.raises(BudgetExhausted) as caught:
                sharded.lease(analyst, 1, 1e-9)
            assert caught.value.scope == "global"
        assert sharded.global_spent() == 2.0
        held[-1].rollback()
        sharded.lease("bob", 1, 0.5).commit()
        assert sharded.global_spent() == 2.0

    def test_per_analyst_refusal_scope(self):
        sharded = ShardedAccountant(1.0, None, shards=4)
        sharded.charge("alice", 2, 0.5)
        with pytest.raises(BudgetExhausted) as caught:
            sharded.charge("alice", 1, 0.5)
        assert caught.value.scope == "analyst"

    def test_max_queries_enforced(self):
        sharded = ShardedAccountant(None, None, 3, shards=4)
        sharded.charge("alice", 3, 0.1)
        with pytest.raises(BudgetExhausted) as caught:
            sharded.charge("alice", 1, 0.1)
        assert caught.value.scope == "queries"


class TestConcurrency:
    def test_parallel_charges_conserve_the_budget(self):
        # Hammer one global budget from more threads than cores, with a
        # short switch interval; regardless of the interleaving, accepted
        # spend must never exceed the cap, and the exact total must equal
        # the per-analyst ledgers, which a lost update would break.
        sharded = ShardedAccountant(None, 10.0, shards=8)
        accepted = []
        errors = []

        def worker(analyst):
            for index in range(30):
                try:
                    sharded.charge(analyst, 1, 0.1)
                    if index % 7 == 0:
                        sharded.refund(analyst, 1, 0.1)
                        continue
                except BudgetExhausted:
                    pass
                except Exception as unexpected:  # pragma: no cover
                    errors.append(unexpected)
                else:
                    accepted.append(analyst)

        names = [f"analyst-{i}" for i in range(8)]
        threads = [threading.Thread(target=worker, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        spent = sharded.global_spent()
        assert spent <= 10.0 + 1e-9
        assert spent == pytest.approx(0.1 * len(accepted))
        assert spent == math.fsum(sharded.analyst_epsilon(name) for name in names)
        assert sharded.queries_charged == len(accepted)


    def test_parallel_charges_keep_the_total_exact(self):
        # Many more charges, uncapped, with epsilons whose sums round:
        # a lost update to the shared total shows as a mismatch with the
        # per-analyst ledgers.
        sharded = ShardedAccountant(None, None, shards=8)
        names = [f"analyst-{i}" for i in range(8)]
        epsilons = (0.1, 1 / 3, math.pi * 1e-5, math.e * 1e-9)

        def worker(offset, analyst):
            for index in range(1_500):
                sharded.charge(analyst, 1, epsilons[(index + offset) % 4])

        threads = [
            threading.Thread(target=worker, args=(offset, name))
            for offset, name in enumerate(names)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sharded.queries_charged == 8 * 1_500
        assert sharded.global_spent() == math.fsum(
            sharded.analyst_epsilon(name) for name in names
        )


#: The slack every budget comparison allows for float accumulation.
TOLERANCE = 1e-12

#: (label, factory(per_analyst, global_cap), rule) for every accountant
#: that keeps the global total.
ACCOUNTANTS = [
    ("basic", lambda per, cap: BasicAccountant(per, cap), "basic"),
    ("advanced", lambda per, cap: AdvancedAccountant(per, cap), "advanced"),
] + [
    (
        f"sharded-{rule}-{shards}",
        lambda per, cap, shards=shards, rule=rule: ShardedAccountant(
            per, cap, shards=shards, rule=rule
        ),
        rule,
    )
    for shards in (1, 2, 16)
    for rule in ("basic", "advanced")
]


class TestExactGlobalTotal:
    @pytest.mark.parametrize(
        "make, rule",
        [(make, rule) for _, make, rule in ACCOUNTANTS],
        ids=[label for label, _, _ in ACCOUNTANTS],
    )
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("charge"),
                    st.sampled_from(ANALYSTS),
                    st.integers(min_value=1, max_value=4),
                    st.sampled_from([0.1, 0.2, 0.25, 0.3, 1 / 3, 0.7]),
                ),
                st.tuples(st.just("refund"), st.sampled_from(ANALYSTS)),
            ),
            min_size=1,
            max_size=50,
        ),
        per_analyst=st.sampled_from([None, 1.5]),
        cap=st.sampled_from([None, 2.0, 3.1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_is_exact_and_refusals_follow_it(
        self, make, rule, steps, per_analyst, cap
    ):
        accountant = make(per_analyst, cap)
        compose = (
            AdvancedAccountant() if rule == "advanced" else BasicAccountant()
        ).composed_epsilon
        counts = {analyst: {} for analyst in ANALYSTS}
        history = {analyst: [] for analyst in ANALYSTS}
        for step in steps:
            analyst = step[1]
            if step[0] == "refund":
                if not history[analyst]:
                    continue
                count, epsilon = history[analyst].pop()
                accountant.refund(analyst, count, epsilon)
                counts[analyst][epsilon] -= count
                if not counts[analyst][epsilon]:
                    del counts[analyst][epsilon]
            else:
                _, _, count, epsilon = step
                candidate = dict(counts[analyst])
                candidate[epsilon] = candidate.get(epsilon, 0) + count
                mine = compose(candidate)
                total = math.fsum(
                    [mine]
                    + [accountant.analyst_epsilon(a) for a in ANALYSTS if a != analyst]
                )
                if per_analyst is not None and mine > per_analyst + TOLERANCE:
                    expected = "analyst"
                elif cap is not None and total > cap + TOLERANCE:
                    expected = "global"
                else:
                    expected = None
                try:
                    accountant.charge(analyst, count, epsilon)
                except BudgetExhausted as refusal:
                    assert refusal.scope == expected
                else:
                    assert expected is None
                    counts[analyst] = candidate
                    history[analyst].append((count, epsilon))
            assert accountant.global_spent() == math.fsum(
                accountant.analyst_epsilon(a) for a in ANALYSTS
            )

    def test_exactly_rounded_where_an_ordered_sum_is_not(self):
        # 1e16 + 1 + 1 rounds to 1e16 summed left to right; the exact sum
        # is 1e16 + 2, which is representable.
        accountant = ShardedAccountant(None, None, shards=4)
        for analyst, epsilon in (("alice", 1e16), ("bob", 1.0), ("carol", 1.0)):
            accountant.charge(analyst, 1, epsilon)
        assert accountant.global_spent() == 1e16 + 2

    def test_infinite_spend_is_counted_and_refunded(self):
        uncapped = BasicAccountant()
        uncapped.charge("alice", 1, math.inf)
        uncapped.charge("bob", 1, 0.5)
        assert uncapped.global_spent() == math.inf
        uncapped.refund("alice", 1, math.inf)
        assert uncapped.global_spent() == 0.5
        capped = ShardedAccountant(None, 5.0, shards=4)
        with pytest.raises(BudgetExhausted) as caught:
            capped.charge("alice", 1, math.inf)
        assert caught.value.scope == "global"
        assert caught.value.spent == 0.0
        capped.charge("bob", 1, 1.0)
        assert capped.global_spent() == 1.0


class TestChargeCost:
    """A capped charge costs the same at 100 and at 10,000 analysts."""

    @staticmethod
    def composed_calls_for_one_charge(make, analysts, monkeypatch):
        accountant = make()
        for index in range(analysts):
            accountant.charge(f"analyst-{index}", 1, 1e-3)
        calls = []
        original = PrivacyAccountant._composed

        def counting(ledger, counts):
            calls.append(len(counts))
            return original(ledger, counts)

        with monkeypatch.context() as patch:
            patch.setattr(PrivacyAccountant, "_composed", counting)
            accountant.charge("analyst-0", 1, 1e-3)
        return len(calls)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BasicAccountant(None, 1e6),
            lambda: ShardedAccountant(None, 1e6),
            lambda: ShardedAccountant(1.0, 1e6, rule="advanced"),
        ],
        ids=["basic", "sharded", "sharded-advanced"],
    )
    def test_composed_evaluations_do_not_grow_with_analysts(self, make, monkeypatch):
        few = self.composed_calls_for_one_charge(make, 100, monkeypatch)
        many = self.composed_calls_for_one_charge(make, 10_000, monkeypatch)
        assert few == many
        # The analyst's composed epsilon is computed once per charge.
        assert few == 1
