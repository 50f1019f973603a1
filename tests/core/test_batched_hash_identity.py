"""Bit identity of the batched predicate path against the per-record reference.

Hash predicates evaluate in batch from a per-dataset digest column, and the
count mechanisms count through :meth:`Dataset.match_mask`.  These
properties pin that both give exactly what the per-record definitions
``p(r)`` and ``sum_i q(x_i)`` give: on thresholds that sit on a row's own
hash value, on the edge bit indices, on duplicate rows, on empty candidate
sets and on mixed int/str schemas.
"""

import functools
import operator

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.leftover_hash import (
    RecordHasher,
    _units,
    hash_bit_equals_predicate,
    hash_bit_predicate,
    hash_threshold_predicate,
)
from repro.core.mechanisms import ComposedMechanism, CountMechanism, DPCountMechanism
from repro.core.predicate import attribute_predicate
from repro.data.dataset import Dataset
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.dp.laplace import LaplaceMechanism

SCHEMA = Schema(
    [
        Attribute("age", IntegerDomain(0, 3), AttributeKind.QUASI_IDENTIFIER),
        Attribute("zip", CategoricalDomain(["x", "y", "zz"]), AttributeKind.QUASI_IDENTIFIER),
        Attribute("bit", IntegerDomain(0, 1), AttributeKind.SENSITIVE),
    ]
)
AGES, ZIPS, BITS = range(4), ("x", "y", "zz"), (0, 1)
EDGE_BITS = (0, 63, 64, 191)


@st.composite
def datasets(draw):
    """Small datasets over the mixed schema, with duplicates likely."""
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(AGES), st.sampled_from(ZIPS), st.sampled_from(BITS)),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), max_size=24))
    return Dataset(SCHEMA, rows)


@st.composite
def hash_predicates(draw, data):
    """A threshold, bit or bit-equals predicate; thresholds may sit exactly
    on one of ``data``'s rows' own unit values."""
    salt = draw(st.sampled_from(["s0", "s1", "s2"]))
    kind = draw(st.sampled_from(["threshold", "bit", "bit-equals"]))
    if kind == "threshold":
        units = [RecordHasher(salt).unit(record) for record in data]
        on_a_row = [u for u in units if 0.0 < u <= 1.0]
        if on_a_row and draw(st.booleans()):
            threshold = draw(st.sampled_from(on_a_row))
        else:
            threshold = draw(st.floats(min_value=1e-6, max_value=1.0))
        return hash_threshold_predicate(salt, threshold)
    index = draw(st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 191)))
    if kind == "bit":
        return hash_bit_predicate(salt, index)
    return hash_bit_equals_predicate(salt, index, draw(st.sampled_from([0, 1])))


@st.composite
def structural_predicates(draw):
    """Attribute predicates, including ones no row (or no value) satisfies."""
    name, values = draw(
        st.sampled_from([("age", AGES), ("zip", ZIPS), ("bit", BITS)])
    )
    allowed = draw(st.lists(st.sampled_from(values), min_size=1, unique=True))
    predicate = attribute_predicate(name, allowed)
    if draw(st.booleans()):
        # A contradiction: the merged allowed set may be empty, leaving
        # later conjuncts no candidate rows at all.
        others = [v for v in values if v not in allowed] or list(values)
        predicate = predicate & attribute_predicate(name, draw(st.sampled_from(others)))
    return predicate


@st.composite
def cases(draw):
    """A dataset and predicates over it: bare hash predicates and
    conjunctions mixing hash and structural conjuncts."""
    data = draw(datasets())
    predicates = []
    for _ in range(draw(st.integers(1, 4))):
        parts = draw(
            st.lists(
                st.one_of(hash_predicates(data), structural_predicates()),
                min_size=1,
                max_size=4,
            )
        )
        predicates.append(functools.reduce(operator.and_, parts))
        predicates.extend(draw(st.permutations(parts)))
    return data, predicates


class TestMatchMaskBitIdentity:
    @given(case=cases())
    @settings(max_examples=150, deadline=None)
    def test_mask_equals_per_record_evaluation(self, case):
        data, predicates = case
        # Predicates share salts and run in sequence on one dataset, so later
        # ones read digest columns that earlier conjunctions partly filled.
        for predicate in predicates:
            reference = [predicate(record) for record in data]
            assert data.match_mask(predicate).tolist() == reference
            assert data.count(predicate) == sum(reference)

    @given(data=datasets(), salt=st.sampled_from(["s0", "s1"]))
    @settings(max_examples=40, deadline=None)
    def test_thresholds_on_a_rows_own_unit(self, data, salt):
        hasher = RecordHasher(salt)
        for record in data:
            unit = hasher.unit(record)
            if not 0.0 < unit <= 1.0:
                continue
            at = hash_threshold_predicate(salt, unit)
            above = hash_threshold_predicate(salt, min(float(np.nextafter(unit, 2.0)), 1.0))
            for predicate in (at, above):
                assert data.match_mask(predicate).tolist() == [predicate(r) for r in data]

    def test_edge_bits_on_duplicates(self):
        row = (2, "zz", 1)
        data = Dataset(SCHEMA, [row, row, (0, "x", 0), row])
        hasher = RecordHasher("edge")
        for index in EDGE_BITS:
            expected = [hasher.bit(record, index) for record in data]
            assert hasher.bits(data, np.arange(len(data)), index).tolist() == expected
            assert expected[0] == expected[1] == expected[3]

    def test_empty_candidates_hash_nothing(self):
        data = Dataset(SCHEMA, [(1, "x", 0), (2, "y", 1)])
        never = attribute_predicate("age", 3) & hash_bit_predicate("empty", 5)
        assert not data.match_mask(never).any()
        assert data.count(never) == 0
        assert Dataset(SCHEMA, []).count(hash_threshold_predicate("empty", 0.5)) == 0


class TestUnitConversion:
    @given(digest=st.binary(min_size=32, max_size=32))
    @example(digest=b"\xff" * 32)
    @example(digest=b"\x00" * 32)
    @example(digest=(2**63 + 2**10).to_bytes(8, "big") + bytes(24))
    @example(digest=(2**63 + 3 * 2**10).to_bytes(8, "big") + bytes(24))
    @example(digest=(2**53 + 1).to_bytes(8, "big") + bytes(24))
    @example(digest=(2**64 - 2**10).to_bytes(8, "big") + bytes(24))
    @settings(max_examples=300, deadline=None)
    def test_batched_units_equal_exact_division(self, digest):
        column = np.frombuffer(digest, dtype=np.uint8).reshape(1, 32)
        (batched,) = _units(column).tolist()
        assert batched == int.from_bytes(digest[:8], "big") / 2**64


def _reference_release(mechanism, data, generator):
    """A mechanism's release with its count taken record by record."""
    if isinstance(mechanism, ComposedMechanism):
        return tuple(_reference_release(m, data, generator) for m in mechanism.mechanisms)
    count = sum(1 for record in data if mechanism.query(record))
    if isinstance(mechanism, DPCountMechanism):
        return LaplaceMechanism(mechanism.epsilon, sensitivity=1.0).release(count, generator)
    return count


class TestMechanismReleases:
    @given(case=cases(), seed=st.integers(0, 2**32 - 1), epsilon=st.sampled_from([0.1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_releases_equal_per_record_counts(self, case, seed, epsilon):
        data, predicates = case
        counts = [CountMechanism(p) for p in predicates]
        noisy = [DPCountMechanism(p, epsilon) for p in predicates]
        composed = ComposedMechanism(
            [m for pair in zip(counts, noisy) for m in pair]
        )
        for mechanism in (*counts, *noisy, composed):
            got = mechanism.release(data, np.random.default_rng(seed))
            want = _reference_release(mechanism, data, np.random.default_rng(seed))
            assert got == want
