"""Column codes: batched sampling, coded conjunction masks, no stale codes.

``ProductDistribution.sample`` draws every column in one ``random`` call
and keeps the drawn value indices as the dataset's codes.  It must give
the dataset, and leave the generator in the state, that drawing each
column with :meth:`AttributeDistribution.sample` gives.
``Dataset.conditions_mask`` reads the codes; it must equal plain set
membership on every row, out-of-domain values included.  Datasets made
from others (``project``, ``filter``, ``replace_records``, ``head``) derive
their own codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.distributions import AttributeDistribution, ProductDistribution
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema

AGE = IntegerDomain(0, 9)
ZIP = CategoricalDomain(["x", "y", "zz", "w"])
MIXED = CategoricalDomain([3, "a", 1, "b"])
ONE = IntegerDomain(5, 5)
SCHEMA = Schema(
    [
        Attribute("age", AGE, AttributeKind.QUASI_IDENTIFIER),
        Attribute("zip", ZIP, AttributeKind.QUASI_IDENTIFIER),
        Attribute("mixed", MIXED, AttributeKind.SENSITIVE),
        Attribute("one", ONE),
    ]
)


def distributions():
    return st.builds(
        lambda exponents, weights: ProductDistribution(
            SCHEMA,
            {
                "age": AttributeDistribution.zipf(AGE, exponents[0]),
                "zip": AttributeDistribution.uniform(ZIP),
                "mixed": AttributeDistribution(
                    MIXED, dict(zip(MIXED, np.asarray(weights) / sum(weights)))
                ),
                "one": AttributeDistribution.uniform(ONE),
            },
        ),
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=1),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )


def reference_mask(dataset: Dataset, conditions: dict) -> np.ndarray:
    columns = {name: dataset.schema.index_of(name) for name in conditions}
    return np.array(
        [
            all(row[columns[name]] in frozenset(allowed) for name, allowed in conditions.items())
            for row in dataset.rows
        ],
        dtype=bool,
    )


def decoded(dataset: Dataset) -> tuple:
    """The rows as the dataset's codes spell them."""
    coded = dataset.codes()
    columns = []
    for index in range(len(dataset.schema)):
        codes, table = coded.column(index)
        columns.append([table[code] for code in codes.tolist()])
    return tuple(zip(*columns))


class TestBatchedSampling:
    @settings(max_examples=60, deadline=None)
    @given(distribution=distributions(), n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_column_draws_and_rng_state(self, distribution, n, seed):
        batched, per_column = np.random.default_rng(seed), np.random.default_rng(seed)
        data = distribution.sample(n, batched)
        columns = [distribution.marginals[name].sample(n, per_column) for name in SCHEMA.names]
        assert data.rows == tuple(zip(*columns))
        assert batched.bit_generator.state == per_column.bit_generator.state

    def test_rows_hold_the_domains_own_values(self):
        data = ProductDistribution.uniform(SCHEMA).sample(200, rng=3)
        assert {type(value) for row in data.rows for value in row} == {int, str}
        assert decoded(data) == data.rows

    def test_sample_record_is_unchanged(self):
        distribution = ProductDistribution.uniform(SCHEMA)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        record = distribution.sample_record(a)
        want = tuple(distribution.marginals[name].sample(1, b)[0] for name in SCHEMA.names)
        assert record.values == want


@st.composite
def conditions(draw):
    names = draw(st.lists(st.sampled_from(SCHEMA.names), min_size=1, max_size=4, unique=True))
    universe = {
        "age": list(AGE) + [True, 1.0, -1],
        "zip": list(ZIP) + ["out"],
        "mixed": list(MIXED) + [1.0, "c"],
        "one": [5, 4],
    }
    return {
        name: draw(st.lists(st.sampled_from(universe[name]), max_size=5).map(frozenset))
        for name in names
    }


@st.composite
def unvalidated(draw):
    """Rows mixing domain values with values outside every domain."""
    pool = st.tuples(
        st.sampled_from(list(AGE) + [True, 1.0, -1]),
        st.sampled_from(list(ZIP) + ["out", 3]),
        st.sampled_from(list(MIXED) + [1.0, True]),
        st.sampled_from([5, 5.0, "five"]),
    )
    return Dataset(SCHEMA, draw(st.lists(pool, max_size=30)), validate=False)


class TestCodedConditionsMask:
    @settings(max_examples=100, deadline=None)
    @given(
        distribution=distributions(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        condition=conditions(),
    )
    def test_drawn_codes_equal_set_membership(self, distribution, seed, n, condition):
        data = distribution.sample(n, seed)
        assert np.array_equal(data.conditions_mask(condition), reference_mask(data, condition))

    @settings(max_examples=150, deadline=None)
    @given(data=unvalidated(), condition=conditions())
    def test_derived_codes_equal_set_membership(self, data, condition):
        assert np.array_equal(data.conditions_mask(condition), reference_mask(data, condition))
        assert decoded(data) == data.rows

    def test_fewer_live_rows_than_table_values(self):
        domain = IntegerDomain(0, 999)
        schema = Schema([Attribute("v", domain), Attribute("w", domain)])
        data = ProductDistribution.uniform(schema).sample(5, rng=1)
        condition = {"v": frozenset([data.rows[0][0]]), "w": frozenset(range(500))}
        assert np.array_equal(data.conditions_mask(condition), reference_mask(data, condition))

    def test_unknown_attribute_raises(self):
        data = ProductDistribution.uniform(SCHEMA).sample(3, rng=0)
        with pytest.raises(KeyError):
            data.conditions_mask({"height": frozenset([1])})


class TestNoStaleCodes:
    @pytest.fixture
    def data(self):
        return ProductDistribution.uniform(SCHEMA).sample(40, rng=5)

    def test_project(self, data):
        projected = data.project(["mixed", "age"])
        assert projected.codes() is not data.codes()
        assert decoded(projected) == projected.rows
        condition = {"mixed": frozenset([3, "a"]), "age": frozenset(range(5))}
        assert np.array_equal(
            projected.conditions_mask(condition), reference_mask(projected, condition)
        )

    def test_filter(self, data):
        kept = data.filter(lambda record: record["age"] % 2 == 1)
        assert 0 < len(kept) < len(data)
        assert kept.codes() is not data.codes()
        assert decoded(kept) == kept.rows
        condition = {"age": frozenset([1, 3])}
        assert np.array_equal(kept.conditions_mask(condition), reference_mask(kept, condition))

    def test_replace_records_and_head(self, data):
        reversed_rows = data.replace_records(data.rows[::-1])
        assert decoded(reversed_rows) == reversed_rows.rows
        head = data.head(7)
        assert decoded(head) == head.rows
        condition = {"zip": frozenset(["x"]), "age": frozenset(range(3, 10))}
        for derived in (reversed_rows, head):
            assert np.array_equal(
                derived.conditions_mask(condition), reference_mask(derived, condition)
            )
