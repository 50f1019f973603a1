"""The columnar agreement anonymizer against its per-record definition.

:class:`AgreementAnonymizer` orders, groups and releases rows through the
dataset's column codes.  The reference below is the per-record
anonymizer it replaced: sort the rows by a type-stable key, take runs of
``k`` (the remainder joining the last run), and per group keep each
quasi-identifier value all members share, suppressing the rest.  Every
release must match it cell by cell — cover set *and* label, in order — and
so must its equivalence classes (keys, order and rows), its k-anonymity and
its consistency with the input.  The datasets mix int and str columns,
carry non-QI columns, duplicate rows, sizes that ``k`` does not divide,
single-value domains, and (unvalidated) out-of-domain values, among them
``True`` beside ``1``, which compare equal but sort apart.
"""

from collections import defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.mondrian import MondrianAnonymizer
from repro.data.dataset import Dataset
from repro.data.distributions import AttributeDistribution, ProductDistribution
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.hierarchy import GeneralizedValue
from repro.data.schema import Attribute, AttributeKind, Schema

DOMAINS = (
    IntegerDomain(0, 2),
    CategoricalDomain([3, "a", 1, "b"]),
    CategoricalDomain(["x", "y", "zz"]),
    IntegerDomain(5, 5),
    CategoricalDomain(["only"]),
)
#: Values outside every domain above; True == 1 and 1.0 == 1.
OUTSIDE = (True, 1.0, -7, "out")
KINDS = (
    AttributeKind.QUASI_IDENTIFIER,
    AttributeKind.SENSITIVE,
    AttributeKind.INSENSITIVE,
)


def reference_anonymize(dataset: Dataset, k: int, strategy: str) -> GeneralizedDataset:
    """The per-record agreement anonymizer."""
    n = len(dataset)
    schema = dataset.schema
    if n == 0:
        return GeneralizedDataset(schema, [])
    qi_names = schema.quasi_identifiers or schema.names
    qi_columns = [schema.index_of(name) for name in qi_names]
    rows = dataset.rows
    if strategy == "sorted":
        order = sorted(
            range(n),
            key=lambda i: tuple((type(rows[i][c]).__name__, rows[i][c]) for c in qi_columns),
        )
    else:
        order = list(range(n))
    groups: list[list[int]] = []
    for start in range(0, n, k):
        group = order[start : start + k]
        if len(group) < k and groups:
            groups[-1].extend(group)
        else:
            groups.append(group)
    records = []
    for group in groups:
        members = [rows[i] for i in group]
        cells = {}
        for column, name in enumerate(schema.names):
            if name not in qi_names:
                continue
            if len({row[column] for row in members}) == 1:
                cells[column] = GeneralizedValue.raw(members[0][column])
            else:
                cells[column] = GeneralizedValue("*", list(schema.attributes[column].domain))
        for row in members:
            values = [
                cells[column] if column in cells else GeneralizedValue.raw(row[column])
                for column in range(len(schema))
            ]
            records.append(GeneralizedRecord(schema, values))
    return GeneralizedDataset(schema, records)


def reference_classes(release: GeneralizedDataset) -> dict:
    """Equivalence classes keyed by plain tuples, hashed cell by cell."""
    classes = defaultdict(list)
    for index, record in enumerate(release):
        classes[tuple(record.values)].append(index)
    return dict(classes)


def cells(values) -> list:
    """Cover sets and labels, in order: what a release shows."""
    return [(value.covers, value.label) for value in values]


@st.composite
def datasets(draw):
    width = draw(st.integers(1, 5))
    columns = [draw(st.sampled_from(DOMAINS)) for _ in range(width)]
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(width)]
    schema = Schema(
        [Attribute(f"c{i}", domain, kind) for i, (domain, kind) in enumerate(zip(columns, kinds))]
    )
    outside = draw(st.booleans())

    def value(domain):
        choices = list(domain) + (list(OUTSIDE) if outside else [])
        return st.sampled_from(choices)

    pool = draw(st.lists(st.tuples(*[value(d) for d in columns]), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return Dataset(schema, rows, validate=not outside)


def assert_same_release(got: GeneralizedDataset, want: GeneralizedDataset, data: Dataset):
    assert got.schema == want.schema
    assert len(got) == len(want)
    assert [cells(record) for record in got] == [cells(record) for record in want]
    assert list(got) == list(want)

    got_classes, want_classes = got.equivalence_classes(), reference_classes(want)
    assert [cells(key) for key in got_classes] == [cells(key) for key in want_classes]
    assert list(got_classes.values()) == list(want_classes.values())
    assert got.equivalence_classes() == want.equivalence_classes()
    for k in range(1, 8):
        assert got.is_k_anonymous(k) == want.is_k_anonymous(k)
    assert got.is_consistent_with(data) == want.is_consistent_with(data)


SINGLE_VALUES = Schema(
    [
        Attribute("one", IntegerDomain(5, 5), AttributeKind.QUASI_IDENTIFIER),
        Attribute("bit", IntegerDomain(0, 1), AttributeKind.QUASI_IDENTIFIER),
    ]
)


class TestAgreementAnonymizerIdentity:
    @settings(max_examples=300, deadline=None)
    @given(data=datasets(), k=st.integers(1, 5), strategy=st.sampled_from(["sorted", "sequential"]))
    # Single-value domain: "*" covers {5}, as the raw 5 does, so two
    # groups with different labels there share one class.
    @example(
        data=Dataset(SINGLE_VALUES, [(5, 0), (5, 1), (-7, 0), (5, 0)], validate=False),
        k=2,
        strategy="sequential",
    )
    # True == 1: the group agrees, the first member's value is released.
    @example(
        data=Dataset(
            Schema([Attribute("c", IntegerDomain(0, 2), AttributeKind.QUASI_IDENTIFIER)]),
            [(1,), (True,), (2,), (1.0,), (True,)],
            validate=False,
        ),
        k=2,
        strategy="sorted",
    )
    # (1.0, 0) == (1, 0), yet the two tables rank their values apart.
    @example(
        data=Dataset(
            Schema(
                [
                    Attribute("c0", IntegerDomain(0, 2), AttributeKind.QUASI_IDENTIFIER),
                    Attribute("c1", IntegerDomain(0, 2), AttributeKind.QUASI_IDENTIFIER),
                ]
            ),
            [(1.0, 1), (0, 1), (0, 0), (0, 1), (0, 0)],
            validate=False,
        ),
        k=2,
        strategy="sorted",
    )
    def test_release_matches_per_record_reference(self, data, k, strategy):
        if len(data) < k:
            return
        got = AgreementAnonymizer(k, strategy).anonymize(data)
        want = reference_anonymize(data, k, strategy)
        assert_same_release(got, want, data)

    def test_drawn_codes_match_derived_codes(self):
        distribution = ProductDistribution(
            Schema(
                [
                    Attribute("a", DOMAINS[1], AttributeKind.QUASI_IDENTIFIER),
                    Attribute("b", DOMAINS[2], AttributeKind.SENSITIVE),
                    Attribute("c", DOMAINS[0], AttributeKind.QUASI_IDENTIFIER),
                ]
            ),
            {
                "a": AttributeDistribution.zipf(DOMAINS[1], 1.5),
                "b": AttributeDistribution.uniform(DOMAINS[2]),
                "c": AttributeDistribution.zipf(DOMAINS[0], 0.7),
            },
        )
        for seed in range(5):
            drawn = distribution.sample(47, rng=seed)
            derived = Dataset(drawn.schema, drawn.rows)
            for k in (1, 3, 4):
                got = AgreementAnonymizer(k).anonymize(drawn)
                assert_same_release(got, AgreementAnonymizer(k).anonymize(derived), drawn)
                assert_same_release(got, reference_anonymize(drawn, k, "sorted"), drawn)

    def test_group_rows_are_shared_records(self):
        data = Dataset(SINGLE_VALUES, [(5, i % 2) for i in range(9)])
        release = AgreementAnonymizer(3).anonymize(data)
        assert len({id(record) for record in release}) == 3


class TestRecordHash:
    @settings(max_examples=100, deadline=None)
    @given(data=datasets(), k=st.integers(1, 3))
    def test_values_hash_as_a_plain_tuple(self, data, k):
        if len(data) < k:
            return
        for record in AgreementAnonymizer(k).anonymize(data):
            assert hash(record.values) == hash(tuple(record.values))
            assert hash(record) == hash(tuple(record.values))

    def test_pickle_round_trip_recomputes_the_hash(self):
        import pickle

        schema = Schema([Attribute("s", CategoricalDomain(["p", "q"]))])
        record = GeneralizedRecord(schema, [GeneralizedValue("p|q", ["p", "q"])])
        hash(record)
        copy = pickle.loads(pickle.dumps(record))
        # String hashes differ between processes: the kept hash stays behind.
        assert "hash" not in copy.values.__dict__
        assert copy == record and hash(copy) == hash(record)


class TestClassWeights:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 4),
        exponents=st.lists(st.floats(0.0, 2.5), min_size=3, max_size=3),
        mondrian=st.booleans(),
    )
    def test_weights_are_conjunction_weights(self, seed, k, exponents, mondrian):
        domains = (IntegerDomain(0, 6), CategoricalDomain([3, "a", 1, "b"]), IntegerDomain(0, 2))
        schema = Schema(
            [
                Attribute(f"c{i}", domain, AttributeKind.QUASI_IDENTIFIER)
                for i, domain in enumerate(domains)
            ]
        )
        distribution = ProductDistribution(
            schema,
            {
                f"c{i}": AttributeDistribution.zipf(domain, exponent)
                for i, (domain, exponent) in enumerate(zip(domains, exponents))
            },
        )
        data = distribution.sample(40, rng=seed)
        if mondrian:
            release = MondrianAnonymizer(k=k).anonymize(Dataset(schema, data.rows))
        else:
            release = AgreementAnonymizer(k).anonymize(data)
        classes = release.equivalence_classes()
        # Reference: each class priced on its own, one attribute at a time
        # in schema order, starting from 1.0.
        want = []
        for key in classes:
            weight = 1.0
            for name, value in zip(schema.names, key):
                weight *= distribution.marginals[name].probability_of_set(frozenset(value.covers))
            want.append(weight)
        got = distribution.conjunction_weights(
            {
                name: [cell.covers for cell in cells]
                for name, cells in zip(schema.names, zip(*classes))
            }
        )
        assert [w.hex() for w in got] == [w.hex() for w in want]
        for weight, key in zip(got, classes):
            conditions = {name: value.covers for name, value in zip(schema.names, key)}
            assert distribution.conjunction_weight(conditions).hex() == weight.hex()

    def test_no_columns_no_conjunctions(self):
        distribution = ProductDistribution.uniform(
            Schema([Attribute("c", IntegerDomain(0, 3), AttributeKind.QUASI_IDENTIFIER)])
        )
        assert distribution.conjunction_weights({}) == []
        assert distribution.conjunction_weights({"c": []}) == []
        assert distribution.conjunction_weight({}) == 1.0
