"""Immutable datasets: the ``x = (x_1, ..., x_n)`` of the paper.

A :class:`Dataset` couples a :class:`~repro.data.schema.Schema` with a tuple
of records.  Records stay plain tuples internally (cheap, hashable); the
:class:`Record` wrapper adds name-based access for predicate code, which is
how the paper's predicates ``p : X -> {0,1}`` are written here.

Datasets are *immutable*: anonymizers, mechanisms and attacks all return new
datasets, which keeps the provenance of each experiment auditable.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.schema import Schema

#: Key of a dataset's :class:`ColumnCodes` in its derived-value cache.
_CODES = ("column-codes",)


class Record:
    """A single row with attribute-name access.

    Records compare equal (and hash) by their underlying value tuple, so two
    records with the same field values are interchangeable — matching the
    paper's convention that predicates act on record *values*, never on
    positions in the dataset.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: tuple):
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> Schema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> tuple:
        """The raw value tuple in schema order."""
        return self._values

    def __getitem__(self, name: str) -> object:
        return self._values[self._schema.index_of(name)]

    def get(self, name: str, default: object = None) -> object:
        """Value of attribute ``name``, or ``default`` when absent."""
        if name in self._schema:
            return self[name]
        return default

    def as_dict(self) -> dict[str, object]:
        """The record as an attribute-name -> value mapping."""
        return dict(zip(self._schema.names, self._values))

    def replace(self, **updates: object) -> "Record":
        """A copy of the record with the named attributes changed."""
        values = list(self._values)
        for name, value in updates.items():
            values[self._schema.index_of(name)] = value
        return Record(self._schema, tuple(values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Record({fields})"


class ColumnCodes:
    """Small-integer codes of a dataset's columns.

    Row ``r`` of column ``c`` holds ``table(c)[codes(c)[r]]``: each column
    is an integer array over a table of the column's values.  A sampler
    that drew value indices hands them over whole (:meth:`drawn`); any
    other dataset derives a column on first use, numbering its distinct
    ``(type, value)`` pairs in order of appearance.  Columnar code — the
    batched conjunction mask, the agreement anonymizer — reads the codes
    instead of the row tuples.
    """

    __slots__ = ("_rows", "_codes", "_tables", "_agreement")

    def __init__(self, rows: tuple[tuple, ...], width: int):
        self._rows = rows
        self._codes: list[np.ndarray | None] = [None] * width
        self._tables: list[Sequence | None] = [None] * width
        self._agreement: list[np.ndarray | None] = [None] * width

    @classmethod
    def drawn(cls, codes: np.ndarray, tables: Sequence[Sequence]) -> "ColumnCodes":
        """Codes a sampler drew: ``codes`` is ``(width, n)`` and the values
        of each table are pairwise unequal (a domain's values)."""
        coded = cls((), len(tables))
        coded._codes = list(codes)
        coded._tables = list(tables)
        coded._agreement = coded._codes
        return coded

    def column(self, index: int) -> tuple[np.ndarray, Sequence]:
        """``(codes, table)`` of column ``index``."""
        codes = self._codes[index]
        if codes is None:
            numbering: dict[tuple, int] = {}
            codes = np.fromiter(
                (
                    numbering.setdefault((row[index].__class__, row[index]), len(numbering))
                    for row in self._rows
                ),
                dtype=np.intp,
                count=len(self._rows),
            )
            self._tables[index] = [value for _type, value in numbering]
            self._codes[index] = codes
        return codes, self._tables[index]

    def agreement(self, index: int) -> np.ndarray:
        """Codes of column ``index`` under which two rows are equal exactly
        when their values compare equal (``1`` and ``True`` share a code
        here, not in :meth:`column`)."""
        agreement = self._agreement[index]
        if agreement is None:
            codes, table = self.column(index)
            if len(set(table)) == len(table):
                agreement = codes
            else:
                first: dict = {}
                merged = np.array([first.setdefault(value, j) for j, value in enumerate(table)])
                agreement = merged[codes]
            self._agreement[index] = agreement
        return agreement


class Dataset:
    """An immutable ordered collection of records over a shared schema."""

    def __init__(self, schema: Schema, records: Iterable[Sequence[object]], validate: bool = True):
        self.schema = schema
        rows: list[tuple] = []
        for record in records:
            values = record.values if isinstance(record, Record) else tuple(record)
            if validate:
                schema.validate_record(values)
            rows.append(values)
        self._rows: tuple[tuple, ...] = tuple(rows)
        self._column_cache: dict[str, tuple] = {}
        #: Values derived from the rows by other layers (see :meth:`derived`);
        #: they live and die with this dataset.
        self._derived: dict[Hashable, object] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _drawn(
        cls,
        schema: Schema,
        rows: Iterable[tuple],
        codes: np.ndarray,
        tables: Sequence[Sequence],
    ) -> "Dataset":
        """A dataset of ``rows`` a sampler built from drawn ``codes`` over
        ``tables`` (see :meth:`ColumnCodes.drawn`), which it keeps as its
        column codes instead of deriving them."""
        dataset = cls(schema, rows, validate=False)
        dataset._derived[_CODES] = ColumnCodes.drawn(codes, tables)
        return dataset

    @classmethod
    def from_dicts(cls, schema: Schema, rows: Iterable[Mapping[str, object]]) -> "Dataset":
        """Build a dataset from attribute-name -> value mappings."""
        names = schema.names
        return cls(schema, (tuple(row[name] for name in names) for row in rows))

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        return (Record(self.schema, values) for values in self._rows)

    def __getitem__(self, index: int) -> Record:
        return Record(self.schema, self._rows[index])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dataset)
            and self.schema == other.schema
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.schema, self._rows))

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The raw value tuples (schema order), one per record."""
        return self._rows

    def column(self, name: str) -> tuple:
        """All values of attribute ``name``, in row order (cached)."""
        cached = self._column_cache.get(name)
        if cached is None:
            index = self.schema.index_of(name)
            cached = tuple(row[index] for row in self._rows)
            self._column_cache[name] = cached
        return cached

    def derived(self, key: Hashable, build: Callable[[], object]) -> object:
        """The value cached under ``key``, made by ``build()`` on first use.

        Rows never change, so anything computed from them can be kept for
        the dataset's lifetime: the hash predicates keep their per-salt
        digest columns here (:mod:`repro.core.leftover_hash`).  The cache
        is per instance, so it is freed with the dataset.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def codes(self) -> ColumnCodes:
        """The column codes of the rows (see :class:`ColumnCodes`)."""
        return self.derived(_CODES, lambda: ColumnCodes(self._rows, len(self.schema)))

    # -- relational-ish operations ----------------------------------------------

    def project(self, names: Sequence[str]) -> "Dataset":
        """Keep only the attributes in ``names`` (in the given order)."""
        projected_schema = self.schema.project(names)
        indices = [self.schema.index_of(name) for name in names]
        return Dataset(
            projected_schema,
            (tuple(row[i] for i in indices) for row in self._rows),
            validate=False,
        )

    def drop(self, names: Sequence[str]) -> "Dataset":
        """Remove the attributes in ``names`` (e.g. redact direct identifiers)."""
        keep = [name for name in self.schema.names if name not in set(names)]
        # Validate the drop list eagerly so typos don't silently keep columns.
        self.schema.drop(names)
        return self.project(keep)

    def filter(self, condition: Callable[[Record], bool]) -> "Dataset":
        """Records satisfying ``condition``, as a new dataset."""
        return Dataset(
            self.schema,
            (row for row in self._rows if condition(Record(self.schema, row))),
            validate=False,
        )

    # -- batched predicate evaluation ---------------------------------------------

    def conditions_mask(self, conditions: Mapping[str, frozenset]) -> np.ndarray:
        """Boolean row mask for a conjunction of per-attribute allowed sets.

        Each mentioned column is tested on the rows still alive through its
        codes: membership is decided once per table value and looked up by
        code.  No per-row :class:`Record` objects, no Python call stack
        through predicate closures.  This is the batched evaluation path
        for structural predicates
        (:class:`~repro.core.predicate.Predicate` with ``conditions``).
        """
        coded = self.codes()
        alive = np.arange(len(self._rows))
        for name, allowed in conditions.items():
            if not isinstance(allowed, (set, frozenset)):
                allowed = frozenset(allowed)
            codes, table = coded.column(self.schema.index_of(name))
            member = np.fromiter((value in allowed for value in table), dtype=bool, count=len(table))
            alive = alive[member[codes[alive]]]
            if not alive.size:
                break
        mask = np.zeros(len(self._rows), dtype=bool)
        mask[alive] = True
        return mask

    def match_mask(self, predicate: Callable[[Record], bool]) -> np.ndarray:
        """Boolean row mask of predicate matches.

        Predicates exposing a ``match_mask(dataset)`` method (structured
        :class:`~repro.core.predicate.Predicate` instances) are evaluated
        batched; arbitrary callables fall back to a per-record loop.
        """
        batched = getattr(predicate, "match_mask", None)
        if batched is not None:
            return batched(self)
        return np.fromiter(
            (bool(predicate(Record(self.schema, row))) for row in self._rows),
            dtype=bool,
            count=len(self._rows),
        )

    def count(self, predicate: Callable[[Record], bool]) -> int:
        """Number of records satisfying ``predicate``: the paper's
        ``M#q(x) = sum_i q(x_i)``, evaluated through :meth:`match_mask`."""
        return int(np.count_nonzero(self.match_mask(predicate)))

    def replace_records(self, records: Iterable[Sequence[object]]) -> "Dataset":
        """A dataset with the same schema and new records (unvalidated schema swap)."""
        return Dataset(self.schema, records, validate=False)

    # -- grouping / statistics ---------------------------------------------------

    def value_counts(self, name: str) -> Counter:
        """Multiplicity of each value of attribute ``name``."""
        return Counter(self.column(name))

    def group_by(self, names: Sequence[str]) -> dict[tuple, list[int]]:
        """Row indices grouped by their values on the attributes ``names``.

        This is the *equivalence class* structure of the k-anonymity
        literature: each key is a combination of values on ``names``, each
        value the indices of rows sharing it.
        """
        indices = [self.schema.index_of(name) for name in names]
        groups: dict[tuple, list[int]] = defaultdict(list)
        for row_number, row in enumerate(self._rows):
            groups[tuple(row[i] for i in indices)].append(row_number)
        return dict(groups)

    def multiplicity(self, record: Sequence[object] | Record) -> int:
        """How many rows equal ``record`` exactly."""
        values = record.values if isinstance(record, Record) else tuple(record)
        return sum(1 for row in self._rows if row == values)

    def unique_fraction(self, names: Sequence[str]) -> float:
        """Fraction of rows whose ``names``-projection is unique in the data.

        This is Sweeney's uniqueness statistic: with
        ``names = ("zip", "birthdate", "sex")`` it measures how much of the
        population is singled out by that quasi-identifier combination.
        """
        if not self._rows:
            raise ValueError("uniqueness of an empty dataset is undefined")
        groups = self.group_by(names)
        unique_rows = sum(len(rows) for rows in groups.values() if len(rows) == 1)
        return unique_rows / len(self._rows)

    def head(self, count: int = 5) -> "Dataset":
        """The first ``count`` records (for display)."""
        return Dataset(self.schema, self._rows[:count], validate=False)

    def __repr__(self) -> str:
        return f"Dataset({len(self)} records, schema={self.schema.names})"
