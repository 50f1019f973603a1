"""Agreement-based (suppression-only) k-anonymizer.

This is the "typical, information-content-optimizing" anonymizer family the
proof of Theorem 2.10 (via [14]) analyzes: partition the records into
groups of at least ``k`` and, within each group, release exactly the
attributes on which *all* group members agree, suppressing the rest.  The
released rows within a group are identical, so the output is k-anonymous by
construction; and because the anonymizer keeps every attribute it possibly
can, the per-class predicate "matches all released values" has weight about
``2^-(number of agreed attributes)`` — negligible once the data is wide.

That is the engine of the paper's 37% claim: the class predicate ``p`` has
negligible weight yet matches the ``k' >= k`` class members, and a fresh
weight-``1/k'`` hash refinement ``p'`` isolates inside the class with
probability ``(1 - 1/k')^(k'-1) -> 1/e``.

Grouping strategies:

* ``"sorted"`` (default) — lexicographically sort records and group
  consecutive runs of ``k``; neighbors in sorted order share prefixes, so
  agreement (and hence utility *and* attack strength) is maximized greedily.
* ``"sequential"`` — group records in input order (an intentionally
  utility-poor ablation).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.hierarchy import GeneralizedValue
from repro.utils.rng import RngSeed


class AgreementAnonymizer:
    """Suppression-only k-anonymizer releasing within-group agreed values.

    Args:
        k: group size floor (the anonymity parameter).
        strategy: ``"sorted"`` or ``"sequential"`` grouping (see module doc).
    """

    def __init__(self, k: int, strategy: str = "sorted"):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if strategy not in ("sorted", "sequential"):
            raise ValueError(f"unknown grouping strategy: {strategy!r}")
        self.k = int(k)
        self.strategy = strategy

    def anonymize(self, dataset: Dataset) -> GeneralizedDataset:
        """Anonymize ``dataset``; row order follows the grouping order.

        Columnar throughout: the rows are ordered by a stable sort of the
        quasi-identifier codes' ranks, a group agrees on a column when all
        its members' codes equal the first member's, and every distinct
        output row is built once from interned cells and shared by the
        positions it fills.
        """
        n = len(dataset)
        schema = dataset.schema
        if n == 0:
            return GeneralizedDataset(schema, [])
        if n < self.k:
            raise ValueError(f"cannot {self.k}-anonymize {n} records")

        qi_names = set(schema.quasi_identifiers or schema.names)
        qi = [c for c, name in enumerate(schema.names) if name in qi_names]
        other = [c for c, name in enumerate(schema.names) if name not in qi_names]
        coded = dataset.codes()
        columns = [coded.column(c) for c in range(len(schema))]

        if self.strategy == "sorted":
            order = _sorted_order([columns[c] for c in qi])
        else:
            order = np.arange(n)

        # Consecutive groups of k; the remainder joins the last group so no
        # group falls below k.
        groups = n // self.k
        starts = np.arange(groups) * self.k
        group_of = np.minimum(np.arange(n) // self.k, groups - 1)
        whole = (groups - 1) * self.k

        # Cell ids: column c's code j is offsets[c] + j, its "*" is
        # offsets[c] + len(table).  One shared cell per group on the
        # quasi-identifiers: agreed values stay, disagreements are
        # suppressed.  Non-QI attributes (e.g. the sensitive column) are
        # released raw per record, as standard k-anonymity prescribes.
        sizes = np.array([len(table) + 1 for _codes, table in columns])
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        agreement = np.stack([coded.agreement(c) for c in qi])[:, order]
        full = agreement[:, :whole].reshape(len(qi), groups - 1, self.k)
        last = agreement[:, whole:]
        agreed = np.empty((len(qi), groups), dtype=bool)
        agreed[:, :-1] = (full == full[:, :, :1]).all(axis=2)
        agreed[:, -1] = (last == last[:, :1]).all(axis=1)
        first = np.stack([columns[c][0] for c in qi])[:, order[starts]]
        group_ids = offsets[qi, None] + np.where(agreed, first, sizes[qi, None] - 1)

        # Distinct output rows: one per group and non-QI codes.
        other_codes = np.array([columns[c][0] for c in other], dtype=np.intp)
        raw_ids = offsets[other, None] + other_codes.reshape(len(other), n)[:, order]
        numbering: dict[tuple, int] = {}
        position_row = [
            numbering.setdefault(key, len(numbering))
            for key in zip(group_of.tolist(), *raw_ids.tolist())
        ]
        firsts = np.unique(position_row, return_index=True)[1]
        ids = np.empty((len(schema), len(firsts)), dtype=np.intp)
        ids[qi] = group_ids[:, group_of[firsts]]
        ids[other] = raw_ids[:, firsts]

        used, where = np.unique(ids, return_inverse=True)
        used_columns = np.searchsorted(offsets, used, side="right") - 1
        cells = np.empty(len(used), dtype=object)
        # Cells are interned for the whole release: one raw value per
        # (type, value) and one "*" per column.  Values compare by cover
        # set, so sharing them changes no release, only the work of
        # building and hashing it.
        raw_cells: dict[tuple[type, object], GeneralizedValue] = {}
        for index, (cell_id, column) in enumerate(zip(used.tolist(), used_columns.tolist())):
            table = columns[column][1]
            code = cell_id - int(offsets[column])
            if code == len(table):
                domain = schema.attributes[column].domain
                cells[index] = GeneralizedValue("*", list(domain))
                continue
            value = table[code]
            key = (value.__class__, value)
            cell = raw_cells.get(key)
            if cell is None:
                cell = raw_cells[key] = GeneralizedValue.raw(value)
            cells[index] = cell
        rows = cells[where.reshape(ids.shape)].T.tolist()
        distinct = [GeneralizedRecord._trusted(schema, row) for row in rows]
        return GeneralizedDataset(schema, map(distinct.__getitem__, position_row))


def _sorted_order(columns: list) -> np.ndarray:
    """The rows' lexicographic order by their values in ``columns``.

    Values sort by ``(type name, value)``, so mixed int/str columns sort
    per type.  Each column's codes become ranks of their values, and
    ``np.lexsort`` orders by the ranks, first column primary.  It is
    stable, as ``sorted`` is, so ties keep the input order.
    """
    return np.lexsort([_ranks(table)[codes] for codes, table in reversed(columns)])


def _ranks(table) -> np.ndarray:
    """Dense rank of each value in ``table`` by ``(type name, value)``."""
    keys = [(type(value).__name__, value) for value in table]
    ranks = np.empty(len(keys), dtype=np.intp)
    rank, previous = -1, None
    for index in sorted(range(len(keys)), key=keys.__getitem__):
        if rank < 0 or keys[index] != previous:
            rank, previous = rank + 1, keys[index]
        ranks[index] = rank
    return ranks


def estimate_agreement_attack_success(
    distribution,
    n: int,
    k: int,
    trials: int,
    mode: str = "refine",
    strategy: str = "sorted",
    rng: RngSeed = None,
    jobs: int = 1,
    backend: str = "auto",
):
    """Monte-Carlo estimate of the PSO attack success against this anonymizer.

    The Theorem 2.10 headline quantity: play the PSO game against
    :class:`AgreementAnonymizer` releases with the
    :class:`~repro.core.attackers.KAnonymityPSOAttacker` (mode
    ``"refine"`` reproduces the paper's ``(1 - 1/k')^(k'-1) ~ 37%``,
    ``"singleton"`` Cohen's ~100% strengthening).  Trials fan out across
    ``jobs`` workers; for a fixed ``rng`` the returned
    :class:`~repro.core.pso.PSOGameResult` is bit-identical for every
    ``jobs`` value and backend.
    """
    # Imported lazily: repro.core.theorems imports this module at package
    # import time, so a top-level import of repro.core here would cycle.
    from repro.core.attackers import KAnonymityPSOAttacker
    from repro.core.mechanisms import KAnonymityMechanism
    from repro.core.pso import PSOGame

    mechanism = KAnonymityMechanism(
        AgreementAnonymizer(k, strategy=strategy), label="agreement"
    )
    game = PSOGame(distribution, n, mechanism, KAnonymityPSOAttacker(mode))
    return game.run(trials, rng, jobs=jobs, backend=backend)
