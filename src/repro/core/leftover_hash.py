"""Negligible-weight predicates via hashing (the Leftover Hash Lemma device).

The paper twice leans on the Leftover Hash Lemma [27]:

* Section 2.2 — "if D has moderate min-entropy ... one can construct a
  predicate p such that Pr_{x~D}[p(x) = 1] = 1/n";
* footnote 12 — the Theorem 2.10 attacker refines an equivalence class
  with a fresh predicate of weight ``1/k'`` built the same way.

Concretely: a salted cryptographic hash of the record's values behaves as
a strong extractor on any distribution with enough min-entropy, so the
predicate "h(x) < threshold" has weight ~ ``threshold`` *for every such D
simultaneously* — the attacker needs no knowledge of D beyond its entropy.
We use SHA-256, which is deterministic across runs and platforms (unlike
Python's builtin ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.predicate import Predicate
from repro.data.dataset import Dataset, Record

#: Resolution of the hash-to-unit-interval map (bits).
_UNIT_BITS = 64
_UNIT_DENOMINATOR = 2**_UNIT_BITS
#: Bits of a digest that bit predicates may address.
_DIGEST_BITS = 192


def _material(values: tuple) -> bytes:
    """The bytes a record is hashed over: the ``repr`` of its value tuple."""
    return repr(values).encode("utf-8")


def _digest(prefix: bytes, material: bytes) -> bytes:
    """SHA-256 of a salt prefix (``salt + NUL``) followed by a record's material."""
    return hashlib.sha256(prefix + material).digest()


def _check_bit_index(index: int) -> None:
    if not 0 <= index < _DIGEST_BITS:
        raise ValueError(f"bit index must lie in [0, {_DIGEST_BITS}), got {index}")


class _DigestColumn:
    """One salt's digests of one dataset's rows, filled in as rows are asked for.

    ``digests`` is an ``(n, 32) uint8`` array; ``filled`` marks the rows
    already hashed, so each row is hashed at most once per salt and a
    conjunction hashes only the rows its earlier conjuncts left alive.
    """

    __slots__ = ("digests", "filled")

    def __init__(self, n: int):
        self.digests = np.zeros((n, hashlib.sha256().digest_size), dtype=np.uint8)
        self.filled = np.zeros(n, dtype=bool)


def _row_materials(dataset: Dataset) -> list:
    """Per-row hash material of ``dataset``, ``None`` until first needed."""
    return dataset.derived(("lhl-material",), lambda: [None] * len(dataset))


def _units(digests: np.ndarray) -> np.ndarray:
    """Map ``(k, >=8) uint8`` digests to [0, 1) exactly as :meth:`RecordHasher.unit`.

    The first eight bytes read as a big-endian ``uint64``; its conversion
    to float64 is correctly rounded, as is ``int / 2**64``, and scaling by
    ``2**-64`` is exact, so both routes give the same float bit for bit.
    """
    leading = np.ascontiguousarray(digests[:, :8]).view(">u8").ravel()
    return leading.astype(np.float64) * (1.0 / _UNIT_DENOMINATOR)


class RecordHasher:
    """A salted, deterministic hash of record values.

    Distinct salts give (by the random-oracle heuristic backing the LHL
    usage) independent functions — which is why conjunctions of hash
    predicates with distinct salts may multiply their analytic weights.

    :meth:`unit` and :meth:`bit` hash one record; :meth:`digests` hashes
    rows of a dataset through a digest column cached on the dataset.  Both
    hash the same material with the same function.
    """

    def __init__(self, salt: str):
        if not salt:
            raise ValueError("salt must be non-empty")
        self.salt = salt
        self._prefix = salt.encode("utf-8") + b"\x00"

    def _digest(self, record: Record) -> bytes:
        return _digest(self._prefix, _material(tuple(record.values)))

    def unit(self, record: Record) -> float:
        """Map the record to [0, 1) with 64-bit resolution."""
        digest = self._digest(record)
        return int.from_bytes(digest[:8], "big") / _UNIT_DENOMINATOR

    def bit(self, record: Record, index: int) -> int:
        """The ``index``-th bit of the record's hash (0 <= index < 192).

        Bits beyond the first 64 are disjoint from the material used by
        :meth:`unit`, so bit predicates are independent of threshold
        predicates *with the same salt* as long as ``index >= 64``.
        """
        _check_bit_index(index)
        digest = self._digest(record)
        byte_index, bit_offset = divmod(index, 8)
        return (digest[byte_index] >> bit_offset) & 1

    def digests(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """The ``(len(rows), 32) uint8`` digests of ``dataset``'s ``rows``.

        Read from the dataset's column for this salt; rows not yet in it
        are hashed now, their material taken from (and kept in) the
        dataset's material cache.  Threads sharing a dataset need no lock:
        a row's digest is written before it is marked filled, and any two
        writers of a row write the same bytes.
        """
        column = dataset.derived(
            ("lhl-digest", self._prefix), lambda: _DigestColumn(len(dataset))
        )
        missing = rows[~column.filled[rows]]
        if missing.size:
            materials = _row_materials(dataset)
            table = dataset.rows
            fresh = []
            for index in missing.tolist():
                material = materials[index]
                if material is None:
                    material = materials[index] = _material(table[index])
                fresh.append(_digest(self._prefix, material))
            column.digests[missing] = np.frombuffer(b"".join(fresh), dtype=np.uint8).reshape(
                len(fresh), -1
            )
            column.filled[missing] = True
        return column.digests[rows]

    def units(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """:meth:`unit` of each of ``dataset``'s ``rows``, batched."""
        return _units(self.digests(dataset, rows))

    def bits(self, dataset: Dataset, rows: np.ndarray, index: int) -> np.ndarray:
        """:meth:`bit` ``index`` of each of ``dataset``'s ``rows``, batched."""
        _check_bit_index(index)
        byte_index, bit_offset = divmod(index, 8)
        return (self.digests(dataset, rows)[:, byte_index] >> bit_offset) & 1


def hash_threshold_predicate(salt: str, threshold: float) -> Predicate:
    """The predicate ``h_salt(x) < threshold`` with analytic weight ``threshold``.

    Under any distribution whose min-entropy comfortably exceeds
    ``log2(1/threshold)`` the true weight is within o(threshold) of the
    analytic value — this is the LHL guarantee the paper invokes.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    hasher = RecordHasher(salt)
    return Predicate(
        lambda record: hasher.unit(record) < threshold,
        f"h_{salt}(x) < {threshold:.3e}",
        analytic_weight=threshold,
        rows_fn=lambda dataset, rows: hasher.units(dataset, rows) < threshold,
    )


def hash_bit_predicate(salt: str, index: int) -> Predicate:
    """The predicate "bit ``index`` of ``h_salt(x)`` is 1" (weight 1/2)."""
    return hash_bit_equals_predicate(salt, index, 1)


def hash_bit_equals_predicate(salt: str, index: int, value: int) -> Predicate:
    """The predicate "bit ``index`` of ``h_salt(x)`` equals ``value``"."""
    if value not in (0, 1):
        raise ValueError(f"value must be 0 or 1, got {value}")
    hasher = RecordHasher(salt)
    # Probe validity eagerly so bad indices fail at construction time.
    _check_bit_index(index)
    return Predicate(
        lambda record: hasher.bit(record, index) == value,
        f"bit_{index}(h_{salt}(x)) = {value}",
        analytic_weight=0.5,
        rows_fn=lambda dataset, rows: hasher.bits(dataset, rows, index) == value,
    )


def isolating_weight_predicate(salt: str, n: int) -> Predicate:
    """The Section 2.2 trivial-attacker predicate: weight exactly ``1/n``.

    Chosen independently of the data, it isolates with probability
    ``n * (1/n) * (1 - 1/n)^(n-1) -> 1/e ~ 37%`` — the paper's birthday
    example, generalized via the LHL to any high-min-entropy distribution.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return hash_threshold_predicate(salt, 1.0 / n)
