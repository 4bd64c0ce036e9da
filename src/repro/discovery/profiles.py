"""Column profiling used by join discovery.

Profiles can be computed whole-table (:func:`profile_table`) or streamed
chunk-by-chunk with mergeable partial states
(:class:`ColumnProfileAccumulator` / :func:`profile_table_chunks`): the
accumulator merges each chunk's distinct values, null counts and
first-appearance order into one running state, and ``finish()`` produces a
:class:`ColumnProfile` **identical** (MinHash signature bytes included) to
what the monolithic path computes — so a table too large for RAM profiles
under a chunk-sized memory bound without perturbing discovery scores, and the
fingerprint-keyed profile cache stores one canonical profile regardless of
how the table was laid out on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.discovery.minhash import MinHashSignature
from repro.relational.column import Column, remap_dictionary
from repro.relational.schema import CATEGORICAL, ColumnType
from repro.relational.table import Table


@dataclass
class ColumnProfile:
    """Summary statistics of one column used to score join candidates."""

    table_name: str
    column_name: str
    ctype: ColumnType
    num_rows: int
    num_distinct: int
    null_fraction: float
    min_value: float | None
    max_value: float | None
    minhash: MinHashSignature | None

    @property
    def uniqueness(self) -> float:
        """Distinct values divided by non-null rows (1.0 means key-like)."""
        non_null = self.num_rows * (1.0 - self.null_fraction)
        if non_null <= 0:
            return 0.0
        return min(1.0, self.num_distinct / non_null)

    @property
    def looks_like_key(self) -> bool:
        """Heuristic: mostly distinct and mostly non-null."""
        return self.uniqueness > 0.5 and self.null_fraction < 0.5

    def to_state(self) -> dict:
        """Plain-types state (builtin types + bytes) for sidecar persistence.

        The persisted profile cache stores these instead of pickled class
        instances so that renaming or moving the classes never invalidates an
        on-disk cache that a version check would otherwise accept.  A ``"v"``
        field versions the state layout itself: :meth:`from_state` rejects
        states written by a newer, incompatible layout instead of
        misinterpreting them.
        """
        return {
            "v": 1,
            "table_name": self.table_name,
            "column_name": self.column_name,
            "ctype": self.ctype.value,
            "num_rows": self.num_rows,
            "num_distinct": self.num_distinct,
            "null_fraction": self.null_fraction,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "minhash": None if self.minhash is None else self.minhash.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ColumnProfile":
        """Inverse of :meth:`to_state`.

        Accepts version-1 states (states written before the ``"v"`` field
        existed are version 1 by definition); raises ``ValueError`` on states
        from a newer layout.
        """
        version = state.get("v", 1)
        if version != 1:
            raise ValueError(
                f"unsupported ColumnProfile state version {version!r} "
                f"(this build reads version 1)"
            )
        minhash = state["minhash"]
        return cls(
            table_name=state["table_name"],
            column_name=state["column_name"],
            ctype=ColumnType(state["ctype"]),
            num_rows=state["num_rows"],
            num_distinct=state["num_distinct"],
            null_fraction=state["null_fraction"],
            min_value=state["min_value"],
            max_value=state["max_value"],
            minhash=None if minhash is None else MinHashSignature.from_state(minhash),
        )


def profile_column(
    table_name: str, column: Column, num_hashes: int = 64, max_minhash_values: int = 2000
) -> ColumnProfile:
    """Profile one column (distinct counts, range, MinHash signature).

    Categorical columns are profiled off their dictionary: ``unique()`` is the
    dictionary itself for a freshly built column, ``null_count`` is a vector
    compare on the code array, and the MinHash signature hashes each dictionary
    entry once — profiling cost scales with the dictionary, not the rows.
    """
    n = len(column)
    null_count = column.null_count()
    distinct = column.unique()
    min_value = max_value = None
    if column.ctype is not CATEGORICAL and len(distinct):
        min_value = float(np.min(distinct))
        max_value = float(np.max(distinct))
    minhash_values = distinct[:max_minhash_values]
    if column.ctype is not CATEGORICAL:
        minhash_values = [f"{float(v):.6g}" for v in minhash_values]
    signature = MinHashSignature(minhash_values, num_hashes=num_hashes)
    return ColumnProfile(
        table_name=table_name,
        column_name=column.name,
        ctype=column.ctype,
        num_rows=n,
        num_distinct=len(distinct),
        null_fraction=null_count / n if n else 0.0,
        min_value=min_value,
        max_value=max_value,
        minhash=signature,
    )


def profile_table(table: Table, num_hashes: int = 64) -> dict[str, ColumnProfile]:
    """Profile every column of a table, keyed by column name."""
    return {
        col.name: profile_column(table.name, col, num_hashes=num_hashes)
        for col in table.columns()
    }


class ColumnProfileAccumulator:
    """Mergeable partial profiling state for one column, fed chunk-by-chunk.

    ``update`` folds one chunk in; ``finish`` emits a profile equal — field
    for field, signature bytes included — to :func:`profile_column` over the
    concatenated column.  Numeric distinct sets merge as sorted unions
    (``Column.unique`` is sorted for float-backed types); categorical chunks
    are remapped into one shared code space and ordered by global first
    appearance, reproducing the full column's first-appearance ``unique()``
    regardless of how rows were split into chunks.  Peak memory is one
    chunk plus the running distinct set.
    """

    def __init__(
        self,
        table_name: str,
        column_name: str,
        ctype: ColumnType,
        num_hashes: int = 64,
        max_minhash_values: int = 2000,
    ):
        self.table_name = table_name
        self.column_name = column_name
        self.ctype = ctype
        self.num_hashes = num_hashes
        self.max_minhash_values = max_minhash_values
        self.num_rows = 0
        self.null_count = 0
        self._distinct: np.ndarray | None = None  # sorted (numeric path)
        self._dict_index: dict[str, int] = {}  # shared code space (categorical)
        self._first_row: np.ndarray = np.empty(0, dtype=np.int64)

    def update(self, column: Column, row_start: int | None = None) -> None:
        """Fold one chunk in.  ``row_start`` is the chunk's global row offset
        (defaults to the rows accumulated so far, i.e. sequential feeding)."""
        if column.ctype is not self.ctype:
            raise ValueError(
                f"column {self.column_name!r} changed type across chunks "
                f"({self.ctype.value} vs {column.ctype.value})"
            )
        if row_start is None:
            row_start = self.num_rows
        self.num_rows += len(column)
        self.null_count += column.null_count()
        if self.ctype is CATEGORICAL:
            translate = remap_dictionary(column.dictionary, self._dict_index)
            if len(self._first_row) < len(self._dict_index):
                grown = np.full(len(self._dict_index), -1, dtype=np.int64)
                grown[: len(self._first_row)] = self._first_row
                self._first_row = grown
            codes = translate[column.codes]
            rows = np.flatnonzero(codes >= 0)
            if not len(rows):
                return
            # first row of each shared code in this chunk: one O(rows) pass
            first_seen = np.full(len(self._dict_index), len(codes), dtype=np.int64)
            np.minimum.at(first_seen, codes[rows], rows)
            distinct = np.flatnonzero(first_seen < len(codes))
            global_first = first_seen[distinct] + row_start
            current = self._first_row[distinct]
            unseen = current < 0
            self._first_row[distinct[unseen]] = global_first[unseen]
            improved = ~unseen & (global_first < current)
            self._first_row[distinct[improved]] = global_first[improved]
        else:
            values = column.values
            chunk_distinct = np.unique(values[~np.isnan(values)])
            if self._distinct is None:
                self._distinct = chunk_distinct
            elif len(chunk_distinct):
                self._distinct = np.union1d(self._distinct, chunk_distinct)

    def merge(self, other: "ColumnProfileAccumulator") -> None:
        """Fold another accumulator's partial state into this one.

        The other accumulator must cover a *disjoint* row range of the same
        column, fed with global ``row_start`` offsets — then merging is
        order-independent: numeric distinct sets union (sorted either way),
        categorical first-appearance rows take the minimum per value, and
        ``finish()`` equals the serial chunk-by-chunk result byte for byte.
        This is what lets discovery fan per-(table, chunk-range) shards over
        an executor pool and still produce canonical profiles.
        """
        if other.ctype is not self.ctype or other.column_name != self.column_name:
            raise ValueError(
                f"cannot merge accumulator of {other.column_name!r} "
                f"({other.ctype.value}) into {self.column_name!r} ({self.ctype.value})"
            )
        self.num_rows += other.num_rows
        self.null_count += other.null_count
        if self.ctype is CATEGORICAL:
            other_dict = np.empty(len(other._dict_index), dtype=object)
            for text, code in other._dict_index.items():
                other_dict[code] = text
            translate = remap_dictionary(other_dict, self._dict_index)
            if len(self._first_row) < len(self._dict_index):
                grown = np.full(len(self._dict_index), -1, dtype=np.int64)
                grown[: len(self._first_row)] = self._first_row
                self._first_row = grown
            seen = np.nonzero(other._first_row >= 0)[0]
            if not len(seen):
                return
            mapped = translate[seen]
            rows = other._first_row[seen]
            current = self._first_row[mapped]
            unseen = current < 0
            self._first_row[mapped[unseen]] = rows[unseen]
            improved = ~unseen & (rows < current)
            self._first_row[mapped[improved]] = rows[improved]
        else:
            if other._distinct is None:
                return
            if self._distinct is None:
                self._distinct = other._distinct
            elif len(other._distinct):
                self._distinct = np.union1d(self._distinct, other._distinct)

    def distinct_values(self) -> list | np.ndarray:
        """The merged distinct values, ordered as ``Column.unique`` would
        (a list for categoricals, the sorted array for numeric columns)."""
        if self.ctype is CATEGORICAL:
            dictionary = np.empty(len(self._dict_index), dtype=object)
            for text, code in self._dict_index.items():
                dictionary[code] = text
            seen = np.nonzero(self._first_row >= 0)[0]
            order = np.argsort(self._first_row[seen], kind="stable")
            return [dictionary[code] for code in seen[order]]
        if self._distinct is None:
            return []
        return self._distinct

    def finish(self) -> ColumnProfile:
        """Emit the profile of everything folded in so far."""
        distinct = self.distinct_values()
        min_value = max_value = None
        if self.ctype is not CATEGORICAL and len(distinct):
            min_value = float(np.min(distinct))
            max_value = float(np.max(distinct))
        minhash_values = distinct[: self.max_minhash_values]
        if self.ctype is not CATEGORICAL:
            minhash_values = [f"{float(v):.6g}" for v in minhash_values]
        signature = MinHashSignature(minhash_values, num_hashes=self.num_hashes)
        return ColumnProfile(
            table_name=self.table_name,
            column_name=self.column_name,
            ctype=self.ctype,
            num_rows=self.num_rows,
            num_distinct=len(distinct),
            null_fraction=self.null_count / self.num_rows if self.num_rows else 0.0,
            min_value=min_value,
            max_value=max_value,
            minhash=signature,
        )


def profile_shard(
    path,
    table_name: str,
    chunk_lo: int,
    chunk_hi: int,
    num_hashes: int = 64,
    mmap: bool = True,
) -> tuple[str | None, dict[str, ColumnProfileAccumulator]]:
    """Profile one contiguous chunk range ``[chunk_lo, chunk_hi)`` of a table
    file into per-column accumulators.

    Module-level and picklable so it can run as a process-pool job: each shard
    opens its own reader, feeds accumulators with *global* row offsets (from
    ``chunk_row_range``), and returns them with the file's fingerprint.  Any
    subset of a table's chunks, profiled in any order across any number of
    shards and merged with :meth:`ColumnProfileAccumulator.merge`, finishes to
    the same profiles the serial pass produces.
    """
    from repro.relational.persist import ChunkedTableReader

    reader = ChunkedTableReader(path, mmap=mmap)
    schema = reader.schema()
    accumulators = {
        spec.name: ColumnProfileAccumulator(
            table_name, spec.name, spec.ctype, num_hashes=num_hashes
        )
        for spec in schema
    }
    for index in range(chunk_lo, chunk_hi):
        row_start, _ = reader.chunk_row_range(index)
        chunk = reader.chunk(index)
        for name, accumulator in accumulators.items():
            accumulator.update(chunk.column(name), row_start)
    return reader.header.fingerprint, accumulators


def profile_table_chunks(source, num_hashes: int = 64) -> dict[str, ColumnProfile]:
    """Profile a chunked source column-by-column without materialising it.

    ``source`` is a :class:`~repro.relational.persist.ChunkedTableReader` (or
    anything with ``iter_chunks``/``schema``/``name``).  Returns profiles
    identical to ``profile_table(source.table())`` while holding one chunk at
    a time.
    """
    from repro.relational.join import as_chunk_source

    source = as_chunk_source(source)
    schema = source.schema()
    accumulators = {
        spec.name: ColumnProfileAccumulator(
            source.name, spec.name, spec.ctype, num_hashes=num_hashes
        )
        for spec in schema
    }
    row_start = 0
    for chunk in source.iter_chunks():
        for name, accumulator in accumulators.items():
            accumulator.update(chunk.column(name), row_start)
        row_start += chunk.num_rows
    return {name: accumulator.finish() for name, accumulator in accumulators.items()}
