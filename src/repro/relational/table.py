"""The Table class: an ordered collection of equal-length typed columns."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.relational.column import Column, checked_indices, concat_columns
from repro.relational.schema import (
    CATEGORICAL,
    ColumnSpec,
    ColumnType,
    Schema,
)


def unique_name(name: str, existing: set[str], suffix: str = "_r") -> str:
    """Append ``suffix`` to ``name`` until it no longer clashes with ``existing``.

    The single source of truth for column-name collision handling, shared by
    joins, ``hstack`` and the batch-merge in the join layer so all of them
    assign the same final names.
    """
    while name in existing:
        name = name + suffix
    return name


class Table:
    """An immutable-by-convention columnar table.

    Tables are the unit of data exchanged between ARDA components: the user's
    base table, every candidate table in the repository, and the augmented
    output are all :class:`Table` instances.  Mutating operations return new
    tables; the underlying column arrays may be shared.
    """

    def __init__(self, columns: Sequence[Column], name: str = ""):
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns have inconsistent lengths: {sorted(lengths)}")
        names = [col.name for col in columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in table")
        self._columns: dict[str, Column] = {col.name: col for col in columns}
        self.name = name

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        types: Mapping[str, ColumnType] | None = None,
        name: str = "",
    ) -> "Table":
        """Build a table from a mapping of column name to values.

        ``types`` optionally pins the logical type of specific columns; other
        columns get their type inferred from their values.
        """
        types = dict(types or {})
        columns = [
            Column(col_name, values, types.get(col_name))
            for col_name, values in data.items()
        ]
        return cls(columns, name=name)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, object]],
        types: Mapping[str, ColumnType] | None = None,
        name: str = "",
    ) -> "Table":
        """Build a table from a list of row dictionaries."""
        if not rows:
            return cls([], name=name)
        col_names: list[str] = []
        for row in rows:
            for key in row:
                if key not in col_names:
                    col_names.append(key)
        data = {key: [row.get(key) for row in rows] for key in col_names}
        return cls.from_dict(data, types=types, name=name)

    @classmethod
    def empty_like(cls, other: "Table", name: str = "") -> "Table":
        """An empty table with the same schema as ``other``."""
        columns = [
            Column(col.name, [], col.ctype) for col in other.columns()
        ]
        return cls(columns, name=name or other.name)

    # -- basic protocol ---------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns)."""
        return (self.num_rows, self.num_columns)

    def schema(self) -> Schema:
        """The table schema."""
        return Schema([ColumnSpec(c.name, c.ctype) for c in self._columns.values()])

    def columns(self) -> list[Column]:
        """The columns in order."""
        return list(self._columns.values())

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r}; "
                f"available: {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self.column(n) == other.column(n) for n in self.column_names)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.num_columns})"

    # -- row access -------------------------------------------------------------

    def row(self, index: int) -> dict:
        """Return a single row as a dictionary."""
        return {name: col.value_at(index) for name, col in self._columns.items()}

    def iter_rows(self) -> Iterable[dict]:
        """Iterate over rows as dictionaries."""
        for i in range(self.num_rows):
            yield self.row(i)

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    # -- column-level operations --------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto a subset of columns, in the given order."""
        return Table([self.column(n) for n in names], name=self.name)

    def drop(self, names: Sequence[str] | str) -> "Table":
        """Remove the given columns."""
        if isinstance(names, str):
            names = [names]
        drop_set = set(names)
        missing = drop_set - set(self.column_names)
        if missing:
            raise KeyError(f"cannot drop missing columns: {sorted(missing)}")
        keep = [c for c in self.columns() if c.name not in drop_set]
        return Table(keep, name=self.name)

    def with_column(self, column: Column) -> "Table":
        """Add or replace a column."""
        if self._columns and len(column) != self.num_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, table has {self.num_rows}"
            )
        columns = [c for c in self.columns() if c.name != column.name]
        columns.append(column)
        return Table(columns, name=self.name)

    def rename_columns(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns according to ``mapping`` (old name -> new name)."""
        columns = [
            col.rename(mapping.get(col.name, col.name)) for col in self.columns()
        ]
        return Table(columns, name=self.name)

    def prefix_columns(self, prefix: str, exclude: Sequence[str] = ()) -> "Table":
        """Prefix every column name except the excluded ones."""
        exclude_set = set(exclude)
        mapping = {
            name: f"{prefix}{name}"
            for name in self.column_names
            if name not in exclude_set
        }
        return self.rename_columns(mapping)

    def rename(self, name: str) -> "Table":
        """Return the same table under a different table name."""
        table = Table(self.columns(), name=name)
        return table

    # -- row-level operations ------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Select rows by integer position (supports repeats and reordering).

        Returns an index-backed view: every column defers its gather until the
        data is read, so coreset sampling and batch-join probing never copy
        feature columns they do not touch.
        """
        if self._columns:
            indices = checked_indices(indices, self.num_rows)
        return Table([col._view(indices) for col in self.columns()], name=self.name)

    def filter(self, mask: np.ndarray) -> "Table":
        """Select rows where ``mask`` is True (lazy, like :meth:`take`)."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows:
            raise ValueError("mask length does not match row count")
        indices = np.nonzero(mask)[0]
        return Table([col._view(indices) for col in self.columns()], name=self.name)

    def sort_by(self, name: str, descending: bool = False) -> "Table":
        """Sort rows by one column (missing values last)."""
        col = self.column(name)
        if col.ctype is CATEGORICAL:
            # rank the dictionary entries once (plus a max-codepoint sentinel
            # that keeps missing values sorting last, as the object-array
            # representation did) and argsort the per-row ranks
            dictionary = col.dictionary
            extended = np.empty(len(dictionary) + 1, dtype=object)
            extended[: len(dictionary)] = dictionary
            extended[len(dictionary)] = "￿"
            _, ranks = np.unique(extended, return_inverse=True)
            keys = ranks[col.codes]
            order = np.argsort(keys, kind="stable")
        else:
            order = np.argsort(col.values, kind="stable")
            nan_mask = np.isnan(col.values[order])
            order = np.concatenate([order[~nan_mask], order[nan_mask]])
        if descending:
            order = order[::-1]
        return self.take(order)

    def concat_rows(self, other: "Table") -> "Table":
        """Vertically stack another table with the same schema."""
        if self.column_names != other.column_names:
            raise ValueError("cannot concat tables with different columns")
        columns = [
            concat_columns([self.column(n), other.column(n)])
            for n in self.column_names
        ]
        return Table(columns, name=self.name)

    def hstack(self, other: "Table", suffix: str = "_r") -> "Table":
        """Horizontally stack another table with the same number of rows.

        Clashing column names from ``other`` get ``suffix`` appended.
        """
        if other.num_rows != self.num_rows:
            raise ValueError("cannot hstack tables with different row counts")
        columns = self.columns()
        existing = set(self.column_names)
        for col in other.columns():
            name = unique_name(col.name, existing, suffix)
            existing.add(name)
            columns.append(col.rename(name))
        return Table(columns, name=self.name)

    # -- persistence -----------------------------------------------------------------

    def save(self, path):
        """Write this table to ``path`` in the native binary columnar format.

        The write is atomic (temp file + ``os.replace``).  Returns the written
        :class:`~repro.relational.persist.TableHeader`, whose ``fingerprint``
        keys persisted column profiles.  See :mod:`repro.relational.persist`
        for the file layout.
        """
        from repro.relational.persist import write_table

        return write_table(self, path)

    @classmethod
    def load(cls, path, mmap: bool = True) -> "Table":
        """Load a table written by :meth:`save`.

        With ``mmap=True`` (default) a one-chunk file's numeric and
        dictionary-code buffers come back as copy-on-write memory maps: only
        the header and string dictionaries are read eagerly, row data is
        paged in on first access.
        """
        from repro.relational.persist import read_table

        return read_table(path, mmap=mmap)

    # -- conversion ------------------------------------------------------------------

    def to_dict(self) -> dict[str, list]:
        """Convert to a plain dict of lists."""
        return {name: col.to_list() for name, col in self._columns.items()}

    def numeric_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack float-backed columns into an ``(n_rows, n_cols)`` matrix."""
        if names is None:
            names = [c.name for c in self.columns() if c.ctype.is_float_backed]
        arrays = []
        for name in names:
            col = self.column(name)
            if not col.ctype.is_float_backed:
                raise ValueError(f"column {name!r} is categorical, not numeric")
            arrays.append(col.values)
        if not arrays:
            return np.empty((self.num_rows, 0), dtype=np.float64)
        return np.column_stack(arrays)

    def copy(self) -> "Table":
        """Deep copy of the table."""
        return Table([col.copy() for col in self.columns()], name=self.name)
