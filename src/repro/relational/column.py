"""Typed, nullable columns backed by numpy arrays.

Storage layout (the columnar core of the engine):

* Numeric, datetime and boolean columns store values in a ``float64`` array
  with ``NaN`` marking missing entries.
* Categorical columns are **dictionary encoded**: values live in an ``int32``
  code array (``-1`` marking missing entries) plus a shared object array of
  distinct strings (the dictionary, in first-appearance order).  The decoded
  object array of the old representation is only materialised on demand (and
  cached) when a consumer asks for :attr:`Column.values`; code-aware consumers
  (joins, group-by, encoding, profiling) never pay for it.
* ``take``/``filter`` return **lazy views**: the new column records the backing
  array and the row indices and defers the gather until the data is actually
  accessed.  Chained views compose their index arrays, so a coreset sample of
  a sorted selection still resolves with a single gather per touched column.
"""

from __future__ import annotations

import datetime as _dt
from typing import Sequence

import numpy as np

from repro.relational.schema import (
    BOOLEAN,
    CATEGORICAL,
    DATETIME,
    NUMERIC,
    ColumnType,
)

_EPOCH = _dt.datetime(1970, 1, 1)


def _to_epoch_seconds(value) -> float:
    """Convert a datetime-like value to float epoch seconds."""
    if value is None:
        return float("nan")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, _dt.datetime):
        return (value - _EPOCH).total_seconds()
    if isinstance(value, _dt.date):
        return (_dt.datetime(value.year, value.month, value.day) - _EPOCH).total_seconds()
    if isinstance(value, str):
        return (_dt.datetime.fromisoformat(value) - _EPOCH).total_seconds()
    raise TypeError(f"cannot interpret {value!r} as a datetime")


def encode_categorical_values(values) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode raw values into ``(int32 codes, object dictionary)``.

    Missing entries (``None`` / ``NaN``) become code ``-1``; everything else is
    coerced to ``str``.  The dictionary lists distinct values in first-appearance
    order, matching the order the old object-array representation reported from
    :meth:`Column.unique`.
    """
    codes = np.empty(len(values), dtype=np.int32)
    index: dict[str, int] = {}
    dictionary: list[str] = []
    for i, value in enumerate(values):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            codes[i] = -1
            continue
        text = str(value)
        code = index.get(text)
        if code is None:
            code = len(dictionary)
            index[text] = code
            dictionary.append(text)
        codes[i] = code
    return codes, np.array(dictionary, dtype=object)


class Column:
    """A single named, typed, nullable column of values.

    See the module docstring for the storage layout.  All reading accessors
    (:attr:`values`, :attr:`codes`, :meth:`unique`, ...) behave exactly as they
    did under the eager object-array representation; the dictionary encoding
    and view laziness are implementation details that only show up as speed.
    """

    __slots__ = ("name", "ctype", "_data", "_codes", "_dictionary", "_dict_exact", "_pending")

    def __init__(self, name: str, values, ctype: ColumnType | None = None):
        self.name = name
        if ctype is None:
            ctype = infer_type(values)
        self.ctype = ctype
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._data: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._dictionary: np.ndarray | None = None
        self._dict_exact = False
        if ctype is CATEGORICAL:
            self._codes, self._dictionary = encode_categorical_values(values)
            self._dict_exact = True
        else:
            self._data = _coerce_float(values, ctype)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def numeric(cls, name: str, values) -> "Column":
        """Build a numeric column."""
        return cls(name, values, NUMERIC)

    @classmethod
    def categorical(cls, name: str, values) -> "Column":
        """Build a categorical (string) column."""
        return cls(name, values, CATEGORICAL)

    @classmethod
    def datetime(cls, name: str, values) -> "Column":
        """Build a datetime column (stored as epoch seconds)."""
        return cls(name, values, DATETIME)

    @classmethod
    def boolean(cls, name: str, values) -> "Column":
        """Build a boolean column (stored as 0.0/1.0)."""
        return cls(name, values, BOOLEAN)

    @classmethod
    def from_array(cls, name: str, data: np.ndarray, ctype: ColumnType) -> "Column":
        """Wrap an already-coerced array without copying or re-validating.

        Float-backed arrays are adopted as-is.  A categorical object array is
        dictionary-encoded on the way in (the object array itself is dropped).
        """
        if ctype is CATEGORICAL:
            codes, dictionary = encode_categorical_values(data)
            return cls.from_codes(name, codes, dictionary, dict_exact=True)
        col = cls.__new__(cls)
        col.name = name
        col.ctype = ctype
        col._pending = None
        col._data = data
        col._codes = None
        col._dictionary = None
        col._dict_exact = False
        return col

    @classmethod
    def from_codes(
        cls,
        name: str,
        codes: np.ndarray,
        dictionary: np.ndarray,
        dict_exact: bool = False,
    ) -> "Column":
        """Wrap an ``int32`` code array plus dictionary as a categorical column.

        ``dict_exact`` asserts that every dictionary entry occurs at least once
        in ``codes`` *and* the dictionary is in first-appearance order, enabling
        the O(1) :meth:`unique` fast path.
        """
        col = cls.__new__(cls)
        col.name = name
        col.ctype = CATEGORICAL
        col._pending = None
        col._data = None
        col._codes = np.asarray(codes, dtype=np.int32)
        col._dictionary = np.asarray(dictionary, dtype=object)
        col._dict_exact = bool(dict_exact)
        return col

    # -- basic protocol -------------------------------------------------------

    def _resolve(self) -> None:
        """Materialise a lazy view into a concrete backing array.

        Thread-safety: the resolved array is published *before* ``_pending``
        is cleared, so a concurrent reader that observes ``_pending is None``
        always finds the data in place (thread-pool join workers share the
        base view's columns).  Two racing threads may both gather; the results
        are identical and the last store wins.
        """
        pending = self._pending
        if pending is None:
            return
        base, indices = pending
        if self.ctype is CATEGORICAL:
            self._codes = base[indices]
        else:
            self._data = base[indices]
        self._pending = None

    @property
    def is_view(self) -> bool:
        """Whether this column is an unresolved lazy view (no data copied yet)."""
        return self._pending is not None

    @property
    def values(self) -> np.ndarray:
        """The backing array (float64), or the decoded object array for categoricals.

        For categorical columns the decode is performed lazily on first access
        and cached; code-aware consumers should prefer :attr:`codes`.
        """
        if self.ctype is CATEGORICAL:
            if self._data is None:
                codes = self.codes
                out = np.empty(len(codes), dtype=object)
                valid = codes >= 0
                if valid.any():
                    out[valid] = self._dictionary[codes[valid]]
                self._data = out
            return self._data
        self._resolve()
        return self._data

    @property
    def codes(self) -> np.ndarray:
        """The ``int32`` dictionary codes of a categorical column (-1 = missing)."""
        if self.ctype is not CATEGORICAL:
            raise TypeError(f"column {self.name!r} is {self.ctype.value}, not categorical")
        self._resolve()
        return self._codes

    @property
    def dictionary(self) -> np.ndarray:
        """The shared dictionary (object array of distinct strings)."""
        if self.ctype is not CATEGORICAL:
            raise TypeError(f"column {self.name!r} is {self.ctype.value}, not categorical")
        return self._dictionary

    @property
    def dictionary_is_exact(self) -> bool:
        """Whether the dictionary is first-appearance-ordered with no unused entries.

        Persisted so that a reloaded column keeps the O(1) :meth:`unique` fast
        path exactly when the original column had it.
        """
        if self.ctype is not CATEGORICAL:
            raise TypeError(f"column {self.name!r} is {self.ctype.value}, not categorical")
        return self._dict_exact

    def value_at(self, index: int):
        """One value by row position without decoding the whole column."""
        if self.ctype is CATEGORICAL:
            self._resolve()
            code = self._codes[index]
            return None if code < 0 else self._dictionary[code]
        self._resolve()
        return self._data[index]

    def __len__(self) -> int:
        pending = self._pending  # local snapshot: a concurrent _resolve may clear it
        if pending is not None:
            return len(pending[1])
        if self.ctype is CATEGORICAL:
            return len(self._codes)
        return len(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.ctype != other.ctype:
            return False
        if len(self) != len(other):
            return False
        if self.ctype is CATEGORICAL:
            if self._dictionary is other._dictionary or np.array_equal(
                self._dictionary, other._dictionary
            ):
                return bool(np.array_equal(self.codes, other.codes))
            return bool(np.array_equal(self.values, other.values))
        a, b = self.values, other.values
        both_nan = np.isnan(a) & np.isnan(b)
        return bool(np.all(both_nan | (a == b)))

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"

    # -- pickling -------------------------------------------------------------
    # A view resolves before pickling (only the selected rows travel) and a
    # categorical column ships its code array + dictionary, never the decoded
    # object array — this is what keeps the process-pool join backend cheap.
    # When the dictionary outnumbers the rows (a narrow view of a
    # high-cardinality column), it is compacted to the referenced entries so a
    # coreset projection of an ID column doesn't drag the full-table
    # dictionary through the pipe.

    def __getstate__(self):
        if self.ctype is not CATEGORICAL:
            return (self.name, self.ctype, self.values, None, None, False)
        codes = self.codes
        dictionary = self._dictionary
        if len(dictionary) > len(codes):
            present = np.unique(codes)
            present = present[present >= 0]
            translate = np.full(len(dictionary) + 1, -1, dtype=np.int32)
            translate[present] = np.arange(len(present), dtype=np.int32)
            codes = translate[codes]
            dictionary = dictionary[present]
            return (self.name, self.ctype, None, codes, dictionary, False)
        return (self.name, self.ctype, None, codes, dictionary, self._dict_exact)

    def __setstate__(self, state):
        self.name, self.ctype, self._data, self._codes, self._dictionary, self._dict_exact = state
        self._pending = None

    # -- missing values -------------------------------------------------------

    def missing_mask(self) -> np.ndarray:
        """Boolean mask that is True where the value is missing."""
        if self.ctype is CATEGORICAL:
            return self.codes < 0
        return np.isnan(self.values)

    def null_count(self) -> int:
        """Number of missing entries."""
        return int(self.missing_mask().sum())

    # -- transforms ------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Select rows by integer position (supports repeats).

        Returns a lazy view: no column data is copied until the result is read.
        """
        return self._view(checked_indices(indices, len(self)))

    def _view(self, indices: np.ndarray) -> "Column":
        """The lazy view of rows ``indices``, already checked against this
        column's length (a table checks once for all its columns)."""
        pending = self._pending  # local snapshot: a concurrent _resolve may clear it
        if pending is not None:
            base, base_indices = pending
            indices = base_indices[indices]
        else:
            base = self._codes if self.ctype is CATEGORICAL else self._data
        col = Column.__new__(Column)
        col.name = self.name
        col.ctype = self.ctype
        col._pending = (base, indices)
        col._data = None
        col._codes = None
        col._dictionary = self._dictionary
        col._dict_exact = False
        return col

    def filter(self, mask: np.ndarray) -> "Column":
        """Select rows where ``mask`` is True (lazy, like :meth:`take`)."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError("mask length does not match column length")
        return self.take(np.nonzero(mask)[0])

    def rename(self, new_name: str) -> "Column":
        """Return this column under a new name, sharing all backing data."""
        col = Column.__new__(Column)
        col.name = new_name
        col.ctype = self.ctype
        col._pending = self._pending
        col._data = self._data
        col._codes = self._codes
        col._dictionary = self._dictionary
        col._dict_exact = self._dict_exact
        return col

    def copy(self) -> "Column":
        """Deep copy of the column."""
        self._resolve()
        if self.ctype is CATEGORICAL:
            return Column.from_codes(
                self.name, self._codes.copy(), self._dictionary.copy(), self._dict_exact
            )
        return Column.from_array(self.name, self._data.copy(), self.ctype)

    def unique(self) -> list:
        """Distinct non-missing values (first-appearance order for categorical)."""
        if self.ctype is CATEGORICAL:
            if self._dict_exact:
                return list(self._dictionary)
            codes = self.codes
            present = codes[codes >= 0]
            if not len(present):
                return []
            distinct, first_seen = np.unique(present, return_index=True)
            order = np.argsort(first_seen, kind="stable")
            return [self._dictionary[code] for code in distinct[order]]
        data = self.values
        data = data[~np.isnan(data)]
        return list(np.unique(data))

    def to_list(self) -> list:
        """Values as a plain Python list (missing numeric values stay NaN)."""
        return list(self.values)

    def cast(self, ctype: ColumnType) -> "Column":
        """Return a copy coerced to a different logical type."""
        return Column(self.name, self.to_list(), ctype)


def infer_type(values) -> ColumnType:
    """Infer the logical type of a sequence of raw Python values."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return NUMERIC
    if isinstance(values, np.ndarray) and values.dtype.kind == "b":
        return BOOLEAN
    saw_bool = saw_number = saw_datetime = saw_string = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool) or isinstance(value, np.bool_):
            saw_bool = True
        elif isinstance(value, (int, float, np.integer, np.floating)):
            if isinstance(value, float) and np.isnan(value):
                continue
            saw_number = True
        elif isinstance(value, (_dt.date, _dt.datetime)):
            saw_datetime = True
        else:
            saw_string = True
    if saw_string:
        return CATEGORICAL
    if saw_datetime:
        return DATETIME
    if saw_bool and not saw_number:
        return BOOLEAN
    return NUMERIC


def _coerce_float(values, ctype: ColumnType) -> np.ndarray:
    """Coerce raw values into the float64 backing array for ``ctype``."""
    if ctype is DATETIME:
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            return values.astype(np.float64)
        return np.array([_to_epoch_seconds(v) for v in values], dtype=np.float64)
    # numeric / boolean
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiub":
        return values.astype(np.float64)
    out = np.empty(len(values), dtype=np.float64)
    for i, value in enumerate(values):
        if value is None:
            out[i] = np.nan
        elif isinstance(value, str):
            out[i] = float(value) if value.strip() else np.nan
        else:
            out[i] = float(value)
    return out


def checked_indices(indices, n: int) -> np.ndarray:
    """``indices`` as an integer array of positions into ``n`` rows.

    Checked eagerly: a view defers its gather, so numpy's own bounds error
    would otherwise surface far from the faulty call site.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise TypeError("take() requires integer indices")
    if len(indices) and (int(indices.min()) < -n or int(indices.max()) >= n):
        raise IndexError(f"take() index out of bounds for column of length {n}")
    return indices


def remap_dictionary(dictionary: np.ndarray, index: dict[str, int], grow: bool = True) -> np.ndarray:
    """Translation table from one dictionary's codes into a shared code space.

    ``index`` maps already-assigned strings to their shared codes and is
    extended in place for unseen entries when ``grow`` is True (unseen entries
    map to ``-1`` otherwise).  The returned ``int32`` array has one extra slot
    so that indexing it with code ``-1`` yields ``-1`` (missing stays missing).
    """
    remap = np.empty(len(dictionary) + 1, dtype=np.int32)
    remap[len(dictionary)] = -1
    for j, text in enumerate(dictionary):
        code = index.get(text)
        if code is None:
            if grow:
                code = len(index)
                index[text] = code
            else:
                code = -1
        remap[j] = code
    return remap


def concat_columns(columns: Sequence[Column]) -> Column:
    """Vertically concatenate columns that share a name and type."""
    if not columns:
        raise ValueError("cannot concatenate an empty sequence of columns")
    first = columns[0]
    for col in columns[1:]:
        if col.ctype is not first.ctype:
            raise ValueError("cannot concatenate columns of different types")
    if first.ctype is CATEGORICAL:
        exact = all(col._dict_exact for col in columns)
        if all(col.dictionary is first.dictionary for col in columns):
            # chunks of one file or slices of one column: no code moves
            codes = np.concatenate([col.codes for col in columns])
            return Column.from_codes(first.name, codes, first.dictionary, dict_exact=exact)
        index: dict[str, int] = {}
        parts = [remap_dictionary(col.dictionary, index)[col.codes] for col in columns]
        merged = np.empty(len(index), dtype=object)
        for text, code in index.items():
            merged[code] = text
        return Column.from_codes(first.name, np.concatenate(parts), merged, dict_exact=exact)
    data = np.concatenate([col.values for col in columns])
    return Column.from_array(first.name, data, first.ctype)
