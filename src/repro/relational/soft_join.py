"""Soft joins on keys that do not align exactly (e.g. timestamps, GPS, age).

Two strategies from the paper (section 4):

* **Nearest-neighbour join** — each base-table key matches the closest foreign
  key value; an optional tolerance turns distant matches into NULLs.
* **Two-way nearest-neighbour join** — each base-table key is bracketed by the
  closest foreign key below and above it, and the two foreign rows are blended
  by linear interpolation (numeric columns) or a deterministic pick
  (categorical columns) weighted by how close each bracket is.

Both share one vectorised bracket search: the foreign keys are sorted once and
a single ``searchsorted`` brackets every base key, so no row loops in Python.
"""

from __future__ import annotations

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table, unique_name


def _bracket(left: Table, right: Table, left_key: str, right_key: str) -> tuple:
    """Each left key's closest non-missing right keys below and above it.

    Returns ``(matched, x, low_keys, high_keys, low_rows, high_rows)``:
    ``matched`` marks the left rows with a non-missing key when the right
    side has one too, and the other arrays hold, for those rows only, the
    left key, the two bracketing right keys and their right row indices.  A
    key outside the right key range takes the nearest end as both brackets.
    """
    left_col, right_col = left.column(left_key), right.column(right_key)
    if left_col.ctype is CATEGORICAL or right_col.ctype is CATEGORICAL:
        raise ValueError("soft joins require a numeric or datetime key")
    keys = right_col.values
    rows = np.flatnonzero(~np.isnan(keys))
    rows = rows[np.argsort(keys[rows], kind="stable")]
    x = left_col.values.astype(np.float64)
    matched = ~np.isnan(x) & (len(rows) > 0)
    x = x[matched]
    position = np.searchsorted(keys[rows], x)
    low = rows[np.maximum(position - 1, 0)]
    high = rows[np.minimum(position, len(rows) - 1)]
    return matched, x, keys[low], keys[high], low, high


def _joined(left: Table, right: Table, right_key: str, suffix: str, matched, gather) -> Table:
    """``left`` plus every non-key column of ``right``, missing where unmatched.

    ``gather(column)`` returns a right column's values (codes, if categorical)
    for the ``matched`` rows; it runs once per column, in column order, and
    only when some row matched.
    """
    out_columns = list(left.columns())
    existing = set(left.column_names)
    for col in right.columns():
        if col.name == right_key:
            continue
        name = unique_name(col.name, existing, suffix)
        existing.add(name)
        categorical = col.ctype is CATEGORICAL
        data = np.full(left.num_rows, -1 if categorical else np.nan,
                       dtype=np.int32 if categorical else np.float64)
        if matched.any():
            data[matched] = gather(col)
        out_columns.append(
            Column.from_codes(name, data, col.dictionary)
            if categorical
            else Column.from_array(name, data, col.ctype)
        )
    return Table(out_columns, name=left.name)


def nearest_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    tolerance: float | None = None,
    suffix: str = "_r",
) -> Table:
    """Join each left row with the right row whose key value is closest.

    A tie goes to the upper key.  If ``tolerance`` is given and the nearest
    right key is farther than that, the row is left unmatched (NULLs),
    mirroring the paper's tolerance threshold behaviour.
    """
    matched, x, low_keys, high_keys, low, high = _bracket(left, right, left_key, right_key)
    low_dist, high_dist = np.abs(low_keys - x), np.abs(high_keys - x)
    use_low = low_dist < high_dist
    rows = np.where(use_low, low, high)
    if tolerance is not None:
        near = np.where(use_low, low_dist, high_dist) <= tolerance
        matched[matched] = near
        rows = rows[near]
    return _joined(
        left, right, right_key, suffix, matched,
        lambda col: (col.codes if col.ctype is CATEGORICAL else col.values)[rows],
    )


def two_way_nearest_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    suffix: str = "_r",
    rng: np.random.Generator | None = None,
) -> Table:
    """Join each left row with an interpolation of its two bracketing right rows.

    For a left key value ``x`` bracketed by right keys ``y_low <= x <= y_high``
    the numeric columns of the two right rows are blended as
    ``lambda * row_low + (1 - lambda) * row_high`` with
    ``x = lambda * y_low + (1 - lambda) * y_high``.  Categorical columns pick
    one of the two values at random with probability proportional to lambda:
    each draws ``rng.random(len(left))``, and a row takes the lower bracket
    where its draw is below lambda.  Left keys outside the right key range
    fall back to the single nearest row.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matched, x, low_keys, high_keys, low, high = _bracket(left, right, left_key, right_key)
    with np.errstate(divide="ignore", invalid="ignore"):
        # x = lam * y_low + (1 - lam) * y_high  =>  lam = (y_high - x) / (y_high - y_low)
        ratio = np.clip((high_keys - x) / (high_keys - low_keys), 0.0, 1.0)
    lam = np.where(high_keys == low_keys, 1.0, ratio)

    def blend(col: Column) -> np.ndarray:
        if col.ctype is CATEGORICAL:
            picks = rng.random(left.num_rows)[matched] < lam
            return col.codes[np.where(picks, low, high)]
        low_vals, high_vals = col.values[low], col.values[high]
        mixed = lam * low_vals + (1.0 - lam) * high_vals
        # if one side is missing, fall back to the other
        mixed = np.where(np.isnan(low_vals), high_vals, mixed)
        return np.where(np.isnan(high_vals), low_vals, mixed)

    return _joined(left, right, right_key, suffix, matched, blend)
