"""The per-row soft-join kernels: the vectorised soft joins' reference.

This is how :mod:`repro.relational.soft_join` joined before both strategies
shared one vectorised bracket search: :func:`nearest_join` searched the
sorted right keys and compared the two neighbours, and
:func:`two_way_nearest_join` visited every left row in Python to find its
bracket and interpolation weight.  The kernels share no code with the module
they check; tests join tables both ways and require identical bytes.  Like
the originals, they check only the base key's type: a categorical foreign
key fails inside numpy.
"""

from __future__ import annotations

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table, unique_name


def _sorted_right(right: Table, right_key: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted non-missing right key values and their original row indices."""
    key_values = right.column(right_key).values
    valid = ~np.isnan(key_values)
    values = key_values[valid]
    indices = np.nonzero(valid)[0]
    order = np.argsort(values, kind="stable")
    return values[order], indices[order]


def nearest_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    tolerance: float | None = None,
    suffix: str = "_r",
) -> Table:
    """Join each left row with the right row whose key value is closest.

    If ``tolerance`` is given and the nearest right key is farther than that,
    the row is left unmatched (NULLs), mirroring the paper's tolerance
    threshold behaviour.
    """
    left_values = left.column(left_key).values.astype(np.float64)
    if left.column(left_key).ctype is CATEGORICAL:
        raise ValueError("soft joins require a numeric or datetime key")
    sorted_values, sorted_indices = _sorted_right(right, right_key)
    n = left.num_rows
    match_index = np.full(n, -1, dtype=np.int64)
    if len(sorted_values):
        positions = np.searchsorted(sorted_values, left_values)
        positions = np.clip(positions, 0, len(sorted_values) - 1)
        lower = np.clip(positions - 1, 0, len(sorted_values) - 1)
        dist_at = np.abs(sorted_values[positions] - left_values)
        dist_lower = np.abs(sorted_values[lower] - left_values)
        use_lower = dist_lower < dist_at
        best = np.where(use_lower, lower, positions)
        best_dist = np.where(use_lower, dist_lower, dist_at)
        ok = ~np.isnan(left_values)
        if tolerance is not None:
            ok &= best_dist <= tolerance
        match_index[ok] = sorted_indices[best[ok]]
    matched = match_index >= 0

    out_columns = list(left.columns())
    existing = set(left.column_names)
    for col in right.columns():
        if col.name == right_key:
            continue
        name = unique_name(col.name, existing, suffix)
        existing.add(name)
        if col.ctype is CATEGORICAL:
            codes = np.full(n, -1, dtype=np.int32)
            if matched.any():
                codes[matched] = col.codes[match_index[matched]]
            out_columns.append(Column.from_codes(name, codes, col.dictionary))
        else:
            data = np.full(n, np.nan, dtype=np.float64)
            if matched.any():
                data[matched] = col.values[match_index[matched]]
            out_columns.append(Column.from_array(name, data, col.ctype))
    return Table(out_columns, name=left.name)


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
    one of the two values at random with probability proportional to lambda.
    Left keys outside the right key range fall back to the single nearest row.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    left_col = left.column(left_key)
    if left_col.ctype is CATEGORICAL:
        raise ValueError("soft joins require a numeric or datetime key")
    left_values = left_col.values.astype(np.float64)
    sorted_values, sorted_indices = _sorted_right(right, right_key)
    n = left.num_rows

    low_index = np.full(n, -1, dtype=np.int64)
    high_index = np.full(n, -1, dtype=np.int64)
    lam = np.full(n, 1.0, dtype=np.float64)
    if len(sorted_values):
        pos = np.searchsorted(sorted_values, left_values, side="left")
        for i in range(n):
            x = left_values[i]
            if np.isnan(x):
                continue
            hi = min(pos[i], len(sorted_values) - 1)
            lo = max(pos[i] - 1, 0)
            y_low, y_high = sorted_values[lo], sorted_values[hi]
            low_index[i] = sorted_indices[lo]
            high_index[i] = sorted_indices[hi]
            if y_high == y_low:
                lam[i] = 1.0
            else:
                # x = lam * y_low + (1 - lam) * y_high  =>  lam = (y_high - x) / (y_high - y_low)
                lam[i] = float(np.clip((y_high - x) / (y_high - y_low), 0.0, 1.0))
    matched = low_index >= 0

    out_columns = list(left.columns())
    existing = set(left.column_names)
    for col in right.columns():
        if col.name == right_key:
            continue
        name = unique_name(col.name, existing, suffix)
        existing.add(name)
        if col.ctype is CATEGORICAL:
            codes = np.full(n, -1, dtype=np.int32)
            if matched.any():
                picks = rng.random(n) < lam
                chosen = np.where(picks, low_index, high_index)
                codes[matched] = col.codes[chosen[matched]]
            out_columns.append(Column.from_codes(name, codes, col.dictionary))
        else:
            data = np.full(n, np.nan, dtype=np.float64)
            if matched.any():
                low_vals = col.values[low_index[matched]]
                high_vals = col.values[high_index[matched]]
                blend = lam[matched] * low_vals + (1.0 - lam[matched]) * high_vals
                # if one side is missing, fall back to the other
                blend = np.where(np.isnan(low_vals), high_vals, blend)
                blend = np.where(np.isnan(high_vals), low_vals, blend)
                data[matched] = blend
            out_columns.append(Column.from_array(name, data, col.ctype))
    return Table(out_columns, name=left.name)
