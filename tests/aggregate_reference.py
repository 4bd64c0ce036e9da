"""Per-group Python loop: the segment kernels' reference.

This is how :func:`repro.relational.aggregate.group_by_aggregate` aggregated
before its segment kernels: the rows are sorted by group once, and then each
group's slice goes through one numpy nan-aggregate call per column (numeric)
or one counting loop (categorical).  Tests aggregate a table both ways and
require every output column to match byte for byte, so they also pin numpy's
summation order: a numpy release that sums differently fails them loudly.

Group identification (:func:`repro.relational.aggregate._group_rows`) is
shared; it is not what the segment kernels replaced.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.relational.aggregate import _group_rows
from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL, NUMERIC
from repro.relational.table import Table

NUMERIC_AGGS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(np.nanmean(v)) if np.any(~np.isnan(v)) else float("nan"),
    "sum": lambda v: float(np.nansum(v)) if np.any(~np.isnan(v)) else float("nan"),
    "min": lambda v: float(np.nanmin(v)) if np.any(~np.isnan(v)) else float("nan"),
    "max": lambda v: float(np.nanmax(v)) if np.any(~np.isnan(v)) else float("nan"),
    "median": lambda v: float(np.nanmedian(v)) if np.any(~np.isnan(v)) else float("nan"),
    "std": lambda v: float(np.nanstd(v)) if np.any(~np.isnan(v)) else float("nan"),
    "count": lambda v: float(np.sum(~np.isnan(v))),
    "first": lambda v: float(v[0]) if len(v) else float("nan"),
}


def _mode_code(codes: np.ndarray) -> int:
    """Most frequent non-missing code, the first-appearing one on a tie."""
    counts: dict[int, int] = {}
    for code in codes.tolist():
        if code >= 0:
            counts[code] = counts.get(code, 0) + 1
    if not counts:
        return -1
    return max(counts.items(), key=lambda kv: kv[1])[0]


CATEGORICAL_AGGS: dict[str, Callable[[np.ndarray], float]] = {
    "mode": _mode_code,
    "first": lambda codes: int(codes[0]),
    "nunique": lambda codes: float(len(np.unique(codes[codes >= 0]))),
}


def reference_group_by_aggregate(
    table: Table,
    keys: Sequence[str],
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    agg_overrides: Mapping[str, str] | None = None,
) -> Table:
    """``group_by_aggregate`` computed one group at a time."""
    agg_overrides = dict(agg_overrides or {})
    group_ids, first_rows = _group_rows(table, keys)
    n_groups = len(first_rows)
    order = np.argsort(group_ids, kind="stable")
    boundaries = np.append(
        np.searchsorted(group_ids[order], np.arange(n_groups)), len(order)
    )
    slices = [slice(boundaries[g], boundaries[g + 1]) for g in range(n_groups)]

    out_columns = [table.column(key).take(first_rows) for key in keys]
    for col in table.columns():
        if col.name in keys:
            continue
        is_cat = col.ctype is CATEGORICAL
        agg_name = agg_overrides.get(col.name, categorical_agg if is_cat else numeric_agg)
        if is_cat:
            agg_fn = CATEGORICAL_AGGS[agg_name]
            data = col.codes[order]
            results = [agg_fn(data[part]) for part in slices]
            if agg_name == "nunique":
                out_columns.append(
                    Column.from_array(col.name, np.array(results, dtype=np.float64), NUMERIC)
                )
            else:
                codes = np.array(results, dtype=np.int32)
                out_columns.append(Column.from_codes(col.name, codes, col.dictionary))
            continue
        agg_fn = NUMERIC_AGGS[agg_name]
        data = col.values[order]
        values = np.array([agg_fn(data[part]) for part in slices], dtype=np.float64)
        out_columns.append(Column.from_array(col.name, values, col.ctype))
    return Table(out_columns, name=table.name)


def column_bytes(col: Column) -> tuple:
    """A column as comparable bytes: NaN payloads and the sign of zero count."""
    if col.ctype is CATEGORICAL:
        return (col.name, col.ctype, col.codes.tobytes(), tuple(col.dictionary))
    return (col.name, col.ctype, np.ascontiguousarray(col.values, dtype=np.float64).tobytes())
