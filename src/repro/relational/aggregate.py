"""Group-by aggregation.

ARDA pre-aggregates foreign tables on their join keys so that one-to-many and
many-to-many joins reduce to the row-preserving one-to-one / many-to-one cases
(paper section 4, "Join Cardinality").

Group identification is fully vectorised on top of the columnar storage: a
single key sorts on its dictionary codes or values, composite keys pack their
per-column codes (numeric columns factorised once) mixed-radix into a single
``int64`` per row, and one stable sort of those keys numbers the groups by
first appearance and lists the rows group by group.  A Python-loop fallback
is kept for the pathological case where the packed key space would overflow
``int64``; it doubles as the reference the property tests compare against.

Aggregation runs as segment kernels over all groups at once, and every value
equals, byte for byte, what one numpy nan-aggregate call on the group's rows
returns (``tests/aggregate_reference.py`` keeps that per-group loop).
``mean``, ``sum`` and ``std`` replay numpy's pairwise summation order across
all segments (``std`` follows ``np.nanvar`` step by step); ``min``/``max``
reduce with ``np.fmin``/``np.fmax.reduceat``; ``median`` takes the middle
values of one sort of (group, value); ``count`` and ``first`` index;
categorical ``mode`` and ``nunique`` count runs in one sort of (group, code)
pairs.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL, NUMERIC
from repro.relational.table import Table


# numpy sums a contiguous float64 slice pairwise (``pairwise_sum`` in its
# loops): a slice of at most 128 elements adds into 8 strided accumulators,
# a longer one splits in two at a multiple of 8 below its midpoint, and the
# reduction adds the whole result onto the identity 0.0.
_PAIRWISE_BLOCK = 128
_LANES = 8


class _Groups(NamedTuple):
    """Rows sorted by group: each group's first position and size, and the
    group of every position.  Every group holds at least one row."""

    starts: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray


def _leaf_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of slices of at most 128 elements, all at once.

    The accumulators start from a slice's first 8 elements and take every
    eighth element after them, fold as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7))``, and the last ``length % 8`` elements add on in order.  A
    slice shorter than 8 has no full block: its accumulators fold to 0.0 and
    every element adds on in order, which is numpy's short-slice loop (up to
    the sign of a zero sum, which the reduction's ``0.0 +`` erases).
    """
    blocks = lengths // _LANES
    lanes = np.arange(_LANES)
    acc = np.zeros((len(starts), _LANES))
    for block in range(int(blocks.max(initial=0))):
        rows = np.nonzero(blocks > block)[0]
        taken = values[starts[rows, None] + (block * _LANES + lanes)]
        acc[rows] = taken if block == 0 else acc[rows] + taken
    total = ((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])) + (
        (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
    )
    tail_starts = starts + blocks * _LANES
    tail_lengths = lengths - blocks * _LANES
    for offset in range(int(tail_lengths.max(initial=0))):
        rows = np.nonzero(tail_lengths > offset)[0]
        total[rows] += values[tail_starts[rows] + offset]
    return total


def _segment_sums(values: np.ndarray, groups: _Groups) -> np.ndarray:
    """``np.sum`` of every group's slice of ``values``, bit for bit.

    Replays numpy's recursion for all groups together: each level splits the
    slices longer than 128 elements into their two halves, the leaves of
    every level go through :func:`_leaf_sums`, and the levels fold back up
    as ``left + right``.  Like ``np.sum``, it warns about no overflow or
    ``inf - inf``.
    """
    levels = [(groups.starts, groups.sizes)]
    while True:
        starts, lengths = levels[-1]
        split = lengths > _PAIRWISE_BLOCK
        if not split.any():
            break
        half = lengths[split] // 2
        half -= half % _LANES
        levels.append(
            (
                np.column_stack([starts[split], starts[split] + half]).ravel(),
                np.column_stack([half, lengths[split] - half]).ravel(),
            )
        )
    sums = None
    with np.errstate(invalid="ignore", over="ignore"):
        for starts, lengths in reversed(levels):
            split = lengths > _PAIRWISE_BLOCK
            level = np.empty(len(starts))
            level[~split] = _leaf_sums(values, starts[~split], lengths[~split])
            if sums is not None:
                level[split] = sums[0::2] + sums[1::2]
            sums = level
        return 0.0 + sums


# A group without a valid value aggregates to ``float("nan")`` (a NaN
# computed as 0 / 0 would carry the sign bit); an all-NaN group's count is 0.


def _valid_counts(valid: np.ndarray, groups: _Groups) -> np.ndarray:
    return np.bincount(groups.ids[valid], minlength=len(groups.starts))


def _nan_sum(data: np.ndarray, groups: _Groups) -> np.ndarray:
    """``np.nansum`` per group."""
    valid = ~np.isnan(data)
    sums = _segment_sums(np.where(valid, data, 0.0), groups)
    sums[_valid_counts(valid, groups) == 0] = np.nan
    return sums


def _nan_mean(data: np.ndarray, groups: _Groups) -> np.ndarray:
    """``np.nanmean`` per group: the NaN-zeroed sum over the valid count."""
    valid = ~np.isnan(data)
    counts = _valid_counts(valid, groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = _segment_sums(np.where(valid, data, 0.0), groups) / counts
    means[counts == 0] = np.nan
    return means


def _nan_std(data: np.ndarray, groups: _Groups) -> np.ndarray:
    """``np.nanstd`` per group, following ``np.nanvar`` step by step: mean,
    NaN-zeroed squared deviations, their pairwise sum over the count, root."""
    valid = ~np.isnan(data)
    counts = _valid_counts(valid, groups)
    filled = np.where(valid, data, 0.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        means = _segment_sums(filled, groups) / counts
        deviations = np.where(valid, filled - means[groups.ids], 0.0)
        stds = np.sqrt(_segment_sums(deviations * deviations, groups) / counts)
    stds[counts == 0] = np.nan
    return stds


def _nan_extreme(reduce: np.ufunc) -> Callable[[np.ndarray, _Groups], np.ndarray]:
    """``np.nanmin`` / ``np.nanmax`` per group: ``np.fmin`` / ``np.fmax``
    reduced over each group's slice, as those functions reduce a 1-D array
    (NaN only where the group has no valid value)."""

    def kernel(data: np.ndarray, groups: _Groups) -> np.ndarray:
        out = reduce.reduceat(data, groups.starts)
        out[np.isnan(out)] = np.nan
        return out

    return kernel


def _nan_median(data: np.ndarray, groups: _Groups) -> np.ndarray:
    """``np.nanmedian`` per group: one sort of the valid values by (group,
    value), then ``np.mean`` of the middle one or two (``0.0 + x`` or
    ``(0.0 + (lo + hi)) / 2``)."""
    valid = ~np.isnan(data)
    counts = _valid_counts(valid, groups)
    values = data[valid]
    ranked = values[np.lexsort((values, groups.ids[valid]))]
    medians = np.full(len(counts), np.nan)
    present = np.nonzero(counts)[0]
    first = (np.cumsum(counts) - counts)[present]
    size = counts[present]
    low = ranked[first + (size - 1) // 2]
    high = ranked[first + size // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        medians[present] = np.where(size % 2 == 1, 0.0 + low, (0.0 + (low + high)) / 2)
    return medians


_NUMERIC_AGGS: dict[str, Callable[[np.ndarray, _Groups], np.ndarray]] = {
    "mean": _nan_mean,
    "sum": _nan_sum,
    "min": _nan_extreme(np.fmin),
    "max": _nan_extreme(np.fmax),
    "median": _nan_median,
    "std": _nan_std,
    "count": lambda data, groups: _valid_counts(~np.isnan(data), groups).astype(np.float64),
    "first": lambda data, groups: data[groups.starts],
}


def column_group_codes(col: Column) -> tuple[np.ndarray, int]:
    """Per-row ``int64`` equality codes of a column, with ``-1`` for missing.

    Returns ``(codes, domain)`` where all non-missing codes are in
    ``[0, domain)``.  Categorical columns reuse their dictionary codes for
    free; float-backed columns are factorised with one ``np.unique``.
    """
    if col.ctype is CATEGORICAL:
        return col.codes.astype(np.int64), len(col.dictionary)
    values = col.values
    valid = ~np.isnan(values)
    codes = np.full(len(values), -1, dtype=np.int64)
    if valid.any():
        _, inverse = np.unique(values[valid], return_inverse=True)
        codes[valid] = inverse
        return codes, int(inverse.max()) + 1
    return codes, 0


def _group_rows(table: Table, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised group identification.

    Returns ``(group_ids, first_rows)``: ``group_ids[i]`` is the group of row
    ``i``, groups are numbered by first appearance, and ``first_rows[g]`` is
    the first row index of group ``g``.  Missing key values participate as
    their own key symbol, exactly like the object-tuple fallback.
    """
    group_ids, first_rows, _order = _group_order(table, keys)
    return group_ids, first_rows


def _group_order(
    table: Table, keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_group_rows` plus ``order``: the rows group by group, each
    group's rows in row order.

    One stable sort of the key tuples does all three.  The sorted keys form
    one block per group, a block's first entry is its group's first row, and
    ranking the blocks by that row numbers the groups by first appearance;
    ``order`` then moves each block to its group's slot without sorting
    again.
    """
    n = table.num_rows
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    sort_keys = _sort_keys(table, keys)
    if sort_keys is None:
        group_ids, first_rows = _group_rows_fallback(table, keys)
        return group_ids, first_rows, np.argsort(group_ids, kind="stable")
    perm = np.argsort(sort_keys, kind="stable")
    ordered = sort_keys[perm]
    new_block = np.ones(n, dtype=bool)
    new_block[1:] = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind == "f":
        missing = np.isnan(ordered)  # one key symbol: NaN blocks with NaN
        new_block[1:] &= ~(missing[1:] & missing[:-1])
    block_starts = np.nonzero(new_block)[0]
    block = np.cumsum(new_block) - 1
    block_first = perm[block_starts]
    appearance = np.argsort(block_first)
    rank = np.empty(len(block_starts), dtype=np.int64)
    rank[appearance] = np.arange(len(block_starts))
    group_of_sorted = rank[block]
    group_ids = np.empty(n, dtype=np.int64)
    group_ids[perm] = group_of_sorted
    sizes = np.diff(np.append(block_starts, n))[appearance]
    slot = (np.cumsum(sizes) - sizes)[group_of_sorted] + (np.arange(n) - block_starts[block])
    order = np.empty(n, dtype=np.int64)
    order[slot] = perm
    return group_ids, block_first[appearance], order


def _sort_keys(table: Table, keys: Sequence[str]) -> np.ndarray | None:
    """One array whose equal entries are exactly the rows with equal key
    tuples (NaN equal to NaN, ``-0.0`` to ``0.0``), or ``None`` when the
    packed codes would overflow ``int64``.

    A single key is its own sort key (dictionary codes or float values);
    composite keys pack their per-column codes mixed-radix.
    """
    key_columns = [table.column(k) for k in keys]
    if len(key_columns) == 1:
        col = key_columns[0]
        return col.codes if col.ctype is CATEGORICAL else col.values
    packed = np.zeros(table.num_rows, dtype=np.int64)
    span = 1
    for col in key_columns:
        codes, domain = column_group_codes(col)
        radix = domain + 1
        span *= radix
        if span > 2**62:
            return None
        packed = packed * radix + (codes + 1)
    return packed


def _group_rows_fallback(table: Table, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Object-tuple group identification (reference path / overflow fallback)."""
    key_columns = [table.column(k) for k in keys]
    n = table.num_rows
    index_of: dict[tuple, int] = {}
    group_ids = np.empty(n, dtype=np.int64)
    first_rows: list[int] = []
    for i in range(n):
        parts = []
        for col in key_columns:
            value = col.value_at(i)
            if col.ctype is CATEGORICAL:
                parts.append(value)
            else:
                parts.append(None if np.isnan(value) else float(value))
        key = tuple(parts)
        group = index_of.get(key)
        if group is None:
            group = len(first_rows)
            index_of[key] = group
            first_rows.append(i)
        group_ids[i] = group
    return group_ids, np.array(first_rows, dtype=np.int64)


def group_by_aggregate(
    table: Table,
    keys: Sequence[str],
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    agg_overrides: Mapping[str, str] | None = None,
) -> Table:
    """Aggregate a table so that key tuples become unique.

    Non-key numeric columns are aggregated with ``numeric_agg`` and non-key
    categorical columns with ``categorical_agg``; ``agg_overrides`` can pick a
    different aggregate per column.  The result has one row per distinct key
    tuple, in first-appearance order, with key columns first.  Every value
    equals, byte for byte, the numpy nan-aggregate of the group's rows.
    """
    if not keys:
        raise ValueError("group_by_aggregate requires at least one key column")
    agg_overrides = dict(agg_overrides or {})
    group_ids, first_rows, order = _group_order(table, keys)
    n_groups = len(first_rows)
    sizes = np.bincount(group_ids, minlength=n_groups)
    groups = _Groups(
        np.cumsum(sizes) - sizes, sizes, np.repeat(np.arange(n_groups), sizes)
    )

    # key columns: the first row of each group carries the group's key values,
    # so a single take-view per key column replaces the old tuple rebuild
    out_columns: list[Column] = [table.column(key).take(first_rows) for key in keys]

    key_set = set(keys)
    for col in table.columns():
        if col.name in key_set:
            continue
        agg_name = agg_overrides.get(
            col.name, categorical_agg if col.ctype is CATEGORICAL else numeric_agg
        )
        if col.ctype is CATEGORICAL:
            out_columns.append(_aggregate_categorical(col, agg_name, order, groups))
            continue
        kernel = _NUMERIC_AGGS.get(agg_name)
        if kernel is None:
            raise ValueError(f"unknown numeric aggregate {agg_name!r}")
        values = kernel(col.values[order], groups)
        out_columns.append(Column.from_array(col.name, values, col.ctype))
    return Table(out_columns, name=table.name)


def _code_runs(sorted_codes: np.ndarray, groups: _Groups, domain: int):
    """One sort of the (group, code) pairs of the non-missing codes, each
    packed as ``group * domain + code``.

    Returns ``(group, code, first, count)`` per distinct pair: ``first`` is
    the pair's earliest sorted position (group slices keep row order) and
    ``count`` how many rows carry it.
    """
    valid = np.nonzero(sorted_codes >= 0)[0]
    pairs = groups.ids[valid] * domain + sorted_codes[valid]
    order = np.argsort(pairs, kind="stable")
    pairs = pairs[order]
    run_start = np.ones(len(pairs), dtype=bool)
    run_start[1:] = pairs[1:] != pairs[:-1]
    starts = np.nonzero(run_start)[0]
    group, code = np.divmod(pairs[starts], domain)
    return group, code, valid[order[starts]], np.diff(np.append(starts, len(pairs)))


def _aggregate_categorical(
    col: Column, agg_name: str, order: np.ndarray, groups: _Groups
) -> Column:
    """Aggregate one categorical column on its code array."""
    n_groups = len(groups.starts)
    sorted_codes = col.codes[order]
    domain = max(len(col.dictionary), 1)
    if agg_name == "first":
        return Column.from_codes(col.name, sorted_codes[groups.starts], col.dictionary)
    if agg_name == "mode":
        # most frequent non-missing code per group (-1 where all missing);
        # ties break toward the code that appears first in the group's rows
        out = np.full(n_groups, -1, dtype=np.int32)
        pair_group, pair_code, first, counts = _code_runs(sorted_codes, groups, domain)
        best = np.lexsort((first, -counts, pair_group))
        keep = np.ones(len(best), dtype=bool)
        keep[1:] = pair_group[best[1:]] != pair_group[best[:-1]]
        chosen = best[keep]
        out[pair_group[chosen]] = pair_code[chosen]
        return Column.from_codes(col.name, out, col.dictionary)
    if agg_name == "nunique":
        pair_group = _code_runs(sorted_codes, groups, domain)[0]
        values = np.bincount(pair_group, minlength=n_groups).astype(np.float64)
        return Column.from_array(col.name, values, NUMERIC)
    raise ValueError(f"unknown categorical aggregate {agg_name!r}")


# rows whose keys :func:`is_unique_on` sorts first: a duplicate-keyed table
# (what pre-aggregation exists for) almost always repeats a key among them
_UNIQUE_PREFIX_ROWS = 256


def is_unique_on(table: Table, keys: Sequence[str]) -> bool:
    """Whether the key tuples identify rows uniquely.

    One sort of the key tuples (categorical keys by code) and an
    adjacent-equal test give :func:`_group_rows`'s answer without numbering
    groups: a missing value is one key symbol, so two rows missing the same
    key part are duplicates, and ``-0.0`` equals ``0.0``.  A duplicate among
    the first rows settles the answer before the whole table is sorted.
    """
    arrays = []
    for key in keys:
        col = table.column(key)
        arrays.append(col.codes if col.ctype is CATEGORICAL else col.values)
    if table.num_rows > _UNIQUE_PREFIX_ROWS and not _all_distinct(
        [values[:_UNIQUE_PREFIX_ROWS] for values in arrays]
    ):
        return False
    return _all_distinct(arrays)


def _all_distinct(arrays: list[np.ndarray]) -> bool:
    """Whether no two rows of the parallel key arrays are equal (NaN equals NaN)."""
    n = len(arrays[0])
    if n < 2:
        return True
    if len(arrays) == 1:
        # NaN sorts last, so two missing values end the sorted array
        ordered = np.sort(arrays[0])
        if ordered.dtype.kind == "f" and np.isnan(ordered[-2]):
            return False
        return not (ordered[1:] == ordered[:-1]).any()
    order = np.lexsort(arrays[::-1])
    repeated = np.ones(n - 1, dtype=bool)
    for values in arrays:
        values = values[order]
        same = values[1:] == values[:-1]
        if values.dtype.kind == "f":
            missing = np.isnan(values)
            same |= missing[1:] & missing[:-1]
        repeated &= same
    return not repeated.any()
