"""Hash LEFT joins on hard keys, in-memory and streaming.

Only LEFT joins are implemented because they are the only join type suitable
for data augmentation: every base-table row (training example) is preserved and
unmatched rows get NULLs, which are later imputed (paper section 4, "Joins").

One build-once probe-many join drives every path: :class:`StreamingHashJoin`
prepares the (small) build side once — pre-aggregation, output naming — and
joins the (large) base table one row group at a time.  :func:`left_join` is
its one-chunk case: an in-memory :class:`Table` is joined as a single chunk.
:func:`iter_streaming_left_join` streams a
:class:`~repro.relational.persist.ChunkedTableReader` through it; chunks whose
zone map cannot intersect the build side's key range are **pruned**: their
probe and gather are skipped entirely and they contribute all-NULL augmented
columns, which is exactly what the full probe would have produced (a LEFT
join keeps every base row, so pruning a chunk removes work, never rows).
Because every chunk is probed with the same kernels and the outputs are
concatenated in chunk order, :func:`streaming_left_join` is equivalent to
``left_join`` row for row, while peak memory stays bounded by a chunk wave
(``memory_budget``) instead of the base table.  Independent chunks of one
join fan out across any :class:`~repro.core.executor.JoinExecutor` backend.

When the *build* side itself exceeds the memory budget the join switches to
a Grace-style partitioned mode (:func:`grace_left_join`): both sides are
hash-partitioned on the key values into spill files
(:func:`~repro.relational.persist.write_table_stream`), each partition pair
is joined independently with the same kernels, and the per-partition outputs
are merged back into base-row order — peak heap stays bounded by one
partition plus one base chunk, and the output is byte-identical to
``left_join`` (same values, same dictionaries).  Sources whose file is
sort-ordered on a join key (``sort_by``) prune their candidate chunk range
with two binary searches over the zone bounds instead of scanning every zone
entry.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from pathlib import Path
from queue import Queue
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.relational.aggregate import group_by_aggregate, is_unique_on
from repro.relational.column import Column, remap_dictionary
from repro.relational.persist import (
    DEFAULT_STREAM_CHUNK_ROWS,
    _concat_parts,
    open_chunks,
    read_table,
    write_table_stream,
)
from repro.relational.schema import CATEGORICAL, NUMERIC, Schema
from repro.relational.table import Table, unique_name


def _key_tuple(columns: Sequence[Column], index: int) -> tuple:
    """Hashable key tuple for one row (missing values collapse to None)."""
    parts = []
    for col in columns:
        value = col.values[index]
        if col.ctype is CATEGORICAL:
            parts.append(value)
        else:
            parts.append(None if np.isnan(value) else float(value))
    return tuple(parts)


def _build_hash_index(columns: Sequence[Column]) -> dict[tuple, int]:
    """Map each key tuple to the first row index where it appears."""
    index: dict[tuple, int] = {}
    n = len(columns[0]) if columns else 0
    for i in range(n):
        key = _key_tuple(columns, i)
        if None in key:
            continue
        if key not in index:
            index[key] = i
    return index


def _factorize_pair(
    left_col: Column, right_col: Column
) -> tuple[np.ndarray, np.ndarray] | None:
    """Encode one key-column pair into shared integer codes (-1 = missing).

    Returns ``None`` when the pair can never match (categorical against
    numeric), mirroring how tuple equality across those types always fails.

    Categorical pairs never touch row-level strings: the two dictionaries are
    reconciled into one shared code space (a dictionary is tiny compared to the
    rows), and the stored code arrays are translated with one integer gather.
    """
    left_is_cat = left_col.ctype is CATEGORICAL
    if left_is_cat != (right_col.ctype is CATEGORICAL):
        return None
    if left_is_cat:
        shared: dict[str, int] = {
            text: code for code, text in enumerate(left_col.dictionary)
        }
        translate = remap_dictionary(right_col.dictionary, shared)
        left_code = left_col.codes.astype(np.int64)
        right_code = translate[right_col.codes].astype(np.int64)
        return left_code, right_code
    left_valid = ~left_col.missing_mask()
    right_valid = ~right_col.missing_mask()
    left_values = left_col.values[left_valid]
    right_values = right_col.values[right_valid]
    _, inverse = np.unique(
        np.concatenate([left_values, right_values]), return_inverse=True
    )
    left_code = np.full(len(left_col), -1, dtype=np.int64)
    right_code = np.full(len(right_col), -1, dtype=np.int64)
    left_code[left_valid] = inverse[: len(left_values)]
    right_code[right_valid] = inverse[len(left_values):]
    return left_code, right_code


def _match_first_occurrence(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> np.ndarray:
    """Vectorised hash-join probe: first matching right row per left row.

    Replicates ``_build_hash_index`` + per-row lookup (first right occurrence
    wins, rows with a missing key part never match) without the per-row Python
    loop: each key pair is factorised into shared integer codes, composite keys
    are packed mixed-radix into one int64, and the probe becomes a
    ``searchsorted`` against the first occurrence of each right key.  Falls
    back to the dict-based path if the packed codes would overflow int64
    (only possible for very wide composite keys over huge domains).
    """
    n_left = len(left_columns[0])
    n_right = len(right_columns[0])
    left_code = np.zeros(n_left, dtype=np.int64)
    right_code = np.zeros(n_right, dtype=np.int64)
    left_ok = np.ones(n_left, dtype=bool)
    right_ok = np.ones(n_right, dtype=bool)
    span = 1
    for left_col, right_col in zip(left_columns, right_columns):
        pair = _factorize_pair(left_col, right_col)
        if pair is None:
            return np.full(n_left, -1, dtype=np.int64)
        codes_left, codes_right = pair
        radix = int(max(codes_left.max(initial=-1), codes_right.max(initial=-1))) + 2
        span *= radix
        if span > 2**62:
            return _match_via_hash_index(left_columns, right_columns)
        left_ok &= codes_left >= 0
        right_ok &= codes_right >= 0
        left_code = left_code * radix + (codes_left + 1)
        right_code = right_code * radix + (codes_right + 1)

    match_index = np.full(n_left, -1, dtype=np.int64)
    right_rows = np.nonzero(right_ok)[0]
    if not len(right_rows):
        return match_index
    order = np.argsort(right_code[right_rows], kind="stable")
    sorted_keys = right_code[right_rows][order]
    sorted_rows = right_rows[order]
    is_first = np.ones(len(sorted_keys), dtype=bool)
    is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    unique_keys = sorted_keys[is_first]
    first_rows = sorted_rows[is_first]

    left_rows = np.nonzero(left_ok)[0]
    probe = left_code[left_rows]
    positions = np.searchsorted(unique_keys, probe)
    in_range = positions < len(unique_keys)
    clipped = np.clip(positions, 0, len(unique_keys) - 1)
    hit = in_range & (unique_keys[clipped] == probe)
    match_index[left_rows[hit]] = first_rows[clipped[hit]]
    return match_index


def _match_via_hash_index(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> np.ndarray:
    """Reference dict-based probe (kept as the overflow fallback)."""
    hash_index = _build_hash_index(right_columns)
    n = len(left_columns[0])
    match_index = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        key = _key_tuple(left_columns, i)
        if None in key:
            continue
        match_index[i] = hash_index.get(key, -1)
    return match_index


def left_join(
    left: Table,
    right: Table,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
) -> Table:
    """LEFT-join ``right`` onto ``left`` on the given key pairs.

    ``on`` is a sequence of ``(left_column, right_column)`` pairs (composite
    keys are supported by passing more than one pair).  If the right table is
    not unique on its key columns and ``aggregate_duplicates`` is True, it is
    first pre-aggregated so the join cannot duplicate base-table rows; if
    ``aggregate_duplicates`` is False the first matching right row wins.

    The right key columns themselves are not copied into the output (the left
    key already carries that information).  Other right columns that clash
    with left column names get ``suffix`` appended.  This is the one-chunk
    case of :class:`StreamingHashJoin`: ``left`` is joined as a single chunk.
    """
    joiner = StreamingHashJoin(
        right,
        on,
        left.schema(),
        suffix=suffix,
        aggregate_duplicates=aggregate_duplicates,
        numeric_agg=numeric_agg,
        categorical_agg=categorical_agg,
    )
    return joiner.join_chunk(left)


def _prepare_right(
    right: Table,
    right_keys: Sequence[str],
    aggregate_duplicates: bool,
    numeric_agg: str,
    categorical_agg: str,
) -> Table:
    """Validate and (if needed) pre-aggregate the build side of a LEFT join."""
    for key in right_keys:
        right.column(key)
    if aggregate_duplicates and right.num_rows and not is_unique_on(right, right_keys):
        right = group_by_aggregate(
            right, right_keys, numeric_agg=numeric_agg, categorical_agg=categorical_agg
        )
    return right


def _output_names(
    right: Table,
    right_keys: Sequence[str],
    left_names: Sequence[str],
    suffix: str,
) -> list[tuple[str, str]]:
    """``(right column, output name)`` pairs, exactly as ``left_join`` assigns
    them: right key columns are dropped, clashes get ``suffix`` appended."""
    existing = set(left_names)
    right_key_set = set(right_keys)
    out: list[tuple[str, str]] = []
    for col in right.columns():
        if col.name in right_key_set:
            continue
        name = unique_name(col.name, existing, suffix)
        existing.add(name)
        out.append((col.name, name))
    return out


def _gather_right_column(
    col: Column, name: str, match_index: np.ndarray, matched: np.ndarray
) -> Column:
    """Pull right-table values into left-row order, NULL where unmatched.

    Categorical columns are gathered as int32 codes sharing the right column's
    dictionary — no string is touched during join materialisation.
    """
    n = len(match_index)
    if col.ctype is CATEGORICAL:
        out = np.full(n, -1, dtype=np.int32)
        if matched.any():
            out[matched] = col.codes[match_index[matched]]
        return Column.from_codes(name, out, col.dictionary)
    out = np.full(n, np.nan, dtype=np.float64)
    if matched.any():
        out[matched] = col.values[match_index[matched]]
    return Column.from_array(name, out, col.ctype)


# -- streaming, pruned, chunk-parallel join -----------------------------------


@dataclass
class StreamJoinStats:
    """Pruning and coverage accounting of one streaming join.

    ``chunks_probed`` counts row groups whose key pages were actually read and
    probed against the build side; the remaining ``chunks_pruned`` were
    skipped on zone-map evidence alone (header bytes, no page reads) and
    contributed all-NULL augmented columns without any probe or gather work.
    """

    chunks_total: int = 0
    chunks_probed: int = 0
    rows_total: int = 0
    rows_probed: int = 0
    rows_matched: int = 0
    # Grace spill accounting (zero for joins that never partitioned):
    # partitions used, and payload bytes written to / read back from spill
    # files across both sides and the per-partition outputs.
    spill_partitions: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0

    @property
    def chunks_pruned(self) -> int:
        return self.chunks_total - self.chunks_probed

    @property
    def pruning_ratio(self) -> float:
        """Fraction of chunks skipped by zone-map pruning (0.0 when unknown)."""
        if not self.chunks_total:
            return 0.0
        return self.chunks_pruned / self.chunks_total

    def merge(self, other: "StreamJoinStats") -> "StreamJoinStats":
        """Elementwise sum — used to aggregate stats across several joins."""
        return StreamJoinStats(
            chunks_total=self.chunks_total + other.chunks_total,
            chunks_probed=self.chunks_probed + other.chunks_probed,
            rows_total=self.rows_total + other.rows_total,
            rows_probed=self.rows_probed + other.rows_probed,
            rows_matched=self.rows_matched + other.rows_matched,
            spill_partitions=self.spill_partitions + other.spill_partitions,
            spill_bytes_written=self.spill_bytes_written + other.spill_bytes_written,
            spill_bytes_read=self.spill_bytes_read + other.spill_bytes_read,
        )

    def record_to(self, registry=None, prefix: str = "stream_join") -> None:
        """Add this join's accounting to a metrics registry's counters.

        Each field increments the ``{prefix}.{field}`` counter on the given
        registry (default: the process-wide
        :func:`repro.observability.get_registry`), so repeated joins
        accumulate process totals while this object keeps reporting its own
        run unchanged.
        """
        from repro.observability import get_registry

        registry = registry if registry is not None else get_registry()
        registry.counter(f"{prefix}.chunks_total").inc(self.chunks_total)
        registry.counter(f"{prefix}.chunks_probed").inc(self.chunks_probed)
        registry.counter(f"{prefix}.chunks_pruned").inc(self.chunks_pruned)
        registry.counter(f"{prefix}.rows_total").inc(self.rows_total)
        registry.counter(f"{prefix}.rows_probed").inc(self.rows_probed)
        registry.counter(f"{prefix}.rows_matched").inc(self.rows_matched)
        # spill accounting lives under a fixed namespace so `/metrics` readers
        # find one `join.spill.*` family no matter which prefix the caller used
        if self.spill_partitions or self.spill_bytes_written or self.spill_bytes_read:
            registry.counter("join.spill.partitions").inc(self.spill_partitions)
            registry.counter("join.spill.bytes_written").inc(self.spill_bytes_written)
            registry.counter("join.spill.bytes_read").inc(self.spill_bytes_read)


class _TableChunkSource:
    """Adapt an in-memory :class:`Table` to the chunk-source protocol.

    Lets every streaming consumer treat "a table already in RAM" as a
    single-chunk (or, with ``chunk_rows``, evenly sliced) source with no zone
    maps — in-memory sources are never pruned, matching the semantics of a
    monolithic version-1 file.
    """

    def __init__(self, table: Table, chunk_rows: int | None = None):
        self._table = table
        n = table.num_rows
        if chunk_rows is None or chunk_rows <= 0 or chunk_rows >= n:
            self._bounds = [(0, n)]
        else:
            self._bounds = [
                (start, min(start + chunk_rows, n)) for start in range(0, n, chunk_rows)
            ]
        self.has_zones = False

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def num_rows(self) -> int:
        return self._table.num_rows

    @property
    def num_chunks(self) -> int:
        return len(self._bounds)

    @property
    def column_names(self) -> list[str]:
        return self._table.column_names

    def __contains__(self, name: str) -> bool:
        return name in self._table.column_names

    def schema(self) -> Schema:
        return self._table.schema()

    def zones(self, index: int):
        return None

    def chunk_row_range(self, index: int) -> tuple[int, int]:
        return self._bounds[index]

    def chunk_nbytes(self, index: int) -> int:
        start, stop = self._bounds[index]
        return (stop - start) * 8 * max(1, len(self._table.column_names))

    def chunk(self, index: int, columns: Sequence[str] | None = None) -> Table:
        start, stop = self._bounds[index]
        part = self._table if (start, stop) == (0, self.num_rows) else self._table.take(
            np.arange(start, stop)
        )
        return part.select(list(columns)) if columns is not None else part

    def iter_chunks(self, columns: Sequence[str] | None = None) -> Iterator[Table]:
        for index in range(self.num_chunks):
            yield self.chunk(index, columns)

    def table(self) -> Table:
        return self._table

    def column(self, name: str) -> Column:
        return self._table.column(name)

    def take(self, indices) -> Table:
        return self._table.take(indices)

    def dictionary(self, name: str) -> np.ndarray:
        return self._table.column(name).dictionary


def as_chunk_source(source, chunk_rows: int | None = None):
    """Coerce a join/profiling source to the chunk protocol.

    Accepts a :class:`~repro.relational.persist.ChunkedTableReader` (returned
    unchanged), or an in-memory :class:`Table` (wrapped so it presents as an
    unpruned chunk sequence).
    """
    if isinstance(source, Table):
        return _TableChunkSource(source, chunk_rows)
    if hasattr(source, "iter_chunks"):
        return source
    raise TypeError(
        f"expected a Table or a chunked table reader, got {type(source).__name__}"
    )


class KeyRangePruner:
    """Zone-map pruning against a build side known only by its key ranges.

    Decouples "can any row of this chunk match?" from holding the build table
    itself: :class:`StreamingHashJoin` instantiates one from the prepared
    right table, and the Grace spill join instantiates one from ranges
    gathered while streaming the right side — without ever materialising it.

    ``ranges`` holds one entry per key pair: ``("num", lo, hi)`` for numeric
    keys with at least one valid value, ``("num-empty",)`` when the build key
    has no valid value, and ``("cat", values)`` with the build side's distinct
    strings for categorical keys.
    """

    def __init__(self, on, left_schema: Schema, ranges: Sequence[tuple]):
        self.on = [(left, right) for left, right in on]
        self.left_keys = [pair[0] for pair in self.on]
        self.left_schema = left_schema
        self.ranges = list(ranges)
        self._base_code_cache: dict[str, np.ndarray] = {}

    @property
    def cat_keys(self) -> list[str]:
        """Left key columns that need a source dictionary at prune time."""
        return [
            key
            for key in self.left_keys
            if self.left_schema.type_of(key) is CATEGORICAL
        ]

    def chunk_may_match(self, zones, dictionaries) -> bool:
        """Whether any row of a chunk with these zones can match the build side.

        ``zones`` is the chunk's per-column ``(min, max)`` map (``None`` when
        the source carries no zone map — never prune then); ``dictionaries``
        maps categorical left-key names to the source's file-level dictionary.
        Conservative by construction: ``True`` on any uncertainty.
        """
        if zones is None:
            return True
        for (left_key, _right_key), rng in zip(self.on, self.ranges):
            zone = zones.get(left_key)
            if zone is None:
                # the chunk holds no valid value for this key: no row matches
                return False
            left_is_cat = self.left_schema.type_of(left_key) is CATEGORICAL
            if left_is_cat != (rng[0] == "cat"):
                return False  # categorical never equals numeric
            if rng[0] == "num-empty":
                return False
            lo, hi = zone
            if rng[0] == "num":
                if lo > rng[2] or hi < rng[1]:
                    return False
            else:
                base_codes = self._base_key_codes(left_key, dictionaries[left_key])
                if not len(base_codes):
                    return False
                pos = int(np.searchsorted(base_codes, lo))
                if pos >= len(base_codes) or base_codes[pos] > hi:
                    return False
        return True

    def _base_key_codes(self, left_key: str, dictionary: np.ndarray) -> np.ndarray:
        """Sorted base-dictionary codes of the build side's key values."""
        cached = self._base_code_cache.get(left_key)
        if cached is None:
            rng = self.ranges[self.left_keys.index(left_key)]
            index = {text: code for code, text in enumerate(dictionary)}
            codes = [index[text] for text in rng[1] if text in index]
            cached = np.sort(np.asarray(codes, dtype=np.int64))
            self._base_code_cache[left_key] = cached
        return cached

    def sorted_window(self, source) -> tuple[int, int] | None:
        """Half-open candidate chunk range of a sort-ordered source, or ``None``.

        When the source file is ordered by a numeric left key
        (``source.sort_by``), two binary searches over the per-chunk zone
        bounds replace the linear zone scan: every chunk outside the returned
        window provably cannot match (chunks inside still go through
        :meth:`chunk_may_match` for the remaining keys).  ``None`` means the
        fast path does not apply — prune chunk-by-chunk as before.
        """
        sort_key = getattr(source, "sort_by", None)
        if sort_key is None or sort_key not in self.left_keys:
            return None
        bounds_of = getattr(source, "zone_bounds", None)
        if bounds_of is None:
            return None
        if self.left_schema.type_of(sort_key) is CATEGORICAL:
            return None
        rng = self.ranges[self.left_keys.index(sort_key)]
        if rng[0] != "num":
            # empty or type-mismatched build key: nothing can ever match
            return (0, 0)
        bounds = bounds_of(sort_key)
        if bounds is None:
            return None
        mins, maxes = bounds
        # maxes non-decreasing: chunks whose max >= lo form a suffix;
        # mins non-decreasing: chunks whose min <= hi form a prefix
        first = int(np.searchsorted(maxes, rng[1], side="left"))
        last = int(np.searchsorted(mins, rng[2], side="right"))
        return (first, max(first, last))


def build_key_ranges(key_columns: Sequence[Column]) -> list[tuple]:
    """The :class:`KeyRangePruner` ranges of one prepared build side."""
    ranges: list[tuple] = []
    for rcol in key_columns:
        if rcol.ctype is CATEGORICAL:
            codes = rcol.codes
            present = np.unique(codes[codes >= 0])
            ranges.append(("cat", [rcol.dictionary[c] for c in present]))
        else:
            values = rcol.values
            valid = values[~np.isnan(values)]
            if len(valid):
                ranges.append(("num", float(valid.min()), float(valid.max())))
            else:
                ranges.append(("num-empty",))
    return ranges


def _pruned_flags(
    source, make_pruner: Callable[[], KeyRangePruner], prune: bool
) -> list[bool]:
    """Per-chunk "provably cannot match" flags for one source.

    A source without zone maps (an in-memory table, a monolithic file) is
    never pruned, and ``make_pruner`` is only called when there are zones to
    check.  Combines the sorted binary-search window (when the source is
    sort-ordered on a numeric key) with the per-chunk zone checks.
    """
    n = source.num_chunks
    if not prune or not source.has_zones:
        return [False] * n
    pruner = make_pruner()
    window = pruner.sorted_window(source)
    dictionaries = {key: source.dictionary(key) for key in pruner.cat_keys}
    flags: list[bool] = []
    for index in range(n):
        if window is not None and not (window[0] <= index < window[1]):
            flags.append(True)
            continue
        flags.append(not pruner.chunk_may_match(source.zones(index), dictionaries))
    return flags


@dataclass
class StreamingHashJoin:
    """Build-once probe-many LEFT join against one prepared right table.

    The constructor does all the per-join work that must happen exactly once:
    right-side validation and pre-aggregation, and output-column naming
    against the left schema.  Each :meth:`probe_chunk` / :meth:`join_chunk`
    call then handles one base chunk independently — :func:`left_join` is the
    one-chunk case — and the object is picklable, so chunks can fan out across
    process pools with the build side shipped once per worker.  The build
    side's per-key value ranges (:attr:`pruner`) are computed on first use,
    which only a source with zone maps ever asks for.
    """

    right: Table
    on: Sequence[tuple[str, str]]
    left_schema: Schema
    suffix: str = "_r"
    aggregate_duplicates: bool = True
    numeric_agg: str = "mean"
    categorical_agg: str = "mode"
    output: list[tuple[str, str]] = field(init=False)

    def __post_init__(self):
        if not self.on:
            raise ValueError("a LEFT join requires at least one key pair")
        self.on = [(left, right) for left, right in self.on]
        self.left_keys = [pair[0] for pair in self.on]
        self.right_keys = [pair[1] for pair in self.on]
        for key in self.left_keys:
            if key not in self.left_schema:
                raise KeyError(f"left source has no key column {key!r}")
        self.right = _prepare_right(
            self.right,
            self.right_keys,
            self.aggregate_duplicates,
            self.numeric_agg,
            self.categorical_agg,
        )
        self.right_key_columns = [self.right.column(k) for k in self.right_keys]
        self.output = _output_names(
            self.right, self.right_keys, self.left_schema.names, self.suffix
        )

    @cached_property
    def pruner(self) -> KeyRangePruner:
        """Zone-map pruning against the build side's key ranges: numeric keys
        keep (min, max) over valid values; categorical keys keep their
        distinct strings (a chunk's code zone is translated through the base
        dictionary at prune time).  An empty range means no base row can ever
        match."""
        return KeyRangePruner(
            self.on, self.left_schema, build_key_ranges(self.right_key_columns)
        )

    @property
    def output_names(self) -> list[str]:
        """Names of the augmented columns this join adds, in output order."""
        return [name for _right_name, name in self.output]

    # -- per-chunk kernels -----------------------------------------------------

    def probe_chunk(self, chunk: Table) -> np.ndarray:
        """First-match index into the prepared right table for each chunk row."""
        left_key_columns = [chunk.column(k) for k in self.left_keys]
        return _match_first_occurrence(left_key_columns, self.right_key_columns)

    def gather(self, match_index: np.ndarray) -> list[Column]:
        """The augmented columns for one probed chunk, in output order."""
        matched = match_index >= 0
        return [
            _gather_right_column(self.right.column(right_name), name, match_index, matched)
            for right_name, name in self.output
        ]

    def null_columns(self, num_rows: int) -> list[Column]:
        """The augmented columns of a pruned chunk: all NULL, same schema.

        Identical to what :meth:`gather` returns for a chunk with no matches
        (categoricals keep the right table's dictionary), so pruned and probed
        chunks concatenate into exactly the unpruned result.
        """
        match_index = np.full(num_rows, -1, dtype=np.int64)
        return self.gather(match_index)

    def join_chunk(self, chunk: Table) -> Table:
        """One chunk's slice of the full LEFT-join output."""
        gathered = self.gather(self.probe_chunk(chunk))
        return Table(list(chunk.columns()) + gathered, name=chunk.name)


# per-process reader cache for chunk-parallel probing on the process backend
# (thread/serial backends share the source directly and never touch this)
_WORKER_SOURCES: dict = {}


def _resolve_worker_source(source_ref):
    if not isinstance(source_ref, tuple) or source_ref[0] != "file":
        return source_ref
    _tag, path, mmap = source_ref
    key = (path, mmap)
    reader = _WORKER_SOURCES.get(key)
    if reader is None:
        reader = open_chunks(path, mmap=mmap)
        _WORKER_SOURCES[key] = reader
    return reader


def _probe_chunk_task(shared, index: int):
    """Executor task: probe + gather one chunk, returning its augmented columns."""
    joiner, source_ref = shared
    source = _resolve_worker_source(source_ref)
    chunk = source.chunk(index, columns=joiner.left_keys)
    match_index = joiner.probe_chunk(chunk)
    return int((match_index >= 0).sum()), joiner.gather(match_index)


def _source_ref(source):
    """A picklable handle for executor workers (file-backed sources reopen)."""
    path = getattr(source, "path", None)
    if path is not None:
        return ("file", str(path), getattr(source, "_mmap", True))
    return source


def _chunk_waves(
    indices: Sequence[int], costs: Sequence[int], memory_budget: int | None
) -> list[list[int]]:
    """Group chunk indices into waves whose summed cost fits the budget.

    Order is preserved and every wave holds at least one chunk, so a budget
    smaller than a single chunk degrades to chunk-at-a-time streaming rather
    than failing.
    """
    if memory_budget is None or memory_budget <= 0:
        return [list(indices)] if indices else []
    waves: list[list[int]] = []
    current: list[int] = []
    current_cost = 0
    for index, cost in zip(indices, costs):
        if current and current_cost + cost > memory_budget:
            waves.append(current)
            current = []
            current_cost = 0
        current.append(index)
        current_cost += cost
    if current:
        waves.append(current)
    return waves


def estimate_source_nbytes(source) -> int:
    """Approximate payload bytes of a chunk source (page bytes when file-backed,
    an 8-bytes-per-cell estimate for in-memory tables) — the spill trigger."""
    source = as_chunk_source(source)
    return sum(source.chunk_nbytes(index) for index in range(source.num_chunks))


def needs_spill(right, memory_budget: int | None, spill_partitions: int | None) -> bool:
    """Whether a join against build side ``right`` runs in Grace spill mode:
    an explicit ``spill_partitions > 1`` forces it, otherwise a build side
    estimated above ``memory_budget`` bytes spills."""
    if spill_partitions is not None and spill_partitions > 1:
        return True
    return memory_budget is not None and estimate_source_nbytes(right) > memory_budget


def iter_streaming_left_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    executor=None,
    memory_budget: int | None = None,
    prune: bool = True,
    stats: StreamJoinStats | None = None,
    spill_partitions: int | None = None,
    spill_dir: str | Path | None = None,
) -> Iterator[Table]:
    """Yield the LEFT join of ``source`` (chunked) against ``right``, one
    output chunk at a time in base order.

    ``source`` is a :class:`~repro.relational.persist.ChunkedTableReader` or a
    :class:`Table`; ``right`` may be either as well.  The build side is
    prepared once; each base chunk is then probed independently — skipped
    entirely when its zone map cannot intersect the build side's key range
    (``prune``; sort-ordered sources binary-search their candidate chunk
    range) — and chunks are dispatched in waves whose estimated working set
    fits ``memory_budget`` bytes, fanned out over ``executor`` (any
    :class:`~repro.core.executor.JoinExecutor`).  A build side whose
    estimated bytes exceed ``memory_budget`` (or an explicit
    ``spill_partitions``) is never materialised: the join runs in the
    Grace-partitioned spill mode (:func:`iter_grace_left_join`) instead.
    Concatenating the yielded chunks reproduces ``left_join(source.table(),
    right, on)`` row for row; pass ``stats`` to collect pruning accounting.
    """
    source = as_chunk_source(source)
    if needs_spill(right, memory_budget, spill_partitions):
        yield from iter_grace_left_join(
            source,
            right,
            on,
            suffix=suffix,
            aggregate_duplicates=aggregate_duplicates,
            numeric_agg=numeric_agg,
            categorical_agg=categorical_agg,
            num_partitions=spill_partitions,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            prune=prune,
            stats=stats,
        )
        return
    if not isinstance(right, Table):
        right = as_chunk_source(right).table()
    joiner = StreamingHashJoin(
        right,
        on,
        source.schema(),
        suffix=suffix,
        aggregate_duplicates=aggregate_duplicates,
        numeric_agg=numeric_agg,
        categorical_agg=categorical_agg,
    )
    if stats is None:
        stats = StreamJoinStats()
    stats.chunks_total += source.num_chunks
    stats.rows_total += source.num_rows

    pruned = _pruned_flags(source, lambda: joiner.pruner, prune)

    extra_row_bytes = 8 * (len(joiner.output) + 2 * len(joiner.on))
    costs = []
    for index in range(source.num_chunks):
        start, stop = source.chunk_row_range(index)
        rows = stop - start
        costs.append(source.chunk_nbytes(index) + rows * extra_row_bytes)
    waves = _chunk_waves(list(range(source.num_chunks)), costs, memory_budget)

    use_pool = executor is not None and getattr(executor, "n_jobs", 1) > 1
    shared = (joiner, _source_ref(source)) if use_pool else None
    for wave in waves:
        gathered: dict[int, list[Column]] = {}
        to_probe = [index for index in wave if not pruned[index]]
        if use_pool and len(to_probe) > 1:
            results = executor.map_with_shared(_probe_chunk_task, shared, to_probe)
            for index, (matched, columns) in zip(to_probe, results):
                stats.rows_matched += matched
                gathered[index] = columns
        for index in wave:
            start, stop = source.chunk_row_range(index)
            rows = stop - start
            chunk = source.chunk(index)
            if pruned[index]:
                columns = joiner.null_columns(rows)
            elif index in gathered:
                columns = gathered[index]
            else:
                match_index = joiner.probe_chunk(chunk)
                stats.rows_matched += int((match_index >= 0).sum())
                columns = joiner.gather(match_index)
            if not pruned[index]:
                stats.chunks_probed += 1
                stats.rows_probed += rows
            yield Table(list(chunk.columns()) + columns, name=source.name)


def streaming_left_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    executor=None,
    memory_budget: int | None = None,
    prune: bool = True,
    spill_partitions: int | None = None,
    spill_dir: str | Path | None = None,
) -> tuple[Table, StreamJoinStats]:
    """LEFT-join a chunked source against ``right``, materialising the result.

    Equivalent to ``left_join(source.table(), right, on)`` — the same probe
    and gather kernels run per chunk and concatenate in chunk order — but the
    build side is prepared once, chunks stream under ``memory_budget``, and
    zone-map pruning skips chunks that cannot match.  A build side larger
    than the budget runs in Grace spill mode (identical output; see
    :func:`grace_left_join`).  Returns the joined table plus the pruning
    stats.  (The output itself is in memory; use
    :func:`repro.relational.persist.write_table_stream` over
    :func:`iter_streaming_left_join` to keep the result out-of-core.)
    """
    stats = StreamJoinStats()
    parts = list(
        iter_streaming_left_join(
            source,
            right,
            on,
            suffix=suffix,
            aggregate_duplicates=aggregate_duplicates,
            numeric_agg=numeric_agg,
            categorical_agg=categorical_agg,
            executor=executor,
            memory_budget=memory_budget,
            prune=prune,
            stats=stats,
            spill_partitions=spill_partitions,
            spill_dir=spill_dir,
        )
    )
    return _concat_parts(parts), stats


# -- Grace-partitioned spill join ---------------------------------------------


_HASH_MISSING = np.uint64(0x9E3779B97F4A7C15)
_SPILL_DONE = object()


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over a uint64 array (vectorised, wrapping)."""
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(33))
        x = x * np.uint64(0xFF51AFD7ED558CCD)
        x = x ^ (x >> np.uint64(33))
        x = x * np.uint64(0xC4CEB9FE1A85EC53)
        x = x ^ (x >> np.uint64(33))
    return x


def _key_hash_tokens(column: Column) -> np.ndarray:
    """Deterministic per-row uint64 tokens over one key column's *values*.

    Hashes values, never codes: categorical entries hash their UTF-8 text
    (both join sides agree no matter how their dictionaries assign codes),
    numerics hash their float64 bits with ``-0.0`` normalised to ``+0.0``
    (the probe kernels treat them equal, so they must co-partition).  Missing
    values map to a fixed sentinel — they never match anything, but left rows
    must still land in exactly one partition.
    """
    if column.ctype is CATEGORICAL:
        entry_hash = np.array(
            [
                int.from_bytes(
                    blake2b(str(text).encode("utf-8"), digest_size=8).digest(),
                    "little",
                )
                for text in column.dictionary
            ],
            dtype=np.uint64,
        )
        codes = column.codes
        tokens = np.full(len(codes), _HASH_MISSING, dtype=np.uint64)
        valid = codes >= 0
        if valid.any():
            tokens[valid] = entry_hash[codes[valid]]
        return tokens
    values = np.asarray(column.values, dtype=np.float64) + 0.0  # -0.0 -> +0.0
    tokens = values.view(np.uint64).copy()
    tokens[np.isnan(values)] = _HASH_MISSING
    return tokens


def _partition_ids(
    key_columns: Sequence[Column], num_partitions: int
) -> np.ndarray:
    """Partition id per row, identical for equal composite key values on both
    sides of a join (position-salted so symmetric keys don't cancel)."""
    acc = np.zeros(len(key_columns[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for position, column in enumerate(key_columns):
            salt = np.uint64(0x9E3779B97F4A7C15) * np.uint64(position + 1)
            acc = _mix64(acc ^ _mix64(_key_hash_tokens(column) ^ salt))
    return (acc % np.uint64(num_partitions)).astype(np.int64)


class _PartitionSpiller:
    """Fan one pass of row slices out to per-partition spill files.

    Each partition lazily starts a writer thread running
    :func:`~repro.relational.persist.write_table_stream` over a bounded queue
    the moment its first rows arrive — a partition that never receives a row
    never creates a file (``write_table_stream`` rejects empty streams).
    Writer errors are surfaced by :meth:`finish`; a failed writer keeps
    draining its queue so the producer never deadlocks.
    """

    def __init__(self, directory: Path, stem: str, num_partitions: int, chunk_rows: int):
        self._dir = Path(directory)
        self._stem = stem
        self._chunk_rows = chunk_rows
        self._queues: list[Queue | None] = [None] * num_partitions
        self._threads: list[threading.Thread | None] = [None] * num_partitions
        self._errors: list[BaseException | None] = [None] * num_partitions
        self.headers: list = [None] * num_partitions
        self._finished = False

    def path(self, partition: int) -> Path:
        return self._dir / f"{self._stem}-{partition:05d}.tbl"

    def push(self, partition: int, part: Table) -> None:
        queue = self._queues[partition]
        if queue is None:
            queue = Queue(maxsize=2)
            self._queues[partition] = queue
            thread = threading.Thread(
                target=self._writer, args=(partition,), daemon=True
            )
            self._threads[partition] = thread
            thread.start()
        queue.put(part)

    def _writer(self, partition: int) -> None:
        queue = self._queues[partition]
        try:
            self.headers[partition] = write_table_stream(
                self.path(partition),
                iter(queue.get, _SPILL_DONE),
                chunk_rows=self._chunk_rows,
            )
        except BaseException as exc:  # surfaced by finish()
            self._errors[partition] = exc
            while queue.get() is not _SPILL_DONE:
                pass

    def finish(self, check: bool = True) -> list[Path | None]:
        """Close all writers; return per-partition paths (``None`` = empty)."""
        if not self._finished:
            self._finished = True
            for queue in self._queues:
                if queue is not None:
                    queue.put(_SPILL_DONE)
            for thread in self._threads:
                if thread is not None:
                    thread.join()
        if check:
            for error in self._errors:
                if error is not None:
                    raise error
        return [
            self.path(p) if self._queues[p] is not None else None
            for p in range(len(self._queues))
        ]

    @property
    def bytes_written(self) -> int:
        return sum(h.pages_nbytes for h in self.headers if h is not None)


def _align_to_dictionaries(
    table: Table,
    dictionaries: dict[str, np.ndarray],
    indexes: dict[str, dict[str, int]],
) -> Table:
    """Re-express a spill partition's categorical codes in the global
    dictionaries of the right source, so per-partition joins gather columns
    carrying exactly the codes and dictionaries ``left_join`` would."""
    columns = []
    for col in table.columns():
        target = dictionaries.get(col.name)
        if col.ctype is CATEGORICAL and target is not None:
            translate = remap_dictionary(col.dictionary, indexes[col.name])
            columns.append(Column.from_codes(col.name, translate[col.codes], target))
        else:
            columns.append(col)
    return Table(columns, name=table.name)


class _SpillOutputCursor:
    """Sequential reader over one partition's ``(rowid, outputs)`` spill file.

    Row ids are globally ascending within each file (the left pass preserves
    base order), so the merge phase pulls each partition's rows for one base
    chunk with a single ``searchsorted`` and never rewinds.
    """

    def __init__(self, path: Path, rowid: str):
        self._reader = open_chunks(path, mmap=False)
        self._rowid = rowid
        self._iter = self._reader.iter_chunks()
        self._current: Table | None = None
        self._offset = 0
        self._translate: dict[str, np.ndarray] = {}

    @property
    def bytes_total(self) -> int:
        return self._reader.header.pages_nbytes

    def translate(self, name: str, index: dict[str, int]) -> np.ndarray:
        """Cached code translation from this file's dictionary to the global
        one (the extra trailing slot maps -1 to -1)."""
        cached = self._translate.get(name)
        if cached is None:
            cached = remap_dictionary(self._reader.dictionary(name), index)
            self._translate[name] = cached
        return cached

    def pull(self, stop: float) -> Iterator[Table]:
        """Yield maximal slices with ``rowid < stop``, advancing the cursor."""
        while True:
            if self._current is None:
                self._current = next(self._iter, None)
                self._offset = 0
                if self._current is None:
                    return
            rowids = self._current.column(self._rowid).values
            end = int(np.searchsorted(rowids, stop, side="left"))
            if end > self._offset:
                yield self._current.take(np.arange(self._offset, end))
                self._offset = end
            if end < len(rowids):
                return
            self._current = None


def iter_grace_left_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    num_partitions: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
    prune: bool = True,
    stats: StreamJoinStats | None = None,
) -> Iterator[Table]:
    """Grace-partitioned LEFT join: build side never materialised in full.

    Both sides are hash-partitioned on their key *values* into spill files
    (one streaming pass each; the left side spills only its key columns plus
    a row id, and only for rows that survive zone pruning and have no missing
    key part).  Each partition pair is then joined independently with the
    standard :class:`StreamingHashJoin` kernels — a key's rows land in the
    same partition on both sides, so per-partition pre-aggregation and
    first-match semantics equal the global ones — and the per-partition
    outputs are merged back into base order by scattering on the row id.
    Peak heap is bounded by one partition plus one base chunk; the yielded
    chunks concatenate to exactly ``left_join(source.table(),
    right.table(), on)`` — same values, same dictionaries.

    ``num_partitions`` defaults to ``ceil(right bytes / memory_budget)``.
    Spill files live in a fresh temporary directory under ``spill_dir``
    (default: the system temp dir) and are removed before the iterator is
    exhausted.
    """
    if not on:
        raise ValueError("grace join requires at least one key pair")
    source = as_chunk_source(source)
    right_source = as_chunk_source(right)
    on = [(left, right_key) for left, right_key in on]
    left_keys = [pair[0] for pair in on]
    right_keys = [pair[1] for pair in on]
    left_schema = source.schema()
    right_schema = right_source.schema()
    for key in left_keys:
        if key not in left_schema:
            raise KeyError(f"left source has no key column {key!r}")
    for key in right_keys:
        if key not in right_schema:
            raise KeyError(f"right source has no key column {key!r}")

    right_nbytes = estimate_source_nbytes(right_source)
    if num_partitions is None:
        budget = memory_budget if memory_budget and memory_budget > 0 else None
        num_partitions = -(-right_nbytes // budget) if budget else 1
    num_partitions = int(max(1, min(num_partitions, 512)))
    if stats is None:
        stats = StreamJoinStats()
    stats.chunks_total += source.num_chunks
    stats.rows_total += source.num_rows
    stats.spill_partitions += num_partitions

    # spill row groups sized so all partition writers' re-batch buffers stay
    # well under the budget together
    row_nbytes = 8 * max(1, len(right_schema.names))
    if memory_budget and memory_budget > 0:
        spill_chunk_rows = int(memory_budget // (2 * num_partitions * row_nbytes))
        spill_chunk_rows = max(256, min(DEFAULT_STREAM_CHUNK_ROWS, spill_chunk_rows))
    else:
        spill_chunk_rows = DEFAULT_STREAM_CHUNK_ROWS

    base_dir = Path(spill_dir) if spill_dir is not None else None
    if base_dir is not None:
        base_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="arda-spill-", dir=base_dir))
    spillers: list[_PartitionSpiller] = []
    try:
        # -- phase 1: partition the right side, gathering its key ranges ------
        right_spiller = _PartitionSpiller(
            tmp_dir, "right", num_partitions, spill_chunk_rows
        )
        spillers.append(right_spiller)
        num_lo = [np.inf] * len(on)
        num_hi = [-np.inf] * len(on)
        num_any = [False] * len(on)
        for chunk in right_source.iter_chunks():
            key_cols = [chunk.column(k) for k in right_keys]
            valid = np.ones(chunk.num_rows, dtype=bool)
            for pos, col in enumerate(key_cols):
                valid &= ~col.missing_mask()
                if col.ctype is not CATEGORICAL:
                    values = col.values[~np.isnan(col.values)]
                    if len(values):
                        num_any[pos] = True
                        num_lo[pos] = min(num_lo[pos], float(values.min()))
                        num_hi[pos] = max(num_hi[pos], float(values.max()))
            if not valid.any():
                continue  # rows with a missing key part can never match
            ids = _partition_ids(key_cols, num_partitions)
            for p in np.unique(ids[valid]):
                rows = np.nonzero(valid & (ids == p))[0]
                right_spiller.push(int(p), chunk.take(rows))
        right_paths = right_spiller.finish()
        stats.spill_bytes_written += right_spiller.bytes_written

        # build-side key ranges for pruning, without the build side: numeric
        # ranges ran along the pass; categorical keys use the right source's
        # file-level dictionary (a conservative superset of present values)
        ranges: list[tuple] = []
        for pos, right_key in enumerate(right_keys):
            if right_schema.type_of(right_key) is CATEGORICAL:
                ranges.append(
                    ("cat", [str(t) for t in right_source.dictionary(right_key)])
                )
            elif num_any[pos]:
                ranges.append(("num", num_lo[pos], num_hi[pos]))
            else:
                ranges.append(("num-empty",))
        pruned = _pruned_flags(
            source, lambda: KeyRangePruner(on, left_schema, ranges), prune
        )

        # -- phase 2: partition the left side's keys + row ids ----------------
        left_key_names = list(dict.fromkeys(left_keys))
        rowid_name = unique_name(
            "__grace_rowid__", set(left_schema.names) | set(right_schema.names), "_"
        )
        left_spiller = _PartitionSpiller(
            tmp_dir, "left", num_partitions, spill_chunk_rows
        )
        spillers.append(left_spiller)
        for index in range(source.num_chunks):
            if pruned[index]:
                continue
            start, stop = source.chunk_row_range(index)
            chunk = source.chunk(index, columns=left_key_names)
            stats.chunks_probed += 1
            stats.rows_probed += chunk.num_rows
            key_cols = [chunk.column(k) for k in left_keys]
            valid = np.ones(chunk.num_rows, dtype=bool)
            for col in key_cols:
                valid &= ~col.missing_mask()
            if not valid.any():
                continue
            ids = _partition_ids(key_cols, num_partitions)
            rowid_all = np.arange(start, stop, dtype=np.float64)
            for p in np.unique(ids[valid]):
                rows = np.nonzero(valid & (ids == p))[0]
                part = chunk.take(rows)
                columns = [
                    Column.from_array(rowid_name, rowid_all[rows], NUMERIC)
                ] + list(part.columns())
                left_spiller.push(int(p), Table(columns, name="left-keys"))
        left_paths = left_spiller.finish()
        stats.spill_bytes_written += left_spiller.bytes_written

        # -- output naming and dictionaries, from an empty reference build ----
        right_dicts = {
            name: right_source.dictionary(name)
            for name in right_schema.names
            if right_schema.type_of(name) is CATEGORICAL
        }
        right_indexes = {
            name: {str(text): code for code, text in enumerate(dictionary)}
            for name, dictionary in right_dicts.items()
        }

        def empty_right_table() -> Table:
            columns = []
            for name in right_schema.names:
                if right_schema.type_of(name) is CATEGORICAL:
                    columns.append(
                        Column.from_codes(
                            name, np.empty(0, dtype=np.int32), right_dicts[name]
                        )
                    )
                else:
                    columns.append(
                        Column.from_array(
                            name,
                            np.empty(0, dtype=np.float64),
                            right_schema.type_of(name),
                        )
                    )
            return Table(columns, name=right_source.name)

        reference = StreamingHashJoin(
            empty_right_table(),
            on,
            left_schema,
            suffix=suffix,
            aggregate_duplicates=aggregate_duplicates,
            numeric_agg=numeric_agg,
            categorical_agg=categorical_agg,
        )
        out_pairs = reference.output
        output_ctypes = {
            out_name: right_schema.type_of(right_name)
            for right_name, out_name in out_pairs
        }
        output_dicts = {
            out_name: right_dicts[right_name]
            for right_name, out_name in out_pairs
            if output_ctypes[out_name] is CATEGORICAL
        }
        output_indexes = {
            out_name: right_indexes[right_name]
            for right_name, out_name in out_pairs
            if output_ctypes[out_name] is CATEGORICAL
        }

        # -- phase 3: join each partition pair, spilling (rowid, outputs) -----
        def join_partition(partition: int) -> Path | None:
            right_path, left_path = right_paths[partition], left_paths[partition]
            if right_path is None or left_path is None:
                # nothing to match: those left rows stay all-NULL in the merge
                return None
            right_part = _align_to_dictionaries(
                read_table(right_path, mmap=False), right_dicts, right_indexes
            )
            stats.spill_bytes_read += right_spiller.headers[partition].pages_nbytes
            stats.spill_bytes_read += left_spiller.headers[partition].pages_nbytes
            joiner = StreamingHashJoin(
                right_part,
                on,
                left_schema,
                suffix=suffix,
                aggregate_duplicates=aggregate_duplicates,
                numeric_agg=numeric_agg,
                categorical_agg=categorical_agg,
            )
            reader = open_chunks(left_path, mmap=False)

            def parts() -> Iterator[Table]:
                for chunk in reader.iter_chunks():
                    match_index = joiner.probe_chunk(chunk)
                    stats.rows_matched += int((match_index >= 0).sum())
                    gathered = joiner.gather(match_index)
                    yield Table(
                        [chunk.column(rowid_name)] + gathered, name="grace-out"
                    )

            out_path = tmp_dir / f"out-{partition:05d}.tbl"
            header = write_table_stream(
                out_path, parts(), chunk_rows=spill_chunk_rows
            )
            stats.spill_bytes_written += header.pages_nbytes
            stats.spill_bytes_read += header.pages_nbytes  # merged back below
            return out_path

        cursors = []
        for partition in range(num_partitions):
            out_path = join_partition(partition)
            if out_path is not None:
                cursors.append(_SpillOutputCursor(out_path, rowid_name))

        # -- phase 4: merge per-partition outputs back into base order --------
        for index in range(source.num_chunks):
            start, stop = source.chunk_row_range(index)
            rows = stop - start
            chunk = source.chunk(index)
            arrays: dict[str, np.ndarray] = {}
            for _right_name, out_name in out_pairs:
                if output_ctypes[out_name] is CATEGORICAL:
                    arrays[out_name] = np.full(rows, -1, dtype=np.int32)
                else:
                    arrays[out_name] = np.full(rows, np.nan, dtype=np.float64)
            for cursor in cursors:
                for part in cursor.pull(stop):
                    ids = (part.column(rowid_name).values - start).astype(np.int64)
                    for _right_name, out_name in out_pairs:
                        col = part.column(out_name)
                        if output_ctypes[out_name] is CATEGORICAL:
                            translate = cursor.translate(
                                out_name, output_indexes[out_name]
                            )
                            arrays[out_name][ids] = translate[col.codes]
                        else:
                            arrays[out_name][ids] = col.values
            out_columns = []
            for _right_name, out_name in out_pairs:
                ctype = output_ctypes[out_name]
                if ctype is CATEGORICAL:
                    out_columns.append(
                        Column.from_codes(
                            out_name, arrays[out_name], output_dicts[out_name]
                        )
                    )
                else:
                    out_columns.append(
                        Column.from_array(out_name, arrays[out_name], ctype)
                    )
            yield Table(list(chunk.columns()) + out_columns, name=source.name)
    finally:
        for spiller in spillers:
            spiller.finish(check=False)
        shutil.rmtree(tmp_dir, ignore_errors=True)


def grace_left_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    num_partitions: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
    prune: bool = True,
) -> tuple[Table, StreamJoinStats]:
    """Materialised :func:`iter_grace_left_join`; returns (table, stats).

    Byte-identical to ``left_join(source.table(), right.table(), on)`` for
    every partition count, including 1.
    """
    stats = StreamJoinStats()
    parts = list(
        iter_grace_left_join(
            source,
            right,
            on,
            suffix=suffix,
            aggregate_duplicates=aggregate_duplicates,
            numeric_agg=numeric_agg,
            categorical_agg=categorical_agg,
            num_partitions=num_partitions,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            prune=prune,
            stats=stats,
        )
    )
    return _concat_parts(parts), stats
