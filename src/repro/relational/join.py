"""Hash LEFT joins on hard keys, in-memory and chunked.

Only LEFT joins are implemented because they are the only join type suitable
for data augmentation: every base-table row (training example) is preserved and
unmatched rows get NULLs, which are later imputed (paper section 4, "Joins").

One build-once probe-many join drives every path: :class:`StreamingHashJoin`
prepares the (small) build side once — pre-aggregation, output naming — and
joins the (large) base table one row group at a time.  Its build keys are
prepared on the first probe (:class:`_BuildKeys`: each key column's sorted
distinct values, the build rows packed mixed-radix over them, the first
build row of each distinct key), so probing a chunk only maps the chunk's
own keys into that domain — by direct address where the domain is a
near-contiguous run of integers, with ``searchsorted`` otherwise; the
zone-map pruner reads its key ranges off the same prepared keys.
:func:`left_join` is its one-chunk case: an in-memory :class:`Table` is
joined as a single chunk.

:func:`iter_grace_left_join` is the one chunked LEFT join: a hybrid hash
join that streams a base source (a
:class:`~repro.relational.persist.ChunkedTableReader` or a :class:`Table`)
one chunk at a time.  A build side whose estimated bytes fit
``memory_budget`` (or any build side, without a budget) is prepared in
memory as one :class:`StreamingHashJoin` and nothing spills.  A larger one
is hash-partitioned on the key values into spill files
(:func:`~repro.relational.persist.write_table_stream`) and each partition
is read back and pre-aggregated once.  Aggregated partitions stay in memory
while they fit the budget; only base rows of the partitions past that
prefix spill their keys, join partition by partition with the same
kernels, and merge back into base-row order.  Either way one loop then
reads each base chunk once and probes it in line against the resident
build side.  Chunks whose zone map cannot intersect the build side's key
range are **pruned**: their probe and gather are skipped entirely and they
contribute all-NULL augmented columns, which is exactly what the full probe
would have produced (a LEFT join keeps every base row, so pruning a chunk
removes work, never rows).  Sources whose file is sort-ordered on a join
key (``sort_by``) prune their candidate chunk range with two binary
searches over the zone bounds instead of scanning every zone entry.  The
output is byte-identical to ``left_join`` on the materialised tables (same
values, same dictionaries) for every budget and partition count.
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


# A numeric key domain of finite integers below 2**53 in magnitude gets a
# direct-address table when its span needs at most this many slots per
# distinct value, plus a fixed allowance; a sparser domain keeps searchsorted.
_SLOTS_PER_VALUE = 4
_SLOT_ALLOWANCE = 1024
_EXACT_INTEGERS = 2.0**53


class _BuildKeys:
    """The key columns of one build side, prepared once for every probe.

    Each key column keeps its distinct non-missing values: a numeric key as
    a sorted ``float64`` array (``-0.0`` and ``0.0`` are one value), a
    categorical key as a ``{text: code}`` index over the strings its rows
    hold.  Build rows with no missing key part are packed mixed-radix over
    those domains, and :attr:`unique_keys` holds each distinct packed key in
    sorted order with :attr:`first_rows`, the first build row carrying it
    (plus a trailing ``-1`` that a missing packed key gathers).

    A probe then maps left rows into the same domains and never touches the
    build keys again.  A categorical key is a dictionary remap.  A numeric
    domain of finite integers whose span is within :data:`_SLOTS_PER_VALUE`
    slots per value (see :func:`_direct_table`) is one gather from a
    direct-address table built here; any other numeric domain is a
    ``searchsorted``.  When the packed keys are exactly ``0..span-1`` —
    always for one key column, and for a composite key whose every
    combination occurs — a probe's packed key is its position in
    :attr:`unique_keys`, so :attr:`first_rows` is gathered directly;
    otherwise the packed keys are found with one more ``searchsorted``.
    When the packed span would overflow ``int64`` (only possible for very
    wide composite keys over huge domains), :attr:`unique_keys` is ``None``
    and probes take the dict-based path.
    """

    def __init__(self, key_columns: Sequence[Column]):
        self.columns = list(key_columns)
        self.domains: list[np.ndarray | dict[str, int]] = []
        self.direct: list[tuple[int, np.ndarray] | None] = []
        packed = None
        span = 1
        for col in self.columns:
            domain, codes = _key_domain(col)
            self.domains.append(domain)
            self.direct.append(_direct_table(domain))
            span *= max(len(domain), 1)
            packed = _pack(packed, codes, len(domain))
        self.unique_keys: np.ndarray | None = None
        self.first_rows = np.full(1, -1, dtype=np.int64)
        self.dense = False
        if span > 2**62:
            return
        rows = np.nonzero(packed >= 0)[0]
        order = np.argsort(packed[rows], kind="stable")
        sorted_keys = packed[rows][order]
        is_first = np.ones(len(sorted_keys), dtype=bool)
        is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self.unique_keys = sorted_keys[is_first]
        self.first_rows = np.append(rows[order][is_first], -1)
        self.dense = len(self.unique_keys) == span

    def ranges(self) -> list[tuple]:
        """The :class:`KeyRangePruner` ranges of these keys."""
        out: list[tuple] = []
        for domain in self.domains:
            if isinstance(domain, dict):
                out.append(("cat", list(domain)))
            elif len(domain):
                out.append(("num", float(domain[0]), float(domain[-1])))
            else:
                out.append(("num-empty",))
        return out

    def probe(self, left_columns: Sequence[Column]) -> np.ndarray:
        """First matching build row per left row (``-1``: no match).

        Rows with a missing key part never match, and a categorical key
        never equals a numeric one.
        """
        if self.unique_keys is None:
            return _match_via_hash_index(left_columns, self.columns)
        n = len(left_columns[0])
        if not len(self.unique_keys):
            return np.full(n, -1, dtype=np.int64)
        packed = None
        for col, domain, direct in zip(left_columns, self.domains, self.direct):
            codes = _domain_codes(col, domain, direct)
            if codes is None:
                return np.full(n, -1, dtype=np.int64)
            packed = _pack(packed, codes, len(domain))
        if self.dense:
            return self.first_rows[packed]
        positions = np.minimum(
            np.searchsorted(self.unique_keys, packed), len(self.unique_keys) - 1
        )
        hit = self.unique_keys[positions] == packed
        return np.where(hit, self.first_rows[positions], -1)


def _pack(packed: np.ndarray | None, codes: np.ndarray, radix: int) -> np.ndarray:
    """Append one key column's codes to the mixed-radix packed keys.

    A row missing any key part (code ``-1``) packs to ``-1``, which no build
    key equals.
    """
    if packed is None:
        return codes
    return np.where((codes < 0) | (packed < 0), -1, packed * radix + codes)


def _key_domain(col: Column) -> tuple[np.ndarray | dict[str, int], np.ndarray]:
    """One build key column's distinct values and each row's code in them
    (``-1`` = missing)."""
    if col.ctype is CATEGORICAL:
        present = np.unique(col.codes)
        index: dict[str, int] = {}
        for code in present[present >= 0]:
            index.setdefault(col.dictionary[code], len(index))
        translate = remap_dictionary(col.dictionary, index, grow=False)
        return index, translate[col.codes].astype(np.int64)
    values = col.values
    valid = ~np.isnan(values)
    domain, inverse = np.unique(values[valid], return_inverse=True)
    codes = np.full(len(values), -1, dtype=np.int64)
    codes[valid] = inverse
    return domain, codes


def _direct_table(domain: np.ndarray | dict[str, int]) -> tuple[int, np.ndarray] | None:
    """``(lo, table)`` with ``table[v - lo]`` the code of value ``v`` of a
    numeric key domain (``-1``: a hole), or ``None`` when the domain is
    categorical, empty, not all finite integers below 2**53 in magnitude, or
    spans more slots than it may fill."""
    if isinstance(domain, dict) or not len(domain):
        return None
    if not (-_EXACT_INTEGERS < domain[0] and domain[-1] < _EXACT_INTEGERS):
        return None
    values = domain.astype(np.int64)
    if not np.array_equal(values, domain):
        return None
    lo = int(values[0])
    slots = int(values[-1]) - lo + 1
    if slots > _SLOTS_PER_VALUE * len(domain) + _SLOT_ALLOWANCE:
        return None
    table = np.full(slots, -1, dtype=np.int64)
    table[values - lo] = np.arange(len(domain), dtype=np.int64)
    return lo, table


def _domain_codes(
    col: Column, domain: np.ndarray | dict[str, int], direct: tuple[int, np.ndarray] | None
) -> np.ndarray | None:
    """A left key column's codes in a build key's domain (``-1`` = missing or
    absent from the build side), or ``None`` for a categorical/numeric pair,
    which never matches.  ``direct`` is the domain's :func:`_direct_table`,
    when it has one: a value inside its span that is integral gathers its
    code there, and every other value (NaN and ±inf included) misses."""
    if isinstance(domain, dict):
        if col.ctype is not CATEGORICAL:
            return None
        return remap_dictionary(col.dictionary, domain, grow=False)[col.codes].astype(np.int64)
    if col.ctype is CATEGORICAL:
        return None
    values = col.values
    if not len(domain):
        return np.full(len(values), -1, dtype=np.int64)
    if direct is not None:
        lo, slots = direct
        inside = (values >= lo) & (values <= lo + len(slots) - 1)
        ints = np.where(inside, values, lo).astype(np.int64)
        hit = inside & (ints == values)
        return np.where(hit, slots[ints - lo], -1)
    positions = np.minimum(np.searchsorted(domain, values), len(domain) - 1)
    return np.where(domain[positions] == values, positions, -1)


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
) -> Table:
    """LEFT-join ``right`` onto ``left`` on the given key pairs.

    ``on`` is a sequence of ``(left_column, right_column)`` pairs (composite
    keys are supported by passing more than one pair).  If the right table is
    not unique on its key columns and ``aggregate_duplicates`` is True, it is
    first pre-aggregated (numeric columns by their mean, categorical ones by
    their mode) so the join cannot duplicate base-table rows; if
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
    )
    return joiner.join_chunk(left)


def _prepare_right(
    right: Table, right_keys: Sequence[str], aggregate_duplicates: bool
) -> Table:
    """Validate and (if needed) pre-aggregate the build side of a LEFT join
    (mean / mode, so every column keeps its type)."""
    for key in right_keys:
        right.column(key)
    if aggregate_duplicates and right.num_rows and not is_unique_on(right, right_keys):
        right = group_by_aggregate(right, right_keys)
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


# -- chunk sources, zone-map pruning and the build-once join -------------------


@dataclass
class StreamJoinStats:
    """Pruning, coverage and spill accounting of one chunked join.

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
    legacy version-1 file.
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


def _pruned_flags(
    source, make_pruner: Callable[[], KeyRangePruner], prune: bool
) -> list[bool]:
    """Per-chunk "provably cannot match" flags for one source.

    A source without zone maps (an in-memory table, a version-1 file) is
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
    one-chunk case, and :func:`iter_grace_left_join` probes every base chunk
    against one — and the object is picklable.  The build keys
    (:attr:`build_keys`) are prepared on the first probe, and the per-key
    value ranges (:attr:`pruner`) are read off them on first use, which only
    a source with zone maps ever asks for.  Preparation is deterministic, so
    threads racing a first probe agree on every match.
    """

    right: Table
    on: Sequence[tuple[str, str]]
    left_schema: Schema
    suffix: str = "_r"
    aggregate_duplicates: bool = True
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
        self.right = _prepare_right(self.right, self.right_keys, self.aggregate_duplicates)
        self.output = _output_names(
            self.right, self.right_keys, self.left_schema.names, self.suffix
        )

    @cached_property
    def build_keys(self) -> _BuildKeys:
        """The build side's key columns prepared for probing, on first use."""
        return _BuildKeys([self.right.column(k) for k in self.right_keys])

    @cached_property
    def pruner(self) -> KeyRangePruner:
        """Zone-map pruning against the build side's key ranges: numeric keys
        keep (min, max) over valid values; categorical keys keep their
        distinct strings (a chunk's code zone is translated through the base
        dictionary at prune time).  An empty range means no base row can ever
        match."""
        return KeyRangePruner(self.on, self.left_schema, self.build_keys.ranges())

    @property
    def output_names(self) -> list[str]:
        """Names of the augmented columns this join adds, in output order."""
        return [name for _right_name, name in self.output]

    # -- per-chunk kernels -----------------------------------------------------

    def probe_chunk(self, chunk: Table) -> np.ndarray:
        """First-match index into the prepared right table for each chunk row."""
        return self.build_keys.probe([chunk.column(k) for k in self.left_keys])

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


def estimate_source_nbytes(source) -> int:
    """Approximate payload bytes of a chunk source (page bytes when file-backed,
    an 8-bytes-per-cell estimate for in-memory tables): what a build side is
    weighed by against ``memory_budget``."""
    source = as_chunk_source(source)
    return sum(source.chunk_nbytes(index) for index in range(source.num_chunks))


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
        digests = b"".join(
            blake2b(str(text).encode("utf-8"), digest_size=8).digest()
            for text in column.dictionary
        )
        entry_hash = np.frombuffer(digests, dtype="<u8")
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
        self.rowid = rowid
        self._iter = self._reader.iter_chunks()
        self._current: Table | None = None
        self._offset = 0
        self._translate: dict[str, np.ndarray] = {}

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
            rowids = self._current.column(self.rowid).values
            end = int(np.searchsorted(rowids, stop, side="left"))
            if end > self._offset:
                yield self._current.take(np.arange(self._offset, end))
                self._offset = end
            if end < len(rowids):
                return
            self._current = None


def _overlay_spilled(
    columns: Sequence[Column],
    cursor: _SpillOutputCursor,
    start: int,
    stop: int,
    indexes: dict[str, dict[str, int]],
) -> None:
    """Scatter one spilled partition's outputs for base rows ``[start, stop)``
    into a chunk's gathered augmented ``columns``, in place.

    The gathered buffers are freshly allocated per chunk, and the resident
    probe left these rows NULL (their keys live in no resident partition),
    so each row takes exactly the value its own partition's join produced.
    """
    for part in cursor.pull(stop):
        ids = (part.column(cursor.rowid).values - start).astype(np.int64)
        for col in columns:
            spilled = part.column(col.name)
            if col.ctype is CATEGORICAL:
                translate = cursor.translate(col.name, indexes[col.name])
                col.codes[ids] = translate[spilled.codes]
            else:
                col.values[ids] = spilled.values


def _probe_base_chunks(
    source,
    resident: StreamingHashJoin,
    pruned: Sequence[bool],
    cursors: Sequence[_SpillOutputCursor],
    output_indexes: dict[str, dict[str, int]],
    stats: StreamJoinStats,
) -> Iterator[Table]:
    """The per-chunk loop of :func:`iter_grace_left_join`: each base chunk
    once, probed in line against the resident build side (all NULL when
    pruned), with every spilled partition's outputs (``cursors``) overlaid."""
    for index in range(source.num_chunks):
        start, stop = source.chunk_row_range(index)
        chunk = source.chunk(index)
        if pruned[index]:
            columns = resident.null_columns(stop - start)
        else:
            stats.chunks_probed += 1
            stats.rows_probed += stop - start
            match_index = resident.probe_chunk(chunk)
            stats.rows_matched += int((match_index >= 0).sum())
            columns = resident.gather(match_index)
            for cursor in cursors:
                _overlay_spilled(columns, cursor, start, stop, output_indexes)
        yield Table(list(chunk.columns()) + columns, name=source.name)


def iter_grace_left_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
    aggregate_duplicates: bool = True,
    num_partitions: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
    prune: bool = True,
    stats: StreamJoinStats | None = None,
) -> Iterator[Table]:
    """Hybrid hash LEFT join of ``source`` (chunked) against ``right``: yields
    one output table per base chunk, in base order.

    ``source`` and ``right`` are each a
    :class:`~repro.relational.persist.ChunkedTableReader` or a
    :class:`Table`.  With no ``num_partitions`` and a build side whose
    estimated bytes (:func:`estimate_source_nbytes`) fit ``memory_budget``,
    or no budget at all, the build side is prepared in memory as one
    :class:`StreamingHashJoin` and nothing spills: the outcome of the phases
    below when every partition stays resident, without the disk round trip.
    Otherwise the raw build side is never materialised in full:

    1. The build side is hash-partitioned on its key *values* into spill
       files, in one streaming pass.
    2. Each build partition is read back and pre-aggregated once, with the
       standard :class:`StreamingHashJoin` preparation: a key's rows all land
       in one partition, so per-partition pre-aggregation and first-match
       semantics equal the global ones.  Aggregated partitions stay resident,
       in partition order, while their summed estimated bytes fit
       ``memory_budget`` (all of them without a budget); together they form
       one in-memory build side.
    3. Only base rows of the partitions that did not stay resident take the
       Grace path: their key columns plus a row id spill per partition (rows
       that survive zone pruning and have no missing key part), each such
       partition pair joins with the standard kernels into an output spill
       file, and those outputs merge back into base order by row id.

    4. Either way, one loop (:func:`_probe_base_chunks`) then reads each base
       chunk once and probes it in line against the resident build side,
       unless its zone map proves it cannot match (``prune``; a sort-ordered
       source binary-searches its candidate chunk range), and scatters the
       spilled partitions' outputs over it.

    When every aggregated partition fits, the spill writes no base-side or
    output spill file at all.  Peak heap is the in-memory build side, or one
    raw build partition plus the resident partitions (at most the budget),
    plus one base chunk.  The yielded chunks concatenate to exactly
    ``left_join(source.table(), right.table(), on)`` — same values, same
    dictionaries — for every partition count and budget; pass ``stats`` to
    collect pruning and spill accounting.

    An explicit ``num_partitions`` forces the spill; without one a spilling
    build side takes ``ceil(right bytes / memory_budget)`` partitions.
    Spill files live in a fresh temporary directory under ``spill_dir``
    (default: the system temp dir) and are removed before the iterator is
    exhausted.
    """
    if not on:
        raise ValueError("a LEFT join requires at least one key pair")
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
    if stats is None:
        stats = StreamJoinStats()
    stats.chunks_total += source.num_chunks
    stats.rows_total += source.num_rows

    budget = memory_budget if memory_budget and memory_budget > 0 else None
    if num_partitions is None:
        right_nbytes = estimate_source_nbytes(right_source) if budget else 0
        if budget is None or right_nbytes <= budget:
            resident = StreamingHashJoin(
                right_source.table(),
                on,
                left_schema,
                suffix=suffix,
                aggregate_duplicates=aggregate_duplicates,
            )
            pruned = _pruned_flags(source, lambda: resident.pruner, prune)
            yield from _probe_base_chunks(source, resident, pruned, [], {}, stats)
            return
        num_partitions = -(-right_nbytes // budget)
    num_partitions = int(max(1, min(num_partitions, 512)))
    stats.spill_partitions += num_partitions

    # spill row groups sized so all partition writers' re-batch buffers stay
    # well under the budget together
    row_nbytes = 8 * max(1, len(right_schema.names))
    if budget:
        spill_chunk_rows = int(budget // (2 * num_partitions * row_nbytes))
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

        # every partition is re-expressed in the right source's dictionaries,
        # so joins gather the codes and dictionaries ``left_join`` would
        right_dicts = {
            name: right_source.dictionary(name)
            for name in right_schema.names
            if right_schema.type_of(name) is CATEGORICAL
        }
        right_indexes = {
            name: {str(text): code for code, text in enumerate(dictionary)}
            for name, dictionary in right_dicts.items()
        }

        def prepared_partition(partition: int) -> Table:
            """One build partition, read back and pre-aggregated."""
            stats.spill_bytes_read += right_spiller.headers[partition].pages_nbytes
            part = _align_to_dictionaries(
                read_table(right_paths[partition], mmap=False), right_dicts, right_indexes
            )
            return _prepare_right(part, right_keys, aggregate_duplicates)

        def prepared_join(build: Table) -> StreamingHashJoin:
            # the build is already prepared: aggregated partitions are unique
            # on their keys, and first-match partitions keep their row order
            return StreamingHashJoin(
                build, on, left_schema, suffix=suffix, aggregate_duplicates=False
            )

        # -- phase 2: aggregate each build partition once; a prefix stays -----
        # resident while the summed estimates fit the budget, as one build
        # side whose categorical codes are already in the source dictionaries
        resident_arrays: dict[str, list[np.ndarray]] = {
            name: [np.empty(0, dtype=np.int32 if name in right_dicts else np.float64)]
            for name in right_schema.names
        }
        resident_nbytes = 0
        spilled: list[int] = []
        held: Table | None = None  # the first partition that did not fit
        for partition, path in enumerate(right_paths):
            if path is None:
                continue  # no build rows: its base rows stay all-NULL
            if spilled:
                spilled.append(partition)
                continue
            build = prepared_partition(partition)
            nbytes = estimate_source_nbytes(build)
            if budget is None or resident_nbytes + nbytes <= budget:
                # reading each column resolves the aggregated keys' row views,
                # so no raw partition stays alive behind them
                for name, arrays in resident_arrays.items():
                    col = build.column(name)
                    arrays.append(col.codes if name in right_dicts else col.values)
                resident_nbytes += nbytes
            else:
                held = build
                spilled.append(partition)
        resident_columns = [
            Column.from_codes(name, np.concatenate(arrays), right_dicts[name])
            if name in right_dicts
            else Column.from_array(
                name, np.concatenate(arrays), right_schema.type_of(name)
            )
            for name, arrays in resident_arrays.items()
        ]
        del resident_arrays
        resident = prepared_join(Table(resident_columns, name=right_source.name))
        output_indexes = {
            out_name: right_indexes[right_name]
            for right_name, out_name in resident.output
            if right_name in right_indexes
        }

        # -- phase 3: the spilled partitions' base rows take the Grace path ---
        cursors: list[_SpillOutputCursor] = []
        if spilled:
            rowid_name = unique_name(
                "__grace_rowid__", set(left_schema.names) | set(right_schema.names), "_"
            )
            is_spilled = np.zeros(num_partitions, dtype=bool)
            is_spilled[spilled] = True
            left_key_names = list(dict.fromkeys(left_keys))
            left_spiller = _PartitionSpiller(
                tmp_dir, "left", num_partitions, spill_chunk_rows
            )
            spillers.append(left_spiller)
            for index in range(source.num_chunks):
                if pruned[index]:
                    continue
                start, stop = source.chunk_row_range(index)
                chunk = source.chunk(index, columns=left_key_names)
                key_cols = [chunk.column(k) for k in left_keys]
                valid = np.ones(chunk.num_rows, dtype=bool)
                for col in key_cols:
                    valid &= ~col.missing_mask()
                if not valid.any():
                    continue
                ids = _partition_ids(key_cols, num_partitions)
                valid &= is_spilled[ids]
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

            for partition in spilled:
                # the first spilled partition was prepared in phase 2 already
                build, held = held, None
                left_path = left_paths[partition]
                if left_path is None:
                    continue  # no base row to join: never read back
                if build is None:
                    build = prepared_partition(partition)
                stats.spill_bytes_read += left_spiller.headers[partition].pages_nbytes
                joiner = prepared_join(build)
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
                cursors.append(_SpillOutputCursor(out_path, rowid_name))

        # -- phase 4: each base chunk once, probed in line, spills overlaid ---
        yield from _probe_base_chunks(
            source, resident, pruned, cursors, output_indexes, stats
        )
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
    num_partitions: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
    prune: bool = True,
) -> tuple[Table, StreamJoinStats]:
    """Materialised :func:`iter_grace_left_join`; returns (table, stats).

    Byte-identical to ``left_join(source.table(), right.table(), on)`` for
    every partition count, including 1, and every ``memory_budget``: the
    budget only decides whether the build side spills and which aggregated
    build partitions stay resident.
    """
    stats = StreamJoinStats()
    parts = list(
        iter_grace_left_join(
            source,
            right,
            on,
            suffix=suffix,
            aggregate_duplicates=aggregate_duplicates,
            num_partitions=num_partitions,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            prune=prune,
            stats=stats,
        )
    )
    return _concat_parts(parts), stats
