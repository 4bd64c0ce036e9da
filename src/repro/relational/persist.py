"""Native binary columnar table format with memory-mapped lazy loading.

A ``.tbl`` file is a versioned header followed by 64-byte-aligned pages, one
per column and row group:

* numeric / datetime / boolean columns store their ``float64`` backing array
  verbatim in one **data page** per row group,
* categorical columns store their ``int32`` dictionary codes in one **codes
  page** per row group plus one compact file-level **dictionary page** (an
  ``int64`` offsets array and the concatenated UTF-8 bytes of the distinct
  strings, in dictionary order).

The header is a small JSON document (schema, row count, page extents and a
content fingerprint) so catalogs can be built from headers alone.  Reading a
table back with ``mmap=True`` (the default) maps the file copy-on-write and
wraps the numeric and code buffers as views into the mapping: loading touches
only the header and the (small) dictionary pages, and row data is paged in by
the OS on first access.  Writes go to a temporary file in the same directory
and are published with ``os.replace``, so an already-mapped reader keeps
seeing the old bytes (the old inode survives until its last mapping is
dropped) while new readers see the new table.

**Row groups (format version 2).**  Every file is written as one or more
row groups ("chunks") by one writer: :func:`write_table` slices an in-memory
table to the ``chunk_rows`` target (explicitly, or through the
``ARDA_CHUNK_ROWS`` environment variable; a table that fits the target, or
any table when no target is set, is one row group), and
:func:`write_table_stream` re-batches an iterator of chunks.  Dictionary
pages stay file-level (one shared dictionary per categorical column), while
each chunk gets its own aligned data/codes pages laid out chunk-major for
sequential streaming.  The header carries a **zone map**: per chunk, its row
count, page extents, per-column min/max (value range for float-backed
columns, code range for categoricals — valid because the dictionary is
file-wide) and a per-chunk content fingerprint.  :class:`ChunkedTableReader`
is the one reader: :func:`read_table` is its whole-table read (a one-chunk
file's columns are page views, so an mmap load stays lazy), and
:func:`open_chunks` yields one chunk at a time without ever materialising
the whole table; streaming consumers (the pruned streaming join, chunked
profiling, chunked binning) are built on it.  Legacy version-1 files, which
stored each column as one page without a zone map, read back as one
zone-less chunk.  The whole-table fingerprint depends on content, not on the
row-group layout, so profile caches, manifests and serving artifacts
validate identically against any layout.

Every byte explicitly read by this module is counted in a process-wide
counter (:func:`bytes_read` / :func:`reset_bytes_read`); memory-mapped pages
count as zero until the benchmark or caller actually faults them in, which is
what lets ``bench_persistence.py`` verify that opening a repository reads only
headers.  :func:`bytes_read_detail` splits the same total by what was read —
``header``, ``zone_map`` (the chunk section of a version-2 header),
``dictionary``, ``pages`` and ``manifest`` — so the cold-open assertion stays
meaningful at high chunk counts.

Besides single tables, the module defines the **repository manifest**: a
small versioned catalog file (:class:`RepositoryManifest`, published with
:func:`write_manifest` / read with :func:`read_manifest`) mapping table names
to ``{file, content fingerprint}`` under a monotonically increasing
generation number.  The manifest is what gives
:class:`~repro.discovery.repository.DataRepository` snapshot-isolated
concurrent reads and writes — see that module for the protocol.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import observability
from repro.relational.column import Column, concat_columns, remap_dictionary
from repro.relational.schema import CATEGORICAL, ColumnSpec, ColumnType, Schema
from repro.relational.table import Table

MAGIC = b"RPROTBLF"
FORMAT_VERSION = 1
CHUNKED_FORMAT_VERSION = 2
CHUNK_ROWS_ENV = "ARDA_CHUNK_ROWS"
DEFAULT_STREAM_CHUNK_ROWS = 65_536
_ALIGN = 64
_PREFIX_LEN = len(MAGIC) + 8  # magic + uint32 version + uint32 header length
# spill-to-file copy granularity; small enough that streaming writes stay
# bounded even under sub-megabyte memory budgets
_COPY_BLOCK = 1 << 18

_bytes_read = 0
_READ_KINDS = ("header", "zone_map", "dictionary", "pages", "manifest")
_bytes_read_detail = dict.fromkeys(_READ_KINDS, 0)


def bytes_read() -> int:
    """Total bytes explicitly read from table files since the last reset."""
    return _bytes_read


def bytes_read_detail() -> dict[str, int]:
    """The explicit-read byte counter split by what was read.

    Keys: ``header`` (file prefix + the non-chunk part of the header JSON),
    ``zone_map`` (the serialized per-chunk zone-map section of a version-2
    header), ``dictionary`` (categorical dictionary pages), ``pages``
    (data/codes pages actually read — zero for untouched memory-mapped pages)
    and ``manifest`` (repository manifest reads).  The values sum to
    :func:`bytes_read`.
    """
    return dict(_bytes_read_detail)


def reset_bytes_read() -> None:
    """Zero the explicit-read byte counters (see module docstring)."""
    global _bytes_read
    _bytes_read = 0
    for kind in _bytes_read_detail:
        _bytes_read_detail[kind] = 0


def _count(n: int, kind: str = "pages") -> None:
    global _bytes_read
    _bytes_read += n
    _bytes_read_detail[kind] += n


# the per-kind byte counters join the process-wide metrics registry as a
# pull-based source: the hot read path pays nothing, and `/metrics` callers
# see the very numbers bytes_read_detail() returns
observability.get_registry().register_source("persist.bytes_read", bytes_read_detail)


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def resolve_chunk_rows(chunk_rows: int | None = None) -> int | None:
    """Resolve a row-group target: explicit argument, else ``ARDA_CHUNK_ROWS``.

    Returns ``None`` for "no target": the table is written as one row group.
    An explicit ``0`` means one row group regardless of the environment (used
    by ``rechunk`` to collapse a chunked file); the environment variable is
    the fleet-wide override that lets CI run the whole test suite with small
    forced chunks.
    """
    if chunk_rows is not None:
        value = int(chunk_rows)
        if value < 0:
            raise ValueError(f"chunk_rows must be >= 0, got {chunk_rows}")
        return value or None
    env = os.environ.get(CHUNK_ROWS_ENV, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"{CHUNK_ROWS_ENV} must be an integer, got {env!r}") from None
    return value if value > 0 else None


def atomic_replace(path: Path, write_to) -> None:
    """Write a file atomically: unique temp sibling, then ``os.replace``.

    ``write_to`` receives the open binary handle.  A unique temp name (via
    ``tempfile.mkstemp`` in the target directory) means two concurrent writers
    never interleave — each assembles its own file and the last replace wins —
    and the temp file is removed if writing fails.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_to(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TableFormatError(ValueError):
    """A table file is not readable: bad magic, wrong version or truncated."""


class ManifestFormatError(TableFormatError):
    """A repository manifest is not readable: bad magic, version or payload."""


@dataclass
class PageRef:
    """Extent of one page, relative to the start of the file's page region."""

    offset: int
    nbytes: int


@dataclass
class ColumnMeta:
    """Header entry for one column: its type and where its pages live.

    The per-row pages live in the chunk entries, so ``data``/``codes`` are
    ``None`` here and only the file-level ``dictionary`` page remains; a
    legacy version-1 file sets them instead of a zone map.
    """

    name: str
    ctype: ColumnType
    data: PageRef | None = None  # float64 page (non-categorical)
    codes: PageRef | None = None  # int32 page (categorical)
    dictionary: PageRef | None = None  # offsets + utf-8 page (categorical)
    dict_count: int = 0
    dict_exact: bool = False


@dataclass
class ChunkMeta:
    """Zone-map entry for one row group.

    ``pages`` and ``zones`` are aligned with the header's column order.  A
    zone is ``(min, max)`` over the chunk's valid values — the value range for
    float-backed columns, the code range for categoricals (comparable across
    chunks because the dictionary is file-level) — or ``None`` when the chunk
    holds no valid value for that column.  ``fingerprint`` hashes the chunk's
    page payloads in column order, so chunk-level corruption is detectable
    without reading the rest of the file.
    """

    rows: int
    pages: list[PageRef]
    zones: list[tuple[float, float] | None]
    fingerprint: str
    row_start: int = 0

    def nbytes(self) -> int:
        """Total payload bytes of this chunk's pages."""
        return sum(ref.nbytes for ref in self.pages)


@dataclass
class TableHeader:
    """Everything `DataRepository.open` needs without touching row data."""

    name: str
    num_rows: int
    fingerprint: str
    columns: list[ColumnMeta]
    pages_start: int
    pages_nbytes: int
    # free-form writer-supplied metadata (e.g. ingestion provenance); not part
    # of the content fingerprint
    meta: dict | None = None
    # the row-group zone map (None only for a legacy version-1 file) and the
    # target the writer aimed for (None: the table was written as one group)
    chunks: list[ChunkMeta] | None = None
    chunk_rows: int | None = None

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    @property
    def num_chunks(self) -> int:
        """Row groups in the file (1 for a legacy version-1 file)."""
        return len(self.chunks) if self.chunks else 1

    @property
    def sort_by(self) -> str | None:
        """Name of the column the file's rows are ordered by, or ``None``.

        Recorded by :func:`write_table_stream` (and ``rechunk(sort_by=...)``)
        after validating that the chunk zone maps of that column are
        monotonically non-decreasing, so readers may binary-search pruned
        chunk ranges instead of scanning every zone entry.
        """
        return (self.meta or {}).get("sort_by")

    def schema(self) -> Schema:
        """The stored table's schema."""
        return Schema([ColumnSpec(col.name, col.ctype) for col in self.columns])


# -- fingerprinting ----------------------------------------------------------


def _encode_dictionary(dictionary) -> bytes:
    """Canonical dictionary page payload: int64 offsets + concatenated UTF-8."""
    encoded = [str(entry).encode("utf-8") for entry in dictionary]
    offsets = np.zeros(len(encoded) + 1, dtype="<i8")
    if encoded:
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return offsets.tobytes() + b"".join(encoded)


def _column_payloads(column: Column):
    """Yield the raw page payload bytes of one column, in a canonical order.

    The same byte stream feeds both the file pages and the content
    fingerprint, so a fingerprint computed from an in-memory table matches the
    one stored in the header its ``save()`` produces.
    """
    if column.ctype is CATEGORICAL:
        codes = np.ascontiguousarray(column.codes, dtype="<i4")
        yield "codes", codes.tobytes()
        yield "dict", _encode_dictionary(column.dictionary)
    else:
        yield "data", np.ascontiguousarray(column.values, dtype="<f8").tobytes()


def table_fingerprint(table: Table) -> str:
    """Content fingerprint of a table (hex), matching the stored header's.

    Hashes the schema plus every column's canonical page bytes, so two tables
    fingerprint equal iff they would serialise to identical pages (dictionary
    order included).  The fingerprint is independent of the row-group layout:
    a file stores the same value whatever its chunk count.  Used to key
    persisted column profiles.
    """
    hasher = blake2b(digest_size=16)
    for column in table.columns():
        hasher.update(column.name.encode("utf-8"))
        hasher.update(column.ctype.value.encode("ascii"))
        for _kind, payload in _column_payloads(column):
            hasher.update(payload)
    return hasher.hexdigest()


# -- writing -----------------------------------------------------------------


def write_table(
    table: Table,
    path: str | Path,
    meta: dict | None = None,
    chunk_rows: int | None = None,
) -> TableHeader:
    """Serialise ``table`` to ``path`` atomically; returns the written header.

    The file is assembled in a uniquely-named temporary sibling and published
    with ``os.replace``, so concurrent readers either see the old complete
    file or the new complete file, existing memory maps stay valid, and two
    concurrent writers cannot interleave (last replace wins).  ``meta`` is an
    optional JSON-serialisable dict stored in the header (e.g. ingestion
    provenance); it does not affect the content fingerprint.

    ``chunk_rows`` selects the row-group target (``None`` defers to the
    ``ARDA_CHUNK_ROWS`` environment variable, ``0`` means one row group
    whatever the row count).  A table that fits the target is written as one
    row group, a larger one as row groups of ``chunk_rows`` rows; either way
    the file is version 2, with a zone map, and stores each categorical
    column's ``dictionary_is_exact`` flag.
    """
    target = resolve_chunk_rows(chunk_rows)
    num_rows = table.num_rows
    if target is None or num_rows <= target:
        parts: Iterable[Table] = [table]
    else:
        parts = (
            table.take(np.arange(start, min(start + target, num_rows)))
            for start in range(0, num_rows, target)
        )
    # the table is in memory already, so its pages are staged in memory too
    return _write_row_groups(Path(path), table.name, table, parts, io.BytesIO(), target, meta)


def _column_zone(ctype: ColumnType, page: np.ndarray) -> tuple[float, float] | None:
    """Min/max of one chunk's valid values, or ``None`` if all missing."""
    valid = page[page >= 0] if ctype is CATEGORICAL else page[~np.isnan(page)]
    if not len(valid):
        return None
    return float(valid.min()), float(valid.max())


@dataclass
class _ColumnPages:
    """One column's file-level state while its row groups are laid out.

    A categorical column adopts the first row group's dictionary.  A row
    group sharing that dictionary object keeps its codes; only one with
    another dictionary is remapped, and its unseen entries extend the file
    dictionary in the order they are met.
    """

    name: str
    ctype: ColumnType
    dictionary: np.ndarray | None = None
    exact: bool = False
    index: dict[str, int] | None = None

    @classmethod
    def of(cls, column: Column) -> "_ColumnPages":
        if column.ctype is CATEGORICAL:
            return cls(column.name, column.ctype, column.dictionary, column.dictionary_is_exact)
        return cls(column.name, column.ctype)

    def page(self, column: Column) -> np.ndarray:
        """One row group's page of this column, contiguous little-endian."""
        if column.ctype is not self.ctype:
            raise ValueError(
                f"column {self.name!r} changed type across chunks "
                f"({self.ctype.value} vs {column.ctype.value})"
            )
        if self.ctype is not CATEGORICAL:
            return np.ascontiguousarray(column.values, dtype="<f8")
        codes = column.codes
        if column.dictionary is not self.dictionary:
            if self.index is None:
                self.index = {text: code for code, text in enumerate(self.dictionary)}
            codes = remap_dictionary(column.dictionary, self.index)[codes]
        return np.ascontiguousarray(codes, dtype="<i4")

    def file_dictionary(self) -> tuple[np.ndarray, bool]:
        """The file-level dictionary and its exactness flag.  An exact first
        dictionary stays exact while no later row group adds an entry."""
        if self.index is None or len(self.index) == len(self.dictionary):
            return self.dictionary, self.exact
        merged = np.empty(len(self.index), dtype=object)
        for text, code in self.index.items():
            merged[code] = text
        return merged, False


def _write_page(handle, payload) -> int:
    """Write one page plus its zero padding; returns the aligned length."""
    nbytes = memoryview(payload).nbytes
    handle.write(payload)
    pad = _align(nbytes) - nbytes
    if pad:
        handle.write(b"\x00" * pad)
    return nbytes + pad


def _staged_blocks(pages, offset: int, nbytes: int, path: Path) -> Iterator[bytes]:
    """Read ``nbytes`` staged bytes back from ``offset`` in bounded blocks."""
    pages.seek(offset)
    while nbytes:
        block = pages.read(min(nbytes, _COPY_BLOCK))
        if not block:
            raise TableFormatError(f"{path}: truncated spill file")
        yield block
        nbytes -= len(block)


def _check_sorted_zones(
    path: Path, sort_by: str, names: list[str], chunks_meta: list[ChunkMeta]
) -> None:
    """Validate the sort-order claim of a streamed write.

    The ``sort_by`` column's chunk zones must be monotonically non-decreasing
    (``prev.max <= next.min``) with all-missing (``None``) zones only in a
    trailing run — exactly the property the reader's binary-search pruning
    relies on.  A sorted stream satisfies this by construction for numeric
    columns (NaNs ordered last) and for categoricals too, because the shared
    file-level dictionary assigns codes in first-appearance order, which under
    a sorted stream is ascending value order.
    """
    pos = names.index(sort_by)
    prev_max: float | None = None
    seen_none = False
    for index, chunk in enumerate(chunks_meta):
        zone = chunk.zones[pos]
        if zone is None:
            seen_none = True
            continue
        if seen_none:
            raise ValueError(
                f"{path}: sort_by={sort_by!r} violated — chunk {index} has "
                f"values after an all-missing chunk (missing must sort last)"
            )
        lo, hi = zone
        if prev_max is not None and lo < prev_max:
            raise ValueError(
                f"{path}: sort_by={sort_by!r} violated — chunk {index} starts "
                f"at {lo} below previous chunk max {prev_max}"
            )
        prev_max = hi


def _write_row_groups(
    path: Path,
    name: str,
    template: Table,
    parts: Iterable[Table],
    pages,
    chunk_rows: int | None,
    meta: dict | None,
    sort_by: str | None = None,
) -> TableHeader:
    """Lay out ``parts`` as the row groups of one version-2 file and publish it.

    The one writer behind :func:`write_table` and :func:`write_table_stream`.
    ``template`` fixes the column order and types and seeds each categorical
    column's file dictionary (see :class:`_ColumnPages`).  Each part's pages
    are staged in the binary file object ``pages`` as the part arrives, with
    its zone map and chunk fingerprint.  The whole-table fingerprint is then
    hashed column-major over the staged pages, so it equals
    :func:`table_fingerprint` of the concatenated table whatever the layout,
    and the header, the file-level dictionary pages and the staged chunk
    pages are published atomically.  ``chunk_rows`` is the target recorded
    in the header (``None``: one row group).
    """
    columns = [_ColumnPages.of(column) for column in template.columns()]
    chunks: list[ChunkMeta] = []
    num_rows = 0
    staged = 0
    for part in parts:
        refs: list[PageRef] = []
        zones: list[tuple[float, float] | None] = []
        chunk_hasher = blake2b(digest_size=16)
        for state in columns:
            page = state.page(part.column(state.name))
            chunk_hasher.update(page)
            refs.append(PageRef(offset=staged, nbytes=page.nbytes))
            staged += _write_page(pages, page)
            zones.append(_column_zone(state.ctype, page))
        chunks.append(
            ChunkMeta(
                rows=part.num_rows,
                pages=refs,
                zones=zones,
                fingerprint=chunk_hasher.hexdigest(),
                row_start=num_rows,
            )
        )
        num_rows += part.num_rows
    if sort_by is not None:
        _check_sorted_zones(path, sort_by, [state.name for state in columns], chunks)

    # whole-table fingerprint in canonical column-major payload order; the
    # file-level dictionary pages come first in the page region
    hasher = blake2b(digest_size=16)
    columns_meta: list[ColumnMeta] = []
    dict_pages: list[bytes] = []
    dict_nbytes = 0
    for pos, state in enumerate(columns):
        hasher.update(state.name.encode("utf-8"))
        hasher.update(state.ctype.value.encode("ascii"))
        for chunk in chunks:
            ref = chunk.pages[pos]
            for block in _staged_blocks(pages, ref.offset, ref.nbytes, path):
                hasher.update(block)
        col_meta = ColumnMeta(name=state.name, ctype=state.ctype)
        if state.ctype is CATEGORICAL:
            dictionary, exact = state.file_dictionary()
            payload = _encode_dictionary(dictionary)
            hasher.update(payload)
            col_meta.dictionary = PageRef(offset=dict_nbytes, nbytes=len(payload))
            col_meta.dict_count = len(dictionary)
            col_meta.dict_exact = exact
            dict_pages.append(payload)
            dict_nbytes = _align(dict_nbytes + len(payload))
        columns_meta.append(col_meta)
    for chunk in chunks:
        chunk.pages = [
            PageRef(offset=ref.offset + dict_nbytes, nbytes=ref.nbytes) for ref in chunk.pages
        ]

    header = TableHeader(
        name=name,
        num_rows=num_rows,
        fingerprint=hasher.hexdigest(),
        columns=columns_meta,
        pages_start=0,
        pages_nbytes=dict_nbytes + staged,
        meta=meta or None,
        chunks=chunks,
        chunk_rows=chunk_rows,
    )
    doc = {
        "name": name,
        "num_rows": num_rows,
        "fingerprint": header.fingerprint,
        "columns": [_meta_to_doc(col_meta) for col_meta in columns_meta],
        "chunk_rows": chunk_rows,
        "chunks": [_chunk_to_doc(chunk) for chunk in chunks],
    }
    if meta:
        doc["meta"] = meta
    header_bytes = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    header.pages_start = _align(_PREFIX_LEN + len(header_bytes))

    def write_to(handle):
        handle.write(MAGIC)
        handle.write(CHUNKED_FORMAT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(4, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (header.pages_start - _PREFIX_LEN - len(header_bytes)))
        for payload in dict_pages:
            _write_page(handle, payload)
        for block in _staged_blocks(pages, 0, staged, path):
            handle.write(block)

    atomic_replace(path, write_to)
    return header


def _meta_to_doc(meta: ColumnMeta) -> dict:
    doc: dict = {"name": meta.name, "ctype": meta.ctype.value}
    if meta.data is not None:
        doc["data"] = [meta.data.offset, meta.data.nbytes]
    if meta.codes is not None:
        doc["codes"] = [meta.codes.offset, meta.codes.nbytes]
    if meta.dictionary is not None:
        doc["dict"] = [meta.dictionary.offset, meta.dictionary.nbytes, meta.dict_count]
        doc["dict_exact"] = meta.dict_exact
    return doc


def _meta_from_doc(doc: dict) -> ColumnMeta:
    meta = ColumnMeta(name=doc["name"], ctype=ColumnType(doc["ctype"]))
    if "data" in doc:
        meta.data = PageRef(*doc["data"])
    if "codes" in doc:
        meta.codes = PageRef(*doc["codes"])
    if "dict" in doc:
        offset, nbytes, count = doc["dict"]
        meta.dictionary = PageRef(offset, nbytes)
        meta.dict_count = count
        meta.dict_exact = bool(doc.get("dict_exact", False))
    return meta


def _chunk_to_doc(chunk: ChunkMeta) -> dict:
    return {
        "rows": chunk.rows,
        "pages": [[ref.offset, ref.nbytes] for ref in chunk.pages],
        "zones": [list(zone) if zone is not None else None for zone in chunk.zones],
        "fp": chunk.fingerprint,
    }


def _chunk_from_doc(doc: dict, row_start: int) -> ChunkMeta:
    return ChunkMeta(
        rows=int(doc["rows"]),
        pages=[PageRef(*ref) for ref in doc["pages"]],
        zones=[tuple(zone) if zone is not None else None for zone in doc["zones"]],
        fingerprint=doc["fp"],
        row_start=row_start,
    )


# -- repository manifest ------------------------------------------------------

MANIFEST_MAGIC = b"RPROMANF"
MANIFEST_VERSION = 1
_MANIFEST_PREFIX_LEN = len(MANIFEST_MAGIC) + 8  # magic + uint32 version + uint32 length


@dataclass
class ManifestEntry:
    """One table of a manifest generation: its file name and content identity."""

    file: str
    fingerprint: str
    num_rows: int = 0


@dataclass
class RepositoryManifest:
    """A versioned catalog of a repository directory: one committed generation.

    The manifest is the unit of snapshot isolation for disk-backed
    repositories: writers assemble the next ``{table name → ManifestEntry}``
    map, bump ``generation`` by one and publish the whole document in a single
    ``os.replace`` (:func:`write_manifest`), so a concurrent reader opening
    the file sees either the previous complete generation or the new complete
    generation, never a mix.  ``generation`` is strictly monotonically
    increasing over the lifetime of a directory; snapshot readers use it to
    order their observations.
    """

    generation: int
    tables: dict[str, ManifestEntry]

    def files(self) -> set[str]:
        """The file names referenced by this generation."""
        return {entry.file for entry in self.tables.values()}


def write_manifest(path: str | Path, manifest: RepositoryManifest) -> None:
    """Publish a manifest generation atomically (temp sibling + ``os.replace``).

    The payload is ``MANIFEST_MAGIC`` + little-endian uint32 version + uint32
    JSON length + the JSON document, assembled in a uniquely-named temp file
    so a crash between the temp write and the replace leaves only ``*.tmp``
    debris next to an intact previous generation.
    """
    path = Path(path)
    if manifest.generation < 0:
        raise ValueError(f"manifest generation must be >= 0, got {manifest.generation}")
    doc = {
        "generation": manifest.generation,
        "tables": {
            name: {
                "file": entry.file,
                "fingerprint": entry.fingerprint,
                "num_rows": entry.num_rows,
            }
            for name, entry in manifest.tables.items()
        },
    }
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")

    def write_to(handle):
        handle.write(MANIFEST_MAGIC)
        handle.write(MANIFEST_VERSION.to_bytes(4, "little"))
        handle.write(len(payload).to_bytes(4, "little"))
        handle.write(payload)

    atomic_replace(path, write_to)


def read_manifest(path: str | Path) -> RepositoryManifest:
    """Read a manifest written by :func:`write_manifest`.

    Raises :class:`ManifestFormatError` on bad magic, an unsupported version,
    a truncated payload or a malformed document — a manifest is either a
    complete committed generation or an error, never a partial catalog.
    """
    path = Path(path)
    with path.open("rb") as handle:
        prefix = handle.read(_MANIFEST_PREFIX_LEN)
        _count(len(prefix), "manifest")
        if len(prefix) < _MANIFEST_PREFIX_LEN or prefix[: len(MANIFEST_MAGIC)] != MANIFEST_MAGIC:
            raise ManifestFormatError(f"{path}: not a repository manifest (bad magic)")
        version = int.from_bytes(prefix[len(MANIFEST_MAGIC) : len(MANIFEST_MAGIC) + 4], "little")
        if version != MANIFEST_VERSION:
            raise ManifestFormatError(
                f"{path}: unsupported manifest version {version} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        length = int.from_bytes(prefix[len(MANIFEST_MAGIC) + 4 :], "little")
        payload = handle.read(length)
        _count(len(payload), "manifest")
    if len(payload) < length:
        raise ManifestFormatError(f"{path}: truncated manifest payload")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(f"{path}: corrupt manifest JSON: {exc}") from None
    generation = doc.get("generation")
    tables_doc = doc.get("tables")
    if not isinstance(generation, int) or generation < 0 or not isinstance(tables_doc, dict):
        raise ManifestFormatError(f"{path}: malformed manifest document")
    tables: dict[str, ManifestEntry] = {}
    for name, entry in tables_doc.items():
        try:
            tables[name] = ManifestEntry(
                file=entry["file"],
                fingerprint=entry["fingerprint"],
                num_rows=int(entry.get("num_rows", 0)),
            )
        except (TypeError, KeyError) as exc:
            raise ManifestFormatError(
                f"{path}: malformed manifest entry for table {name!r}: {exc}"
            ) from None
    return RepositoryManifest(generation=generation, tables=tables)


# -- reading -----------------------------------------------------------------


def read_table_header(path: str | Path) -> TableHeader:
    """Read only the header of a table file (magic, version, schema, pages).

    This is the whole cost of cataloguing a table: a repository ``open`` over
    hundreds of files reads a few hundred bytes per file (plus the zone-map
    section, attributed separately in :func:`bytes_read_detail`).
    ``pages_nbytes`` is the aligned length of the page region, so
    ``pages_start + pages_nbytes`` is the size of the file.
    """
    path = Path(path)
    with path.open("rb") as handle:
        prefix = handle.read(_PREFIX_LEN)
        if len(prefix) < _PREFIX_LEN or prefix[: len(MAGIC)] != MAGIC:
            _count(len(prefix), "header")
            raise TableFormatError(f"{path}: not a table file (bad magic)")
        version = int.from_bytes(prefix[len(MAGIC) : len(MAGIC) + 4], "little")
        if version not in (FORMAT_VERSION, CHUNKED_FORMAT_VERSION):
            _count(len(prefix), "header")
            raise TableFormatError(
                f"{path}: unsupported table format version {version} (this build "
                f"reads versions {FORMAT_VERSION} and {CHUNKED_FORMAT_VERSION})"
            )
        header_len = int.from_bytes(prefix[len(MAGIC) + 4 :], "little")
        header_bytes = handle.read(header_len)
    if len(header_bytes) < header_len:
        _count(len(prefix) + len(header_bytes), "header")
        raise TableFormatError(f"{path}: truncated header")
    try:
        doc = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        _count(len(prefix) + len(header_bytes), "header")
        raise TableFormatError(f"{path}: corrupt header JSON: {exc}") from None

    # attribute the zone-map share of the header separately so the
    # headers-only cold-open assertion stays meaningful at high chunk counts
    zone_bytes = 0
    if "chunks" in doc:
        zone_bytes = len(json.dumps(doc["chunks"], separators=(",", ":")).encode("utf-8"))
    _count(len(prefix) + len(header_bytes) - zone_bytes, "header")
    if zone_bytes:
        _count(zone_bytes, "zone_map")

    columns = [_meta_from_doc(col) for col in doc["columns"]]
    chunks: list[ChunkMeta] | None = None
    if "chunks" in doc:
        chunks = []
        row_start = 0
        for chunk_doc in doc["chunks"]:
            chunk = _chunk_from_doc(chunk_doc, row_start)
            if len(chunk.pages) != len(columns) or len(chunk.zones) != len(columns):
                raise TableFormatError(f"{path}: malformed chunk entry in header")
            row_start += chunk.rows
            chunks.append(chunk)
        if row_start != doc["num_rows"]:
            raise TableFormatError(
                f"{path}: chunk rows sum to {row_start}, header says {doc['num_rows']}"
            )
    # every writer pads each page, so the page region ends on the alignment
    # after the last page: pages_start + pages_nbytes is the file size
    refs = [ref for meta in columns for ref in (meta.data, meta.codes, meta.dictionary)]
    refs += [ref for chunk in chunks or () for ref in chunk.pages]
    pages_end = max((ref.offset + ref.nbytes for ref in refs if ref is not None), default=0)
    return TableHeader(
        name=doc["name"],
        num_rows=doc["num_rows"],
        fingerprint=doc["fingerprint"],
        columns=columns,
        pages_start=_align(_PREFIX_LEN + header_len),
        pages_nbytes=_align(pages_end),
        meta=doc.get("meta"),
        chunks=chunks,
        chunk_rows=doc.get("chunk_rows"),
    )


def _decode_dictionary(page: np.ndarray, count: int) -> np.ndarray:
    """Decode a dictionary page (uint8 array) into an object array of strings."""
    offsets = page[: 8 * (count + 1)].view("<i8").tolist()
    blob = page[8 * (count + 1) :].tobytes()
    dictionary = np.empty(count, dtype=object)
    for i in range(count):
        dictionary[i] = blob[offsets[i] : offsets[i + 1]].decode("utf-8")
    return dictionary


def read_table(path: str | Path, mmap: bool = True) -> Table:
    """Load a table written by :func:`write_table`.

    With ``mmap=True`` (default) numeric and code buffers are copy-on-write
    views into a single ``np.memmap`` of the file: loading a one-chunk file
    reads only the header and dictionary pages, and the mapping stays valid
    even if the file is later replaced via :func:`write_table`
    (``os.replace`` keeps the old inode alive for existing maps).  With
    ``mmap=False`` every page is read into process memory up front.

    A file of several row groups loads transparently: per-chunk pages are
    stitched into whole columns, which materialises the data — callers that
    want bounded memory should stream through :func:`open_chunks` instead.
    """
    return ChunkedTableReader(path, mmap=mmap).table()


# -- chunked reading ----------------------------------------------------------


class ChunkedTableReader:
    """Read a table file: the whole table, or one row group at a time.

    A version-2 file exposes its row groups and zone maps.  A legacy
    version-1 file (written before every table became version 2) presents
    as a single implicit chunk with :attr:`has_zones` False, so every
    consumer reads both with one code path.  With ``mmap=True`` (default)
    chunk pages are copy-on-write views into one file mapping — iterating the
    table keeps at most one chunk's touched pages resident, and the reader
    survives the file being atomically replaced.  ``chunks_read`` /
    :attr:`num_chunks` feed the pruning-ratio accounting of the streaming
    join.
    """

    def __init__(self, path: str | Path, mmap: bool = True, header: TableHeader | None = None):
        self.path = Path(path)
        self.header = header if header is not None else read_table_header(self.path)
        file_size = self.path.stat().st_size
        if self.header.pages_start + self.header.pages_nbytes > file_size:
            raise TableFormatError(
                f"{self.path}: truncated file ({file_size} bytes, header describes "
                f"{self.header.pages_start + self.header.pages_nbytes})"
            )
        self._mmap = bool(mmap)
        self._buf: np.ndarray | None = None
        if self._mmap and file_size > self.header.pages_start:
            self._buf = np.memmap(self.path, dtype=np.uint8, mode="c")
        # Dictionaries decode lazily, on the first read that needs one: a scan
        # over numeric columns never pays for (or counts) categorical pages.
        self._dictionaries: dict[str, np.ndarray] = {}
        # per-column (mins, maxes) zone arrays for sorted binary-search
        # pruning; False caches a negative answer (absent / non-monotonic)
        self._zone_bounds: dict[str, tuple[np.ndarray, np.ndarray] | bool] = {}
        if self.header.chunks is not None:
            self._chunks = self.header.chunks
        else:
            # synthesise one zone-less chunk over a legacy version-1 file
            pages = [
                (meta.codes if meta.ctype is CATEGORICAL else meta.data)
                for meta in self.header.columns
            ]
            self._chunks = [
                ChunkMeta(
                    rows=self.header.num_rows,
                    pages=[ref if ref is not None else PageRef(0, 0) for ref in pages],
                    zones=[None] * len(self.header.columns),
                    fingerprint=self.header.fingerprint,
                    row_start=0,
                )
            ]
        self.chunks_read = 0

    # -- catalog-level accessors (no page reads) ------------------------------

    @property
    def name(self) -> str:
        return self.header.name

    @property
    def num_rows(self) -> int:
        return self.header.num_rows

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def column_names(self) -> list[str]:
        return self.header.column_names

    @property
    def has_zones(self) -> bool:
        """Whether the file carries a zone map (every version-2 file does)."""
        return self.header.chunks is not None

    def __contains__(self, name: str) -> bool:
        return name in self.header.column_names

    def schema(self) -> Schema:
        return self.header.schema()

    def reset_counters(self) -> None:
        self.chunks_read = 0

    def chunk_row_range(self, index: int) -> tuple[int, int]:
        """Half-open global row range ``[start, stop)`` of one chunk."""
        chunk = self._chunks[index]
        return chunk.row_start, chunk.row_start + chunk.rows

    def chunk_nbytes(self, index: int) -> int:
        """Payload bytes of one chunk's pages (for memory-budget scheduling)."""
        return self._chunks[index].nbytes()

    def zones(self, index: int) -> dict[str, tuple[float, float] | None] | None:
        """One chunk's zone map by column name, or ``None`` when the file has
        no zone maps (a legacy version-1 file — callers must not prune)."""
        if not self.has_zones:
            return None
        chunk = self._chunks[index]
        return dict(zip(self.header.column_names, chunk.zones))

    @property
    def sort_by(self) -> str | None:
        """The column this file's rows are ordered by, or ``None`` (see
        :attr:`TableHeader.sort_by`)."""
        return self.header.sort_by

    def zone_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-chunk ``(mins, maxes)`` zone arrays of one numeric column, for
        binary-search pruning — or ``None`` when the fast path does not apply.

        Both arrays are float64 with all-missing (``None``) zones mapped to
        ``+inf``; they are validated monotonically non-decreasing once and
        cached.  ``None`` (fall back to a per-chunk zone scan) when the file
        has no zone map, the column is absent or categorical, or the zones
        are not monotonic (a file whose ``sort_by`` claim cannot be trusted).
        """
        cached = self._zone_bounds.get(name)
        if cached is not None:
            return None if cached is False else cached
        bounds: tuple[np.ndarray, np.ndarray] | bool = False
        if self.has_zones:
            pos = next(
                (
                    i
                    for i, meta in enumerate(self.header.columns)
                    if meta.name == name and meta.ctype is not CATEGORICAL
                ),
                None,
            )
            if pos is not None:
                mins = np.full(len(self._chunks), np.inf)
                maxes = np.full(len(self._chunks), np.inf)
                for i, chunk in enumerate(self._chunks):
                    zone = chunk.zones[pos]
                    if zone is not None:
                        mins[i], maxes[i] = zone
                # element-wise >= (not np.diff): inf - inf would be NaN, but
                # inf >= inf is True, so trailing all-missing runs pass
                if np.all(mins[1:] >= mins[:-1]) and np.all(maxes[1:] >= maxes[:-1]):
                    bounds = (mins, maxes)
        self._zone_bounds[name] = bounds
        return None if bounds is False else bounds

    def dictionary(self, name: str) -> np.ndarray:
        """The file-level dictionary of one categorical column.

        Decoded on first use and cached; ``bytes_read`` counts the page under
        the ``dictionary`` kind at that point, not at reader open.
        """
        meta = self._column_meta(name)
        if meta.ctype is not CATEGORICAL:
            raise TypeError(f"column {name!r} is {meta.ctype.value}, not categorical")
        return self._dictionary(meta)

    def _dictionary(self, meta: ColumnMeta) -> np.ndarray:
        cached = self._dictionaries.get(meta.name)
        if cached is None:
            page = self._page(meta.dictionary, "dictionary")
            if self._buf is not None:
                _count(meta.dictionary.nbytes, "dictionary")
            cached = _decode_dictionary(page, meta.dict_count)
            self._dictionaries[meta.name] = cached
        return cached

    # -- chunk reads -----------------------------------------------------------

    def chunk(self, index: int, columns: Sequence[str] | None = None) -> Table:
        """Materialise one row group as a :class:`Table` (optionally a column
        subset — per-column pages make partial reads free).

        Categorical columns share the reader's file-level dictionary; their
        ``dict_exact`` flag is necessarily False on a sub-chunk (the chunk may
        not contain every dictionary entry).
        """
        arrays = self._chunk_arrays(index, columns)
        return Table(
            [self._column(meta, arrays[meta.name]) for meta in self._selected(columns)],
            name=self.header.name,
        )

    def iter_chunks(self, columns: Sequence[str] | None = None) -> Iterator[Table]:
        """Yield every row group in file order."""
        for index in range(self.num_chunks):
            yield self.chunk(index, columns)

    def table(self) -> Table:
        """Materialise the whole table.

        A one-chunk file's columns are its page views, so an mmap load stays
        lazy; several chunks are stitched into whole columns.  Restores the
        stored ``dict_exact`` flags, so a round trip preserves the O(1)
        ``unique()`` fast path.
        """
        arrays = self._whole_arrays()
        columns = [
            self._column(meta, arrays[meta.name], meta.dict_exact) for meta in self.header.columns
        ]
        return Table(columns, name=self.header.name)

    def column(self, name: str) -> Column:
        """Materialise one whole column across all chunks."""
        meta = self._column_meta(name)
        return self._column(meta, self._whole_arrays([name])[name], meta.dict_exact)

    def take(self, indices) -> Table:
        """Gather arbitrary global row indices into an in-memory table.

        Reads only the chunks that contain requested rows; memory is bounded
        by the result size plus one chunk.  Used by coreset sampling over
        out-of-core base tables.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise IndexError(
                f"take indices out of range for table of {self.num_rows} rows"
            )
        outs: dict[str, np.ndarray] = {}
        for meta in self.header.columns:
            if meta.ctype is CATEGORICAL:
                outs[meta.name] = np.full(len(idx), -1, dtype=np.int32)
            else:
                outs[meta.name] = np.full(len(idx), np.nan, dtype=np.float64)
        for i in range(self.num_chunks):
            start, stop = self.chunk_row_range(i)
            mask = (idx >= start) & (idx < stop)
            if not mask.any():
                continue
            local = idx[mask] - start
            arrays = self._chunk_arrays(i)
            for name, arr in arrays.items():
                outs[name][mask] = arr[local]
        columns = [self._column(meta, outs[meta.name]) for meta in self.header.columns]
        return Table(columns, name=self.header.name)

    # -- internals -------------------------------------------------------------

    def _column_meta(self, name: str) -> ColumnMeta:
        for meta in self.header.columns:
            if meta.name == name:
                return meta
        raise KeyError(f"table {self.header.name!r} has no column {name!r}")

    def _selected(self, columns: Sequence[str] | None) -> list[ColumnMeta]:
        if columns is None:
            return self.header.columns
        return [self._column_meta(name) for name in columns]

    def _column(self, meta: ColumnMeta, arr: np.ndarray, dict_exact: bool = False) -> Column:
        if meta.ctype is CATEGORICAL:
            return Column.from_codes(meta.name, arr, self._dictionary(meta), dict_exact=dict_exact)
        return Column.from_array(meta.name, arr, meta.ctype)

    def _whole_arrays(self, columns: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Per-column arrays over every chunk: a one-chunk file's page views
        as they are, several chunks' pages concatenated."""
        parts = [self._chunk_arrays(i, columns) for i in range(self.num_chunks)]
        if len(parts) == 1:
            return parts[0]
        return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}

    def _page(self, ref: PageRef, kind: str = "pages") -> np.ndarray:
        start = self.header.pages_start + ref.offset
        if ref.nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        if self._buf is not None:
            # demote the slice to a base-class ndarray view: element access on
            # the np.memmap subclass goes through a slow __getitem__ override,
            # and the view's .base chain keeps the mapping alive regardless
            return np.asarray(self._buf[start : start + ref.nbytes])
        with self.path.open("rb") as handle:
            handle.seek(start)
            raw = bytearray(handle.read(ref.nbytes))
        _count(len(raw), kind)
        if len(raw) < ref.nbytes:
            raise TableFormatError(f"{self.path}: truncated page at offset {start}")
        return np.frombuffer(raw, dtype=np.uint8)

    def _chunk_arrays(
        self, index: int, columns: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Raw per-column arrays (codes or float64) of one chunk."""
        chunk = self._chunks[index]
        positions = {meta.name: pos for pos, meta in enumerate(self.header.columns)}
        out: dict[str, np.ndarray] = {}
        for meta in self._selected(columns):
            ref = chunk.pages[positions[meta.name]]
            page = self._page(ref)
            if meta.ctype is CATEGORICAL:
                out[meta.name] = (
                    page.view("<i4") if len(page) else np.empty(0, dtype=np.int32)
                )
            else:
                out[meta.name] = (
                    page.view("<f8") if len(page) else np.empty(0, dtype=np.float64)
                )
        self.chunks_read += 1
        return out


def open_chunks(path: str | Path, mmap: bool = True) -> ChunkedTableReader:
    """Open a table file for chunk-at-a-time streaming (legacy version-1
    files too, as one zone-less chunk)."""
    return ChunkedTableReader(path, mmap=mmap)


# -- streaming writer ----------------------------------------------------------


def write_table_stream(
    path: str | Path,
    chunks,
    name: str | None = None,
    chunk_rows: int | None = None,
    meta: dict | None = None,
    sort_by: str | None = None,
) -> TableHeader:
    """Write a table from an iterable of same-schema chunk tables, bounded memory.

    Incoming chunks are re-batched to the ``chunk_rows`` target (explicit
    argument, else ``ARDA_CHUNK_ROWS``, else ``DEFAULT_STREAM_CHUNK_ROWS``;
    an explicit ``0`` gathers everything into one row group).  Pages are
    spilled to a temp sibling as chunks arrive — peak memory is a couple of
    chunks regardless of total rows — then the final file (header +
    file-level dictionary pages + the spilled chunk pages) is assembled with a
    bounded copy buffer and published atomically.  Categorical columns keep
    the first chunk's dictionary; a chunk with another dictionary is remapped
    into it as it streams through.  The stored whole-table fingerprint is
    computed column-major over the spill, so it equals what
    :func:`write_table` would store for the concatenated table carrying the
    same dictionaries.

    ``sort_by`` declares that the incoming chunks are globally ordered by one
    column (missing values last).  The claim is validated against the written
    zone maps (:func:`_check_sorted_zones`) and recorded as
    ``meta["sort_by"]`` so readers can binary-search pruned chunk ranges; a
    stream that is not actually sorted raises ``ValueError``.
    """
    path = Path(path)
    if sort_by is not None:
        meta = {**(meta or {}), "sort_by": sort_by}
    target = resolve_chunk_rows(chunk_rows)
    if target is None and chunk_rows != 0:
        target = DEFAULT_STREAM_CHUNK_ROWS
    batches = _rebatch(chunks, target)
    first = next(batches, None)
    if first is None:
        raise ValueError("write_table_stream requires at least one chunk")
    if sort_by is not None and sort_by not in first.column_names:
        raise ValueError(
            f"write_table_stream: sort_by column {sort_by!r} not in schema "
            f"({first.column_names})"
        )
    fd, spill_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".spill")
    try:
        with os.fdopen(fd, "w+b") as spill:
            return _write_row_groups(
                path,
                first.name if name is None else name,
                first,
                itertools.chain([first], batches),
                spill,
                target,
                meta,
                sort_by,
            )
    finally:
        try:
            os.unlink(spill_name)
        except OSError:
            pass


def _rebatch(chunks, target: int | None) -> Iterator[Table]:
    """Re-slice an iterable of tables into chunks of exactly ``target`` rows
    (the final chunk may be short; ``None`` concatenates everything into one
    chunk).  Buffers at most ``target`` rows plus one incoming chunk."""
    pending: list[Table] = []
    pending_rows = 0
    for part in chunks:
        if part.num_rows == 0 and pending:
            continue
        pending.append(part)
        pending_rows += part.num_rows
        while target is not None and pending_rows >= target:
            merged = _concat_parts(pending)
            yield merged.take(np.arange(target)) if merged.num_rows > target else merged
            if merged.num_rows > target:
                rest = merged.take(np.arange(target, merged.num_rows))
                pending = [rest]
                pending_rows = rest.num_rows
            else:
                pending = []
                pending_rows = 0
    if pending:
        yield _concat_parts(pending)


def _concat_parts(parts: list[Table]) -> Table:
    if len(parts) == 1:
        return parts[0]
    columns = [
        concat_columns([part.column(name) for part in parts])
        for name in parts[0].column_names
    ]
    return Table(columns, name=parts[0].name)
