"""Format-version-1 writer: the legacy layout's reference.

This is how :func:`repro.relational.persist.write_table` wrote a table that
fit one row group before every table became a version-2 file: one page per
column (``float64`` data, or ``int32`` codes plus the dictionary page, in
column order), each padded to the 64-byte alignment, and a header without a
zone map or ``chunk_rows``.  The library no longer writes this layout but
still reads it, as one zone-less chunk; tests write version-1 files here to
keep that read path covered.
"""

from __future__ import annotations

import json
from hashlib import blake2b
from pathlib import Path

from repro.relational.persist import (
    _PREFIX_LEN,
    FORMAT_VERSION,
    MAGIC,
    ColumnMeta,
    PageRef,
    TableHeader,
    _align,
    _column_payloads,
    _meta_to_doc,
    atomic_replace,
)
from repro.relational.table import Table


def write_table_v1(table: Table, path: str | Path, meta: dict | None = None) -> TableHeader:
    """Write ``table`` to ``path`` as a version-1 file; returns its header."""
    hasher = blake2b(digest_size=16)
    pages: list[bytes] = []
    columns_meta: list[ColumnMeta] = []
    rel = 0

    def add_page(payload: bytes) -> PageRef:
        nonlocal rel
        ref = PageRef(offset=rel, nbytes=len(payload))
        pages.append(payload)
        rel += len(payload)
        pad = _align(rel) - rel
        if pad:
            pages.append(b"\x00" * pad)
            rel += pad
        return ref

    for column in table.columns():
        hasher.update(column.name.encode("utf-8"))
        hasher.update(column.ctype.value.encode("ascii"))
        col_meta = ColumnMeta(name=column.name, ctype=column.ctype)
        for kind, payload in _column_payloads(column):
            hasher.update(payload)
            ref = add_page(payload)
            if kind == "data":
                col_meta.data = ref
            elif kind == "codes":
                col_meta.codes = ref
            else:
                col_meta.dictionary = ref
                col_meta.dict_count = len(column.dictionary)
                col_meta.dict_exact = column.dictionary_is_exact
        columns_meta.append(col_meta)

    fingerprint = hasher.hexdigest()
    header_doc = {
        "name": table.name,
        "num_rows": table.num_rows,
        "fingerprint": fingerprint,
        "columns": [_meta_to_doc(col_meta) for col_meta in columns_meta],
    }
    if meta:
        header_doc["meta"] = meta
    header_bytes = json.dumps(header_doc, separators=(",", ":")).encode("utf-8")
    pages_start = _align(_PREFIX_LEN + len(header_bytes))

    def write_to(handle):
        handle.write(MAGIC)
        handle.write(FORMAT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(4, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (pages_start - _PREFIX_LEN - len(header_bytes)))
        for payload in pages:
            handle.write(payload)

    atomic_replace(Path(path), write_to)
    return TableHeader(
        name=table.name,
        num_rows=table.num_rows,
        fingerprint=fingerprint,
        columns=columns_meta,
        pages_start=pages_start,
        pages_nbytes=rel,
        meta=meta,
    )
