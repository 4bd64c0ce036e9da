"""Columnar relational engine used as ARDA's substrate.

This package replaces the pandas layer used by the original ARDA prototype
with a small, typed, numpy-backed relational engine.  It provides:

* :class:`~repro.relational.column.Column` — a typed, nullable column.
* :class:`~repro.relational.table.Table` — an ordered collection of equal
  length columns with selection, filtering, sorting and group-by support.
* Hash LEFT joins on single and composite keys, plus one chunked,
  zone-map-pruned hybrid hash join over row-group chunked files that spills
  a build side larger than its memory budget (:mod:`repro.relational.join`).
* Binary columnar persistence with optional row-group chunking for
  out-of-core tables (:mod:`repro.relational.persist`).
* Soft joins (nearest-neighbour and two-way nearest-neighbour interpolation)
  for keys such as timestamps that do not align exactly
  (:mod:`repro.relational.soft_join`).
* Time resampling for joining tables with mismatched time granularity
  (:mod:`repro.relational.resample`).
* Group-by aggregation, imputation and one-hot encoding used by the ARDA
  pipeline before model training.
"""

from repro.relational.column import Column
from repro.relational.schema import (
    BOOLEAN,
    CATEGORICAL,
    DATETIME,
    NUMERIC,
    ColumnType,
    Schema,
)
from repro.relational.table import Table
from repro.relational.join import (
    StreamingHashJoin,
    StreamJoinStats,
    as_chunk_source,
    grace_left_join,
    iter_grace_left_join,
    left_join,
)
from repro.relational.soft_join import (
    nearest_join,
    two_way_nearest_join,
)
from repro.relational.resample import resample_to_granularity
from repro.relational.aggregate import group_by_aggregate
from repro.relational.imputation import FittedImputer, impute_table
from repro.relational.encoding import (
    FittedEncoder,
    encode_features,
    encode_features_binned,
    to_binned_matrix,
    to_design_matrix,
)
from repro.relational.io import read_csv, write_csv
from repro.relational.persist import (
    CHUNK_ROWS_ENV,
    DEFAULT_STREAM_CHUNK_ROWS,
    ChunkedTableReader,
    ChunkMeta,
    ManifestEntry,
    ManifestFormatError,
    RepositoryManifest,
    TableFormatError,
    TableHeader,
    bytes_read,
    bytes_read_detail,
    open_chunks,
    read_manifest,
    read_table,
    read_table_header,
    reset_bytes_read,
    resolve_chunk_rows,
    table_fingerprint,
    write_manifest,
    write_table,
    write_table_stream,
)

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "NUMERIC",
    "CATEGORICAL",
    "DATETIME",
    "BOOLEAN",
    "Table",
    "left_join",
    "grace_left_join",
    "iter_grace_left_join",
    "as_chunk_source",
    "StreamingHashJoin",
    "StreamJoinStats",
    "nearest_join",
    "two_way_nearest_join",
    "resample_to_granularity",
    "group_by_aggregate",
    "impute_table",
    "FittedImputer",
    "encode_features",
    "encode_features_binned",
    "to_design_matrix",
    "to_binned_matrix",
    "FittedEncoder",
    "read_csv",
    "write_csv",
    "read_table",
    "write_table",
    "write_table_stream",
    "open_chunks",
    "ChunkedTableReader",
    "ChunkMeta",
    "resolve_chunk_rows",
    "DEFAULT_STREAM_CHUNK_ROWS",
    "CHUNK_ROWS_ENV",
    "bytes_read",
    "bytes_read_detail",
    "reset_bytes_read",
    "read_table_header",
    "table_fingerprint",
    "TableHeader",
    "TableFormatError",
    "read_manifest",
    "write_manifest",
    "RepositoryManifest",
    "ManifestEntry",
    "ManifestFormatError",
]
