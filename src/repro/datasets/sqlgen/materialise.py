"""Deterministic materialisation of a :class:`ScenarioSpec` into tables.

Everything here is a pure function of the spec: per-table bodies descend
from the ``data_seed`` values the sampler baked in, so a spec document from
a repro file rebuilds the exact same bytes — same content fingerprints, same
discovery scores — in any process.

The base table covers each planted key domain completely (every domain
value appears at least once), and each planted foreign table carries exactly
the domain as its key set.  With identical distinct value sets the two
MinHash signatures are equal and discovery's containment estimate is exactly
1.0 — the anchor of the planted-vs-decoy ranking guarantee.  Planted signal
columns with ``fan_out > 1`` put duplicate rows under every key whose
per-key *mean* is the planted value, so the join's duplicate
pre-aggregation (``numeric_agg="mean"``) reconstructs the exact value the
target was computed from.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.datasets.bundle import AugmentationDataset
from repro.datasets.sqlgen.spec import ColumnSpec, ScenarioSpec, TableSpec
from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.repository import DataRepository
from repro.relational.column import Column
from repro.relational.table import Table

__all__ = [
    "materialise_scenario",
    "write_scenario_repository",
    "repository_fingerprint",
    "planted_candidates",
    "iter_streaming_batches",
    "STREAM_TABLE",
]

STREAM_TABLE = "sensor_log"


def _noise_column(rng: np.random.Generator, spec: ColumnSpec, n_rows: int) -> Column:
    if spec.kind == "numeric":
        return Column.numeric(spec.name, rng.normal(size=n_rows))
    if spec.kind == "integer":
        values = rng.integers(0, max(2, spec.cardinality), size=n_rows)
        return Column.numeric(spec.name, values.astype(np.float64))
    labels = np.array([f"cat{v}" for v in range(max(2, spec.cardinality))], dtype=object)
    return Column.categorical(spec.name, labels[rng.integers(0, len(labels), size=n_rows)])


def _domain(low: int, size: int) -> np.ndarray:
    return np.arange(low, low + size, dtype=np.float64)


def _base_key_column(rng: np.random.Generator, low: int, size: int, n_rows: int) -> np.ndarray:
    """Base FK values: the whole domain tiled to ``n_rows`` then shuffled, so
    every domain value appears at least once (exact containment both ways)."""
    reps = -(-n_rows // size)
    values = np.tile(_domain(low, size), reps)[:n_rows]
    rng.shuffle(values)
    return values


def _planted_table(
    spec: TableSpec, low: int, size: int
) -> tuple[Table, dict[str, np.ndarray]]:
    """Build one planted table; returns it plus per-key signal values in
    domain order (what a mean-aggregated join reproduces per base row)."""
    rng = np.random.default_rng(spec.data_seed)
    keys = np.repeat(_domain(low, size), spec.fan_out)
    columns = [Column.numeric(spec.key_column, keys)]
    signal: dict[str, np.ndarray] = {}
    for column in spec.columns:
        if column.role == "feature":
            per_key = rng.normal(size=size)
            if spec.fan_out == 1:
                rows = per_key
            else:
                deltas = rng.normal(size=(size, spec.fan_out))
                deltas -= deltas.mean(axis=1, keepdims=True)
                rows = (per_key[:, None] + deltas).ravel()
            signal[column.name] = per_key
            columns.append(Column.numeric(column.name, rows))
        else:
            columns.append(_noise_column(rng, column, spec.n_rows))
    return Table(columns, name=spec.name), signal


def _decoy_table(spec: TableSpec, low: int, size: int) -> Table:
    rng = np.random.default_rng(spec.data_seed)
    n_in = max(1, int(round(spec.key_overlap * size)))
    n_in = min(n_in, spec.n_keys, size)
    in_values = rng.choice(_domain(low, size), size=n_in, replace=False)
    out_values = _domain(spec.key_offset, spec.n_keys - n_in)
    keys = np.concatenate([in_values, out_values])
    rng.shuffle(keys)
    columns = [Column.numeric(spec.key_column, keys)]
    for column in spec.columns:
        columns.append(_noise_column(rng, column, spec.n_rows))
    return Table(columns, name=spec.name)


def _noise_table(spec: TableSpec) -> Table:
    rng = np.random.default_rng(spec.data_seed)
    keys = _domain(spec.key_offset, spec.n_keys)
    columns = [Column.numeric(spec.key_column, keys)]
    for column in spec.columns:
        columns.append(_noise_column(rng, column, spec.n_rows))
    return Table(columns, name=spec.name)


def materialise_tables(
    spec: ScenarioSpec,
) -> tuple[Table, list[Table]]:
    """Materialise the base table (target included) and every foreign table."""
    domains = {key: (low, size) for key, low, size in spec.key_domains}
    tables: list[Table] = []
    signal_values: dict[tuple[str, str], np.ndarray] = {}
    for table_spec in spec.tables:
        if table_spec.role == "planted":
            low, size = domains[table_spec.key_column]
            table, signal = _planted_table(table_spec, low, size)
            for column_name, per_key in signal.items():
                signal_values[(table_spec.name, column_name)] = per_key
        elif table_spec.role == "decoy":
            low, size = domains[table_spec.key_column]
            table = _decoy_table(table_spec, low, size)
        else:
            table = _noise_table(table_spec)
        tables.append(table)

    base_rng = np.random.default_rng(spec.base_seed)
    n = spec.n_base_rows
    base_keys: dict[str, np.ndarray] = {}
    columns: list[Column] = []
    for key, low, size in spec.key_domains:
        values = _base_key_column(base_rng, low, size, n)
        base_keys[key] = values
        columns.append(Column.numeric(key, values))
    base_data: dict[str, np.ndarray] = {}
    for column_spec in spec.base_columns:
        column = _noise_column(base_rng, column_spec, n)
        if column_spec.kind != "categorical":
            base_data[column_spec.name] = np.asarray(column.values, dtype=np.float64)
        columns.append(column)

    key_to_spec = {t.name: t for t in spec.tables}
    score = np.zeros(n)
    for name, weight in spec.target.base_weights:
        score += weight * base_data[name]
    for table_name, column_name, weight in spec.target.signal_weights:
        key = key_to_spec[table_name].key_column
        low, _ = domains[key]
        indices = (base_keys[key] - low).astype(np.int64)
        score += weight * signal_values[(table_name, column_name)][indices]

    target_rng = np.random.default_rng(spec.target_seed)
    scale = float(np.std(score)) or 1.0
    score = score + spec.target.noise_level * scale * target_rng.normal(size=n)
    if spec.target.task == "classification":
        k = spec.target.n_classes
        if k == 2:
            target = (score > np.median(score)).astype(np.float64)
        else:
            quantiles = np.quantile(score, np.linspace(0, 1, k + 1)[1:-1])
            target = np.searchsorted(quantiles, score).astype(np.float64)
    else:
        target = score
    columns.append(Column.numeric("target", target))

    return Table(columns, name="base"), tables


def planted_candidates(spec: ScenarioSpec) -> list[JoinCandidate]:
    """The ground-truth join plan as discovery-shaped candidates."""
    return [
        JoinCandidate(
            foreign_table=edge.foreign_table,
            keys=[KeyPair(edge.base_column, edge.foreign_column)],
            score=1.0,
        )
        for edge in spec.joins
    ]


def materialise_scenario(spec: ScenarioSpec) -> AugmentationDataset:
    """Materialise into an in-memory repository (no disk involved)."""
    base, tables = materialise_tables(spec)
    repository = DataRepository()
    for table in tables:
        repository.add(table)
    return AugmentationDataset(
        name=spec.scenario_id,
        base_table=base,
        repository=repository,
        target="target",
        task=spec.target.task,
        signal_tables=[t.name for t in spec.planted_tables()],
    )


def write_scenario_repository(
    spec: ScenarioSpec,
    directory: str | Path,
    chunk_rows: int | None = None,
) -> tuple[Table, DataRepository]:
    """Materialise into a disk-backed repository under ``directory``.

    ``chunk_rows`` picks the persisted layout: ``0`` writes monolithic
    version-1 files, a positive value writes row-group chunked files.
    Content fingerprints are layout-invariant, so the two layouts carry
    byte-identical logical content.
    """
    base, tables = materialise_tables(spec)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    repository = DataRepository.open(directory, chunk_rows=chunk_rows, load_profiles=False)
    for table in tables:
        repository.add(table)
    return base, repository


def repository_fingerprint(repository: DataRepository) -> str:
    """One stable hash over every table's content fingerprint (name-sorted).

    Layout-invariant (content fingerprints ignore chunking), so monolithic
    and chunked materialisations of the same spec hash identically.
    """
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(repository.table_names):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(repository.fingerprint(name).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def iter_streaming_batches(
    spec: ScenarioSpec,
    n_batches: int,
    batch_rows: int,
) -> Iterator[Table]:
    """Yield growing prefixes of an append-only sensor table.

    Batch ``k`` is the table after ``k + 1`` micro-batch ingests (rows
    ``0 .. (k + 1) * batch_rows``); rows never change once appended, only
    accumulate, mimicking a sensor feed.  Keyed by the scenario's first
    planted key so the table is a plausible (but unplanted) join target.
    Deterministic from the spec alone.
    """
    if n_batches < 1 or batch_rows < 1:
        raise ValueError("need at least one batch of at least one row")
    key, low, size = spec.key_domains[0]
    total = n_batches * batch_rows
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.target_seed, spawn_key=(len(spec.tables),))
    )
    keys = rng.choice(_domain(low, size), size=total, replace=True)
    reading = rng.normal(size=total)
    counter = np.arange(total, dtype=np.float64)
    for k in range(n_batches):
        end = (k + 1) * batch_rows
        yield Table(
            [
                Column.numeric(key, keys[:end]),
                Column.numeric("reading", reading[:end]),
                Column.numeric("ingest_seq", counter[:end]),
            ],
            name=STREAM_TABLE,
        )
