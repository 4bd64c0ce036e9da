"""The repository of named tables (the "data lake"): in-memory or disk-backed.

A :class:`DataRepository` is one *catalog* of named tables.  Each catalog
entry carries the table's content fingerprint and either a table file (path
+ header) or, for ``DataRepository(tables)``, the decoded table itself; a
repository opened over a directory of native binary table files
(:meth:`DataRepository.open`) builds its catalog from file *headers* only —
names, schemas, row counts, content fingerprints — and materialises tables
lazily on first :meth:`get`, memory-mapped so even a "loaded" table only
pages in the columns that are actually read.  Decoded tables are kept alive
in a small LRU so hot candidates stay warm while a 100-table repository never
holds 100 decoded tables.

Concurrency model (snapshot isolation)
--------------------------------------

Mutations (:meth:`add` / :meth:`replace` / :meth:`remove`) are safe to call
from multiple threads of one process while other threads read.  Each mutation:

1. **stages** the table file under a content-addressed name
   (``<name>-<fingerprint16>.tbl``), so two concurrent writers never rewrite
   each other's bytes in place;
2. **publishes** the next catalog as a new manifest generation — one atomic
   ``os.replace`` of the ``_manifest.arda`` file plus one atomic swap of the
   in-process catalog reference, both under the writer lock.  Every mutation
   returns the generation it published.

An in-memory table skips the file and the manifest: it is fingerprinted once
and published by the same catalog copy-and-swap.

Readers call :meth:`DataRepository.snapshot` to pin one generation: the
returned :class:`RepositorySnapshot` resolves every ``get()`` / ``header()``
against that frozen catalog, so a multi-table read never observes half of a
concurrent publish.  The snapshot is the only read implementation: the
repository's own reads (``get``, ``profiles``, ...) each take a transient
snapshot of the current generation and read through it, so a live read is
pinned exactly like a snapshot read.  Files that fall out of the current
catalog are garbage-collected by reference count: a superseded table file is
deleted only once no live snapshot references it (release a snapshot
explicitly, via the context-manager protocol, or just drop it — a
``weakref.finalize`` hook releases abandoned snapshots).  Cross-*process*
writers are not coordinated: one process owns the writes to a directory, any
number of processes may open read snapshots of it.

The :class:`ProfileCache` rides along: its entries are validated by a
table's *content fingerprint* (the catalog's, never re-derived on a hit) and
can be persisted to a sidecar file, so a repeated ``ARDA`` run over the same
repository serves every discovery profile from disk without touching a single
table body.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.executor import longest_first_order
from repro.discovery.profiles import ColumnProfile, profile_shard, profile_table_chunks
from repro.relational.io import read_csv
from repro.relational.join import as_chunk_source
from repro.relational.schema import CATEGORICAL
from repro.relational.persist import (
    DEFAULT_STREAM_CHUNK_ROWS,
    ChunkedTableReader,
    ManifestEntry,
    ManifestFormatError,
    RepositoryManifest,
    TableFormatError,
    TableHeader,
    atomic_replace,
    read_manifest,
    read_table,
    read_table_header,
    resolve_chunk_rows,
    table_fingerprint,
    write_manifest,
    write_table,
    write_table_stream,
)
from repro.relational.table import Table

TABLE_SUFFIX = ".tbl"
MANIFEST_NAME = "_manifest.arda"
PROFILE_SIDECAR = "_profiles.cache"
_SIDECAR_FORMAT = "arda-profile-cache"
_SIDECAR_VERSION = 1


class ProfileCache:
    """Memoised column profiles (including MinHash signatures) per table.

    Join discovery profiles every repository column on every run; on repeated
    :meth:`ARDA.augment` calls or multi-scenario sweeps over the same
    repository this dominates discovery time.  The cache stores the full
    per-table profile dictionary keyed by ``(table name, num_hashes)``.

    Each entry is ``(fingerprint, profiles)``: the content fingerprint (see
    :func:`repro.relational.persist.table_fingerprint` — stored in every
    table file header, and taken once when an in-memory table is added) of
    the table the profiles describe.  A lookup under any other fingerprint
    is a miss.  Entries survive process restarts: :meth:`save` writes them
    to a sidecar file and :meth:`load` brings them back, and an entry whose
    fingerprint no longer matches the table on disk is simply a miss (then
    dropped by :meth:`prune_fingerprints` on the next open).

    ``hits`` / ``misses`` / ``invalidations`` counters are exposed so callers
    (and tests) can assert that re-profiling was actually skipped.  Entry and
    counter updates take an internal lock: the cache is shared with
    :class:`~repro.core.executor.ThreadJoinExecutor` workers, and unlocked
    ``+= 1`` counter updates from several threads lose increments.  Profiling
    itself runs outside the lock so concurrent misses on different tables
    don't serialise; two simultaneous misses on the *same* table may both
    profile, and the last store wins (profiles are deterministic, so both are
    identical).
    """

    def __init__(self):
        # (table name, num_hashes) -> (content fingerprint, profiles)
        self._entries: dict[tuple[str, int], tuple[str, dict[str, ColumnProfile]]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # generation stamp of the last sidecar loaded (informational)
        self.sidecar_generation: int | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("sidecar_generation", None)
        self._lock = threading.Lock()

    def lookup(
        self,
        name: str,
        fingerprint: str,
        open_source: Callable[[], tuple[str, object]],
        num_hashes: int = 64,
    ) -> dict[str, ColumnProfile]:
        """Profiles of table ``name`` at content ``fingerprint``, profiling on a miss.

        A hit never calls ``open_source``, so no table body is read.  On a
        miss, ``open_source()`` returns ``(fingerprint, source)``: the
        fingerprint of the content it actually opened, and that content as a
        chunk source (a :class:`Table` or a chunk reader), which is profiled
        chunk by chunk (:func:`~repro.discovery.profiles.profile_table_chunks`
        — identical to whole-table profiling, in bounded memory).  The
        profiles are stored under the *opened* fingerprint, never the
        requested one: if a concurrent ``replace`` republished the table
        between the caller reading its fingerprint and the body being opened,
        the race costs a miss, never a cache (or sidecar) entry that pairs
        one content's fingerprint with another's profiles.  Counts exactly
        one hit or one miss.
        """
        profiles = self.peek(name, fingerprint, num_hashes=num_hashes)
        if profiles is None:
            actual, source = open_source()
            profiles = profile_table_chunks(source, num_hashes=num_hashes)
            self.store(name, actual, profiles, num_hashes=num_hashes)
        return profiles

    def peek(
        self, name: str, fingerprint: str, num_hashes: int = 64
    ) -> dict[str, ColumnProfile] | None:
        """Fingerprint-validated lookup that never profiles; ``None`` on miss.

        Sharded discovery uses this to split cache resolution from profile
        computation: tables whose profiles are already cached are answered
        here, and only the remainder turns into shard jobs.  Counts a hit; a
        miss is counted by the :meth:`store` that resolves it (sharded
        profiles, or :meth:`lookup` for the serial path), so every table
        counts exactly one hit or miss.
        """
        with self._lock:
            entry = self._entries.get((name, num_hashes))
            if entry is not None and entry[0] == fingerprint:
                self.hits += 1
                return entry[1]
            return None

    def store(
        self,
        name: str,
        fingerprint: str,
        profiles: dict[str, ColumnProfile],
        num_hashes: int = 64,
    ) -> None:
        """Deposit computed profiles under the fingerprint they describe.

        :meth:`lookup` stores its misses here; sharded discovery merges shard
        accumulators itself and stores the finished profiles with the
        fingerprint the file *actually* carried.  Counts the miss it resolves
        (see :meth:`peek`).  Last store wins — profiles are deterministic, so
        concurrent stores are identical.
        """
        with self._lock:
            self.misses += 1
            self._entries[(name, num_hashes)] = (fingerprint, profiles)

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop cached profiles for one table (or all); returns entries dropped."""
        with self._lock:
            if table_name is None:
                stale = list(self._entries)
            else:
                stale = [key for key in self._entries if key[0] == table_name]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def prune_fingerprints(self, live: dict[str, str]) -> int:
        """Drop entries that no longer match ``live``.

        ``live`` maps table name to current on-disk fingerprint; entries for
        unknown names or stale fingerprints are removed (counted as
        invalidations).
        """
        with self._lock:
            stale = [
                key
                for key, (fingerprint, _profiles) in self._entries.items()
                if live.get(key[0]) != fingerprint
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    # -- sidecar persistence ---------------------------------------------------

    def save(self, path: str | Path, generation: int | None = None) -> int:
        """Persist all entries to a sidecar file; returns entries written.

        The write is atomic (uniquely-named temp file + ``os.replace``, so
        concurrent savers never interleave).  ``generation`` optionally stamps
        the sidecar with the repository manifest generation it was saved at,
        for debugging stale caches — correctness never depends on it (every
        entry is fingerprint-validated on load and lookup).
        """
        path = Path(path)
        with self._lock:
            snapshot = dict(self._entries)
        records = [
            {
                "table": name,
                "num_hashes": num_hashes,
                "fingerprint": fingerprint,
                "profiles": {col: profile.to_state() for col, profile in profiles.items()},
            }
            for (name, num_hashes), (fingerprint, profiles) in snapshot.items()
        ]
        payload = {
            "format": _SIDECAR_FORMAT,
            "version": _SIDECAR_VERSION,
            "generation": generation,
            "entries": records,
        }
        atomic_replace(
            path,
            lambda handle: pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return len(records)

    def load(self, path: str | Path) -> int:
        """Load sidecar entries written by :meth:`save`; returns entries loaded.

        Raises ``ValueError`` on a file that is not a profile sidecar or was
        written by an incompatible version.  Loaded entries are
        fingerprint-validated, so a stale sidecar only costs cache misses,
        never wrong profiles.
        """
        path = Path(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict) or payload.get("format") != _SIDECAR_FORMAT:
            raise ValueError(f"{path}: not a profile-cache sidecar")
        if payload.get("version") != _SIDECAR_VERSION:
            raise ValueError(
                f"{path}: unsupported sidecar version {payload.get('version')!r} "
                f"(this build reads version {_SIDECAR_VERSION})"
            )
        loaded = 0
        with self._lock:
            self.sidecar_generation = payload.get("generation")
            for record in payload["entries"]:
                key = (record["table"], record["num_hashes"])
                profiles = {
                    col: ColumnProfile.from_state(state)
                    for col, state in record["profiles"].items()
                }
                self._entries[key] = (record["fingerprint"], profiles)
                loaded += 1
        return loaded

    def register_metrics(self, registry=None, name: str = "profile_cache") -> str:
        """Expose :meth:`stats` as a pull-based source on a metrics registry.

        The registry (default: the process-wide
        :func:`repro.observability.get_registry`) evaluates :meth:`stats` at
        snapshot time, so ``/metrics``-style consumers see the same counters
        this class has always kept — nothing about the counters themselves
        changes.  Registering again under the same name replaces the previous
        source (the serving server re-registers on every repository rebind);
        the registry holds a strong reference to this cache until the source
        is replaced or unregistered.  Returns the registered source name.
        """
        from repro.observability import get_registry

        registry = registry if registry is not None else get_registry()
        registry.register_source(name, self.stats)
        return name

    def reset_counters(self) -> None:
        """Zero the hit/miss/invalidation counters (entries are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def stats(self) -> dict[str, int]:
        """Counters plus current size, for reports and debugging."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _CatalogEntry:
    """One table of a generation and its content ``fingerprint``: a file
    (``path`` and ``header``, no row data) or an in-memory ``table``."""

    __slots__ = ("path", "header", "table", "fingerprint")

    def __init__(
        self,
        path: Path | None = None,
        header: TableHeader | None = None,
        table: Table | None = None,
        fingerprint: str | None = None,
    ):
        self.path = path
        self.header = header
        self.table = table
        self.fingerprint = header.fingerprint if header is not None else fingerprint


def _unlink_quietly(path: Path) -> bool:
    try:
        path.unlink(missing_ok=True)
    except OSError:
        return False
    return True


# -- sharded corpus profiling --------------------------------------------------


def _profile_shard_job(shared, item):
    """Run one (table, chunk-range) profiling shard; pool-friendly.

    ``shared`` is ``(num_hashes, mmap)``; ``item`` is
    ``(path, name, chunk_lo, chunk_hi)``.  Returns
    ``(name, chunk_lo, elapsed_seconds, fingerprint, accumulators)``, or
    ``None`` when the file vanished or turned unreadable mid-run (a
    concurrent ``replace`` reclaimed it) — the caller then falls back to the
    serial per-table path for that table.
    """
    num_hashes, mmap = shared
    path, name, chunk_lo, chunk_hi = item
    start = time.perf_counter()
    try:
        fingerprint, accumulators = profile_shard(
            path, name, chunk_lo, chunk_hi, num_hashes=num_hashes, mmap=mmap
        )
    except (FileNotFoundError, TableFormatError):
        return None
    return (name, chunk_lo, time.perf_counter() - start, fingerprint, accumulators)


def _plan_shards(
    entries: list[tuple[str, _CatalogEntry]], n_jobs: int
) -> list[tuple[str, str, int, int]]:
    """Split tables into ``(path, name, chunk_lo, chunk_hi)`` shard jobs.

    With at least as many tables as workers, one job per table keeps jobs
    coarse (parallelism comes from the corpus width).  With fewer tables than
    workers, each table splits into up to ``ceil(n_jobs / tables)`` contiguous
    chunk ranges so a handful of huge tables still saturates the pool.  The
    plan is a pure function of catalog state and ``n_jobs`` — determinism of
    the merged profiles never depends on it (merge is order-independent), it
    only shapes the parallel schedule.
    """
    per_table = 1
    if entries and len(entries) < n_jobs:
        per_table = -(-n_jobs // len(entries))
    jobs: list[tuple[str, str, int, int]] = []
    for name, entry in entries:
        chunks = entry.header.num_chunks
        shards = max(1, min(per_table, chunks))
        bounds = [round(i * chunks / shards) for i in range(shards + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                jobs.append((str(entry.path), name, lo, hi))
    return jobs


class RepositorySnapshot:
    """A frozen, read-only view of one repository generation — and the
    repository's one read implementation.

    Produced by :meth:`DataRepository.snapshot`; the repository's own reads
    take a transient snapshot of the current generation and call the same
    method on it.  All reads — :meth:`get`, :meth:`header`, :meth:`schema`,
    :meth:`fingerprint`, :meth:`profiles`, :meth:`profiles_many`,
    :meth:`open_chunks`, :attr:`table_names` — resolve against the catalog
    as it stood at :attr:`generation`, no matter what concurrent writers
    publish afterwards: the snapshot's table files are pinned against
    garbage collection until the snapshot is released, and an already-mapped
    file keeps serving its old bytes even after the name is republished
    (``os.replace`` / ``unlink`` keep the old inode alive for existing maps).

    Release a snapshot when done — explicitly (:meth:`release`), as a context
    manager, or implicitly by dropping the last reference (a
    ``weakref.finalize`` hook releases it, including at interpreter exit) —
    so superseded files can be reclaimed.  Reading from an explicitly
    released snapshot raises ``RuntimeError``.

    The snapshot exposes the full read API of :class:`DataRepository`
    (``in`` / ``len`` / iteration / ``is_disk_backed`` / ``save_profiles``
    included), so pipeline code written against a repository runs unchanged
    against a pinned generation.
    """

    def __init__(
        self,
        repository: "DataRepository",
        generation: int,
        catalog: dict[str, _CatalogEntry],
        token: int,
    ):
        self._repository = repository
        self._generation = generation
        self._catalog = catalog
        self._token = token
        self._loaded: dict[str, Table] = {}
        self._local_lock = threading.Lock()
        # releases the pinned files if the snapshot is dropped without an
        # explicit release() (including at interpreter exit)
        self._finalizer = weakref.finalize(
            self, repository._release_snapshot, token
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The manifest generation this snapshot pins."""
        return self._generation

    @property
    def repository(self) -> "DataRepository":
        """The repository this snapshot was taken from."""
        return self._repository

    @property
    def released(self) -> bool:
        """Whether the snapshot has been released (files no longer pinned)."""
        return not self._finalizer.alive

    def release(self) -> None:
        """Release the snapshot's pin on its table files (idempotent).

        Any file superseded since the snapshot was taken becomes eligible for
        garbage collection once the last snapshot referencing it is released.
        """
        self._finalizer()

    def __enter__(self) -> "RepositorySnapshot":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def _check_live(self) -> None:
        if not self._finalizer.alive:
            raise RuntimeError(
                f"snapshot of generation {self._generation} has been released; "
                f"its files may already be garbage-collected"
            )

    # -- read API ----------------------------------------------------------------

    @property
    def is_disk_backed(self) -> bool:
        """Whether the underlying repository writes through to a directory."""
        return self._repository.is_disk_backed

    @property
    def table_names(self) -> list[str]:
        """Names of all tables in this generation."""
        return list(self._catalog)

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def __iter__(self) -> Iterator[Table]:
        for name in self.table_names:
            yield self.get(name)

    def _entry(self, name: str) -> _CatalogEntry:
        entry = self._catalog.get(name)
        if entry is None:
            raise KeyError(
                f"no table named {name!r} in generation {self._generation}; "
                f"available: {self.table_names}"
            )
        return entry

    def header(self, name: str) -> TableHeader:
        """The pinned file header of a disk-backed table (``KeyError`` for an
        in-memory table, which has no file)."""
        header = self._entry(name).header
        if header is None:
            raise KeyError(f"table {name!r} is in-memory and has no file header")
        return header

    def schema(self, name: str):
        """The schema of a table, served without loading when disk-backed."""
        entry = self._entry(name)
        return (entry.table if entry.header is None else entry.header).schema()

    def fingerprint(self, name: str) -> str:
        """The content fingerprint of one table, from the catalog (no body read)."""
        return self._entry(name).fingerprint

    def fingerprints(self) -> dict[str, str]:
        """``{table name → content fingerprint}`` of this generation."""
        return {name: entry.fingerprint for name, entry in self._catalog.items()}

    def get(self, name: str) -> Table:
        """Look up a table in the pinned generation, materialising it lazily."""
        self._check_live()
        entry = self._entry(name)
        if entry.table is not None:
            return entry.table
        with self._local_lock:
            table = self._loaded.get(name)
        if table is None:
            table = self._repository._load(name, entry)
            with self._local_lock:
                table = self._loaded.setdefault(name, table)
        return table

    def profiles(self, name: str, num_hashes: int = 64) -> dict[str, ColumnProfile]:
        """Column profiles of one pinned table, via the owner's profile cache.

        Looked up by the pinned fingerprint, so a profile computed for this
        generation is never confused with one of a later republication, and
        a hit reads no table body.  A miss profiles the table chunk by chunk,
        so a multi-chunk file is never materialised.
        """
        self._check_live()
        entry = self._entry(name)
        return self._repository.profile_cache.lookup(
            name,
            entry.fingerprint,
            lambda: self._open_source(name, entry),
            num_hashes=num_hashes,
        )

    def _open_source(self, name: str, entry: _CatalogEntry) -> tuple[str, object]:
        """``(fingerprint, chunk source)`` of the content a profile miss reads.

        A one-chunk file is read through :meth:`get` (and the owner's LRU) and
        re-fingerprinted, so its profiles are stored under the content that
        was actually read; an in-memory table and a multi-chunk reader carry
        their catalog fingerprint.
        """
        if entry.path is not None and entry.header.num_chunks == 1:
            table = self.get(name)
            return table_fingerprint(table), table
        return entry.fingerprint, self.open_chunks(name)

    def profiles_many(
        self,
        names: Iterable[str] | None = None,
        num_hashes: int = 64,
        executor=None,
    ) -> dict[str, dict[str, ColumnProfile]]:
        """Profile many pinned tables at once, sharding chunk work over
        ``executor`` (a :class:`~repro.core.executor.JoinExecutor`).

        The corpus-scale sibling of :meth:`profiles`: cache hits are answered
        from the catalog alone, and the remaining table files fan out as
        per-(table, chunk-range) shard jobs whose accumulators merge back —
        per table, in chunk order, with :meth:`ColumnProfileAccumulator.merge
        <repro.discovery.profiles.ColumnProfileAccumulator.merge>` — into
        profiles **byte-identical** to :meth:`profiles` (MinHash signatures
        included) regardless of executor backend or shard boundaries.  With
        ``executor=None`` or a one-worker executor, for in-memory tables, and
        for any table whose shards hit a concurrent republish, a table takes
        the plain :meth:`profiles` path.  Each table counts exactly one cache
        hit or miss on every path.  Shard timings and counts land on the
        process metrics registry under ``discovery.*``.
        """
        self._check_live()
        names = list(names) if names is not None else self.table_names
        if executor is None or executor.n_jobs <= 1:
            return {name: self.profiles(name, num_hashes=num_hashes) for name in names}
        cache = self._repository.profile_cache
        results: dict[str, dict[str, ColumnProfile]] = {}
        shardable: list[tuple[str, _CatalogEntry]] = []
        for name in names:
            entry = self._entry(name)
            if entry.path is None:
                results[name] = self.profiles(name, num_hashes=num_hashes)
                continue
            cached = cache.peek(name, entry.fingerprint, num_hashes=num_hashes)
            if cached is not None:
                results[name] = cached
                continue
            shardable.append((name, entry))
        if not shardable:
            return results

        jobs = _plan_shards(shardable, executor.n_jobs)
        # LPT order: widest chunk ranges first minimises pool makespan; results
        # are restored to plan order before merging
        order = longest_first_order([hi - lo for (_p, _n, lo, hi) in jobs])
        submitted = [jobs[i] for i in order]
        wall_start = time.perf_counter()
        raw = executor.map_with_shared(
            _profile_shard_job, (num_hashes, self._repository._mmap), submitted
        )
        wall_seconds = time.perf_counter() - wall_start
        outputs: list = [None] * len(jobs)
        for pos, index in enumerate(order):
            outputs[index] = raw[pos]

        by_table: dict[str, list] = {}
        failed: set[str] = set()
        for job, out in zip(jobs, outputs):
            name = job[1]
            if out is None:
                failed.add(name)
            else:
                by_table.setdefault(name, []).append(out)

        shard_count = 0
        shard_timings: list[float] = []
        for name, _entry in shardable:
            outs = by_table.get(name)
            if name in failed or not outs:
                results[name] = self.profiles(name, num_hashes=num_hashes)
                continue
            outs.sort(key=lambda out: out[1])  # chunk order (merge-order invariant)
            fingerprints = {out[3] for out in outs}
            if len(fingerprints) != 1:
                # shards straddled a concurrent replace: torn read, recompute
                results[name] = self.profiles(name, num_hashes=num_hashes)
                continue
            merged = outs[0][4]
            for _name, _lo, _elapsed, _fp, accumulators in outs[1:]:
                for column, accumulator in accumulators.items():
                    merged[column].merge(accumulator)
            profiles = {column: acc.finish() for column, acc in merged.items()}
            cache.store(name, next(iter(fingerprints)), profiles, num_hashes=num_hashes)
            results[name] = profiles
            shard_count += len(outs)
            shard_timings.extend(out[2] for out in outs)

        from repro.observability import get_registry

        registry = get_registry()
        registry.counter("discovery.shards").inc(shard_count)
        registry.counter("discovery.tables_sharded").inc(len(shardable) - len(failed))
        histogram = registry.histogram("discovery.shard_seconds")
        for elapsed in shard_timings:
            histogram.observe(elapsed)
        registry.histogram("discovery.profile_wall_seconds").observe(wall_seconds)
        return results

    def open_chunks(self, name: str):
        """Open one pinned table for chunk-at-a-time streaming.

        A table file opens as a
        :class:`~repro.relational.persist.ChunkedTableReader` over the pinned
        generation — a table republished (even rechunked) after the snapshot
        was taken still streams its old bytes, and a legacy version-1 file
        presents as one zone-less chunk.  An in-memory table is its own one-chunk
        source (:func:`~repro.relational.join.as_chunk_source`).
        """
        self._check_live()
        entry = self._entry(name)
        if entry.table is not None:
            return as_chunk_source(entry.table)
        return ChunkedTableReader(
            entry.path, mmap=self._repository._mmap, header=entry.header
        )

    def save_profiles(self, path: str | Path | None = None) -> Path:
        """Persist the owner repository's profile cache (see repository docs)."""
        return self._repository.save_profiles(path)

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return (
            f"RepositorySnapshot(generation={self._generation}, "
            f"tables={len(self)}, {state})"
        )


def _read_through_snapshot(read):
    """A :class:`DataRepository` read: ``read`` called on a transient
    snapshot of the current generation, released on return."""

    @functools.wraps(read)
    def through_snapshot(self, *args, **kwargs):
        with self.snapshot() as view:
            return read(view, *args, **kwargs)

    return through_snapshot


class DataRepository:
    """A collection of candidate tables keyed by name.

    The repository plays the role of the heterogeneous data pool a data
    discovery system indexes; ARDA never scans it directly, it only receives
    candidate joins referencing tables by name.

    Two backing modes share one catalog and one API:

    * **in-memory** — ``DataRepository(tables)`` catalogs the decoded tables
      themselves (each fingerprinted once, when added or replaced);
    * **disk-backed** — :meth:`open` catalogs a directory of ``.tbl`` files by
      reading only their headers, then loads tables lazily (memory-mapped) on
      first access with an LRU keep-alive of decoded tables.  :meth:`add`,
      :meth:`replace` and :meth:`remove` stage content-addressed table files
      and publish manifest generations (see the module docstring for the
      snapshot-isolation protocol), and the profile cache can be persisted
      next to the tables (:meth:`save_profiles`), so a fresh process serves
      discovery profiles without reading any table body.

    Every mutation returns the manifest generation it published (in-memory
    repositories publish the same way, without a manifest file, so the
    snapshot machinery and the snapshot-isolation checker work against both
    modes).  Readers that need a consistent multi-table view take
    :meth:`snapshot`; every other read (:meth:`get`, :meth:`header`,
    :meth:`schema`, :meth:`fingerprint`, :meth:`profiles`,
    :meth:`profiles_many`, :meth:`open_chunks`, iteration) takes a transient
    snapshot of the current generation and reads through it.

    Every repository owns a :class:`ProfileCache` so that discovery profiles
    (distinct counts, ranges, MinHash signatures) are computed once per table
    and reused across runs; mutating the repository through :meth:`replace` or
    :meth:`remove` invalidates the affected entries.
    """

    def __init__(self, tables: Iterable[Table] = ()):
        # publishes swap this reference and never mutate the dict
        self._catalog: dict[str, _CatalogEntry] = {}
        # name -> (content fingerprint at load time, decoded table)
        self._loaded: OrderedDict[str, tuple[str, Table]] = OrderedDict()
        self._directory: Path | None = None
        self._manifest_path: Path | None = None
        self._lru_tables: int | None = None
        self._mmap = True
        self._chunk_rows: int | None = None
        self._generation = 0
        self._write_lock = threading.RLock()
        self._lru_lock = threading.Lock()
        self._snapshot_tokens = itertools.count()
        self._snapshot_files: dict[int, frozenset[Path]] = {}
        self._pending_gc: set[Path] = set()
        self.profile_cache = ProfileCache()
        for table in tables:
            self.add(table)

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_write_lock", "_lru_lock", "_snapshot_tokens"):
            state.pop(key, None)
        # live snapshots are process-local pins; they do not travel
        state["_snapshot_files"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._write_lock = threading.RLock()
        self._lru_lock = threading.Lock()
        self._snapshot_tokens = itertools.count()
        self._snapshot_files = {}

    # -- disk backing ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        lru_tables: int | None = 16,
        mmap: bool = True,
        load_profiles: bool = True,
        chunk_rows: int | None = None,
    ) -> "DataRepository":
        """Open a directory of binary table files as a lazy repository.

        ``chunk_rows`` sets the row-group target for tables staged through
        this repository (:meth:`add` / :meth:`replace`): tables larger than
        the target are split into row groups of that size (see
        :func:`repro.relational.persist.write_table`).  ``None`` defers to
        the ``ARDA_CHUNK_ROWS`` environment variable (one row group per file
        when that is unset too); ``0`` writes one row group per file.
        Reading is always layout-transparent: every layout, legacy
        version-1 files included, loads and streams identically.

        With a ``_manifest.arda`` present the catalog comes from the last
        committed manifest generation (headers of the referenced files are
        read for schemas; the files' own headers are authoritative).  Without
        one — a directory never mutated through this class — every readable
        ``.tbl`` file is adopted at generation 0 and the first mutation
        publishes generation 1.

        Opening also sweeps crash debris: ``*.tmp`` files (a writer killed
        between its temp write and the ``os.replace``), staged-but-never-
        published table files, and superseded old-generation files that a
        dying process left behind are removed.  ``.tbl`` files that are
        neither referenced nor marked as staged are adopted when their table
        name is free, and left untouched otherwise.  Do not open a directory
        for writing from a process that is concurrently writing it elsewhere
        (single-writer-process model; see the module docstring).

        Builds the catalog from file headers only (names, schemas, row
        counts, fingerprints); no table body is read until :meth:`get`.
        ``lru_tables`` bounds how many decoded tables are kept alive
        (``None`` = unbounded).  If a profile sidecar is present and
        ``load_profiles`` is on, cached profiles are loaded and entries whose
        fingerprints no longer match the files are dropped.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"repository directory {directory} does not exist")
        if lru_tables is not None and lru_tables < 1:
            raise ValueError("lru_tables must be None or >= 1")
        repository = cls()
        repository._directory = directory
        repository._lru_tables = lru_tables
        repository._mmap = mmap
        repository._chunk_rows = chunk_rows
        repository._manifest_path = directory / MANIFEST_NAME

        # crash debris from a writer killed between its temp-file write and
        # the os.replace: never part of any committed generation
        for debris in directory.glob("*.tmp"):
            _unlink_quietly(debris)

        catalog: dict[str, _CatalogEntry] = {}
        manifest: RepositoryManifest | None = None
        if repository._manifest_path.exists():
            manifest = read_manifest(repository._manifest_path)
            for name in sorted(manifest.tables):
                entry = manifest.tables[name]
                path = directory / entry.file
                if not path.exists():
                    raise TableFormatError(
                        f"{repository._manifest_path}: generation "
                        f"{manifest.generation} references missing table file "
                        f"{entry.file!r}"
                    )
                catalog[name] = _CatalogEntry(path, read_table_header(path))
            repository._generation = manifest.generation

        referenced = {entry.path for entry in catalog.values()}
        for path in sorted(directory.glob(f"*{TABLE_SUFFIX}")):
            if path in referenced:
                continue
            try:
                header = read_table_header(path)
            except (TableFormatError, OSError):
                continue  # unreadable file: not ours to delete or adopt
            name = header.name or path.stem
            staged = bool((header.meta or {}).get("staged"))
            if staged:
                # ours, but not part of the committed generation: either a
                # mutation that crashed before publishing, or a superseded
                # file whose GC was cut short — reclaim either way
                _unlink_quietly(path)
            elif name in catalog:
                if manifest is None:
                    raise ValueError(
                        f"duplicate table name {name!r} in {directory} "
                        f"({path.name} vs {catalog[name].path.name})"
                    )
                # an external file colliding with a manifest-managed name:
                # the committed generation wins; external in-place updates
                # to managed names must go through replace()
                continue
            else:
                catalog[name] = _CatalogEntry(path, header)

        repository._catalog = catalog
        if load_profiles:
            sidecar = directory / PROFILE_SIDECAR
            if sidecar.exists():
                try:
                    repository.profile_cache.load(sidecar)
                except Exception:
                    # a stale/truncated/corrupt sidecar — whatever unpickling
                    # or record decoding raises — is a cold cache, not an
                    # error: the repository itself is healthy
                    pass
                else:
                    repository.profile_cache.prune_fingerprints(
                        {
                            name: entry.header.fingerprint
                            for name, entry in repository._catalog.items()
                        }
                    )
        return repository

    @property
    def is_disk_backed(self) -> bool:
        """Whether this repository writes through to a directory."""
        return self._directory is not None

    @property
    def directory(self) -> Path | None:
        """The backing directory of a disk-backed repository (else ``None``)."""
        return self._directory

    @property
    def generation(self) -> int:
        """The current manifest generation (0 until the first mutation)."""
        return self._generation

    @property
    def live_snapshots(self) -> int:
        """How many unreleased snapshots currently pin table files."""
        return len(self._snapshot_files)

    @property
    def cached_tables(self) -> list[str]:
        """Names of disk-backed tables currently decoded in the LRU."""
        with self._lru_lock:
            return list(self._loaded)

    def save_profiles(self, path: str | Path | None = None) -> Path:
        """Persist the profile cache to a sidecar next to the tables.

        ``path`` defaults to ``<directory>/_profiles.cache`` for disk-backed
        repositories; in-memory repositories must pass an explicit path.  The
        sidecar is stamped with the current manifest generation.
        """
        if path is None:
            if self._directory is None:
                raise ValueError("in-memory repository: save_profiles needs an explicit path")
            path = self._directory / PROFILE_SIDECAR
        path = Path(path)
        self.profile_cache.save(path, generation=self._generation)
        return path

    def reload(self) -> int:
        """Adopt a newer manifest generation published by another process.

        The write protocol is single-writer-*process*: a resident reader (the
        serving server) must not mutate a directory some other process owns,
        but it may — and this is the hot-reload path — pick up the
        generations that writer publishes.  ``reload`` re-reads the manifest
        and, when its generation is newer than the one currently held, swaps
        in a catalog built from the referenced files' headers.  Everything
        else follows the in-process publish rules: the swap happens under the
        write lock as one reference assignment (readers see the old or the
        new catalog, never a mix), superseded files queue for
        reference-counted GC (the writer usually reclaims them first —
        already-deleted files are skipped quietly), stale LRU entries are
        dropped, and profile-cache entries whose fingerprints no longer match
        are pruned.

        Snapshots taken before the reload keep reading the files they have
        **already opened** — ``os.replace``/``unlink`` keep a mapped inode
        alive — but this process's pins are invisible to the writer process,
        which may delete a superseded file this process never opened.  A
        resident reader that must keep serving an old generation across
        writer GC therefore touches every table it needs right after
        snapshotting (the serving server does exactly this on bind).

        Returns the generation now held (unchanged if the on-disk manifest is
        absent, not newer, or torn mid-write — a torn read is retried on the
        next call).  Raises nothing in the steady state: a manifest
        referencing an already-vanished table file (the writer raced two
        generations ahead) is treated as torn and skipped.  In-memory
        repositories always return the current generation.
        """
        if self._manifest_path is None or not self._manifest_path.exists():
            return self._generation
        try:
            manifest = read_manifest(self._manifest_path)
        except (ManifestFormatError, OSError):
            return self._generation
        if manifest.generation <= self._generation:
            return self._generation
        # build the new catalog fully before taking the lock: header reads do
        # file I/O and must not stall concurrent publishes or snapshots
        new_catalog: dict[str, _CatalogEntry] = {}
        try:
            for name in sorted(manifest.tables):
                path = self._directory / manifest.tables[name].file
                new_catalog[name] = _CatalogEntry(path, read_table_header(path))
        except (TableFormatError, OSError):
            return self._generation
        with self._write_lock:
            if manifest.generation <= self._generation:
                return self._generation  # lost the race to a concurrent reload
            old_catalog = self._catalog
            self._catalog = new_catalog
            self._generation = manifest.generation
            kept = {entry.path for entry in new_catalog.values()}
            for entry in old_catalog.values():
                if entry.path not in kept:
                    self._pending_gc.add(entry.path)
            self._collect_garbage()
        with self._lru_lock:
            for name in list(self._loaded):
                entry = new_catalog.get(name)
                if entry is None or self._loaded[name][0] != entry.header.fingerprint:
                    del self._loaded[name]
        self.profile_cache.prune_fingerprints(
            {name: entry.header.fingerprint for name, entry in new_catalog.items()}
        )
        return self._generation

    def _load(self, name: str, entry: _CatalogEntry) -> Table:
        """Decode one catalogued table file through the LRU.

        LRU entries are matched by content fingerprint, so any snapshot whose
        pinned entry has the same content reuses the decoded table.
        """
        with self._lru_lock:
            cached = self._loaded.get(name)
            if cached is not None and cached[0] == entry.fingerprint:
                self._loaded.move_to_end(name)
                return cached[1]
        table = read_table(entry.path, mmap=self._mmap)
        if not table.name:
            table = table.rename(name)
        self._store_loaded(name, entry, table)
        return table

    def _store_loaded(self, name: str, entry: _CatalogEntry, table: Table) -> None:
        """Keep a decoded table file in the LRU while ``entry`` is current.

        Reads through an older snapshot never evict the current generation's
        tables; in-memory entries hold their table already.
        """
        with self._lru_lock:
            if entry.path is None or self._catalog.get(name) is not entry:
                return
            self._loaded[name] = (entry.fingerprint, table)
            self._loaded.move_to_end(name)
            if self._lru_tables is not None:
                while len(self._loaded) > self._lru_tables:
                    self._loaded.popitem(last=False)

    # -- snapshots and garbage collection ----------------------------------------

    def snapshot(self) -> RepositorySnapshot:
        """Pin the current generation as a consistent read-only view.

        The returned :class:`RepositorySnapshot` resolves all reads against
        the catalog as of this call; concurrent ``add``/``replace``/``remove``
        publish new generations without disturbing it, and files it references
        are protected from garbage collection until it is released.
        """
        with self._write_lock:
            token = next(self._snapshot_tokens)
            catalog = self._catalog  # publishes swap the reference, never mutate
            self._snapshot_files[token] = frozenset(
                entry.path for entry in catalog.values()
            )
            generation = self._generation
        return RepositorySnapshot(self, generation, catalog, token)

    def _release_snapshot(self, token: int) -> None:
        with self._write_lock:
            if self._snapshot_files.pop(token, None) is not None:
                self._collect_garbage()

    def _collect_garbage(self) -> int:
        """Reclaim superseded table files not pinned by any live snapshot.

        Caller holds ``_write_lock``.  Files are only ever deleted here (and
        in the crash-debris sweep of :meth:`open`): a path stays in the
        pending set for as long as any live snapshot references it.  Returns
        the number of files reclaimed.
        """
        if not self._pending_gc:
            return 0
        referenced = {entry.path for entry in self._catalog.values()}
        for files in self._snapshot_files.values():
            referenced |= files
        reclaimed = 0
        for path in list(self._pending_gc):
            if path in referenced:
                continue
            if _unlink_quietly(path):
                self._pending_gc.discard(path)
                reclaimed += 1
        return reclaimed

    def _stage_table(self, table: Table, meta: dict | None = None) -> _CatalogEntry:
        """The catalog entry of ``table``, written to disk when disk-backed.

        Fingerprinting costs one pass over the table bytes; an in-memory
        table is fingerprinted here and never again.  A disk-backed table is
        written under its content-addressed staging name: the name embeds the
        content fingerprint, so concurrent writers of the same table name
        never rewrite each other's bytes (identical content maps to the
        identical file, which both write byte-identically).  The header
        carries a ``staged`` mark so :meth:`open` can tell uncommitted debris
        from externally ingested files.
        """
        fingerprint = table_fingerprint(table)
        if self._directory is None:
            return _CatalogEntry(table=table, fingerprint=fingerprint)
        path = self._directory / f"{table.name}-{fingerprint[:16]}{TABLE_SUFFIX}"
        header = write_table(
            table,
            path,
            meta={"staged": True, **(meta or {})},
            chunk_rows=self._chunk_rows,
        )
        return _CatalogEntry(path, header)

    def _publish(self, new_catalog: dict[str, _CatalogEntry]) -> int:
        """Commit ``new_catalog`` as the next manifest generation.

        Caller holds ``_write_lock``.  Writes the manifest atomically (when
        disk-backed), swaps the in-process catalog reference (readers see
        either the old or the new dict, never a mix), queues superseded files
        for reference-counted garbage collection, and returns the published
        generation.
        """
        generation = self._generation + 1
        if self._manifest_path is not None:
            write_manifest(
                self._manifest_path,
                RepositoryManifest(
                    generation=generation,
                    tables={
                        name: ManifestEntry(
                            file=entry.path.name,
                            fingerprint=entry.header.fingerprint,
                            num_rows=entry.header.num_rows,
                        )
                        for name, entry in new_catalog.items()
                    },
                ),
            )
        old_catalog = self._catalog
        self._catalog = new_catalog
        self._generation = generation
        kept = {entry.path for entry in new_catalog.values()}
        for entry in old_catalog.values():
            if entry.path is not None and entry.path not in kept:
                self._pending_gc.add(entry.path)
        self._collect_garbage()
        return generation

    # -- mutation --------------------------------------------------------------

    def add(self, table: Table, meta: dict | None = None) -> int:
        """Register a table; its ``name`` must be unique and non-empty.

        In a disk-backed repository the table is staged under a
        content-addressed file name; either way it is published as the next
        generation.  ``meta`` (optional, disk-backed only) is stored in the
        table file header, e.g. ingestion provenance.  Returns the published
        generation.
        """
        if not table.name:
            raise ValueError("repository tables must have a non-empty name")
        name = table.name
        if name in self._catalog:
            raise ValueError(f"a table named {name!r} is already registered")
        entry = self._stage_table(table, meta)
        with self._write_lock:
            existing = self._catalog.get(name)
            if existing is not None:
                # lost the race to a concurrent add; drop our staged file
                # unless the winner staged identical content (same path)
                if entry.path is not None and entry.path != existing.path:
                    self._pending_gc.add(entry.path)
                    self._collect_garbage()
                raise ValueError(f"a table named {name!r} is already registered")
            generation = self._publish({**self._catalog, name: entry})
        self._store_loaded(name, entry, table)
        return generation

    def replace(self, table: Table, meta: dict | None = None) -> int:
        """Register or overwrite a table, invalidating any cached profiles.

        Disk-backed: the new content is staged under a fresh content-addressed
        file and published as the next manifest generation; the superseded
        file is garbage-collected once no live snapshot references it, so
        snapshots taken before the replace (and previously loaded
        memory-mapped tables) keep reading the old bytes.  Returns the
        published generation.
        """
        if not table.name:
            raise ValueError("repository tables must have a non-empty name")
        name = table.name
        entry = self._stage_table(table, meta)
        with self._write_lock:
            generation = self._publish({**self._catalog, name: entry})
        self._store_loaded(name, entry, table)
        self.profile_cache.invalidate(name)
        return generation

    def remove(self, name: str) -> int:
        """Unregister a table, invalidating any cached profiles.

        Disk-backed: the next manifest generation omits the table; its file
        is garbage-collected once no live snapshot references it (a reopened
        repository sees the same contents either way).  Returns the published
        generation.
        """
        with self._write_lock:
            if name not in self._catalog:
                raise KeyError(
                    f"no table named {name!r} in repository; available: {self.table_names}"
                )
            new_catalog = dict(self._catalog)
            del new_catalog[name]
            generation = self._publish(new_catalog)
        with self._lru_lock:
            self._loaded.pop(name, None)
        self.profile_cache.invalidate(name)
        return generation

    # -- reads: each takes a transient snapshot of the current generation ------

    get = _read_through_snapshot(RepositorySnapshot.get)
    header = _read_through_snapshot(RepositorySnapshot.header)
    schema = _read_through_snapshot(RepositorySnapshot.schema)
    fingerprint = _read_through_snapshot(RepositorySnapshot.fingerprint)
    profiles = _read_through_snapshot(RepositorySnapshot.profiles)
    profiles_many = _read_through_snapshot(RepositorySnapshot.profiles_many)
    open_chunks = _read_through_snapshot(RepositorySnapshot.open_chunks)

    def __iter__(self) -> Iterator[Table]:
        with self.snapshot() as view:
            yield from view

    @property
    def table_names(self) -> list[str]:
        """Names of all registered tables."""
        return list(self._catalog)

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def rechunk(
        self, name: str, chunk_rows: int | None = None, sort_by: str | None = None
    ) -> int:
        """Rewrite one table's file to a new row-group layout.

        ``chunk_rows`` follows :func:`repro.relational.persist.write_table_stream`
        semantics: an explicit target splits the table into row groups of that
        size, ``0`` rewrites it as one row group, ``None`` defers to
        ``ARDA_CHUNK_ROWS`` (falling back to the streaming default).  The
        rewrite streams chunk-to-chunk (bounded memory, except that one row
        group holds the whole table), goes through the same
        staged-publish protocol as :meth:`replace` — the new layout is staged
        under a layout-tagged content-addressed name, published as the next
        manifest generation, and the old file garbage-collected once
        unpinned — so concurrent snapshots keep reading the old bytes.
        Without ``sort_by``, the content fingerprint is invariant (the
        fingerprint is layout-invariant by construction), so cached profiles
        and LRU entries stay valid.  Returns the published generation.

        ``sort_by`` additionally rewrites the rows ordered by that column
        (stable, missing values last — :meth:`Table.sort_by` semantics), so
        zone-map pruning and the streaming join's binary-search chunk window
        hold on a previously unsorted key.  The sort order is recorded in the
        header (validated against monotone zones at write time).  The
        fingerprint *mechanism* stays layout-invariant, but reordering rows
        is a content change — the sorted file carries a new fingerprint and
        stale cached profiles simply miss.  Only non-categorical sort keys
        are supported: categorical zone maps cover dictionary codes, which
        value-ordering does not make monotone.
        """
        if self._directory is None:
            raise ValueError("rechunk requires a disk-backed repository")
        entry = self._catalog.get(name)
        if entry is None:
            raise KeyError(
                f"no disk-backed table named {name!r}; catalogued: {list(self._catalog)}"
            )
        resolved = resolve_chunk_rows(chunk_rows)
        if resolved is None and chunk_rows != 0:
            resolved = DEFAULT_STREAM_CHUNK_ROWS
        fingerprint = entry.header.fingerprint
        tag = "m" if resolved is None else f"r{resolved}"
        if sort_by is not None:
            if sort_by not in entry.header.column_names:
                raise ValueError(
                    f"sort_by column {sort_by!r} not in table {name!r} "
                    f"(columns: {entry.header.column_names})"
                )
            if entry.header.schema().type_of(sort_by) is CATEGORICAL:
                raise ValueError(
                    f"sort_by column {sort_by!r} is categorical; sort-ordered "
                    f"zone maps need a numeric/datetime/boolean key"
                )
            from hashlib import blake2b

            tag = f"s{blake2b(sort_by.encode('utf-8'), digest_size=4).hexdigest()}{tag}"
        path = self._directory / f"{name}-{fingerprint[:16]}.{tag}{TABLE_SUFFIX}"
        meta = dict(entry.header.meta or {})
        meta["staged"] = True
        reader = ChunkedTableReader(entry.path, mmap=self._mmap, header=entry.header)
        if sort_by is not None:
            # global sort order from the key column alone (stable, NaN last —
            # exactly Table.sort_by); rows then stream out as take-slices so
            # memory stays bounded by one output chunk plus the key column
            values = reader.column(sort_by).values
            order = np.argsort(values, kind="stable")
            nan_mask = np.isnan(values[order])
            order = np.concatenate([order[~nan_mask], order[nan_mask]])
            step = resolved or max(1, len(order))
            starts = range(0, len(order), step) if len(order) else [0]
            slices = (reader.take(order[lo : lo + step]) for lo in starts)
            header = write_table_stream(
                path, slices, name=name, chunk_rows=chunk_rows, meta=meta, sort_by=sort_by
            )
            if header.num_rows != entry.header.num_rows:
                _unlink_quietly(path)
                raise TableFormatError(
                    f"sort-rechunk of {name!r} changed the row count "
                    f"({entry.header.num_rows} -> {header.num_rows}); original kept"
                )
        else:
            header = write_table_stream(
                path, reader.iter_chunks(), name=name, chunk_rows=chunk_rows, meta=meta
            )
        if sort_by is None and header.fingerprint != fingerprint:
            _unlink_quietly(path)
            raise TableFormatError(
                f"rechunk of {name!r} changed the content fingerprint "
                f"({fingerprint} -> {header.fingerprint}); original kept"
            )
        new_entry = _CatalogEntry(path, header)
        with self._write_lock:
            if self._catalog.get(name) is not entry:
                # lost a race to a concurrent replace/remove: the new content
                # supersedes our relayout, so drop the staged file
                self._pending_gc.add(path)
                self._collect_garbage()
                raise RuntimeError(
                    f"table {name!r} was republished during rechunk; rerun against "
                    f"the new generation"
                )
            new_catalog = dict(self._catalog)
            new_catalog[name] = new_entry
            return self._publish(new_catalog)

    # -- ingestion ---------------------------------------------------------------

    @classmethod
    def from_csv_directory(
        cls,
        directory: str | Path,
        ingest: str | Path | None = None,
        lru_tables: int | None = 16,
        mmap: bool = True,
        chunk_rows: int | None = None,
    ) -> "DataRepository":
        """Load every ``*.csv`` file in a directory as a repository table.

        ``chunk_rows`` (ingest mode only) sets the row-group target for the
        ingested table files, as in :meth:`open`.

        Without ``ingest`` this decodes every CSV into memory (the original
        behaviour).  With ``ingest`` set to a directory, each CSV is converted
        **once** through the manifest-publishing write path (skipped when the
        catalogued table already carries the CSV's ``st_mtime_ns`` in its
        ingest provenance) and the result is returned as a lazy disk-backed
        repository — the CSV parse cost is paid on the first run only.  The
        ingest directory mirrors the CSV directory for *ingested* tables: a
        catalogued table whose header carries the CSV-ingest provenance mark
        but whose source CSV has disappeared is removed.  Tables persisted
        into the same directory by other means (``add``/``replace``/``save``)
        carry no mark and are never touched.
        """
        directory = Path(directory)
        if ingest is None:
            repository = cls()
            for path in sorted(directory.glob("*.csv")):
                repository.add(read_csv(path, name=path.stem))
            return repository
        ingest_dir = Path(ingest)
        ingest_dir.mkdir(parents=True, exist_ok=True)
        repository = cls.open(
            ingest_dir, lru_tables=lru_tables, mmap=mmap, chunk_rows=chunk_rows
        )
        stems = set()
        for path in sorted(directory.glob("*.csv")):
            stems.add(path.stem)
            mtime_ns = path.stat().st_mtime_ns
            entry = repository._catalog.get(path.stem)
            if entry is not None:
                provenance = entry.header.meta or {}
                if (
                    provenance.get("source") == "csv-ingest"
                    and provenance.get("src_mtime_ns") == mtime_ns
                ):
                    continue  # up to date: same CSV file version already ingested
            meta = {"source": "csv-ingest", "src_mtime_ns": mtime_ns}
            table = read_csv(path, name=path.stem)
            if path.stem in repository:
                repository.replace(table, meta=meta)
            else:
                repository.add(table, meta=meta)
        for name in list(repository._catalog):
            if name in stems:
                continue
            provenance = (repository._catalog[name].header.meta or {}).get("source")
            if provenance == "csv-ingest":
                repository.remove(name)
        return repository
