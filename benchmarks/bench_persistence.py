"""Benchmarks for the disk-backed repository and persistent profile cache.

Measures, on a generated repository of native binary tables:

* **save** — CSV-free ingestion throughput: writing every table in the
  binary columnar format (atomic temp-file + rename per table).
* **cold-open** — cataloguing the repository from file headers only; verifies
  via the persist layer's byte accounting that opening reads **< 5% of total
  file bytes** before any table access (the lazy-loading contract).
* **lazy-load vs eager-load** — materialising the large table memory-mapped
  (headers + string dictionaries only) vs fully read into RAM.  The large
  table is one row group, and the lazy load must allocate **< 5% of its row
  pages** beyond its decoded dictionaries (``peak_mb`` column): the columns
  are views into the mapping, never a copy.
* **profile-cold vs profile-cached** — discovery startup on the large
  (>= 200k rows) table: loading + profiling from scratch vs serving the
  persisted profile sidecar; asserts the cached path is **>= 5x** faster.
* **save-chunked / load-chunked / chunked-scan** — 16 row groups vs one
  (``vs_monolithic`` is the 16-group cost over the one-group cost): write
  cost, full materialisation cost, and the peak traced memory of a
  chunk-at-a-time scan (the out-of-core access pattern), reported in the
  ``peak_mb`` column.

The kernels too fast to time reliably also report an exact work count that
the regression gate pins: ``bytes_read`` (cold-open), ``misses`` and
``bytes_read`` (profile-cached) and ``page_bytes_read`` (chunked-scan).
* **streaming-join vs in-memory-join** — the pruned chunked hash join
  (``grace_left_join`` with no budget: the build side stays in memory) over
  a chunked file against ``left_join`` on the materialised table; asserts the
  outputs are **value-identical** and that zone maps prune **>= 50%** of the
  chunks on the selective-key workload, and reports both paths' peak memory.

Standalone on purpose (no pytest-benchmark dependency) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_persistence.py --quick --json BENCH_persistence.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.discovery.repository import DataRepository, PROFILE_SIDECAR, TABLE_SUFFIX
from repro.relational import persist
from repro.relational.join import grace_left_join, left_join
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table

BIG_TABLE = "events"


def build_small_table(index: int, rows: int) -> Table:
    """One catalog filler table: an id key, a tag column and two measures."""
    rng = np.random.default_rng(1000 + index)
    return Table.from_dict(
        {
            "entity_id": [f"user-{i:06d}" for i in rng.integers(0, rows * 4, size=rows)],
            "tag": [f"tag-{i:03d}" for i in rng.integers(0, 50, size=rows)],
            "measure_a": rng.normal(size=rows),
            "measure_b": rng.normal(size=rows),
        },
        name=f"aux_{index:03d}",
    )


def build_big_table(rows: int) -> Table:
    """The >= 200k-row table the profiling benchmark runs against."""
    rng = np.random.default_rng(7)
    return Table.from_dict(
        {
            "entity_id": [f"user-{i:06d}" for i in rng.integers(0, rows // 4, size=rows)],
            "label": [f"label-{i:04d}" for i in rng.integers(0, 5000, size=rows)],
            "f0": rng.normal(size=rows),
            "f1": rng.normal(size=rows),
            "f2": rng.uniform(size=rows),
            "f3": rng.normal(size=rows) ** 2,
            "target": rng.normal(size=rows),
        },
        name=BIG_TABLE,
    )


def _timed(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed_peak(fn, repeats: int):
    """Best wall-clock plus the peak *traced* allocation of the best run.

    tracemalloc covers Python and NumPy heap allocations but not mapped file
    pages, which is exactly the working-set definition the chunked layout is
    designed to bound (the OS page cache is reclaimable; the heap is not).
    """
    best, result, peak = float("inf"), None, 0
    for _ in range(repeats):
        tracemalloc.start()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if elapsed < best:
            best, peak = elapsed, run_peak
    return best, result, peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument("--tables", type=int, default=100, help="number of catalog tables")
    parser.add_argument("--rows", type=int, default=200_000, help="rows in the large table")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()
    small_rows = 2_000 if args.quick else 20_000
    repeats = 2 if args.quick else 3
    results: list[dict] = []
    failures: list[str] = []

    workdir = Path(tempfile.mkdtemp(prefix="bench_persistence_"))
    try:
        print(f"building {args.tables} x {small_rows}-row tables + 1 x {args.rows}-row table")
        tables = [build_small_table(i, small_rows) for i in range(args.tables)]
        big = build_big_table(args.rows)

        # -- save --------------------------------------------------------------
        def run_save():
            for table in tables:
                table.save(workdir / f"{table.name}{TABLE_SUFFIX}")
            big.save(workdir / f"{BIG_TABLE}{TABLE_SUFFIX}")

        save_s, _ = _timed(run_save, 1)
        total_bytes = sum(p.stat().st_size for p in workdir.glob(f"*{TABLE_SUFFIX}"))
        results.append(
            {
                "bench": "save",
                "seconds": save_s,
                "tables": args.tables + 1,
                "mb": total_bytes / 1e6,
                "mb_per_s": total_bytes / 1e6 / save_s,
            }
        )

        # -- cold-open: headers only ------------------------------------------
        def run_open():
            persist.reset_bytes_read()
            repo = DataRepository.open(workdir, load_profiles=False)
            return len(repo), persist.bytes_read()

        open_s, (n_catalogued, open_bytes) = _timed(run_open, repeats)
        read_fraction = open_bytes / total_bytes
        results.append(
            {
                "bench": "cold-open",
                "seconds": open_s,
                "tables": n_catalogued,
                "bytes_read": open_bytes,
                "total_bytes": total_bytes,
                "read_fraction": read_fraction,
            }
        )
        if read_fraction >= 0.05:
            failures.append(
                f"cold-open read {read_fraction:.1%} of file bytes (contract: < 5%)"
            )

        # -- lazy vs eager load of the large table ----------------------------
        big_path = workdir / f"{BIG_TABLE}{TABLE_SUFFIX}"
        lazy_s, _ = _timed(lambda: Table.load(big_path, mmap=True), repeats)
        eager_s, _ = _timed(lambda: Table.load(big_path, mmap=False), repeats)
        # peaks come from separate untimed runs: tracing slows the dictionary
        # decode (one Python string per entry) by an order of magnitude
        _, _, lazy_peak = _timed_peak(lambda: Table.load(big_path, mmap=True), 1)

        def decode_dictionaries():
            reader = persist.open_chunks(big_path)
            schema = reader.schema()
            return [
                reader.dictionary(name)
                for name in reader.column_names
                if schema.type_of(name) is CATEGORICAL
            ]

        _, _, dictionary_peak = _timed_peak(decode_dictionaries, 1)
        big_reader = persist.open_chunks(big_path)
        row_page_bytes = sum(big_reader.chunk_nbytes(i) for i in range(big_reader.num_chunks))
        results.append(
            {
                "bench": "lazy-load",
                "seconds": lazy_s,
                "peak_mb": lazy_peak / 1e6,
                "dictionary_peak_mb": dictionary_peak / 1e6,
                "row_page_mb": row_page_bytes / 1e6,
            }
        )
        results.append(
            {"bench": "eager-load", "seconds": eager_s, "vs_lazy": eager_s / lazy_s}
        )
        if big_reader.num_chunks == 1 and lazy_peak - dictionary_peak >= 0.05 * row_page_bytes:
            failures.append(
                f"lazy load allocated {(lazy_peak - dictionary_peak) / 1e6:.2f} MB beyond "
                f"its dictionaries (contract: < 5% of the {row_page_bytes / 1e6:.1f} MB "
                "of row pages of a one-chunk file)"
            )

        # -- cold vs cached profiling (discovery startup) ---------------------
        def run_profile_cold():
            (workdir / PROFILE_SIDECAR).unlink(missing_ok=True)
            repo = DataRepository.open(workdir)
            return repo.profiles(BIG_TABLE)

        cold_s, _ = _timed(run_profile_cold, repeats)
        repo = DataRepository.open(workdir)
        repo.profiles(BIG_TABLE)
        repo.save_profiles()

        def run_profile_cached():
            persist.reset_bytes_read()
            cached_repo = DataRepository.open(workdir)
            cached_repo.profiles(BIG_TABLE)
            misses = cached_repo.profile_cache.stats()["misses"]
            assert misses == 0, "sidecar was not hit"
            return misses, persist.bytes_read()

        cached_s, (cached_misses, cached_bytes) = _timed(run_profile_cached, repeats)
        speedup = cold_s / cached_s
        results.append({"bench": "profile-cold", "seconds": cold_s, "rows": args.rows})
        results.append(
            {
                "bench": "profile-cached",
                "seconds": cached_s,
                "speedup_vs_cold": speedup,
                "misses": cached_misses,
                "bytes_read": cached_bytes,
            }
        )
        if speedup < 5.0:
            failures.append(
                f"cached-profile startup only {speedup:.1f}x faster than cold (contract: >= 5x)"
            )

        # -- chunked layout: save / load / scan -------------------------------
        chunk_rows = max(args.rows // 16, 1)
        mono_path = workdir / "events_mono.tbl"
        chunked_path = workdir / "events_chunked.tbl"
        save_mono_s, _ = _timed(
            lambda: persist.write_table(big, mono_path, chunk_rows=0), repeats
        )
        save_chunked_s, _ = _timed(
            lambda: persist.write_table(big, chunked_path, chunk_rows=chunk_rows), repeats
        )
        results.append(
            {
                "bench": "save-chunked",
                "seconds": save_chunked_s,
                "chunks": 16,
                "vs_monolithic": save_chunked_s / save_mono_s,
            }
        )
        load_mono_s, _, load_mono_peak = _timed_peak(
            lambda: Table.load(mono_path, mmap=False), repeats
        )
        load_chunked_s, _, load_chunked_peak = _timed_peak(
            lambda: persist.open_chunks(chunked_path, mmap=False).table(), repeats
        )
        results.append(
            {
                "bench": "load-chunked",
                "seconds": load_chunked_s,
                "peak_mb": load_chunked_peak / 1e6,
                "vs_monolithic": load_chunked_s / load_mono_s,
            }
        )

        def run_scan():
            persist.reset_bytes_read()
            reader = persist.open_chunks(chunked_path, mmap=False)
            total = 0.0
            for part in reader.iter_chunks(columns=["f0"]):
                total += float(np.nansum(part.column("f0").values))
            return persist.bytes_read_detail()["pages"]

        scan_s, scan_page_bytes, scan_peak = _timed_peak(run_scan, repeats)
        results.append(
            {
                "bench": "chunked-scan",
                "seconds": scan_s,
                "peak_mb": scan_peak / 1e6,
                "full_load_peak_mb": load_mono_peak / 1e6,
                "page_bytes_read": scan_page_bytes,
            }
        )
        if scan_peak >= load_mono_peak / 4:
            failures.append(
                f"chunk-at-a-time scan peaked at {scan_peak / 1e6:.1f} MB, "
                f"not clearly below the {load_mono_peak / 1e6:.1f} MB full load"
            )

        # -- streaming pruned join vs in-memory join --------------------------
        # sorted keys make chunk zones selective; the right side overlaps only
        # the first tenth of the key range, so >= 50% of chunks must prune
        join_rows = args.rows
        rng = np.random.default_rng(17)
        join_left = Table.from_dict(
            {
                "key": np.arange(join_rows, dtype=float),
                "a": rng.normal(size=join_rows),
                "b": rng.normal(size=join_rows),
            },
            name="join_left",
        )
        join_right = Table.from_dict(
            {
                "rkey": np.arange(join_rows // 10, dtype=float),
                "feature": rng.normal(size=join_rows // 10),
            },
            name="join_right",
        )
        join_path = workdir / "join_left.tbl"
        persist.write_table(join_left, join_path, chunk_rows=max(join_rows // 20, 1))

        def run_streaming_join():
            return grace_left_join(
                persist.open_chunks(join_path), join_right, [("key", "rkey")]
            )

        stream_join_s, (streamed, stats), stream_join_peak = _timed_peak(
            run_streaming_join, repeats
        )
        mem_join_s, reference, mem_join_peak = _timed_peak(
            lambda: left_join(Table.load(join_path, mmap=False), join_right, [("key", "rkey")]),
            repeats,
        )
        results.append(
            {
                "bench": "streaming-join",
                "seconds": stream_join_s,
                "peak_mb": stream_join_peak / 1e6,
                "pruning_ratio": stats.pruning_ratio,
                "chunks_probed": stats.chunks_probed,
                "chunks_total": stats.chunks_total,
            }
        )
        results.append(
            {
                "bench": "in-memory-join",
                "seconds": mem_join_s,
                "peak_mb": mem_join_peak / 1e6,
                "vs_streaming": mem_join_s / stream_join_s,
            }
        )
        identical = streamed.column_names == reference.column_names and all(
            streamed.column(name) == reference.column(name)
            for name in reference.column_names
        )
        if not identical:
            failures.append("streaming join output differs from the in-memory join")
        if stats.pruning_ratio < 0.5:
            failures.append(
                f"zone maps pruned only {stats.pruning_ratio:.0%} of chunks on the "
                "selective-key join (contract: >= 50%)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"\n{'bench':<16} {'seconds':>10}   extra")
    for row in results:
        extra = ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
            if k not in ("bench", "seconds")
        )
        print(f"{row['bench']:<16} {row['seconds'] * 1e3:>8.1f}ms   {extra}")

    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"process peak RSS: {max_rss_mb:.0f} MB (informational; includes table building)")

    if args.json:
        args.json.write_text(json.dumps({"suite": "persistence", "results": results}, indent=2))
        print(f"\nwrote {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
