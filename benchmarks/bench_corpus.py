"""Corpus-scale discovery & join benchmarks (the out-of-core engine gate).

Generates a repository of ``--tables`` chunked candidate tables holding
``--rows`` rows in total and measures the three corpus-scale paths this
engine adds:

* **discovery-serial vs discovery-sharded** — cold join discovery (no profile
  sidecar, fresh catalog per run) on one context vs fanned out over a
  :class:`~repro.core.executor.JoinExecutor` as per-(table, chunk-range)
  profiling shards.  The reported ``seconds`` is the **p50** over the
  repeats.  Asserts the sharded candidate list — tables, key pairs, soft
  flags and float scores — is **identical** to the serial one (sharding may
  only change wall-clock time, never the ranking), and, on runners with
  >= 4 cores, that sharding is **>= 2x** faster.
* **spill-join** — a Grace-partitioned build-side-spill join whose right
  table is ~an order of magnitude larger than ``memory_budget``, against
  ``left_join`` on the fully materialised tables.  Asserts the outputs are
  **value-identical** and that the spill path's peak traced heap stays
  **bounded by the budget** (within a fixed partition-overhead multiple)
  while the in-memory reference scales with the data.  Its keys are unique,
  so pre-aggregation shrinks no ~budget-sized partition and the base side
  spills: the non-resident side of the spill join's residency choice.
* **spill-join-fanout** — the same join and checks over a build side with
  64 rows per key, whose aggregated partitions all fit the budget: they stay
  resident, and only the build side spills.
* **sorted-pruned-join** — ``rechunk(sort_by=key)`` on one corpus table, then
  a selective streaming join driven off the sorted chunks.  Asserts the
  sort-order marker survives in the header and that zone maps prune
  **>= 50%** of the chunks.

Standalone on purpose (no pytest-benchmark dependency) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_corpus.py --quick --json BENCH_corpus.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.executor import make_executor
from repro.discovery.discovery import JoinDiscovery
from repro.discovery.repository import DataRepository
from repro.relational import persist
from repro.relational.join import (
    StreamJoinStats,
    iter_grace_left_join,
    left_join,
    streaming_left_join,
)
from repro.relational.table import Table

NUM_HASHES = 32


def build_corpus_table(index: int, rows: int) -> Table:
    """One candidate table: a shared entity key, a tag and two measures."""
    rng = np.random.default_rng(3000 + index)
    return Table.from_dict(
        {
            "entity_id": [f"user-{i:06d}" for i in rng.integers(0, rows * 2, size=rows)],
            "tag": [f"tag-{i:03d}" for i in rng.integers(0, 40, size=rows)],
            f"measure_{index % 7}": rng.normal(size=rows),
            "amount": rng.uniform(size=rows),
        },
        name=f"corpus_{index:03d}",
    )


def build_base_table(rows: int, key_domain: int) -> Table:
    """The base table discovery runs against; keys overlap the corpus domain."""
    rng = np.random.default_rng(11)
    return Table.from_dict(
        {
            "entity_id": [f"user-{i:06d}" for i in rng.integers(0, key_domain, size=rows)],
            "f0": rng.normal(size=rows),
            "target": rng.normal(size=rows),
        },
        name="base",
    )


def _timed_p50(fn, repeats: int):
    timings, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), result


def _timed_peak(fn, repeats: int):
    """Best wall-clock plus the peak traced allocation of the best run."""
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


def candidate_fingerprint(candidates) -> list[tuple]:
    """Everything that defines a ranking: order, tables, keys, exact scores."""
    return [
        (
            c.foreign_table,
            tuple((k.base_column, k.foreign_column, k.soft) for k in c.keys),
            c.score,
        )
        for c in candidates
    ]


def run_spill_kernel(
    bench: str,
    left: Table,
    right: Table,
    budget: int,
    workdir: Path,
    repeats: int,
    failures: list[str],
) -> dict:
    """Time a streamed Grace join of ``left`` against ``right`` (both read
    from disk) under ``budget``, against ``left_join`` in memory.

    Appends to ``failures`` when the output differs from the in-memory join
    or the spill path's peak traced heap exceeds 8x the budget or is not
    below the in-memory join's.
    """
    left_path = workdir / f"{bench}-left.tbl"
    right_path = workdir / f"{bench}-right.tbl"
    chunk_rows = max(left.num_rows // 16, 1)
    persist.write_table(left, left_path, chunk_rows=chunk_rows)
    persist.write_table(right, right_path, chunk_rows=chunk_rows)

    mem_s, reference, mem_peak = _timed_peak(
        lambda: left_join(Table.load(left_path, mmap=False), right, [("key", "rkey")]),
        repeats,
    )

    def run_spill_join():
        # consume the join as a stream — the budget bound is a property of
        # the iterator, not of materialising the (budget-oblivious) output.
        # each yielded chunk is checked against the reference rows in place
        # (array views, no copies) and dropped.
        stats = StreamJoinStats()
        offset, ok = 0, True
        for chunk in iter_grace_left_join(
            persist.open_chunks(left_path),
            persist.open_chunks(right_path),
            [("key", "rkey")],
            memory_budget=budget,
            spill_dir=workdir / "spill",
            stats=stats,
        ):
            stop = offset + chunk.num_rows
            ok = ok and chunk.column_names == reference.column_names
            for name in chunk.column_names:
                ok = ok and np.array_equal(
                    chunk.column(name).values,
                    reference.column(name).values[offset:stop],
                    equal_nan=True,
                )
            offset = stop
        return ok and offset == reference.num_rows, stats

    spill_s, (identical, spill_stats), spill_peak = _timed_peak(run_spill_join, repeats)
    if not identical:
        failures.append(f"{bench} output differs from the in-memory join")
    # one partition's build slice (~budget bytes) + the resident aggregated
    # partitions (<= budget) + one source chunk + the output chunk are live
    # at once; 8x covers gather scratch and the float64 round-trips of the
    # probe kernels, while the in-memory reference holds entire tables and
    # clearly breaks this bound
    if spill_peak > 8 * budget:
        failures.append(
            f"{bench} peak heap {spill_peak / 1e6:.1f} MB exceeds 8x the "
            f"{budget / 1e6:.1f} MB memory budget (not budget-bounded)"
        )
    if spill_peak >= mem_peak:
        failures.append(
            f"{bench} peak heap {spill_peak / 1e6:.1f} MB is not below the "
            f"in-memory join's {mem_peak / 1e6:.1f} MB"
        )
    return {
        "bench": bench,
        "seconds": spill_s,
        "rows": left.num_rows,
        "partitions": spill_stats.spill_partitions,
        "spill_mb": spill_stats.spill_bytes_written / 1e6,
        "budget_mb": budget / 1e6,
        "peak_mb": spill_peak / 1e6,
        "in_memory_s": mem_s,
        "in_memory_peak_mb": mem_peak / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument("--rows", type=int, default=None, help="total corpus rows")
    parser.add_argument("--tables", type=int, default=None, help="number of corpus tables")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()
    total_rows = args.rows if args.rows is not None else (500_000 if args.quick else 10_000_000)
    num_tables = args.tables if args.tables is not None else (50 if args.quick else 200)
    rows_per_table = max(total_rows // num_tables, 64)
    chunk_rows = max(rows_per_table // 8, 32)
    repeats = 3
    cores = os.cpu_count() or 1
    results: list[dict] = []
    failures: list[str] = []

    workdir = Path(tempfile.mkdtemp(prefix="bench_corpus_"))
    try:
        print(
            f"building {num_tables} x {rows_per_table}-row corpus tables "
            f"({chunk_rows}-row chunks) on {cores} core(s)"
        )
        start = time.perf_counter()
        repo = DataRepository.open(workdir, load_profiles=False, chunk_rows=chunk_rows)
        for index in range(num_tables):
            repo.add(build_corpus_table(index, rows_per_table))
        build_s = time.perf_counter() - start
        base = build_base_table(
            min(rows_per_table, 20_000), key_domain=rows_per_table * 2
        )
        print(f"corpus built in {build_s:.1f}s")

        # -- discovery: serial vs chunk-sharded -------------------------------
        def run_discovery(backend: str | None):
            # a fresh catalog and no profile sidecar per run: every repeat
            # pays the full cold profiling cost the sharding is meant to hide
            cold = DataRepository.open(workdir, load_profiles=False, chunk_rows=chunk_rows)
            discovery = JoinDiscovery(num_hashes=NUM_HASHES)
            executor = make_executor(backend, cores) if backend else None
            try:
                return discovery.discover(base, cold, target="target", executor=executor)
            finally:
                if executor is not None:
                    executor.shutdown()

        serial_s, serial_candidates = _timed_p50(lambda: run_discovery(None), repeats)
        backend = "process" if cores >= 4 else "thread"
        sharded_s, sharded_candidates = _timed_p50(
            lambda: run_discovery(backend), repeats
        )
        speedup = serial_s / sharded_s
        results.append(
            {
                "bench": "discovery-serial",
                "seconds": serial_s,
                "tables": num_tables,
                "candidates": len(serial_candidates),
            }
        )
        results.append(
            {
                "bench": "discovery-sharded",
                "seconds": sharded_s,
                "backend": backend,
                "n_jobs": cores,
                "speedup_vs_serial": speedup,
            }
        )
        if candidate_fingerprint(serial_candidates) != candidate_fingerprint(
            sharded_candidates
        ):
            failures.append(
                "sharded discovery ranking differs from serial (determinism contract)"
            )
        if cores >= 4 and speedup < 2.0:
            failures.append(
                f"sharded discovery only {speedup:.2f}x faster than serial on "
                f"{cores} cores (contract: >= 2x on >= 4 cores)"
            )
        elif cores < 4:
            print(f"note: {cores} core(s) — the >= 2x sharding speedup gate is skipped")

        # -- build-side spill joins vs in-memory join -------------------------
        spill_rows = min(total_rows // 2, 400_000)
        rng = np.random.default_rng(23)
        spill_left = Table.from_dict(
            {
                "key": rng.permutation(spill_rows).astype(float),
                "a": rng.normal(size=spill_rows),
            },
            name="spill_left",
        )
        spill_right = Table.from_dict(
            {
                "rkey": np.arange(spill_rows, dtype=float),
                "feat_a": rng.normal(size=spill_rows),
                "feat_b": rng.normal(size=spill_rows),
                "feat_c": rng.uniform(size=spill_rows),
            },
            name="spill_right",
        )
        # the right side estimates at rows x 8 bytes x 4 columns; a budget of
        # a tenth of that forces ~10 Grace partitions.  Both sides stream from
        # disk — the corpus-scale scenario where neither table fits in memory.
        budget = spill_rows * 8 * 4 // 10
        results.append(
            run_spill_kernel(
                "spill-join", spill_left, spill_right, budget, workdir, repeats, failures
            )
        )

        # 64 build rows per key: the same raw bytes and partitions, but the
        # aggregated build is 1/64 of them and every partition stays resident
        fan_keys = max(spill_rows // 64, 1)
        fan_left = Table.from_dict(
            {
                "key": rng.integers(0, 2 * fan_keys, size=spill_rows).astype(float),
                "a": rng.normal(size=spill_rows),
            },
            name="fan_left",
        )
        fan_right = Table.from_dict(
            {
                "rkey": rng.integers(0, fan_keys, size=spill_rows).astype(float),
                "feat_a": rng.normal(size=spill_rows),
                "feat_b": rng.normal(size=spill_rows),
                "feat_c": rng.uniform(size=spill_rows),
            },
            name="fan_right",
        )
        results.append(
            run_spill_kernel(
                "spill-join-fanout", fan_left, fan_right, budget, workdir, repeats, failures
            )
        )

        # -- sort-ordered zone maps: rechunk + pruned streaming join ----------
        sort_rows = min(total_rows // 2, 400_000)
        sorted_left = Table.from_dict(
            {
                "key": rng.permutation(sort_rows).astype(float),
                "val": rng.normal(size=sort_rows),
            },
            name="sorted_left",
        )
        repo.add(sorted_left)
        repo.rechunk("sorted_left", chunk_rows=max(sort_rows // 20, 1), sort_by="key")
        header = repo._catalog["sorted_left"].header
        if header.sort_by != "key":
            failures.append("rechunk(sort_by=) did not record the sort-order marker")
        # selective probe: the build side covers only the first tenth of the
        # (now physically sorted) key range, so >= 50% of chunks must prune
        sorted_right = Table.from_dict(
            {
                "rkey": np.arange(sort_rows // 10, dtype=float),
                "feature": rng.normal(size=sort_rows // 10),
            },
            name="sorted_right",
        )

        def run_sorted_join():
            return streaming_left_join(
                repo.open_chunks("sorted_left"), sorted_right, [("key", "rkey")]
            )

        sorted_s, (_, sorted_stats) = _timed_p50(run_sorted_join, repeats)
        results.append(
            {
                "bench": "sorted-pruned-join",
                "seconds": sorted_s,
                "rows": sort_rows,
                "pruning_ratio": sorted_stats.pruning_ratio,
                "chunks_probed": sorted_stats.chunks_probed,
                "chunks_total": sorted_stats.chunks_total,
            }
        )
        if sorted_stats.pruning_ratio < 0.5:
            failures.append(
                f"sort-ordered zone maps pruned only {sorted_stats.pruning_ratio:.0%} "
                "of chunks on the selective join (contract: >= 50%)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"\n{'bench':<20} {'seconds':>10}   extra")
    for row in results:
        extra = ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
            if k not in ("bench", "seconds")
        )
        print(f"{row['bench']:<20} {row['seconds'] * 1e3:>8.1f}ms   {extra}")

    if args.json:
        args.json.write_text(json.dumps({"suite": "corpus", "results": results}, indent=2))
        print(f"\nwrote {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
