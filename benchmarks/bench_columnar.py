"""Microbenchmarks for the columnar storage refactor.

Compares the dictionary-encoded / zero-copy-view storage layer against
faithful copies of the legacy object-array kernels it replaced:

* **join-probe** — composite-key hash-join probe on categorical keys: legacy
  factorisation (string ``np.unique`` over every row) vs dictionary-remap
  factorisation (integer gathers only).
* **profile** — repository column profiling: legacy Python-loop null/distinct
  counting plus per-(value, seed) blake2b MinHash vs code-vectorised counting
  plus one-digest-per-entry MinHash.
* **take/filter** — coreset-style row sampling: legacy eager per-column gather
  vs lazy index-backed views that only materialise the touched key column
  (peak allocations measured with ``tracemalloc``).
* **group-by-aggregate** — join pre-aggregation (mean + mode) of a table with
  fan-out 32–64 per key: legacy per-group ``np.nanmean`` loop vs the segment
  kernels, which must reproduce it byte for byte.

Standalone on purpose (no pytest-benchmark dependency) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_columnar.py --quick
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.discovery.profiles import profile_table
from repro.relational.aggregate import _group_rows, group_by_aggregate
from repro.relational.column import Column
from repro.relational.join import _BuildKeys
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table

# ---------------------------------------------------------------------------
# legacy kernels (pre-refactor behaviour, kept verbatim for the comparison)
# ---------------------------------------------------------------------------


def _legacy_factorize_pair(left_values, right_values, left_is_cat):
    """Old ``_factorize_pair``: shared codes via np.unique over all rows."""
    left_valid = (
        np.array([v is not None for v in left_values], dtype=bool)
        if left_is_cat
        else ~np.isnan(left_values)
    )
    right_valid = (
        np.array([v is not None for v in right_values], dtype=bool)
        if left_is_cat
        else ~np.isnan(right_values)
    )
    left_kept = left_values[left_valid]
    right_kept = right_values[right_valid]
    if left_is_cat:
        left_kept = left_kept.astype("U")
        right_kept = right_kept.astype("U")
    _, inverse = np.unique(np.concatenate([left_kept, right_kept]), return_inverse=True)
    left_code = np.full(len(left_values), -1, dtype=np.int64)
    right_code = np.full(len(right_values), -1, dtype=np.int64)
    left_code[left_valid] = inverse[: len(left_kept)]
    right_code[right_valid] = inverse[len(left_kept):]
    return left_code, right_code


def _legacy_match_first_occurrence(left_arrays, right_arrays, cat_flags):
    """Old vectorised probe operating on decoded object arrays."""
    n_left = len(left_arrays[0])
    n_right = len(right_arrays[0])
    left_code = np.zeros(n_left, dtype=np.int64)
    right_code = np.zeros(n_right, dtype=np.int64)
    left_ok = np.ones(n_left, dtype=bool)
    right_ok = np.ones(n_right, dtype=bool)
    for left_values, right_values, is_cat in zip(left_arrays, right_arrays, cat_flags):
        codes_left, codes_right = _legacy_factorize_pair(left_values, right_values, is_cat)
        radix = int(max(codes_left.max(initial=-1), codes_right.max(initial=-1))) + 2
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


def _legacy_mode_codes_per_group(sorted_codes, sorted_group_ids, n_groups):
    """Old per-group mode: one lexsort over the (group, code) pairs."""
    out = np.full(n_groups, -1, dtype=np.int32)
    valid = sorted_codes >= 0
    if not valid.any():
        return out
    groups = sorted_group_ids[valid].astype(np.int64)
    codes = sorted_codes[valid].astype(np.int64)
    order = np.lexsort((codes, groups))
    g, c = groups[order], codes[order]
    run_start = np.ones(len(g), dtype=bool)
    run_start[1:] = (g[1:] != g[:-1]) | (c[1:] != c[:-1])
    starts = np.nonzero(run_start)[0]
    counts = np.diff(np.append(starts, len(g)))
    pair_group = g[starts]
    pair_code = c[starts]
    first_row = order[starts]
    best = np.lexsort((first_row, -counts, pair_group))
    keep = np.ones(len(best), dtype=bool)
    keep[1:] = pair_group[best[1:]] != pair_group[best[:-1]]
    chosen = best[keep]
    out[pair_group[chosen]] = pair_code[chosen]
    return out


def _legacy_group_by_mean_mode(table: Table, key: str) -> Table:
    """Old ``group_by_aggregate``: one ``np.nanmean`` call per group per
    numeric column, the categorical mode on code slices."""
    group_ids, first_rows = _group_rows(table, [key])
    n_groups = len(first_rows)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    boundaries = np.append(np.searchsorted(sorted_ids, np.arange(n_groups)), len(sorted_ids))
    out = [table.column(key).take(first_rows)]
    for col in table.columns():
        if col.name == key:
            continue
        if col.ctype is CATEGORICAL:
            codes = _legacy_mode_codes_per_group(col.codes[order], sorted_ids, n_groups)
            out.append(Column.from_codes(col.name, codes, col.dictionary))
            continue
        data = col.values[order]
        values = np.array(
            [
                float(np.nanmean(v)) if np.any(~np.isnan(v)) else float("nan")
                for v in (data[boundaries[g]:boundaries[g + 1]] for g in range(n_groups))
            ],
            dtype=np.float64,
        )
        out.append(Column.from_array(col.name, values, col.ctype))
    return Table(out, name=table.name)


def _legacy_stable_hash(value: str, seed: int) -> int:
    digest = hashlib.blake2b(
        value.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def _legacy_minhash(values, num_hashes: int = 64) -> np.ndarray:
    """Old MinHash: ``num_hashes`` blake2b digests per distinct value."""
    signature = np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
    seen = set()
    for value in values:
        if value is None:
            continue
        text = str(value)
        if text in seen:
            continue
        seen.add(text)
        for i in range(num_hashes):
            h = _legacy_stable_hash(text, i)
            if h < signature[i]:
                signature[i] = h
    return signature


def _legacy_profile_column(values, is_cat, num_hashes=64, max_minhash_values=2000):
    """Old ``profile_column`` body: Python loops over the object array."""
    if is_cat:
        null_count = sum(1 for v in values if v is None)
        seen: dict = {}
        for value in values:
            if value is not None and value not in seen:
                seen[value] = True
        distinct = list(seen)
        minhash_values = distinct[:max_minhash_values]
    else:
        null_count = int(np.isnan(values).sum())
        distinct = list(np.unique(values[~np.isnan(values)]))
        minhash_values = [f"{float(v):.6g}" for v in distinct[:max_minhash_values]]
    signature = _legacy_minhash(minhash_values, num_hashes)
    return null_count, len(distinct), signature


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def build_tables(n_left: int, n_right: int, seed: int = 0) -> tuple[Table, Table]:
    """A base table and a foreign table sharing two categorical key columns."""
    rng = np.random.default_rng(seed)
    entities = [f"user-{i:07d}" for i in range(n_right)]
    regions = [f"region-{i:03d}" for i in range(97)]
    left = Table.from_dict(
        {
            "entity_id": [entities[i] for i in rng.integers(0, n_right, size=n_left)],
            "region": [regions[i] for i in rng.integers(0, len(regions), size=n_left)],
            "feature_num": rng.normal(size=n_left),
            "feature_cat": [f"tag-{i:04d}" for i in rng.integers(0, 5000, size=n_left)],
        },
        name="base",
    )
    right = Table.from_dict(
        {
            "entity_id": entities,
            "region": [regions[i] for i in rng.integers(0, len(regions), size=n_right)],
            "value": rng.normal(size=n_right),
            "label": [f"label-{i:03d}" for i in rng.integers(0, 500, size=n_right)],
        },
        name="foreign",
    )
    return left, right


def build_fanout_table(n_keys: int, seed: int = 0) -> Table:
    """A foreign table with 32–64 rows per key (shuffled), four numeric
    columns with 10 % missing values and one categorical column."""
    rng = np.random.default_rng(seed)
    keys = np.repeat(np.arange(n_keys, dtype=np.float64), rng.integers(32, 65, size=n_keys))
    rng.shuffle(keys)
    n = len(keys)
    data: dict = {"key": keys}
    for j in range(4):
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6, size=n)
        values[rng.random(n) < 0.1] = np.nan
        data[f"x{j}"] = values
    data["label"] = [f"label-{i:02d}" for i in rng.integers(0, 20, size=n)]
    return Table.from_dict(data, types={"label": CATEGORICAL}, name="fanout")


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def bench_join_probe(left: Table, right: Table, repeats: int) -> dict:
    """Composite categorical-key probe: legacy string path vs code path."""
    keys = ["entity_id", "region"]
    left_cols = [left.column(k) for k in keys]
    right_cols = [right.column(k) for k in keys]
    # decode outside the timer: the legacy representation held these arrays
    left_arrays = [col.values for col in left_cols]
    right_arrays = [col.values for col in right_cols]
    cat_flags = [True, True]

    legacy = _timed(
        lambda: _legacy_match_first_occurrence(left_arrays, right_arrays, cat_flags), repeats
    )
    # the build keys are prepared inside the timer, as the legacy path factorises
    new = _timed(lambda: _BuildKeys(right_cols).probe(left_cols), repeats)
    expected = _legacy_match_first_occurrence(left_arrays, right_arrays, cat_flags)
    got = _BuildKeys(right_cols).probe(left_cols)
    assert np.array_equal(expected, got), "probe results diverged"
    return {"bench": "join-probe", "legacy_s": legacy, "new_s": new, "speedup": legacy / new}


def bench_profile(left: Table, right: Table, repeats: int) -> dict:
    """Repository profiling: legacy object loops vs dictionary profiling."""
    tables = [left, right]
    decoded = [
        [(col.values, col.ctype.value == "categorical") for col in t.columns()] for t in tables
    ]

    def run_legacy():
        for cols in decoded:
            for values, is_cat in cols:
                _legacy_profile_column(values, is_cat)

    def run_new():
        for t in tables:
            profile_table(t)

    legacy = _timed(run_legacy, repeats)
    new = _timed(run_new, repeats)
    return {"bench": "profile", "legacy_s": legacy, "new_s": new, "speedup": legacy / new}


def bench_take(left: Table, repeats: int) -> dict:
    """Coreset-style sampling: eager gather vs lazy view + key-only access.

    Mirrors what every coreset batch join does: sample base rows, then read
    only the join-key column for the probe.  Also reports tracemalloc peaks.
    """
    rng = np.random.default_rng(7)
    indices = np.sort(rng.choice(left.num_rows, size=max(1, left.num_rows // 50), replace=False))
    arrays = [col.values for col in left.columns()]

    def run_legacy():
        # old Table.take: every column gathered eagerly (objects for categoricals)
        gathered = [a[indices] for a in arrays]
        return gathered[0]

    def run_new():
        view = left.take(indices)
        return view.column("entity_id").codes

    legacy = _timed(run_legacy, repeats)
    new = _timed(run_new, repeats)

    tracemalloc.start()
    run_legacy()
    _, legacy_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    run_new()
    _, new_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "bench": "take/filter",
        "legacy_s": legacy,
        "new_s": new,
        "speedup": legacy / new,
        "legacy_peak_kb": legacy_peak / 1024,
        "new_peak_kb": new_peak / 1024,
    }


def bench_group_by_aggregate(table: Table, repeats: int) -> dict:
    """Pre-aggregation (mean + mode) on a fan-out-32–64 table: legacy
    per-group loop vs segment kernels, outputs byte for byte equal."""
    legacy = _timed(lambda: _legacy_group_by_mean_mode(table, "key"), repeats)
    new = _timed(lambda: group_by_aggregate(table, ["key"]), repeats)
    expected = _legacy_group_by_mean_mode(table, "key")
    got = group_by_aggregate(table, ["key"])
    for name in expected.column_names:
        want, have = expected.column(name), got.column(name)
        if want.ctype is CATEGORICAL:
            assert np.array_equal(want.codes, have.codes), f"{name} diverged"
        else:
            assert want.values.tobytes() == have.values.tobytes(), f"{name} diverged"
    return {
        "bench": "group-by-aggregate",
        "legacy_s": legacy,
        "new_s": new,
        "speedup": legacy / new,
        "rows": table.num_rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument("--rows", type=int, default=None, help="override base-table row count")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()
    n_left = args.rows or (20_000 if args.quick else 200_000)
    n_right = max(1000, n_left // 4)
    repeats = 2 if args.quick else 3

    print(f"building tables: base={n_left} rows, foreign={n_right} rows")
    left, right = build_tables(n_left, n_right)
    fanout = build_fanout_table(n_keys=4000 if args.quick else 20_000)
    results = [
        bench_join_probe(left, right, repeats),
        bench_profile(left, right, repeats),
        bench_take(left, repeats),
        bench_group_by_aggregate(fanout, repeats),
    ]
    print(f"\n{'bench':<18} {'legacy':>10} {'new':>10} {'speedup':>9}   extra")
    for row in results:
        extra = ""
        if "legacy_peak_kb" in row:
            extra = (
                f"peak alloc {row['legacy_peak_kb']:.0f} KiB -> {row['new_peak_kb']:.0f} KiB "
                f"({row['legacy_peak_kb'] / max(row['new_peak_kb'], 0.001):.0f}x less)"
            )
        print(
            f"{row['bench']:<18} {row['legacy_s'] * 1e3:>8.1f}ms {row['new_s'] * 1e3:>8.1f}ms "
            f"{row['speedup']:>8.1f}x   {extra}"
        )
    if args.json:
        args.json.write_text(json.dumps({"suite": "columnar", "results": results}, indent=2))
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
