"""Tests for row-group chunked storage, streaming joins and out-of-core runs.

Three property groups pin the format's central invariants: a file of many
row groups is *content-equivalent* to a one-group file (same decoded table,
same fingerprint; legacy version-1 files read as one zone-less chunk), a
zone-map-pruned streaming join is *result-equivalent* to the in-memory join
(pruned ≡ unpruned ≡ ``left_join``), and chunk-wise profiling/binning produce
the same artifacts as their whole-table counterparts.  Around them sit the
operational pieces: per-kind ``bytes_read`` accounting, the ``repro repo``
maintenance CLI, atomic ``rechunk``, a tracemalloc-bounded end-to-end
``augment`` + ``predict`` over a chunked base, and the kept build sides one
out-of-core run prepares once for every consumer.
"""

import json
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ARDA, ARDAConfig
from repro.cli import main as cli_main
from repro.core.join_execution import (
    kept_build_side,
    prepare_kept_joins,
    replay_kept_joins,
)
from repro.coreset import make_coreset_builder
from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.profiles import profile_table, profile_table_chunks
from repro.discovery.repository import DataRepository
from repro.ml.binning import BinnedMatrix
from repro.relational.aggregate import group_by_aggregate, is_unique_on
from repro.relational.join import (
    as_chunk_source,
    grace_left_join,
    iter_grace_left_join,
    left_join,
)
from repro.relational.persist import (
    CHUNKED_FORMAT_VERSION,
    MAGIC,
    bytes_read,
    bytes_read_detail,
    open_chunks,
    read_table,
    read_table_header,
    reset_bytes_read,
    table_fingerprint,
    write_table,
    write_table_stream,
)
from repro.relational.schema import CATEGORICAL, NUMERIC
from repro.relational.table import Table
from repro.serving.pipeline import FittedPipeline
from v1_reference import write_table_v1

# -- strategies -------------------------------------------------------------

cat_entries = st.one_of(
    st.none(), st.sampled_from(["a", "bb", "", "日本語", "x y", "-1.5"])
)
num_entries = st.one_of(st.none(), st.sampled_from([0.0, -1.5, 2.0**40, 3.25]))
column_kinds = st.sampled_from(["numeric", "categorical"])
chunk_targets = st.sampled_from([1, 2, 3, 5, 8])


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=25))
    n_cols = draw(st.integers(min_value=0, max_value=4))
    data, types = {}, {}
    for i in range(n_cols):
        kind = draw(column_kinds)
        name = f"col{i}_{kind}"
        if kind == "categorical":
            data[name] = draw(st.lists(cat_entries, min_size=n_rows, max_size=n_rows))
            types[name] = CATEGORICAL
        else:
            data[name] = draw(st.lists(num_entries, min_size=n_rows, max_size=n_rows))
            types[name] = NUMERIC
    return Table.from_dict(data, types=types, name="t")


@st.composite
def join_cases(draw):
    """A left table, a right table and key pairs, all with messy keys."""
    keys = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 7.5, -3.0]))
    n_left = draw(st.integers(min_value=0, max_value=30))
    n_right = draw(st.integers(min_value=0, max_value=12))
    left = Table.from_dict(
        {
            "k": draw(st.lists(keys, min_size=n_left, max_size=n_left)),
            "c": draw(st.lists(cat_entries, min_size=n_left, max_size=n_left)),
            "x": draw(st.lists(num_entries, min_size=n_left, max_size=n_left)),
        },
        types={"k": NUMERIC, "c": CATEGORICAL, "x": NUMERIC},
        name="left",
    )
    right = Table.from_dict(
        {
            "rk": draw(st.lists(keys, min_size=n_right, max_size=n_right)),
            "rc": draw(st.lists(cat_entries, min_size=n_right, max_size=n_right)),
            "v": draw(st.lists(num_entries, min_size=n_right, max_size=n_right)),
        },
        types={"rk": NUMERIC, "rc": CATEGORICAL, "v": NUMERIC},
        name="right",
    )
    composite = draw(st.booleans())
    on = [("k", "rk"), ("c", "rc")] if composite else [("k", "rk")]
    return left, right, on


def assert_tables_equal(got, want):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        assert got.column(name) == want.column(name), name


# -- every row-group layout is content-equivalent ---------------------------


class TestChunkedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(tables(), chunk_targets)
    def test_chunked_file_decodes_identically(self, tmp_path_factory, table, chunk_rows):
        path = tmp_path_factory.mktemp("chunked") / "t.tbl"
        header = write_table(table, path, chunk_rows=chunk_rows)
        assert header.fingerprint == table_fingerprint(table)
        assert_tables_equal(read_table(path), table)
        reader = open_chunks(path)
        assert reader.num_rows == table.num_rows
        assert_tables_equal(reader.table(), table)
        parts = list(reader.iter_chunks())
        assert sum(p.num_rows for p in parts) == table.num_rows
        if table.num_rows > chunk_rows:
            assert reader.num_chunks > 1
            assert all(p.num_rows <= chunk_rows for p in parts)

    @settings(max_examples=40, deadline=None)
    @given(tables(), chunk_targets, st.randoms(use_true_random=False))
    def test_reader_take_matches_table_take(
        self, tmp_path_factory, table, chunk_rows, rnd
    ):
        path = tmp_path_factory.mktemp("take") / "t.tbl"
        write_table(table, path, chunk_rows=chunk_rows)
        reader = open_chunks(path)
        n = table.num_rows
        indices = np.array(
            [rnd.randrange(n) for _ in range(rnd.randrange(2 * n + 1))], dtype=np.int64
        ) if n else np.array([], dtype=np.int64)
        assert_tables_equal(reader.take(indices), table.take(indices))

    @settings(max_examples=40, deadline=None)
    @given(tables(), chunk_targets)
    def test_stream_write_equals_direct_write(self, tmp_path_factory, table, chunk_rows):
        """Re-chunking through ``write_table_stream`` preserves content."""
        tmp = tmp_path_factory.mktemp("stream")
        write_table(table, tmp / "a.tbl", chunk_rows=chunk_rows)
        source = open_chunks(tmp / "a.tbl")
        header = write_table_stream(
            tmp / "b.tbl", source.iter_chunks(), name=table.name, chunk_rows=3
        )
        assert header.fingerprint == table_fingerprint(table)
        assert_tables_equal(read_table(tmp / "b.tbl"), table)

    def test_one_row_group_table_is_a_zone_mapped_v2_file(self, tmp_path):
        table = Table.from_dict(
            {"k": ["a", "b", None], "x": [1.0, None, 3.0]},
            types={"k": CATEGORICAL, "x": NUMERIC},
            name="t",
        )
        for chunk_rows in (0, 10):  # no target, and a target the table fits
            path = tmp_path / f"t{chunk_rows}.tbl"
            write_table(table, path, chunk_rows=chunk_rows)
            raw = path.read_bytes()
            assert raw[len(MAGIC) : len(MAGIC) + 4] == CHUNKED_FORMAT_VERSION.to_bytes(4, "little")
            reader = open_chunks(path)
            assert reader.num_chunks == 1 and reader.has_zones
            assert reader.zones(0) == {"k": (0.0, 1.0), "x": (1.0, 3.0)}
            assert reader.header.chunks[0].rows == 3
            assert_tables_equal(read_table(path), table)

    @pytest.mark.parametrize(
        "rows, chunk_rows", [(7, 0), (7, 1), (7, 50), (0, 0), (0, 4)]
    )
    def test_writers_return_the_header_they_write(self, tmp_path, rows, chunk_rows):
        rng = np.random.default_rng(rows + chunk_rows)
        table = Table.from_dict(
            {
                "c": [f"v{i}" for i in rng.integers(0, 3, rows)],
                "x": rng.normal(size=rows),
            },
            types={"c": CATEGORICAL, "x": NUMERIC},
            name="t",
        )
        direct = write_table(table, tmp_path / "w.tbl", meta={"m": 1}, chunk_rows=chunk_rows)
        streamed = write_table_stream(
            tmp_path / "s.tbl",
            open_chunks(tmp_path / "w.tbl").iter_chunks(),
            chunk_rows=chunk_rows,
        )
        for header, name in ((direct, "w.tbl"), (streamed, "s.tbl")):
            assert header == read_table_header(tmp_path / name)  # field for field
            size = (tmp_path / name).stat().st_size
            assert header.pages_start + header.pages_nbytes == size

    def test_views_and_sorts_straddle_chunk_boundaries(self, tmp_path):
        rng = np.random.default_rng(5)
        table = Table.from_dict(
            {
                "k": rng.permutation(40).astype(float),
                "c": [f"g{i % 3}" for i in range(40)],
            },
            types={"k": NUMERIC, "c": CATEGORICAL},
            name="t",
        )
        view = table.sort_by("k").take(np.arange(1, 39))
        write_table(view, tmp_path / "v.tbl", chunk_rows=7)
        assert_tables_equal(read_table(tmp_path / "v.tbl"), view)
        reader = open_chunks(tmp_path / "v.tbl")
        assert reader.num_chunks == 6
        assert_tables_equal(reader.table(), view)

    def test_zone_map_matches_actual_chunk_ranges(self, tmp_path):
        values = np.arange(20, dtype=float)
        table = Table.from_dict({"k": values[::-1]}, types={"k": NUMERIC}, name="t")
        write_table(table, tmp_path / "t.tbl", chunk_rows=6)
        reader = open_chunks(tmp_path / "t.tbl")
        for i in range(reader.num_chunks):
            lo, hi = reader.zones(i)["k"]
            chunk_values = reader.chunk(i).column("k").values
            assert lo == chunk_values.min() and hi == chunk_values.max()

    def test_v1_file_reads_as_single_unprunable_chunk(self, tmp_path):
        table = Table.from_dict({"x": [1.0, 2.0]}, types={"x": NUMERIC}, name="t")
        written = write_table_v1(table, tmp_path / "t.tbl")
        assert read_table_header(tmp_path / "t.tbl") == written
        reader = open_chunks(tmp_path / "t.tbl")
        assert reader.num_chunks == 1 and not reader.has_zones
        assert reader.zones(0) is None
        assert_tables_equal(reader.table(), table)

    def test_one_chunk_mmap_load_stays_lazy(self, tmp_path):
        rows = 1 << 16
        table = Table.from_dict(
            {
                "c": [f"v{i % 7}" for i in range(rows)],
                "x": np.arange(rows, dtype=float),
                "y": np.ones(rows),
            },
            types={"c": CATEGORICAL, "x": NUMERIC, "y": NUMERIC},
            name="t",
        )
        header = write_table(table, tmp_path / "t.tbl", chunk_rows=0)
        page_bytes = header.chunks[0].nbytes()
        assert header.num_chunks == 1 and page_bytes >= 1 << 20
        tracemalloc.start()
        try:
            loaded = read_table(tmp_path / "t.tbl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * page_bytes
        assert_tables_equal(loaded, table)


# -- pruned streaming joins equal in-memory joins ---------------------------


class TestStreamingJoin:
    @settings(max_examples=50, deadline=None)
    @given(join_cases(), chunk_targets)
    def test_pruned_equals_unpruned_equals_in_memory(
        self, tmp_path_factory, case, chunk_rows
    ):
        left, right, on = case
        reference = left_join(left, right, on)
        path = tmp_path_factory.mktemp("join") / "left.tbl"
        write_table(left, path, chunk_rows=chunk_rows)
        for prune in (True, False):
            joined, stats = grace_left_join(open_chunks(path), right, on, prune=prune)
            assert_tables_equal(joined, reference)
            assert stats.chunks_probed <= stats.chunks_total
        # an in-memory chunk source (no zone maps) takes the unpruned path
        joined, _ = grace_left_join(as_chunk_source(left, chunk_rows=chunk_rows), right, on)
        assert_tables_equal(joined, reference)

    def test_zone_pruning_skips_selective_chunks(self, tmp_path):
        # sorted keys => each chunk covers a narrow range; a right side that
        # only overlaps the first tenth leaves the other chunks unprobed
        n = 10_000
        left = Table.from_dict(
            {"k": np.arange(n, dtype=float), "x": np.ones(n)},
            types={"k": NUMERIC, "x": NUMERIC},
            name="left",
        )
        right = Table.from_dict(
            {"rk": np.arange(n // 10, dtype=float), "v": np.zeros(n // 10)},
            types={"rk": NUMERIC, "v": NUMERIC},
            name="right",
        )
        write_table(left, tmp_path / "l.tbl", chunk_rows=500)
        pruned, stats = grace_left_join(
            open_chunks(tmp_path / "l.tbl"), right, [("k", "rk")]
        )
        unpruned, _ = grace_left_join(
            open_chunks(tmp_path / "l.tbl"), right, [("k", "rk")], prune=False
        )
        assert_tables_equal(pruned, unpruned)
        assert_tables_equal(pruned, left_join(left, right, [("k", "rk")]))
        assert stats.chunks_total == 20
        assert stats.pruning_ratio >= 0.5

    def test_categorical_zone_pruning_is_correct(self, tmp_path):
        # dictionary codes are file-level, so code-range zones are comparable
        # across chunks even though each chunk sees different values
        values = [f"v{i:04d}" for i in range(1000)]
        left = Table.from_dict(
            {"k": values, "x": np.arange(1000, dtype=float)},
            types={"k": CATEGORICAL, "x": NUMERIC},
            name="left",
        )
        right = Table.from_dict(
            {"rk": values[:100], "v": np.zeros(100)},
            types={"rk": CATEGORICAL, "v": NUMERIC},
            name="right",
        )
        write_table(left, tmp_path / "l.tbl", chunk_rows=100)
        joined, stats = grace_left_join(
            open_chunks(tmp_path / "l.tbl"), right, [("k", "rk")]
        )
        assert_tables_equal(joined, left_join(left, right, [("k", "rk")]))
        assert stats.chunks_probed < stats.chunks_total

    def test_memory_budget_bounds_streaming_join(self, tmp_path):
        n = 200_000
        rng = np.random.default_rng(3)
        left = Table.from_dict(
            {
                "k": rng.integers(0, 1000, n).astype(float),
                "x": rng.normal(size=n),
                "y": rng.normal(size=n),
            },
            types={"k": NUMERIC, "x": NUMERIC, "y": NUMERIC},
            name="left",
        )
        right = Table.from_dict(
            {"rk": np.arange(1000, dtype=float), "v": rng.normal(size=1000)},
            types={"rk": NUMERIC, "v": NUMERIC},
            name="right",
        )
        write_table(left, tmp_path / "l.tbl", chunk_rows=10_000)
        left_bytes = n * 3 * 8
        del left
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        header = write_table_stream(
            tmp_path / "out.tbl",
            (
                part
                for part in _stream_join_chunks(
                    tmp_path / "l.tbl", right, memory_budget=512 * 1024
                )
            ),
            name="out",
            chunk_rows=10_000,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert header.num_rows == n
        # the build side fits the budget, so the join holds it plus about one
        # base chunk: far below the 4.8 MB the materialised left table (let
        # alone its join) needs
        assert peak - baseline < left_bytes // 2


def _stream_join_chunks(path, right, memory_budget):
    yield from iter_grace_left_join(
        open_chunks(path), right, [("k", "rk")], memory_budget=memory_budget
    )


# -- chunk-wise profiling and binning match whole-table results -------------


class TestChunkedProfilesAndBinning:
    def _mixed_table(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        cats = [None if i % 17 == 0 else f"c{i % 23}" for i in range(n)]
        nums = rng.normal(size=n)
        nums[::13] = np.nan
        return Table.from_dict(
            {"cat": cats, "num": nums},
            types={"cat": CATEGORICAL, "num": NUMERIC},
            name="t",
        )

    def test_chunked_profiles_equal_whole_table_profiles(self, tmp_path):
        table = self._mixed_table()
        write_table(table, tmp_path / "t.tbl", chunk_rows=256)
        reference = profile_table(table)
        chunked = profile_table_chunks(open_chunks(tmp_path / "t.tbl"))
        assert set(chunked) == set(reference)
        for name in reference:
            assert chunked[name].to_state() == reference[name].to_state()

    def test_minhash_merge_is_exact_union(self):
        table = self._mixed_table()
        reference = profile_table(table)["cat"].minhash
        parts = [table.take(np.arange(0, 1500)), table.take(np.arange(1500, 3000))]
        merged = profile_table(parts[0])["cat"].minhash.merge(
            profile_table(parts[1])["cat"].minhash
        )
        assert np.array_equal(merged.signature, reference.signature)

    def test_chunked_binning_equals_in_memory_binning(self, tmp_path):
        table = self._mixed_table(n=2000, seed=4)
        write_table(table, tmp_path / "t.tbl", chunk_rows=300)
        matrix = np.column_stack(
            [table.column("num").values, table.column("num").values * 2.0]
        )
        reference = BinnedMatrix.from_matrix(matrix, max_bins=16)
        reader = open_chunks(tmp_path / "t.tbl")
        chunks = (
            np.column_stack(
                [part.column("num").values, part.column("num").values * 2.0]
            )
            for part in reader.iter_chunks()
        )
        chunked = BinnedMatrix.from_chunks(chunks, max_bins=16)
        assert np.array_equal(chunked.codes, reference.codes)
        assert np.array_equal(chunked.n_bins, reference.n_bins)
        for a, b in zip(chunked.bin_min, reference.bin_min):
            assert np.array_equal(a, b, equal_nan=True)
        for a, b in zip(chunked.bin_max, reference.bin_max):
            assert np.array_equal(a, b, equal_nan=True)


# -- bytes-read accounting --------------------------------------------------


class TestBytesReadAccounting:
    def _chunked_file(self, tmp_path, rows=20_000):
        rng = np.random.default_rng(0)
        table = Table.from_dict(
            {
                "k": rng.integers(0, 100, rows).astype(float),
                "c": [f"g{i % 9}" for i in range(rows)],
                "x": rng.normal(size=rows),
            },
            types={"k": NUMERIC, "c": CATEGORICAL, "x": NUMERIC},
            name="big",
        )
        path = tmp_path / "big.tbl"
        write_table(table, path, chunk_rows=1000)
        return path

    def test_header_open_reads_no_pages(self, tmp_path):
        path = self._chunked_file(tmp_path)
        reset_bytes_read()
        read_table_header(path)
        detail = bytes_read_detail()
        assert detail["pages"] == 0 and detail["dictionary"] == 0
        assert detail["header"] > 0 and detail["zone_map"] > 0

    def test_cold_open_stays_under_five_percent(self, tmp_path):
        path = self._chunked_file(tmp_path)
        file_bytes = path.stat().st_size
        reset_bytes_read()
        DataRepository.open(tmp_path, load_profiles=False)
        assert bytes_read() < 0.05 * file_bytes

    def test_chunk_reads_are_counted_per_kind(self, tmp_path):
        path = self._chunked_file(tmp_path)
        reset_bytes_read()
        reader = open_chunks(path, mmap=False)
        opened = bytes_read_detail()
        assert opened["dictionary"] == 0  # decoded lazily, not at open
        assert opened["pages"] == 0
        assert reader.chunks_read == 0
        reader.chunk(0)
        reader.chunk(3)
        detail = bytes_read_detail()
        assert reader.chunks_read == 2
        assert detail["pages"] == reader.chunk_nbytes(0) + reader.chunk_nbytes(3)
        # chunk 0 carries the categorical column, so its shared file-level
        # dictionary was decoded (and counted) on that first touch
        assert detail["dictionary"] > 0

    def test_numeric_scan_never_decodes_dictionaries(self, tmp_path):
        path = self._chunked_file(tmp_path)
        reset_bytes_read()
        reader = open_chunks(path, mmap=False)
        total = sum(len(chunk) for chunk in reader.iter_chunks(columns=["x"]))
        assert total == reader.num_rows
        assert bytes_read_detail()["dictionary"] == 0

    def test_mmap_chunk_reads_fault_no_counted_pages(self, tmp_path):
        path = self._chunked_file(tmp_path)
        reader = open_chunks(path)
        reset_bytes_read()
        reader.chunk(0)
        # mapped pages are charged only when explicitly read, not when mapped
        assert bytes_read_detail()["pages"] == 0

    def test_pruning_ratio_visible_per_table(self, tmp_path):
        path = self._chunked_file(tmp_path)
        right = Table.from_dict(
            {"rk": [0.0, 1.0], "v": [1.0, 2.0]},
            types={"rk": NUMERIC, "v": NUMERIC},
            name="r",
        )
        reader = open_chunks(path)
        _, stats = grace_left_join(reader, right, [("k", "rk")])
        assert stats.chunks_total == reader.num_chunks
        assert 0.0 <= stats.pruning_ratio <= 1.0


def _dict_bytes(reader):
    ref = None
    for meta in reader.header.columns:
        if meta.dictionary is not None:
            ref = meta.dictionary
    return ref.nbytes if ref is not None else 0


# -- rechunk + maintenance CLI ----------------------------------------------


class TestRechunkAndCli:
    def _repo(self, tmp_path, chunk_rows=500):
        rng = np.random.default_rng(1)
        table = Table.from_dict(
            {
                "k": rng.integers(0, 50, 4000).astype(float),
                "c": [f"g{i % 5}" for i in range(4000)],
            },
            types={"k": NUMERIC, "c": CATEGORICAL},
            name="orders",
        )
        repo = DataRepository.open(tmp_path, chunk_rows=chunk_rows)
        repo.add(table)
        return repo, table

    def test_rechunk_preserves_content_and_fingerprint(self, tmp_path):
        repo, table = self._repo(tmp_path)
        fingerprint = repo.header("orders").fingerprint
        assert repo.header("orders").num_chunks == 8
        repo.rechunk("orders", chunk_rows=1000)
        assert repo.header("orders").num_chunks == 4
        assert repo.header("orders").fingerprint == fingerprint
        assert_tables_equal(repo.get("orders"), table)
        repo.rechunk("orders", chunk_rows=0)  # back to one row group
        assert len(repo.header("orders").chunks) == 1
        assert repo.header("orders").fingerprint == fingerprint
        assert_tables_equal(DataRepository.open(tmp_path).get("orders"), table)

    def test_snapshot_survives_rechunk(self, tmp_path):
        repo, table = self._repo(tmp_path)
        snapshot = repo.snapshot()
        repo.rechunk("orders", chunk_rows=2000)
        assert_tables_equal(snapshot.get("orders"), table)
        assert_tables_equal(repo.get("orders"), table)
        snapshot.release()

    def test_cli_stat_reports_layout_from_headers(self, tmp_path, capsys):
        self._repo(tmp_path)
        assert cli_main(["repo", "stat", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "orders" in out and "v2" in out and "8" in out
        reset_bytes_read()
        assert cli_main(["repo", "stat", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tables"][0]["chunks"] == 8
        assert doc["tables"][0]["zone_coverage"] == 1.0
        assert doc["bytes_read"]["pages"] == 0

    def test_cli_rechunk_rewrites_layout(self, tmp_path, capsys):
        self._repo(tmp_path)
        assert cli_main(["repo", "rechunk", str(tmp_path), "orders", "--chunk-rows", "2000"]) == 0
        assert "8 -> 2 chunks" in capsys.readouterr().out
        assert cli_main(["repo", "rechunk", str(tmp_path), "--all", "--chunk-rows", "0"]) == 0
        capsys.readouterr()
        assert len(DataRepository.open(tmp_path).header("orders").chunks) == 1

    def test_version_1_repository_reads_and_rechunks_to_version_2(self, tmp_path):
        tables = [
            Table.from_dict(
                {
                    "k": [f"g{i % 5}" for i in range(60)],
                    "x": [float(i % 9) if i % 4 else None for i in range(60)],
                },
                types={"k": CATEGORICAL, "x": NUMERIC},
                name=name,
            )
            for name in ("orders", "items")
        ]
        for table in tables:
            write_table_v1(table, tmp_path / f"{table.name}.tbl")
        for mmap in (True, False):
            repo = DataRepository.open(tmp_path, mmap=mmap, load_profiles=False)
            assert sorted(repo.table_names) == ["items", "orders"]
            for table in tables:
                assert repo.header(table.name).chunks is None
                assert repo.fingerprint(table.name) == table_fingerprint(table)
                assert_tables_equal(repo.get(table.name), table)
                reader = repo.open_chunks(table.name)
                assert reader.num_chunks == 1 and not reader.has_zones
                assert_tables_equal(reader.chunk(0), table)
                reference = profile_table(table)
                profiles = repo.profiles(table.name)
                assert set(profiles) == set(reference)
                for column in reference:
                    assert profiles[column].to_state() == reference[column].to_state()
        fingerprint = repo.fingerprint("orders")
        repo.rechunk("orders", chunk_rows=0)
        header = DataRepository.open(tmp_path).header("orders")
        assert len(header.chunks) == 1 and header.fingerprint == fingerprint
        assert_tables_equal(DataRepository.open(tmp_path).get("orders"), tables[0])

    def test_cli_error_paths(self, tmp_path, capsys):
        self._repo(tmp_path)
        assert cli_main(["repo", "rechunk", str(tmp_path), "missing"]) == 1
        assert cli_main(["repo", "rechunk", str(tmp_path)]) == 2
        assert cli_main(["repo", "stat", str(tmp_path / "nope")]) == 1
        capsys.readouterr()


# -- out-of-core end to end -------------------------------------------------


class TestOutOfCoreAugment:
    @pytest.fixture(scope="class")
    def out_of_core_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ooc")
        rng = np.random.default_rng(3)
        n, entities = 150_000, 2000
        key = rng.integers(0, entities, n).astype(float)
        # features are discretised measurements: numeric profiling state is
        # O(distinct values) per column, so continuous columns with n distinct
        # values would legitimately cost O(n) during discovery
        base = Table.from_dict(
            {
                "cust_id": key,
                "x1": np.round(rng.normal(size=n), 2),
                "x2": np.round(rng.normal(size=n), 2),
                "x3": np.round(rng.normal(size=n), 2),
                "x4": np.round(rng.normal(size=n), 2),
                "y": key % 7 + rng.normal(scale=0.1, size=n),
            },
            types={name: NUMERIC for name in ("cust_id", "x1", "x2", "x3", "x4", "y")},
            name="base",
        )
        signal = Table.from_dict(
            {
                "cust_id": np.arange(entities, dtype=float),
                "score": (np.arange(entities) % 7).astype(float),
                "region": [f"r{i % 5}" for i in range(entities)],
            },
            types={"cust_id": NUMERIC, "score": NUMERIC, "region": CATEGORICAL},
            name="custinfo",
        )
        unrelated = Table.from_dict(
            {
                "cust_id": np.arange(500, dtype=float) + 5000,
                "junk": rng.normal(size=500),
            },
            types={"cust_id": NUMERIC, "junk": NUMERIC},
            name="unrelated",
        )
        repository = DataRepository([signal, unrelated])
        base_path = tmp / "base.tbl"
        write_table(base, base_path, chunk_rows=7500)
        base_bytes = n * 6 * 8  # 7.2 MB of float64 pages

        config = ARDAConfig(
            coreset_size=2000,
            random_state=0,
            chunk_rows=7500,
            selector="random forest",
            estimator_options={"n_estimators": 10},
        )
        out_path = tmp / "augmented.tbl"
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        reader = open_chunks(base_path)
        streamed = ARDA(config).augment_tables(
            reader, repository, target="y", augmented_path=out_path
        )
        predictions = streamed.pipeline.predict(reader, repository=repository)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        in_memory_config = ARDAConfig(
            coreset_size=2000,
            random_state=0,
            selector="random forest",
            estimator_options={"n_estimators": 10},
        )
        in_memory = ARDA(in_memory_config).augment_tables(base, repository, target="y")
        return {
            "base": base,
            "base_bytes": base_bytes,
            "out_path": out_path,
            "streamed": streamed,
            "in_memory": in_memory,
            "predictions": predictions,
            "peak": peak - baseline,
            "repository": repository,
        }

    def test_streamed_run_keeps_the_same_columns(self, out_of_core_run):
        streamed, in_memory = out_of_core_run["streamed"], out_of_core_run["in_memory"]
        assert streamed.kept_columns == in_memory.kept_columns
        assert "custinfo" in streamed.kept_tables

    def test_streamed_file_matches_in_memory_materialisation(self, out_of_core_run):
        augmented = open_chunks(out_of_core_run["out_path"]).table()
        assert_tables_equal(augmented, out_of_core_run["in_memory"].augmented_table)

    def test_stream_stats_record_pruning(self, out_of_core_run):
        stats = out_of_core_run["streamed"].stream_stats
        assert stats and all(s.chunks_total == 20 for s in stats.values())
        for table_stats in stats.values():
            assert table_stats.rows_total == out_of_core_run["base"].num_rows

    def test_predictions_stream_over_the_reader(self, out_of_core_run):
        predictions = out_of_core_run["predictions"]
        base = out_of_core_run["base"]
        assert predictions.shape == (base.num_rows,)
        # the streamed pipeline trains on the coreset; judge it on quality
        # against the full base rather than agreement with the full-fit model
        y = base.column("y").values
        residual = y - np.asarray(predictions, dtype=float)
        r2 = 1.0 - residual.var() / y.var()
        assert r2 > 0.9

    def test_peak_memory_stays_bounded(self, out_of_core_run):
        # augment + predict over a 7.2-MB base read one chunk at a time: the
        # traced working set stays within a couple of base-table sizes
        # (coreset + one base chunk per kept join + the aggregated build
        # sides + models + the O(n) predictions vector), far below the
        # several-fold blowup of materialising and joining in memory
        assert out_of_core_run["streamed"].stream_stats  # took the streamed path
        assert out_of_core_run["peak"] < 2 * out_of_core_run["base_bytes"]


# -- a Table base is the one-chunk case of a chunked base -------------------


class TestTableIsOneChunkSource:
    """ARDA gives one result whether the base is a :class:`Table` or a
    chunked reader over the same rows: the same coreset rows, the same kept
    columns, and a streamed file equal to the in-memory materialisation."""

    @staticmethod
    def _scenario():
        rng = np.random.default_rng(11)
        n, entities = 1200, 150
        key = rng.integers(0, entities, n).astype(float)
        base = Table.from_dict(
            {
                "cust_id": key,
                "x1": np.round(rng.normal(size=n), 2),
                "y": key % 5 + rng.normal(scale=0.1, size=n),
            },
            types={"cust_id": NUMERIC, "x1": NUMERIC, "y": NUMERIC},
            name="base",
        )
        info = Table.from_dict(
            {
                "cust_id": np.arange(entities, dtype=float),
                "score": (np.arange(entities) % 5).astype(float),
                "region": [f"r{i % 4}" for i in range(entities)],
            },
            types={"cust_id": NUMERIC, "score": NUMERIC, "region": CATEGORICAL},
            name="custinfo",
        )
        noise = Table.from_dict(
            {
                "cust_id": np.arange(entities, dtype=float),
                "junk": rng.normal(size=entities),
            },
            types={"cust_id": NUMERIC, "junk": NUMERIC},
            name="noise",
        )
        return base, DataRepository([info, noise])

    @pytest.mark.parametrize("strategy", ["uniform", "stratified", "none"])
    def test_table_and_reader_bases_agree(self, tmp_path, strategy):
        base, repository = self._scenario()
        write_table(base, tmp_path / "base.tbl", chunk_rows=256)
        config = ARDAConfig(
            coreset_strategy=strategy,
            coreset_size=300,
            random_state=0,
            chunk_rows=256,
            selector="random forest",
            estimator_options={"n_estimators": 10},
        )
        kwargs = dict(target="y", task="regression")
        in_memory = ARDA(config).augment_tables(base, repository, **kwargs)
        streamed = ARDA(config).augment_tables(
            open_chunks(tmp_path / "base.tbl"),
            repository,
            augmented_path=tmp_path / "augmented.tbl",
            **kwargs,
        )
        # a streamed report materialises the coreset, so its base columns are
        # the coreset rows, which must be what the builder draws from the table
        coreset = (
            base
            if strategy == "none"
            else make_coreset_builder(strategy, random_state=0).reduce_table(
                base, 300, target="y"
            )
        )
        assert_tables_equal(streamed.augmented_table.select(base.column_names), coreset)
        assert in_memory.kept_columns and streamed.kept_columns == in_memory.kept_columns
        assert [b.holdout_score for b in streamed.batches] == [
            b.holdout_score for b in in_memory.batches
        ]
        assert_tables_equal(
            open_chunks(tmp_path / "augmented.tbl").table(), in_memory.augmented_table
        )

    def test_lockstep_hash_and_grace_joins_equal_replay(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        n = 3000
        base = Table.from_dict(
            {
                "k": rng.integers(0, 400, n).astype(float),
                "c": [f"c{i % 30}" for i in range(n)],
                "x": rng.normal(size=n),
            },
            types={"k": NUMERIC, "c": CATEGORICAL, "x": NUMERIC},
            name="base",
        )
        big = Table.from_dict(
            {
                "k": np.arange(400, dtype=float),
                "a": rng.normal(size=400),
                "b": [f"b{i % 7}" for i in range(400)],
                "z": rng.normal(size=400),
            },
            types={"k": NUMERIC, "a": NUMERIC, "b": CATEGORICAL, "z": NUMERIC},
            name="big",
        )
        small = Table.from_dict(  # duplicate keys: pre-aggregated before the join
            {"c": [f"c{i % 20}" for i in range(60)], "m": rng.normal(size=60)},
            types={"c": CATEGORICAL, "m": NUMERIC},
            name="small",
        )
        repository = DataRepository([big, small])
        write_table(base, tmp_path / "base.tbl", chunk_rows=500)
        # positions index the columns each join adds, in foreign column order
        specs = [
            (JoinCandidate("big", [KeyPair("k", "k")]), [2, 1], ["big_z", "big_b"]),
            (JoinCandidate("small", [KeyPair("c", "c")]), [0], ["small_m"]),
        ]
        # projected builds: big keeps k, z, b (400 rows x 3 x 8 bytes = 9,600),
        # small keeps c, m (960).  A 4,000-byte budget would spill big, but
        # the materialiser probes the builds prepared once and reads no budget
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        config = ARDAConfig(memory_budget=4000, chunk_rows=500)
        replayed, out, stats = ARDA(config)._materialise_kept(
            base,
            repository,
            specs,
            prepare_kept_joins(repository, specs, base.schema()),
            executor=None,
            source=open_chunks(tmp_path / "base.tbl"),
            augmented_path=tmp_path / "out.tbl",
        )
        expected = replay_kept_joins(base, repository, specs)
        assert_tables_equal(replayed, expected)
        assert_tables_equal(open_chunks(out).table(), expected)
        assert sorted(stats) == ["big", "small"]
        for table_stats in stats.values():
            assert table_stats.spill_partitions == table_stats.spill_bytes_written == 0
            assert table_stats.chunks_total == table_stats.chunks_probed == 6
            assert table_stats.rows_total == n
        assert list(temp_root.glob("arda-spill-*")) == []


# -- each kept build side is prepared once per run --------------------------


def _aggregate_recorder(monkeypatch) -> list[frozenset]:
    """Record the column set of every build side the join layer aggregates."""
    calls: list[frozenset] = []

    def recording_aggregate(table, *args, **kwargs):
        calls.append(frozenset(table.column_names))
        return group_by_aggregate(table, *args, **kwargs)

    monkeypatch.setattr("repro.relational.join.group_by_aggregate", recording_aggregate)
    return calls


class TestKeptJoinsPreparedOnce:
    """The coreset replay, the streamed output and the captured pipeline probe
    one prepared copy of each kept build side."""

    @staticmethod
    def _scenario():
        rng = np.random.default_rng(23)
        n, entities, fan_out = 1500, 150, 4
        level = rng.normal(size=entities)
        key = rng.integers(0, entities, n)
        base = Table.from_dict(
            {
                "cust_id": key.astype(float),
                "x1": np.round(rng.normal(size=n), 2),
                "y": level[key] + rng.normal(scale=0.1, size=n),
            },
            types={"cust_id": NUMERIC, "x1": NUMERIC, "y": NUMERIC},
            name="base",
        )
        visit_key = np.repeat(np.arange(entities), fan_out)
        visits = Table.from_dict(  # fan-out: 4 rows per key, pre-aggregated
            {
                "cust_id": visit_key.astype(float),
                "spend": level[visit_key] + rng.normal(scale=0.05, size=len(visit_key)),
                "junk": rng.normal(size=len(visit_key)),
            },
            types={"cust_id": NUMERIC, "spend": NUMERIC, "junk": NUMERIC},
            name="visits",
        )
        candidates = [JoinCandidate("visits", [KeyPair("cust_id", "cust_id")])]
        return base, DataRepository([visits]), candidates

    def _augment(self, tmp_path, config):
        base, repository, candidates = self._scenario()
        write_table(base, tmp_path / "base.tbl", chunk_rows=250)
        report = ARDA(config).augment_tables(
            open_chunks(tmp_path / "base.tbl"),
            repository,
            target="y",
            candidates=candidates,
            task="regression",
            augmented_path=tmp_path / "augmented.tbl",
        )
        return base, repository, report

    @staticmethod
    def _kept_projections(repository, report) -> list[frozenset]:
        """The column set of each kept fan-out join's projected build side."""
        projections = []
        for step in report.pipeline.joins:
            candidate = step.to_candidate()
            foreign = repository.get(step.foreign_table)
            if is_unique_on(foreign, candidate.foreign_columns):
                continue
            projected = kept_build_side(foreign, candidate, step.positions)
            # the batch loop aggregates the whole table, a different set
            assert projected.num_columns < foreign.num_columns
            projections.append(frozenset(projected.column_names))
        assert projections  # the scenario keeps a fan-out join
        return projections

    @pytest.mark.parametrize("memory_budget", [None, 4000])
    def test_each_kept_fanout_build_aggregates_once(
        self, tmp_path, monkeypatch, memory_budget
    ):
        calls = _aggregate_recorder(monkeypatch)
        config = ARDAConfig(
            coreset_size=300, random_state=0, chunk_rows=250, memory_budget=memory_budget
        )
        _base, repository, report = self._augment(tmp_path, config)
        for projection in self._kept_projections(repository, report):
            assert calls.count(projection) == 1
        assert report.stream_stats
        for table_stats in report.stream_stats.values():
            assert table_stats.spill_partitions == table_stats.spill_bytes_written == 0
            assert table_stats.chunks_total == 6

    def test_captured_pipeline_first_predict_prepares_nothing(self, tmp_path, monkeypatch):
        config = ARDAConfig(coreset_size=300, random_state=0, chunk_rows=250)
        base, repository, report = self._augment(tmp_path, config)
        self._kept_projections(repository, report)
        calls = _aggregate_recorder(monkeypatch)
        rows = base.head(64)
        predictions = report.pipeline.predict(rows)  # the captured view
        assert calls == []
        # and the prepared replay predicts what a freshly bound pipeline does
        report.pipeline.save(tmp_path / "model.rpro")
        loaded = FittedPipeline.load(tmp_path / "model.rpro", repository=repository)
        assert np.array_equal(loaded.predict(rows), predictions)
        loaded.release()

    def test_kept_soft_join_falls_back_to_one_replay_of_the_base(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(13)
        n = 2000
        base = Table.from_dict(
            {
                "k": rng.integers(0, 100, n).astype(float),
                "t": np.round(rng.uniform(0, 50, n), 1),
                "x": rng.normal(size=n),
            },
            types={"k": NUMERIC, "t": NUMERIC, "x": NUMERIC},
            name="base",
        )
        fan = Table.from_dict(  # fan-out: 3 rows per key
            {
                "k": np.repeat(np.arange(100, dtype=float), 3),
                "m": rng.normal(size=300),
                "junk": rng.normal(size=300),
            },
            types={"k": NUMERIC, "m": NUMERIC, "junk": NUMERIC},
            name="fan",
        )
        series = Table.from_dict(  # a coarser numeric key: two-way nearest
            {
                "t": np.arange(0.0, 50.0, 2.5),
                "v": rng.normal(size=20),
                "c": [f"c{i % 3}" for i in range(20)],
            },
            types={"t": NUMERIC, "v": NUMERIC, "c": CATEGORICAL},
            name="series",
        )
        repository = DataRepository([fan, series])
        write_table(base, tmp_path / "base.tbl", chunk_rows=500)
        reader = open_chunks(tmp_path / "base.tbl")
        assert reader.num_chunks == 4
        hard = JoinCandidate("fan", [KeyPair("k", "k")])
        specs = [
            (hard, [0], ["fan_m"]),
            (JoinCandidate("series", [KeyPair("t", "t", soft=True)]), [1, 0], ["s_c", "s_v"]),
        ]
        config = ARDAConfig(random_state=3, chunk_rows=500)
        calls = _aggregate_recorder(monkeypatch)
        _replayed, out, stats = ARDA(config)._materialise_kept(
            base.head(100),
            repository,
            specs,
            prepare_kept_joins(repository, specs, base.schema()),
            executor=None,
            source=reader,
            augmented_path=tmp_path / "out.tbl",
        )
        projection = frozenset(kept_build_side(fan, hard, [0]).column_names)
        assert calls.count(projection) == 1
        assert stats == {}
        expected = replay_kept_joins(
            reader.table(), repository, specs, rng=np.random.default_rng(3)
        )
        assert_tables_equal(open_chunks(out).table(), expected)
