"""Tests for the native binary table format and the disk-backed repository.

Covers the round-trip property (arbitrary generated tables reload
value-identical, including missing masks and dictionary order), the edge
cases of the format (empty tables, all-missing columns, unicode dictionary
entries, datetime columns, version-mismatch and truncated-file errors), the
lazy catalog (header-only opens, LRU keep-alive, write-through mutation,
memory-mapped tables surviving ``replace``) and the persistent profile cache
(sidecar save/load, fingerprint validation and invalidation).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.repository import (
    PROFILE_SIDECAR,
    DataRepository,
    ProfileCache,
)
from repro.relational import (
    Table,
    TableFormatError,
    read_table,
    read_table_header,
    table_fingerprint,
    write_table,
)
from repro.relational.persist import (
    CHUNKED_FORMAT_VERSION,
    MAGIC,
    bytes_read,
    reset_bytes_read,
)
from repro.relational.schema import BOOLEAN, CATEGORICAL, DATETIME, NUMERIC

# -- strategies -------------------------------------------------------------

cat_entries = st.one_of(
    st.none(), st.sampled_from(["a", "bb", "", "日本語", "naïve", "x y", "-1.5"])
)
num_entries = st.one_of(st.none(), st.sampled_from([0.0, -1.5, 2.0**40, 3.25]))
column_kinds = st.sampled_from(["numeric", "categorical", "datetime", "boolean"])


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=25))
    n_cols = draw(st.integers(min_value=0, max_value=4))
    data, types = {}, {}
    for i in range(n_cols):
        kind = draw(column_kinds)
        name = f"col{i}_{kind}"
        if kind == "categorical":
            data[name] = draw(
                st.lists(cat_entries, min_size=n_rows, max_size=n_rows)
            )
            types[name] = CATEGORICAL
        else:
            values = draw(st.lists(num_entries, min_size=n_rows, max_size=n_rows))
            if kind == "boolean":
                values = [None if v is None else float(bool(v)) for v in values]
            data[name] = values
            types[name] = {"numeric": NUMERIC, "datetime": DATETIME, "boolean": BOOLEAN}[kind]
    return Table.from_dict(data, types=types, name="generated")


def assert_identical(loaded: Table, original: Table):
    """Per-column value identity, including missing masks and dictionary order."""
    assert loaded.name == original.name
    assert loaded.column_names == original.column_names
    assert loaded.schema() == original.schema()
    assert loaded.num_rows == original.num_rows
    for name in original.column_names:
        got, want = loaded.column(name), original.column(name)
        assert np.array_equal(got.missing_mask(), want.missing_mask())
        if want.ctype is CATEGORICAL:
            assert np.array_equal(got.codes, want.codes)
            assert list(got.dictionary) == list(want.dictionary)
            assert got.dictionary_is_exact == want.dictionary_is_exact
        else:
            a, b = got.values, want.values
            assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])


# -- round trip -------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(table=tables(), mmap=st.booleans())
    def test_arbitrary_tables_roundtrip(self, tmp_path_factory, table, mmap):
        path = tmp_path_factory.mktemp("rt") / "t.tbl"
        header = write_table(table, path)
        loaded = read_table(path, mmap=mmap)
        assert_identical(loaded, table)
        assert loaded == table
        assert header.fingerprint == table_fingerprint(table)

    def test_fingerprint_distinguishes_content_and_dictionary_order(self):
        a = Table.from_dict({"k": ["x", "y"]}, name="t")
        b = Table.from_dict({"k": ["y", "x"]}, name="t")  # same values, other order
        same = Table.from_dict({"k": ["x", "y"]}, name="t")
        assert table_fingerprint(a) == table_fingerprint(same)
        assert table_fingerprint(a) != table_fingerprint(b)

    def test_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "empty.tbl"
        write_table(Table([], name="nothing"), path)
        loaded = read_table(path)
        assert loaded.num_rows == 0 and loaded.num_columns == 0
        assert loaded.name == "nothing"

    def test_zero_row_table_with_columns(self, tmp_path):
        table = Table.from_dict(
            {"k": [], "x": []}, types={"k": CATEGORICAL, "x": NUMERIC}, name="t"
        )
        write_table(table, tmp_path / "t.tbl")
        assert_identical(read_table(tmp_path / "t.tbl"), table)

    def test_all_missing_columns(self, tmp_path):
        table = Table.from_dict(
            {"k": [None, None], "x": [None, None]},
            types={"k": CATEGORICAL, "x": NUMERIC},
            name="t",
        )
        write_table(table, tmp_path / "t.tbl")
        loaded = read_table(tmp_path / "t.tbl")
        assert loaded["k"].null_count() == 2 and loaded["x"].null_count() == 2
        assert len(loaded["k"].dictionary) == 0

    def test_unicode_dictionary_entries(self, tmp_path):
        values = ["émeute", "日本語テキスト", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢", "à", None]
        table = Table.from_dict({"k": values}, name="t")
        write_table(table, tmp_path / "t.tbl")
        assert read_table(tmp_path / "t.tbl")["k"].to_list() == values

    def test_datetime_column_roundtrip(self, tmp_path):
        table = Table.from_dict(
            {"t": [0.0, 86400.5, None]}, types={"t": DATETIME}, name="dt"
        )
        write_table(table, tmp_path / "dt.tbl")
        loaded = read_table(tmp_path / "dt.tbl")
        assert loaded["t"].ctype is DATETIME
        assert loaded["t"].values[1] == pytest.approx(86400.5)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        from repro.relational.persist import atomic_replace

        def boom(handle):
            handle.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_replace(tmp_path / "t.tbl", boom)
        assert list(tmp_path.iterdir()) == []

    def test_header_meta_roundtrip(self, tmp_path):
        table = Table.from_dict({"x": [1.0]}, name="t")
        header = write_table(table, tmp_path / "t.tbl", meta={"source": "csv-ingest"})
        assert header.meta == {"source": "csv-ingest"}
        assert read_table_header(tmp_path / "t.tbl").meta == {"source": "csv-ingest"}
        # meta does not perturb the content fingerprint
        assert header.fingerprint == table_fingerprint(table)

    def test_views_resolve_on_save(self, tmp_path):
        table = Table.from_dict({"k": ["a", "b", "c"], "x": [1.0, 2.0, 3.0]}, name="t")
        view = table.take(np.array([2, 0]))
        write_table(view, tmp_path / "v.tbl")
        loaded = read_table(tmp_path / "v.tbl")
        assert loaded["k"].to_list() == ["c", "a"]
        assert loaded["x"].to_list() == [3.0, 1.0]


# -- format errors ----------------------------------------------------------


class TestFormatErrors:
    def _write_sample(self, tmp_path):
        path = tmp_path / "t.tbl"
        write_table(Table.from_dict({"k": ["a", "b"], "x": [1.0, 2.0]}, name="t"), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_bytes(b"NOTATBL!" + b"\x00" * 32)
        with pytest.raises(TableFormatError, match="magic"):
            read_table_header(path)

    def test_version_mismatch(self, tmp_path):
        path = self._write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        # one past the chunked version: not a valid format under any layout
        raw[len(MAGIC) : len(MAGIC) + 4] = (CHUNKED_FORMAT_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TableFormatError, match="version"):
            read_table_header(path)

    def test_truncated_pages(self, tmp_path):
        path = self._write_sample(tmp_path)
        raw = path.read_bytes()
        # cut into the page region proper (not just trailing alignment padding)
        path.write_bytes(raw[: read_table_header(path).pages_start + 8])
        with pytest.raises(TableFormatError, match="truncated"):
            read_table(path)
        with pytest.raises(TableFormatError, match="truncated"):
            read_table(path, mmap=False)

    def test_truncated_header(self, tmp_path):
        path = self._write_sample(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TableFormatError, match="truncated"):
            read_table_header(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zero.tbl"
        path.write_bytes(b"")
        with pytest.raises(TableFormatError):
            read_table_header(path)


# -- disk-backed repository -------------------------------------------------


def make_repo_dir(tmp_path, n_tables=4, rows=40):
    rng = np.random.default_rng(0)
    for i in range(n_tables):
        Table.from_dict(
            {
                "entity_id": [f"e{j}" for j in range(rows)],
                "value": list(rng.normal(size=rows)),
            },
            name=f"t{i}",
        ).save(tmp_path / f"t{i}.tbl")
    return tmp_path


class TestDiskRepository:
    def test_open_reads_headers_only(self, tmp_path):
        make_repo_dir(tmp_path, rows=2000)
        total = sum(p.stat().st_size for p in tmp_path.glob("*.tbl"))
        reset_bytes_read()
        repo = DataRepository.open(tmp_path)
        assert repo.is_disk_backed and repo.directory == tmp_path
        assert repo.table_names == ["t0", "t1", "t2", "t3"]
        assert len(repo) == 4 and "t2" in repo
        assert repo.header("t1").num_rows == 2000
        assert repo.header("t1").schema().names == ["entity_id", "value"]
        # cataloguing read headers, not row data (the lazy-loading contract)
        assert bytes_read() < 0.05 * total
        assert repo.cached_tables == []

    def test_lazy_get_and_lru_eviction(self, tmp_path):
        make_repo_dir(tmp_path)
        repo = DataRepository.open(tmp_path, lru_tables=2)
        t0 = repo.get("t0")
        assert t0["value"].values.shape == (40,)
        repo.get("t1")
        repo.get("t2")
        assert repo.cached_tables == ["t1", "t2"]
        # a re-access refreshes recency; same object comes back while cached
        assert repo.get("t1") is repo.get("t1")
        repo.get("t3")
        assert repo.cached_tables == ["t1", "t3"]
        # evicted tables reload transparently
        assert repo.get("t0")["entity_id"].to_list()[0] == "e0"

    def test_iteration_materialises_every_table(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=3)
        repo = DataRepository.open(tmp_path)
        assert [t.name for t in repo] == ["t0", "t1", "t2"]

    def test_get_unknown_name(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=1)
        repo = DataRepository.open(tmp_path)
        with pytest.raises(KeyError, match="nope"):
            repo.get("nope")

    def test_add_and_remove_write_through(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=1)
        repo = DataRepository.open(tmp_path)
        repo.add(Table.from_dict({"x": [1.0]}, name="added"))
        # staged under a content-addressed name and published in the manifest
        assert list(tmp_path.glob("added-*.tbl"))
        with pytest.raises(ValueError, match="already registered"):
            repo.add(Table.from_dict({"x": [2.0]}, name="added"))
        # a fresh open sees the new table
        assert "added" in DataRepository.open(tmp_path)
        repo.remove("added")
        assert not list(tmp_path.glob("added-*.tbl"))
        assert "added" not in DataRepository.open(tmp_path)

    def test_mmap_table_survives_replace(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=1)
        repo = DataRepository.open(tmp_path)
        old = repo.get("t0")
        old_values = old["value"].values.copy()
        repo.replace(Table.from_dict({"x": [9.0]}, name="t0"))
        # the replaced file serves new readers...
        assert repo.get("t0").column_names == ["x"]
        assert DataRepository.open(tmp_path).get("t0").num_rows == 1
        # ...while the old memory-mapped table still reads the old bytes
        assert old.num_rows == 40
        assert np.array_equal(old["value"].values, old_values)
        assert old["entity_id"].to_list()[:2] == ["e0", "e1"]

    def test_replace_supersedes_catalogued_path(self, tmp_path):
        # a table adopted under an arbitrary file stem is republished under
        # its content-addressed name; the superseded file is reclaimed (no
        # snapshot pins it) so the directory never accumulates duplicates
        write_table(Table.from_dict({"x": [1.0]}, name="sales"), tmp_path / "x.tbl")
        repo = DataRepository.open(tmp_path)
        repo.replace(Table.from_dict({"x": [2.0]}, name="sales"))
        names = sorted(p.name for p in tmp_path.glob("*.tbl"))
        assert len(names) == 1 and names[0].startswith("sales-")
        reopened = DataRepository.open(tmp_path)
        assert reopened.get("sales")["x"].to_list() == [2.0]

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DataRepository.open(tmp_path / "absent")

    def test_open_rejects_bad_lru(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=1)
        with pytest.raises(ValueError, match="lru_tables"):
            DataRepository.open(tmp_path, lru_tables=0)


class TestCsvIngestion:
    def test_ingest_converts_once_and_roundtrips(self, tmp_path):
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        (csv_dir / "a.csv").write_text("k,x\nfoo,1.5\nbar,\n")
        (csv_dir / "b.csv").write_text("y\n2\n3\n")
        bin_dir = tmp_path / "bin"
        repo = DataRepository.from_csv_directory(csv_dir, ingest=bin_dir)
        assert repo.is_disk_backed
        assert repo.table_names == ["a", "b"]
        a = repo.get("a")
        assert a["k"].to_list() == ["foo", "bar"]
        assert np.isnan(a["x"].values[1])
        # a second ingest of unchanged CSVs does not rewrite the binaries
        stamps = {p.name: p.stat().st_mtime_ns for p in bin_dir.glob("*.tbl")}
        DataRepository.from_csv_directory(csv_dir, ingest=bin_dir)
        assert {p.name: p.stat().st_mtime_ns for p in bin_dir.glob("*.tbl")} == stamps

    def test_ingest_prunes_tables_whose_csv_disappeared(self, tmp_path):
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        (csv_dir / "keep.csv").write_text("x\n1\n")
        (csv_dir / "gone.csv").write_text("x\n2\n")
        bin_dir = tmp_path / "bin"
        assert DataRepository.from_csv_directory(csv_dir, ingest=bin_dir).table_names == [
            "gone",
            "keep",
        ]
        (csv_dir / "gone.csv").unlink()
        repo = DataRepository.from_csv_directory(csv_dir, ingest=bin_dir)
        assert repo.table_names == ["keep"]
        assert not list(bin_dir.glob("gone*.tbl"))

    def test_ingest_never_prunes_tables_persisted_by_other_means(self, tmp_path):
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        (csv_dir / "a.csv").write_text("x\n1\n")
        bin_dir = tmp_path / "bin"
        repo = DataRepository.from_csv_directory(csv_dir, ingest=bin_dir)
        # a table added through the write-through API has no CSV and no
        # ingest provenance: a re-ingest must leave it alone
        repo.add(Table.from_dict({"y": [9.0]}, name="manual"))
        repo2 = DataRepository.from_csv_directory(csv_dir, ingest=bin_dir)
        assert sorted(repo2.table_names) == ["a", "manual"]
        assert repo2.get("manual")["y"].to_list() == [9.0]

    def test_without_ingest_stays_in_memory(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n1\n")
        repo = DataRepository.from_csv_directory(tmp_path)
        assert not repo.is_disk_backed
        assert repo.get("a").num_rows == 1


# -- persistent profile cache -----------------------------------------------


class TestProfilePersistence:
    def test_sidecar_roundtrip_serves_profiles_without_loading(self, tmp_path):
        make_repo_dir(tmp_path)
        repo = DataRepository.open(tmp_path)
        first = repo.profiles("t0")
        assert repo.profile_cache.stats()["misses"] == 1
        sidecar = repo.save_profiles()
        assert sidecar == tmp_path / PROFILE_SIDECAR

        fresh = DataRepository.open(tmp_path)
        reset_bytes_read()
        served = fresh.profiles("t0")
        stats = fresh.profile_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        # the table body was never read: a cache hit costs zero page bytes
        assert fresh.cached_tables == []
        assert bytes_read() == 0
        assert served["entity_id"].num_distinct == first["entity_id"].num_distinct
        assert served["value"].minhash.jaccard(first["value"].minhash) == 1.0

    def test_replaced_table_invalidates_persisted_profiles(self, tmp_path):
        make_repo_dir(tmp_path, n_tables=2)
        repo = DataRepository.open(tmp_path)
        repo.profiles("t0")
        repo.profiles("t1")
        repo.save_profiles()
        # rewrite t0 with different content out-of-band (another process)
        Table.from_dict({"z": [1.0, 2.0, 3.0]}, name="t0").save(tmp_path / "t0.tbl")
        fresh = DataRepository.open(tmp_path)
        # the stale entry was pruned on open; t0 re-profiles, t1 is served
        profiles = fresh.profiles("t0")
        assert set(profiles) == {"z"}
        fresh.profiles("t1")
        stats = fresh.profile_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["invalidations"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            b"not a pickle",
            b"",  # crash between create and write
            # well-formed pickle, malformed record (missing fields)
            pickle.dumps(
                {
                    "format": "arda-profile-cache",
                    "version": 1,
                    "entries": [{"table": "t0"}],
                }
            ),
        ],
        ids=["garbage", "empty", "bad-record"],
    )
    def test_corrupt_sidecar_is_a_cold_cache(self, tmp_path, payload):
        make_repo_dir(tmp_path, n_tables=1)
        (tmp_path / PROFILE_SIDECAR).write_bytes(payload)
        repo = DataRepository.open(tmp_path)
        repo.profiles("t0")
        assert repo.profile_cache.stats()["misses"] == 1

    def test_sidecar_version_check(self, tmp_path):
        cache = ProfileCache()
        path = tmp_path / "profiles.cache"
        path.write_bytes(
            pickle.dumps({"format": "arda-profile-cache", "version": 999, "entries": []})
        )
        with pytest.raises(ValueError, match="version"):
            cache.load(path)
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="sidecar"):
            cache.load(path)

    def test_in_memory_cache_save_load_by_fingerprint(self, tmp_path):
        def lookup(cache, table):
            fingerprint = table_fingerprint(table)
            return cache.lookup("t", fingerprint, lambda: (fingerprint, table), num_hashes=16)

        table = Table.from_dict({"k": ["a", "b", "a"], "x": [1.0, 2.0, None]}, name="t")
        cache = ProfileCache()
        lookup(cache, table)
        path = tmp_path / "profiles.cache"
        assert cache.save(path) == 1

        restored = ProfileCache()
        assert restored.load(path) == 1
        # an equal-content table object hits via fingerprint validation...
        same = Table.from_dict({"k": ["a", "b", "a"], "x": [1.0, 2.0, None]}, name="t")
        profiles = lookup(restored, same)
        assert restored.stats()["hits"] == 1
        assert profiles["k"].num_distinct == 2
        # ...and keeps hitting
        lookup(restored, same)
        assert restored.stats()["hits"] == 2
        # different content misses
        other = Table.from_dict({"k": ["zzz"], "x": [0.0]}, name="t")
        lookup(restored, other)
        assert restored.stats()["misses"] == 1

    def test_save_profiles_requires_path_for_in_memory_repo(self):
        repo = DataRepository([Table.from_dict({"x": [1.0]}, name="t")])
        with pytest.raises(ValueError, match="explicit path"):
            repo.save_profiles()


# -- end-to-end: pipeline over a disk-backed repository ----------------------


class TestPipelineOverDiskRepository:
    def test_arda_opens_configured_repository_and_persists_profiles(self, tmp_path):
        from repro import ARDA, ARDAConfig
        from repro.datasets import RelationalDatasetBuilder
        from repro.datasets.synthetic import SignalTableSpec

        builder = RelationalDatasetBuilder(
            "disk", n_rows=120, n_entities=40, n_base_features=2, seed=3
        )
        builder.add_signal_table(SignalTableSpec("alpha", n_signal_columns=2, weight=1.5))
        builder.add_noise_tables(2, prefix="junk", n_columns=3)
        dataset = builder.build()
        for table in dataset.repository:
            table.save(tmp_path / f"{table.name}.tbl")

        config = ARDAConfig(
            repository_dir=str(tmp_path),
            lru_tables=2,
            selector_options={"n_rounds": 2},
            random_state=0,
        )
        arda = ARDA(config)
        report = arda.augment_tables(dataset.base_table, None, target=dataset.target)
        assert report.tables_considered > 0
        # discovery persisted its profiles next to the tables
        assert (tmp_path / PROFILE_SIDECAR).exists()
        # a second call reuses the warm repository (catalog, LRU, profiles)
        first_repo = arda._opened_repository
        arda.augment_tables(dataset.base_table, None, target=dataset.target)
        assert arda._opened_repository is first_repo

        # a second process (fresh repository) serves discovery from the sidecar
        repo = DataRepository.open(tmp_path)
        for name in repo.table_names:
            repo.profiles(name)
        stats = repo.profile_cache.stats()
        assert stats["misses"] == 0 and stats["hits"] == len(repo)

    def test_missing_repository_configuration_raises(self):
        from repro import ARDA

        base = Table.from_dict({"x": [1.0, 2.0], "y": [0.0, 1.0]}, name="b")
        with pytest.raises(ValueError, match="repository_dir"):
            ARDA().augment_tables(base, None, target="y")
