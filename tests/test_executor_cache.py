"""Tests for the parallel join executor backends and the repository profile cache."""

import numpy as np
import pytest

from repro import ARDA, ARDAConfig
from repro.core.executor import (
    JoinExecutor,
    ProcessJoinExecutor,
    SerialJoinExecutor,
    ThreadJoinExecutor,
    longest_first_order,
    make_executor,
    resolve_n_jobs,
)
from repro.core.join_execution import join_candidates
from repro.core.join_plan import build_join_plan
from repro.datasets import RelationalDatasetBuilder
from repro.datasets.synthetic import SignalTableSpec
from repro.discovery import JoinDiscovery, ProfileCache
from repro.discovery.profiles import profile_table
from repro.discovery.repository import DataRepository
from repro.relational import Table
from repro.relational.persist import table_fingerprint

FAST_RIFS = {"n_rounds": 2}


@pytest.fixture(scope="module")
def small_dataset():
    """The same scenario shape the core-pipeline integration tests use."""
    builder = RelationalDatasetBuilder(
        "unit", n_rows=220, n_entities=60, n_base_features=3, seed=7, noise_level=0.25
    )
    builder.add_signal_table(SignalTableSpec("alpha", n_signal_columns=2, weight=1.5))
    builder.add_signal_table(SignalTableSpec("beta", n_signal_columns=2, weight=1.0))
    builder.add_noise_tables(6, prefix="junk", n_columns=4)
    return builder.build()


def _repo_with(n_tables=3, rows=40):
    rng = np.random.default_rng(0)
    tables = [
        Table.from_dict(
            {
                "entity_id": np.arange(rows, dtype=np.float64),
                "value": rng.normal(size=rows),
            },
            name=f"t{i}",
        )
        for i in range(n_tables)
    ]
    return DataRepository(tables)


class TestExecutorFactory:
    def test_serial_by_default(self):
        assert isinstance(make_executor(), SerialJoinExecutor)

    def test_named_backends(self):
        assert isinstance(make_executor("thread", 2), ThreadJoinExecutor)
        assert isinstance(make_executor("process", 2), ProcessJoinExecutor)

    def test_n_jobs_1_falls_back_to_serial(self):
        assert isinstance(make_executor("thread", n_jobs=1), SerialJoinExecutor)
        assert isinstance(make_executor("process", n_jobs=1), SerialJoinExecutor)

    def test_instance_passes_through(self):
        executor = ThreadJoinExecutor(2)
        assert make_executor(executor) is executor

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_config_validates_executor(self):
        with pytest.raises(ValueError):
            ARDAConfig(executor="gpu")

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(None) >= 1
        assert resolve_n_jobs(0) >= 1

    def test_map_preserves_order(self):
        items = list(range(20))
        expected = [i * i for i in items]
        for executor in (SerialJoinExecutor(), ThreadJoinExecutor(4)):
            assert executor.map(lambda i: i * i, items) == expected

    def test_longest_first_order(self):
        assert longest_first_order([1, 5, 3, 5]) == [1, 3, 2, 0]

    def test_base_executor_is_abstract(self):
        with pytest.raises(NotImplementedError):
            JoinExecutor().map(lambda x: x, [1])

    def test_pool_reused_across_maps_then_shutdown(self):
        executor = ThreadJoinExecutor(2)
        executor.map(lambda i: i, [1, 2, 3])
        pool = executor._pool
        assert pool is not None
        executor.map(lambda i: i, [4, 5, 6])
        assert executor._pool is pool
        executor.shutdown()
        assert executor._pool is None

    def test_context_manager_shuts_down(self):
        with ThreadJoinExecutor(2) as executor:
            executor.map(lambda i: i, [1, 2])
            assert executor._pool is not None
        assert executor._pool is None

    def test_serial_shutdown_is_noop(self):
        SerialJoinExecutor().shutdown()


class TestParallelJoinIdentity:
    """Parallel backends must be byte-identical to the serial reference."""

    def _join_all(self, dataset, executor):
        return join_candidates(
            dataset.base_table,
            dataset.repository,
            dataset.candidates,
            rng=np.random.default_rng(0),
            executor=executor,
        )

    def test_thread_identical_to_serial(self, small_dataset):
        table_s, contrib_s = self._join_all(small_dataset, SerialJoinExecutor())
        table_t, contrib_t = self._join_all(small_dataset, ThreadJoinExecutor(4))
        assert table_s == table_t
        assert contrib_s == contrib_t

    def test_process_identical_to_serial(self, small_dataset):
        table_s, contrib_s = self._join_all(small_dataset, SerialJoinExecutor())
        table_p, contrib_p = self._join_all(small_dataset, ProcessJoinExecutor(2))
        assert table_s == table_p
        assert contrib_s == contrib_p

    def test_empty_batch_returns_base(self, small_dataset):
        table, contributed = join_candidates(
            small_dataset.base_table, small_dataset.repository, [], executor=ThreadJoinExecutor(2)
        )
        assert table == small_dataset.base_table
        assert contributed == {}

    def test_full_pipeline_identical(self, small_dataset):
        serial = ARDA(
            ARDAConfig(selector="RIFS", selector_options=FAST_RIFS, random_state=0)
        ).augment(small_dataset)
        threaded = ARDA(
            ARDAConfig(
                selector="RIFS", selector_options=FAST_RIFS, random_state=0,
                executor="thread", n_jobs=4,
            )
        ).augment(small_dataset)
        assert serial.augmented_table == threaded.augmented_table
        assert serial.augmented_score == threaded.augmented_score
        assert serial.kept_columns == threaded.kept_columns
        assert serial.kept_tables == threaded.kept_tables
        assert threaded.executor == "thread"
        assert serial.executor == "serial"

    def test_batch_plan_carries_feature_counts(self, small_dataset):
        for strategy in ("budget", "table", "full"):
            plan = build_join_plan(
                small_dataset.candidates, small_dataset.repository, strategy, budget=10
            )
            for batch in plan:
                assert len(batch.feature_counts) == len(batch.candidates)
                assert sum(batch.feature_counts) == batch.estimated_features


class TestProfileCache:
    def test_second_lookup_hits(self):
        repo = _repo_with(3)
        first = repo.profiles("t0")
        second = repo.profiles("t0")
        assert first is second
        assert repo.profile_cache.hits == 1
        assert repo.profile_cache.misses == 1

    def test_cached_profiles_match_direct_profiling(self):
        repo = _repo_with(1)
        cached = repo.profiles("t0")
        direct = profile_table(repo.get("t0"))
        assert set(cached) == set(direct)
        for name in cached:
            assert cached[name].num_distinct == direct[name].num_distinct
            assert cached[name].null_fraction == direct[name].null_fraction

    def test_distinct_num_hashes_are_distinct_entries(self):
        repo = _repo_with(1)
        repo.profiles("t0", num_hashes=32)
        repo.profiles("t0", num_hashes=64)
        assert repo.profile_cache.misses == 2
        assert len(repo.profile_cache) == 2

    def test_replace_invalidates(self):
        repo = _repo_with(2)
        repo.profiles("t0")
        replacement = repo.get("t0").with_column(repo.get("t1").column("value").rename("extra"))
        repo.replace(replacement.rename("t0"))
        repo.profiles("t0")
        assert repo.profile_cache.invalidations == 1
        assert repo.profile_cache.misses == 2
        assert repo.profile_cache.hits == 0
        assert "extra" in repo.profiles("t0")

    def test_remove_invalidates(self):
        repo = _repo_with(2)
        repo.profiles("t1")
        repo.remove("t1")
        assert repo.profile_cache.invalidations == 1
        with pytest.raises(KeyError):
            repo.profiles("t1")

    def test_remove_missing_raises(self):
        repo = _repo_with(1)
        with pytest.raises(KeyError):
            repo.remove("nope")

    def test_invalidate_all_and_reset(self):
        repo = _repo_with(3)
        for name in repo.table_names:
            repo.profiles(name)
        assert repo.profile_cache.invalidate() == 3
        assert len(repo.profile_cache) == 0
        repo.profile_cache.reset_counters()
        assert repo.profile_cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "invalidations": 0,
        }

    def test_cache_shared_between_discoveries(self):
        repo = _repo_with(4)
        base = Table.from_dict(
            {
                "entity_id": np.arange(40, dtype=np.float64),
                "target": np.arange(40, dtype=np.float64) * 2.0,
            },
            name="base",
        )
        discovery = JoinDiscovery()
        discovery.discover(base, repo, target="target")
        misses = repo.profile_cache.misses
        assert misses == len(repo)
        discovery.discover(base, repo, target="target")
        assert repo.profile_cache.misses == misses
        assert repo.profile_cache.hits == len(repo)

    @staticmethod
    def _cold_disk_repository(tmp_path, n_tables=3):
        disk = DataRepository.open(tmp_path, load_profiles=False)
        memory = _repo_with(n_tables)
        for name in memory.table_names:
            disk.add(memory.get(name))
        return DataRepository.open(tmp_path, load_profiles=False)

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_profiles_many_counts_each_table_once(self, tmp_path, workers):
        # serial fallback (no executor, one worker) and sharded profiling
        # alike: one miss per cold table, then one hit per warm one
        repo = self._cold_disk_repository(tmp_path)
        executor = make_executor("thread", workers) if workers else None
        try:
            repo.profiles_many(executor=executor)
            assert (repo.profile_cache.misses, repo.profile_cache.hits) == (3, 0)
            repo.profiles_many(executor=executor)
            assert (repo.profile_cache.misses, repo.profile_cache.hits) == (3, 3)
        finally:
            if executor is not None:
                executor.shutdown()

    def test_profiles_many_torn_read_fallback_counts_each_table_once(
        self, tmp_path, monkeypatch
    ):
        import repro.discovery.repository as repository_module

        # every shard reports a concurrent republish: each table falls back
        # to the serial path, which must not count its miss a second time
        monkeypatch.setattr(repository_module, "_profile_shard_job", lambda shared, item: None)
        repo = self._cold_disk_repository(tmp_path)
        with make_executor("thread", 2) as executor:
            profiles = repo.profiles_many(executor=executor)
        assert set(profiles) == set(repo.table_names)
        assert (repo.profile_cache.misses, repo.profile_cache.hits) == (3, 0)

    def test_standalone_cache_content_guard(self):
        def lookup(table):
            fingerprint = table_fingerprint(table)
            return cache.lookup(table.name, fingerprint, lambda: (fingerprint, table))

        cache = ProfileCache()
        table = _repo_with(1).get("t0")
        lookup(table)
        lookup(table)
        assert (cache.hits, cache.misses) == (1, 1)
        # same name, different content: the fingerprint forces a re-profile
        lookup(table.take(np.arange(table.num_rows - 1)))
        assert cache.misses == 2


class TestARDACacheReuse:
    def test_repeated_augment_skips_reprofiling(self, small_dataset):
        repository = DataRepository(list(small_dataset.repository))
        config = ARDAConfig(selector="random forest", coreset_size=150, random_state=0)
        kwargs = dict(target="target", task="regression")

        ARDA(config).augment_tables(small_dataset.base_table, repository, **kwargs)
        stats = repository.profile_cache.stats()
        assert stats["misses"] == len(repository)
        assert stats["hits"] == 0

        ARDA(config).augment_tables(small_dataset.base_table, repository, **kwargs)
        stats = repository.profile_cache.stats()
        assert stats["misses"] == len(repository)  # no re-profiling
        assert stats["hits"] == len(repository)


class TestFinalMaterialisation:
    """Kept columns must survive re-materialisation even when collision
    suffixes assign them different names in the final join than they had
    during the coreset batch loop."""

    def test_materialise_kept_restores_loop_names_and_values(self):
        from repro.core.join_execution import join_candidates_detailed, prepare_kept_joins
        from repro.discovery.candidates import JoinCandidate, KeyPair

        base = Table.from_dict(
            {"entity_id": [0.0, 1.0, 2.0, 3.0], "target": [1.0, 2.0, 3.0, 4.0]},
            name="base",
        )
        t = Table.from_dict(
            {
                "entity_id": [0.0, 1.0, 2.0, 3.0],
                "key2": [3.0, 2.0, 1.0, 0.0],
                "x": [10.0, 20.0, 30.0, 40.0],
            },
            name="t",
        )
        repo = DataRepository([t])
        candidate = JoinCandidate("t", [KeyPair("entity_id", "key2")], score=1.0)
        # during the batch loop this candidate's second column collided with a
        # carried column and was kept under the suffixed name "t.x_r"
        kept_specs = [(candidate, [1], ["t.x_r"])]
        prepared = prepare_kept_joins(repo, kept_specs, base.schema())
        out, _path, _stats = ARDA(ARDAConfig())._materialise_kept(
            base, repo, kept_specs, prepared, SerialJoinExecutor()
        )
        assert out.column_names == ["entity_id", "target", "t.x_r"]
        # joined via key2: base entity 0 matches the t row whose key2 is 0 -> x=40
        assert out["t.x_r"].values.tolist() == [40.0, 30.0, 20.0, 10.0]
        # sanity: a plain final join would have named this column "t.x"
        joined, added = join_candidates_detailed(base, repo, [candidate])
        assert added == [["t.entity_id", "t.x"]]

    def test_augment_kept_columns_all_present(self, small_dataset):
        config = ARDAConfig(selector="random forest", coreset_size=150, random_state=0)
        report = ARDA(config).augment_tables(
            small_dataset.base_table,
            small_dataset.repository,
            target="target",
            task="regression",
        )
        # discovery emits up to 2 candidates per table, so duplicate-table
        # collisions are in play; every reported kept column must exist
        missing = [
            name
            for name in report.kept_columns
            if name not in report.augmented_table
        ]
        assert missing == []


class TestStageTimings:
    def test_report_stage_breakdown(self, small_dataset):
        config = ARDAConfig(selector="random forest", random_state=0)
        report = ARDA(config).augment(small_dataset)
        breakdown = report.stage_breakdown()
        assert set(breakdown) == {
            "discovery_s", "coreset_s", "join_s", "selection_s", "fit_s",
            "other_s", "total_s",
        }
        assert breakdown["join_s"] > 0
        assert breakdown["fit_s"] > 0
        assert breakdown["total_s"] >= breakdown["join_s"]
        assert all(v >= 0 for v in breakdown.values())
        assert report.summary()["executor"] == "serial"
        assert any(batch.join_time > 0 for batch in report.batches)

    def test_stage_breakdown_reporting(self, small_dataset):
        from repro.evaluation import format_stage_breakdown, stage_breakdown_rows

        config = ARDAConfig(selector="random forest", random_state=0)
        report = ARDA(config).augment(small_dataset)
        rows = stage_breakdown_rows([report])
        assert rows[0]["dataset"] == "unit"
        text = format_stage_breakdown([report])
        assert "join_s" in text and "executor" in text

    def test_evaluate_augmentation_exposes_stage_times(self, small_dataset):
        from repro.evaluation import evaluate_augmentation

        record = evaluate_augmentation(
            small_dataset, ARDAConfig(selector="random forest", random_state=0)
        )
        assert "stage_times" in record.extra
        assert record.extra["stage_times"]["total_s"] > 0
