"""Property tests for the corpus-scale engine.

Pins the two determinism contracts the chunk-sharded discovery and the Grace
build-side-spill join advertise:

* sharded repository profiling (and therefore discovery's candidate ranking)
  is **byte-identical** to the serial per-table path on every executor
  backend — parallelism only changes wall-clock time;
* the spill join reproduces ``left_join`` **exactly** for every partition
  count and memory budget, including forced single partitions, one-row
  tables and key distributions that leave partitions empty;
* the spill join keeps aggregated build partitions resident while they fit
  the budget, so only the partitions past that prefix spill base rows and
  outputs (pinned by the spill files it writes and its byte counters);
* a build side that fits the budget, or any build side without one, is
  aggregated once in memory and spills nothing;
* a build side handed in already prepared is probed as is, whatever the
  budget, and prunes through its own key ranges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import make_executor
from repro.discovery.discovery import JoinDiscovery
from repro.discovery.repository import DataRepository
from repro.relational.aggregate import group_by_aggregate
from repro.relational.join import (
    StreamingHashJoin,
    StreamJoinStats,
    as_chunk_source,
    estimate_source_nbytes,
    grace_left_join,
    iter_grace_left_join,
    left_join,
)
from repro.relational.persist import open_chunks, write_table
from repro.relational.schema import CATEGORICAL, NUMERIC
from repro.relational.table import Table
from stress import deep_settings

# -- strategies -------------------------------------------------------------

key_entries = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 7.5, -3.0]))
cat_entries = st.one_of(
    st.none(), st.sampled_from(["a", "bb", "", "日本語", "x y", "-1.5"])
)
num_entries = st.one_of(st.none(), st.sampled_from([0.0, -1.5, 2.0**40, 3.25]))
id_entries = st.sampled_from([f"id-{i}" for i in range(12)])
partition_counts = st.sampled_from([1, 2, 3, 5, 8])
chunk_targets = st.sampled_from([1, 2, 3, 7])
# spill-join budgets: no budget keeps every aggregated build partition
# resident, one byte none of them, and half the aggregated build a prefix
residencies = st.sampled_from(["all", "prefix", "none"])


@st.composite
def repositories(draw):
    """A tiny corpus: 1-3 candidate tables sharing an id domain with a base."""
    n_tables = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for index in range(n_tables):
        n_rows = draw(st.integers(min_value=0, max_value=20))
        tables.append(
            Table.from_dict(
                {
                    "entity_id": draw(
                        st.lists(id_entries, min_size=n_rows, max_size=n_rows)
                    ),
                    "measure": draw(
                        st.lists(num_entries, min_size=n_rows, max_size=n_rows)
                    ),
                    "tag": draw(
                        st.lists(cat_entries, min_size=n_rows, max_size=n_rows)
                    ),
                },
                types={"entity_id": CATEGORICAL, "measure": NUMERIC, "tag": CATEGORICAL},
                name=f"aux_{index}",
            )
        )
    base_rows = draw(st.integers(min_value=1, max_value=15))
    base = Table.from_dict(
        {
            "entity_id": draw(
                st.lists(id_entries, min_size=base_rows, max_size=base_rows)
            ),
            "f0": draw(st.lists(num_entries, min_size=base_rows, max_size=base_rows)),
            "target": draw(
                st.lists(st.sampled_from([0.0, 1.0]), min_size=base_rows, max_size=base_rows)
            ),
        },
        types={"entity_id": CATEGORICAL, "f0": NUMERIC, "target": NUMERIC},
        name="base",
    )
    return tables, base


@st.composite
def join_cases(draw):
    """A left table, a right table and key pairs, all with messy keys."""
    n_left = draw(st.integers(min_value=0, max_value=25))
    n_right = draw(st.integers(min_value=0, max_value=12))
    left = Table.from_dict(
        {
            "k": draw(st.lists(key_entries, min_size=n_left, max_size=n_left)),
            "c": draw(st.lists(cat_entries, min_size=n_left, max_size=n_left)),
            "x": draw(st.lists(num_entries, min_size=n_left, max_size=n_left)),
        },
        types={"k": NUMERIC, "c": CATEGORICAL, "x": NUMERIC},
        name="left",
    )
    right = Table.from_dict(
        {
            "rk": draw(st.lists(key_entries, min_size=n_right, max_size=n_right)),
            "rc": draw(st.lists(cat_entries, min_size=n_right, max_size=n_right)),
            "v": draw(st.lists(num_entries, min_size=n_right, max_size=n_right)),
        },
        types={"rk": NUMERIC, "rc": CATEGORICAL, "v": NUMERIC},
        name="right",
    )
    composite = draw(st.booleans())
    on = [("k", "rk"), ("c", "rc")] if composite else [("k", "rk")]
    return left, right, on


def persisted_repository(tmp_path, tables, chunk_rows):
    repo = DataRepository.open(tmp_path, load_profiles=False, chunk_rows=chunk_rows)
    for table in tables:
        repo.add(table)
    return repo


def profile_states(profiles_by_table):
    return {
        name: {column: profile.to_state() for column, profile in profiles.items()}
        for name, profiles in profiles_by_table.items()
    }


def candidate_fingerprint(candidates):
    return [
        (
            c.foreign_table,
            tuple((k.base_column, k.foreign_column, k.soft) for k in c.keys),
            c.score,
        )
        for c in candidates
    ]


def assert_tables_equal(got, want):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        assert got.column(name) == want.column(name), name


# -- sharded discovery is byte-identical to serial --------------------------


class TestShardedDiscoveryDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(repositories(), chunk_targets, st.sampled_from(["serial", "thread"]))
    def test_profiles_many_matches_serial(
        self, tmp_path_factory, repo_case, chunk_rows, backend
    ):
        tables, _ = repo_case
        tmp_path = tmp_path_factory.mktemp("shard")
        repo = persisted_repository(tmp_path, tables, chunk_rows)
        serial = {
            table.name: repo.profiles(table.name, num_hashes=16) for table in tables
        }
        # a cold repository so the sharded path cannot serve the cache
        cold = DataRepository.open(tmp_path, load_profiles=False)
        executor = make_executor(backend, 3)
        try:
            sharded = cold.profiles_many(
                [t.name for t in tables], num_hashes=16, executor=executor
            )
        finally:
            executor.shutdown()
        assert profile_states(sharded) == profile_states(serial)

    @settings(max_examples=15, deadline=None)
    @given(repositories(), chunk_targets)
    def test_discover_ranking_matches_serial(
        self, tmp_path_factory, repo_case, chunk_rows
    ):
        tables, base = repo_case
        tmp_path = tmp_path_factory.mktemp("rank")
        persisted_repository(tmp_path, tables, chunk_rows)
        discovery = JoinDiscovery(num_hashes=16)

        def run(backend):
            cold = DataRepository.open(tmp_path, load_profiles=False)
            executor = make_executor(backend, 3) if backend else None
            try:
                return discovery.discover(base, cold, target="target", executor=executor)
            finally:
                if executor is not None:
                    executor.shutdown()

        serial = candidate_fingerprint(run(None))
        assert candidate_fingerprint(run("serial")) == serial
        assert candidate_fingerprint(run("thread")) == serial

    def test_process_executor_matches_serial(self, tmp_path):
        """One deterministic corpus through a real process pool."""
        tables = [
            Table.from_dict(
                {
                    "entity_id": [f"id-{i % 7}" for i in range(40)],
                    "measure": [float(i) for i in range(40)],
                },
                types={"entity_id": CATEGORICAL, "measure": NUMERIC},
                name=f"aux_{index}",
            )
            for index in range(3)
        ]
        base = Table.from_dict(
            {
                "entity_id": [f"id-{i % 5}" for i in range(20)],
                "target": [float(i % 2) for i in range(20)],
            },
            types={"entity_id": CATEGORICAL, "target": NUMERIC},
            name="base",
        )
        repo = persisted_repository(tmp_path, tables, chunk_rows=8)
        serial = {t.name: repo.profiles(t.name, num_hashes=16) for t in tables}
        cold = DataRepository.open(tmp_path, load_profiles=False)
        executor = make_executor("process", 2)
        try:
            sharded = cold.profiles_many(
                [t.name for t in tables], num_hashes=16, executor=executor
            )
        finally:
            executor.shutdown()
        assert profile_states(sharded) == profile_states(serial)


# -- the spill join reproduces left_join for every partition count and budget


def residency_budget(residency, left, right, on):
    """The ``memory_budget`` of a residency: no budget keeps every aggregated
    build partition resident, one byte none of them, and half the aggregated
    build's estimate a prefix (which the key distribution may leave empty
    or whole)."""
    if residency == "all":
        return None
    if residency == "none":
        return 1
    aggregated = StreamingHashJoin(right, on, left.schema()).right
    return max(1, estimate_source_nbytes(aggregated) // 2)


class TestGraceSpillEquivalence:
    @pytest.mark.stress
    @deep_settings(60)
    @given(join_cases(), chunk_targets, partition_counts, residencies)
    def test_matches_left_join(
        self, tmp_path_factory, case, chunk_rows, partitions, residency
    ):
        left, right, on = case
        reference = left_join(left, right, on)
        spill_dir = tmp_path_factory.mktemp("spill")
        got, stats = grace_left_join(
            as_chunk_source(left, chunk_rows=chunk_rows),
            right,
            on,
            num_partitions=partitions,
            memory_budget=residency_budget(residency, left, right, on),
            spill_dir=spill_dir,
        )
        assert_tables_equal(got, reference)
        assert stats.spill_partitions == partitions

    def test_single_row_tables(self, tmp_path):
        left = Table.from_dict({"k": [1.0], "x": [2.0]}, name="left")
        right = Table.from_dict({"rk": [1.0], "v": [9.0]}, name="right")
        for partitions in (1, 2, 5):
            got, _ = grace_left_join(
                as_chunk_source(left, chunk_rows=1),
                right,
                [("k", "rk")],
                num_partitions=partitions,
                spill_dir=tmp_path,
            )
            assert_tables_equal(got, left_join(left, right, [("k", "rk")]))

    def test_empty_partitions_and_empty_right(self, tmp_path):
        # one distinct key: with 8 partitions, 7 build partitions stay empty
        left = Table.from_dict(
            {"k": [3.0] * 9 + [None], "x": [float(i) for i in range(10)]}, name="left"
        )
        right = Table.from_dict({"rk": [3.0, 4.0], "v": [1.0, 2.0]}, name="right")
        got, _ = grace_left_join(
            as_chunk_source(left, chunk_rows=3),
            right,
            [("k", "rk")],
            num_partitions=8,
            spill_dir=tmp_path,
        )
        assert_tables_equal(got, left_join(left, right, [("k", "rk")]))

        empty_right = Table.from_dict({"rk": [], "v": []}, name="right")
        got, _ = grace_left_join(
            as_chunk_source(left, chunk_rows=4),
            empty_right,
            [("k", "rk")],
            num_partitions=3,
            spill_dir=tmp_path,
        )
        assert_tables_equal(got, left_join(left, empty_right, [("k", "rk")]))


# -- resident aggregated partitions: only the build side spills -------------


def fanout_case():
    """A base against a fan-out build: 4,000 rows over 100 keys.

    The raw build estimates at 4,000 rows x 3 columns x 8 bytes = 96,000
    bytes.  Cut into 3 partitions, it aggregates to 40, 30 and 30 keys, so
    the aggregated partitions estimate at 960, 720 and 720 bytes.
    """
    rng = np.random.default_rng(7)
    n = 4000
    right = Table.from_dict(
        {
            "rk": rng.integers(0, 100, n).astype(float),
            "v": rng.normal(size=n),
            "tag": [f"t{i}" for i in rng.integers(0, 9, n)],
        },
        types={"rk": NUMERIC, "v": NUMERIC, "tag": CATEGORICAL},
        name="fanout",
    )
    left = Table.from_dict(
        {"k": rng.integers(0, 120, 3000).astype(float), "x": rng.normal(size=3000)},
        name="base",
    )
    return left, right


def run_spill_join(tmp_path, left, right, **options):
    """Stream the spill join, checking each chunk against ``left_join``.

    Returns the join's stats and the page bytes (everything after the
    header) of every spill file present when the first chunk comes out, by
    file name: every spill file is written by then.
    """
    on = [("k", "rk")]
    reference = left_join(left, right, on)
    stats = StreamJoinStats()
    joined = iter_grace_left_join(
        as_chunk_source(left, chunk_rows=500),
        right,
        on,
        spill_dir=tmp_path,
        stats=stats,
        **options,
    )
    files, offset = None, 0
    for chunk in joined:
        if files is None:
            files = {
                path.name: path.stat().st_size - open_chunks(path).header.pages_start
                for path in tmp_path.rglob("*.tbl")
            }
        stop = offset + chunk.num_rows
        assert_tables_equal(chunk, reference.take(np.arange(offset, stop)))
        offset = stop
    assert offset == reference.num_rows
    assert list(tmp_path.iterdir()) == []  # spill files removed
    return stats, files


class TestHybridResidency:
    @pytest.mark.parametrize(
        "budget, partitions, resident",
        [
            # 96,000 raw bytes need 3 partitions under 40,000 bytes, and the
            # aggregated build (2,400 bytes) fits: only the build side spills
            (40_000, None, 3),
            (None, 3, 3),
            (2_000, 3, 2),
            (1_000, 3, 1),
            (1, 3, 0),
        ],
    )
    def test_only_partitions_past_the_resident_prefix_spill_base_rows(
        self, tmp_path, budget, partitions, resident
    ):
        left, right = fanout_case()
        stats, files = run_spill_join(
            tmp_path, left, right, num_partitions=partitions, memory_budget=budget
        )
        assert stats.spill_partitions == 3
        spilled = range(resident, 3)
        assert sorted(files) == sorted(
            [f"right-{p:05d}.tbl" for p in range(3)]
            + [f"{side}-{p:05d}.tbl" for side in ("left", "out") for p in spilled]
        )
        assert stats.spill_bytes_written == sum(files.values())
        assert stats.spill_bytes_read == stats.spill_bytes_written  # each read once
        assert stats.chunks_probed == stats.chunks_total == 6


class TestBuildThatFits:
    @pytest.mark.parametrize("budget", [None, 96_000, 200_000])
    def test_prepares_the_build_in_memory_and_spills_nothing(
        self, tmp_path, monkeypatch, budget
    ):
        # no budget, or one at or above the raw build's 96,000-byte estimate:
        # the build side is aggregated once, in memory, and nothing spills
        left, right = fanout_case()
        on = [("k", "rk")]
        reference = left_join(left, right, on)
        calls = []

        def counting_aggregate(*args, **kwargs):
            calls.append(args[0].num_rows)
            return group_by_aggregate(*args, **kwargs)

        monkeypatch.setattr("repro.relational.join.group_by_aggregate", counting_aggregate)
        got, stats = grace_left_join(
            as_chunk_source(left, chunk_rows=500),
            right,
            on,
            memory_budget=budget,
            spill_dir=tmp_path,
        )
        assert_tables_equal(got, reference)
        assert stats.spill_partitions == 0
        assert stats.spill_bytes_written == stats.spill_bytes_read == 0
        assert list(tmp_path.rglob("*")) == []
        assert calls == [right.num_rows]
        assert stats.chunks_probed == stats.chunks_total == 6


class TestPreparedBuildSide:
    @pytest.mark.parametrize("budget", [None, 1, 40_000])
    def test_probes_the_prepared_build_as_is(self, tmp_path, monkeypatch, budget):
        # every budget, even one that would spill all three partitions of the
        # raw build: the prepared build is resident as is and nothing spills
        left, right = fanout_case()
        on = [("k", "rk")]
        reference = left_join(left, right, on)
        prepared = StreamingHashJoin(right, on, left.schema())
        calls = []

        def counting_aggregate(*args, **kwargs):
            calls.append(args[0].num_rows)
            return group_by_aggregate(*args, **kwargs)

        monkeypatch.setattr("repro.relational.join.group_by_aggregate", counting_aggregate)
        got, stats = grace_left_join(
            as_chunk_source(left, chunk_rows=500),
            prepared,
            on,
            memory_budget=budget,
            spill_dir=tmp_path,
        )
        assert_tables_equal(got, reference)
        assert calls == []
        assert stats.spill_partitions == 0
        assert stats.spill_bytes_written == stats.spill_bytes_read == 0
        assert list(tmp_path.rglob("*")) == []
        assert stats.chunks_probed == stats.chunks_total == 6
        assert stats.rows_probed == stats.rows_total == left.num_rows

    def test_checks_the_keys(self):
        left, right = fanout_case()
        prepared = StreamingHashJoin(right, [("k", "rk")], left.schema())
        with pytest.raises(KeyError, match="left source has no key column 'k'"):
            next(iter_grace_left_join(left.select(["x"]), prepared, [("k", "rk")]))
        with pytest.raises(ValueError, match="prepared build side joins on"):
            next(iter_grace_left_join(left, prepared, [("x", "rk")]))

    def test_prunes_each_source_through_the_prepared_pruner(self, tmp_path):
        # one prepared categorical-key build, two sources whose dictionaries
        # code the same strings differently: each source prunes through the
        # build's own key ranges, translated through its own dictionary
        right = Table.from_dict(
            {"rk": ["m", "n"], "v": [1.0, 2.0]},
            types={"rk": CATEGORICAL, "v": NUMERIC},
            name="build",
        )
        on = [("k", "rk")]
        sources = {
            "first": ["a"] * 4 + ["m"] * 4 + ["z"] * 4,
            "second": ["m"] * 4 + ["q"] * 4 + ["n"] * 4,
        }
        prepared = None
        for name, keys in sources.items():
            left = Table.from_dict(
                {"k": keys, "x": [float(i) for i in range(len(keys))]},
                types={"k": CATEGORICAL, "x": NUMERIC},
                name=name,
            )
            write_table(left, tmp_path / f"{name}.tbl", chunk_rows=4)
            if prepared is None:
                prepared = StreamingHashJoin(right, on, left.schema())
            stats = StreamJoinStats()
            got = list(
                iter_grace_left_join(
                    open_chunks(tmp_path / f"{name}.tbl"), prepared, on, stats=stats
                )
            )
            reference = left_join(left, right, on)
            offset = 0
            for chunk in got:
                stop = offset + chunk.num_rows
                assert_tables_equal(chunk, reference.take(np.arange(offset, stop)))
                offset = stop
            assert offset == left.num_rows
            assert (stats.chunks_total, stats.chunks_probed) == (3, 2 if name == "second" else 1)
        assert "pruner" in vars(prepared)  # the prepared join's own pruner
