"""Bit-identity of the pre-aggregation segment kernels and the prepared probe.

``group_by_aggregate`` computes every aggregate for all groups at once; the
per-group loop it replaced (:mod:`aggregate_reference`) calls the numpy
nan-aggregate once per group.  Every output column must match that loop byte
for byte — NaN payloads and the sign of zero included — so these tests also
pin numpy's pairwise summation order: a numpy release that sums differently
fails here instead of drifting.

The second half pins the hash-join probe: a :class:`StreamingHashJoin`
prepares its build keys once and maps every probed chunk into them, and must
find exactly the rows the dict-based reference (``_match_via_hash_index``)
finds, over every shape of key domain the probe codes differently.  Its
property test is also the deep run of CI's stress step: under ``-m stress``
with ``ARDA_STRESS`` set it runs derandomized, ``ARDA_STRESS / 100`` times
tier-1's example count.  Counting ``searchsorted`` calls pins which domains
take the direct-address and dense-key paths.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aggregate_reference import (
    CATEGORICAL_AGGS,
    NUMERIC_AGGS,
    column_bytes,
    reference_group_by_aggregate,
)
from repro.core.executor import ProcessJoinExecutor
from repro.relational import join as join_module
from repro.relational.aggregate import (
    _Groups,
    _group_rows,
    _segment_sums,
    group_by_aggregate,
    is_unique_on,
)
from repro.relational.column import Column
from repro.relational.join import (
    _SLOT_ALLOWANCE,
    _SLOTS_PER_VALUE,
    StreamingHashJoin,
    _match_via_hash_index,
)
from repro.relational.persist import open_chunks, write_table
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table
from stress import deep_settings

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]
# group sizes on both sides of the 8-lane unroll, the 128-element leaf and
# the first recursive halvings
BOUNDARY_SIZES = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 300]


@st.composite
def grouped_tables(draw, composite: bool = False):
    """A shuffled table of groups with boundary sizes and awkward values."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(
        st.lists(
            st.one_of(st.sampled_from(BOUNDARY_SIZES), st.integers(1, 600)),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(seed)
    keys = np.repeat(np.arange(len(sizes), dtype=np.float64), sizes)
    n = len(keys)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6, size=n)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = np.nan
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    all_missing = rng.random(len(sizes)) < 0.15
    values[all_missing[keys.astype(np.int64)]] = np.nan
    labels = np.array([f"c{i}" for i in rng.integers(0, 5, size=n)], dtype=object)
    labels[rng.random(n) < 0.25] = None
    perm = rng.permutation(n)
    data = {"k": keys[perm], "x": values[perm], "c": labels[perm]}
    if composite:
        # a second key splits each group by a categorical tag (some missing)
        tags = np.array([f"t{i}" for i in rng.integers(0, 2, size=n)], dtype=object)
        tags[rng.random(n) < 0.1] = None
        data["tag"] = tags
    return Table.from_dict(data, types={"c": CATEGORICAL, "tag": CATEGORICAL}, name="t")


def assert_same_bytes(got: Table, expected: Table) -> None:
    assert got.column_names == expected.column_names
    for name in expected.column_names:
        assert column_bytes(got.column(name)) == column_bytes(expected.column(name)), name


def check_all_aggregates(table: Table, keys: list[str]) -> None:
    for numeric_agg in NUMERIC_AGGS:
        for categorical_agg in CATEGORICAL_AGGS:
            kwargs = {"numeric_agg": numeric_agg, "categorical_agg": categorical_agg}
            assert_same_bytes(
                group_by_aggregate(table, keys, **kwargs),
                reference_group_by_aggregate(table, keys, **kwargs),
            )


class TestSegmentKernels:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(grouped_tables())
    def test_every_aggregate_matches_the_per_group_loop(self, table):
        check_all_aggregates(table, ["k"])

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(grouped_tables(composite=True))
    def test_composite_keys_match_the_per_group_loop(self, table):
        check_all_aggregates(table, ["k", "tag"])

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(grouped_tables(), st.sampled_from([64, 300]))
    def test_chunked_input_matches_in_memory(self, tmp_path_factory, table, chunk_rows):
        path = tmp_path_factory.mktemp("agg") / "t.tbl"
        write_table(table, path, chunk_rows=chunk_rows)
        chunked = open_chunks(path).table()
        for numeric_agg in ("mean", "std", "median"):
            kwargs = {"numeric_agg": numeric_agg, "categorical_agg": "nunique"}
            got = group_by_aggregate(chunked, ["k"], **kwargs)
            assert_same_bytes(got, reference_group_by_aggregate(table, ["k"], **kwargs))
            assert_same_bytes(got, group_by_aggregate(table, ["k"], **kwargs))

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 128, 129, 200, 1000, 5000, 20000])
    def test_segment_sums_follow_numpy_summation_order(self, size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=3 * size) * 10.0 ** rng.uniform(-3, 6, size=3 * size)
        values[rng.random(3 * size) < 0.05] = -0.0
        starts = np.array([0, size, 2 * size])
        sizes = np.full(3, size)
        sums = _segment_sums(values, _Groups(starts, sizes, np.repeat(np.arange(3), size)))
        expected = [np.sum(values[start:start + size]) for start in starts]
        assert sums.tobytes() == np.array(expected).tobytes()

    def test_all_missing_and_negative_zero_groups(self):
        # numpy adds a reduction onto the identity 0.0, so even a long slice
        # of -0.0 sums to 0.0; a group with no value gives NaN and counts 0
        keys = [1.0, 1.0, 2.0] + [3.0] * 8 + [4.0] * 9
        values = [np.nan, np.nan, -0.0] + [-0.0] * 17
        table = Table.from_dict({"k": keys, "x": values}, name="t")
        for agg in NUMERIC_AGGS:
            assert_same_bytes(
                group_by_aggregate(table, ["k"], numeric_agg=agg),
                reference_group_by_aggregate(table, ["k"], numeric_agg=agg),
            )
        counts = group_by_aggregate(table, ["k"], numeric_agg="count")["x"].values
        assert counts.tolist() == [0.0, 1.0, 8.0, 9.0]

    def test_empty_table_aggregates_to_empty_columns(self):
        table = Table.from_dict(
            {"k": np.empty(0), "x": np.empty(0), "c": np.empty(0, dtype=object)},
            types={"c": CATEGORICAL},
            name="t",
        )
        for agg in NUMERIC_AGGS:
            out = group_by_aggregate(table, ["k"], numeric_agg=agg, categorical_agg="nunique")
            assert out.num_rows == 0 and out.column_names == ["k", "x", "c"]


key_values = st.sampled_from([0.0, -0.0, 1.0, 2.5, np.nan, np.inf])
key_labels = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))


class TestUniqueness:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(key_values, key_labels, key_values), max_size=20))
    def test_matches_group_identification(self, rows):
        table = Table.from_dict(
            {
                "a": [row[0] for row in rows],
                "b": [row[1] for row in rows],
                "c": [row[2] for row in rows],
            },
            types={"b": CATEGORICAL},
            name="t",
        )
        for keys in (["a"], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]):
            expected = len(_group_rows(table, keys)[1]) == table.num_rows
            assert is_unique_on(table, keys) == expected, keys

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(257, 900), st.integers(0, 2**32 - 1), st.sampled_from(["none", "tail", "nan"])
    )
    def test_tables_past_the_sorted_prefix(self, n, seed, duplicate):
        rng = np.random.default_rng(seed)
        a = rng.permutation(n).astype(np.float64)
        if duplicate == "tail":
            a[-1] = -0.0 if a[-2] == 0.0 else a[-2]
        elif duplicate == "nan":
            a[[3, -1]] = np.nan
        table = Table.from_dict({"a": a, "b": rng.permutation(n).astype(np.float64)}, name="t")
        for keys in (["a"], ["a", "b"]):
            expected = len(_group_rows(table, keys)[1]) == n
            assert is_unique_on(table, keys) == expected

    def test_missing_keys_repeat_and_signed_zeros_are_equal(self):
        assert not is_unique_on(Table.from_dict({"k": [np.nan, 1.0, np.nan]}), ["k"])
        assert not is_unique_on(Table.from_dict({"k": [0.0, -0.0]}), ["k"])
        assert not is_unique_on(
            Table.from_dict({"k": [None, "x", None]}, types={"k": CATEGORICAL}), ["k"]
        )
        assert is_unique_on(Table.from_dict({"k": [np.nan, 1.0, 2.0]}), ["k"])


# -- the prepared probe -----------------------------------------------------------


def probe_pair(left: Table, right: Table, on) -> tuple[np.ndarray, np.ndarray]:
    joiner = StreamingHashJoin(right, on, left.schema(), aggregate_duplicates=False)
    reference = _match_via_hash_index(
        [left.column(a) for a, _ in on], [right.column(b) for _, b in on]
    )
    return joiner.probe_chunk(left), reference


# numeric build-key domains the probe codes differently: by direct address
# (contiguous, holes within the slot bound, integers just below 2**53) or
# with searchsorted (holes just past that bound, a non-integral value beside
# integral ones, integers reaching 2**53, infinities)
DOMAIN_SHAPES = ["contiguous", "holes", "past-bound", "fractional", "near-2**53", "infinite"]
SPECIAL_KEYS = np.array([0.0, -0.0, 1.0, 2.0, -np.inf, np.inf])


def key_domain(rng, shape: str) -> np.ndarray:
    """Distinct numeric key values of one domain shape, sorted."""
    size = int(rng.integers(2, 10))
    start = float(rng.integers(-20, 20))
    if shape == "contiguous":
        return start + np.arange(size)
    if shape in ("holes", "past-bound"):
        slots = _SLOTS_PER_VALUE * size + _SLOT_ALLOWANCE + (shape == "past-bound")
        inner = rng.choice(np.arange(1, slots - 1), size=size - 2, replace=False)
        return start + np.sort(np.concatenate([[0, slots - 1], inner]))
    if shape == "fractional":
        values = start + np.arange(size)
        values[rng.integers(size)] += 0.5
        return values
    if shape == "near-2**53":
        top = 2.0**53 - rng.integers(0, 2)
        return np.sort(rng.choice([-1.0, 1.0]) * (top - np.arange(size)))
    return SPECIAL_KEYS


def probe_values(domain: np.ndarray) -> np.ndarray:
    """What a probe may hold against ``domain``: its values, near misses,
    values out of its range, and NaN, ±inf and ±0."""
    finite = domain[np.isfinite(domain)]
    near = [finite - 0.5, finite + 0.5, finite * (1 + 1e-12), finite * (1 - 1e-12)]
    outside = [finite.min() - 1, finite.max() + 1, finite.min() - 1e6, finite.max() + 1e6]
    return np.concatenate([domain, *near, outside, [np.nan, np.inf, -np.inf, 0.0, -0.0]])


def random_side(
    rng, n: int, name: str, values: np.ndarray = SPECIAL_KEYS, covering: bool = False
) -> Table:
    """``n`` rows: a numeric key ``k`` drawn from ``values`` (about a fifth
    missing), a second numeric key ``g``, a categorical label ``c`` and the
    key's text ``s``.  A covering side first holds every ``(value, g)`` pair
    for ``g`` in {0, 1} and draws ``g`` from them, so its ``k`` domain is
    exactly ``values`` and ``(k, g)`` is a dense composite key; any other
    side draws ``g`` from {0, 1, 2}."""
    numeric = rng.choice(values, size=n)
    numeric[rng.random(n) < 0.2] = np.nan
    second = rng.integers(0, 2 if covering else 3, size=n).astype(np.float64)
    if covering:
        numeric = np.concatenate([np.repeat(values, 2), numeric])
        second = np.concatenate([np.tile([0.0, 1.0], len(values)), second])
    n = len(numeric)
    labels = np.array([f"g{i}" for i in rng.integers(0, 4, size=n)], dtype=object)
    labels[rng.random(n) < 0.2] = None
    return Table.from_dict(
        {"k": numeric, "g": second, "c": labels, "s": [f"{v}" for v in numeric]},
        types={"c": CATEGORICAL, "s": CATEGORICAL},
        name=name,
    )


def _probe_in_worker(joiner: StreamingHashJoin, left: Table) -> np.ndarray:
    return joiner.probe_chunk(left)


class SearchsortedCounter:
    """numpy as :mod:`repro.relational.join` sees it, counting ``searchsorted``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, *args, **kwargs):
        self.calls += 1
        return np.searchsorted(*args, **kwargs)


class TestPreparedProbe:
    @pytest.mark.stress
    @deep_settings(40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(0, 40),
        st.sampled_from(DOMAIN_SHAPES),
    )
    def test_matches_hash_index_reference(self, seed, n_left, n_right, shape):
        rng = np.random.default_rng(seed)
        domain = key_domain(rng, shape)
        left = random_side(rng, n_left, "l", probe_values(domain))
        # an infinite-shape build side is drawn at random, empty ones included
        right = random_side(rng, n_right, "r", domain, covering=shape != "infinite")
        for on in (
            [("k", "k")],
            [("c", "c")],
            [("k", "k"), ("g", "g")],  # dense when the build side covers its domain
            [("k", "k"), ("c", "c")],
            [("c", "c"), ("k", "k"), ("s", "s")],
            [("k", "s")],  # numeric against categorical: never matches
            [("k", "k"), ("c", "s")],
        ):
            fast, reference = probe_pair(left, right, on)
            assert np.array_equal(fast, reference), on

    @pytest.mark.parametrize(
        "keys, on, searches",
        [
            # one key column: its packed key is its position, and a
            # contiguous integer domain is addressed directly
            pytest.param({"k": np.arange(100.0)}, [("k", "k")], 0, id="contiguous"),
            pytest.param({"k": np.arange(100.0) * 10_000}, [("k", "k")], 1, id="sparse"),
            pytest.param({"k": np.arange(100.0) + 0.5}, [("k", "k")], 1, id="non-integral"),
            pytest.param({"c": [f"v{i}" for i in range(100)]}, [("c", "c")], 0, id="categorical"),
            # every (k, g) pair occurs: the packed keys are dense too
            pytest.param(
                {"k": np.repeat(np.arange(50.0), 2), "g": np.tile([0.0, 1.0], 50)},
                [("k", "k"), ("g", "g")],
                0,
                id="dense-pair",
            ),
            pytest.param(
                {"k": np.repeat(np.arange(50.0) * 1e6, 2), "g": np.tile([0.0, 1.0], 50)},
                [("k", "k"), ("g", "g")],
                1,
                id="dense-pair-one-sparse",
            ),
            pytest.param(
                {"k": np.repeat(np.arange(50.0) + 0.5, 2), "g": np.tile([0.5, 1.5], 50)},
                [("k", "k"), ("g", "g")],
                2,
                id="dense-pair-non-integral",
            ),
            # half the pairs are absent: one search of the packed keys
            pytest.param(
                {"k": np.arange(100.0), "g": np.arange(100.0) % 2},
                [("k", "k"), ("g", "g")],
                1,
                id="sparse-pairs",
            ),
            pytest.param(
                {"k": np.arange(100.0) * 1e6, "g": np.arange(100.0) % 2},
                [("k", "k"), ("g", "g")],
                2,
                id="sparse-pairs-one-sparse",
            ),
        ],
    )
    def test_searches_only_domains_without_a_direct_address(
        self, monkeypatch, keys, on, searches
    ):
        rng = np.random.default_rng(3)
        right = Table.from_dict(
            {**keys, "v": rng.normal(size=100)}, types={"c": CATEGORICAL}, name="r"
        )
        left = right.take(rng.integers(0, 100, size=300))
        joiner = StreamingHashJoin(right, on, left.schema(), aggregate_duplicates=False)
        joiner.build_keys  # prepared outside the count
        counter = SearchsortedCounter()
        monkeypatch.setattr(join_module, "np", counter)
        fast = joiner.probe_chunk(left)
        monkeypatch.undo()
        assert counter.calls == searches
        reference = _match_via_hash_index(
            [left.column(a) for a, _ in on], [right.column(b) for _, b in on]
        )
        assert np.array_equal(fast, reference)

    def test_signed_zero_and_missing_keys(self):
        left = Table.from_dict({"k": [-0.0, 0.0, np.nan, 1.0]}, name="l")
        right = Table.from_dict({"k": [np.nan, 0.0, -0.0, 1.0], "v": [1.0, 2.0, 3.0, 4.0]})
        fast, reference = probe_pair(left, right, [("k", "k")])
        assert fast.tolist() == reference.tolist() == [1, 1, -1, 3]

    def test_chunk_dictionary_differs_from_build_dictionary(self):
        right = Table.from_dict(
            {"c": ["b", "a", "b", None, "d"], "v": [1.0, 2.0, 3.0, 4.0, 5.0]},
            types={"c": CATEGORICAL},
            name="r",
        )
        # the chunk's dictionary orders its entries differently, holds
        # entries the build side lacks, and an unused duplicate-free tail
        codes = np.array([0, 1, 2, -1, 3, 0], dtype=np.int32)
        dictionary = np.array(["d", "zz", "a", "b", "unused"], dtype=object)
        left = Table([Column.from_codes("c", codes, dictionary)], name="l")
        fast, reference = probe_pair(left, right, [("c", "c")])
        assert np.array_equal(fast, reference)
        assert fast.tolist() == [4, -1, 1, -1, 0, 4]

    def test_prepared_keys_survive_pickling_to_a_process_executor(self):
        rng = np.random.default_rng(7)
        right = random_side(rng, 200, "r")
        chunks = [random_side(rng, 50, "l") for _ in range(4)]
        on = [("k", "k"), ("c", "c")]
        joiner = StreamingHashJoin(right, on, chunks[0].schema(), aggregate_duplicates=False)
        expected = [probe_pair(chunk, right, on)[1] for chunk in chunks]
        executor = ProcessJoinExecutor(2)
        try:
            # shipped unprepared (workers prepare their own copy), then prepared
            cold = executor.map_with_shared(_probe_in_worker, joiner, chunks)
            joiner.probe_chunk(chunks[0])
            warm = executor.map_with_shared(_probe_in_worker, joiner, chunks)
        finally:
            executor.shutdown()
        for got_cold, got_warm, want in zip(cold, warm, expected):
            assert np.array_equal(got_cold, want) and np.array_equal(got_warm, want)
        clone = pickle.loads(pickle.dumps(joiner))
        assert all(np.array_equal(clone.probe_chunk(c), w) for c, w in zip(chunks, expected))

    def test_threads_racing_the_first_probe_agree(self):
        rng = np.random.default_rng(11)
        right = random_side(rng, 500, "r")
        left = random_side(rng, 300, "l")
        on = [("k", "k"), ("s", "s")]
        expected = probe_pair(left, right, on)[1]
        for _ in range(5):
            joiner = StreamingHashJoin(right, on, left.schema(), aggregate_duplicates=False)
            barrier = threading.Barrier(2)
            results: list[np.ndarray] = []

            def probe():
                barrier.wait()
                results.append(joiner.probe_chunk(left))

            threads = [threading.Thread(target=probe) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 2
            assert all(np.array_equal(result, expected) for result in results)
