"""Property tests for the dictionary-encoded columnar storage layer.

Every test pits a code-path that operates on dictionary codes against a
reference implementation operating on decoded object arrays (the storage
format this layer replaced) and asserts byte-identical results: join probes,
group-by aggregation, one-hot/frequency encoding, MinHash profiling and
categorical imputation.  A second group pins the view semantics: ``take`` /
``filter`` / ``sort_by`` defer all copying and materialise to exactly what the
eager representation produced.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.profiles import profile_column
from repro.discovery.repository import ProfileCache
from repro.relational.aggregate import _group_rows, _group_rows_fallback, group_by_aggregate
from repro.relational.column import Column
from repro.relational.encoding import encode_features, encode_target
from repro.relational.imputation import impute_table
from repro.relational.join import _BuildKeys, _match_via_hash_index
from repro.relational.persist import table_fingerprint
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table

# -- strategies -------------------------------------------------------------

categories = st.sampled_from(["a", "b", "c", "dd", "e-e", ""])
cat_values = st.lists(st.one_of(categories, st.none()), min_size=0, max_size=40)
num_values = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.5, -3.0]), st.none()), min_size=0, max_size=40
)


def make_table(cat_a, num_b, name="t"):
    n = min(len(cat_a), len(num_b))
    return Table.from_dict(
        {"k": cat_a[:n], "x": num_b[:n]}, types={"k": CATEGORICAL}, name=name
    )


# -- dictionary encoding invariants ----------------------------------------


class TestDictionaryEncoding:
    @given(cat_values)
    def test_roundtrip_preserves_values(self, values):
        col = Column.categorical("c", values)
        assert col.to_list() == [None if v is None else str(v) for v in values]

    @given(cat_values)
    def test_codes_and_dictionary_are_consistent(self, values):
        col = Column.categorical("c", values)
        codes, dictionary = col.codes, col.dictionary
        assert codes.dtype == np.int32
        assert len(set(dictionary)) == len(dictionary)  # no duplicate entries
        assert codes.max(initial=-1) < len(dictionary)
        # decoding through the dictionary reproduces values
        decoded = [None if c < 0 else dictionary[c] for c in codes]
        assert decoded == col.to_list()

    @given(cat_values)
    def test_unique_matches_first_seen_order(self, values):
        col = Column.categorical("c", values)
        seen = {}
        for v in values:
            if v is not None and str(v) not in seen:
                seen[str(v)] = True
        assert col.unique() == list(seen)
        # the same holds on a view, where the dictionary fast path is invalid
        idx = np.arange(len(col))[::-1]
        view = col.take(idx)
        seen_rev = {}
        for v in reversed([None if v is None else str(v) for v in values]):
            if v is not None and v not in seen_rev:
                seen_rev[v] = True
        assert view.unique() == list(seen_rev)

    def test_pickle_ships_codes_not_strings(self):
        col = Column.categorical("c", ["x", "y", "x", None] * 100)
        state = col.__getstate__()
        assert state[3].dtype == np.int32 and len(state[4]) == 2
        assert state[2] is None  # no decoded object array in the payload
        restored = pickle.loads(pickle.dumps(col))
        assert restored == col

    def test_pickled_view_ships_only_selected_rows(self):
        col = Column.categorical("c", [f"v{i}" for i in range(1000)])
        view = col.take(np.array([3, 5]))
        state = view.__getstate__()
        assert len(state[3]) == 2
        # the high-cardinality dictionary is compacted to the referenced entries
        assert len(state[4]) == 2
        assert pickle.loads(pickle.dumps(view)).to_list() == ["v3", "v5"]


# -- zero-copy view semantics ----------------------------------------------


class TestViews:
    def test_take_filter_select_head_are_lazy(self):
        table = Table.from_dict(
            {"k": ["a", "b", "a", None], "x": [1.0, 2.0, 3.0, 4.0]}, name="t"
        )
        taken = table.take(np.array([2, 0]))
        assert all(col.is_view for col in taken.columns())
        filtered = table.filter(np.array([True, False, True, True]))
        assert all(col.is_view for col in filtered.columns())
        assert all(col.is_view for col in table.head(2).columns())
        # reading materialises and matches eager semantics
        assert taken["k"].to_list() == ["a", "a"]
        assert filtered["x"].to_list() == [1.0, 3.0, 4.0]

    def test_views_compose_without_touching_data(self):
        table = Table.from_dict({"x": list(range(100))}, name="t")
        chained = table.take(np.arange(50)).filter(np.arange(50) % 2 == 0).head(5)
        col = chained.column("x")
        assert col.is_view
        assert col.to_list() == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_concurrent_view_resolution_is_safe(self):
        # thread-pool join workers share the base view's columns; racing
        # reads of an unresolved view must never observe half-resolved state
        rng = np.random.default_rng(0)
        table = Table.from_dict(
            {
                "k": [f"id{i % 1000}" for i in range(200_000)],
                "x": rng.normal(size=200_000),
            },
            name="t",
        )
        for _ in range(5):
            view = table.take(np.arange(0, 200_000, 2))
            results = [None] * 4
            errors = []

            def read(slot, col=view):
                try:
                    results[slot] = (col["k"].codes.sum(), col["x"].values.sum())
                except Exception as exc:  # pragma: no cover - only on regression
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len({r for r in results}) == 1

    def test_materialised_view_is_an_independent_copy(self):
        table = Table.from_dict({"x": [1.0, 2.0, 3.0]}, name="t")
        view = table.take(np.array([0, 1]))
        view["x"].values[0] = 99.0
        assert table["x"].values[0] == 1.0

    @given(cat_values, st.randoms(use_true_random=False))
    def test_view_take_equals_eager_take(self, values, rnd):
        col = Column.categorical("c", values)
        if not len(col):
            return
        idx = np.array([rnd.randrange(len(col)) for _ in range(7)])
        eager = [col.to_list()[i] for i in idx]
        assert col.take(idx).to_list() == eager

    def test_sort_by_categorical_matches_object_sort(self):
        values = ["b", None, "a", "￿", "a", None, "c"]
        table = Table.from_dict({"k": values}, types={"k": CATEGORICAL}, name="t")
        keys = np.array([v if v is not None else "￿" for v in values], dtype=object)
        expected = [values[i] for i in np.argsort(keys, kind="stable")]
        assert table.sort_by("k")["k"].to_list() == expected


# -- code paths vs object-array reference paths ----------------------------


class TestReferenceEquivalence:
    @settings(max_examples=60)
    @given(cat_values, num_values, cat_values, num_values)
    def test_join_probe_matches_hash_index_reference(self, lk, lx, rk, rx):
        left = make_table(lk, lx, "l")
        right = make_table(rk, rx, "r")
        if left.num_rows == 0 or right.num_rows == 0:
            return
        cols_l = [left.column("k"), left.column("x")]
        cols_r = [right.column("k"), right.column("x")]
        assert np.array_equal(
            _BuildKeys(cols_r).probe(cols_l), _match_via_hash_index(cols_l, cols_r)
        )

    @settings(max_examples=60)
    @given(cat_values, num_values)
    def test_group_rows_matches_object_tuple_reference(self, ks, xs):
        table = make_table(ks, xs)
        if table.num_rows == 0:
            return
        ids, firsts = _group_rows(table, ["k", "x"])
        ref_ids, ref_firsts = _group_rows_fallback(table, ["k", "x"])
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(firsts, ref_firsts)

    @settings(max_examples=40)
    @given(cat_values, num_values)
    def test_group_by_aggregate_matches_reference(self, ks, xs):
        table = make_table(ks, xs)
        if table.num_rows == 0:
            return
        result = group_by_aggregate(table, ["k"], numeric_agg="mean", categorical_agg="mode")
        expected = _reference_group_by_mean_mode(table, "k", "x")
        assert result["k"].to_list() == expected["k"]
        got = result["x"].to_list()
        for a, b in zip(got, expected["x"]):
            assert (np.isnan(a) and np.isnan(b)) or a == pytest.approx(b)

    @settings(max_examples=60)
    @given(cat_values)
    def test_one_hot_and_frequency_match_reference(self, values):
        col = Column.categorical("c", values)
        if not len(col):
            return
        table = Table([col], name="t")
        for max_categories in (20, 2):
            encoded = encode_features(table, max_categories=max_categories)
            ref_block, ref_names = _reference_encode_categorical(col.values, "c", max_categories)
            assert encoded.feature_names == ref_names
            assert np.array_equal(encoded.matrix, ref_block)

    @given(cat_values)
    def test_encode_target_matches_reference(self, values):
        col = Column.categorical("c", values)
        categories = sorted({v for v in col.values if v is not None})
        index = {cat: i for i, cat in enumerate(categories)}
        expected = np.array([index.get(v, -1) for v in col.values], dtype=np.float64)
        assert np.array_equal(encode_target(col), expected)

    @settings(max_examples=40)
    @given(cat_values, st.integers(min_value=0, max_value=2**31 - 1))
    def test_minhash_signature_matches_object_reference(self, values, num_rows_seed):
        col = Column.categorical("c", values)
        profile = profile_column("t", col)
        # reference: profile the decoded values through a fresh object column
        reference = profile_column("t", Column.categorical("c", col.values))
        assert np.array_equal(profile.minhash.signature, reference.minhash.signature)
        assert profile.num_distinct == reference.num_distinct
        assert profile.null_fraction == reference.null_fraction

    @given(cat_values, st.integers(min_value=0, max_value=1000))
    def test_imputation_matches_object_reference(self, values, seed):
        col = Column.categorical("c", values)
        imputed = impute_table(Table([col], name="t"), seed=seed).column("c")
        expected = _reference_impute(col.values, np.random.default_rng(seed))
        assert imputed.to_list() == expected


def _reference_group_by_mean_mode(table, key, num):
    """Old object-array group-by: tuples dict + per-slice aggregation."""
    groups: dict = {}
    order: list = []
    for k, x in zip(table[key].values, table[num].values):
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(x)
    out_x = []
    for k in order:
        values = np.array(groups[k], dtype=np.float64)
        out_x.append(float(np.nanmean(values)) if np.any(~np.isnan(values)) else float("nan"))
    return {key: order, num: out_x}


def _reference_encode_categorical(values, name, max_categories):
    """Old object-array one-hot / frequency encoder."""
    n = len(values)
    seen: dict = {}
    for v in values:
        if v is not None and v not in seen:
            seen[v] = True
    categories = list(seen)
    if 0 < len(categories) <= max_categories:
        block = np.zeros((n, len(categories)), dtype=np.float64)
        index = {cat: j for j, cat in enumerate(categories)}
        for i, value in enumerate(values):
            j = index.get(value)
            if j is not None:
                block[i, j] = 1.0
        return block, [f"{name}={cat}" for cat in categories]
    counts: dict = {}
    for value in values:
        if value is not None:
            counts[value] = counts.get(value, 0) + 1
    block = np.zeros((n, 1), dtype=np.float64)
    for i, value in enumerate(values):
        block[i, 0] = counts.get(value, 0) / max(n, 1)
    return block, [f"{name}__freq"]


def _reference_impute(values, rng):
    """Old object-array categorical imputation."""
    mask = np.array([v is None for v in values], dtype=bool)
    if not mask.any():
        return list(values)
    observed = [v for v in values if v is not None]
    out = list(values)
    if observed:
        picks = rng.integers(0, len(observed), size=int(mask.sum()))
        fills = iter([observed[p] for p in picks])
        for i, missing in enumerate(mask):
            if missing:
                out[i] = next(fills)
    else:
        out = ["__missing__"] * len(values)
    return out


# -- profile cache thread safety -------------------------------------------


class TestProfileCacheThreadSafety:
    def test_concurrent_counters_do_not_lose_increments(self):
        cache = ProfileCache()
        tables = [
            Table.from_dict({"k": [f"v{i}", f"w{i}"]}, name=f"t{i}") for i in range(8)
        ]
        fingerprints = [table_fingerprint(table) for table in tables]
        n_threads, rounds = 8, 50

        def worker():
            for _ in range(rounds):
                for table, fingerprint in zip(tables, fingerprints):
                    cache.lookup(
                        table.name,
                        fingerprint,
                        lambda table=table, fingerprint=fingerprint: (fingerprint, table),
                        num_hashes=8,
                    )

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        total = n_threads * rounds * len(tables)
        assert stats["hits"] + stats["misses"] == total
        # every lookup after the first per table must be a hit
        assert stats["misses"] <= len(tables) * n_threads  # racing first rounds only
        assert stats["entries"] == len(tables)

    def test_cache_survives_pickling_without_lock(self):
        cache = ProfileCache()
        table = Table.from_dict({"k": ["a"]}, name="t")
        fingerprint = table_fingerprint(table)
        cache.lookup("t", fingerprint, lambda: (fingerprint, table))
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.stats()["entries"] == 1
        restored.invalidate()  # lock was recreated and works
