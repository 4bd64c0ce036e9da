"""Tests for hard joins, soft joins, aggregation, resampling, imputation and encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import (
    Table,
    group_by_aggregate,
    impute_table,
    left_join,
    nearest_join,
    resample_to_granularity,
    two_way_nearest_join,
)
from repro.relational.aggregate import is_unique_on
from repro.relational.encoding import encode_features, encode_target, to_design_matrix
from repro.relational.imputation import missing_fraction
from repro.relational.join import StreamingHashJoin
from repro.relational.resample import align_time_granularity, infer_granularity
from repro.relational.schema import DATETIME


class TestLeftJoin:
    def test_preserves_all_base_rows(self, base_table, foreign_table):
        joined = left_join(base_table, foreign_table, on=[("entity_id", "entity_id")])
        assert joined.num_rows == base_table.num_rows

    def test_unmatched_rows_get_nulls(self, base_table, foreign_table):
        joined = left_join(base_table, foreign_table, on=[("entity_id", "entity_id")])
        assert np.isnan(joined["value"].values[5])
        assert joined["label"].values[5] is None

    def test_one_to_many_is_preaggregated(self, base_table, foreign_table):
        joined = left_join(base_table, foreign_table, on=[("entity_id", "entity_id")])
        # entity 1 matches two foreign rows with values 200 and 300 -> mean 250
        assert joined["value"].values[1] == pytest.approx(250.0)

    def test_first_match_mode(self, base_table, foreign_table):
        joined = left_join(
            base_table, foreign_table, on=[("entity_id", "entity_id")],
            aggregate_duplicates=False,
        )
        assert joined["value"].values[1] == pytest.approx(200.0)

    def test_right_key_column_not_duplicated(self, base_table, foreign_table):
        joined = left_join(base_table, foreign_table, on=[("entity_id", "entity_id")])
        assert joined.column_names.count("entity_id") == 1

    def test_name_clash_gets_suffix(self, base_table):
        other = Table.from_dict(
            {"eid": [0.0, 1.0], "feature_a": [7.0, 8.0]}, name="other"
        )
        joined = left_join(base_table, other, on=[("entity_id", "eid")])
        assert "feature_a_r" in joined

    def test_composite_key_join(self):
        left = Table.from_dict({"a": [1.0, 1.0, 2.0], "b": ["x", "y", "x"], "t": [0.0, 0.0, 0.0]})
        right = Table.from_dict({"a": [1.0, 2.0], "b": ["y", "x"], "v": [5.0, 6.0]})
        joined = left_join(left, right, on=[("a", "a"), ("b", "b")])
        assert np.isnan(joined["v"].values[0])
        assert joined["v"].values[1] == 5.0
        assert joined["v"].values[2] == 6.0

    def test_missing_key_does_not_match(self):
        left = Table.from_dict({"k": [1.0, None]})
        right = Table.from_dict({"k": [1.0, None], "v": [10.0, 20.0]})
        joined = left_join(left, right, on=[("k", "k")])
        assert joined["v"].values[0] == 10.0
        assert np.isnan(joined["v"].values[1])

    def test_requires_key_pairs(self, base_table, foreign_table):
        with pytest.raises(ValueError):
            left_join(base_table, foreign_table, on=[])

    def test_match_fraction(self, base_table, foreign_table):
        joiner = StreamingHashJoin(
            foreign_table, [("entity_id", "entity_id")], base_table.schema()
        )
        fraction = np.mean(joiner.probe_chunk(base_table) >= 0)
        assert fraction == pytest.approx(3 / 6)


class TestVectorisedProbe:
    """The vectorised join probe must agree with the dict-based reference."""

    @staticmethod
    def _both(left, right, on):
        from repro.relational.join import _match_first_occurrence, _match_via_hash_index

        left_cols = [left.column(a) for a, _ in on]
        right_cols = [right.column(b) for _, b in on]
        return (
            _match_first_occurrence(left_cols, right_cols),
            _match_via_hash_index(left_cols, right_cols),
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_random_keys(self, seed):
        rng = np.random.default_rng(seed)
        n_left, n_right = rng.integers(1, 40, size=2)
        def numeric(n):
            vals = rng.integers(0, 8, size=n).astype(np.float64)
            vals[rng.random(n) < 0.2] = np.nan
            return vals
        def categorical(n):
            return [
                None if rng.random() < 0.2 else f"g{rng.integers(0, 5)}" for _ in range(n)
            ]
        left = Table.from_dict({"k": numeric(n_left), "c": categorical(n_left)}, name="l")
        right = Table.from_dict({"k": numeric(n_right), "c": categorical(n_right)}, name="r")
        for on in ([("k", "k")], [("c", "c")], [("k", "k"), ("c", "c")]):
            fast, reference = self._both(left, right, on)
            assert np.array_equal(fast, reference)

    def test_cross_type_key_pair_never_matches(self):
        left = Table.from_dict({"k": [1.0, 2.0]}, name="l")
        right = Table.from_dict({"k": ["1.0", "2.0"], "v": [1.0, 2.0]}, name="r")
        fast, reference = self._both(left, right, [("k", "k")])
        assert np.array_equal(fast, reference)
        assert (fast == -1).all()

    def test_duplicate_right_keys_first_occurrence_wins(self):
        left = Table.from_dict({"k": [7.0]}, name="l")
        right = Table.from_dict({"k": [5.0, 7.0, 7.0], "v": [0.0, 1.0, 2.0]}, name="r")
        fast, reference = self._both(left, right, [("k", "k")])
        assert np.array_equal(fast, reference)
        assert fast[0] == 1

    def test_empty_right_table(self):
        left = Table.from_dict({"k": [1.0, 2.0]}, name="l")
        right = Table.from_dict(
            {"k": np.array([], dtype=np.float64), "v": np.array([], dtype=np.float64)},
            name="r",
        )
        fast, reference = self._both(left, right, [("k", "k")])
        assert np.array_equal(fast, reference)
        assert (fast == -1).all()


class TestAggregation:
    def test_group_by_mean_and_mode(self):
        table = Table.from_dict(
            {"k": [1.0, 1.0, 2.0], "v": [1.0, 3.0, 10.0], "c": ["a", "a", "b"]}
        )
        grouped = group_by_aggregate(table, ["k"])
        assert grouped.num_rows == 2
        row = {grouped["k"].values[i]: grouped["v"].values[i] for i in range(2)}
        assert row[1.0] == pytest.approx(2.0)
        assert grouped["c"].values[list(grouped["k"].values).index(1.0)] == "a"

    def test_agg_overrides(self):
        table = Table.from_dict({"k": [1.0, 1.0], "v": [1.0, 3.0]})
        grouped = group_by_aggregate(table, ["k"], agg_overrides={"v": "max"})
        assert grouped["v"].values[0] == 3.0

    def test_count_and_nunique(self):
        table = Table.from_dict({"k": [1.0, 1.0], "v": [1.0, None], "c": ["a", "b"]})
        grouped = group_by_aggregate(
            table, ["k"], agg_overrides={"v": "count", "c": "nunique"}
        )
        assert grouped["v"].values[0] == 1.0
        assert grouped["c"].values[0] == 2.0

    def test_unknown_aggregate_raises(self):
        table = Table.from_dict({"k": [1.0], "v": [1.0]})
        with pytest.raises(ValueError):
            group_by_aggregate(table, ["k"], numeric_agg="bogus")

    def test_is_unique_on(self, foreign_table):
        assert not is_unique_on(foreign_table, ["entity_id"])
        assert is_unique_on(foreign_table, ["entity_id", "value"])


class TestSoftJoins:
    def test_nearest_join_picks_closest(self):
        base = Table.from_dict({"t": [0.0, 10.0]})
        right = Table.from_dict({"t": [1.0, 8.0], "v": [100.0, 200.0]})
        joined = nearest_join(base, right, "t", "t")
        assert list(joined["v"].values) == [100.0, 200.0]

    def test_nearest_join_tolerance(self):
        base = Table.from_dict({"t": [0.0, 50.0]})
        right = Table.from_dict({"t": [1.0], "v": [100.0]})
        joined = nearest_join(base, right, "t", "t", tolerance=5.0)
        assert joined["v"].values[0] == 100.0
        assert np.isnan(joined["v"].values[1])

    def test_two_way_join_interpolates_linearly(self):
        base = Table.from_dict({"t": [5.0]})
        right = Table.from_dict({"t": [0.0, 10.0], "v": [0.0, 100.0]})
        joined = two_way_nearest_join(base, right, "t", "t")
        assert joined["v"].values[0] == pytest.approx(50.0)

    def test_two_way_join_outside_range_clamps(self):
        base = Table.from_dict({"t": [-5.0, 20.0]})
        right = Table.from_dict({"t": [0.0, 10.0], "v": [0.0, 100.0]})
        joined = two_way_nearest_join(base, right, "t", "t")
        assert joined["v"].values[0] == pytest.approx(0.0)
        assert joined["v"].values[1] == pytest.approx(100.0)

    def test_soft_join_requires_numeric_key(self, base_table):
        right = Table.from_dict({"t": [1.0], "v": [1.0]})
        with pytest.raises(ValueError):
            nearest_join(base_table, right, "category", "t")

    def test_soft_join_preserves_base_rows(self, rng):
        base = Table.from_dict({"t": rng.uniform(0, 100, size=50)})
        right = Table.from_dict({"t": rng.uniform(0, 100, size=20), "v": rng.normal(size=20)})
        for joiner in (nearest_join, two_way_nearest_join):
            assert joiner(base, right, "t", "t").num_rows == 50


class TestResampling:
    def test_infer_granularity(self):
        assert infer_granularity(np.array([0.0, 86400.0, 172800.0])) == 86400.0
        assert infer_granularity(np.array([0.0, 3600.0])) == 3600.0

    def test_resample_aggregates_within_bucket(self):
        table = Table.from_dict(
            {"t": [0.0, 3600.0, 86400.0], "v": [1.0, 3.0, 10.0]},
            types={"t": DATETIME},
        )
        resampled = resample_to_granularity(table, "t", "day")
        assert resampled.num_rows == 2
        values = dict(zip(resampled["t"].values, resampled["v"].values))
        assert values[0.0] == pytest.approx(2.0)
        assert values[86400.0] == pytest.approx(10.0)

    def test_align_time_granularity_only_resamples_finer(self):
        base = Table.from_dict({"t": [0.0, 86400.0]}, types={"t": DATETIME})
        fine = Table.from_dict(
            {"t": [0.0, 3600.0, 7200.0], "v": [1.0, 2.0, 3.0]}, types={"t": DATETIME}
        )
        coarse = Table.from_dict({"t": [0.0, 86400.0], "v": [5.0, 6.0]}, types={"t": DATETIME})
        assert align_time_granularity(base, fine, "t", "t").num_rows == 1
        assert align_time_granularity(base, coarse, "t", "t") is coarse

    def test_bad_granularity_name(self):
        table = Table.from_dict({"t": [0.0]})
        with pytest.raises(ValueError):
            resample_to_granularity(table, "t", "fortnight")


class TestImputationAndEncoding:
    def test_impute_numeric_median(self):
        table = Table.from_dict({"x": [1.0, None, 3.0]})
        imputed = impute_table(table)
        assert imputed["x"].values[1] == pytest.approx(2.0)

    def test_impute_categorical_samples_observed(self):
        table = Table.from_dict({"c": ["a", None, "a", "a"]})
        imputed = impute_table(table, seed=1)
        assert imputed["c"].values[1] == "a"

    def test_impute_all_missing_categorical(self):
        # build explicitly to avoid inference on all-None
        from repro.relational.column import Column
        from repro.relational.schema import CATEGORICAL
        table = Table([Column("c", [None, None], CATEGORICAL)])
        imputed = impute_table(table)
        assert imputed["c"].values[0] == "__missing__"

    def test_encoding_does_not_impute(self):
        table = Table.from_dict({"x": [1.0, None, 3.0], "y": [0.0, 1.0, 0.0]})
        assert encode_features(table, exclude=["y"]).matrix[:, 0].tolist() == [1.0, 0.0, 3.0]
        X, _y, _encoding = to_design_matrix(table, "y")
        assert X[:, 0].tolist() == [1.0, 0.0, 3.0]

    def test_missing_fraction(self):
        table = Table.from_dict({"x": [1.0, None], "c": ["a", "b"]})
        fractions = missing_fraction(table)
        assert fractions["x"] == pytest.approx(0.5)
        assert fractions["c"] == 0.0

    def test_encode_one_hot(self, base_table):
        encoded = encode_features(base_table, exclude=["target"])
        assert "category=x" in encoded.feature_names
        assert encoded.matrix.shape[0] == 6

    def test_encode_high_cardinality_uses_frequency(self):
        table = Table.from_dict({"c": [str(i) for i in range(50)]})
        encoded = encode_features(table, max_categories=10)
        assert encoded.feature_names == ["c__freq"]

    def test_encode_source_mapping(self, base_table):
        encoded = encode_features(base_table, exclude=["target"])
        indices = encoded.columns_for_source("category")
        assert len(indices) == 2

    def test_to_design_matrix_shapes(self, base_table):
        X, y, encoding = to_design_matrix(base_table, "target")
        assert X.shape[0] == len(y) == 6
        assert "target" not in encoding.source_columns

    def test_encode_target_categorical(self):
        from repro.relational.column import Column
        codes = encode_target(Column.categorical("t", ["b", "a", "b"]))
        assert list(codes) == [1.0, 0.0, 1.0]

    def test_encoded_matrix_has_no_nan(self, base_table, foreign_table):
        joined = left_join(base_table, foreign_table, on=[("entity_id", "entity_id")])
        X, _y, _enc = to_design_matrix(joined, "target")
        assert np.isfinite(X).all()


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
    right_keys=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
)
def test_left_join_always_preserves_row_count(keys, right_keys):
    """Property: LEFT join never adds or removes base-table rows."""
    left = Table.from_dict({"k": [float(k) for k in keys]})
    right = Table.from_dict(
        {"k": [float(k) for k in right_keys], "v": [float(i) for i in range(len(right_keys))]}
    )
    joined = left_join(left, right, on=[("k", "k")])
    assert joined.num_rows == left.num_rows


@settings(max_examples=25, deadline=None)
@given(
    base_times=st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=20
    ),
    right_times=st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=20
    ),
)
def test_two_way_join_values_stay_within_range(base_times, right_times):
    """Property: interpolated values never leave the [min, max] of the foreign column."""
    right_values = [float(i) for i in range(len(right_times))]
    base = Table.from_dict({"t": base_times})
    right = Table.from_dict({"t": right_times, "v": right_values})
    joined = two_way_nearest_join(base, right, "t", "t")
    values = joined["v"].values
    assert np.nanmin(values) >= min(right_values) - 1e-9
    assert np.nanmax(values) <= max(right_values) + 1e-9
