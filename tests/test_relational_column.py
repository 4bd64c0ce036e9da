"""Tests for columns, type inference and coercion."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.relational.column import Column, concat_columns, infer_type
from repro.relational.schema import BOOLEAN, CATEGORICAL, DATETIME, NUMERIC, Schema, ColumnSpec


class TestTypeInference:
    def test_numeric_list(self):
        assert infer_type([1, 2.5, 3]) is NUMERIC

    def test_numeric_with_none(self):
        assert infer_type([1.0, None, 3.0]) is NUMERIC

    def test_string_list(self):
        assert infer_type(["a", "b"]) is CATEGORICAL

    def test_mixed_string_and_number_is_categorical(self):
        assert infer_type([1, "a"]) is CATEGORICAL

    def test_datetime_list(self):
        assert infer_type([dt.datetime(2020, 1, 1), None]) is DATETIME

    def test_boolean_list(self):
        assert infer_type([True, False, None]) is BOOLEAN

    def test_numpy_float_array(self):
        assert infer_type(np.array([1.0, 2.0])) is NUMERIC


class TestColumnConstruction:
    def test_numeric_values_stored_as_float(self):
        col = Column.numeric("x", [1, 2, 3])
        assert col.values.dtype == np.float64
        assert col.ctype is NUMERIC

    def test_none_becomes_nan_for_numeric(self):
        col = Column.numeric("x", [1.0, None, 3.0])
        assert np.isnan(col.values[1])
        assert col.null_count() == 1

    def test_categorical_none_preserved(self):
        col = Column.categorical("c", ["a", None, "b"])
        assert col.values[1] is None
        assert col.null_count() == 1

    def test_categorical_coerces_to_string(self):
        col = Column.categorical("c", [1, 2, 1])
        assert list(col.values) == ["1", "2", "1"]

    def test_datetime_from_datetime_objects(self):
        col = Column.datetime("t", [dt.datetime(1970, 1, 2)])
        assert col.values[0] == pytest.approx(86400.0)

    def test_datetime_from_iso_string(self):
        col = Column.datetime("t", ["1970-01-01T01:00:00"])
        assert col.values[0] == pytest.approx(3600.0)

    def test_boolean_stored_as_float(self):
        col = Column.boolean("b", [True, False])
        assert list(col.values) == [1.0, 0.0]

    def test_empty_numeric_string_becomes_nan(self):
        col = Column.numeric("x", ["1.5", " "])
        assert col.values[0] == pytest.approx(1.5)
        assert np.isnan(col.values[1])


class TestColumnOperations:
    def test_take_with_repeats(self):
        col = Column.numeric("x", [10.0, 20.0, 30.0])
        taken = col.take(np.array([2, 0, 0]))
        assert list(taken.values) == [30.0, 10.0, 10.0]

    def test_filter(self):
        col = Column.numeric("x", [1.0, 2.0, 3.0])
        assert list(col.filter(np.array([True, False, True])).values) == [1.0, 3.0]

    def test_rename_keeps_data(self):
        col = Column.numeric("x", [1.0])
        renamed = col.rename("y")
        assert renamed.name == "y"
        assert renamed.values is col.values

    def test_unique_categorical_preserves_first_seen_order(self):
        col = Column.categorical("c", ["b", "a", "b", None])
        assert col.unique() == ["b", "a"]

    def test_unique_numeric_excludes_nan(self):
        col = Column.numeric("x", [3.0, 1.0, None, 3.0])
        assert col.unique() == [1.0, 3.0]

    def test_equality_with_nan(self):
        a = Column.numeric("x", [1.0, None])
        b = Column.numeric("x", [1.0, None])
        assert a == b

    def test_inequality_on_name(self):
        assert Column.numeric("x", [1.0]) != Column.numeric("y", [1.0])

    def test_cast_numeric_to_categorical(self):
        col = Column.numeric("x", [1.0, 2.0]).cast(CATEGORICAL)
        assert col.ctype is CATEGORICAL
        assert list(col.values) == ["1.0", "2.0"]

    def test_concat_columns(self):
        a = Column.numeric("x", [1.0])
        b = Column.numeric("x", [2.0, 3.0])
        merged = concat_columns([a, b])
        assert list(merged.values) == [1.0, 2.0, 3.0]

    def test_concat_categorical_columns(self):
        col = Column.categorical("c", ["b", "a", None, "b"])
        head, tail = col.take(np.array([0, 1])), col.take(np.array([2, 3]))
        shared = concat_columns([head, tail])
        assert shared.dictionary is col.dictionary
        assert list(shared.values) == ["b", "a", None, "b"]
        merged = concat_columns([Column.categorical("c", ["x"]), head])
        assert list(merged.dictionary) == ["x", "b", "a"]
        assert list(merged.values) == ["x", "b", "a"]

    def test_concat_mismatched_types_raises(self):
        with pytest.raises(ValueError):
            concat_columns([Column.numeric("x", [1.0]), Column.categorical("x", ["a"])])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([ColumnSpec("a", NUMERIC), ColumnSpec("a", CATEGORICAL)])

    def test_lookup_and_contains(self):
        schema = Schema.from_pairs([("a", NUMERIC), ("b", CATEGORICAL)])
        assert schema.type_of("b") is CATEGORICAL
        assert "a" in schema and "z" not in schema
        assert schema.names == ["a", "b"]

    def test_equality(self):
        a = Schema.from_pairs([("a", NUMERIC)])
        b = Schema.from_pairs([("a", NUMERIC)])
        assert a == b


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=32), st.none()), min_size=1, max_size=30))
def test_numeric_column_roundtrip_preserves_values(values):
    """Numeric coercion keeps non-missing values and maps None to NaN."""
    col = Column.numeric("x", values)
    assert len(col) == len(values)
    for raw, stored in zip(values, col.values):
        if raw is None:
            assert np.isnan(stored)
        else:
            assert stored == pytest.approx(float(raw))


@given(st.lists(st.text(min_size=0, max_size=5), min_size=1, max_size=30))
def test_categorical_null_count_matches_none_count(values):
    """Categorical columns never invent or drop missing values."""
    col = Column.categorical("c", values)
    assert col.null_count() == 0
    assert len(col.unique()) == len(set(values))
