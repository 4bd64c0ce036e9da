"""Tests for the serving layer: fitted pipelines, artifacts, inference replay.

Covers the PR-5 acceptance surface:

* ``transform`` on the training base table reproduces the training design
  matrix byte-for-byte (direct and hypothesis-pinned through the fitted
  imputer/encoder kernels);
* artifact round trips (save -> load -> identical transforms/predictions),
  including through a fresh process;
* failure modes that must raise instead of mis-serving: artifact version
  mismatch, truncation, repository fingerprint drift, missing tables/columns;
* serving edge cases: unseen dictionary values, all-missing key columns,
  empty batches, streaming micro-batches;
* join replay against build sides prepared once per bound view: byte-equal
  to a per-call replay and to the batch-join path, and each duplicate-keyed
  kept table is pre-aggregated once, not once per scored chunk;
* soft-key joins replayed inline: each transform of a soft plan draws from a
  generator of its own, so serial and concurrent calls agree byte for byte,
  and a plan without a soft join makes no generator;
* estimator state round trips through the page format.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import preprocessing_reference
import repro.relational.join as join_module
import repro.serving.pipeline as pipeline_module
from repro.core.arda import ARDA
from repro.core.config import ARDAConfig
from repro.core.join_execution import (
    join_candidates_detailed,
    prepare_kept_joins,
    replay_kept_joins,
)
from repro.datasets.synthetic import RelationalDatasetBuilder, SignalTableSpec
from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.repository import DataRepository
from repro.ml import (
    BinnedMatrix,
    DecisionTreeClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
    estimator_from_state,
    estimator_to_state,
)
from repro.relational.column import Column
from repro.relational.encoding import (
    FittedEncoder,
    encode_features,
    encode_features_binned,
    to_design_matrix,
)
from repro.relational.imputation import FittedImputer, impute_table
from repro.relational.persist import open_chunks, write_table
from repro.relational.schema import CATEGORICAL, NUMERIC, Schema
from repro.relational.table import Table
from repro.serving import (
    ARTIFACT_VERSION,
    ArtifactError,
    FittedPipeline,
    read_artifact,
    write_artifact,
)
from repro.serving.pipeline import fit_pipeline_from_training
from stress import deep_settings

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    """One ARDA run over a synthetic relational dataset, pipeline captured."""
    builder = RelationalDatasetBuilder(
        "serving", task="regression", n_rows=160, n_entities=50, seed=3
    )
    builder.add_signal_table(SignalTableSpec("signal", n_signal_columns=2, weight=2.0))
    builder.add_noise_tables(2, prefix="noise", n_columns=2)
    dataset = builder.build()
    report = ARDA(ARDAConfig()).augment(dataset)
    assert report.pipeline is not None
    return dataset, report


@pytest.fixture(scope="module")
def training_matrix(trained):
    """The training design matrix, computed the pre-serving way."""
    dataset, report = trained
    X, y, _encoding = to_design_matrix(
        impute_table(report.augmented_table, seed=0),
        dataset.target,
        max_categories=12,
    )
    return X, y


# -- train-matrix byte identity ----------------------------------------------


class TestTrainByteIdentity:
    def test_transform_reproduces_training_matrix(self, trained, training_matrix):
        dataset, report = trained
        X_ref, _y = training_matrix
        X = report.pipeline.transform(dataset.base_table, repository=dataset.repository)
        assert X.shape == X_ref.shape
        assert X.tobytes() == X_ref.tobytes()

    def test_round_tripped_pipeline_reproduces_training_matrix(
        self, trained, training_matrix, tmp_path
    ):
        dataset, report = trained
        X_ref, _y = training_matrix
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        loaded = FittedPipeline.load(path, repository=dataset.repository)
        X = loaded.transform(dataset.base_table)
        assert X.tobytes() == X_ref.tobytes()

    def test_feature_names_match_training_layout(self, trained):
        dataset, report = trained
        encoding = to_design_matrix(
            impute_table(report.augmented_table, seed=0),
            dataset.target,
            max_categories=12,
        )[2]
        assert report.pipeline.feature_names == encoding.feature_names

    def test_provenance_covers_kept_columns(self, trained):
        _dataset, report = trained
        recorded = {p.column for p in report.pipeline.provenance}
        assert recorded == set(report.kept_columns)
        for p in report.pipeline.provenance:
            assert p.table in report.kept_tables
            assert p.batch_index >= 0


# -- hypothesis: fitted kernels == the training loops they replaced ----------


cat_entries = st.one_of(
    st.none(), st.sampled_from(["a", "bb", "", "日本語", "x y", "-1.5"])
)
num_entries = st.one_of(st.none(), st.sampled_from([0.0, -0.0, -1.5, 2.0**40, 3.25]))


@st.composite
def mixed_tables(draw):
    """A table of mixed columns, maybe a row slice of a larger one, and an
    exclude list drawn from its column names and one absent name."""
    n_rows = draw(st.integers(min_value=0, max_value=20))
    n_cols = draw(st.integers(min_value=0, max_value=4))
    sliced = draw(st.booleans())
    n_full = n_rows + draw(st.integers(min_value=0, max_value=10)) if sliced else n_rows
    data, types = {}, {}
    for i in range(n_cols):
        if draw(st.booleans()):
            name = f"cat{i}"
            data[name] = draw(st.lists(cat_entries, min_size=n_full, max_size=n_full))
            types[name] = CATEGORICAL
        else:
            name = f"num{i}"
            data[name] = draw(st.lists(num_entries, min_size=n_full, max_size=n_full))
            types[name] = NUMERIC
    table = Table.from_dict(data, types=types, name="generated")
    if sliced:
        # a row slice keeps its source's dictionaries, unused entries included
        rows = draw(
            st.lists(
                st.integers(min_value=0, max_value=max(n_full - 1, 0)),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        table = table.take(np.array(rows, dtype=np.int64))
    exclude = draw(st.lists(st.sampled_from([*data, "absent"]), unique=True))
    return table, exclude


def assert_tables_identical(got: Table, want: Table) -> None:
    """Same columns, codes, dictionaries and float bytes (``-0.0`` is not ``0.0``)."""
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.ctype is b.ctype, name
        if a.ctype is CATEGORICAL:
            assert a.codes.tobytes() == b.codes.tobytes(), name
            assert list(a.dictionary) == list(b.dictionary), name
        else:
            assert a.values.tobytes() == b.values.tobytes(), name


class TestFittedKernelsMatchTraining:
    @pytest.mark.stress
    @deep_settings(60)
    @given(case=mixed_tables(), seed=st.integers(min_value=0, max_value=5))
    def test_fitted_imputer_replays_training_imputation(self, case, seed):
        table, _exclude = case
        reference = preprocessing_reference.impute_table(table, seed=seed)
        imputer, fitted = FittedImputer.fit(table, seed=seed)
        assert_tables_identical(fitted, reference)
        assert_tables_identical(impute_table(table, seed=seed), reference)
        assert_tables_identical(imputer.transform(table), reference)

    @pytest.mark.stress
    @deep_settings(60)
    @given(case=mixed_tables(), max_categories=st.integers(min_value=1, max_value=6))
    def test_fitted_encoder_replays_training_encoding(self, case, max_categories):
        table, exclude = case
        imputed = preprocessing_reference.impute_table(table, seed=0)
        for source in (imputed, table):  # encoding never imputes
            reference = preprocessing_reference.encode_features(
                source, exclude, max_categories
            )
            encoder, fitted = FittedEncoder.fit(
                source, exclude=exclude, max_categories=max_categories
            )
            trained = encode_features(
                source, exclude=exclude, max_categories=max_categories
            )
            for encoded in (fitted, trained):
                assert encoded.feature_names == reference.feature_names
                assert encoded.source_columns == reference.source_columns
                assert encoded.matrix.tobytes() == reference.matrix.tobytes()
            assert encoder.transform(source).tobytes() == reference.matrix.tobytes()
            binned = encode_features_binned(
                source, exclude=exclude, max_categories=max_categories
            )
            quantised = BinnedMatrix.from_matrix(reference.matrix)
            assert binned.feature_names == reference.feature_names
            assert binned.codes.tobytes() == quantised.codes.tobytes()
            for j in range(quantised.n_features):
                assert np.array_equal(binned.bin_min[j], quantised.bin_min[j], equal_nan=True)
                assert np.array_equal(binned.bin_max[j], quantised.bin_max[j], equal_nan=True)


# -- frequency state: remapped per value only for other dictionaries ---------


@pytest.fixture
def frequency_remaps(monkeypatch):
    """Names of the frequency columns remapped value by value, one per remap."""
    calls: list[str] = []
    remap = FittedEncoder._remap_frequencies

    def counting(col, state):
        calls.append(state.name)
        return remap(col, state)

    monkeypatch.setattr(FittedEncoder, "_remap_frequencies", staticmethod(counting))
    return calls


class TestFrequencyRemaps:
    def test_training_encodes_read_fit_time_frequencies(self, frequency_remaps):
        ids = [f"id{i % 9}" if i % 5 else None for i in range(40)]
        tags = [f"t{i % 4}" for i in range(40)]
        table = impute_table(
            Table.from_dict(
                {"id": ids, "tag": tags, "x": [float(i) for i in range(40)],
                 "y": [float(i % 2) for i in range(40)]},
                types={"id": CATEGORICAL, "tag": CATEGORICAL},
            ),
            seed=0,
        )
        encoder, _encoded = FittedEncoder.fit(table, exclude=["y"], max_categories=2)
        frequency = [s.name for s in encoder.columns if s.kind == "frequency"]
        assert frequency == ["id", "tag"]
        encode_features(table, exclude=["y"], max_categories=2)
        to_design_matrix(table, "y", max_categories=2)
        encode_features_binned(table, exclude=["y"], max_categories=2)
        encoder.transform(table.take(np.arange(10)))  # a row slice shares them
        assert frequency_remaps == []

    def test_only_a_loaded_pipeline_remaps_once_per_column(
        self, frequency_remaps, tmp_path
    ):
        builder = RelationalDatasetBuilder(
            "serving", task="regression", n_rows=160, n_entities=50, seed=3
        )
        builder.add_signal_table(SignalTableSpec("signal", n_signal_columns=2))
        builder.add_noise_tables(1, prefix="noise", n_columns=2)
        dataset = builder.build()
        # every batch encode and the pipeline capture see frequency columns
        report = ARDA(ARDAConfig(max_categories=1)).augment(dataset)
        frequency = [
            s.name for s in report.pipeline.encoder.columns if s.kind == "frequency"
        ]
        assert frequency
        assert frequency_remaps == []
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        loaded = FittedPipeline.load(path, repository=dataset.repository)
        loaded.transform(dataset.base_table.take(np.arange(20)))
        assert frequency_remaps == frequency


# -- artifact failure modes ---------------------------------------------------


class TestArtifactErrors:
    def test_version_mismatch_raises(self, trained, tmp_path):
        _dataset, report = trained
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        raw = bytearray(path.read_bytes())
        bad_version = (ARTIFACT_VERSION + 1).to_bytes(4, "little")
        raw[8:12] = bad_version
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="version"):
            FittedPipeline.load(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.pipeline"
        path.write_bytes(b"not an artifact at all")
        with pytest.raises(ArtifactError, match="magic"):
            FittedPipeline.load(path)

    def test_truncated_pages_raise(self, trained, tmp_path):
        _dataset, report = trained
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(ArtifactError, match="truncated"):
            FittedPipeline.load(path)

    def test_object_arrays_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="dtype"):
            write_artifact(
                tmp_path / "bad.pipeline",
                {"doc": True},
                {"page": np.array(["a", "b"], dtype=object)},
            )

    def test_round_trip_preserves_doc_and_arrays(self, tmp_path):
        doc = {"nested": {"pi": 3.25}, "list": [1, "two"]}
        arrays = {
            "f": np.arange(5, dtype=np.float64),
            "i": np.arange(6, dtype=np.int32).reshape(2, 3),
            "u": np.arange(4, dtype=np.uint8),
        }
        path = tmp_path / "ok.pipeline"
        write_artifact(path, doc, arrays)
        loaded_doc, loaded_arrays = read_artifact(path)
        assert loaded_doc == doc
        assert set(loaded_arrays) == set(arrays)
        for name, array in arrays.items():
            assert loaded_arrays[name].dtype == array.dtype
            assert np.array_equal(loaded_arrays[name], array)


class TestFingerprintDrift:
    def test_drifted_repository_table_raises(self, trained, tmp_path):
        dataset, report = trained
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        drifted = DataRepository()
        for name in dataset.repository.table_names:
            table = dataset.repository.get(name)
            if name == report.pipeline.joins[0].foreign_table:
                # perturb one value: content fingerprint must change
                victim = table.columns()[-1]
                values = list(victim.values)
                if victim.ctype is CATEGORICAL:
                    values[0] = "drift"
                else:
                    values[0] = (values[0] if values[0] == values[0] else 0.0) + 1.0
                table = table.with_column(Column(victim.name, values, victim.ctype))
            drifted.add(table.rename(name))
        with pytest.raises(ArtifactError, match="drifted"):
            FittedPipeline.load(path, repository=drifted)

    def test_missing_table_raises(self, trained, tmp_path):
        dataset, report = trained
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        partial = DataRepository()
        kept = {step.foreign_table for step in report.pipeline.joins}
        for name in dataset.repository.table_names:
            if name not in kept:
                partial.add(dataset.repository.get(name))
        with pytest.raises(ArtifactError, match="no table"):
            FittedPipeline.load(path, repository=partial)

    def test_disk_backed_repository_validates_from_headers(self, trained, tmp_path):
        dataset, report = trained
        lake = tmp_path / "lake"
        lake.mkdir()
        for name in dataset.repository.table_names:
            dataset.repository.get(name).save(lake / f"{name}.tbl")
        path = tmp_path / "model.pipeline"
        report.pipeline.save(path)
        repo = DataRepository.open(lake)
        loaded = FittedPipeline.load(path, repository=repo)
        X = loaded.transform(dataset.base_table)
        assert X.shape[0] == dataset.base_table.num_rows


# -- serving edge cases -------------------------------------------------------


class TestServingEdgeCases:
    def test_unseen_dictionary_values(self, trained):
        dataset, report = trained
        pipeline = report.pipeline
        rows = dataset.base_table.head(5)
        mutated = []
        for col in rows.columns():
            if col.ctype is CATEGORICAL:
                values = list(col.values)
                values[0] = "never-seen-in-training"
                mutated.append(Column(col.name, values, CATEGORICAL))
            else:
                mutated.append(col)
        X = pipeline.transform(
            Table(mutated, name=rows.name), repository=dataset.repository
        )
        assert X.shape == (5, len(pipeline.feature_names))
        assert np.isfinite(X).all()

    def test_all_missing_key_columns(self, trained):
        dataset, report = trained
        pipeline = report.pipeline
        rows = dataset.base_table.head(4)
        key_columns = {b for step in pipeline.joins for b, _f, _s in step.keys}
        assert key_columns, "fixture pipeline must replay at least one join"
        mutated = []
        for col in rows.columns():
            if col.name in key_columns:
                mutated.append(Column(col.name, [None] * 4, col.ctype))
            else:
                mutated.append(col)
        X = pipeline.transform(
            Table(mutated, name=rows.name), repository=dataset.repository
        )
        # unmatched rows get imputed foreign values, never NaNs
        assert X.shape == (4, len(pipeline.feature_names))
        assert np.isfinite(X).all()
        predictions = pipeline.predict(
            Table(mutated, name=rows.name), repository=dataset.repository
        )
        assert predictions.shape == (4,)

    def test_empty_batch(self, trained):
        dataset, report = trained
        pipeline = report.pipeline
        empty = dataset.base_table.head(0)
        X = pipeline.transform(empty, repository=dataset.repository)
        assert X.shape == (0, len(pipeline.feature_names))
        predictions = pipeline.predict(empty, repository=dataset.repository)
        assert predictions.shape == (0,)

    def test_missing_base_column_raises(self, trained):
        dataset, report = trained
        required = report.pipeline.required_columns[0]
        rows = dataset.base_table.drop([required])
        with pytest.raises(KeyError, match=required):
            report.pipeline.transform(rows, repository=dataset.repository)

    def test_type_drift_raises(self, trained):
        dataset, report = trained
        pipeline = report.pipeline
        name = next(
            col.name
            for col in dataset.base_table.columns()
            if col.ctype is not CATEGORICAL and col.name != pipeline.target
        )
        rows = dataset.base_table.with_column(
            Column(name, ["x"] * dataset.base_table.num_rows, CATEGORICAL)
        )
        with pytest.raises(TypeError, match=name):
            pipeline.transform(rows, repository=dataset.repository)

    def test_featureless_augment_skips_capture(self):
        # a base table with nothing but the target cannot be served; augment
        # must complete (as before PR 5) with pipeline=None, not crash on an
        # unfitted estimator at save/predict time
        base = Table.from_dict({"y": [1.0, 2.0, 3.0, 4.0]}, name="base")
        repository = DataRepository(
            [Table.from_dict({"k": [0.0], "v": [1.0]}, name="aux")]
        )
        report = ARDA(ARDAConfig()).augment_tables(
            base, repository, target="y", candidates=[]
        )
        assert report.pipeline is None

    def test_target_column_optional(self, trained, training_matrix):
        dataset, report = trained
        X_ref, _y = training_matrix
        rows = dataset.base_table.drop([dataset.target])
        X = report.pipeline.transform(rows, repository=dataset.repository)
        # dropping the (numeric) target does not consume RNG draws, so the
        # feature matrix is unchanged
        assert X.tobytes() == X_ref.tobytes()


class TestStreaming:
    def test_streaming_concat_matches_manual_batches(self, trained):
        dataset, report = trained
        pipeline = report.pipeline
        rows = dataset.base_table
        streamed = np.concatenate(
            list(
                pipeline.iter_predict(
                    rows, repository=dataset.repository, batch_rows=37
                )
            )
        )
        via_predict = pipeline.predict(
            rows, repository=dataset.repository, batch_rows=37
        )
        assert np.array_equal(streamed, via_predict)
        assert streamed.shape == (rows.num_rows,)


# -- prepared join replay -----------------------------------------------------

_BASE_TYPES = {"k": NUMERIC, "c": CATEGORICAL, "t": NUMERIC, "f": NUMERIC}


def replay_repository() -> DataRepository:
    """Foreign tables covering every kind of kept join the replay handles."""
    return DataRepository(
        [
            # duplicate numeric keys (pre-aggregated) and a missing key
            Table.from_dict(
                {
                    "k": [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, None],
                    "v1": [1.0, 2.0, None, 4.0, 5.0, 6.5, 7.0],
                    "v2": ["a", "b", "b", None, "c", "a", "c"],
                    "v3": [0.5, -1.0, 3.0, 2.0, None, 1.0, 8.0],
                },
                name="dup",
            ),
            # a categorical key with a duplicate
            Table.from_dict(
                {"c": ["a", "b", "b", None], "w1": [1.0, 2.0, 3.0, 4.0],
                 "w2": ["x", "y", "z", "x"]},
                types={"c": CATEGORICAL},
                name="cat",
            ),
            # a composite (numeric, categorical) key with duplicates
            Table.from_dict(
                {"k": [0.0, 0.0, 1.0, 2.0], "c": ["a", "a", "b", "a"],
                 "x1": [1.0, 3.0, 5.0, 7.0], "x2": ["p", "q", "q", None]},
                types={"c": CATEGORICAL},
                name="comp",
            ),
            # a 0-row foreign table
            Table.from_dict(
                {"k": [], "e1": [], "e2": []},
                types={"k": NUMERIC, "e1": NUMERIC, "e2": CATEGORICAL},
                name="empty",
            ),
            # a soft (two-way nearest) key; its categorical column draws from
            # the join's child generator
            Table.from_dict(
                {"t": [0.0, 1.0, 2.0, 3.0], "s1": [10.0, 20.0, None, 40.0],
                 "s2": ["u", "v", "w", "u"]},
                name="soft",
            ),
        ]
    )


# (candidate, number of columns its join adds)
_REPLAY_CANDIDATES = [
    (JoinCandidate("dup", [KeyPair("k", "k")]), 3),
    (JoinCandidate("soft", [KeyPair("t", "t", soft=True)]), 2),
    (JoinCandidate("cat", [KeyPair("c", "c")]), 2),
    (JoinCandidate("comp", [KeyPair("k", "k"), KeyPair("c", "c")]), 2),
    (JoinCandidate("empty", [KeyPair("k", "k")]), 2),
    (JoinCandidate("soft", [KeyPair("t", "t", soft=True)]), 2),
]


@st.composite
def replay_specs(draw):
    """Kept-join specs in a random order, each keeping a random column subset."""
    specs = []
    for index in draw(st.permutations(range(len(_REPLAY_CANDIDATES)))):
        candidate, width = _REPLAY_CANDIDATES[index]
        positions = sorted(
            draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=width))
        )
        specs.append((candidate, positions, [f"out{index}_{p}" for p in positions]))
    return specs


@st.composite
def replay_bases(draw):
    """A base with missing and unseen key values (7.0, "z", 9.0 match nothing)."""
    n = draw(st.integers(min_value=0, max_value=12))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    return Table.from_dict(
        {
            "k": column([0.0, 1.0, 2.0, 7.0, None]),
            "c": column(["a", "b", "z", None]),
            "t": column([0.0, 0.5, 1.75, 3.0, 9.0, None]),
            "f": column([1.0, -2.0, None]),
        },
        types=_BASE_TYPES,
        name="base",
    )


def batch_join_replay(base, repository, specs, rng) -> Table:
    """The replay as the batch-join path computes it: join every candidate,
    pick kept columns by position, rename them to their pinned names."""
    joined, added = join_candidates_detailed(
        base, repository, [spec[0] for spec in specs], rng=rng
    )
    columns = list(base.columns())
    for (_candidate, positions, names), names_added in zip(specs, added):
        columns.extend(
            joined.column(names_added[p]).rename(name) for p, name in zip(positions, names)
        )
    return Table(columns, name=base.name)


def assert_same_bytes(actual: Table, expected: Table) -> None:
    """``Table.__eq__`` plus identical value bytes (and codes) per column."""
    assert actual == expected
    for name in expected.column_names:
        a, b = actual.column(name), expected.column(name)
        if b.ctype is CATEGORICAL:
            assert np.array_equal(a.codes, b.codes), name
            assert list(a.dictionary) == list(b.dictionary), name
        else:
            assert a.values.tobytes() == b.values.tobytes(), name


class TestPreparedReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        specs=replay_specs(),
        bases=st.lists(replay_bases(), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_prepared_replay_equals_per_call_replay(self, specs, bases, seed):
        repository = replay_repository()
        prepared = prepare_kept_joins(repository, specs, Schema.from_pairs(
            list(_BASE_TYPES.items())
        ))
        assert [build is None for build in prepared] == [
            candidate.is_soft for candidate, _positions, _names in specs
        ]
        for base in bases:
            reused = replay_kept_joins(
                base, repository, specs, rng=np.random.default_rng(seed), prepared=prepared
            )
            fresh = replay_kept_joins(base, repository, specs, rng=np.random.default_rng(seed))
            assert_same_bytes(reused, fresh)
            assert_same_bytes(
                reused, batch_join_replay(base, repository, specs, np.random.default_rng(seed))
            )
            assert reused.column_names == base.column_names + [
                name for _candidate, _positions, names in specs for name in names
            ]


class TestInlineSoftReplay:
    """A transform makes its own generator, and only when the plan has a soft join."""

    @staticmethod
    def fit(specs):
        rng = np.random.default_rng(11)
        n = 60
        base = Table.from_dict(
            {
                "k": rng.choice([0.0, 1.0, 2.0, 7.0], n),
                "c": rng.choice(["a", "b", "z"], n).tolist(),
                "t": rng.uniform(-1.0, 4.0, n),
                "f": rng.normal(size=n),
                "y": rng.normal(size=n),
            },
            types={**_BASE_TYPES, "y": NUMERIC},
            name="base",
        )
        repository = replay_repository()
        prepared = prepare_kept_joins(repository, specs, base.schema())
        pipeline, _X, _y = fit_pipeline_from_training(
            target="y",
            task="regression",
            base_table=base,
            augmented_table=replay_kept_joins(
                base, repository, specs, rng=np.random.default_rng(0), prepared=prepared
            ),
            kept_specs=specs,
            repository=repository,
            prepared=prepared,
            estimator=RandomForestRegressor(n_estimators=3, random_state=0),
            seed=0,
            soft_strategy="two_way_nearest",
            time_resample=True,
            max_categories=12,
        )
        return pipeline, base.drop("y"), repository

    @staticmethod
    def spy_on_replay(monkeypatch) -> list:
        """The generator each transform hands the join replay, in call order."""
        generators = []
        original = pipeline_module.replay_kept_joins

        def spy(*args, rng=None, **kwargs):
            generators.append(rng)
            return original(*args, rng=rng, **kwargs)

        monkeypatch.setattr(pipeline_module, "replay_kept_joins", spy)
        return generators

    def test_hard_only_plan_makes_no_generator(self, monkeypatch):
        pipeline, rows, repository = self.fit(
            [
                (JoinCandidate("dup", [KeyPair("k", "k")]), [0, 2], ["dup.v1", "dup.v3"]),
                (JoinCandidate("cat", [KeyPair("c", "c")]), [1], ["cat.w2"]),
            ]
        )
        generators = self.spy_on_replay(monkeypatch)
        pipeline.transform(rows, repository=repository)
        pipeline.predict(rows, repository=repository, batch_rows=16)
        assert len(generators) == 1 + 4
        assert all(rng is None for rng in generators)

    def test_soft_plan_draws_afresh_per_call_and_thread(self, monkeypatch):
        specs = [
            (JoinCandidate("dup", [KeyPair("k", "k")]), [0], ["dup.v1"]),
            (JoinCandidate("soft", [KeyPair("t", "t", soft=True)]), [0, 1], ["soft.s1", "soft.s2"]),
        ]
        pipeline, rows, repository = self.fit(specs)
        # the replay a transform runs: one generator seeded from the pipeline
        expected = pipeline.encoder.transform(
            pipeline.imputer.transform(
                replay_kept_joins(
                    rows,
                    repository,
                    specs,
                    soft_strategy="two_way_nearest",
                    time_resample=True,
                    rng=np.random.default_rng(pipeline.seed),
                )
            )
        )
        generators = self.spy_on_replay(monkeypatch)
        results: list = [pipeline.transform(rows, repository=repository)]
        start = threading.Barrier(4)

        def transform():
            start.wait(timeout=60)
            results.append(pipeline.transform(rows, repository=repository))

        threads = [threading.Thread(target=transform) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 5
        for X in results:
            assert X.tobytes() == expected.tobytes()
        # no generator is shared between calls
        assert len(generators) == 5
        assert len({id(rng) for rng in generators}) == 5


class TestAggregateOnce:
    """A duplicate-keyed kept table is pre-aggregated once per bound view."""

    @pytest.fixture
    def fitted(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 400
        keys = rng.integers(0, 30, n).astype(float)
        base = Table.from_dict(
            {"k": keys, "f": rng.normal(size=n), "y": keys + rng.normal(size=n)},
            name="base",
        )
        repository = DataRepository(
            [
                Table.from_dict(
                    {"k": np.repeat(np.arange(30.0), 3), "a": rng.normal(size=90)},
                    name="dup_a",
                ),
                Table.from_dict(
                    {"k": np.repeat(np.arange(30.0), 2),
                     "b": rng.choice(["p", "q", "r"], 60).tolist()},
                    name="dup_b",
                ),
                Table.from_dict({"k": np.arange(30.0), "u": np.arange(30.0) ** 2}, name="uniq"),
            ]
        )
        specs = [
            (JoinCandidate(name, [KeyPair("k", "k")]), [0], [f"{name}.{column}"])
            for name, column in (("dup_a", "a"), ("dup_b", "b"), ("uniq", "u"))
        ]
        prepared = prepare_kept_joins(repository, specs, base.schema())
        pipeline, _X, _y = fit_pipeline_from_training(
            target="y",
            task="regression",
            base_table=base,
            augmented_table=replay_kept_joins(base, repository, specs, prepared=prepared),
            kept_specs=specs,
            repository=repository,
            prepared=prepared,
            estimator=RandomForestRegressor(n_estimators=3, random_state=0),
            seed=0,
            soft_strategy="two_way_nearest",
            time_resample=True,
            max_categories=12,
        )
        path = tmp_path / "rows.tbl"
        write_table(base.drop("y"), path, chunk_rows=64)
        return pipeline, repository, path

    @staticmethod
    def count_aggregations(monkeypatch, delay_s: float = 0.0) -> list:
        calls = []
        original = join_module.group_by_aggregate

        def counting(table, *args, **kwargs):
            calls.append(table.name)
            time.sleep(delay_s)
            return original(table, *args, **kwargs)

        monkeypatch.setattr(join_module, "group_by_aggregate", counting)
        return calls

    def test_chunked_predict_aggregates_each_table_once(self, fitted, monkeypatch):
        pipeline, _repository, path = fitted
        source = open_chunks(path)
        assert source.num_chunks == 7
        expected = pipeline.predict(source.table())  # one-chunk reference
        pipeline.release()
        pipeline.bind(_repository)
        calls = self.count_aggregations(monkeypatch)
        predictions = pipeline.predict(source, batch_rows=64)
        assert np.array_equal(predictions, expected)
        # the first transform prepares; six more chunks only probe
        assert sorted(calls) == ["dup_a", "dup_b"]

    def test_concurrent_first_transforms_prepare_once(self, fitted, monkeypatch):
        pipeline, repository, path = fitted
        rows = open_chunks(path).table()
        expected = pipeline.predict(rows)
        pipeline.bind(repository)  # a fresh view: nothing prepared yet
        # a slow prepare keeps the racing threads' window open
        calls = self.count_aggregations(monkeypatch, delay_s=0.02)
        results: list = [None] * 8
        start = threading.Barrier(len(results))

        def score(index):
            start.wait(timeout=60)
            results[index] = pipeline.predict(rows)

        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the racing first transforms
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(calls) == ["dup_a", "dup_b"]  # one prepare, not one per thread
        for predictions in results:
            assert np.array_equal(predictions, expected)

    def test_warm_prepares_and_rebinding_drops_it(self, fitted, monkeypatch):
        pipeline, repository, path = fitted
        calls = self.count_aggregations(monkeypatch)
        pipeline.bind(repository)
        assert calls == []  # binding validates fingerprints only
        pipeline.warm()
        assert sorted(calls) == ["dup_a", "dup_b"]
        pipeline.predict(open_chunks(path))
        pipeline.predict(open_chunks(path).table())
        assert len(calls) == 2  # served entirely from the warm build sides
        pipeline.release()
        pipeline.bind(repository)
        pipeline.predict(open_chunks(path))
        assert len(calls) == 4  # a new binding prepares once more


# -- estimator state ----------------------------------------------------------


class TestEstimatorState:
    def test_forest_round_trip_bit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 5))
        y_clf = (X[:, 0] + X[:, 1] > 0).astype(float)
        y_reg = X[:, 0] * 2.0 - X[:, 2]
        for estimator, y in [
            (RandomForestClassifier(n_estimators=4, random_state=1), y_clf),
            (RandomForestRegressor(n_estimators=4, random_state=1), y_reg),
            (DecisionTreeClassifier(max_depth=4, random_state=1), y_clf),
        ]:
            estimator.fit(X, y)
            doc, arrays = estimator_to_state(estimator)
            restored = estimator_from_state(doc, arrays)
            assert np.array_equal(estimator.predict(X), restored.predict(X))
            assert np.array_equal(
                estimator.feature_importances_, restored.feature_importances_
            )

    def test_unfitted_estimator_rejected(self):
        with pytest.raises(RuntimeError, match="unfitted"):
            estimator_to_state(RandomForestRegressor())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            estimator_from_state({"kind": "quantum_forest"}, {})


# -- classification decode ----------------------------------------------------


class TestClassificationServing:
    def test_categorical_target_predictions_decode_to_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 120
        x = rng.normal(size=n)
        base = Table.from_dict(
            {
                "entity_id": [float(i % 30) for i in range(n)],
                "x": x,
                "label": ["hi" if v > 0 else "lo" for v in x],
            },
            name="base",
        )
        repository = DataRepository(
            [
                Table.from_dict(
                    {
                        "entity_id": [float(i) for i in range(30)],
                        "extra": list(rng.normal(size=30)),
                    },
                    name="aux",
                )
            ]
        )
        report = ARDA(ARDAConfig()).augment_tables(
            base, repository, target="label"
        )
        pipeline = report.pipeline
        assert pipeline.task == "classification"
        path = tmp_path / "clf.pipeline"
        pipeline.save(path)
        loaded = FittedPipeline.load(path, repository=repository)
        predictions = loaded.predict(base, repository=repository)
        assert set(predictions) <= {"hi", "lo"}
        assert np.array_equal(
            predictions, pipeline.predict(base, repository=repository)
        )


# -- fresh process ------------------------------------------------------------


class TestFreshProcess:
    def test_fresh_process_load_reproduces_training_matrix(
        self, trained, training_matrix, tmp_path
    ):
        dataset, report = trained
        X_ref, _y = training_matrix
        lake = tmp_path / "lake"
        lake.mkdir()
        for name in dataset.repository.table_names:
            dataset.repository.get(name).save(lake / f"{name}.tbl")
        artifact = tmp_path / "model.pipeline"
        report.pipeline.save(artifact)
        rows_path = tmp_path / "rows.tbl"
        dataset.base_table.save(rows_path)
        expected_path = tmp_path / "expected.npy"
        np.save(expected_path, X_ref)
        script = (
            "import numpy as np\n"
            "from repro.discovery.repository import DataRepository\n"
            "from repro.relational.table import Table\n"
            "from repro.serving import FittedPipeline\n"
            f"pipeline = FittedPipeline.load({str(artifact)!r}, "
            f"repository=DataRepository.open({str(lake)!r}))\n"
            f"X = pipeline.transform(Table.load({str(rows_path)!r}))\n"
            f"expected = np.load({str(expected_path)!r})\n"
            "assert X.tobytes() == expected.tobytes(), 'fresh-process transform drifted'\n"
            "print('fresh-process byte-identity ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "byte-identity ok" in result.stdout
