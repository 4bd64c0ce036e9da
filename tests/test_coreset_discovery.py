"""Tests for coreset construction and join discovery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coreset import (
    OSNAPSketch,
    StratifiedSampler,
    UniformSampler,
    default_coreset_size,
    make_coreset_builder,
    sketch_matrix,
)
from repro.discovery import (
    DataRepository,
    JoinCandidate,
    JoinDiscovery,
    KeyPair,
    MinHashSignature,
    jaccard_estimate,
    profile_column,
    profile_table,
)
from repro.discovery.minhash import _GOLDEN, _splitmix64
from repro.relational import Table
from repro.relational.column import Column


class TestCoresetSizes:
    def test_small_tables_keep_everything(self):
        assert default_coreset_size(150) == 150

    def test_large_tables_capped(self):
        assert default_coreset_size(1_000_000) == 2000

    def test_monotone_in_rows(self):
        assert default_coreset_size(500) <= default_coreset_size(5000)


class TestUniformAndStratified:
    def test_uniform_sample_size_and_uniqueness(self):
        indices = UniformSampler(random_state=0).sample_indices(100, 30)
        assert len(indices) == 30
        assert len(set(indices.tolist())) == 30

    def test_uniform_keeps_all_when_size_exceeds(self):
        indices = UniformSampler().sample_indices(10, 50)
        assert len(indices) == 10

    def test_stratified_keeps_minority_class(self):
        y = np.array([0.0] * 95 + [1.0] * 5)
        indices = StratifiedSampler(random_state=0).sample_indices(100, 20, y=y)
        assert (y[indices] == 1.0).sum() >= 1
        assert len(indices) == 20

    def test_stratified_proportions_roughly_preserved(self):
        y = np.array([0.0] * 60 + [1.0] * 40)
        indices = StratifiedSampler(random_state=1).sample_indices(100, 50, y=y)
        positives = (y[indices] == 1.0).mean()
        assert 0.3 <= positives <= 0.5

    def test_stratified_regression_uses_quantile_bins(self):
        y = np.linspace(0, 100, 200)
        indices = StratifiedSampler(random_state=0).sample_indices(200, 40, y=y)
        assert y[indices].max() > 80 and y[indices].min() < 20

    def test_reduce_table_row_preserving(self, base_table):
        reduced = UniformSampler(random_state=0).reduce_table(base_table, 3, target="target")
        assert reduced.num_rows == 3
        assert reduced.column_names == base_table.column_names

    def test_make_coreset_builder(self):
        assert make_coreset_builder("uniform").name == "uniform"
        assert make_coreset_builder("stratified").name == "stratified"
        assert make_coreset_builder("sketch").name == "sketch"
        with pytest.raises(ValueError):
            make_coreset_builder("bogus")


class TestSketch:
    def test_sketch_shape(self, rng):
        X = rng.normal(size=(200, 10))
        sketched = sketch_matrix(X, 50, rng)
        assert sketched.shape == (50, 10)

    def test_sketch_noop_when_target_larger(self, rng):
        X = rng.normal(size=(20, 5))
        assert sketch_matrix(X, 50, rng).shape == (20, 5)

    def test_sketch_approximately_preserves_column_norms(self, rng):
        X = rng.normal(size=(500, 8))
        sketched = sketch_matrix(X, 200, rng, repetitions=8)
        original = np.linalg.norm(X, axis=0)
        reduced = np.linalg.norm(sketched, axis=0)
        assert np.all(np.abs(reduced - original) / original < 0.6)

    def test_sketch_cannot_reduce_tables(self, base_table):
        with pytest.raises(RuntimeError):
            OSNAPSketch().reduce_table(base_table, 3)

    def test_sketch_reduce_matrix_classification_keeps_labels(self, classification_matrix):
        X, y = classification_matrix
        X_small, y_small = OSNAPSketch(random_state=0).reduce_matrix(X, y, 60)
        assert set(np.unique(y_small)) <= set(np.unique(y))
        assert X_small.shape[0] == len(y_small) <= 70

    def test_sketch_reduce_matrix_regression(self, regression_matrix):
        X, y = regression_matrix
        X_small, y_small = OSNAPSketch(random_state=0).reduce_matrix(X, y, 80)
        assert X_small.shape == (80, X.shape[1])
        assert len(y_small) == 80


def _stable_hash(value: str, seed: int) -> int:
    """Deterministic 64-bit hash of a string under a seed."""
    digest = hashlib.blake2b(
        value.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def reference_signature(values, num_hashes: int) -> np.ndarray:
    """The MinHash signature, one value at a time: each value's text hashed
    with a fresh keyed blake2b, mixed with every per-function seed."""
    seeds = _splitmix64(_splitmix64(np.arange(1, num_hashes + 1, dtype=np.uint64) * _GOLDEN))
    signature = np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
    for value in values:
        if value is not None:
            base = np.full(num_hashes, _stable_hash(str(value), 0), dtype=np.uint64)
            with np.errstate(over="ignore"):
                signature = np.minimum(signature, _splitmix64(base ^ seeds))
    return signature


class TestMinHash:
    def test_signature_bytes_match_the_per_value_reference(self):
        # signatures persist in profile sidecars: the hash definition is fixed
        values = ["key", "Zürich", "東京", "", "🙂", "key", None, 3, 2.5]
        values += [f"{v:.6g}" for v in (0.0, -0.0, 1e-7, 123456789.0, -2.5, 1 / 3)]
        for num_hashes in (1, 16, 64):
            signature = MinHashSignature(values, num_hashes=num_hashes)
            expected = reference_signature(values, num_hashes)
            assert signature.signature.tobytes() == expected.tobytes()
        assert signature.set_size == len({str(v) for v in values if v is not None})
        empty = MinHashSignature([None], num_hashes=8)
        assert empty.signature.tobytes() == reference_signature([], 8).tobytes()

    def test_numeric_profiles_hash_their_formatted_values(self):
        values = [3.0, -0.0, 1e-7, 2.5, 3.0, None, 123456789.0, 1 / 3]
        profile = profile_column("t", Column.numeric("x", values))
        formatted = [f"{float(v):.6g}" for v in values if v is not None]
        assert profile.minhash.signature.tobytes() == reference_signature(formatted, 64).tobytes()

    def test_identical_sets_have_jaccard_one(self):
        values = [f"v{i}" for i in range(50)]
        assert jaccard_estimate(values, values) == 1.0

    def test_disjoint_sets_have_low_jaccard(self):
        a = [f"a{i}" for i in range(50)]
        b = [f"b{i}" for i in range(50)]
        assert jaccard_estimate(a, b) < 0.2

    def test_containment_of_subset(self):
        superset = [f"v{i}" for i in range(100)]
        subset = [f"v{i}" for i in range(30)]
        signature_sub = MinHashSignature(subset)
        signature_super = MinHashSignature(superset)
        assert signature_sub.containment_in(signature_super) > 0.6

    def test_empty_set(self):
        assert MinHashSignature([]).jaccard(MinHashSignature(["a"])) == 0.0

    def test_mismatched_hash_counts_rejected(self):
        with pytest.raises(ValueError):
            MinHashSignature(["a"], num_hashes=16).jaccard(MinHashSignature(["a"], num_hashes=32))


class TestProfiles:
    def test_profile_numeric_column(self):
        column = Column.numeric("x", [1.0, 2.0, 2.0, None])
        profile = profile_column("t", column)
        assert profile.num_distinct == 2
        assert profile.null_fraction == pytest.approx(0.25)
        assert profile.min_value == 1.0 and profile.max_value == 2.0

    def test_key_likeness(self):
        key_like = profile_column("t", Column.numeric("id", list(range(50))))
        not_key = profile_column("t", Column.numeric("flag", [0.0, 1.0] * 25))
        assert key_like.looks_like_key
        assert not not_key.looks_like_key

    def test_profile_table_covers_all_columns(self, base_table):
        profiles = profile_table(base_table)
        assert set(profiles) == set(base_table.column_names)


class TestRepository:
    def test_add_and_get(self, base_table):
        repo = DataRepository([base_table.rename("base")])
        assert "base" in repo
        assert repo.get("base").num_rows == 6

    def test_duplicate_names_rejected(self, base_table):
        repo = DataRepository([base_table])
        with pytest.raises(ValueError):
            repo.add(base_table)

    def test_unnamed_table_rejected(self):
        with pytest.raises(ValueError):
            DataRepository([Table.from_dict({"a": [1.0]})])

    def test_missing_table_error(self, base_table):
        repo = DataRepository([base_table])
        with pytest.raises(KeyError):
            repo.get("nope")

    def test_csv_directory_roundtrip(self, tmp_path, base_table, foreign_table):
        from repro.relational.io import write_csv

        write_csv(base_table, tmp_path / "base.csv")
        write_csv(foreign_table, tmp_path / "foreign.csv")
        repo = DataRepository.from_csv_directory(tmp_path)
        assert len(repo) == 2
        assert set(repo.table_names) == {"base", "foreign"}


class TestJoinDiscovery:
    def test_finds_joinable_table_by_value_overlap(self, base_table, foreign_table):
        repo = DataRepository([foreign_table])
        candidates = JoinDiscovery().discover(base_table, repo, target="target")
        assert candidates, "expected at least one candidate join"
        best = candidates[0]
        assert best.foreign_table == "foreign"
        assert ("entity_id", "entity_id") in best.key_pairs()

    def test_does_not_propose_base_table_itself(self, base_table):
        repo = DataRepository([base_table])
        assert JoinDiscovery().discover(base_table, repo, target="target") == []

    def test_datetime_keys_marked_soft(self):
        from repro.relational.schema import DATETIME

        base = Table.from_dict({"ts": [0.0, 86400.0], "target": [1.0, 2.0]},
                               types={"ts": DATETIME}, name="b")
        weather = Table.from_dict({"ts": [0.0, 3600.0], "temp": [10.0, 12.0]},
                                  types={"ts": DATETIME}, name="weather")
        candidates = JoinDiscovery().discover(base, DataRepository([weather]), target="target")
        assert candidates and candidates[0].is_soft

    def test_candidates_sorted_by_score(self, base_table, foreign_table):
        junk = Table.from_dict({"something": ["p", "q"], "x": [1.0, 2.0]}, name="junk")
        repo = DataRepository([foreign_table, junk])
        candidates = JoinDiscovery().discover(base_table, repo, target="target")
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_join_candidate_helpers(self):
        candidate = JoinCandidate("t", [KeyPair("a", "b", soft=True)], score=0.5)
        assert candidate.is_soft
        assert candidate.base_columns == ["a"]
        assert candidate.key_pairs() == [("a", "b")]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=10, max_value=60), st.integers(min_value=2, max_value=10))
def test_stratified_sample_never_exceeds_population(n, size):
    """Property: stratified sampling returns valid, distinct indices of the right count."""
    rng = np.random.default_rng(n + size)
    y = rng.integers(0, 3, size=n).astype(float)
    indices = StratifiedSampler(random_state=0).sample_indices(n, min(size, n), y=y)
    assert len(set(indices.tolist())) == len(indices)
    assert indices.max() < n
