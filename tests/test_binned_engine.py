"""Tests for the histogram-binned training engine.

Pins the engine's three load-bearing guarantees:

* histogram trees are **bit-identical** to the exact-split reference on
  features whose distinct values fit in the bin budget (integer features),
* binning a table through the categorical-codes fast path produces exactly
  the bins of quantising the float design matrix,
* parallel forests and parallel RIFS rounds are **byte-identical** to their
  serial runs across all three executors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arda import ARDA
from repro.core.config import ARDAConfig
from repro.ml.binning import BinnedMatrix, check_max_bins, resolve_tree_method
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.model_selection import train_test_split
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.relational.column import Column
from repro.relational.encoding import (
    encode_features,
    encode_features_binned,
    to_binned_matrix,
    to_design_matrix,
)
from repro.relational.imputation import impute_table
from repro.relational.table import Table
from repro.selection.base import CLASSIFICATION, REGRESSION, holdout_score, infer_task
from repro.selection.rifs import RIFS

EXECUTORS = [("serial", None), ("thread", 2), ("process", 2)]


# -- BinnedMatrix ---------------------------------------------------------------


class TestBinnedMatrix:
    def test_bin_budget_respected(self, rng):
        X = rng.normal(size=(2000, 3))
        binned = BinnedMatrix.from_matrix(X, max_bins=16)
        assert binned.codes.dtype == np.uint8
        assert binned.n_bins.max() <= 16
        assert binned.shape == (2000, 3)

    def test_low_cardinality_bins_are_singletons(self):
        X = np.array([[0.0], [2.0], [2.0], [5.0]])
        binned = BinnedMatrix.from_matrix(X)
        assert binned.n_bins[0] == 3
        assert binned.bin_min[0].tolist() == [0.0, 2.0, 5.0]
        assert binned.bin_max[0].tolist() == [0.0, 2.0, 5.0]
        assert binned.codes[:, 0].tolist() == [0, 1, 1, 2]

    def test_quantile_bins_balanced(self, rng):
        X = rng.normal(size=(10_000, 1))
        binned = BinnedMatrix.from_matrix(X, max_bins=8)
        counts = np.bincount(binned.codes[:, 0], minlength=int(binned.n_bins[0]))
        assert counts.min() > 500  # roughly equal occupancy

    def test_hstack_and_take_rows(self, rng):
        a = BinnedMatrix.from_matrix(rng.normal(size=(50, 2)))
        b = BinnedMatrix.from_matrix(rng.integers(0, 3, size=(50, 1)).astype(float))
        both = a.hstack(b)
        assert both.shape == (50, 3)
        assert np.array_equal(both.codes[:, :2], a.codes)
        sub = both.take_rows(np.arange(0, 50, 5))
        assert sub.shape == (10, 3)
        assert np.array_equal(sub.codes, both.codes[::5])
        with pytest.raises(ValueError):
            a.hstack(BinnedMatrix.from_matrix(rng.normal(size=(49, 1))))

    def test_non_finite_values_map_like_the_encoder(self):
        X = np.array([[np.nan], [np.inf], [1.0], [-1.0]])
        binned = BinnedMatrix.from_matrix(X)
        cleaned = np.nan_to_num(X, nan=0.0, posinf=0.0, neginf=0.0)
        assert np.array_equal(binned.codes, BinnedMatrix.from_matrix(cleaned).codes)

    def test_zero_feature_matrix_grows_constant_leaf(self):
        # regression: the hist kernel must match the exact kernel's behaviour
        # on a zero-feature matrix (a single leaf predicting the mean)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.empty((4, 0))
        for method in ("exact", "hist"):
            for max_features in (None, "sqrt"):
                tree = DecisionTreeRegressor(tree_method=method, max_features=max_features)
                tree.fit(X, y)
                assert tree.node_count == 1
                assert tree.predict(X).tolist() == [2.5] * 4

    def test_explicit_exact_rejects_binned_input(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        binned = BinnedMatrix.from_matrix(X)
        with pytest.raises(ValueError, match="exact"):
            DecisionTreeRegressor(tree_method="exact").fit(binned, y)
        with pytest.raises(ValueError, match="exact"):
            RandomForestRegressor(tree_method="exact").fit(binned, y)

    def test_config_kernel_reaches_ranker_selectors(self):
        # ARDAConfig.tree_method governs forest-backed selectors, not just RIFS
        from repro.core.arda import ARDA

        arda = ARDA(ARDAConfig(selector="random forest", tree_method="exact"))
        options = arda._selector_options()
        assert options["tree_method"] == "exact"

    def test_max_bins_validation(self):
        with pytest.raises(ValueError):
            check_max_bins(1)
        with pytest.raises(ValueError):
            check_max_bins(256)
        with pytest.raises(ValueError):
            ARDAConfig(max_bins=300)
        with pytest.raises(ValueError):
            ARDAConfig(tree_method="bogus")

    def test_resolve_tree_method_env(self, monkeypatch):
        monkeypatch.setenv("ARDA_TREE_METHOD", "exact")
        assert resolve_tree_method(None) == "exact"
        assert resolve_tree_method("hist") == "hist"
        monkeypatch.delenv("ARDA_TREE_METHOD")
        assert resolve_tree_method(None) == "hist"
        with pytest.raises(ValueError):
            resolve_tree_method("bogus")


# -- hist ≡ exact property tests ------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hist_regression_tree_matches_exact_on_integer_features(data):
    """Property: on integer features binning is lossless, so the histogram tree

    reproduces the exact tree bit for bit — same predictions on training *and*
    unseen integer inputs, same importances, same structure.
    """
    n = data.draw(st.integers(min_value=6, max_value=60))
    d = data.draw(st.integers(min_value=1, max_value=5))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 9, size=(n, d)).astype(np.float64)
    y = rng.integers(-4, 5, size=n).astype(np.float64)
    exact = DecisionTreeRegressor(random_state=seed, tree_method="exact").fit(X, y)
    hist = DecisionTreeRegressor(random_state=seed, tree_method="hist").fit(X, y)
    X_unseen = rng.integers(0, 9, size=(64, d)).astype(np.float64)
    assert np.array_equal(exact.predict(X), hist.predict(X))
    assert np.array_equal(exact.predict(X_unseen), hist.predict(X_unseen))
    assert np.array_equal(exact.feature_importances_, hist.feature_importances_)
    assert exact.node_count == hist.node_count


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hist_classification_tree_matches_exact_on_integer_features(data):
    n = data.draw(st.integers(min_value=6, max_value=60))
    d = data.draw(st.integers(min_value=1, max_value=5))
    n_classes = data.draw(st.integers(min_value=2, max_value=4))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 7, size=(n, d)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n).astype(np.float64)
    exact = DecisionTreeClassifier(random_state=seed, tree_method="exact").fit(X, y)
    hist = DecisionTreeClassifier(random_state=seed, tree_method="hist").fit(X, y)
    X_unseen = rng.integers(0, 7, size=(64, d)).astype(np.float64)
    assert np.array_equal(exact.predict_proba(X_unseen), hist.predict_proba(X_unseen))
    assert np.array_equal(exact.feature_importances_, hist.feature_importances_)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_hist_forest_matches_exact_on_integer_features(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 10, size=(80, 4)).astype(np.float64)
    y = (X[:, 0] + rng.integers(0, 3, size=80)).astype(np.float64)
    exact = RandomForestRegressor(n_estimators=5, random_state=seed, tree_method="exact").fit(X, y)
    hist = RandomForestRegressor(n_estimators=5, random_state=seed, tree_method="hist").fit(X, y)
    assert np.array_equal(exact.predict(X), hist.predict(X))
    assert np.array_equal(exact.feature_importances_, hist.feature_importances_)


def test_hist_forest_close_to_exact_on_continuous_data(rng):
    """On continuous data (real quantile bins) hist holdout quality stays close."""
    n = 1500
    X = rng.normal(size=(n, 8))
    y = 2 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] ** 2 + rng.normal(scale=0.3, size=n)
    scores = {}
    for method in ("exact", "hist"):
        from repro.selection.base import default_estimator

        estimator = default_estimator(REGRESSION, tree_method=method)
        scores[method] = holdout_score(X, y, REGRESSION, estimator=estimator)
    assert scores["hist"] == pytest.approx(scores["exact"], abs=0.05)


# -- encoding fast path ---------------------------------------------------------


def _random_table(rng, n):
    return Table(
        [
            Column.numeric("num", rng.normal(size=n)),
            Column.numeric("ints", rng.integers(0, 5, size=n).astype(float)),
            Column.categorical("cat", [f"c{int(v)}" for v in rng.integers(0, 4, size=n)]),
            Column.categorical("hi", [f"id{int(v)}" for v in rng.integers(0, max(2, n // 2), size=n)]),
            Column.numeric("miss", [float(v) if v > 0.3 else None for v in rng.random(n)]),
            Column.numeric("target", rng.normal(size=n)),
        ],
        name="t",
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=5, max_value=120),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([3, 16, 255]),
)
def test_binned_encoding_matches_float_matrix_binning(n, seed, max_bins):
    """Property: the dictionary-codes fast path produces exactly the bins of

    quantising the float design matrix — same layout, codes and boundaries.
    """
    rng = np.random.default_rng(seed)
    table = impute_table(_random_table(rng, n), seed=0)
    encoded = encode_features(table, exclude=["target"], max_categories=3)
    reference = BinnedMatrix.from_matrix(encoded.matrix, max_bins=max_bins)
    fast = encode_features_binned(
        table, exclude=["target"], max_categories=3, max_bins=max_bins
    )
    assert fast.feature_names == encoded.feature_names
    assert fast.source_columns == encoded.source_columns
    assert np.array_equal(reference.codes, fast.codes)
    for j in range(reference.n_features):
        assert np.array_equal(reference.bin_min[j], fast.bin_min[j], equal_nan=True)
        assert np.array_equal(reference.bin_max[j], fast.bin_max[j], equal_nan=True)


def test_to_binned_matrix_aligns_with_design_matrix(rng):
    table = impute_table(_random_table(rng, 200), seed=0)
    X, y, encoding = to_design_matrix(table, "target", max_categories=3)
    binned, y_binned = to_binned_matrix(table, "target", max_categories=3)
    assert binned.feature_names == encoding.feature_names
    assert binned.shape == X.shape
    assert np.array_equal(y, y_binned)
    assert np.array_equal(binned.codes, BinnedMatrix.from_matrix(X).codes)


# -- parallel determinism -------------------------------------------------------


class TestParallelDeterminism:
    def test_forest_identical_across_executors(self, rng):
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        # each worker grows one contiguous group of trees (7 trees: 3 + 4)
        for n_estimators in (6, 7):
            reference = RandomForestClassifier(n_estimators=n_estimators, random_state=3).fit(X, y)
            _, reference_arrays = reference.to_state()
            for executor, n_jobs in EXECUTORS[1:]:
                parallel = RandomForestClassifier(
                    n_estimators=n_estimators, random_state=3, executor=executor, n_jobs=n_jobs
                ).fit(X, y)
                assert np.array_equal(reference.predict_proba(X), parallel.predict_proba(X))
                assert np.array_equal(
                    reference.feature_importances_, parallel.feature_importances_
                )
                _, arrays = parallel.to_state()
                assert arrays.keys() == reference_arrays.keys()
                for name, values in arrays.items():
                    assert values.tobytes() == reference_arrays[name].tobytes(), name

    @pytest.mark.parametrize("method", ["hist", "exact"])
    def test_rifs_selections_identical_across_executors(self, method, rng):
        X = rng.normal(size=(120, 10))
        y = X[:, 0] * 3 + X[:, 1] - X[:, 2] + rng.normal(scale=0.2, size=120)
        results = {}
        for executor, n_jobs in EXECUTORS:
            selector = RIFS(
                n_rounds=3, random_state=0, tree_method=method,
                executor=executor, n_jobs=n_jobs,
            )
            results[executor] = selector.select(X, y, task=REGRESSION)
        for executor in ("thread", "process"):
            assert np.array_equal(
                results["serial"].selected, results[executor].selected
            )
            assert np.array_equal(results["serial"].scores, results[executor].scores)

    def test_rifs_prebinned_matches_internal_binning(self, rng):
        X = rng.normal(size=(100, 8))
        y = X[:, 0] - 2 * X[:, 3] + rng.normal(scale=0.1, size=100)
        plain = RIFS(n_rounds=2, random_state=1, tree_method="hist").select(
            X, y, task=REGRESSION
        )
        prebinned = RIFS(n_rounds=2, random_state=1, tree_method="hist").select(
            X, y, task=REGRESSION, binned=BinnedMatrix.from_matrix(X)
        )
        assert np.array_equal(plain.selected, prebinned.selected)
        assert np.array_equal(plain.scores, prebinned.scores)

    def test_pipeline_identical_with_parallel_selection(self, rng):
        from repro.datasets.synthetic import RelationalDatasetBuilder, SignalTableSpec

        builder = RelationalDatasetBuilder(
            name="par", task="regression", n_rows=160, n_entities=40,
            n_base_features=3, seed=5,
        )
        builder.add_signal_table(SignalTableSpec("sig", n_signal_columns=2, key="entity"))
        builder.add_noise_tables(2, prefix="noise", n_columns=3)
        dataset = builder.build()
        serial = ARDA(ARDAConfig(selector_options={"n_rounds": 2})).augment(dataset)
        threaded = ARDA(
            ARDAConfig(
                executor="thread", n_jobs=2,
                selector_options={"n_rounds": 2},
            )
        ).augment(dataset)
        assert serial.kept_columns == threaded.kept_columns
        assert serial.augmented_score == threaded.augmented_score


# -- satellite regressions ------------------------------------------------------


class TestInferTask:
    def test_all_nan_target_raises(self):
        with pytest.raises(ValueError, match="no non-missing values"):
            infer_task(np.array([np.nan, np.nan, np.nan]))

    def test_empty_target_raises(self):
        with pytest.raises(ValueError):
            infer_task(np.array([]))

    def test_normal_targets_still_classified(self):
        assert infer_task(np.array([0.0, 1.0, np.nan])) == CLASSIFICATION
        assert infer_task(np.array([0.1, 2.7, 3.14, 1.1, 9.9, *np.arange(30)])) == REGRESSION


class TestStratifiedHoldout:
    def test_tiny_imbalanced_split_keeps_both_classes(self, rng):
        # 2 positives in 20 rows: an unstratified 25% draw frequently sees
        # no positive test row at all; the stratified split never does
        y = np.zeros(20)
        y[:2] = 1.0
        X = rng.normal(size=(20, 3))
        for seed in range(10):
            _, _, _, y_test = train_test_split(
                X, y, test_size=0.25, random_state=seed, stratify=y
            )
            assert len(np.unique(y_test)) == 2

    def test_holdout_score_stratify_flag(self, rng):
        y = np.r_[np.zeros(18), np.ones(2)]
        X = rng.normal(size=(20, 3)) + y[:, None]
        score = holdout_score(X, y, CLASSIFICATION, stratify=True, random_state=0)
        assert np.isfinite(score)
        # explicit opt-out falls back to the unstratified permutation split
        unstratified = holdout_score(X, y, CLASSIFICATION, stratify=False, random_state=0)
        assert np.isfinite(unstratified)
