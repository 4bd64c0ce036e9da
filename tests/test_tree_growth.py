"""Lockstep tree growth: every tree comes out byte-identical to the recursive reference.

:func:`repro.ml.tree.grow_trees` grows a group of trees together, one node
per tree per step, and scores all of a step's histogram splits in shared
numpy calls.  The recursive one-node-at-a-time builder it replaced lives in
``tests/tree_reference.py``; these tests require the two to agree byte for
byte on every ``to_state()`` array, and pin the two properties lockstep growth
must keep on its own: a bounded working set per step and no Python recursion.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.binning import BinnedMatrix
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tree_reference import forest_draws, reference_forest_trees

MAX_FEATURES = [None, "all", "sqrt", "log2", 0.3, 1.0, 1, 2, 5]


def assert_same_state(tree, reference):
    doc, arrays = tree.to_state()
    ref_doc, ref_arrays = reference.to_state()
    assert doc == ref_doc
    assert arrays.keys() == ref_arrays.keys()
    for name, values in arrays.items():
        assert values.dtype == ref_arrays[name].dtype, name
        assert values.shape == ref_arrays[name].shape, name
        assert values.tobytes() == ref_arrays[name].tobytes(), name


@st.composite
def training_sets(draw):
    """A small matrix mixing integer, continuous and non-finite columns, and a target."""
    n = draw(st.integers(min_value=2, max_value=120))
    d = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.normal(size=(n, d))
    integer = rng.random(d) < 0.5
    X[:, integer] = rng.integers(-3, 4, size=(n, int(integer.sum())))
    non_finite = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    X[non_finite] = rng.choice([np.nan, np.inf, -np.inf], size=int(non_finite.sum()))
    if draw(st.booleans()):
        n_classes = draw(st.integers(min_value=1, max_value=12))
        labels = np.sort(rng.normal(scale=5.0, size=n_classes))
        y = labels[rng.integers(0, n_classes, size=n)]
        return X, y, True
    return X, np.round(rng.normal(size=n) * 10.0, draw(st.sampled_from([0, 3]))), False


def forest_options(draw_from):
    return dict(
        n_estimators=draw_from(st.integers(min_value=1, max_value=25)),
        max_depth=draw_from(st.sampled_from([None, 1, 3, 10])),
        min_samples_split=draw_from(st.sampled_from([2, 3, 7])),
        min_samples_leaf=draw_from(st.sampled_from([1, 2, 4])),
        max_features=draw_from(st.sampled_from(MAX_FEATURES)),
        bootstrap=draw_from(st.booleans()),
        max_bins=draw_from(st.sampled_from([2, 16, 255])),
        random_state=draw_from(st.integers(min_value=0, max_value=2**31 - 1)),
    )


def check_against_reference(method, data):
    X, y, is_classification = data.draw(training_sets())
    options = forest_options(data.draw)
    forest_cls = RandomForestClassifier if is_classification else RandomForestRegressor
    forest = forest_cls(tree_method=method, **options).fit(X, y)
    reference = reference_forest_trees(forest_cls(tree_method=method, **options), X, y)
    assert len(forest.estimators_) == len(reference)
    for tree, expected in zip(forest.estimators_, reference):
        assert_same_state(tree, expected)
    # a single tree is a group of one
    seed, sample = forest_draws(forest, X.shape[0])[0]
    data_matrix = BinnedMatrix.from_matrix(X, max_bins=forest.max_bins) if method == "hist" else X
    alone = forest._make_tree(seed).fit(data_matrix, y, sample_indices=sample)
    assert_same_state(alone, reference[0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hist_forest_matches_recursive_reference(data):
    check_against_reference("hist", data)


# sorting ±inf and NaN features makes the exact kernel's boundary arithmetic
# warn (inf - inf); both builders run the same per-feature search on them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_forest_matches_recursive_reference(data):
    check_against_reference("exact", data)


@pytest.mark.parametrize("method", ["hist", "exact"])
def test_trees_seeing_different_class_counts_match_reference(method):
    """Bootstraps of 12 classes over 30 rows see 5 to 12 of them.

    Trees with different class counts share lockstep steps; their Gini sums
    must still run over their own class axes (numpy sums more than 8 terms
    pairwise, so zero-padding a 5-class tree to 9 classes would move bits).
    """
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 6))
    y = rng.integers(0, 12, size=30).astype(float)
    options = dict(n_estimators=25, max_depth=None, random_state=11, tree_method=method)
    forest = RandomForestClassifier(**options).fit(X, y)
    assert len({len(tree.classes_) for tree in forest.estimators_}) > 2
    assert any(len(tree.classes_) <= 8 for tree in forest.estimators_)
    assert any(len(tree.classes_) > 8 for tree in forest.estimators_)
    for tree, expected in zip(forest.estimators_, reference_forest_trees(
            RandomForestClassifier(**options), X, y)):
        assert_same_state(tree, expected)


# numpy sums a contiguous float array pairwise: 8 strided accumulators up to
# 128 elements, halves above that; lengths on both sides of each boundary
PAIRWISE_LENGTHS = [1, 2, 7, 8, 9, 16, 127, 128, 129, 255, 256, 257, 1000, 2000]
SPECIAL_TARGETS = [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def regression_targets(draw):
    """Float64 targets of 1-2,000 rows: mixed magnitudes, repeats and specials."""
    n = draw(st.one_of(st.sampled_from(PAIRWISE_LENGTHS), st.integers(1, 2000)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=6))
    kind = draw(st.sampled_from(["spread", "repeated", "constant", "offset"]))
    if kind == "spread":
        y = rng.normal(size=n) * scale
    elif kind == "repeated":
        y = rng.choice(rng.normal(size=3) * scale, size=n)
    elif kind == "constant":
        y = np.full(n, rng.normal() * scale)
    else:  # a large mean with small deviations: where summation order shows
        y = scale + rng.normal(size=n) * 1e-3
    specials = draw(st.lists(st.sampled_from(SPECIAL_TARGETS), max_size=3))
    if specials:
        y[rng.integers(0, n, size=len(specials))] = specials
    return y


# ±inf targets make both sides subtract inf from inf
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(regression_targets())
def test_regression_node_statistics_equal_numpy_mean_and_var(y):
    tree = DecisionTreeRegressor()
    value = tree._node_value(y)
    assert value.dtype == np.float64
    assert value.tobytes() == np.array([float(np.mean(y))]).tobytes()
    impurity = tree._node_impurity(y, value)
    assert type(impurity) is float
    assert np.float64(impurity).tobytes() == np.float64(float(np.var(y))).tobytes()


@pytest.mark.parametrize("method", ["hist", "exact"])
def test_regression_forest_past_pairwise_blocks_matches_reference(method):
    """Nodes of hundreds of rows: leaf means and variances cross numpy's blocks."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1500, 5))
    X[:, 1] = rng.integers(0, 12, size=1500)
    y = 1e6 + 300.0 * X[:, 0] + 50.0 * X[:, 1] + rng.normal(size=1500)
    options = dict(n_estimators=4, max_depth=4, random_state=9, tree_method=method)
    forest = RandomForestRegressor(**options).fit(X, y)
    reference = reference_forest_trees(RandomForestRegressor(**options), X, y)
    for tree, expected in zip(forest.estimators_, reference):
        assert_same_state(tree, expected)
    # nodes of 1,500, ~750 and ~375 rows: numpy's pairwise halving is in play
    assert all(tree.depth() == 4 for tree in forest.estimators_)


def test_forest_step_memory_is_bounded_by_one_root_search():
    """A 20-tree forest needs little more memory than fitting its first tree alone.

    Lockstep steps are sliced so no call gathers more (row, candidate) cells
    than one tree's root search.  With every feature a candidate, that root
    gather dominates a tree's memory; unsliced, the forest's first step would
    gather all 20 roots at once (about 20 times the single-tree peak).
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10_000, 60))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    binned = BinnedMatrix.from_matrix(X)
    forest = RandomForestClassifier(
        n_estimators=20, max_features=None, max_depth=4, tree_method="hist"
    )
    seed, sample = forest_draws(forest, X.shape[0])[0]
    peaks = []
    for fit in (
        lambda: forest._make_tree(seed).fit(binned, y, sample_indices=sample),
        lambda: forest.fit(binned, y),
    ):
        tracemalloc.start()
        try:
            fit()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tree_alone, whole_forest = peaks
    assert whole_forest <= 1.5 * tree_alone, (tree_alone, whole_forest)


def test_deep_exact_tree_needs_no_recursion():
    """Alternating labels on one sorted feature: a 1,499-level chain of splits."""
    X = np.arange(1500.0)[:, None]
    y = np.arange(1500) % 2
    tree = DecisionTreeClassifier(tree_method="exact", max_depth=None).fit(X, y)
    assert tree.depth() == 1499
    assert tree.node_count == 2999
    assert np.array_equal(tree.predict(X), y)
