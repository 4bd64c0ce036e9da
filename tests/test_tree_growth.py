"""Lockstep tree growth: every tree comes out byte-identical to the recursive reference.

:func:`repro.ml.tree.grow_trees` grows a group of trees together, one node
per tree per step, and scores all of a step's histogram splits in shared
numpy calls.  The recursive one-node-at-a-time builder it replaced lives in
``tests/tree_reference.py``; these tests require the two to agree byte for
byte on every ``to_state()`` array, and pin what lockstep growth must keep on
its own: a bounded working set per step, no Python recursion, candidate draws
equal to ``Generator.choice``'s, and work counted per step, not per node.

The hypothesis suites below are also the deep run of CI's stress step: under
``-m stress`` with ``ARDA_STRESS`` set they run derandomized, ``ARDA_STRESS /
100`` times as many examples as tier-1 does.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import tree as tree_module
from repro.ml.binning import BinnedMatrix
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from stress import deep_settings
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


@pytest.mark.stress
@deep_settings(150)
@given(st.data())
def test_hist_forest_matches_recursive_reference(data):
    check_against_reference("hist", data)


# sorting ±inf and NaN features makes the exact kernel's boundary arithmetic
# warn (inf - inf); both builders run the same per-feature search on them
@pytest.mark.stress
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@deep_settings(60)
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


# -- candidate draws ---------------------------------------------------------


def choice_calls(seed: int, n: int, k: int, count: int) -> list[np.ndarray]:
    """``count`` successive ``choice(n, size=k, replace=False)`` calls on one generator."""
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=k, replace=False) for _ in range(count)]


def growth_draws(seeds: list[int], n: int, k: int, n_steps: int) -> list[list[np.ndarray]]:
    """The candidate sets trees seeded ``seeds`` search, drawn as lockstep steps draw them.

    Tree ``i`` takes part in every ``i + 1``-th step only, so its refills fall
    on other steps than its neighbours' and batch with varying company.
    """
    growths = [
        tree_module._Growth(
            DecisionTreeRegressor(max_features=k, random_state=seed),
            np.zeros(1), np.zeros(1, dtype=np.int64), n,
        )
        for seed in seeds
    ]
    drawn = [[] for _ in growths]
    for step in range(n_steps):
        pending = [
            tree_module._Pending(growth, 0, None, 0)
            for i, growth in enumerate(growths) if step % (i + 1) == 0
        ]
        tree_module._draw_candidates(pending)
        for p in pending:
            drawn[growths.index(p.growth)].append(p.candidates)
    return drawn


def assert_same_sets(drawn, expected):
    assert len(drawn) == len(expected)
    for got, want in zip(drawn, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@st.composite
def choice_shapes(draw):
    """``(n, k)`` with ``1 <= k < n <= 20,000``; half the draws in the batched range."""
    n = draw(st.integers(min_value=2, max_value=20_000))
    batched = min(n - 1, tree_module._BATCHED_CANDIDATES_MAX)
    k = draw(st.one_of(st.integers(1, batched), st.integers(1, n - 1)))
    return n, k


@pytest.mark.stress
@deep_settings(200)
@given(
    shape=choice_shapes(),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    batch=st.sampled_from([1, 7, 64]),
    n_steps=st.integers(1, 150),
)
def test_candidate_draws_equal_successive_choice_calls(shape, seeds, batch, n_steps):
    """Every tree searches the sets ``rng.choice`` would return, call after call.

    Trees refill their batches together, in steps, at batch sizes of 1 (a
    refill every step), 7 and 64; ``n`` and ``k`` reach past numpy's switch to
    its tail shuffle (``n > 10,000`` and ``k > n // 50``).
    """
    n, k = shape
    default = tree_module._DRAW_BATCH
    tree_module._DRAW_BATCH = batch
    try:
        drawn = growth_draws(seeds, n, k, n_steps)
    finally:
        tree_module._DRAW_BATCH = default
    for i, (seed, sets) in enumerate(zip(seeds, drawn)):
        assert len(sets) == len(range(0, n_steps, i + 1))
        assert_same_sets(sets, choice_calls(seed, n, k, len(sets)))


# numpy's Generator.choice(n, k, replace=False) tail-shuffles when n > 10,000
# and k > n // 50, and runs Floyd's algorithm otherwise
FLOYD_EDGES = [(10_001, 100), (20_000, 400)]
TAIL_SHUFFLE_EDGES = [(10_001, 201), (20_000, 401)]


@pytest.mark.parametrize("n, k", FLOYD_EDGES + TAIL_SHUFFLE_EDGES)
def test_batched_draws_replay_choice_up_to_its_tail_shuffle(n, k):
    """A batch replays Floyd's branch exactly, right up to numpy's other branch.

    Past the boundary ``choice`` draws differently, so a batch would not
    match; trees draw that many candidates with ``choice`` itself.
    """
    seeds = (5, 6)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    batches = np.concatenate([tree_module._choice_batches(rngs, n, k) for _ in range(2)], axis=1)
    for seed, batch in zip(seeds, batches):
        expected = choice_calls(seed, n, k, len(batch))
        same = all(got.tobytes() == want.tobytes() for got, want in zip(batch, expected))
        assert same == ((n, k) in FLOYD_EDGES)
    for seed, sets in zip(seeds, growth_draws(list(seeds), n, k, 40)):
        assert_same_sets(sets, choice_calls(seed, n, k, len(sets)))


def test_forests_do_not_depend_on_the_draw_batch(monkeypatch):
    """A forest's bytes are the same whether trees draw 1, 7, 32 or 64 sets at a time."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(400, 40))
    X[:, :10] = rng.integers(0, 5, size=(400, 10))
    labels = rng.integers(0, 3, size=400).astype(float)
    target = X[:, 0] * 3.0 + X[:, 12] + rng.normal(size=400)
    options = dict(max_depth=None, random_state=2)
    fits = [
        lambda: RandomForestClassifier(n_estimators=6, **options).fit(X, labels),
        lambda: RandomForestRegressor(n_estimators=6, **options).fit(X, target),
        lambda: RandomForestClassifier(n_estimators=3, tree_method="exact", **options).fit(
            X, labels),
    ]
    expected = [fit() for fit in fits]
    # deep trees: searches run through several batches of every size tried
    assert min(tree.node_count for tree in expected[0].estimators_) > 2 * 64
    for batch in (1, 7, 64):
        monkeypatch.setattr(tree_module, "_DRAW_BATCH", batch)
        for fit, forest in zip(fits, expected):
            for tree, reference in zip(fit().estimators_, forest.estimators_):
                assert_same_state(tree, reference)


# -- work counters -------------------------------------------------------------


class CountingGenerator(np.random.Generator):
    """``default_rng``'s generator, counting ``choice`` calls."""

    choices = 0

    def choice(self, *args, **kwargs):
        CountingGenerator.choices += 1
        return super().choice(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Counts ``_node_value`` calls per tree, and ``Generator.choice`` calls."""
    calls = Counter()
    for cls in (DecisionTreeClassifier, DecisionTreeRegressor):

        def node_value(self, y, original=cls._node_value):
            calls[id(self)] += 1
            return original(self, y)

        monkeypatch.setattr(cls, "_node_value", node_value)
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed=None: CountingGenerator(np.random.PCG64(seed))
    )
    monkeypatch.setattr(CountingGenerator, "choices", 0)
    return calls


@pytest.mark.parametrize("method", ["hist", "exact"])
@pytest.mark.parametrize(
    "n_features, max_features",
    [(30, "sqrt"), (600, tree_module._BATCHED_CANDIDATES_MAX), (40, None)],
)
def test_classification_forest_counts_classes_per_step(
    counted, method, n_features, max_features
):
    """One ``_node_value`` call per tree, for its root, and no ``choice`` call.

    Children's class counts come from their parent's step and candidate sets
    from batched draws.  A fallback to per-node work fails here, where a
    timing would hide it in noise.
    """
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, n_features))
    y = rng.integers(0, 3, size=200).astype(float)
    forest = RandomForestClassifier(
        n_estimators=8, max_depth=None, max_features=max_features, tree_method=method
    ).fit(X, y)
    assert sum(tree.node_count for tree in forest.estimators_) > 8 * 20
    assert [counted[id(tree)] for tree in forest.estimators_] == [1] * 8
    assert CountingGenerator.choices == 0


@pytest.mark.parametrize("method", ["hist", "exact"])
def test_regression_forest_counts_statistics_per_node(counted, method):
    """Regression nodes keep their per-node ``np.add.reduce`` statistics."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 30))
    y = X[:, 0] + rng.normal(size=200)
    forest = RandomForestRegressor(n_estimators=8, tree_method=method).fit(X, y)
    assert [counted[id(tree)] for tree in forest.estimators_] == [
        tree.node_count for tree in forest.estimators_
    ]
    assert CountingGenerator.choices == 0


def test_more_candidates_than_a_batch_serves_come_from_choice(counted):
    """Past ``_BATCHED_CANDIDATES_MAX`` every searched node calls ``choice`` once."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 60))
    y = rng.integers(0, 2, size=150).astype(float)
    k = tree_module._BATCHED_CANDIDATES_MAX + 1
    forest = RandomForestClassifier(n_estimators=4, max_features=k).fit(X, y)
    internal = sum(
        int((tree.to_state()[1]["feature"] >= 0).sum()) for tree in forest.estimators_
    )
    assert CountingGenerator.choices >= internal > 0
