"""Recursive, one-node-at-a-time CART construction: the lockstep builder's reference.

This is how :mod:`repro.ml.tree` grew a tree before trees were grown in
lockstep groups: a pre-order recursion over row-index arrays, one histogram
(or exact) split search per node.  Tests fit a tree or a whole forest both
ways and require the ``to_state()`` arrays to match byte for byte.

Construction and the per-node statistics live here, in their original
per-node form; only the exact kernel's per-feature search
(``_best_split_for_feature``, unchanged by lockstep growth) is called on the
tree itself.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fit_inputs
from repro.ml.binning import BinnedMatrix, resolve_tree_method
from repro.ml.tree import DecisionTreeClassifier, _Node, _resolve_max_features


def reference_fit(tree, X, y, sample_indices=None):
    """Grow ``tree`` (unfitted, either kind) on ``(X, y)`` recursively; returns it."""
    X, y = check_fit_inputs(X, y)
    if isinstance(tree, DecisionTreeClassifier):
        y_seen = y if sample_indices is None else y[np.asarray(sample_indices)]
        tree.classes_ = np.unique(y_seen)
        y = np.searchsorted(tree.classes_, y).astype(np.float64)
    _Builder(tree, X, y, sample_indices).run()
    return tree


def forest_draws(forest, n_rows: int) -> list[tuple[int, np.ndarray | None]]:
    """Each tree's ``(seed, bootstrap sample)``, drawn as ``forest.fit`` draws them.

    One forest RNG, seed then sample, tree by tree.
    """
    rng = np.random.default_rng(forest.random_state)
    draws = []
    for _ in range(forest.n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        draws.append((seed, rng.integers(0, n_rows, size=n_rows) if forest.bootstrap else None))
    return draws


def reference_forest_trees(forest, X, y):
    """The trees ``forest.fit(X, y)`` should grow, each grown by :func:`reference_fit`.

    A float matrix is binned once, as the forest does, under the histogram
    kernel.
    """
    X, y = check_fit_inputs(X, y)
    data = X
    if not isinstance(X, BinnedMatrix) and resolve_tree_method(forest.tree_method) == "hist":
        data = BinnedMatrix.from_matrix(X, max_bins=forest.max_bins)
    return [
        reference_fit(forest._make_tree(seed), data, y, sample)
        for seed, sample in forest_draws(forest, X.shape[0])
    ]


class _Builder:
    """State of one recursive construction."""

    def __init__(self, tree, X, y, sample_indices):
        self.tree = tree
        if isinstance(X, BinnedMatrix):
            if resolve_tree_method(tree.tree_method) == "exact":
                raise ValueError("the exact kernel cannot train on a BinnedMatrix")
            self.binned, self.X, self.method = X, None, "hist"
        else:
            self.method = resolve_tree_method(tree.tree_method)
            if self.method == "hist":
                self.binned, self.X = BinnedMatrix.from_matrix(X, max_bins=tree.max_bins), None
            else:
                self.binned, self.X = None, X
        n_rows, tree.n_features_ = X.shape
        self.y = y
        self.nodes: list[_Node] = []
        self.importances = np.zeros(tree.n_features_, dtype=np.float64)
        self.rng = np.random.default_rng(tree.random_state)
        if sample_indices is None:
            self.rows = np.arange(n_rows)
        else:
            self.rows = np.asarray(sample_indices, dtype=np.int64)
        self.n_total = len(self.rows)

    def run(self) -> None:
        tree = self.tree
        self.build(self.rows, depth=0)
        total = self.importances.sum()
        if total > 0:
            tree.feature_importances_ = self.importances / total
        else:
            tree.feature_importances_ = np.zeros(tree.n_features_, dtype=np.float64)
        tree._nodes = self.nodes

    def build(self, rows: np.ndarray, depth: int) -> int:
        tree = self.tree
        node_index = len(self.nodes)
        y = self.y[rows]
        value = self.node_value(y)
        self.nodes.append(_Node(-1, 0.0, -1, -1, value))
        n = len(rows)
        if (
            n < tree.min_samples_split
            or (tree.max_depth is not None and depth >= tree.max_depth)
            or self.node_impurity(y) <= 1e-12
        ):
            return node_index

        n_candidates = _resolve_max_features(tree.max_features, tree.n_features_)
        if n_candidates < tree.n_features_:
            candidates = self.rng.choice(tree.n_features_, size=n_candidates, replace=False)
        else:
            candidates = np.arange(tree.n_features_)

        best_gain, best_feature, best_threshold, best_bin = 0.0, -1, 0.0, -1
        if self.method == "hist":
            gains, bins, counts = self.hist_search(rows, candidates, y)
            best_index = -1
            for index in range(len(candidates)):
                if gains[index] > best_gain + 1e-15:
                    best_gain = float(gains[index])
                    best_feature = int(candidates[index])
                    best_bin = int(bins[index])
                    best_index = index
            if best_feature >= 0:
                above = np.nonzero(counts[best_index, best_bin + 1:])[0]
                bin_hi = best_bin + 1 + int(above[0])
                best_threshold = self.binned.split_threshold(best_feature, best_bin, bin_hi)
        else:
            for feature in candidates:
                gain, threshold = tree._best_split_for_feature(self.X[rows, feature], y)
                if gain > best_gain + 1e-15:
                    best_gain, best_feature, best_threshold = gain, int(feature), threshold
        if best_feature < 0:
            return node_index

        if self.method == "hist":
            mask = self.binned.codes[rows, best_feature] <= best_bin
        else:
            mask = self.X[rows, best_feature] <= best_threshold
        n_left = int(mask.sum())
        if n_left < tree.min_samples_leaf or (n - n_left) < tree.min_samples_leaf:
            return node_index

        self.importances[best_feature] += best_gain * (n / self.n_total)
        left_index = self.build(rows[mask], depth + 1)
        right_index = self.build(rows[~mask], depth + 1)
        node = self.nodes[node_index]
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = left_index
        node.right = right_index
        return node_index

    def node_value(self, y):
        if isinstance(self.tree, DecisionTreeClassifier):
            counts = np.bincount(y.astype(np.int64), minlength=len(self.tree.classes_))
            return counts / max(counts.sum(), 1)
        return np.array([float(np.mean(y))])

    def node_impurity(self, y):
        if isinstance(self.tree, DecisionTreeClassifier):
            return float(1.0 - np.sum(self.node_value(y) ** 2))
        return float(np.var(y))

    def hist_search(self, rows, candidates, y):
        binned = self.binned
        k = len(candidates)
        if k == 0:
            return np.full(0, -np.inf), np.full(0, -1), None
        n_bins = int(binned.n_bins[candidates].max())
        if n_bins < 2:
            return np.full(k, -np.inf), np.full(k, -1), None
        sub = binned.codes[np.ix_(rows, candidates)].astype(np.int64)
        m = len(rows)
        sub += np.arange(k, dtype=np.int64) * n_bins
        flat = sub.ravel()
        counts = np.bincount(flat, minlength=k * n_bins).reshape(k, n_bins)
        cum_n = np.cumsum(counts, axis=1)
        n_left = cum_n[:, :-1]
        valid = (n_left > 0) & (n_left < m)
        if isinstance(self.tree, DecisionTreeClassifier):
            gains = self.classification_gains(flat, y, cum_n, k, n_bins, m, valid)
        else:
            gains = self.regression_gains(flat, y, cum_n, k, n_bins, m, valid)
        gains = np.where(valid, gains, -np.inf)
        best = np.argmax(gains, axis=1)
        best_gains = gains[np.arange(k), best]
        best_gains = np.where(best_gains > 0, best_gains, -np.inf)
        return best_gains, best, counts

    @staticmethod
    def regression_gains(flat, y, cum_n, k, n_bins, m, valid):
        sums = np.bincount(flat, weights=np.repeat(y, k), minlength=k * n_bins).reshape(k, n_bins)
        cum_sum = np.cumsum(sums, axis=1)
        total_sum = cum_sum[:, -1:]
        n_left = cum_n[:, :-1]
        n_right = m - n_left
        left_sum = cum_sum[:, :-1]
        right_sum = total_sum - left_sum
        safe_left = np.where(valid, n_left, 1)
        safe_right = np.where(valid, n_right, 1)
        return (left_sum**2 / safe_left + right_sum**2 / safe_right - total_sum**2 / m) / m

    def classification_gains(self, flat, y, cum_n, k, n_bins, m, valid):
        n_classes = len(self.tree.classes_)
        class_codes = np.repeat(y.astype(np.int64), k)
        joint = np.bincount(
            flat * n_classes + class_codes, minlength=k * n_bins * n_classes
        ).reshape(k, n_bins, n_classes)
        cum_counts = np.cumsum(joint.astype(np.float64), axis=1)
        total_counts = cum_counts[:, -1, :]
        left_counts = cum_counts[:, :-1, :]
        right_counts = total_counts[:, None, :] - left_counts
        n_left = cum_n[:, :-1].astype(np.float64)
        n_right = m - n_left
        safe_left = np.where(valid, n_left, 1.0)
        safe_right = np.where(valid, n_right, 1.0)
        gini_left = 1.0 - np.sum((left_counts / safe_left[..., None]) ** 2, axis=2)
        gini_right = 1.0 - np.sum((right_counts / safe_right[..., None]) ** 2, axis=2)
        gini_parent = 1.0 - np.sum((total_counts / m) ** 2, axis=1)
        return gini_parent[:, None] - (n_left / m) * gini_left - (n_right / m) * gini_right
