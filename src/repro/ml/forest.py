"""Random forests built from bagged CART trees.

Random forests serve two roles in ARDA: they are the default final estimator
used to measure augmentation quality, and (via impurity-based feature
importances) one half of the RIFS ranking ensemble.

The forest quantises the training matrix **once** (``tree_method="hist"``) and
every tree trains on the shared :class:`~repro.ml.binning.BinnedMatrix`;
bootstrap resamples are index draws into it, never matrix copies.  Trees are
grown in lockstep groups (:func:`repro.ml.tree.grow_trees`): the forest cuts
its trees into one contiguous group per worker of the same pluggable
:class:`~repro.core.executor.JoinExecutor` pools the join engine uses (the
serial executor grows one group of all trees).  All per-tree randomness (seed
and bootstrap sample) is drawn up front from the forest RNG in tree order —
interleaved exactly like the historical serial loop — and a tree comes out of
any group exactly as if grown alone, so serial, thread and process execution
produce byte-identical forests.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import JoinExecutor, make_executor
from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_fit_inputs,
)
from repro.ml.binning import DEFAULT_MAX_BINS, BinnedMatrix, resolve_tree_method
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, grow_trees


def _fit_tree_group(shared, group):
    """Grow one ``(trees, samples)`` group against the shared ``(data, y)`` payload.

    Top-level so process pools can pickle it; the training data travels via
    the executor's shared-payload channel (once per worker), never per group.
    """
    data, y = shared
    trees, samples = group
    grow_trees(trees, data, y, samples)
    return trees


class _BaseForest(BaseEstimator):
    """Shared bagging machinery for forest classifiers and regressors."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int | None = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
        tree_method: str | None = None,
        max_bins: int = DEFAULT_MAX_BINS,
        n_jobs: int | None = 1,
        executor: str | JoinExecutor = "thread",
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.n_jobs = n_jobs
        self.executor = executor
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def _fit_forest(self, X, y: np.ndarray) -> None:
        if isinstance(X, BinnedMatrix):
            if resolve_tree_method(self.tree_method) == "exact":
                raise ValueError(
                    "the exact kernel cannot train on a BinnedMatrix; "
                    "pass the float matrix instead"
                )
            data = X
        elif resolve_tree_method(self.tree_method) == "hist":
            data = BinnedMatrix.from_matrix(X, max_bins=self.max_bins)
        else:
            data = X
        rng = np.random.default_rng(self.random_state)
        n, n_features = X.shape
        # per-tree randomness drawn up front, interleaved exactly like the
        # historical serial loop, so executor choice can't change the forest
        trees, samples = [], []
        for _ in range(self.n_estimators):
            trees.append(self._make_tree(int(rng.integers(0, 2**31 - 1))))
            samples.append(rng.integers(0, n, size=n) if self.bootstrap else None)
        executor = make_executor(self.executor, self.n_jobs)
        try:
            bounds = np.linspace(0, len(trees), executor.n_jobs + 1).astype(int)
            groups = [
                (trees[lo:hi], samples[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
            ]
            grown = executor.map_with_shared(_fit_tree_group, (data, y), groups)
        finally:
            executor.shutdown()
        self.estimators_ = [tree for group in grown for tree in group]
        importances = np.zeros(n_features, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        if total > 0:
            self.feature_importances_ = importances / total
        else:
            self.feature_importances_ = np.zeros(n_features, dtype=np.float64)


    # persistence ----------------------------------------------------------------

    _PARAM_NAMES = (
        "n_estimators",
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "max_features",
        "bootstrap",
        "random_state",
        "tree_method",
        "max_bins",
        "n_jobs",
    )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The fitted forest as ``(plain doc, named arrays)``.

        Per-tree arrays are namespaced ``tree<i>/<name>`` so the whole forest
        flattens into one page dictionary for
        :mod:`repro.serving.artifact`.  The executor backend is stored by
        *name* (a live pool is process state, not model state); a restored
        forest predicts bit-identically but refits on whatever executor it is
        configured with.
        """
        if not self.estimators_:
            raise RuntimeError("cannot serialise an unfitted forest")
        executor = self.executor if isinstance(self.executor, str) else self.executor.name
        doc = {
            "params": {name: getattr(self, name) for name in self._PARAM_NAMES},
            "executor": executor,
            "trees": [],
        }
        arrays: dict[str, np.ndarray] = {
            "importances": np.asarray(self.feature_importances_, dtype=np.float64)
        }
        for i, tree in enumerate(self.estimators_):
            tree_doc, tree_arrays = tree.to_state()
            doc["trees"].append(tree_doc)
            for key, value in tree_arrays.items():
                arrays[f"tree{i}/{key}"] = value
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        params = doc["params"]
        for name in self._PARAM_NAMES:
            if name in params:
                setattr(self, name, params[name])
        self.executor = doc.get("executor", "thread")
        tree_cls = type(self._make_tree(0))
        self.estimators_ = []
        for i, tree_doc in enumerate(doc["trees"]):
            prefix = f"tree{i}/"
            tree_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self.estimators_.append(tree_cls.from_state(tree_doc, tree_arrays))
        self.feature_importances_ = np.asarray(arrays["importances"], dtype=np.float64)

    @classmethod
    def from_state(cls, doc: dict, arrays: dict[str, np.ndarray]):
        """Rebuild a fitted forest written by :meth:`to_state`."""
        forest = cls()
        forest._restore_state(doc, arrays)
        return forest


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged ensemble of CART regression trees (prediction = mean of trees)."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
            tree_method=self.tree_method,
            max_bins=self.max_bins,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the forest on training data (a float matrix or a BinnedMatrix)."""
        X, y = check_fit_inputs(X, y)
        self._fit_forest(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        """Average the predictions of all trees.

        Accumulates tree-by-tree (like the classifier's soft vote) instead of
        ``stack().mean(axis=0)``: numpy's pairwise reduction blocks differently
        for different batch widths, so the stacked mean could round a row's
        prediction differently depending on how many rows it was scored with.
        Sequential accumulation gives every row the same addition order at any
        batch size — a micro-batching server must return bit-identical
        predictions however requests get coalesced.
        """
        X = check_array(X)
        if not self.estimators_:
            raise RuntimeError("forest must be fitted before prediction")
        total = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.estimators_:
            total += tree.predict(X)
        return total / len(self.estimators_)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged ensemble of CART classification trees (soft voting)."""

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit the forest on training data (a float matrix or a BinnedMatrix)."""
        X, y = check_fit_inputs(X, y)
        self.classes_ = np.unique(y)
        self._fit_forest(X, y)
        return self

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
            tree_method=self.tree_method,
            max_bins=self.max_bins,
        )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """See :meth:`_BaseForest.to_state`; adds the forest-level class vector."""
        doc, arrays = super().to_state()
        arrays["classes"] = np.asarray(self.classes_, dtype=np.float64)
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        super()._restore_state(doc, arrays)
        self.classes_ = np.asarray(arrays["classes"], dtype=np.float64)

    def predict_proba(self, X) -> np.ndarray:
        """Average the class-probability estimates of all trees.

        Columns correspond to ``self.classes_``; trees that never saw a class
        contribute zero probability for it.
        """
        X = check_array(X)
        if not self.estimators_:
            raise RuntimeError("forest must be fitted before prediction")
        n_classes = len(self.classes_)
        class_index = {cls: i for i, cls in enumerate(self.classes_)}
        total = np.zeros((X.shape[0], n_classes), dtype=np.float64)
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            for j, cls in enumerate(tree.classes_):
                total[:, class_index[cls]] += probabilities[:, j]
        total /= len(self.estimators_)
        return total

    def predict(self, X) -> np.ndarray:
        """Predict the class with the highest averaged probability."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
