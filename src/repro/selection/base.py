"""Common interfaces for feature rankers and feature selectors.

Two abstractions are used throughout:

* A **ranker** scores every feature (higher = more useful) without committing
  to a subset; rankers are what RIFS combines into its ensemble.
* A **selector** returns a concrete subset of feature indices, typically by
  running a search procedure (exponential search, forward selection, RIFS'
  threshold wrapper) over a ranking and a holdout score.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, clone
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import accuracy_score, r2_score
from repro.ml.model_selection import train_test_split

CLASSIFICATION = "classification"
REGRESSION = "regression"


def infer_task(y: np.ndarray, max_classes: int = 20) -> str:
    """Guess whether a target is a classification or a regression target.

    A target is treated as classification when it has few distinct values and
    all of them are (close to) integers.  A target with no observed (non-NaN)
    values cannot be classified either way and raises ``ValueError`` — it used
    to fall through as "classification" because an empty distinct set passes
    both checks vacuously.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    distinct = np.unique(y[~np.isnan(y)])
    if len(distinct) == 0:
        raise ValueError("cannot infer task: target has no non-missing values")
    if len(distinct) <= max_classes and np.allclose(distinct, np.round(distinct)):
        return CLASSIFICATION
    return REGRESSION


def default_estimator(
    task: str,
    random_state: int = 0,
    n_estimators: int = 20,
    tree_method: str | None = None,
    max_bins: int = 255,
    n_jobs: int | None = 1,
) -> BaseEstimator:
    """The lightly auto-optimised Random Forest the paper uses as its estimator.

    ``tree_method`` / ``max_bins`` / ``n_jobs`` configure the forest's split
    kernel and tree-level parallelism (see :mod:`repro.ml.binning`).
    """
    if task == CLASSIFICATION:
        return RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=10,
            random_state=random_state,
            tree_method=tree_method,
            max_bins=max_bins,
            n_jobs=n_jobs,
        )
    return RandomForestRegressor(
        n_estimators=n_estimators,
        max_depth=10,
        random_state=random_state,
        tree_method=tree_method,
        max_bins=max_bins,
        n_jobs=n_jobs,
    )


def holdout_score(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    estimator: BaseEstimator | None = None,
    test_size: float = 0.25,
    random_state: int = 0,
    stratify: bool | None = None,
) -> float:
    """Train on a split and score on the holdout (higher is better).

    Classification uses accuracy; regression uses R^2 so that both tasks share
    a "higher is better" orientation, which the search procedures rely on.
    ``stratify=None`` stratifies the split by ``y`` exactly for classification
    tasks (so a tiny coreset cannot draw a single-class holdout); pass ``True``
    or ``False`` to force either behaviour.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[1] == 0:
        return -np.inf
    estimator = estimator if estimator is not None else default_estimator(task)
    if stratify is None:
        stratify = task == CLASSIFICATION
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=test_size, random_state=random_state,
        stratify=y if stratify else None,
    )
    model = clone(estimator)
    model.fit(X_train, y_train)
    predictions = model.predict(X_test)
    if task == CLASSIFICATION:
        return accuracy_score(y_test, predictions)
    return r2_score(y_test, predictions)


@dataclass
class FeatureProvenance:
    """Where one selected (kept) augmentation column came from.

    Recorded by the pipeline for every foreign column feature selection kept:
    ``column`` is the name the column carries in the augmented table (and in
    the serving artifact), ``table`` the repository table that contributed
    it, ``position`` its index within the columns that table's join added
    (stable across renames — collision suffixes can change a column's name
    between the selection batch and final materialisation, positions cannot),
    and ``batch_index`` the join-plan batch whose selection round kept it.
    """

    column: str
    table: str
    position: int
    batch_index: int

    def to_doc(self) -> dict:
        """Plain-JSON form stored in serving artifacts."""
        return {
            "column": self.column,
            "table": self.table,
            "position": self.position,
            "batch_index": self.batch_index,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FeatureProvenance":
        """Inverse of :meth:`to_doc`."""
        return cls(
            column=doc["column"],
            table=doc["table"],
            position=int(doc["position"]),
            batch_index=int(doc["batch_index"]),
        )


@dataclass
class SelectionResult:
    """Outcome of running a feature selector.

    ``holdout_score`` is the :func:`holdout_score` of the selected columns
    when the selector already computed it with the caller's estimator, the
    selector's ``random_state`` and task-default stratification (``None``
    otherwise), so callers need not fit that forest again.
    """

    selected: np.ndarray
    scores: np.ndarray | None = None
    elapsed: float = 0.0
    method: str = ""
    details: dict = field(default_factory=dict)
    holdout_score: float | None = None

    @property
    def num_selected(self) -> int:
        """Number of selected features."""
        return len(self.selected)

    def selected_names(self, feature_names: Sequence[str]) -> list[str]:
        """Map selected indices back to feature names."""
        return [feature_names[i] for i in self.selected]


class FeatureRanker:
    """Base class for feature rankers: ``score_features`` returns one score per feature."""

    name = "ranker"

    def score_features(self, X: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
        """Per-feature usefulness scores; higher means more useful."""
        raise NotImplementedError

    def rank(self, X: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
        """Feature indices ordered from most to least useful."""
        scores = self.score_features(X, y, task)
        return np.argsort(-scores, kind="stable")


class FeatureSelector:
    """Base class for feature selectors: ``select`` returns a SelectionResult."""

    name = "selector"

    def select(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str | None = None,
        estimator: BaseEstimator | None = None,
    ) -> SelectionResult:
        """Choose a subset of feature indices for the given supervised task."""
        raise NotImplementedError

    def _timed(self, fn: Callable[[], SelectionResult]) -> SelectionResult:
        """Run ``fn`` and stamp the elapsed wall time and method name."""
        start = time.perf_counter()
        result = fn()
        result.elapsed = time.perf_counter() - start
        result.method = self.name
        return result


class AllFeaturesSelector(FeatureSelector):
    """Baseline selector that keeps every feature (the paper's "all features")."""

    name = "all features"

    def select(self, X, y, task=None, estimator=None) -> SelectionResult:
        """Return every feature index."""
        X = np.asarray(X)
        return self._timed(
            lambda: SelectionResult(selected=np.arange(X.shape[1]), scores=None)
        )
