"""Shared evaluation helpers used by the experiment harness and benchmarks."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.arda import ARDA
from repro.core.config import ARDAConfig
from repro.core.join_execution import join_candidates
from repro.datasets.bundle import AugmentationDataset
from repro.ml.base import clone
from repro.ml.metrics import accuracy_score, mean_absolute_error
from repro.ml.model_selection import train_test_split
from repro.relational.encoding import to_design_matrix
from repro.relational.imputation import impute_table
from repro.selection import make_selector
from repro.selection.base import CLASSIFICATION, default_estimator, holdout_score


@dataclass
class EvaluationRecord:
    """One row of an experiment table."""

    dataset: str
    method: str
    score: float
    error: float | None = None
    elapsed: float = 0.0
    n_selected: int | None = None
    extra: dict = field(default_factory=dict)


def regression_error(
    X: np.ndarray,
    y: np.ndarray,
    estimator=None,
    test_size: float = 0.25,
    random_state: int = 0,
) -> float:
    """Holdout mean absolute error of the default estimator (lower is better)."""
    estimator = estimator if estimator is not None else default_estimator("regression")
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=test_size, random_state=random_state
    )
    model = clone(estimator)
    model.fit(X_train, y_train)
    return mean_absolute_error(y_test, model.predict(X_test))


def classification_accuracy(
    X: np.ndarray,
    y: np.ndarray,
    estimator=None,
    test_size: float = 0.25,
    random_state: int = 0,
) -> float:
    """Holdout accuracy of the default estimator."""
    estimator = estimator if estimator is not None else default_estimator("classification")
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=test_size, random_state=random_state, stratify=y
    )
    model = clone(estimator)
    model.fit(X_train, y_train)
    return accuracy_score(y_test, model.predict(X_test))


def task_score(X: np.ndarray, y: np.ndarray, task: str, random_state: int = 0) -> float:
    """Primary reporting score: accuracy for classification, MAE for regression.

    Returned so that "higher is better" for classification and "lower is
    better" for regression, matching the orientation of the paper's Table 1.
    """
    if task == CLASSIFICATION:
        return classification_accuracy(X, y, random_state=random_state)
    return regression_error(X, y, random_state=random_state)


def materialize_full_join(
    dataset: AugmentationDataset,
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    max_categories: int = 12,
    random_state: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """Join every candidate table onto the base table and encode the result.

    Returns ``(X, y, feature_names, source_columns)``; this is the
    fully-materialised "uber table" the paper's "all features" baseline (and
    the micro benchmarks) operate on.
    """
    joined, _contributed = join_candidates(
        dataset.base_table,
        dataset.repository,
        dataset.candidates,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=np.random.default_rng(random_state),
    )
    X, y, encoding = to_design_matrix(
        impute_table(joined, seed=random_state),
        dataset.target,
        max_categories=max_categories,
    )
    return X, y, encoding.feature_names, encoding.source_columns


def evaluate_selector_on_matrix(
    method: str,
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    dataset_name: str = "",
    random_state: int = 0,
    selector_options: dict | None = None,
) -> EvaluationRecord:
    """Run one selector on an encoded matrix and measure the resulting model quality."""
    selector_options = selector_options or {}
    start = time.perf_counter()
    if method == "all features":
        selected = np.arange(X.shape[1])
        selection_elapsed = 0.0
    else:
        selector = make_selector(method, random_state=random_state, **selector_options)
        result = selector.select(X, y, task=task)
        selected = result.selected
        selection_elapsed = result.elapsed
    if len(selected) == 0:
        selected = np.arange(min(2, X.shape[1]))
    score = holdout_score(X[:, selected], y, task, random_state=random_state)
    error = None
    if task != CLASSIFICATION:
        error = regression_error(X[:, selected], y, random_state=random_state)
    else:
        score = classification_accuracy(X[:, selected], y, random_state=random_state)
    total_elapsed = time.perf_counter() - start
    return EvaluationRecord(
        dataset=dataset_name,
        method=method,
        score=float(score),
        error=error,
        elapsed=selection_elapsed if selection_elapsed else total_elapsed,
        n_selected=int(len(selected)),
    )


def evaluate_selector_on_dataset(
    method: str,
    dataset: AugmentationDataset,
    random_state: int = 0,
    selector_options: dict | None = None,
    soft_strategy: str = "two_way_nearest",
) -> EvaluationRecord:
    """Materialise the full join of a dataset, then evaluate one selector on it."""
    X, y, _names, _sources = materialize_full_join(
        dataset, soft_strategy=soft_strategy, random_state=random_state
    )
    record = evaluate_selector_on_matrix(
        method,
        X,
        y,
        dataset.task,
        dataset_name=dataset.name,
        random_state=random_state,
        selector_options=selector_options,
    )
    return record


def evaluate_base_table(
    dataset: AugmentationDataset, random_state: int = 0
) -> EvaluationRecord:
    """Score a model trained on the base table only (the paper's baseline row)."""
    X, y, _encoding = to_design_matrix(
        impute_table(dataset.base_table, seed=random_state), dataset.target
    )
    if dataset.task == CLASSIFICATION:
        score = classification_accuracy(X, y, random_state=random_state)
        error = None
    else:
        score = holdout_score(X, y, dataset.task, random_state=random_state)
        error = regression_error(X, y, random_state=random_state)
    return EvaluationRecord(
        dataset=dataset.name,
        method="baseline",
        score=float(score),
        error=error,
        n_selected=X.shape[1],
    )


def evaluate_augmentation(
    dataset: AugmentationDataset,
    config: ARDAConfig | None = None,
) -> EvaluationRecord:
    """Run the full ARDA pipeline on a dataset and summarise it as a record."""
    arda = ARDA(config or ARDAConfig())
    report = arda.augment(dataset)
    return EvaluationRecord(
        dataset=dataset.name,
        method=f"ARDA({(config or ARDAConfig()).selector})",
        score=report.augmented_score,
        elapsed=report.total_time,
        n_selected=len(report.kept_columns),
        extra={
            "base_score": report.base_score,
            "improvement": report.improvement,
            "kept_tables": report.kept_tables,
            "stage_times": report.stage_breakdown(),
        },
    )
