"""One function per reproduced table / figure of the paper's evaluation (section 7).

Every function returns a list of plain dictionaries (rows) shaped like the
corresponding artifact in the paper, so the benchmark harness just calls the
function and prints the rows.  Dataset scale, RIFS rounds and the selector list
are parameters so the offline benchmarks can run a reduced-but-faithful version
of each experiment in minutes rather than hours; the defaults are the reduced
settings used by ``benchmarks/``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.coreset import make_coreset_builder
from repro.core.arda import ARDA
from repro.core.config import ARDAConfig
from repro.datasets.micro import make_micro_benchmark
from repro.datasets.scenarios import load_dataset
from repro.evaluation.evaluator import (
    classification_accuracy,
    evaluate_base_table,
    evaluate_selector_on_matrix,
    materialize_full_join,
)
from repro.ml.automl import AutoMLSearch
from repro.relational.encoding import to_design_matrix
from repro.relational.imputation import impute_table
from repro.selection import make_selector
from repro.selection.base import CLASSIFICATION, holdout_score

FAST_SELECTORS = ("RIFS", "random forest", "sparse regression", "f-test", "mutual info", "relief")
REGRESSION_DATASETS = ("taxi", "pickup", "poverty")
CLASSIFICATION_DATASETS = ("school_s", "school_l")
DEFAULT_SCALE = 0.4
DEFAULT_RIFS_OPTIONS = {"n_rounds": 2}


def _selector_options(method: str, rifs_options: dict | None) -> dict:
    if method == "RIFS":
        return dict(rifs_options or DEFAULT_RIFS_OPTIONS)
    if method == "forward selection":
        return {"candidate_pool": 15, "max_features": 10}
    if method == "backward selection":
        return {"max_rounds": 10}
    return {}


def _improvement(base: float, augmented: float) -> float:
    """Percentage improvement over the base score (higher is better for both)."""
    if base == 0:
        return 0.0
    return 100.0 * (augmented - base) / abs(base)


# -- E1: Figure 3 — achieved augmentation and time per dataset --------------------


def experiment_figure3_augmentation(
    datasets: tuple[str, ...] = ("poverty", "school_s"),
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    include_automl: bool = True,
    automl_budget: float = 10.0,
    random_state: int = 0,
) -> list[dict]:
    """Percentage score improvement over the base table for each augmentation method."""
    rows = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale)
        base = evaluate_base_table(dataset, random_state=random_state)
        X_full, y_full, _names, _sources = materialize_full_join(
            dataset, random_state=random_state
        )

        # ARDA with RIFS
        start = time.perf_counter()
        config = ARDAConfig(
            selector="RIFS",
            selector_options=dict(rifs_options or DEFAULT_RIFS_OPTIONS),
            random_state=random_state,
        )
        report = ARDA(config).augment(dataset)
        rows.append(
            {
                "dataset": name,
                "method": "ARDA",
                "improvement_pct": round(_improvement(report.base_score, report.augmented_score), 2),
                "time_s": round(time.perf_counter() - start, 2),
            }
        )

        # all tables, no feature selection
        start = time.perf_counter()
        all_score = holdout_score(X_full, y_full, dataset.task, random_state=random_state)
        rows.append(
            {
                "dataset": name,
                "method": "All tables",
                "improvement_pct": round(_improvement(base.score, all_score), 2),
                "time_s": round(time.perf_counter() - start, 2),
            }
        )

        # TR rule as a stand-alone augmentation method
        start = time.perf_counter()
        tr_config = ARDAConfig(
            selector="all features", tuple_ratio_tau=20.0, random_state=random_state
        )
        tr_report = ARDA(tr_config).augment(dataset)
        rows.append(
            {
                "dataset": name,
                "method": "TR rule",
                "improvement_pct": round(
                    _improvement(tr_report.base_score, tr_report.augmented_score), 2
                ),
                "time_s": round(time.perf_counter() - start, 2),
            }
        )

        # base table reference row
        rows.append(
            {"dataset": name, "method": "Base table", "improvement_pct": 0.0, "time_s": 0.0}
        )

        if include_automl:
            task = "classification" if dataset.task == CLASSIFICATION else "regression"
            X_base, y_base, _enc = to_design_matrix(
                impute_table(dataset.base_table, seed=random_state), dataset.target
            )
            for label, X_fit, y_fit in (
                ("AutoML (base)", X_base, y_base),
                ("AutoML (all)", X_full, y_full),
            ):
                start = time.perf_counter()
                automl = AutoMLSearch(
                    task=task, time_budget=automl_budget, max_trials=6, random_state=random_state
                )
                score = holdout_score(
                    X_fit, y_fit, dataset.task, estimator=automl, random_state=random_state
                )
                rows.append(
                    {
                        "dataset": name,
                        "method": label,
                        "improvement_pct": round(_improvement(base.score, score), 2),
                        "time_s": round(time.perf_counter() - start, 2),
                    }
                )
    return rows


# -- E2/E3: Figure 4 and Table 1 — every selector on the real-world datasets -------


def experiment_table1_real_world(
    datasets: tuple[str, ...] = ("taxi", "poverty", "school_s"),
    selectors: tuple[str, ...] = FAST_SELECTORS,
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Error / accuracy and selection time for every selector on each dataset."""
    rows = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale)
        base = evaluate_base_table(dataset, random_state=random_state)
        rows.append(
            {
                "dataset": name,
                "method": "baseline",
                "score": round(base.score, 4),
                "error": None if base.error is None else round(base.error, 4),
                "time_s": 0.0,
                "n_selected": base.n_selected,
            }
        )
        X, y, _names, _sources = materialize_full_join(dataset, random_state=random_state)
        methods = list(selectors)
        for method in methods:
            if dataset.task == CLASSIFICATION and method == "lasso":
                continue
            if dataset.task != CLASSIFICATION and method in ("linear svc", "logistic reg"):
                continue
            record = evaluate_selector_on_matrix(
                method,
                X,
                y,
                dataset.task,
                dataset_name=name,
                random_state=random_state,
                selector_options=_selector_options(method, rifs_options),
            )
            rows.append(
                {
                    "dataset": name,
                    "method": method,
                    "score": round(record.score, 4),
                    "error": None if record.error is None else round(record.error, 4),
                    "time_s": round(record.elapsed, 2),
                    "n_selected": record.n_selected,
                }
            )
    return rows


def experiment_figure4_score_vs_time(
    datasets: tuple[str, ...] = ("poverty", "school_s"),
    selectors: tuple[str, ...] = FAST_SELECTORS,
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Score-vs-time points: %-improvement over the base table per selector."""
    table = experiment_table1_real_world(
        datasets=datasets,
        selectors=selectors,
        scale=scale,
        rifs_options=rifs_options,
        random_state=random_state,
    )
    baselines = {
        row["dataset"]: row["score"] for row in table if row["method"] == "baseline"
    }
    rows = []
    for row in table:
        if row["method"] == "baseline":
            continue
        rows.append(
            {
                "dataset": row["dataset"],
                "method": row["method"],
                "pct_change": round(_improvement(baselines[row["dataset"]], row["score"]), 2),
                "time_s": row["time_s"],
            }
        )
    return rows


# -- E4/E5: Tables 2 and 3 — coreset construction strategies ------------------------


def _coreset_score(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    strategy: str,
    size: int,
    method: str,
    rifs_options: dict | None,
    random_state: int,
) -> float:
    builder = make_coreset_builder(strategy, random_state=random_state)
    X_small, y_small = builder.reduce_matrix(X, y, size)
    record = evaluate_selector_on_matrix(
        method,
        X_small,
        y_small,
        task,
        random_state=random_state,
        selector_options=_selector_options(method, rifs_options),
    )
    return record.score


def experiment_coreset_strategies(
    datasets: tuple[str, ...],
    selectors: tuple[str, ...],
    strategies: tuple[str, ...] = ("stratified", "sketch"),
    coreset_size: int = 200,
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Accuracy / score change of each coreset strategy relative to uniform sampling.

    Covers both Table 2 (classification datasets, stratified + sketch) and
    Table 3 (regression datasets, sketch) depending on the arguments.
    """
    rows = []
    for name in datasets:
        if name in ("kraken", "digits"):
            micro = make_micro_benchmark(name, noise_factor=3, seed=random_state)
            X, y, task = micro.X, micro.y, CLASSIFICATION
        else:
            dataset = load_dataset(name, scale=scale)
            X, y, _names, _sources = materialize_full_join(dataset, random_state=random_state)
            task = dataset.task
        for method in selectors:
            if task == CLASSIFICATION and method == "lasso":
                continue
            if task != CLASSIFICATION and method in ("linear svc", "logistic reg"):
                continue
            uniform_score = _coreset_score(
                X, y, task, "uniform", coreset_size, method, rifs_options, random_state
            )
            for strategy in strategies:
                strategy_score = _coreset_score(
                    X, y, task, strategy, coreset_size, method, rifs_options, random_state
                )
                rows.append(
                    {
                        "dataset": name,
                        "method": method,
                        "strategy": strategy,
                        "pct_change_vs_uniform": round(
                            _improvement(uniform_score, strategy_score), 2
                        ),
                    }
                )
    return rows


def experiment_table2_coreset_classification(**kwargs) -> list[dict]:
    """Table 2: stratified sampling and sketching vs uniform on classification datasets."""
    kwargs.setdefault("datasets", ("school_s", "kraken", "digits"))
    kwargs.setdefault("selectors", ("RIFS", "random forest", "f-test", "all features"))
    kwargs.setdefault("strategies", ("stratified", "sketch"))
    return experiment_coreset_strategies(**kwargs)


def experiment_table3_coreset_regression(**kwargs) -> list[dict]:
    """Table 3: sketching vs uniform sampling on the regression datasets."""
    kwargs.setdefault("datasets", ("taxi", "poverty"))
    kwargs.setdefault("selectors", ("RIFS", "sparse regression", "f-test", "all features"))
    kwargs.setdefault("strategies", ("sketch",))
    return experiment_coreset_strategies(**kwargs)


# -- E6: Figure 5 — soft join strategies on time-series keys -----------------------

SOFT_JOIN_VARIANTS: tuple[tuple[str, str, bool], ...] = (
    ("Hard", "hard", False),
    ("Time-Resampled", "hard", True),
    ("Nearest", "nearest", True),
    ("2-way Nearest", "two_way_nearest", True),
)


def experiment_figure5_soft_joins(
    datasets: tuple[str, ...] = ("pickup", "taxi"),
    selectors: tuple[str, ...] = ("RIFS", "random forest", "f-test"),
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Holdout error of each soft-join strategy for time-series joins."""
    rows = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale)
        for label, strategy, resample in SOFT_JOIN_VARIANTS:
            from repro.core.join_execution import join_candidates

            joined, _contributed = join_candidates(
                dataset.base_table,
                dataset.repository,
                dataset.candidates,
                soft_strategy=strategy,
                time_resample=resample,
                rng=np.random.default_rng(random_state),
            )
            X, y, _encoding = to_design_matrix(
                impute_table(joined, seed=random_state), dataset.target
            )
            for method in selectors:
                record = evaluate_selector_on_matrix(
                    method,
                    X,
                    y,
                    dataset.task,
                    dataset_name=name,
                    random_state=random_state,
                    selector_options=_selector_options(method, rifs_options),
                )
                error = record.error if record.error is not None else 1.0 - record.score
                rows.append(
                    {
                        "dataset": name,
                        "join_strategy": label,
                        "method": method,
                        "error": round(error, 4),
                    }
                )
    return rows


# -- E7: Table 4 — Tuple-Ratio pre-filtering ----------------------------------------


def experiment_table4_tuple_ratio(
    datasets: tuple[str, ...] = ("poverty", "school_s"),
    taus: tuple[float, ...] = (15.0, 17.0, 24.0),
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Score change, speed-up and tables removed when pre-filtering with the TR rule."""
    rows = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale)
        base_config = ARDAConfig(
            selector="RIFS",
            selector_options=dict(rifs_options or DEFAULT_RIFS_OPTIONS),
            random_state=random_state,
        )
        unfiltered = ARDA(base_config).augment(dataset)
        best_row = None
        for tau in taus:
            config = ARDAConfig(
                selector="RIFS",
                selector_options=dict(rifs_options or DEFAULT_RIFS_OPTIONS),
                tuple_ratio_tau=tau,
                random_state=random_state,
            )
            filtered = ARDA(config).augment(dataset)
            score_change = _improvement(unfiltered.augmented_score, filtered.augmented_score)
            speedup = (
                unfiltered.total_time / filtered.total_time if filtered.total_time > 0 else 1.0
            )
            row = {
                "dataset": name,
                "tau": tau,
                "score_change_pct": round(score_change, 2),
                "speedup_x": round(speedup, 2),
                "tables_removed": filtered.tables_filtered_out,
            }
            if best_row is None or row["score_change_pct"] > best_row["score_change_pct"]:
                best_row = row
            rows.append(row)
        best_row = dict(best_row)
        best_row["best_for_dataset"] = True
        rows.append(best_row)
    return rows


# -- E8: Table 5 — table grouping strategies -----------------------------------------


def experiment_table5_table_grouping(
    datasets: tuple[str, ...] = ("poverty", "school_s"),
    selectors: tuple[str, ...] = ("RIFS", "random forest", "sparse regression"),
    scale: float = DEFAULT_SCALE,
    rifs_options: dict | None = None,
    random_state: int = 0,
) -> list[dict]:
    """Final-score change of table-join and full-materialisation vs budget-join."""
    rows = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale)
        for method in selectors:
            if dataset.task == CLASSIFICATION and method == "lasso":
                continue
            scores = {}
            for plan in ("budget", "table", "full"):
                config = ARDAConfig(
                    selector=method,
                    selector_options=_selector_options(method, rifs_options),
                    join_plan=plan,
                    random_state=random_state,
                )
                report = ARDA(config).augment(dataset)
                scores[plan] = report.augmented_score
            for plan in ("table", "full"):
                rows.append(
                    {
                        "dataset": name,
                        "method": method,
                        "grouping": plan,
                        "pct_change_vs_budget": round(
                            _improvement(scores["budget"], scores[plan]), 2
                        ),
                    }
                )
    return rows


# -- E9/E10: Table 6 and Figure 6 — micro benchmarks ----------------------------------


def experiment_table6_micro(
    datasets: tuple[str, ...] = ("kraken", "digits"),
    selectors: tuple[str, ...] = ("RIFS", "random forest", "f-test", "mutual info", "relief"),
    noise_factor: int = 10,
    rifs_options: dict | None = None,
    random_state: int = 0,
    samples_per_class: int = 60,
) -> list[dict]:
    """Accuracy and time of each selector on the noise-injected micro benchmarks."""
    rows = []
    for name in datasets:
        kwargs = {"samples_per_class": samples_per_class} if name == "digits" else {}
        micro = make_micro_benchmark(
            name, noise_factor=noise_factor, seed=random_state, **kwargs
        )
        base = make_micro_benchmark(name, noise_factor=0, seed=random_state, **kwargs)
        baseline_accuracy = classification_accuracy(
            micro.X[:, : base.n_real], micro.y, random_state=random_state
        )
        rows.append(
            {
                "dataset": name,
                "method": "baseline (original features)",
                "accuracy": round(baseline_accuracy, 4),
                "time_s": 0.0,
                "n_selected": base.n_real,
            }
        )
        for method in selectors:
            if method == "lasso":
                continue
            record = evaluate_selector_on_matrix(
                method,
                micro.X,
                micro.y,
                CLASSIFICATION,
                dataset_name=name,
                random_state=random_state,
                selector_options=_selector_options(method, rifs_options),
            )
            rows.append(
                {
                    "dataset": name,
                    "method": method,
                    "accuracy": round(record.score, 4),
                    "time_s": round(record.elapsed, 2),
                    "n_selected": record.n_selected,
                }
            )
    return rows


def experiment_figure6_noise_filtering(
    datasets: tuple[str, ...] = ("kraken", "digits"),
    selectors: tuple[str, ...] = ("RIFS", "random forest", "f-test", "mutual info"),
    noise_factor: int = 10,
    rifs_options: dict | None = None,
    random_state: int = 0,
    samples_per_class: int = 60,
) -> list[dict]:
    """How many features each selector keeps and what fraction of them are real."""
    rows = []
    for name in datasets:
        kwargs = {"samples_per_class": samples_per_class} if name == "digits" else {}
        micro = make_micro_benchmark(
            name, noise_factor=noise_factor, seed=random_state, **kwargs
        )
        for method in selectors:
            selector = make_selector(
                method,
                random_state=random_state,
                **_selector_options(method, rifs_options),
            )
            result = selector.select(micro.X, micro.y, task=CLASSIFICATION)
            selected = np.asarray(result.selected, dtype=np.int64)
            n_real = int(micro.real_mask[selected].sum()) if len(selected) else 0
            rows.append(
                {
                    "dataset": name,
                    "method": method,
                    "n_selected": int(len(selected)),
                    "n_real_selected": n_real,
                    "fraction_real": round(n_real / len(selected), 3) if len(selected) else 0.0,
                    "total_real": micro.n_real,
                    "total_noise": micro.n_noise,
                }
            )
    return rows


# -- Ablations of RIFS design choices ------------------------------------------------


def experiment_ablation_injection(
    dataset_name: str = "poverty",
    scale: float = DEFAULT_SCALE,
    rifs_rounds: int = 2,
    random_state: int = 0,
) -> list[dict]:
    """Moment-matched vs standard-distribution noise injection inside RIFS."""
    dataset = load_dataset(dataset_name, scale=scale)
    X, y, _names, _sources = materialize_full_join(dataset, random_state=random_state)
    rows = []
    for strategy in ("moment_matched", "standard"):
        record = evaluate_selector_on_matrix(
            "RIFS",
            X,
            y,
            dataset.task,
            dataset_name=dataset_name,
            random_state=random_state,
            selector_options={"n_rounds": rifs_rounds, "injection_strategy": strategy},
        )
        rows.append(
            {
                "dataset": dataset_name,
                "injection": strategy,
                "score": round(record.score, 4),
                "n_selected": record.n_selected,
                "time_s": round(record.elapsed, 2),
            }
        )
    return rows


def experiment_ablation_ensemble_weight(
    dataset_name: str = "poverty",
    nus: tuple[float, ...] = (0.0, 0.5, 1.0),
    scale: float = DEFAULT_SCALE,
    rifs_rounds: int = 2,
    random_state: int = 0,
) -> list[dict]:
    """Sweep the RF/SR ensemble weight nu in the RIFS aggregate ranking."""
    dataset = load_dataset(dataset_name, scale=scale)
    X, y, _names, _sources = materialize_full_join(dataset, random_state=random_state)
    rows = []
    for nu in nus:
        record = evaluate_selector_on_matrix(
            "RIFS",
            X,
            y,
            dataset.task,
            dataset_name=dataset_name,
            random_state=random_state,
            selector_options={"n_rounds": rifs_rounds, "nu": nu},
        )
        rows.append(
            {
                "dataset": dataset_name,
                "nu": nu,
                "score": round(record.score, 4),
                "n_selected": record.n_selected,
            }
        )
    return rows
