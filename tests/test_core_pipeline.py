"""Integration tests for join planning, join execution and the full ARDA pipeline."""

import numpy as np
import pytest

from repro import ARDA, ARDAConfig
from repro.core.join_execution import execute_join, join_candidates
from repro.core.join_plan import build_join_plan, estimate_feature_count
from repro.datasets import RelationalDatasetBuilder
from repro.datasets.synthetic import SignalTableSpec
from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.repository import DataRepository
from repro.relational import Table
from repro.relational.schema import DATETIME

FAST_RIFS = {"n_rounds": 2}


@pytest.fixture(scope="module")
def small_dataset():
    """A small regression dataset with 2 signal tables and 6 noise tables."""
    builder = RelationalDatasetBuilder(
        "unit", n_rows=220, n_entities=60, n_base_features=3, seed=7, noise_level=0.25
    )
    builder.add_signal_table(SignalTableSpec("alpha", n_signal_columns=2, weight=1.5))
    builder.add_signal_table(SignalTableSpec("beta", n_signal_columns=2, weight=1.0))
    builder.add_noise_tables(6, prefix="junk", n_columns=4)
    return builder.build()


class TestJoinPlan:
    def test_table_plan_one_batch_per_candidate(self, small_dataset):
        plan = build_join_plan(small_dataset.candidates, small_dataset.repository, "table")
        assert len(plan) == len(small_dataset.candidates)
        assert all(len(batch) == 1 for batch in plan)

    def test_full_plan_single_batch(self, small_dataset):
        plan = build_join_plan(small_dataset.candidates, small_dataset.repository, "full")
        assert len(plan) == 1
        assert len(plan[0]) == len(small_dataset.candidates)

    def test_budget_plan_respects_budget(self, small_dataset):
        plan = build_join_plan(
            small_dataset.candidates, small_dataset.repository, "budget", budget=10
        )
        assert len(plan) > 1
        for batch in plan[:-1]:
            assert batch.estimated_features <= 10 or len(batch) == 1

    def test_budget_plan_orders_by_score(self, small_dataset):
        plan = build_join_plan(
            small_dataset.candidates, small_dataset.repository, "budget", budget=1000
        )
        scores = [c.score for batch in plan for c in batch.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_strategy(self, small_dataset):
        with pytest.raises(ValueError):
            build_join_plan(small_dataset.candidates, small_dataset.repository, "bogus")

    def test_estimate_feature_count_excludes_keys(self, small_dataset):
        candidate = small_dataset.candidates[0]
        table = small_dataset.repository.get(candidate.foreign_table)
        assert estimate_feature_count(candidate, small_dataset.repository) == table.num_columns - 1


class TestJoinExecution:
    def test_execute_hard_join_prefixes_columns(self, base_table, foreign_table):
        repo = DataRepository([foreign_table])
        candidate = JoinCandidate("foreign", [KeyPair("entity_id", "entity_id")])
        joined = execute_join(base_table, repo.get("foreign"), candidate)
        assert "foreign.value" in joined
        assert joined.num_rows == base_table.num_rows

    def test_execute_soft_join_time_key(self):
        base = Table.from_dict(
            {"ts": [0.0, 86400.0, 172800.0], "target": [1.0, 2.0, 3.0]},
            types={"ts": DATETIME}, name="b",
        )
        weather = Table.from_dict(
            {"ts": [3600.0 * i for i in range(48)], "temp": [float(i) for i in range(48)]},
            types={"ts": DATETIME}, name="weather",
        )
        candidate = JoinCandidate("weather", [KeyPair("ts", "ts", soft=True)])
        joined = execute_join(base, weather, candidate, soft_strategy="nearest")
        assert "weather.temp" in joined
        # day 0 aggregates hours 0..23 -> mean 11.5
        assert joined["weather.temp"].values[0] == pytest.approx(11.5)

    def test_join_candidates_reports_contributed_columns(self, small_dataset):
        batch = small_dataset.candidates[:2]
        joined, contributed = join_candidates(
            small_dataset.base_table, small_dataset.repository, batch
        )
        assert set(contributed) == {c.foreign_table for c in batch}
        for columns in contributed.values():
            for name in columns:
                assert name in joined

    def test_soft_strategy_validation(self, base_table, foreign_table):
        candidate = JoinCandidate("foreign", [KeyPair("entity_id", "entity_id", soft=True)])
        with pytest.raises(ValueError):
            execute_join(base_table, foreign_table, candidate, soft_strategy="bogus")


class TestARDAConfig:
    def test_invalid_join_plan(self):
        with pytest.raises(ValueError):
            ARDAConfig(join_plan="everything")

    def test_invalid_soft_join(self):
        with pytest.raises(ValueError):
            ARDAConfig(soft_join="fuzzy")

    def test_invalid_coreset(self):
        with pytest.raises(ValueError):
            ARDAConfig(coreset_strategy="reservoir")

    def test_invalid_estimator(self):
        with pytest.raises(ValueError):
            ARDAConfig(estimator="xgboost")

    def test_forest_option_it_cannot_apply_is_rejected_by_name(self):
        # the forests are built with max_depth=10 whatever the option says
        with pytest.raises(ValueError, match="'max_depth'"):
            ARDAConfig(estimator_options={"max_depth": 1})

    def test_automl_option_it_cannot_apply_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="'max_depth'"):
            ARDAConfig(estimator="automl", estimator_options={"max_depth": 1})

    def test_n_estimators_sizes_every_forest(self):
        arda = ARDA(ARDAConfig(estimator_options={"n_estimators": 7}))
        assert arda._make_selection_estimator("regression").n_estimators == 7
        assert arda._make_final_estimator("classification").n_estimators == 7


class TestARDAPipeline:
    @pytest.fixture(scope="class")
    def report(self, small_dataset):
        config = ARDAConfig(selector="RIFS", selector_options=FAST_RIFS, random_state=0)
        return ARDA(config).augment(small_dataset)

    def test_augmentation_improves_score(self, report):
        assert report.augmented_score > report.base_score

    def test_signal_tables_are_kept(self, report):
        assert {"alpha", "beta"} <= set(report.kept_tables)

    def test_augmented_table_contains_all_base_columns(self, report, small_dataset):
        for name in small_dataset.base_table.column_names:
            assert name in report.augmented_table

    def test_augmented_table_preserves_row_count(self, report, small_dataset):
        assert report.augmented_table.num_rows == small_dataset.base_table.num_rows

    def test_report_bookkeeping(self, report, small_dataset):
        assert report.tables_considered == len(small_dataset.candidates)
        assert report.total_time > 0
        assert len(report.batches) >= 1
        assert report.summary()["dataset"] == "unit"

    def test_relative_improvement_sign(self, report):
        assert report.relative_improvement > 0

    def test_missing_target_raises(self, small_dataset):
        arda = ARDA(ARDAConfig(selector_options=FAST_RIFS))
        with pytest.raises(KeyError):
            arda.augment_tables(
                small_dataset.base_table.drop("target"),
                small_dataset.repository,
                target="target",
            )

    def test_runs_without_precomputed_candidates(self, small_dataset):
        """ARDA should fall back to its own join discovery."""
        config = ARDAConfig(
            selector="random forest", coreset_size=150, random_state=0
        )
        report = ARDA(config).augment_tables(
            small_dataset.base_table,
            small_dataset.repository,
            target="target",
            task="regression",
        )
        assert report.tables_considered > 0

    def test_tuple_ratio_prefilter_reduces_tables(self, small_dataset):
        config = ARDAConfig(
            selector="random forest", tuple_ratio_tau=0.5, random_state=0
        )
        report = ARDA(config).augment(small_dataset)
        assert report.tables_filtered_out > 0

    def test_table_join_plan_runs(self, small_dataset):
        config = ARDAConfig(
            selector="random forest", join_plan="table", coreset_size=120, random_state=0
        )
        report = ARDA(config).augment(small_dataset)
        assert report.augmented_score >= report.base_score - 0.2

    def test_automl_gets_only_its_own_options(self, small_dataset):
        """``n_estimators`` sizes the forests; the AutoML search gets its own knobs.

        Forwarding ``n_estimators`` to ``AutoMLSearch`` used to raise a
        ``TypeError`` at final scoring, after discovery, joins and selection.
        """
        options = {"n_estimators": 5, "time_budget": 2.0, "max_trials": 2, "cv": 2}
        config = ARDAConfig(
            estimator="automl", estimator_options=options, selector_options=FAST_RIFS,
            capture_pipeline=False, random_state=0,
        )
        arda = ARDA(config)
        search = arda._make_final_estimator("regression")
        assert (search.time_budget, search.max_trials, search.cv) == (2.0, 2, 2)
        assert arda._make_selection_estimator("regression").n_estimators == 5
        report = arda.augment(small_dataset)
        assert np.isfinite(report.augmented_score)

    def test_classification_pipeline(self):
        builder = RelationalDatasetBuilder(
            "clf_unit", task="classification", n_rows=220, n_entities=60,
            n_base_features=3, seed=11, base_signal_weight=0.4,
        )
        builder.add_signal_table(SignalTableSpec("signal", n_signal_columns=3, weight=2.0))
        builder.add_noise_tables(4, prefix="junk", n_columns=4)
        dataset = builder.build()
        config = ARDAConfig(selector="RIFS", selector_options=FAST_RIFS, random_state=1)
        report = ARDA(config).augment(dataset)
        assert report.task == "classification"
        assert report.augmented_score >= report.base_score
        assert "signal" in report.kept_tables


class TestEvaluationHarness:
    def test_evaluate_augmentation_record(self, small_dataset):
        from repro.evaluation import evaluate_augmentation

        record = evaluate_augmentation(
            small_dataset, ARDAConfig(selector="random forest", random_state=0)
        )
        assert record.method.startswith("ARDA")
        assert record.extra["improvement"] == pytest.approx(
            record.score - record.extra["base_score"]
        )

    def test_materialize_full_join_dims(self, small_dataset):
        from repro.evaluation import materialize_full_join

        X, y, names, sources = materialize_full_join(small_dataset)
        assert X.shape[0] == small_dataset.base_table.num_rows
        assert len(names) == X.shape[1] == len(sources)

    def test_evaluate_selector_on_dataset(self, small_dataset):
        from repro.evaluation import evaluate_selector_on_dataset

        record = evaluate_selector_on_dataset("f-test", small_dataset)
        assert record.n_selected >= 1
        assert record.error is not None

    def test_format_table(self):
        from repro.evaluation import format_table

        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": None}])
        assert "a" in text and "22" in text

    def test_reporting_rows(self, small_dataset):
        from repro.evaluation import evaluate_selector_on_dataset, records_to_rows

        rows = records_to_rows([evaluate_selector_on_dataset("f-test", small_dataset)])
        assert rows[0]["method"] == "f-test"
