"""Tests for RIFS: injection, aggregation, noise-beat fractions and the threshold wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.selection import (
    CLASSIFICATION,
    REGRESSION,
    RIFS,
    NoiseInjectionRankingSelector,
    RandomForestRanker,
    aggregate_rankings,
    fraction_ahead_of_all_noise,
    inject_moment_matched_noise,
    inject_noise_features,
    inject_standard_noise,
)
import repro.selection.rifs as rifs_module
from repro.selection.base import SelectionResult, default_estimator, holdout_score
from repro.selection.rifs import RIFSDiagnostics
from repro.selection.injection import feature_moments
from repro.selection.tuple_ratio import TupleRatioFilter, foreign_key_domain_size, tuple_ratio
from repro.relational import Table


class TestInjection:
    def test_standard_noise_shape(self, rng):
        noise = inject_standard_noise(50, 7, rng)
        assert noise.shape == (50, 7)

    def test_standard_noise_zero_features(self, rng):
        assert inject_standard_noise(10, 0, rng).shape == (10, 0)

    def test_moment_matching_mean(self, rng):
        X = rng.normal(loc=3.0, size=(40, 200))
        mu, sigma = feature_moments(X)
        assert mu.shape == (40,)
        assert sigma.shape == (40, 40)
        assert np.allclose(mu, X.mean(axis=1))

    def test_moment_matched_noise_resembles_input(self, rng):
        X = rng.normal(loc=5.0, scale=0.1, size=(30, 100))
        noise = inject_moment_matched_noise(X, 50, rng)
        assert noise.shape == (30, 50)
        assert abs(noise.mean() - 5.0) < 0.5

    def test_inject_noise_features_mask(self, regression_matrix, rng):
        X, _y = regression_matrix
        augmented, mask = inject_noise_features(X, fraction=0.25, rng=rng)
        assert augmented.shape[0] == X.shape[0]
        assert mask.sum() == augmented.shape[1] - X.shape[1]
        assert mask.sum() >= int(np.ceil(0.25 * X.shape[1]))
        assert np.array_equal(augmented[:, : X.shape[1]], X)

    def test_unknown_strategy_rejected(self, regression_matrix, rng):
        X, _y = regression_matrix
        with pytest.raises(ValueError):
            inject_noise_features(X, strategy="bogus", rng=rng)


class TestAggregateRanking:
    def test_weighted_average(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([3.0, 2.0, 1.0])
        combined = aggregate_rankings([a, b], weights=[1.0, 0.0])
        assert np.argmax(combined) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            aggregate_rankings([np.ones(2), np.ones(3)])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            aggregate_rankings([np.ones(2)], weights=[0.0])

    def test_fraction_ahead_of_all_noise(self):
        scores = np.array([0.9, 0.2, 0.7, 0.5])  # last feature is noise
        mask = np.array([False, False, False, True])
        fractions = fraction_ahead_of_all_noise(scores, mask)
        assert fractions.tolist() == [1.0, 0.0, 1.0]

    def test_no_noise_features_means_everything_wins(self):
        fractions = fraction_ahead_of_all_noise(np.array([0.3, 0.4]), np.array([False, False]))
        assert fractions.tolist() == [1.0, 1.0]


class TestRIFS:
    def test_recovers_planted_signal_regression(self, regression_matrix):
        X, y = regression_matrix
        result = RIFS(n_rounds=3, random_state=0).select(X, y, task=REGRESSION)
        assert set(result.selected) >= {0, 1, 2}
        # noise columns should mostly be rejected
        assert len(result.selected) <= 10

    def test_noise_beat_fractions_shape_and_range(self, regression_matrix):
        X, y = regression_matrix
        fractions = RIFS(n_rounds=2).noise_beat_fractions(X, y, REGRESSION)
        assert fractions.shape == (X.shape[1],)
        assert fractions.min() >= 0.0 and fractions.max() <= 1.0

    def test_signal_features_beat_noise_more_often(self, regression_matrix):
        X, y = regression_matrix
        fractions = RIFS(n_rounds=3).noise_beat_fractions(X, y, REGRESSION)
        assert fractions[:4].mean() > fractions[4:].mean()

    def test_classification_task(self, classification_matrix):
        X, y = classification_matrix
        result = RIFS(n_rounds=2, random_state=1).select(X, y, task=CLASSIFICATION)
        assert len(set(result.selected) & {0, 1, 2}) >= 2

    def test_diagnostics_populated(self, regression_matrix):
        X, y = regression_matrix
        selector = RIFS(n_rounds=2)
        selector.select(X, y, task=REGRESSION)
        diagnostics = selector.diagnostics_
        assert diagnostics is not None
        assert diagnostics.rounds == 2
        assert len(diagnostics.thresholds_tried) >= 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RIFS(nu=2.0)
        with pytest.raises(ValueError):
            RIFS(n_rounds=0)

    def test_standard_injection_strategy(self, regression_matrix):
        X, y = regression_matrix
        result = RIFS(n_rounds=2, injection_strategy="standard").select(X, y, task=REGRESSION)
        assert len(result.selected) >= 1

    def test_never_returns_empty_selection(self, rng):
        # pure-noise input: nothing beats the injected features, fallback kicks in
        X = rng.normal(size=(80, 10))
        y = rng.normal(size=80)
        result = RIFS(n_rounds=2).select(X, y, task=REGRESSION)
        assert len(result.selected) >= 1

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_holdout_score_is_the_chosen_subsets_fresh_score(
        self, task, regression_matrix, classification_matrix
    ):
        X, y = classification_matrix if task == CLASSIFICATION else regression_matrix
        estimator = default_estimator(task, random_state=3)
        result = RIFS(n_rounds=2, random_state=5).select(X, y, task=task, estimator=estimator)
        fresh = holdout_score(X[:, result.selected], y, task, estimator=estimator, random_state=5)
        assert result.holdout_score is not None
        assert np.float64(result.holdout_score).tobytes() == np.float64(fresh).tobytes()

    def test_fallback_selection_reports_no_holdout_score(self):
        # min_keep above the feature count: every threshold's subset is too small
        X = np.random.default_rng(0).normal(size=(60, 4))
        y = X[:, 0] + 0.1
        result = RIFS(n_rounds=1, min_keep=5).select(X, y, task=REGRESSION)
        assert result.details["chosen_threshold"] is None
        assert result.holdout_score is None

    def test_result_scores_are_fractions(self, regression_matrix):
        X, y = regression_matrix
        result = RIFS(n_rounds=2).select(X, y, task=REGRESSION)
        assert result.scores is not None
        assert result.scores.min() >= 0.0 and result.scores.max() <= 1.0

    def test_single_ranker_variant(self, regression_matrix):
        X, y = regression_matrix
        selector = NoiseInjectionRankingSelector(RandomForestRanker(n_estimators=10), n_rounds=2)
        result = selector.select(X, y, task=REGRESSION)
        assert result.method == "random forest+noise"
        assert len(set(result.selected) & {0, 1, 2, 3}) >= 2


def reference_select(rifs, X, y, task, estimator=None):
    """The threshold wrapper as it was written first: one holdout fit per threshold.

    ``RIFS.select`` fits each distinct subset once; this sweep fits every
    threshold's subset, so equal results show that reusing a repeated
    subset's score changes nothing.  Returns ``(result, diagnostics)``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    diagnostics = RIFSDiagnostics(rounds=rifs.n_rounds)
    fractions = rifs.noise_beat_fractions(X, y, task)
    diagnostics.noise_beat_fraction = fractions
    best_subset, best_score, previous_score = None, -np.inf, -np.inf
    for tau in rifs.thresholds:
        subset = np.nonzero(fractions >= tau)[0]
        if len(subset) < rifs.min_keep:
            break
        score = holdout_score(
            X[:, subset], y, task, estimator=estimator,
            random_state=rifs.random_state, stratify=task == CLASSIFICATION,
        )
        diagnostics.thresholds_tried.append(tau)
        diagnostics.threshold_scores.append(score)
        if score > best_score:
            best_score, best_subset = score, subset
            diagnostics.chosen_threshold = tau
        if score < previous_score:
            break
        previous_score = score
    chosen_score = float(best_score)
    if best_subset is None or len(best_subset) == 0:
        best_subset = np.argsort(-fractions, kind="stable")[: max(rifs.min_keep, 1)]
        diagnostics.chosen_threshold = None
        chosen_score = None
    result = SelectionResult(
        selected=np.sort(best_subset),
        scores=fractions,
        details={
            "chosen_threshold": diagnostics.chosen_threshold,
            "threshold_scores": dict(
                zip(diagnostics.thresholds_tried, diagnostics.threshold_scores)
            ),
        },
        holdout_score=chosen_score,
    )
    return result, diagnostics


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestThresholdSweepReuse:
    """Each distinct threshold subset is fitted once, and nothing else changes."""

    @pytest.mark.parametrize("variant", ["RIFS", "single ranker"])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("n_rounds", [1, 2, 10])
    def test_matches_a_sweep_that_fits_every_threshold(
        self, n_rounds, task, variant, regression_matrix, classification_matrix, monkeypatch
    ):
        X, y = classification_matrix if task == CLASSIFICATION else regression_matrix
        estimator = default_estimator(task, random_state=3, n_estimators=5)
        if variant == "RIFS":
            selector = rifs = RIFS(n_rounds=n_rounds, random_state=4)
        else:
            selector = NoiseInjectionRankingSelector(
                RandomForestRanker(n_estimators=5), n_rounds=n_rounds, random_state=4
            )
            rifs = selector._rifs
        calls = []

        def counted(X_subset, *args, **kwargs):
            calls.append(X_subset.copy())
            return holdout_score(X_subset, *args, **kwargs)

        monkeypatch.setattr(rifs_module, "holdout_score", counted)
        result = selector.select(X, y, task=task, estimator=estimator)
        diagnostics = rifs.diagnostics_
        monkeypatch.undo()
        expected, expected_diagnostics = reference_select(rifs, X, y, task, estimator)

        assert np.array_equal(result.selected, expected.selected)
        assert same_bytes(result.scores, expected.scores)
        assert result.details == expected.details
        if expected.holdout_score is None:
            assert result.holdout_score is None
        else:
            assert same_bytes(result.holdout_score, expected.holdout_score)
        assert same_bytes(
            diagnostics.noise_beat_fraction, expected_diagnostics.noise_beat_fraction
        )
        assert diagnostics.thresholds_tried == expected_diagnostics.thresholds_tried
        assert same_bytes(diagnostics.threshold_scores, expected_diagnostics.threshold_scores)
        assert diagnostics.chosen_threshold == expected_diagnostics.chosen_threshold
        assert diagnostics.rounds == expected_diagnostics.rounds

        # one holdout fit per distinct subset, on that subset, in sweep order
        fractions = expected_diagnostics.noise_beat_fraction
        distinct = []
        for tau in expected_diagnostics.thresholds_tried:
            subset = np.nonzero(fractions >= tau)[0]
            if not distinct or not np.array_equal(subset, distinct[-1]):
                distinct.append(subset)
        assert len(calls) == len(distinct)
        for X_subset, subset in zip(calls, distinct):
            assert same_bytes(X_subset, X[:, subset])
        if n_rounds <= 2:
            # k <= 2 rounds leave at most k + 1 fraction values: these sweeps
            # repeat a subset, so the reuse is exercised
            assert len(distinct) < len(expected_diagnostics.thresholds_tried)


class TestTupleRatio:
    def test_domain_size_counts_distinct_keys(self):
        table = Table.from_dict({"k": [1.0, 1.0, 2.0, None], "v": [1.0, 2.0, 3.0, 4.0]}, name="f")
        assert foreign_key_domain_size(table, ["k"]) == 2

    def test_tuple_ratio_value(self):
        table = Table.from_dict({"k": [1.0, 2.0, 3.0, 4.0]}, name="f")
        assert tuple_ratio(100, table, ["k"]) == pytest.approx(25.0)

    def test_empty_domain_gives_infinite_ratio(self):
        table = Table.from_dict({"k": [None, None]}, name="f")
        assert tuple_ratio(10, table, ["k"]) == float("inf")

    def test_filter_keeps_low_ratio_tables(self):
        wide_domain = Table.from_dict({"k": [float(i) for i in range(50)]}, name="wide")
        narrow_domain = Table.from_dict({"k": [1.0, 2.0]}, name="narrow")
        tr_filter = TupleRatioFilter(tau=10.0)
        keep, decisions = tr_filter.filter_candidates(
            100, [(wide_domain, ["k"]), (narrow_domain, ["k"])]
        )
        assert keep == [0]
        assert decisions[1].tuple_ratio == pytest.approx(50.0)
        assert not decisions[1].keep

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            TupleRatioFilter(tau=0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=5, max_value=30), st.integers(min_value=2, max_value=8))
def test_injection_always_appends_requested_fraction(n_rows, n_features):
    """Property: the noise mask marks exactly the appended columns."""
    rng = np.random.default_rng(n_rows * 7 + n_features)
    X = rng.normal(size=(n_rows, n_features))
    augmented, mask = inject_noise_features(X, fraction=0.5, rng=rng)
    assert augmented.shape[1] == len(mask)
    assert (~mask[: n_features]).all()
    assert mask[n_features:].all()
