"""RIFS — Random Injection Feature Selection (Algorithms 1-3 of the paper).

RIFS decides whether features produced by candidate joins carry signal by
comparing them against injected random features:

1. **Algorithm 2 / injection** — append ``eta * d`` random feature columns
   (moment-matched Gaussian by default) to the data matrix.
2. **Algorithm 1 / scoring** — rank the combined matrix with an ensemble of a
   Random-Forest ranker and a Sparse-Regression (L2,1) ranker, repeat ``k``
   times with fresh noise, and record for each real feature the fraction of
   rounds in which it out-ranked *every* injected noise feature.
3. **Algorithm 3 / threshold wrapper** — sweep a set of thresholds ``tau`` in
   increasing order and score the features whose fraction is at least ``tau``
   on a holdout split.  The sweep continues while the score does not fall and
   stops at the first fall; it returns the first subset that reached the best
   score, which is not always the subset just before the fall (an equal score
   later on does not replace it).  Ascending thresholds nest the subsets, so
   equal subsets are consecutive, and each distinct subset is fitted once:
   a threshold whose subset equals the previous one's reuses that score.

Execution model: the ``k`` injection rounds are mutually independent, so each
round draws its randomness from its own spawned child of the selector seed and
the rounds fan out over a pluggable :class:`~repro.core.executor.JoinExecutor`
(``executor=`` / ``n_jobs=``).  Round results are 0/1 indicator vectors summed
in round order, so serial, thread and process execution return **byte-identical
selections**.  With the histogram tree kernel the real features are quantised
into a shared :class:`~repro.ml.binning.BinnedMatrix` once — each round only
bins its own small noise block and appends it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.executor import JoinExecutor, make_executor
from repro.ml.binning import BinnedMatrix
from repro.selection.aggregate import aggregate_rankings, fraction_ahead_of_all_noise
from repro.selection.base import (
    CLASSIFICATION,
    FeatureRanker,
    FeatureSelector,
    SelectionResult,
    holdout_score,
    infer_task,
)
from repro.selection.injection import inject_noise_features
from repro.selection.rankers import RandomForestRanker, SparseRegressionRanker

DEFAULT_THRESHOLDS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _run_injection_round(shared, seed):
    """One injection round; top-level so process pools can pickle it.

    The matrix, target and shared binning travel via the executor's
    shared-payload channel (delivered once per process worker, closed over
    for free in threads) — only the round seed is per-task.  Every source of
    randomness in the round (noise draw, per-ranker seeds) comes from the
    round's own spawned seed, and rankers are deep-copied before their seeds
    are set, so rounds are independent of execution order and of each other.
    """
    X, y, task_kind, rankers, weights, eta, strategy, binned = shared
    rng = np.random.default_rng(seed)
    augmented, noise_mask = inject_noise_features(
        X, fraction=eta, strategy=strategy, rng=rng
    )
    binned_augmented = None
    if binned is not None:
        noise_block = augmented[:, X.shape[1]:]
        binned_augmented = binned.hstack(
            BinnedMatrix.from_matrix(noise_block, max_bins=binned.max_bins)
        )
    score_vectors = []
    for ranker in rankers:
        ranker = copy.deepcopy(ranker)
        if hasattr(ranker, "random_state"):
            ranker.random_state = int(rng.integers(0, 2**31 - 1))
        if binned_augmented is not None and getattr(ranker, "uses_binned_matrix", False):
            score_vectors.append(ranker.score_features(binned_augmented, y, task_kind))
        else:
            score_vectors.append(ranker.score_features(augmented, y, task_kind))
    aggregate = aggregate_rankings(score_vectors, weights)
    return fraction_ahead_of_all_noise(aggregate, noise_mask)


@dataclass
class RIFSDiagnostics:
    """Intermediate quantities exposed for inspection and testing."""

    noise_beat_fraction: np.ndarray | None = None
    thresholds_tried: list[float] = field(default_factory=list)
    threshold_scores: list[float] = field(default_factory=list)
    chosen_threshold: float | None = None
    rounds: int = 0


class RIFS(FeatureSelector):
    """Random-injection feature selection.

    Parameters
    ----------
    eta:
        Fraction of random features to inject relative to the number of real
        features (the paper uses 0.2).
    n_rounds:
        Number of injection rounds ``k`` (the paper uses 10).
    nu:
        Weight of the Random-Forest ranking in the aggregate (Sparse
        Regression gets ``1 - nu``).
    thresholds:
        Increasing thresholds ``tau`` swept by the wrapper (Algorithm 3).
    injection_strategy:
        ``"moment_matched"`` (Algorithm 2) or ``"standard"`` distributions.
    tree_method / max_bins:
        Split kernel of the default Random-Forest ranker and the sharing of a
        :class:`~repro.ml.binning.BinnedMatrix` across rounds (``None``
        resolves via ``ARDA_TREE_METHOD``, default histogram).
    executor / n_jobs:
        Backend and worker count for fanning the injection rounds out; all
        backends return byte-identical selections.
    """

    name = "RIFS"
    accepts_binned = True

    def __init__(
        self,
        eta: float = 0.2,
        n_rounds: int = 10,
        nu: float = 0.5,
        thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
        injection_strategy: str = "moment_matched",
        rankers: list[FeatureRanker] | None = None,
        random_state: int = 0,
        min_keep: int = 1,
        tree_method: str | None = None,
        max_bins: int = 255,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
    ):
        if not 0 <= nu <= 1:
            raise ValueError("nu must be in [0, 1]")
        if n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        self.eta = eta
        self.n_rounds = n_rounds
        self.nu = nu
        self.thresholds = tuple(sorted(thresholds))
        self.injection_strategy = injection_strategy
        self.rankers = rankers
        self.random_state = random_state
        self.min_keep = min_keep
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.executor = executor
        self.n_jobs = n_jobs
        self.diagnostics_: RIFSDiagnostics | None = None

    # -- Algorithm 1: noise-beat fractions -------------------------------------

    def noise_beat_fractions(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str,
        binned: BinnedMatrix | None = None,
    ) -> np.ndarray:
        """Fraction of rounds each real feature out-ranks all injected noise.

        ``binned`` may carry a prebuilt quantisation of ``X`` (e.g. straight
        from :func:`repro.relational.encoding.to_binned_matrix`); otherwise
        the real features are binned here, once, when any ranker runs on the
        histogram kernel.  A passed ``binned`` must quantise exactly the
        columns of ``X`` in order — it is shared read-only across rounds and
        never mutated.

        RNG contract: round ``i`` consumes only the ``i``-th child of
        ``SeedSequence(random_state).spawn(n_rounds)`` (noise draw first,
        then one per-ranker seed per configured ranker); the selector-level
        RNG state is untouched.  Rounds are summed in round order, so
        serial/thread/process executors return bit-identical fractions.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        rankers, weights = self._resolve_rankers(task)
        wants_binned = any(getattr(r, "uses_binned_matrix", False) for r in rankers)
        if not wants_binned:
            binned = None
        elif binned is None:
            binned = BinnedMatrix.from_matrix(X, max_bins=self.max_bins)
        seeds = np.random.SeedSequence(self.random_state).spawn(self.n_rounds)
        shared = (X, y, task, rankers, weights, self.eta, self.injection_strategy, binned)
        executor = make_executor(self.executor, self.n_jobs)
        try:
            rounds = executor.map_with_shared(_run_injection_round, shared, seeds)
        finally:
            executor.shutdown()
        totals = np.zeros(X.shape[1], dtype=np.float64)
        for fractions in rounds:  # fixed round order: executor-independent sums
            totals += fractions
        return totals / self.n_rounds

    def uses_binned_matrix(self, task: str) -> bool:
        """Whether any configured ranker would consume a shared BinnedMatrix.

        Callers (the ARDA batch loop) probe this before paying for a
        table-level binning pass that a custom all-exact ranker list would
        just throw away.
        """
        rankers, _ = self._resolve_rankers(task)
        return any(getattr(ranker, "uses_binned_matrix", False) for ranker in rankers)

    def _resolve_rankers(self, task: str) -> tuple[list[FeatureRanker], list[float]]:
        if self.rankers is not None:
            return list(self.rankers), [1.0] * len(self.rankers)
        return (
            [
                RandomForestRanker(
                    random_state=self.random_state,
                    tree_method=self.tree_method,
                    max_bins=self.max_bins,
                ),
                SparseRegressionRanker(),
            ],
            [self.nu, 1.0 - self.nu],
        )

    # -- Algorithm 3: threshold wrapper ------------------------------------------

    def select(
        self, X, y, task=None, estimator=None, binned: BinnedMatrix | None = None
    ) -> SelectionResult:
        """Run the full RIFS procedure and return the selected feature indices.

        ``binned`` (optional) is the shared :class:`BinnedMatrix` fast path —
        see :meth:`noise_beat_fractions` for its contract; callers should
        probe :meth:`uses_binned_matrix` first so an all-exact ranker list
        does not pay for a binning pass.  Inputs are never mutated; the
        threshold wrapper's holdout splits derive from ``random_state`` (via
        :func:`~repro.selection.base.holdout_score`), so repeated calls with
        the same arguments return identical selections.  Diagnostics of the
        last call are exposed on ``self.diagnostics_`` (the only attribute
        ``select`` writes).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        task = task or infer_task(y)

        def run() -> SelectionResult:
            diagnostics = RIFSDiagnostics(rounds=self.n_rounds)
            fractions = self.noise_beat_fractions(X, y, task, binned=binned)
            diagnostics.noise_beat_fraction = fractions

            best_subset: np.ndarray | None = None
            best_score = -np.inf
            previous_score = -np.inf
            previous_subset: np.ndarray | None = None
            for tau in self.thresholds:
                subset = np.nonzero(fractions >= tau)[0]
                if len(subset) < self.min_keep:
                    break
                # ascending thresholds nest the subsets, so equal ones are
                # consecutive: the same columns, split and seed fit the same
                # forest, whose score the previous threshold already holds
                if previous_subset is None or not np.array_equal(subset, previous_subset):
                    score = holdout_score(
                        X[:, subset], y, task, estimator=estimator,
                        random_state=self.random_state,
                        stratify=task == CLASSIFICATION,
                    )
                previous_subset = subset
                diagnostics.thresholds_tried.append(tau)
                diagnostics.threshold_scores.append(score)
                if score > best_score:
                    best_score = score
                    best_subset = subset
                    diagnostics.chosen_threshold = tau
                if score < previous_score:
                    # the score fell: stop, keeping the first subset that
                    # reached the best score (ties do not move it)
                    break
                previous_score = score
            chosen_score = float(best_score)
            if best_subset is None or len(best_subset) == 0:
                # fall back to the highest-fraction features so we never return nothing
                order = np.argsort(-fractions, kind="stable")
                best_subset = order[: max(self.min_keep, 1)]
                diagnostics.chosen_threshold = None
                chosen_score = None
            self.diagnostics_ = diagnostics
            return SelectionResult(
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

        return self._timed(run)


class NoiseInjectionRankingSelector(FeatureSelector):
    """A single-ranker variant of RIFS (e.g. "Random Forest ranker with our noise injection rule").

    Uses one ranker's scores, the same noise-beat-fraction statistic and the
    same threshold wrapper, but no ensemble.  The paper notes this variant is
    marginally faster than full RIFS and still achieves augmentation.
    """

    accepts_binned = True

    def __init__(
        self,
        ranker: FeatureRanker,
        name: str | None = None,
        eta: float = 0.2,
        n_rounds: int = 5,
        thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
        injection_strategy: str = "moment_matched",
        random_state: int = 0,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
    ):
        self.ranker = ranker
        self.name = name or f"{ranker.name}+noise"
        self.eta = eta
        self.n_rounds = n_rounds
        self.thresholds = thresholds
        self.injection_strategy = injection_strategy
        self.random_state = random_state
        self._rifs = RIFS(
            eta=eta,
            n_rounds=n_rounds,
            thresholds=thresholds,
            injection_strategy=injection_strategy,
            rankers=[ranker],
            random_state=random_state,
            executor=executor,
            n_jobs=n_jobs,
        )

    def uses_binned_matrix(self, task: str) -> bool:
        """Whether the wrapped ranker consumes a shared BinnedMatrix."""
        return self._rifs.uses_binned_matrix(task)

    def select(self, X, y, task=None, estimator=None, binned=None) -> SelectionResult:
        """Delegate to a single-ranker RIFS instance.

        Accepts the same optional shared ``binned`` matrix as
        :meth:`RIFS.select` (forwarded untouched) and inherits its
        determinism contract: results depend only on the constructor
        arguments and inputs, never on the executor backend.
        """
        result = self._rifs.select(X, y, task=task, estimator=estimator, binned=binned)
        result.method = self.name
        return result


__all__ = [
    "RIFS",
    "RIFSDiagnostics",
    "NoiseInjectionRankingSelector",
    "DEFAULT_THRESHOLDS",
]
