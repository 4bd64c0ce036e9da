"""Benchmarks for the histogram-binned training engine and parallel RIFS.

On a synthetic regression design matrix (default 200k rows x 100 features,
mixed continuous / low-cardinality / one-hot-like columns) this measures:

* **forest-exact vs forest-hist** — fitting the same random forest with the
  exact sorted split search vs the histogram kernel sharing one
  :class:`~repro.ml.binning.BinnedMatrix` across all trees.
* **forest-hist-coreset** — 25 fits of the default classification forest on a
  100 x 40 matrix, the shape of ARDA's per-batch selection loop on a coreset.
  Here a tree node holds a handful of rows, so per-node dispatch, not data,
  sets the cost; the large-matrix kernels above do not see it.
* **forest-hist-coreset-regression** — 10 fits of the default regression
  forest on the same 100 x 40 matrix with its continuous target: the
  per-node leaf mean and variance, which classification forests do not
  compute, are part of that dispatch cost.
* **rifs-exact-serial vs rifs-hist-serial vs rifs-hist-parallel** — the full
  RIFS procedure (injection rounds + ranking ensemble + threshold wrapper):
  the seed configuration (exact kernel, serial rounds) against the binned
  kernel, serial and fanned out over a thread pool.  The printed ``speedup``
  is end-to-end rifs-exact-serial / rifs-hist-parallel; the parallel term
  needs as many free cores as ``--n-jobs`` to contribute (the cpu count is
  recorded alongside the ratio).
* **--scores** — holdout-score parity of the two kernels on the synthetic
  scenario suite (the acceptance criterion is agreement within 1%).

Injection uses the "standard" strategy: moment-matched injection builds an
n x n covariance, which is the right default at coreset scale but is not
meaningful to benchmark at 200k rows.

Standalone on purpose (no pytest-benchmark dependency) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_selection.py --quick --json BENCH_selection.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.ml.binning import BinnedMatrix
from repro.selection.base import CLASSIFICATION, REGRESSION, default_estimator, holdout_score
from repro.selection.rifs import RIFS


def build_matrix(rows: int, features: int, seed: int = 0):
    """A mixed-dtype regression design matrix with planted signal.

    One third continuous Gaussians, one third low-cardinality integers (the
    regime where binning is lossless), one third binary indicators (what
    one-hot encoded categoricals look like after encoding).
    """
    rng = np.random.default_rng(seed)
    X = np.empty((rows, features), dtype=np.float64)
    for j in range(features):
        kind = j % 3
        if kind == 0:
            X[:, j] = rng.normal(size=rows)
        elif kind == 1:
            X[:, j] = rng.integers(0, 12, size=rows)
        else:
            X[:, j] = rng.random(rows) < 0.3
    signal = [0, 1, 2, 3, 4]
    weights = rng.normal(size=len(signal)) + 1.0
    y = X[:, signal] @ weights + rng.normal(scale=0.5, size=rows)
    return X, y


def timed(fn, repeat: int = 1) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last return value."""
    best, value = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def make_rifs(
    tree_method: str, rounds: int, trees: int, executor: str, n_jobs, ensemble: bool = True
) -> RIFS:
    from repro.selection.rankers import RandomForestRanker, SparseRegressionRanker

    rankers = [RandomForestRanker(n_estimators=trees, tree_method=tree_method)]
    if ensemble:
        rankers.append(SparseRegressionRanker())
    return RIFS(
        n_rounds=rounds,
        injection_strategy="standard",
        rankers=rankers,
        random_state=0,
        tree_method=tree_method,
        executor=executor,
        n_jobs=n_jobs,
    )


def bench_scores(scale: float, n_seeds: int = 5) -> list[dict]:
    """Holdout-score parity of the kernels on the synthetic scenario suite.

    Scores are averaged over ``n_seeds`` estimator seeds so that single-draw
    jitter (which swings either way) is separated from a systematic kernel
    gap.  The acceptance criterion is the averaged gap staying within 1% of
    the score scale (|Δ| ≤ 0.01 on accuracy / R²).
    """
    from repro.datasets.scenarios import DATASET_NAMES, load_dataset
    from repro.relational.encoding import to_design_matrix
    from repro.relational.imputation import impute_table
    from repro.selection.base import infer_task

    rows = []
    print(f"\n{'scenario':<10} {'exact':>8} {'hist':>8} {'degraded':>9}")
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale=scale)
        X, y, _ = to_design_matrix(
            impute_table(dataset.base_table, seed=0), dataset.target
        )
        task = dataset.task or infer_task(y)
        scores = {}
        for method in ("exact", "hist"):
            per_seed = [
                holdout_score(
                    X, y, task,
                    estimator=default_estimator(task, tree_method=method, random_state=seed),
                    random_state=seed,
                )
                for seed in range(n_seeds)
            ]
            scores[method] = float(np.mean(per_seed))
        degradation = max(0.0, scores["exact"] - scores["hist"])
        print(f"{name:<10} {scores['exact']:>8.4f} {scores['hist']:>8.4f} {degradation:>9.4f}")
        rows.append(
            {
                "bench": f"scores-{name}",
                "exact_score": scores["exact"],
                "hist_score": scores["hist"],
                "degradation": degradation,
            }
        )
    worst = max(r["degradation"] for r in rows)
    print(f"worst hist-vs-exact degradation: {worst:.4f} (criterion: <= 0.01)")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=200_000)
    parser.add_argument("--features", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=3, help="RIFS injection rounds")
    parser.add_argument("--trees", type=int, default=10, help="ranker forest size")
    parser.add_argument("--n-jobs", type=int, default=4, help="parallel RIFS workers")
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke")
    parser.add_argument("--skip-exact-rifs", action="store_true",
                        help="skip the slow exact-serial RIFS baseline")
    parser.add_argument("--scores", action="store_true",
                        help="also run kernel score parity on the scenario suite")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()

    if args.quick:
        args.rows, args.features = min(args.rows, 8_000), min(args.features, 30)
        args.rounds, args.trees = min(args.rounds, 2), min(args.trees, 8)

    print(f"matrix: {args.rows} rows x {args.features} features")
    X, y = build_matrix(args.rows, args.features)
    results: list[dict] = []

    # -- forest kernels ---------------------------------------------------------
    forest_times = {}
    for method in ("exact", "hist"):
        estimator = default_estimator(REGRESSION, n_estimators=args.trees, tree_method=method)
        seconds, _ = timed(lambda e=estimator: e.fit(X, y))
        forest_times[method] = seconds
        results.append({"bench": f"forest-{method}", "seconds": seconds,
                        "rows": args.rows, "features": args.features, "trees": args.trees})
        print(f"forest-{method:<22} {seconds:>8.2f}s")
    print(f"forest hist speedup: {forest_times['exact'] / forest_times['hist']:.1f}x")

    # -- the coreset regime: many fits of a small forest on a small matrix -------
    X_small, y_continuous = build_matrix(100, 40, seed=1)
    y_small = (y_continuous > np.median(y_continuous)).astype(np.float64)
    coreset_fits = 25

    def fit_coreset_forests():
        for seed in range(coreset_fits):
            default_estimator(CLASSIFICATION, random_state=seed, tree_method="hist").fit(
                X_small, y_small
            )

    seconds, _ = timed(fit_coreset_forests)
    results.append({"bench": "forest-hist-coreset", "seconds": seconds, "rows": 100,
                    "features": 40, "fits": coreset_fits})
    print(f"{'forest-hist-coreset':<29} {seconds:>8.2f}s  ({coreset_fits} fits, 100 x 40)")

    regression_fits = 10

    def fit_coreset_regression_forests():
        for seed in range(regression_fits):
            default_estimator(REGRESSION, random_state=seed, tree_method="hist").fit(
                X_small, y_continuous
            )

    seconds, _ = timed(fit_coreset_regression_forests)
    results.append({"bench": "forest-hist-coreset-regression", "seconds": seconds,
                    "rows": 100, "features": 40, "fits": regression_fits})
    print(f"{'forest-hist-coreset-regression':<29} {seconds:>8.2f}s  "
          f"({regression_fits} fits, 100 x 40)")

    # -- binning cost (paid once, shared by every tree and round) ---------------
    seconds, _ = timed(lambda: BinnedMatrix.from_matrix(X))
    results.append({"bench": "bin-matrix", "seconds": seconds,
                    "rows": args.rows, "features": args.features})
    print(f"{'bin-matrix':<29} {seconds:>8.2f}s")

    # -- RIFS end to end --------------------------------------------------------
    # "rifs" is the paper's full RF + Sparse-Regression ensemble; "rifs-rf" is
    # the single-ranker noise-injection variant (section 6.3), whose cost is
    # dominated by the forest and therefore shows the kernel speedup undiluted.
    rifs_times = {}
    configurations = [
        ("rifs-hist-serial", "hist", "serial", None, True),
        ("rifs-hist-parallel", "hist", "thread", args.n_jobs, True),
        ("rifs-rf-hist-serial", "hist", "serial", None, False),
        ("rifs-rf-hist-parallel", "hist", "thread", args.n_jobs, False),
    ]
    if not args.skip_exact_rifs:
        configurations.insert(0, ("rifs-exact-serial", "exact", "serial", None, True))
        configurations.insert(3, ("rifs-rf-exact-serial", "exact", "serial", None, False))
    for label, method, executor, n_jobs, ensemble in configurations:
        selector = make_rifs(method, args.rounds, args.trees, executor, n_jobs, ensemble)
        estimator = default_estimator(REGRESSION, n_estimators=args.trees, tree_method=method)
        seconds, result = timed(
            lambda s=selector, e=estimator: s.select(X, y, task=REGRESSION, estimator=e)
        )
        rifs_times[label] = seconds
        results.append({"bench": label, "seconds": seconds, "rounds": args.rounds,
                        "trees": args.trees, "selected": int(result.num_selected)})
        print(f"{label:<29} {seconds:>8.2f}s  ({result.num_selected} features selected)")
    for family, exact_label in (("rifs", "rifs-exact-serial"), ("rifs-rf", "rifs-rf-exact-serial")):
        if exact_label in rifs_times:
            speedup = rifs_times[exact_label] / rifs_times[f"{family}-hist-parallel"]
            results.append({"bench": f"{family}-speedup", "ratio": speedup,
                            "cpus": os.cpu_count()})
            print(
                f"end-to-end {family} speedup (hist + {args.n_jobs} jobs vs exact serial): "
                f"{speedup:.1f}x on {os.cpu_count()} cpu(s)"
            )

    if args.scores:
        results.extend(bench_scores(scale=0.5 if args.quick else 1.0))

    if args.json:
        args.json.write_text(json.dumps({"suite": "selection", "results": results}, indent=2))
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
