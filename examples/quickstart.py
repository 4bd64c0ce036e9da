"""Quickstart: augment a small base table against a repository of candidate tables.

Builds a tiny synthetic regression dataset (a base table plus a handful of
joinable tables, only some of which carry signal), runs ARDA end to end with
RIFS feature selection, and prints what was kept and how much the model
improved.

Run with:  python examples/quickstart.py
"""

from repro import ARDA, ARDAConfig
from repro.datasets import RelationalDatasetBuilder
from repro.datasets.synthetic import SignalTableSpec


def main() -> None:
    # 1. Build a dataset: a base table keyed by entity_id, two signal tables
    #    and eight pure-noise tables in the repository.
    builder = RelationalDatasetBuilder(
        "quickstart",
        task="regression",
        n_rows=400,
        n_entities=100,
        n_base_features=3,
        seed=0,
    )
    builder.add_signal_table(SignalTableSpec("demographics", n_signal_columns=2, weight=1.5))
    builder.add_signal_table(SignalTableSpec("economics", n_signal_columns=2, weight=1.0))
    builder.add_noise_tables(8, prefix="irrelevant", n_columns=5)
    dataset = builder.build()

    print("Dataset:", dataset.summary())
    print("Candidate tables:", dataset.repository.table_names[:5], "...")

    # 2. Configure and run ARDA.  RIFS is the default feature selector; we use
    #    fewer injection rounds here so the example finishes in a few seconds.
    #    The thread executor runs each batch's joins concurrently (results are
    #    byte-identical to the serial path), and the repository's profile
    #    cache lets repeated runs over it skip column re-profiling.
    config = ARDAConfig(
        selector="RIFS",
        selector_options={"n_rounds": 3},
        join_plan="budget",
        coreset_strategy="uniform",
        executor="thread",
        n_jobs=4,
        random_state=0,
    )
    report = ARDA(config).augment(dataset)

    # 3. Inspect the result.
    print()
    print(f"Base-table score (R^2):      {report.base_score:.3f}")
    print(f"Augmented score (R^2):       {report.augmented_score:.3f}")
    print(f"Improvement:                 {report.improvement:+.3f}")
    print(f"Tables kept:                 {report.kept_tables}")
    print(f"Columns added:               {len(report.kept_columns)}")
    print(f"Total time:                  {report.total_time:.1f}s")
    print(f"Stage breakdown:             "
          f"{ {k: round(v, 2) for k, v in report.stage_breakdown().items()} }")
    print()
    print("Augmented table columns:")
    for name in report.augmented_table.column_names:
        print("  -", name)


if __name__ == "__main__":
    main()
