"""The ARDA system: end-to-end automatic relational data augmentation.

Given a base table (with a prediction target), a repository of candidate
tables and a collection of candidate joins, :class:`ARDA` produces an augmented
table containing all original columns plus the foreign columns that actually
improve a predictive model, following the workflow of section 3 of the paper:

1. (optional) discover candidate joins if none are supplied,
2. (optional) pre-filter candidates with the Tuple-Ratio rule,
3. build a coreset of base-table rows,
4. build a join plan (budget batching by default),
5. for each batch: execute the joins, impute, encode, and run feature
   selection (RIFS by default) to decide which foreign columns to keep,
6. materialise the kept columns onto the full base table and train the final
   estimator to measure the achieved augmentation.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.coreset import make_coreset_builder
from repro.coreset.base import default_coreset_size
from repro.core.config import AUTOML_SEARCH_OPTIONS, ARDAConfig
from repro.core.executor import make_executor
from repro.core.join_execution import (
    join_candidates_detailed,
    prepare_kept_joins,
    replay_kept_joins,
)
from repro.core.join_plan import build_join_plan
from repro.core.results import AugmentationReport, BatchReport
from repro.datasets.bundle import AugmentationDataset
from repro.discovery.candidates import JoinCandidate
from repro.discovery.discovery import JoinDiscovery
from repro.discovery.repository import DataRepository, RepositorySnapshot
from repro.ml.automl import AutoMLSearch
from repro.relational.column import Column
from repro.relational.encoding import encode_features_binned, to_design_matrix
from repro.relational.imputation import impute_table
from repro.relational.join import (
    StreamingHashJoin,
    StreamJoinStats,
    as_chunk_source,
    iter_grace_left_join,
)
from repro.relational.persist import write_table_stream
from repro.relational.schema import NUMERIC
from repro.relational.table import Table, unique_name
from repro.selection import make_selector
from repro.selection.base import default_estimator, holdout_score, infer_task
from repro.selection.tuple_ratio import TupleRatioFilter


class ARDA:
    """Automatic relational data augmentation system."""

    def __init__(self, config: ARDAConfig | None = None):
        self.config = config or ARDAConfig()
        # the repository opened from config.repository_dir, kept across
        # augment calls so sweeps reuse the warm catalog, LRU and profiles
        self._opened_repository: DataRepository | None = None
        self._opened_repository_key: tuple | None = None

    # -- public API -----------------------------------------------------------------

    def augment(self, dataset: AugmentationDataset) -> AugmentationReport:
        """Run the full pipeline on a prepared :class:`AugmentationDataset`."""
        return self.augment_tables(
            base_table=dataset.base_table,
            repository=dataset.repository,
            target=dataset.target,
            candidates=dataset.candidates or None,
            task=dataset.task,
            soft_key_columns=dataset.soft_key_columns,
            dataset_name=dataset.name,
        )

    def augment_tables(
        self,
        base_table: Table,
        repository: DataRepository | RepositorySnapshot | None,
        target: str,
        candidates: list[JoinCandidate] | None = None,
        task: str | None = None,
        soft_key_columns: list[str] | None = None,
        dataset_name: str = "",
        augmented_path: str | Path | None = None,
    ) -> AugmentationReport:
        """Run the full pipeline on raw tables.

        ``candidates`` may be omitted, in which case join discovery is run over
        the repository first (the paper's normal mode is to consume an external
        discovery system's output).  ``repository`` may also be omitted
        (``None``) when ``config.repository_dir`` names a directory of binary
        table files: the pipeline then opens it as a lazy disk-backed
        repository with ``config.lru_tables`` decoded tables kept alive.

        The whole run reads one pinned manifest generation
        (:meth:`~repro.discovery.repository.DataRepository.snapshot`): a
        concurrent ``replace``/``remove`` on the repository can never hand
        discovery one version of a table and the final materialisation
        another.  Pass a :class:`~repro.discovery.repository.RepositorySnapshot`
        directly to control the pinned generation yourself.

        Out-of-core mode: ``base_table`` may be a chunked table source
        (:class:`~repro.relational.persist.ChunkedTableReader`, anything with
        ``iter_chunks``) instead of a :class:`Table`.  The pipeline then never
        materialises the base: the coreset is gathered with a chunk-pruned
        :meth:`~repro.relational.persist.ChunkedTableReader.take`, feature
        selection runs on the coreset exactly as before, and the final
        materialisation streams base chunks through build-once hash joins with
        zone-map pruning, writing the augmented table chunk-by-chunk to
        ``augmented_path`` (no full output is written when the path is
        omitted).  Each kept build side is aggregated once, and the coreset
        replay, the streamed joins and the captured pipeline all probe it.
        Peak memory is bounded by the coreset plus one base chunk per kept
        join plus those build sides, which the batch loop already aggregated
        whole, so nothing spills.  In this mode the report's
        ``augmented_table`` holds the *coreset* materialisation, the scores
        are coreset-level, ``augmented_path``/``stream_stats`` record the
        streamed output and the per-table pruning ratios, and a kept *soft*
        join falls back to materialising the base (soft joins need global
        nearest-neighbour context).
        """
        config = self.config
        start = time.perf_counter()
        out_of_core = not isinstance(base_table, Table)
        base_source = as_chunk_source(base_table)
        repository = self._resolve_repository(repository)
        if isinstance(repository, DataRepository):
            # the pin is dropped when this snapshot goes out of scope at the
            # end of the call (weakref-finalised), or — if a pipeline capture
            # binds it — when the captured pipeline is dropped
            repository = repository.snapshot()
        if target not in base_table:
            raise KeyError(f"target column {target!r} not found in base table")
        if task is None:
            from repro.relational.encoding import encode_target

            task = infer_task(encode_target(base_table.column(target)))

        discovery_time = 0.0
        if candidates is None:
            discovery_start = time.perf_counter()
            # sharded profiling: fan per-(table, chunk-range) work over the
            # configured executor backend; rankings are byte-identical to
            # serial, so the executor changes wall-clock only
            discovery_executor = (
                make_executor(config.executor, config.n_jobs)
                if config.executor != "serial"
                else None
            )
            try:
                candidates = JoinDiscovery().discover(
                    base_table,
                    repository,
                    target=target,
                    soft_key_columns=soft_key_columns,
                    executor=discovery_executor,
                )
            finally:
                if discovery_executor is not None:
                    discovery_executor.shutdown()
            if config.persist_profiles and repository.is_disk_backed:
                # the next process serves every discovery profile from the
                # sidecar without reading a single table body; a repository
                # on read-only storage just skips the save (best effort)
                try:
                    repository.save_profiles()
                except OSError:
                    pass
            discovery_time = time.perf_counter() - discovery_start
        candidates = list(candidates)
        tables_considered = len(candidates)

        # Tuple-Ratio pre-filter (Table 4)
        tables_filtered = 0
        if config.tuple_ratio_tau is not None:
            tr_filter = TupleRatioFilter(tau=config.tuple_ratio_tau)
            keep, _decisions = tr_filter.filter_candidates(
                base_table.num_rows,
                [
                    (repository.get(c.foreign_table), c.foreign_columns)
                    for c in candidates
                ],
            )
            tables_filtered = len(candidates) - len(keep)
            candidates = [candidates[i] for i in keep]

        # coreset construction
        coreset_start = time.perf_counter()
        coreset = self._build_coreset(base_source, target)
        coreset_time = time.perf_counter() - coreset_start
        # out of core, scores and the pipeline capture run on the coreset
        score_base = coreset if out_of_core else base_table

        # join plan
        budget = config.budget if config.budget is not None else max(coreset.num_rows, 50)
        batches = build_join_plan(
            candidates, repository, strategy=config.join_plan, budget=budget
        )
        executor = make_executor(config.executor, config.n_jobs)

        estimator = self._make_selection_estimator(task)
        rng = np.random.default_rng(config.random_state)

        # baseline on the coreset (used for batch-level comparisons only)
        selector = make_selector(
            config.selector, random_state=config.random_state, **self._selector_options()
        )
        # selectors that advertise accepts_binned get the table's quantised
        # design matrix alongside the float one (same feature layout), so the
        # histogram kernel reads categorical dictionary codes straight into
        # bin codes without ever materialising decoded strings; the probe asks
        # the configured instance so an all-exact custom ranker list doesn't
        # pay for a binning pass it would discard
        binned_probe = getattr(selector, "uses_binned_matrix", None)
        share_binned = (
            getattr(selector, "accepts_binned", False)
            and callable(binned_probe)
            and binned_probe(task)
        )

        kept_columns: list[str] = []
        kept_tables: list[str] = []
        # (candidate, kept positions within its added columns, loop-time names)
        kept_specs: list[tuple[JoinCandidate, list[int], list[str]]] = []
        kept_spec_batches: list[int] = []  # batch index that kept each spec
        batch_reports: list[BatchReport] = []
        working = coreset
        join_time = 0.0
        selection_time = 0.0
        try:
            for batch_index, batch in enumerate(batches):
                join_start = time.perf_counter()
                joined, added_per_candidate = join_candidates_detailed(
                    working,
                    repository,
                    batch.candidates,
                    soft_strategy=config.soft_join,
                    time_resample=config.time_resample,
                    rng=rng,
                    executor=executor,
                    widths=batch.feature_counts,
                )
                batch_join_time = time.perf_counter() - join_start
                join_time += batch_join_time
                foreign_columns = [name for names in added_per_candidate for name in names]
                if not foreign_columns:
                    continue

                imputed = impute_table(joined, seed=config.random_state)
                X, y, encoding = to_design_matrix(
                    imputed, target, max_categories=config.max_categories
                )
                foreign_set = set(foreign_columns)
                selection_start = time.perf_counter()
                if share_binned:
                    binned = encode_features_binned(
                        imputed,
                        exclude=[target],
                        max_categories=config.max_categories,
                        max_bins=config.max_bins,
                    )
                    result = selector.select(
                        X, y, task=task, estimator=estimator, binned=binned
                    )
                else:
                    result = selector.select(X, y, task=task, estimator=estimator)
                selection_time += time.perf_counter() - selection_start

                selected_sources = {encoding.source_columns[i] for i in result.selected}
                newly_kept = [name for name in foreign_columns if name in selected_sources]
                # RIFS already scored its chosen subset with this estimator,
                # split and seed; other selectors leave the score to us
                batch_score = result.holdout_score
                if batch_score is None:
                    batch_score = holdout_score(
                        X[:, result.selected], y, task, estimator=estimator,
                        random_state=config.random_state,
                    ) if len(result.selected) else -np.inf
                batch_reports.append(
                    BatchReport(
                        batch_index=batch_index,
                        table_names=batch.table_names,
                        columns_considered=len(foreign_columns),
                        columns_kept=newly_kept,
                        selection_time=result.elapsed,
                        holdout_score=float(batch_score),
                        join_time=batch_join_time,
                    )
                )
                if newly_kept:
                    kept_columns.extend(newly_kept)
                    newly_kept_set = set(newly_kept)
                    for candidate, added in zip(batch.candidates, added_per_candidate):
                        positions = [
                            index
                            for index, name in enumerate(added)
                            if name in newly_kept_set
                        ]
                        if positions:
                            kept_tables.append(candidate.foreign_table)
                            kept_specs.append(
                                (candidate, positions, [added[i] for i in positions])
                            )
                            kept_spec_batches.append(batch_index)
                    # carry the kept columns forward so later batches can find
                    # co-predictors that span tables
                    carry = [c for c in joined.column_names if c not in foreign_set or c in newly_kept]
                    working = joined.select(carry)

            # final materialisation: the kept joins are prepared once, and the
            # score-base replay (the coreset out of core), the streamed output
            # and the captured pipeline all probe them
            join_start = time.perf_counter()
            prepared = prepare_kept_joins(repository, kept_specs, score_base.schema())
            augmented_full, out_path, stream_stats = self._materialise_kept(
                score_base,
                repository,
                kept_specs,
                prepared,
                executor,
                source=base_source if out_of_core else None,
                augmented_path=augmented_path,
            )
            join_time += time.perf_counter() - join_start
        finally:
            executor.shutdown()

        fit_start = time.perf_counter()
        base_score = self._final_score(score_base, target, task)
        pipeline = None
        has_features = any(name != target for name in augmented_full.column_names)
        if config.capture_pipeline and has_features:
            # impute_table + to_design_matrix return what FittedImputer.fit +
            # FittedEncoder.fit return, so the holdout score below equals
            # _final_score(augmented_full, ...)
            from repro.serving.pipeline import fit_pipeline_from_training

            pipeline, X_full, y_full = fit_pipeline_from_training(
                target=target,
                task=task,
                base_table=score_base,
                augmented_table=augmented_full,
                kept_specs=kept_specs,
                repository=repository,
                prepared=prepared,
                estimator=self._make_serving_estimator(task),
                seed=config.random_state,
                soft_strategy=config.soft_join,
                time_resample=config.time_resample,
                max_categories=config.max_categories,
                batch_of_spec=dict(enumerate(kept_spec_batches)),
                metadata={"dataset": dataset_name or base_table.name},
            )
            augmented_score = holdout_score(
                X_full,
                y_full,
                task,
                estimator=self._make_final_estimator(task),
                test_size=config.test_size,
                random_state=config.random_state,
            )
        else:
            augmented_score = self._final_score(augmented_full, target, task)
        fit_time = time.perf_counter() - fit_start

        report = AugmentationReport(
            dataset_name=dataset_name or base_table.name,
            task=task,
            base_score=base_score,
            augmented_score=augmented_score,
            augmented_table=augmented_full,
            kept_columns=kept_columns,
            kept_tables=sorted(set(kept_tables)),
            batches=batch_reports,
            tables_considered=tables_considered,
            tables_filtered_out=tables_filtered,
            total_time=time.perf_counter() - start,
            selection_time=selection_time,
            join_time=join_time,
            discovery_time=discovery_time,
            coreset_time=coreset_time,
            fit_time=fit_time,
            executor=executor.name,
            pipeline=pipeline,
            augmented_path=out_path,
            stream_stats=stream_stats,
        )
        report.record_metrics()
        return report

    # -- helpers ----------------------------------------------------------------------

    def _resolve_repository(
        self, repository: DataRepository | RepositorySnapshot | None
    ) -> DataRepository | RepositorySnapshot:
        """Use the given repository, or open the configured disk-backed one.

        The opened repository is cached on this instance, so repeated
        ``augment`` calls in one process reuse the warm catalog, decoded-table
        LRU and profile cache instead of re-reading headers and sidecar.
        """
        if repository is not None:
            return repository
        if self.config.repository_dir is None:
            raise ValueError(
                "no repository given and ARDAConfig.repository_dir is not set"
            )
        key = (str(self.config.repository_dir), self.config.lru_tables)
        if self._opened_repository is None or self._opened_repository_key != key:
            self._opened_repository = DataRepository.open(
                self.config.repository_dir, lru_tables=self.config.lru_tables
            )
            self._opened_repository_key = key
        return self._opened_repository

    def _build_coreset(self, source, target: str) -> Table:
        """Coreset of the base, given as a chunk source, without materialising it.

        The configured coreset builder runs on a two-column skeleton (target
        plus a row-index column), so its sampling decisions — strategy,
        stratification, RNG stream — are exactly those it makes on the whole
        table; the sampled row indices are then gathered with ``take`` (on a
        chunked reader :meth:`~repro.relational.persist.ChunkedTableReader.take`
        reads only the chunks that hold sampled rows).  Peak memory is one
        full column (the target) plus the gathered coreset.  ``"none"`` (or a
        coreset at least as large as the base) returns the whole base — that
        is what the caller asked for.
        """
        config = self.config
        size = config.coreset_size or default_coreset_size(source.num_rows)
        if config.coreset_strategy == "none" or size >= source.num_rows:
            return source.table()
        row_name = unique_name("__arda_row__", set(source.column_names))
        skeleton = Table(
            [
                source.column(target),
                Column.from_array(
                    row_name,
                    np.arange(source.num_rows, dtype=np.float64),
                    NUMERIC,
                ),
            ],
            name=source.name,
        )
        builder = make_coreset_builder(
            config.coreset_strategy, random_state=config.random_state
        )
        reduced = builder.reduce_table(skeleton, size, target=target)
        indices = reduced.column(row_name).values.astype(np.int64)
        return source.take(indices)

    def _materialise_kept(
        self,
        base: Table,
        repository: DataRepository | RepositorySnapshot,
        kept_specs: list[tuple[JoinCandidate, list[int], list[str]]],
        prepared: list[StreamingHashJoin | None],
        executor,
        source=None,
        augmented_path: str | Path | None = None,
    ) -> tuple[Table, Path | None, dict[str, StreamJoinStats] | None]:
        """Replay the kept joins on ``base``; out of core, stream them over ``source``.

        Every hard-key join probes its build side in ``prepared``
        (:func:`~repro.core.join_execution.prepare_kept_joins` of
        ``kept_specs``), so nothing is projected, aggregated or spilled here.
        ``base`` is replayed by
        :func:`~repro.core.join_execution.replay_kept_joins`, the kernel
        serving uses.  With a ``source``, each kept hard join is one
        :func:`~repro.relational.join.iter_grace_left_join` iterator over its
        prepared build side (zone-map pruning, one base chunk in memory); the
        iterators advance in lockstep, each output chunk's kept columns take
        their pinned names, and the chunks go to ``augmented_path`` through
        :func:`~repro.relational.persist.write_table_stream`, equal to the
        replay of ``source.table()``.  A kept *soft* join needs global
        nearest-neighbour context, so it falls back to that replay, in memory.

        Returns the replay of ``base``, the written path (``None`` without
        ``augmented_path``) and per-foreign-table join stats (``None``
        without a ``source``).
        """
        config = self.config

        def replay(table: Table) -> Table:
            return replay_kept_joins(
                table,
                repository,
                kept_specs,
                soft_strategy=config.soft_join,
                time_resample=config.time_resample,
                rng=np.random.default_rng(config.random_state),
                executor=executor,
                prepared=prepared,
            )

        augmented = replay(base)
        if source is None:
            return augmented, None, None
        stats: dict[str, StreamJoinStats] = {}
        if augmented_path is None:
            return augmented, None, stats
        augmented_path = Path(augmented_path)
        if any(spec[0].is_soft for spec in kept_specs):
            full = replay(source.table())
            write_table_stream(
                augmented_path,
                as_chunk_source(full, chunk_rows=config.chunk_rows).iter_chunks(),
                name=source.name,
                chunk_rows=config.chunk_rows,
            )
            return augmented, augmented_path, stats

        width = len(source.column_names)
        # per kept join: its output-chunk iterator and pinned names
        joins: list[tuple[Iterator[Table], list[str]]] = [
            (
                iter_grace_left_join(
                    source,
                    build,
                    candidate.key_pairs(),
                    stats=stats.setdefault(candidate.foreign_table, StreamJoinStats()),
                ),
                names,
            )
            for (candidate, _positions, names), build in zip(kept_specs, prepared)
        ]

        def augmented_chunks() -> Iterator[Table]:
            if not joins:
                yield from source.iter_chunks()
                return
            for outs in zip(*(joined for joined, _names in joins)):
                columns = outs[0].columns()[:width]
                # each output chunk is the base chunk followed by exactly the
                # kept columns, in position order
                for out, (_joined, names) in zip(outs, joins):
                    columns.extend(
                        column.rename(name)
                        for column, name in zip(out.columns()[width:], names)
                    )
                yield Table(columns, name=source.name)

        write_table_stream(
            augmented_path,
            augmented_chunks(),
            name=source.name,
            chunk_rows=config.chunk_rows,
        )
        return augmented, augmented_path, stats

    def _selector_options(self) -> dict:
        """Selector kwargs from config; RIFS inherits the engine-level knobs.

        Explicit ``selector_options`` always win; the executor kind and
        ``n_jobs`` are shared with the join engine and size the round fan-out.
        """
        config = self.config
        options = dict(config.selector_options)
        key = config.selector.strip().lower()
        if key in ("rifs", "random forest"):
            # forest-backed selectors train on the configured split kernel;
            # other selectors' holdout scoring already gets it via the
            # estimator this class builds
            options.setdefault("tree_method", config.tree_method)
            options.setdefault("max_bins", config.max_bins)
        if key == "rifs":
            options.setdefault("executor", config.executor)
            options.setdefault("n_jobs", config.n_jobs)
        return options

    def _make_selection_estimator(self, task: str):
        """The (cheap) estimator used inside feature-selection search loops."""
        return default_estimator(
            task,
            random_state=self.config.random_state,
            n_estimators=self.config.estimator_options.get("n_estimators", 20),
            tree_method=self.config.tree_method,
            max_bins=self.config.max_bins,
        )

    def _make_serving_estimator(self, task: str):
        """The estimator serialised into the captured serving pipeline.

        Always a random forest (the paper's estimator): forests round-trip
        through the binary artifact bit-exactly via
        :mod:`repro.ml.persistence`.  With ``estimator="automl"`` the AutoML
        search still produces the *reported* scores, but the artifact carries
        the forest — AutoML's winner can be any model family, which would
        make artifacts unserialisable in the general case.
        """
        return self._make_selection_estimator(task)

    def _make_final_estimator(self, task: str):
        """The final estimator used for the reported scores."""
        if self.config.estimator == "automl":
            automl_task = "classification" if task == "classification" else "regression"
            options = {"time_budget": 15.0, "max_trials": 8}
            options.update(
                (key, value)
                for key, value in self.config.estimator_options.items()
                if key in AUTOML_SEARCH_OPTIONS
            )
            return AutoMLSearch(
                task=automl_task, random_state=self.config.random_state, **options
            )
        return self._make_selection_estimator(task)

    def _final_score(self, table: Table, target: str, task: str) -> float:
        """Holdout score of the final estimator on a materialised table."""
        X, y, _encoding = to_design_matrix(
            impute_table(table, seed=self.config.random_state),
            target,
            max_categories=self.config.max_categories,
        )
        return holdout_score(
            X,
            y,
            task,
            estimator=self._make_final_estimator(task),
            test_size=self.config.test_size,
            random_state=self.config.random_state,
        )
