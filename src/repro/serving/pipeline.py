"""The fitted augmentation pipeline: capture at train time, replay at serve time.

:class:`FittedPipeline` is everything ``ARDA.augment`` learned, packaged for
inference on unseen base rows **without re-running discovery or selection**:

* the accepted join plan — per kept join, the foreign table name, its content
  fingerprint, the key pairs and which of the join's columns were selected
  (by position, with the pinned output names);
* the fitted imputation statistics
  (:class:`~repro.relational.imputation.FittedImputer`);
* the fitted encoders — one-hot category lists and frequency tables
  (:class:`~repro.relational.encoding.FittedEncoder`);
* the selected-feature list with provenance
  (:class:`~repro.selection.base.FeatureProvenance` per kept column);
* the trained estimator, serialised via
  :mod:`repro.ml.persistence`.

Transform and predict come in two shapes: vectorized batch over a whole
:class:`~repro.relational.table.Table`, and micro-batch streaming
(:meth:`FittedPipeline.iter_transform` / :meth:`iter_predict`) whose peak
memory is bounded by the micro-batch size — the streaming iterator slices the
input with zero-copy views, so a memory-mapped repository table is paged in
one micro-batch at a time.

Determinism contract:

* ``transform`` applied to the training base table reproduces the training
  design matrix **byte-for-byte** (the replay runs the very kernels training
  ran, seeded identically);
* predictions are byte-identical across the serial / thread / process join
  executors (inherited from :func:`repro.core.join_execution.replay_kept_joins`);
* for a fixed micro-batch size, streaming results are deterministic; note
  that serve-time *random* draws (categorical imputation of rows with
  missing values, soft-join tie-breaks) restart their seeded stream per
  transform call, so a different batching of rows with missing categoricals
  may impute them differently — each batching is individually deterministic.

Artifacts are validated two ways on load: the container version
(:class:`~repro.serving.artifact.ArtifactError` on mismatch) and, when bound
to a repository, the stored per-table content fingerprints — a repository
whose tables drifted since training raises instead of silently mis-joining.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np

from repro.core.executor import JoinExecutor, make_executor
from repro.core.join_execution import prepare_kept_joins, replay_kept_joins
from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.repository import DataRepository, RepositorySnapshot
from repro.ml.persistence import estimator_from_state, estimator_to_state
from repro.relational.encoding import ColumnEncoderState, FittedEncoder
from repro.relational.imputation import ColumnImputeState, FittedImputer
from repro.relational.join import StreamingHashJoin, as_chunk_source
from repro.relational.schema import CATEGORICAL, ColumnType, Schema
from repro.relational.table import Table
from repro.selection.base import CLASSIFICATION, FeatureProvenance
from repro.serving.artifact import ArtifactError, read_artifact, write_artifact

DEFAULT_BATCH_ROWS = 65_536


class JoinStep:
    """One kept join of the accepted plan, as replayed at serve time.

    ``positions`` index into the columns this candidate's join adds (foreign
    column order); ``column_names`` are the pinned output names the training
    augmented table used.  ``fingerprint`` is the foreign table's content
    fingerprint at train time, checked against the serving repository before
    any join runs.
    """

    def __init__(
        self,
        foreign_table: str,
        fingerprint: str,
        keys: list[tuple[str, str, bool]],
        positions: list[int],
        column_names: list[str],
    ):
        self.foreign_table = foreign_table
        self.fingerprint = fingerprint
        self.keys = [(b, f, bool(s)) for b, f, s in keys]
        self.positions = list(positions)
        self.column_names = list(column_names)

    def to_candidate(self) -> JoinCandidate:
        """The :class:`JoinCandidate` form the join layer executes."""
        return JoinCandidate(
            foreign_table=self.foreign_table,
            keys=[KeyPair(b, f, soft=s) for b, f, s in self.keys],
        )

    def to_doc(self) -> dict:
        """Plain-JSON form stored in the artifact header."""
        return {
            "foreign_table": self.foreign_table,
            "fingerprint": self.fingerprint,
            "keys": [[b, f, s] for b, f, s in self.keys],
            "positions": self.positions,
            "column_names": self.column_names,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "JoinStep":
        """Inverse of :meth:`to_doc`."""
        return cls(
            foreign_table=doc["foreign_table"],
            fingerprint=doc["fingerprint"],
            keys=[tuple(key) for key in doc["keys"]],
            positions=doc["positions"],
            column_names=doc["column_names"],
        )

    def __repr__(self) -> str:
        keys = ", ".join(f"{b}->{f}{'~' if s else ''}" for b, f, s in self.keys)
        return (
            f"JoinStep({self.foreign_table!r}, [{keys}], "
            f"keeps {len(self.column_names)} columns)"
        )


class FittedPipeline:
    """A fitted, persistable, servable augmentation pipeline.

    Built by ``ARDA.augment`` (returned on
    :attr:`~repro.core.results.AugmentationReport.pipeline`) or restored via
    :meth:`load`.  See the module docstring for the determinism contract.
    """

    def __init__(
        self,
        *,
        target: str,
        task: str,
        seed: int,
        soft_strategy: str,
        time_resample: bool,
        base_schema: list[tuple[str, str]],
        joins: list[JoinStep],
        imputer: FittedImputer,
        encoder: FittedEncoder,
        estimator,
        target_categories: list[str] | None = None,
        provenance: list[FeatureProvenance] | None = None,
        metadata: dict | None = None,
    ):
        self.target = target
        self.task = task
        self.seed = seed
        self.soft_strategy = soft_strategy
        self.time_resample = time_resample
        self.base_schema = [(name, ctype) for name, ctype in base_schema]
        # the same schema, typed: serving rows are checked against it on every
        # call, and join build sides are prepared against it
        self._schema = Schema.from_pairs(
            [(name, ColumnType(ctype)) for name, ctype in self.base_schema]
        )
        self._base_names = [name for name, _ctype in self.base_schema]
        self._required = [name for name in self._base_names if name != target]
        self.joins = joins
        self.imputer = imputer
        self.encoder = encoder
        self.estimator = estimator
        self.target_categories = target_categories
        self.provenance = provenance or []
        self.metadata = metadata or {}
        # the validated view joins replay against (a snapshot when bound to a
        # live repository), the object bind() was originally handed, and
        # whether we created — and must release — the snapshot ourselves
        self._repository: DataRepository | RepositorySnapshot | None = None
        self._bound_source: DataRepository | RepositorySnapshot | None = None
        self._owns_snapshot = False
        # (view, replay specs, prepared build sides): the kept joins prepared
        # once against the bound view; see _kept_joins
        self._prepared: tuple | None = None
        self._prepare_lock = threading.Lock()

    # -- introspection ---------------------------------------------------------

    @property
    def feature_names(self) -> list[str]:
        """Design-matrix column names, in training order."""
        return self.encoder.feature_names

    @property
    def base_columns(self) -> list[str]:
        """Training base-table column names (including the target)."""
        return list(self._base_names)

    @property
    def required_columns(self) -> list[str]:
        """Base columns serving rows must provide (target excluded)."""
        return list(self._required)

    def summary(self) -> dict:
        """Compact description used by ``python -m repro inspect``."""
        return {
            "target": self.target,
            "task": self.task,
            "base_columns": len(self.base_schema),
            "joins": [
                {
                    "table": step.foreign_table,
                    "fingerprint": step.fingerprint,
                    "columns": step.column_names,
                }
                for step in self.joins
            ],
            "kept_columns": [p.to_doc() for p in self.provenance],
            "features": len(self.feature_names),
            "estimator": type(self.estimator).__name__,
            "metadata": dict(self.metadata),
        }

    # -- repository binding ----------------------------------------------------

    def bind(
        self, repository: DataRepository | RepositorySnapshot
    ) -> "FittedPipeline":
        """Validate ``repository`` against the stored fingerprints and keep it.

        Every kept join's foreign table must exist and fingerprint-match its
        train-time content; a drifted or missing table raises
        :class:`~repro.serving.artifact.ArtifactError` — refusing to serve
        beats silently joining different data.  Validation reads catalog
        fingerprints only, never a table body.

        A live :class:`~repro.discovery.repository.DataRepository` is pinned
        as a snapshot of its current manifest generation: validation and every
        subsequent join replay read that one generation, so a concurrent
        ``replace`` can neither drift a table under a validated pipeline nor
        tear a multi-table join plan.  Re-``bind`` the same repository to pick
        up a newer generation (hot reload) — the fingerprints are re-validated
        and the previous pin is dropped.  Pass a
        :class:`~repro.discovery.repository.RepositorySnapshot` to serve a
        specific pinned generation; its lifetime then stays with the caller.
        Returns ``self`` for chaining.
        """
        source = repository
        if isinstance(repository, DataRepository):
            view: DataRepository | RepositorySnapshot = repository.snapshot()
            owns = True
        else:
            view = repository
            owns = False
        try:
            for step in self.joins:
                if step.foreign_table not in view:
                    raise ArtifactError(
                        f"repository has no table {step.foreign_table!r} "
                        f"required by the fitted join plan"
                    )
                fingerprint = view.fingerprint(step.foreign_table)
                if fingerprint != step.fingerprint:
                    raise ArtifactError(
                        f"table {step.foreign_table!r} drifted since training: "
                        f"fingerprint {fingerprint} != fitted {step.fingerprint} "
                        f"(re-fit the pipeline or restore the table)"
                    )
        except BaseException:
            if owns:
                view.release()
            raise
        if self._owns_snapshot and isinstance(self._repository, RepositorySnapshot):
            self._repository.release()
        self._repository = view
        self._bound_source = source
        self._owns_snapshot = owns
        self._prepared = None
        return self

    def _resolve_repository(
        self, repository: DataRepository | RepositorySnapshot | None
    ) -> DataRepository | RepositorySnapshot:
        if repository is not None:
            # the object a caller passes per-request is usually the one bind()
            # already pinned (or the pin itself): neither needs re-validation
            if repository is not self._repository and repository is not self._bound_source:
                self.bind(repository)
            return self._repository if self._repository is not None else repository
        if self._repository is None:
            raise ValueError(
                "this pipeline replays joins and needs a repository: pass "
                "repository=... or call bind() first"
            )
        return self._repository

    def warm(self) -> "FittedPipeline":
        """Materialise every join-plan foreign table and prepare the replay.

        Snapshot pinning protects files this process has *opened* (a memory
        map survives its path being replaced), but a pin alone is invisible
        to a writer in another process, which may garbage-collect superseded
        files this reader never touched.  A resident server that must keep
        serving an old generation across writer-side GC therefore touches
        every table its join plan needs right after binding — this method is
        that touch.  It also prepares the hard-key build sides
        (:func:`~repro.core.join_execution.prepare_kept_joins`) that every
        later transform probes, so the first request after a (hot) load
        does not pay for them; it only sorts their probe keys, on its first
        probe.  No-op for a join-free pipeline; requires :meth:`bind` (or a
        training-time binding) first.  Returns ``self`` for chaining.
        """
        if not self.joins:
            return self
        if self._repository is None:
            raise ValueError("warm() needs a bound repository: call bind() first")
        for step in self.joins:
            self._repository.get(step.foreign_table)
        self._kept_joins(self._repository)
        return self

    def _kept_joins(self, view: DataRepository | RepositorySnapshot) -> tuple[list, list]:
        """The replay specs and prepared build sides for ``view``, built once.

        A pinned view never changes, so what
        :func:`~repro.core.join_execution.prepare_kept_joins` builds stays
        valid for the view's whole life; :meth:`bind` and :meth:`release`
        drop it.  Concurrent first callers (scorer workers) wait for one
        prepare instead of each running their own.
        """
        prepared = self._prepared
        if prepared is None or prepared[0] is not view:
            with self._prepare_lock:
                prepared = self._prepared
                if prepared is None or prepared[0] is not view:
                    specs = [
                        (step.to_candidate(), step.positions, step.column_names)
                        for step in self.joins
                    ]
                    prepared = (view, specs, prepare_kept_joins(view, specs, self._schema))
                    self._prepared = prepared
        return prepared[1], prepared[2]

    def release(self) -> None:
        """Drop the bound repository view, releasing any snapshot we pinned.

        Only snapshots :meth:`bind` created from a live repository are
        released; a caller-supplied snapshot's lifetime stays with the
        caller.  Idempotent; the pipeline can be re-``bind``-ed afterwards.
        """
        if self._owns_snapshot and isinstance(self._repository, RepositorySnapshot):
            self._repository.release()
        self._repository = None
        self._bound_source = None
        self._owns_snapshot = False
        self._prepared = None

    # -- inference -------------------------------------------------------------

    def _check_rows(self, rows: Table) -> Table:
        """Validate serving rows and project them onto the fitted base columns.

        All non-target base columns must be present with their training
        logical types; the target may ride along (it is ignored for
        prediction).  Extra columns are dropped so they cannot collide with
        the pinned names of replayed join columns.
        """
        # rows already in the fitted layout (what the server decodes) pass as is
        if rows.column_names != self._base_names:
            missing = [name for name in self._required if name not in rows]
            if missing:
                raise KeyError(f"serving rows are missing base columns: {missing}")
            rows = rows.select([name for name in self._base_names if name in rows])
        for column in rows.columns():
            fitted = self._schema.type_of(column.name)
            if (column.ctype is CATEGORICAL) != (fitted is CATEGORICAL):
                raise TypeError(
                    f"column {column.name!r} is {column.ctype.value}, but the pipeline "
                    f"was fitted on {fitted.value}"
                )
        return rows

    def transform(
        self,
        rows: Table,
        repository: DataRepository | RepositorySnapshot | None = None,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
    ) -> np.ndarray:
        """Replay joins, imputation and encoding on ``rows``.

        Returns the float design matrix with the training feature layout
        (:attr:`feature_names`).  On the training base table this reproduces
        the training design matrix byte-for-byte; the result is identical
        across executor backends.  A chunked table source materialises first
        (the output matrix is whole anyway); use :meth:`iter_transform` to
        keep the input out-of-core.

        Hard-key joins probe build sides prepared once per bound view (by
        the training run that captured the pipeline, by :meth:`warm`, or
        else by the first transform), so a call pays only per-row work;
        ``executor`` runs the soft-key joins, which need the rows themselves.
        """
        base = self._check_rows(as_chunk_source(rows).table())
        if self.joins:
            repo = self._resolve_repository(repository)
            specs, prepared = self._kept_joins(repo)
            # only soft-key joins (unprepared) run on the executor and draw
            # from the generator
            soft = None in prepared
            owns_executor = soft and isinstance(executor, str)
            pool = make_executor(executor, n_jobs) if owns_executor else executor
            try:
                joined = replay_kept_joins(
                    base,
                    repo,
                    specs,
                    soft_strategy=self.soft_strategy,
                    time_resample=self.time_resample,
                    rng=np.random.default_rng(self.seed) if soft else None,
                    executor=pool if soft else None,
                    prepared=prepared,
                )
            finally:
                if owns_executor:
                    pool.shutdown()
        else:
            joined = base
        imputed = self.imputer.transform(joined)
        return self.encoder.transform(imputed)

    def iter_transform(
        self,
        rows: Table,
        repository: DataRepository | RepositorySnapshot | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
    ):
        """Stream :meth:`transform` over micro-batches of ``rows``.

        Yields one design matrix per micro-batch.  A batch smaller than its
        chunk is cut as a zero-copy row view, so only the columns the batch
        actually touches are materialised — peak memory is bounded by
        ``batch_rows`` (times the feature width), not by ``len(rows)``, which
        is what lets a memory-mapped repository table stream through a small
        resident set.
        The executor pool is created once and shared by every micro-batch
        (a per-batch pool would pay process-pool startup per batch).

        ``rows`` may also be a chunked table source
        (:class:`~repro.relational.persist.ChunkedTableReader`, anything with
        ``iter_chunks``): row groups then stream straight off the file —
        sub-batched to ``batch_rows`` — so an out-of-core table transforms
        under a one-chunk memory bound without ever materialising.  A
        :class:`Table` is the one-chunk case.
        """
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        source = as_chunk_source(rows)
        owns_executor = isinstance(executor, str) and bool(self.joins)
        pool = make_executor(executor, n_jobs) if owns_executor else executor
        try:
            empty = True
            for chunk in source.iter_chunks():
                for start in range(0, chunk.num_rows, batch_rows):
                    stop = min(start + batch_rows, chunk.num_rows)
                    empty = False
                    whole = stop - start == chunk.num_rows
                    yield self.transform(
                        chunk if whole else chunk.take(np.arange(start, stop)),
                        repository=repository,
                        executor=pool,
                        n_jobs=n_jobs,
                    )
            if empty:
                # no rows: one empty design matrix with the feature layout
                yield self.transform(
                    source.table(), repository=repository, executor=pool, n_jobs=n_jobs
                )
        finally:
            if owns_executor:
                pool.shutdown()

    def _decode_predictions(self, raw: np.ndarray) -> np.ndarray:
        """Map raw estimator output back to target values.

        Classification over a categorical target decodes class codes to the
        training label strings; numeric targets pass through as floats.
        """
        if self.task == CLASSIFICATION and self.target_categories is not None:
            codes = np.asarray(np.rint(raw), dtype=np.int64)
            labels = np.array(self.target_categories, dtype=object)
            out = np.empty(len(codes), dtype=object)
            valid = (codes >= 0) & (codes < len(labels))
            out[valid] = labels[codes[valid]]
            return out
        return np.asarray(raw, dtype=np.float64)

    def predict(
        self,
        rows: Table,
        repository: DataRepository | RepositorySnapshot | None = None,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
        batch_rows: int | None = None,
    ) -> np.ndarray:
        """Predict the target for serving rows.

        ``batch_rows`` switches to the bounded-memory streaming path and
        concatenates the per-batch predictions.  Classification over a
        categorical training target returns decoded labels; everything else
        returns floats.  A chunked table source (anything with
        ``iter_chunks``) always takes the streaming path, so predicting over
        an out-of-core table never materialises it (only the prediction
        vector itself is whole).
        """
        if batch_rows is None and not isinstance(rows, Table) and hasattr(rows, "iter_chunks"):
            batch_rows = DEFAULT_BATCH_ROWS
        if batch_rows is not None:
            parts = list(
                self.iter_predict(
                    rows,
                    repository=repository,
                    batch_rows=batch_rows,
                    executor=executor,
                    n_jobs=n_jobs,
                )
            )
            return np.concatenate(parts) if parts else np.empty(0)
        X = self.transform(rows, repository=repository, executor=executor, n_jobs=n_jobs)
        if X.shape[0] == 0:
            return self._decode_predictions(np.empty(0, dtype=np.float64))
        return self._decode_predictions(self.estimator.predict(X))

    def iter_predict(
        self,
        rows: Table,
        repository: DataRepository | RepositorySnapshot | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        executor: str | JoinExecutor = "serial",
        n_jobs: int | None = None,
    ):
        """Stream predictions over micro-batches (see :meth:`iter_transform`)."""
        for X in self.iter_transform(
            rows,
            repository=repository,
            batch_rows=batch_rows,
            executor=executor,
            n_jobs=n_jobs,
        ):
            if X.shape[0] == 0:
                yield self._decode_predictions(np.empty(0, dtype=np.float64))
            else:
                yield self._decode_predictions(self.estimator.predict(X))

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise to one artifact file (atomic write).

        The artifact holds a JSON header (join plan, schemas, encoder
        decisions, provenance, estimator hyper-parameters) plus binary pages
        for every array (imputation codes, frequency tables, tree nodes).
        """
        arrays: dict[str, np.ndarray] = {}
        imputer_docs = []
        for i, state in enumerate(self.imputer.columns):
            doc = {"name": state.name, "kind": state.kind}
            if state.kind == "categorical":
                doc["dictionary"] = [str(v) for v in state.dictionary]
                arrays[f"imputer/{i}/observed"] = np.asarray(
                    state.observed_codes, dtype=np.int32
                )
            else:
                doc["fill"] = state.fill
            imputer_docs.append(doc)
        encoder_docs = []
        for i, state in enumerate(self.encoder.columns):
            doc = {
                "name": state.name,
                "kind": state.kind,
                "feature_names": state.feature_names,
            }
            if state.kind == "onehot":
                doc["categories"] = [str(c) for c in state.categories]
            elif state.kind == "frequency":
                doc["frequency_values"] = [str(v) for v in state.frequency_values]
                arrays[f"encoder/{i}/frequencies"] = np.asarray(
                    state.frequencies, dtype=np.float64
                )
            encoder_docs.append(doc)
        estimator_doc, estimator_arrays = estimator_to_state(self.estimator)
        for key, value in estimator_arrays.items():
            arrays[f"estimator/{key}"] = value

        doc = {
            "target": self.target,
            "task": self.task,
            "seed": self.seed,
            "soft_strategy": self.soft_strategy,
            "time_resample": self.time_resample,
            "base_schema": [[name, ctype] for name, ctype in self.base_schema],
            "target_categories": self.target_categories,
            "joins": [step.to_doc() for step in self.joins],
            "imputer": {"seed": self.imputer.seed, "columns": imputer_docs},
            "encoder": {
                "max_categories": self.encoder.max_categories,
                "columns": encoder_docs,
            },
            "provenance": [p.to_doc() for p in self.provenance],
            "estimator": estimator_doc,
            "metadata": self.metadata,
        }
        write_artifact(path, doc, arrays)

    @classmethod
    def load(
        cls,
        path: str | Path | bytes,
        repository: DataRepository | RepositorySnapshot | None = None,
    ) -> "FittedPipeline":
        """Restore a pipeline saved by :meth:`save`.

        ``path`` is the artifact file or its bytes (a caller that also
        hashes the artifact parses the very bytes it hashed).  Raises
        :class:`~repro.serving.artifact.ArtifactError` on a version
        mismatch or corrupt file.  Passing ``repository`` binds and validates
        it immediately (fingerprint check); otherwise call :meth:`bind` (or
        pass a repository to the first transform/predict) before serving a
        pipeline that replays joins.
        """
        doc, arrays = read_artifact(path)
        imputer_states = []
        for i, col_doc in enumerate(doc["imputer"]["columns"]):
            if col_doc["kind"] == "categorical":
                imputer_states.append(
                    ColumnImputeState(
                        name=col_doc["name"],
                        kind="categorical",
                        observed_codes=np.asarray(
                            arrays[f"imputer/{i}/observed"], dtype=np.int32
                        ),
                        dictionary=np.array(col_doc["dictionary"], dtype=object),
                    )
                )
            else:
                imputer_states.append(
                    ColumnImputeState(
                        name=col_doc["name"], kind="numeric", fill=float(col_doc["fill"])
                    )
                )
        imputer = FittedImputer(imputer_states, seed=doc["imputer"]["seed"])
        encoder_states = []
        for i, col_doc in enumerate(doc["encoder"]["columns"]):
            state = ColumnEncoderState(
                name=col_doc["name"],
                kind=col_doc["kind"],
                feature_names=list(col_doc["feature_names"]),
            )
            if state.kind == "onehot":
                state.categories = list(col_doc["categories"])
            elif state.kind == "frequency":
                state.frequency_values = np.array(col_doc["frequency_values"], dtype=object)
                state.frequencies = np.asarray(
                    arrays[f"encoder/{i}/frequencies"], dtype=np.float64
                )
            encoder_states.append(state)
        encoder = FittedEncoder(
            encoder_states, max_categories=doc["encoder"]["max_categories"]
        )
        estimator_arrays = {
            key[len("estimator/"):]: value
            for key, value in arrays.items()
            if key.startswith("estimator/")
        }
        estimator = estimator_from_state(doc["estimator"], estimator_arrays)
        pipeline = cls(
            target=doc["target"],
            task=doc["task"],
            seed=doc["seed"],
            soft_strategy=doc["soft_strategy"],
            time_resample=doc["time_resample"],
            base_schema=[tuple(entry) for entry in doc["base_schema"]],
            joins=[JoinStep.from_doc(step) for step in doc["joins"]],
            imputer=imputer,
            encoder=encoder,
            estimator=estimator,
            target_categories=doc.get("target_categories"),
            provenance=[FeatureProvenance.from_doc(p) for p in doc.get("provenance", [])],
            metadata=doc.get("metadata", {}),
        )
        if repository is not None:
            pipeline.bind(repository)
        return pipeline

    def __repr__(self) -> str:
        return (
            f"FittedPipeline(target={self.target!r}, task={self.task!r}, "
            f"joins={len(self.joins)}, features={len(self.feature_names)}, "
            f"estimator={type(self.estimator).__name__})"
        )


def fit_pipeline_from_training(
    *,
    target: str,
    task: str,
    base_table: Table,
    augmented_table: Table,
    kept_specs: list[tuple[JoinCandidate, list[int], list[str]]],
    repository: DataRepository,
    prepared: list[StreamingHashJoin | None],
    estimator,
    seed: int,
    soft_strategy: str,
    time_resample: bool,
    max_categories: int,
    batch_of_spec: dict[int, int] | None = None,
    metadata: dict | None = None,
) -> tuple[FittedPipeline, np.ndarray, np.ndarray]:
    """Capture a :class:`FittedPipeline` at the end of an ARDA run.

    Fits the imputer and encoder on the augmented training table (producing
    the training design matrix through the same kernels serving will use),
    trains ``estimator`` on the full matrix, fingerprints the kept foreign
    tables, and assembles the pipeline, bound to ``repository`` with the
    run's ``prepared`` kept joins (its
    :func:`~repro.core.join_execution.prepare_kept_joins`), so its first
    transform prepares nothing.  Returns ``(pipeline, X_train, y_train)`` so
    the caller can score without re-encoding.
    """
    from repro.relational.encoding import encode_target

    imputer, imputed = FittedImputer.fit(augmented_table, seed=seed)
    encoder, encoded = FittedEncoder.fit(
        imputed, exclude=[target], max_categories=max_categories
    )
    target_col = imputed.column(target)
    y = encode_target(target_col)
    target_categories = (
        sorted(target_col.unique()) if target_col.ctype is CATEGORICAL else None
    )
    if encoded.matrix.shape[1] == 0:
        # a featureless pipeline could never predict; fail here with a clear
        # message instead of letting save()/predict() crash on an unfitted
        # estimator (ARDA skips capture for this case)
        raise ValueError(
            "cannot capture a serving pipeline: the augmented table has no "
            "feature columns besides the target"
        )
    estimator.fit(encoded.matrix, y)

    joins: list[JoinStep] = []
    provenance: list[FeatureProvenance] = []
    batch_of_spec = batch_of_spec or {}
    for index, (candidate, positions, names) in enumerate(kept_specs):
        joins.append(
            JoinStep(
                foreign_table=candidate.foreign_table,
                fingerprint=repository.fingerprint(candidate.foreign_table),
                keys=[(k.base_column, k.foreign_column, k.soft) for k in candidate.keys],
                positions=positions,
                column_names=names,
            )
        )
        provenance.extend(
            FeatureProvenance(
                column=name,
                table=candidate.foreign_table,
                position=position,
                batch_index=batch_of_spec.get(index, -1),
            )
            for position, name in zip(positions, names)
        )

    metadata = dict(metadata or {})
    metadata.setdefault("python", sys.version.split()[0])
    pipeline = FittedPipeline(
        target=target,
        task=task,
        seed=seed,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        base_schema=[(col.name, col.ctype.value) for col in base_table.columns()],
        joins=joins,
        imputer=imputer,
        encoder=encoder,
        estimator=estimator,
        target_categories=target_categories,
        provenance=provenance,
        metadata=metadata,
    )
    # the training repository (or the pinned snapshot ARDA ran against) is
    # already the validated view — keep it without re-pinning
    pipeline._repository = repository
    pipeline._bound_source = repository
    pipeline._prepared = (repository, list(kept_specs), prepared)
    return pipeline, encoded.matrix, y


__all__ = [
    "DEFAULT_BATCH_ROWS",
    "FittedPipeline",
    "JoinStep",
    "fit_pipeline_from_training",
]
