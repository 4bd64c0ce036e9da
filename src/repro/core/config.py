"""Configuration of the ARDA pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

# the estimator_options keys each estimator accepts: every forest the pipeline
# trains reads n_estimators (under "automl" the selection and serving
# forests), and the AutoML search takes its own search knobs
AUTOML_SEARCH_OPTIONS = ("time_budget", "max_trials", "cv")
ESTIMATOR_OPTIONS = {
    "random_forest": ("n_estimators",),
    "automl": ("n_estimators", *AUTOML_SEARCH_OPTIONS),
}


@dataclass
class ARDAConfig:
    """All knobs of the augmentation pipeline, with the paper's defaults.

    The canonical knob reference (one row per field, grouped by subsystem)
    lives in ``docs/API.md``; this docstring is the source of truth for
    semantics.

    Determinism contract: for a fixed config, ``ARDA.augment`` is fully
    deterministic — every random draw (coreset sampling, soft-join
    tie-breaks, categorical imputation, noise injection, tree seeds and
    bootstraps) descends from ``random_state`` via per-component
    ``np.random.default_rng`` / ``SeedSequence.spawn`` streams, and the
    ``executor`` / ``n_jobs`` knobs change wall-clock only, never results.
    A config instance is never mutated by the pipeline; the same instance
    can drive concurrent ``ARDA`` objects.

    Attributes
    ----------
    coreset_strategy:
        ``"uniform"`` (default), ``"stratified"`` or ``"none"``; row sampling
        applied to the base table before joining.
    coreset_size:
        Target number of coreset rows; ``None`` picks a heuristic size.
    join_plan:
        ``"budget"`` (default), ``"table"`` or ``"full"`` table grouping.
    budget:
        Maximum number of foreign feature columns considered per batch in the
        budget join plan; ``None`` defaults to the coreset size.
    soft_join:
        ``"two_way_nearest"`` (default), ``"nearest"`` or ``"hard"`` strategy
        for soft keys.
    time_resample:
        Whether to aggregate finer-grained time keys to the base granularity
        before a soft/hard time join.
    selector:
        Feature-selection method name (paper-table label); ``"RIFS"`` default.
    selector_options:
        Extra keyword arguments forwarded to the selector factory.
    tuple_ratio_tau:
        If set, candidate tables whose tuple ratio exceeds this threshold are
        dropped before joining (the TR-rule pre-filter of Table 4).
    estimator:
        ``"random_forest"`` (default) or ``"automl"`` final estimator.
    estimator_options:
        Options of the estimators the pipeline trains.  ``n_estimators`` sizes
        every forest (selection, batch and serving forests, and the final
        estimator under ``"random_forest"``); under ``"automl"`` the
        ``AutoMLSearch`` knobs ``time_budget``, ``max_trials`` and ``cv`` are
        accepted too.  Any other key raises ``ValueError``.
    max_categories:
        One-hot encoding cap per categorical column.
    test_size / random_state:
        Holdout fraction and seed used for evaluation splits throughout.
    executor:
        ``"serial"`` (default), ``"thread"`` or ``"process"`` backend used to
        execute the independent joins of each join-plan batch, the sharded
        discovery profiling and the RIFS injection rounds.  All backends
        produce identical results; parallel backends speed up multi-candidate
        batches.
    n_jobs:
        Worker count for parallel executors (joins, discovery profiling,
        RIFS rounds; an explicit ``selector_options["n_jobs"]`` wins for
        RIFS); ``None`` or non-positive values use all cores, ``1`` falls
        back to the serial executor.
    repository_dir:
        Directory of native binary table files to open as a lazy disk-backed
        :class:`~repro.discovery.repository.DataRepository` when
        ``augment_tables`` is called without an explicit repository.
    lru_tables:
        How many decoded tables a disk-backed repository keeps alive
        (``None`` = unbounded).  Only used for repositories the pipeline
        opens itself via ``repository_dir``.
    persist_profiles:
        After running join discovery over a disk-backed repository, write the
        profile cache to the repository's sidecar so the next process skips
        profiling entirely.
    tree_method:
        Split kernel of every tree model the pipeline trains (RIFS' forest
        ranker, holdout estimators, the final estimator): ``"hist"``
        (histogram bins, the fast default), ``"exact"`` (sorted exhaustive
        search, the reference), or ``None`` to defer to the
        ``ARDA_TREE_METHOD`` environment variable (falling back to hist).
    max_bins:
        Bin budget per feature for the histogram kernel (2..255; codes are
        uint8).
    chunk_rows:
        Row-group target for table files the pipeline writes (repositories it
        opens via ``repository_dir``, streamed augmented outputs): tables
        larger than the target are split into row groups of that size, each
        with its zone map.  ``None`` defers to the ``ARDA_CHUNK_ROWS``
        environment variable (when unset, a repository writes each table as
        one row group and a streamed output uses the streaming default);
        ``0`` writes one row group per file.  Reading is layout-transparent
        either way.
    memory_budget:
        Accepted and not read (``None`` or a positive byte count): ARDA
        prepares each kept build side once, in memory, and never spills.
    capture_pipeline:
        Capture a servable :class:`~repro.serving.pipeline.FittedPipeline`
        (accepted join plan, fitted encoders/imputers, selected features,
        trained estimator) on :attr:`AugmentationReport.pipeline` at the end
        of ``augment``.  Costs one extra estimator fit on the full augmented
        table; the serving estimator is always a random forest (the paper's
        estimator — with ``estimator="automl"`` the AutoML search still
        drives the *reported* scores, but the artifact serialises a forest).
        Disable for pure evaluation sweeps that never serve.
    """

    coreset_strategy: str = "uniform"
    coreset_size: int | None = None
    join_plan: str = "budget"
    budget: int | None = None
    soft_join: str = "two_way_nearest"
    time_resample: bool = True
    selector: str = "RIFS"
    selector_options: dict = field(default_factory=dict)
    tuple_ratio_tau: float | None = None
    estimator: str = "random_forest"
    estimator_options: dict = field(default_factory=dict)
    max_categories: int = 12
    test_size: float = 0.25
    random_state: int = 0
    executor: str = "serial"
    n_jobs: int | None = None
    repository_dir: str | None = None
    lru_tables: int | None = 16
    persist_profiles: bool = True
    tree_method: str | None = None
    max_bins: int = 255
    chunk_rows: int | None = None
    memory_budget: int | None = None
    capture_pipeline: bool = True

    def __post_init__(self):
        from repro.core.executor import EXECUTOR_NAMES
        from repro.ml.binning import TREE_METHODS, check_max_bins

        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(f"executor must be one of {EXECUTOR_NAMES}")
        if self.tree_method is not None and self.tree_method not in TREE_METHODS:
            raise ValueError(f"tree_method must be None or one of {TREE_METHODS}")
        check_max_bins(self.max_bins)
        valid_plans = ("budget", "table", "full")
        if self.join_plan not in valid_plans:
            raise ValueError(f"join_plan must be one of {valid_plans}")
        valid_soft = ("two_way_nearest", "nearest", "hard")
        if self.soft_join not in valid_soft:
            raise ValueError(f"soft_join must be one of {valid_soft}")
        valid_coreset = ("uniform", "stratified", "none")
        if self.coreset_strategy not in valid_coreset:
            raise ValueError(f"coreset_strategy must be one of {valid_coreset}")
        if self.estimator not in ESTIMATOR_OPTIONS:
            raise ValueError(f"estimator must be one of {tuple(ESTIMATOR_OPTIONS)}")
        accepted = ESTIMATOR_OPTIONS[self.estimator]
        for key in self.estimator_options:
            if key not in accepted:
                raise ValueError(
                    f"estimator_options key {key!r} is not accepted with "
                    f"estimator={self.estimator!r} (accepted: {', '.join(accepted)})"
                )
        if self.lru_tables is not None and self.lru_tables < 1:
            raise ValueError("lru_tables must be None or >= 1")
        if self.chunk_rows is not None and self.chunk_rows < 0:
            raise ValueError("chunk_rows must be None, 0 (one row group) or positive")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError("memory_budget must be None or a positive byte count")


@dataclass
class SweepConfig:
    """Knobs of the planted-ground-truth scenario sweep (``repro sweep``).

    The canonical knob table lives in ``docs/API.md``; this docstring is the
    source of truth for semantics.

    Attributes
    ----------
    n_scenarios:
        How many scenarios to sample and score; scenario ``i`` is a pure
        function of ``(seed, i, profile)``.
    seed:
        Root seed of every sampler stream (``SeedSequence(seed,
        spawn_key=(i,))`` per scenario).
    profile:
        Size envelope name: ``"quick"`` (CI scale, the default) or
        ``"full"`` (larger schemas and key domains).
    layout:
        Persisted repository layout scenarios are materialised into:
        ``"monolithic"`` (each table one row group), ``"chunked"`` (row
        groups of ``chunk_rows``), or ``"memory"`` (no disk; fastest, used by unit
        tests).  Content fingerprints — and therefore every sweep score —
        are identical across all three.
    chunk_rows:
        Row-group target for the ``chunked`` layout.
    executor / n_jobs / tree_method:
        Forwarded into each scenario's :class:`ARDAConfig`; all executor
        backends produce byte-identical sweep scores.
    min_discovery_recall:
        Per-scenario floor on planted-join recall in discovery; a scenario
        below it fails the sweep.
    require_ranking:
        Whether every planted table must outrank every decoy table in the
        discovery candidate ranking (metamorphic check; on by default).
    repro_dir:
        Where failing scenarios serialize their JSON repro files
        (``repro sweep --replay FILE`` replays one standalone).  ``None``
        disables repro-file emission.
    """

    n_scenarios: int = 20
    seed: int = 0
    profile: str = "quick"
    layout: str = "monolithic"
    chunk_rows: int = 64
    executor: str = "serial"
    n_jobs: int | None = None
    tree_method: str | None = None
    min_discovery_recall: float = 0.9
    require_ranking: bool = True
    repro_dir: str | None = None

    def __post_init__(self):
        from repro.core.executor import EXECUTOR_NAMES

        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        valid_layouts = ("monolithic", "chunked", "memory")
        if self.layout not in valid_layouts:
            raise ValueError(f"layout must be one of {valid_layouts}")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(f"executor must be one of {EXECUTOR_NAMES}")
        if not 0.0 <= self.min_discovery_recall <= 1.0:
            raise ValueError("min_discovery_recall must be within [0, 1]")


@dataclass
class ServingConfig:
    """Knobs of the resident serving server (:mod:`repro.serving.server`).

    The canonical knob table lives in ``docs/API.md``; this docstring is the
    source of truth for semantics.

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (tests and
        benchmarks); :attr:`~repro.serving.server.PredictionServer.address`
        reports the bound one.
    workers:
        Scorer worker threads.  Each worker independently pulls from the
        admission queue, coalesces a micro-batch and scores it against the
        live pipeline generation; workers share one memory-mapped artifact
        and one pinned repository snapshot.
    max_batch_rows:
        Micro-batch coalescing cap: a worker stops gathering requests once
        the coalesced row count reaches this.  Larger batches amortise join
        replay and estimator dispatch; smaller ones bound per-request
        latency.
    max_wait_ms:
        How long a worker waits for more requests to coalesce after its
        first, in milliseconds.  The wait only happens while the queue is
        empty — a backed-up queue coalesces without waiting.  ``0`` disables
        coalescing-by-waiting entirely (each batch is whatever is already
        queued).
    queue_depth:
        Admission queue capacity in *requests*.  A full queue rejects new
        predict requests with HTTP 503 instead of letting latency grow
        without bound (backpressure beats collapse).
    max_request_rows:
        Per-request row cap; larger batch requests are rejected with HTTP
        413 (the one-shot ``score`` CLI is the right tool for bulk scoring).
    reload_interval_s:
        How often the watcher thread checks the artifact file's content
        fingerprint and the repository manifest generation for hot reload;
        ``0`` disables the watcher (reloads then only happen via an explicit
        :meth:`~repro.serving.server.PredictionServer.check_reload`).
    drain_timeout_s:
        Upper bound on graceful shutdown: how long to wait for queued and
        in-flight requests to finish before stopping the workers anyway.
        Also bounds how long one request handler waits for its result before
        answering HTTP 504.
    executor / n_jobs:
        Backend each scorer worker replays *soft-key* joins on (see
        :attr:`ARDAConfig.executor`); results are identical across backends.
        Hard-key joins probe build sides prepared once per loaded generation,
        inline, so a join plan without soft keys never uses it.  The default
        serial executor is right for micro-batches — worker threads already
        provide the concurrency.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    max_batch_rows: int = 1024
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    max_request_rows: int = 100_000
    reload_interval_s: float = 2.0
    drain_timeout_s: float = 30.0
    executor: str = "serial"
    n_jobs: int | None = None

    def __post_init__(self):
        from repro.core.executor import EXECUTOR_NAMES

        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_request_rows < 1:
            raise ValueError("max_request_rows must be >= 1")
        if self.reload_interval_s < 0:
            raise ValueError("reload_interval_s must be >= 0 (0 disables the watcher)")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be in [0, 65535] (0 = ephemeral)")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(f"executor must be one of {EXECUTOR_NAMES}")
