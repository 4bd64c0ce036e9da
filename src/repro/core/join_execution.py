"""Join execution: bring one candidate table's columns onto the base table.

Execution handles everything section 4 of the paper describes:

* hard keys via hash LEFT joins (pre-aggregating the foreign table when the
  join would otherwise be one-to-many / many-to-many),
* soft keys via nearest-neighbour or two-way nearest-neighbour joins,
* time-granularity mismatches via resampling of the finer-grained table,
* column-name collisions via per-table prefixes, and
* missing values produced by unmatched rows via the imputation layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.executor import JoinExecutor, SerialJoinExecutor, longest_first_order
from repro.discovery.candidates import JoinCandidate
from repro.discovery.repository import DataRepository
from repro.relational.column import Column
from repro.relational.join import StreamingHashJoin, left_join
from repro.relational.resample import align_time_granularity
from repro.relational.schema import DATETIME, Schema
from repro.relational.soft_join import nearest_join, two_way_nearest_join
from repro.relational.table import Table, unique_name


def execute_join(
    base: Table,
    foreign: Table,
    candidate: JoinCandidate,
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    prefix_columns: bool = True,
    rng: np.random.Generator | None = None,
) -> Table:
    """LEFT-join one candidate's columns onto ``base`` and return the result.

    All base-table rows are preserved.  Foreign columns are prefixed with the
    foreign table's name so features can be traced back to their source table.
    """
    if prefix_columns:
        foreign = foreign.prefix_columns(
            f"{foreign.name}.", exclude=candidate.foreign_columns
        )
    if candidate.is_soft:
        return _execute_soft_join(
            base, foreign, candidate, soft_strategy, time_resample, rng
        )
    return left_join(base, foreign, on=candidate.key_pairs())


def _execute_soft_join(
    base: Table,
    foreign: Table,
    candidate: JoinCandidate,
    soft_strategy: str,
    time_resample: bool,
    rng: np.random.Generator | None,
) -> Table:
    """Soft-join on the (single) soft key of a candidate."""
    soft_keys = [key for key in candidate.keys if key.soft]
    hard_keys = [key for key in candidate.keys if not key.soft]
    if len(soft_keys) != 1 or hard_keys:
        # mixed composite keys: fall back to a hard join on all keys, after
        # aligning time granularity on the soft components
        working = foreign
        if time_resample:
            for key in soft_keys:
                working = align_time_granularity(
                    base, working, key.base_column, key.foreign_column
                )
        return left_join(base, working, on=candidate.key_pairs())

    key = soft_keys[0]
    working = foreign
    is_time_key = (
        base.column(key.base_column).ctype is DATETIME
        or foreign.column(key.foreign_column).ctype is DATETIME
    )
    if time_resample and is_time_key:
        working = align_time_granularity(
            base, working, key.base_column, key.foreign_column
        )
    if soft_strategy == "hard":
        return left_join(base, working, on=[(key.base_column, key.foreign_column)])
    if soft_strategy == "nearest":
        return nearest_join(base, working, key.base_column, key.foreign_column)
    if soft_strategy == "two_way_nearest":
        return two_way_nearest_join(
            base, working, key.base_column, key.foreign_column, rng=rng
        )
    raise ValueError(f"unknown soft join strategy {soft_strategy!r}")


def _contributed_columns(
    task: tuple[Table, Table, JoinCandidate, str, bool, np.random.Generator | None],
) -> list[Column]:
    """Worker: run one candidate join and return only the columns it added.

    Module-level (not a closure) so the process-pool backend can pickle it.
    The base handed in is a projection onto the candidate's key columns and
    only the new foreign columns travel back, so a process worker never
    pickles base feature data in either direction.  Categorical columns
    serialise as int32 code arrays plus their string dictionary (see
    ``Column.__getstate__``), so even the foreign payload ships no per-row
    strings.
    """
    base, foreign, candidate, soft_strategy, time_resample, rng = task
    joined = execute_join(
        base,
        foreign,
        candidate,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=rng,
    )
    base_names = set(base.column_names)
    return [col for col in joined.columns() if col.name not in base_names]


def _map_candidate_joins(
    base: Table,
    foreigns: list[Table],
    candidates: list[JoinCandidate],
    soft_strategy: str,
    time_resample: bool,
    rngs: list[np.random.Generator | None],
    executor: JoinExecutor | None,
    widths: list[int],
) -> list[list[Column]]:
    """Run each candidate's join on ``executor``; the columns each added, in
    candidate order.

    Each task ships only the base's key columns: the join match depends on
    nothing else, and a process worker then never pickles feature data.
    Tasks are submitted widest first (LPT scheduling, by ``widths``) to
    minimise pool makespan, and results are mapped back to candidate order.
    """
    tasks = [
        (
            base.select(list(dict.fromkeys(candidate.base_columns))),
            foreign,
            candidate,
            soft_strategy,
            time_resample,
            rng,
        )
        for foreign, candidate, rng in zip(foreigns, candidates, rngs)
    ]
    order = longest_first_order(widths)
    mapped = (executor or SerialJoinExecutor()).map(
        _contributed_columns, [tasks[i] for i in order]
    )
    results: list[list[Column]] = [[] for _ in tasks]
    for rank, index in enumerate(order):
        results[index] = mapped[rank]
    return results


def kept_build_side(
    foreign: Table, candidate: JoinCandidate, positions: Sequence[int]
) -> Table:
    """The build side of one kept hard-key join, projected to what it keeps.

    ``positions`` index ``foreign``'s non-key columns in table order — the
    columns its join adds.  The result holds the foreign key columns followed
    by the kept columns in ``positions`` order, prefixed exactly as
    :func:`execute_join` prefixes them, so columns feature selection dropped
    are never aggregated, hashed, decoded or even renamed, and a LEFT join
    against it adds exactly the kept columns, in ``positions`` order.
    """
    keys = list(dict.fromkeys(candidate.foreign_columns))
    added = [name for name in foreign.column_names if name not in keys]
    kept = [foreign.column(added[position]) for position in positions]
    return Table(
        [foreign.column(key) for key in keys]
        + [column.rename(f"{foreign.name}.{column.name}") for column in kept],
        name=foreign.name,
    )


def prepare_kept_joins(
    repository: DataRepository,
    specs: list[tuple[JoinCandidate, list[int], list[str]]],
    left_schema: Schema,
) -> list[StreamingHashJoin | None]:
    """The half of :func:`replay_kept_joins` that depends only on the repository.

    Returns, aligned with ``specs``, one :class:`StreamingHashJoin` per
    hard-key kept join, built over its :func:`kept_build_side`: validation,
    duplicate-key pre-aggregation and output naming run here, once, and a
    replay only probes and gathers.  ``left_schema`` must hold the base key
    columns.  A soft-key join needs the base rows themselves
    (nearest-neighbour context, time resampling), so its entry is ``None``
    and every replay re-executes it.  The result is valid for as long as
    ``repository`` serves the same table versions — a pinned
    :class:`~repro.discovery.repository.RepositorySnapshot` never changes, so
    for the snapshot's whole life.
    """
    return [
        None
        if candidate.is_soft
        else StreamingHashJoin(
            kept_build_side(repository.get(candidate.foreign_table), candidate, positions),
            candidate.key_pairs(),
            left_schema,
        )
        for candidate, positions, _names in specs
    ]


def replay_kept_joins(
    base: Table,
    repository: DataRepository,
    specs: list[tuple[JoinCandidate, list[int], list[str]]],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    prepared: list[StreamingHashJoin | None] | None = None,
) -> Table:
    """Re-execute a list of kept joins on ``base`` under pinned output names.

    ``specs`` pairs each candidate with the *positions* (within the columns
    that candidate adds, in foreign-table column order) and the output names
    of the columns to keep.  Collision suffixes depend on which other columns
    are present when a batch is joined, so a kept column's freshly-joined
    name can differ from the name feature selection saw — matching by
    position and renaming to the pinned name guarantees the result carries
    exactly the chosen columns under the recorded names, on any base table
    that provides the key columns.

    ``prepared`` is :func:`prepare_kept_joins` of the same ``repository``
    and ``specs``; it is built here when omitted.  A caller that replays
    many bases against one pinned view prepares once and passes it to every
    call, which then pays only the per-row work: a hard-key join probes its
    prepared build side and gathers inline, and only soft-key joins run on
    ``executor``.

    This is the single replay kernel behind both the training-time final
    materialisation (:meth:`repro.core.arda.ARDA.augment_tables`) and the
    serving-time :meth:`repro.serving.FittedPipeline.transform` — train and
    serve cannot drift because they run the same code.  Determinism matches
    :func:`join_candidates_detailed`: each spec gets the child generator
    spawned from ``rng`` at its index, so results are byte-identical across
    executor backends.
    """
    if prepared is None:
        prepared = prepare_kept_joins(repository, specs, base.schema())
    soft = [index for index, build in enumerate(prepared) if build is None]
    soft_added: dict[int, list[Column]] = {}
    if soft:
        child_rngs = rng.spawn(len(specs)) if rng is not None else [None] * len(specs)
        candidates = [specs[index][0] for index in soft]
        foreigns = [repository.get(candidate.foreign_table) for candidate in candidates]
        added = _map_candidate_joins(
            base,
            foreigns,
            candidates,
            soft_strategy,
            time_resample,
            [child_rngs[index] for index in soft],
            executor,
            [foreign.num_columns for foreign in foreigns],
        )
        soft_added = dict(zip(soft, added))
    out_columns = list(base.columns())
    for index, ((_candidate, positions, names), build) in enumerate(zip(specs, prepared)):
        if build is None:
            kept = [soft_added[index][position] for position in positions]
        else:
            # the build side holds exactly the kept columns, in position order
            kept = build.gather(build.probe_chunk(base))
        out_columns.extend(column.rename(name) for column, name in zip(kept, names))
    return Table(out_columns, name=base.name)


def join_candidates(
    base: Table,
    repository: DataRepository,
    candidates: list[JoinCandidate],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    suffix: str = "_r",
    widths: list[int] | None = None,
) -> tuple[Table, dict[str, list[str]]]:
    """Join every candidate in a batch onto ``base``.

    Returns the joined table and a mapping from foreign table name to the list
    of column names it contributed, which the pipeline uses to trace selected
    features back to tables.  See :func:`join_candidates_detailed` for the
    execution model; this wrapper only aggregates its per-candidate column
    lists by foreign table.
    """
    candidates = list(candidates)
    joined, added_per_candidate = join_candidates_detailed(
        base,
        repository,
        candidates,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=rng,
        executor=executor,
        suffix=suffix,
        widths=widths,
    )
    contributed: dict[str, list[str]] = {}
    for candidate, added in zip(candidates, added_per_candidate):
        contributed.setdefault(candidate.foreign_table, []).extend(added)
    return joined, contributed


def join_candidates_detailed(
    base: Table,
    repository: DataRepository,
    candidates: list[JoinCandidate],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    suffix: str = "_r",
    widths: list[int] | None = None,
) -> tuple[Table, list[list[str]]]:
    """Join every candidate onto ``base``, tracking added columns per candidate.

    Every join is a LEFT join that preserves base rows and order and only adds
    columns, and candidate keys always reference base-table columns, so the
    batch decomposes into independent per-candidate tasks: each candidate is
    joined against a projection of ``base`` onto its key columns (optionally
    in parallel on ``executor``), and the contributed columns are spliced back
    in candidate order.  Column-name collisions between candidates are
    resolved at merge time with ``suffix``, and each candidate gets its own
    generator spawned deterministically from ``rng`` — both choices make the
    output identical regardless of the executor backend.

    ``widths`` optionally supplies the planner's per-candidate feature
    estimates (``JoinBatch.feature_counts``) used to schedule the widest joins
    first on a parallel executor.

    Returns the joined table and, aligned with ``candidates``, the list of
    column names each candidate added.  A candidate's columns keep a stable
    order (the foreign table's column order) even when collision suffixing
    renames them, so position within the list identifies a column across
    differently-named joins of the same candidate.
    """
    candidates = list(candidates)
    if not candidates:
        return base, []
    child_rngs = rng.spawn(len(candidates)) if rng is not None else [None] * len(candidates)
    foreigns = [repository.get(c.foreign_table) for c in candidates]
    if widths is None or len(widths) != len(candidates):
        widths = [foreign.num_columns for foreign in foreigns]
    results = _map_candidate_joins(
        base, foreigns, candidates, soft_strategy, time_resample, child_rngs, executor, widths
    )

    out_columns = list(base.columns())
    existing = set(base.column_names)
    added_per_candidate: list[list[str]] = []
    for new_columns in results:
        added = []
        for col in new_columns:
            name = unique_name(col.name, existing, suffix)
            if name != col.name:
                col = col.rename(name)
            existing.add(name)
            out_columns.append(col)
            added.append(name)
        added_per_candidate.append(added)
    return Table(out_columns, name=base.name), added_per_candidate
