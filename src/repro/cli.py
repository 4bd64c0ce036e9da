"""The unified command-line front end: ``python -m repro``.

One entrypoint for everything the repository ships operationally:

* ``inspect`` — describe a fitted artifact from its header alone (target,
  task, join plan with fingerprints, feature count, estimator kind, page
  sizes); no repository needed and no page is read.
* ``score`` — one-shot batch scoring: load an artifact, bind it to a
  repository (fingerprint validated), score a table of base rows and write
  (or print) the predictions.  ``--batch-rows`` switches to the
  bounded-memory streaming path.
* ``server`` (alias ``serve``) — run the resident
  :class:`~repro.serving.server.PredictionServer`: micro-batching HTTP
  scoring with hot artifact reload and a ``/metrics`` endpoint.
* ``repo stat`` — describe every table of a repository directory from file
  headers alone; the footer line proves only headers and zone maps were
  read.
* ``repo rechunk`` — rewrite one table (or every table) to a new row-group
  layout, atomically, without changing content fingerprints.
* ``sweep`` — the planted-ground-truth fuzzing sweep: sample seeded
  scenarios (``repro.datasets.sqlgen``), run discovery + ARDA end to end on
  each, and score against the plant; failing scenarios serialize JSON repro
  files that ``sweep --replay FILE`` re-runs standalone.

Examples::

    python -m repro inspect model.pipeline
    python -m repro score model.pipeline --repository lake/ \\
        --rows fresh.csv --output predictions.csv --batch-rows 50000
    python -m repro server model.pipeline --repository lake/ --port 8765
    python -m repro repo stat lake/
    python -m repro repo rechunk lake/ orders --chunk-rows 65536
    python -m repro sweep --n-scenarios 100 --seed 0 --json
    python -m repro sweep --replay _sweep_failures/sqlgen-quick-s0-i7.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import ServingConfig
from repro.discovery.repository import DataRepository
from repro.relational.column import Column
from repro.relational.io import read_csv, write_csv
from repro.relational.persist import (
    MAGIC,
    TableFormatError,
    TableHeader,
    bytes_read_detail,
    reset_bytes_read,
)
from repro.relational.table import Table
from repro.serving.artifact import ArtifactError, read_artifact_header
from repro.serving.pipeline import FittedPipeline
from repro.serving.server import PredictionServer

__all__ = ["main"]


def _load_rows(path: Path) -> Table:
    """Read serving rows from a native ``.tbl`` or a CSV file.

    Dispatches on *content*, not file extension: a file starting with the
    native table magic is memory-mapped via :meth:`Table.load`, anything
    that decodes as text is parsed as CSV (so ``rows.CSV``, ``rows.txt`` or
    an extensionless export all work), and anything else fails with an error
    naming the two accepted formats instead of a deep format-layer
    traceback.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return Table.load(path)
    try:
        return read_csv(path, name=path.stem)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValueError(
            f"{path} is neither a native table file (magic {MAGIC!r}) nor "
            f"parseable CSV: {exc}"
        ) from exc


# -- artifact commands ---------------------------------------------------------


def _cmd_inspect(args) -> int:
    header = read_artifact_header(args.artifact)
    doc = header["doc"]
    page_bytes = sum(page["nbytes"] for page in header["pages"])
    print(f"artifact   : {args.artifact}")
    print(f"version    : {header['version']}")
    print(f"target     : {doc['target']}  ({doc['task']})")
    print(f"base cols  : {len(doc['base_schema'])}")
    print(f"features   : {sum(len(c['feature_names']) for c in doc['encoder']['columns'])}")
    print(f"estimator  : {doc['estimator'].get('kind', '?')}")
    print(f"pages      : {len(header['pages'])} ({page_bytes / 1e3:.1f} kB)")
    print(f"joins      : {len(doc['joins'])}")
    for step in doc["joins"]:
        keys = ", ".join(f"{b}->{f}{'~' if soft else ''}" for b, f, soft in step["keys"])
        print(
            f"  - {step['foreign_table']} [{keys}] keeps "
            f"{len(step['column_names'])} columns "
            f"(fingerprint {step['fingerprint'][:12]}…)"
        )
    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    return 0


def _cmd_score(args) -> int:
    if args.repository is not None:
        repository = DataRepository.open(args.repository, lru_tables=args.lru_tables)
    else:
        repository = None
    pipeline = FittedPipeline.load(args.artifact, repository=repository)
    if pipeline.joins and repository is None:
        print(
            "error: this pipeline replays joins; pass --repository DIR",
            file=sys.stderr,
        )
        return 2
    rows = _load_rows(args.rows)
    predictions = pipeline.predict(rows, batch_rows=args.batch_rows)
    out = Table([Column("prediction", list(predictions))], name="predictions")
    if args.output is not None:
        write_csv(out, args.output)
        print(f"wrote {len(predictions)} predictions to {args.output}")
    else:
        for value in predictions[: args.head]:
            print(value)
        if len(predictions) > args.head:
            print(f"... ({len(predictions)} total; use --output to write all)")
    return 0


def _cmd_server(args) -> int:
    config = ServingConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        max_request_rows=args.max_request_rows,
        reload_interval_s=args.reload_interval,
        drain_timeout_s=args.drain_timeout,
    )
    import signal
    import threading

    server = PredictionServer(args.artifact, repository=args.repository, config=config)
    # Take over SIGINT before the banner goes out: the banner is the caller's
    # cue that the server is up, so a SIGINT may arrive while the main thread
    # is still between start() and the wait below — with the default handler
    # that KeyboardInterrupt would escape the try block and kill the process
    # without draining.  An event-setting handler has no such window.
    stop = threading.Event()
    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    except ValueError:
        pass  # not the main thread (embedded use); fall back to KeyboardInterrupt
    server.start()
    host, port = server.address
    print(f"serving {args.artifact} on http://{host}:{port}", flush=True)
    print(
        f"  workers={config.workers} max_batch_rows={config.max_batch_rows} "
        f"max_wait_ms={config.max_wait_ms} reload_interval_s={config.reload_interval_s}",
        flush=True,
    )
    try:
        stop.wait()  # serve until interrupted
        print("draining ...", flush=True)
    except KeyboardInterrupt:
        print("draining ...", flush=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        server.close()
    return 0


# -- sweep command -------------------------------------------------------------


def _cmd_sweep(args) -> int:
    import tempfile

    from repro.core.config import SweepConfig
    from repro.datasets.sqlgen import ScenarioSweep, replay_repro, run_streaming_scenario
    from repro.evaluation.reporting import format_sweep

    if args.replay is not None:
        score = replay_repro(args.replay)
        if args.json:
            print(json.dumps(score.to_doc(), indent=2, sort_keys=True))
        else:
            print(format_sweep([score]))
            for failure in score.failures:
                print(f"  FAIL: {failure}")
        return 0 if score.passed else 1

    config = SweepConfig(
        n_scenarios=args.n_scenarios,
        seed=args.seed,
        profile=args.profile,
        layout=args.layout,
        chunk_rows=args.chunk_rows,
        executor=args.executor,
        n_jobs=args.n_jobs,
        min_discovery_recall=args.min_recall,
        repro_dir=str(args.repro_dir),
    )
    sweep = ScenarioSweep(config)
    streaming = None
    if config.layout == "memory" and not args.streaming:
        result = sweep.run()
    else:
        with tempfile.TemporaryDirectory(prefix="arda-sweep-") as tmp:
            result = sweep.run(work_dir=None if config.layout == "memory" else tmp)
            if args.streaming:
                streaming = run_streaming_scenario(Path(tmp) / "streaming", seed=config.seed)

    if args.json:
        doc = {"summary": result.summary(), "scores": [s.to_doc() for s in result.scores]}
        if streaming is not None:
            doc["streaming"] = streaming.to_doc()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_sweep(result.scores))
        summary = result.summary()
        print(
            f"{summary['scenarios']} scenarios ({summary['profile']}, "
            f"{summary['layout']}): {summary['failed']} failed, "
            f"mean discovery recall {summary['mean_discovery_recall']:.3f}, "
            f"mean selection recall {summary['mean_selection_recall']:.3f}, "
            f"mean uplift {summary['mean_uplift']:+.4f} "
            f"[{summary['elapsed_s']:.1f}s]"
        )
        for path in result.repro_files:
            print(f"repro file: {path}")
        if streaming is not None:
            status = "ok" if streaming.passed else "FAILED"
            print(
                f"streaming scenario: {status} ({streaming.n_batches} ingests, "
                f"generations {streaming.generations[0]}->{streaming.generations[-1]}, "
                f"{streaming.n_failed_requests}/{streaming.n_requests} failed requests, "
                f"predictions pinned: {streaming.predictions_pinned})"
            )
    failed = not result.passed or (streaming is not None and not streaming.passed)
    return 1 if failed else 0


# -- repository commands -------------------------------------------------------


def _zone_coverage(header: TableHeader) -> float | None:
    """Fraction of (chunk, column) zone-map slots carrying a (min, max) range.

    ``None`` for legacy version-1 files, which have no zone map at all.
    A slot is empty when the chunk holds no valid value for that column, so
    coverage below 1.0 usually just reflects all-missing column stretches.
    """
    if not header.chunks:
        return None
    total = len(header.chunks) * len(header.columns)
    if total == 0:
        return None
    filled = sum(
        1 for chunk in header.chunks for zone in chunk.zones if zone is not None
    )
    return filled / total


def _header_file_size(header: TableHeader) -> int:
    """File size implied by the header alone: page zone start + page bytes."""
    return header.pages_start + header.pages_nbytes


def _chunk_zones(header: TableHeader) -> list[dict]:
    """Per-chunk zone-map key ranges, straight from the header.

    One entry per row group: its global row span plus, for every column, the
    ``[min, max]`` zone (value range for float-backed columns, code range for
    categoricals) or ``None`` when the chunk holds no valid value.  Empty for
    legacy version-1 files.  This is what the streaming join's pruner
    consults, so an operator can judge prune-friendliness — a sort-ordered key
    shows disjoint, monotonically increasing ranges.
    """
    names = header.column_names
    return [
        {
            "chunk": index,
            "row_start": chunk.row_start,
            "rows": chunk.rows,
            "zones": {
                name: (list(zone) if zone is not None else None)
                for name, zone in zip(names, chunk.zones)
            },
        }
        for index, chunk in enumerate(header.chunks or ())
    ]


def _table_row(name: str, entry, include_zones: bool = False) -> dict:
    header = entry.header
    coverage = _zone_coverage(header)
    row = {
        "name": name,
        "rows": header.num_rows,
        "columns": len(header.columns),
        "version": 1 if header.chunks is None else 2,
        "chunks": header.num_chunks,
        "chunk_rows": header.chunk_rows,
        "sort_by": header.sort_by,
        "zone_coverage": coverage,
        "file_bytes": _header_file_size(header),
        "fingerprint": header.fingerprint,
        "file": entry.path.name,
    }
    if include_zones:
        row["chunk_zones"] = _chunk_zones(header)
    return row


def _cmd_stat(args) -> int:
    reset_bytes_read()
    repository = DataRepository.open(args.directory, load_profiles=False)
    rows = []
    for name in sorted(repository.table_names):
        entry = repository._catalog.get(name)
        if entry is None:
            continue  # in-memory only; nothing on disk to describe
        rows.append(_table_row(name, entry, include_zones=args.json))
    detail = bytes_read_detail()
    if args.json:
        print(json.dumps({"tables": rows, "bytes_read": detail}, indent=2))
        return 0
    if not rows:
        print(f"{args.directory}: no tables")
        return 0
    fmt = "{:<20} {:>10} {:>5} {:>3} {:>7} {:>11} {:>9} {:>12} {:>12}"
    print(fmt.format("table", "rows", "cols", "ver", "chunks", "chunk_rows", "zones",
                     "sorted_by", "bytes"))
    for row in rows:
        coverage = "-" if row["zone_coverage"] is None else f"{row['zone_coverage']:.0%}"
        target = "-" if row["chunk_rows"] is None else str(row["chunk_rows"])
        print(
            fmt.format(
                row["name"],
                row["rows"],
                row["columns"],
                f"v{row['version']}",
                row["chunks"],
                target,
                coverage,
                row["sort_by"] or "-",
                row["file_bytes"],
            )
        )
    total_bytes = sum(row["file_bytes"] for row in rows)
    total_chunks = sum(row["chunks"] for row in rows)
    print(
        f"{len(rows)} tables, {total_chunks} chunks, "
        f"{total_bytes / 1e6:.2f} MB (header-derived)"
    )
    read = ", ".join(f"{kind}={count}" for kind, count in sorted(detail.items()) if count)
    print(f"bytes read: {read or 'none'}  (headers and zone maps only)")
    return 0


def _cmd_rechunk(args) -> int:
    if args.all == (args.table is not None):
        print("error: name exactly one table, or pass --all", file=sys.stderr)
        return 2
    repository = DataRepository.open(args.directory, load_profiles=False)
    names = sorted(repository._catalog) if args.all else [args.table]
    for name in names:
        before = repository._catalog[name].header.num_chunks
        repository.rechunk(name, chunk_rows=args.chunk_rows, sort_by=args.sort_by)
        entry = repository._catalog[name]
        marker = f", sorted by {entry.header.sort_by}" if entry.header.sort_by else ""
        print(f"{name}: {before} -> {entry.header.num_chunks} chunks "
              f"({entry.path.name}{marker})")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="describe an artifact from its header")
    inspect.add_argument("artifact", type=Path, help="path to a .pipeline artifact")
    inspect.add_argument("--json", action="store_true", help="also dump the full header doc")
    inspect.set_defaults(func=_cmd_inspect)

    score = sub.add_parser("score", help="batch-score rows with a fitted pipeline")
    score.add_argument("artifact", type=Path, help="path to a .pipeline artifact")
    score.add_argument("--rows", type=Path, required=True, help="base rows (.tbl or CSV)")
    score.add_argument(
        "--repository", type=Path, default=None,
        help="directory of binary tables the fitted joins replay against",
    )
    score.add_argument("--output", type=Path, default=None, help="write predictions CSV here")
    score.add_argument(
        "--batch-rows", type=int, default=None,
        help="stream in micro-batches of this many rows (bounded memory)",
    )
    score.add_argument("--lru-tables", type=int, default=16)
    score.add_argument("--head", type=int, default=10, help="predictions to print without --output")
    score.set_defaults(func=_cmd_score)

    defaults = ServingConfig()
    server = sub.add_parser(
        "server", aliases=["serve"],
        help="run the resident micro-batching prediction server",
    )
    server.add_argument("artifact", type=Path, help="path to a .pipeline artifact")
    server.add_argument(
        "--repository", type=Path, default=None,
        help="directory of binary tables the fitted joins replay against",
    )
    server.add_argument("--host", default=defaults.host)
    server.add_argument("--port", type=int, default=defaults.port, help="0 = ephemeral")
    server.add_argument("--workers", type=int, default=defaults.workers)
    server.add_argument("--max-batch-rows", type=int, default=defaults.max_batch_rows)
    server.add_argument("--max-wait-ms", type=float, default=defaults.max_wait_ms)
    server.add_argument("--queue-depth", type=int, default=defaults.queue_depth)
    server.add_argument("--max-request-rows", type=int, default=defaults.max_request_rows)
    server.add_argument(
        "--reload-interval", type=float, default=defaults.reload_interval_s,
        help="seconds between hot-reload checks (0 disables the watcher)",
    )
    server.add_argument("--drain-timeout", type=float, default=defaults.drain_timeout_s)
    server.set_defaults(func=_cmd_server)

    sweep = sub.add_parser(
        "sweep",
        help="planted-ground-truth scenario sweep over the full pipeline",
    )
    sweep.add_argument("--n-scenarios", type=int, default=20, help="scenarios to sample")
    sweep.add_argument("--seed", type=int, default=0, help="root seed of every sampler")
    sweep.add_argument("--profile", default="quick", choices=["quick", "full"])
    sweep.add_argument(
        "--layout", default="monolithic", choices=["monolithic", "chunked", "memory"],
        help="repository layout scenarios materialise into: one row group per "
        "file, row groups of --chunk-rows, or in memory (scores are identical)",
    )
    sweep.add_argument("--chunk-rows", type=int, default=64, help="row-group target for --layout chunked")
    sweep.add_argument("--executor", default="serial", choices=["serial", "thread", "process"])
    sweep.add_argument("--n-jobs", type=int, default=None)
    sweep.add_argument(
        "--min-recall", type=float, default=0.9,
        help="per-scenario floor on planted-join discovery recall",
    )
    sweep.add_argument(
        "--repro-dir", type=Path, default=Path("_sweep_failures"),
        help="failing scenarios serialize JSON repro files here",
    )
    sweep.add_argument(
        "--replay", type=Path, default=None, metavar="FILE",
        help="re-run one failing scenario from its JSON repro file and exit",
    )
    sweep.add_argument(
        "--streaming", action="store_true",
        help="also run the append-only micro-batch ingest scenario against a live server",
    )
    sweep.add_argument("--json", action="store_true", help="machine-readable output")
    sweep.set_defaults(func=_cmd_sweep)

    repo = sub.add_parser("repo", help="repository maintenance (stat, rechunk)")
    repo_sub = repo.add_subparsers(dest="repo_command", required=True)

    stat = repo_sub.add_parser("stat", help="describe a repository from headers alone")
    stat.add_argument("directory", type=Path, help="repository directory of .tbl files")
    stat.add_argument("--json", action="store_true", help="machine-readable output")
    stat.set_defaults(func=_cmd_stat)

    rechunk = repo_sub.add_parser("rechunk", help="rewrite tables to a new row-group layout")
    rechunk.add_argument("directory", type=Path, help="repository directory of .tbl files")
    rechunk.add_argument("table", nargs="?", default=None, help="table to rewrite")
    rechunk.add_argument("--all", action="store_true", help="rewrite every table")
    rechunk.add_argument(
        "--chunk-rows", type=int, default=None,
        help="row-group target (0 = one row group; default: "
        "ARDA_CHUNK_ROWS or the streaming default)",
    )
    rechunk.add_argument(
        "--sort-by", default=None, metavar="COLUMN",
        help="physically sort rows by this non-categorical column so chunk "
        "zone maps become disjoint ranges the streaming join can binary-search",
    )
    rechunk.set_defaults(func=_cmd_rechunk)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        # validation KeyErrors carry a full sentence; strip the repr quotes
        # they acquire as an exception argument
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except (
        ArtifactError,
        TableFormatError,
        FileNotFoundError,
        NotADirectoryError,
        TypeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
