"""Resident serving server: micro-batching, hot reload, metrics.

:class:`PredictionServer` keeps one :class:`~repro.serving.pipeline.
FittedPipeline` resident — artifact loaded, repository snapshot pinned and
pre-touched, join build sides prepared — behind a small stdlib HTTP front
end, so scoring a row costs a dictionary-to-column decode, a hash probe per
kept join and a forest walk instead of a process start and an artifact load.

Architecture (one process, threads only):

* **admission** — HTTP handler threads (one per connection,
  ``ThreadingHTTPServer``) validate request shape, enqueue a ``_Job`` on a
  bounded queue and block on the job's event.  A full queue answers 503
  immediately: backpressure beats unbounded latency.
* **scoring** — ``workers`` scorer threads pull from the queue.  A worker
  takes the first job blocking, then coalesces more until the batch reaches
  ``max_batch_rows`` rows or ``max_wait_ms`` passes, decodes *all* coalesced
  rows into one table, predicts once, and splits the vector back per job by
  row offsets.  Single-row requests arriving together therefore pay one join
  replay and one estimator dispatch.  If the merged batch fails, each job is
  re-scored alone so one malformed request cannot fail its batch-mates.
* **generations** — the live pipeline is wrapped in a ``_Generation`` with an
  in-flight refcount.  A hot reload loads + binds + warms (which prepares the
  join build sides) the *new* pipeline completely before swapping the
  pointer; the old generation is retired and its snapshot released only
  when its last in-flight batch finishes.  Requests never observe a
  half-swapped pipeline and never fail because of a swap.
* **watcher** — an optional thread re-reads the artifact (its content
  fingerprint) and the repository manifest generation every
  ``reload_interval_s`` and triggers :meth:`PredictionServer.check_reload`.
  A failed reload (torn write, drifted fingerprint) keeps the old generation
  serving and counts ``server.reload_failures``.

Byte-identity: a served prediction equals ``FittedPipeline.predict`` on the
same rows offline — the server runs the very same decode/join/encode/predict
kernels.  The one caveat is inherited from the pipeline (see its module
docstring): serve-time random draws restart per transform call, so rows with
*missing categorical values* may impute differently depending on which rows
they were coalesced with.  Complete rows are byte-identical under any
batching.

Shutdown drains: :meth:`PredictionServer.close` stops accepting, waits (up
to ``drain_timeout_s``) for admitted requests to finish, then stops workers
and the watcher and releases the pinned snapshot.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.config import ServingConfig
from repro.discovery.repository import DataRepository, RepositorySnapshot
from repro.observability import MetricsRegistry, get_registry
from repro.serving.codec import (
    RequestError,
    parse_predict_payload,
    predictions_to_payload,
    rows_to_table,
)
from repro.serving.pipeline import FittedPipeline

__all__ = ["PredictionServer"]

_STOP = object()

# batch-size histogram buckets: powers of two up to the default batch cap
_BATCH_BUCKETS = tuple(float(2**i) for i in range(0, 11))


def _read_artifact(path: Path) -> tuple[bytes, str]:
    """The artifact's bytes and their content hash, from one read.

    The hash is what "the artifact changed" means.  A generation parses the
    very bytes it hashed, so a file replaced between two reads can never
    pair one version's fingerprint with another version's pipeline.
    """
    data = path.read_bytes()
    return data, hashlib.blake2b(data, digest_size=16).hexdigest()


class _Completion:
    """Set-once completion flag of one job, waited on by one handler thread.

    A lock the handler holds until the scorer releases it: setting it is one
    C-level release, where ``threading.Event.set`` runs condition-variable
    bookkeeping in Python for every scored job, inside the scoring batch.
    """

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        self._lock.release()

    def is_set(self) -> bool:
        return not self._lock.locked()

    def wait(self, timeout: float) -> bool:
        if not self._lock.acquire(timeout=timeout):
            return False
        self._lock.release()
        return True


class _Job:
    """One admitted predict request, waiting on a scorer worker."""

    __slots__ = ("rows", "event", "predictions", "error", "generation")

    def __init__(self, rows: list[dict]):
        self.rows = rows
        self.event = _Completion()
        self.predictions: list | None = None
        self.error: tuple[int, str] | None = None  # (http status, message)
        self.generation: int = -1

    @property
    def count(self) -> int:
        return len(self.rows)


class _Generation:
    """One immutable serving pipeline plus its lifetime accounting.

    ``inflight``/``retired`` are guarded by the server's generation lock; the
    pipeline's pinned snapshot is released exactly once, when the generation
    is retired *and* its last in-flight batch has finished.
    """

    __slots__ = ("pipeline", "artifact_fingerprint", "repo_generation", "index",
                 "inflight", "retired")

    def __init__(
        self,
        pipeline: FittedPipeline,
        artifact_fingerprint: str,
        repo_generation: int | None,
        index: int,
    ):
        self.pipeline = pipeline
        self.artifact_fingerprint = artifact_fingerprint
        self.repo_generation = repo_generation
        self.index = index
        self.inflight = 0
        self.retired = False


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP front end; all logic lives on the owning server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    @property
    def owner(self) -> "PredictionServer":
        return self.server.owner

    def _respond(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close or self.owner._draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        owner = self.owner
        if self.path == "/healthz":
            if owner._draining:
                self._respond(503, {"status": "draining"})
            else:
                self._respond(
                    200, {"status": "ok", "generation": owner.generation}
                )
        elif self.path == "/metrics":
            self._respond(200, owner.registry.snapshot())
        else:
            self._respond(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/predict":
            self._respond(404, {"error": f"no such endpoint: {self.path}"})
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # the body's extent is unknown, so it can be neither read nor
            # skipped: answer without reading and drop the connection
            self.owner.registry.counter("server.responses_4xx").inc()
            self._respond(400, {"error": f"malformed Content-Length: {length!r}"}, close=True)
            return
        started = time.monotonic()
        status, payload = self.owner._handle_predict(self.rfile.read(int(length)))
        self.owner.registry.histogram("server.request_s").observe(
            time.monotonic() - started
        )
        if status >= 500:
            self.owner.registry.counter("server.responses_5xx").inc()
        elif status >= 400:
            self.owner.registry.counter("server.responses_4xx").inc()
        self._respond(status, payload)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # rebinding the benchmark/test port immediately after a previous server
    allow_reuse_address = True
    # the stdlib default accept backlog of 5 makes a burst of >5 simultaneous
    # connections overflow the listen queue; the kernel then drops the SYN and
    # the client retries after a full second, which shows up as a ~1s p99 under
    # 16 concurrent clients
    request_queue_size = 128

    def __init__(self, address, handler, owner: "PredictionServer"):
        self.owner = owner
        super().__init__(address, handler)


class PredictionServer:
    """A resident micro-batching prediction server for one fitted artifact.

    Parameters
    ----------
    artifact:
        Path to a ``FittedPipeline.save`` artifact.  The file is watched for
        content changes (hot reload) while the server runs.
    repository:
        What the fitted joins replay against: a directory path (opened as a
        disk-backed :class:`~repro.discovery.repository.DataRepository`), a
        live repository, or ``None`` for join-free pipelines.  A live
        repository is snapshot-pinned per generation and its manifest is
        watched for new generations.
    config:
        A :class:`~repro.core.config.ServingConfig`; defaults apply when
        omitted.
    registry:
        Metrics registry to record into; the process-wide default when
        omitted.  ``/metrics`` serves this registry's snapshot.

    Usage::

        with PredictionServer("model.pipeline", repository="lake/",
                              config=ServingConfig(port=0)) as server:
            host, port = server.address
            ...

    ``start`` binds the socket, loads + binds + warms the pipeline, and spins
    up workers, the HTTP thread and the watcher; ``close`` drains and stops
    everything.  All endpoints speak JSON; see ``docs/ARCHITECTURE.md`` for
    the endpoint table and lifecycle details.
    """

    def __init__(
        self,
        artifact: str | Path,
        repository: DataRepository | str | Path | None = None,
        config: ServingConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.artifact_path = Path(artifact)
        self.config = config if config is not None else ServingConfig()
        self.registry = registry if registry is not None else get_registry()
        if isinstance(repository, (str, Path)):
            repository = DataRepository.open(repository)
            self._owns_repository = True
        else:
            self._owns_repository = False
        if isinstance(repository, RepositorySnapshot):
            raise TypeError(
                "PredictionServer hot-reloads across manifest generations and "
                "needs the live DataRepository, not a pinned snapshot"
            )
        self.repository = repository
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._workers: list[threading.Thread] = []
        self._watcher: threading.Thread | None = None
        self._watcher_stop = threading.Event()
        self._http: _HTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._live: _Generation | None = None
        self._gen_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._inflight_requests = 0
        self._inflight_lock = threading.Lock()
        self._inflight_zero = threading.Condition(self._inflight_lock)
        self._draining = False
        self._started = False
        # the scorer workers' per-batch instruments, looked up once
        self._batches = self.registry.counter("server.batches")
        self._batch_rows = self.registry.histogram("server.batch_rows", buckets=_BATCH_BUCKETS)
        self._batch_s = self.registry.histogram("server.batch_s")
        self.registry.register_source("server.state", self._state)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "PredictionServer":
        """Bind, load the artifact, and start workers + HTTP + watcher."""
        if self._started:
            raise RuntimeError("server already started")
        self._live = self._load_generation(index=0)
        self._http = _HTTPServer(
            (self.config.host, self.config.port), _Handler, owner=self
        )
        for i in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"scorer-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="http", daemon=True
        )
        self._http_thread.start()
        if self.config.reload_interval_s > 0:
            self._watcher = threading.Thread(
                target=self._watch_loop, name="reload-watcher", daemon=True
            )
            self._watcher.start()
        self._started = True
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real one."""
        if self._http is None:
            raise RuntimeError("server not started")
        return self._http.server_address[0], self._http.server_address[1]

    @property
    def generation(self) -> int:
        """Swap index of the live pipeline generation (0 = initial load)."""
        with self._gen_lock:
            return self._live.index if self._live is not None else -1

    def __enter__(self) -> "PredictionServer":
        return self if self._started else self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: drain admitted requests, then stop everything.

        Ordering: stop accepting (new predicts answer 503) → wait up to
        ``drain_timeout_s`` for every admitted request to get its response →
        stop scorer workers and the watcher → close the socket → retire the
        live generation (releasing its snapshot once in-flight hits zero).
        Idempotent.
        """
        self._draining = True
        if self._http is not None:
            self._http.shutdown()
        with self._inflight_zero:
            self._inflight_zero.wait_for(
                lambda: self._inflight_requests == 0,
                timeout=self.config.drain_timeout_s,
            )
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=self.config.drain_timeout_s)
        self._workers = []
        self._watcher_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=self.config.drain_timeout_s)
            self._watcher = None
        if self._http is not None:
            self._http.server_close()
            self._http = None
        with self._gen_lock:
            live, self._live = self._live, None
        if live is not None:
            self._retire(live)
        self.registry.unregister_source("server.state")

    # -- generations and hot reload --------------------------------------------

    def _load_generation(
        self, index: int, artifact: tuple[bytes, str] | None = None
    ) -> _Generation:
        """Load + bind + warm a fresh pipeline; only then is it swappable.

        ``artifact`` is a :func:`_read_artifact` result already in hand; the
        file is read once here otherwise.
        """
        data, fingerprint = artifact or _read_artifact(self.artifact_path)
        pipeline = FittedPipeline.load(data)
        repo_generation = None
        if self.repository is not None:
            pipeline.bind(self.repository)
            # pre-touch every join table so this generation keeps serving even
            # if an external writer garbage-collects superseded files (a pin
            # only protects files this process has already opened), and
            # prepare the join build sides off the request path
            pipeline.warm()
            repo_generation = self.repository.generation
        elif pipeline.joins:
            raise ValueError(
                "this pipeline replays joins; PredictionServer needs "
                "repository=... to serve it"
            )
        return _Generation(pipeline, fingerprint, repo_generation, index)

    def check_reload(self) -> bool:
        """Reload the pipeline if the artifact or repository changed.

        Compares the artifact's content fingerprint and (for a disk-backed
        repository) the manifest generation after
        :meth:`~repro.discovery.repository.DataRepository.reload`.  On
        change, the new generation is fully constructed — loaded, fingerprint
        -validated against the repository, warmed — *before* the live pointer
        swaps, and the old generation keeps scoring its in-flight batches to
        completion.  Any failure (torn artifact write, drifted table) leaves
        the old generation serving and increments ``server.reload_failures``.
        Returns whether a swap happened.  Thread-safe; the watcher calls this
        periodically, tests may call it directly.
        """
        with self._reload_lock:
            live = self._live
            if live is None:
                return False
            try:
                if self.repository is not None and self.repository.is_disk_backed:
                    self.repository.reload()
                artifact = _read_artifact(self.artifact_path)
                repo_generation = (
                    self.repository.generation if self.repository is not None else None
                )
                if (
                    artifact[1] == live.artifact_fingerprint
                    and repo_generation == live.repo_generation
                ):
                    return False
                fresh = self._load_generation(live.index + 1, artifact)
            except Exception:
                self.registry.counter("server.reload_failures").inc()
                return False
            with self._gen_lock:
                self._live = fresh
            self._retire(live)
            self.registry.counter("server.reloads").inc()
            return True

    def _watch_loop(self) -> None:
        while not self._watcher_stop.wait(self.config.reload_interval_s):
            self.check_reload()

    def _acquire_generation(self) -> _Generation:
        with self._gen_lock:
            generation = self._live
            generation.inflight += 1
            return generation

    def _release_generation(self, generation: _Generation) -> None:
        with self._gen_lock:
            generation.inflight -= 1
            done = generation.retired and generation.inflight == 0
        if done:
            generation.pipeline.release()

    def _retire(self, generation: _Generation) -> None:
        with self._gen_lock:
            generation.retired = True
            done = generation.inflight == 0
        if done:
            generation.pipeline.release()

    # -- admission -------------------------------------------------------------

    def _state(self) -> dict:
        """Pull-based ``server.state`` metrics source."""
        return {
            "generation": self.generation,
            "queue_len": self._queue.qsize(),
            "inflight_requests": self._inflight_requests,
            "workers": len(self._workers),
            "draining": self._draining,
        }

    def _handle_predict(self, body: bytes) -> tuple[int, dict]:
        """Admit one predict request and wait for its result."""
        self.registry.counter("server.requests").inc()
        if self._draining:
            return 503, {"error": "server is draining"}
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}
        try:
            rows, single = parse_predict_payload(payload)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        if len(rows) > self.config.max_request_rows:
            return 413, {
                "error": (
                    f"{len(rows)} rows exceed max_request_rows="
                    f"{self.config.max_request_rows}; use the batch `score` "
                    f"CLI for bulk scoring"
                )
            }
        with self._gen_lock:
            live = self._live
        if live is None:
            return 503, {"error": "server is draining"}
        # reject rows missing fitted base columns here, so an incomplete
        # request cannot ride a coalesced batch into silent imputation —
        # offline predict on these rows alone would raise the same complaint
        required = live.pipeline.required_columns
        missing = [
            name for name in required if not any(name in row for row in rows)
        ]
        if missing:
            return 400, {"error": f"serving rows are missing base columns: {missing}"}
        job = _Job(rows)
        with self._inflight_lock:
            self._inflight_requests += 1
        try:
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                return 503, {"error": "admission queue is full; retry later"}
            if not job.event.wait(timeout=self.config.drain_timeout_s):
                return 504, {"error": "prediction timed out in the queue"}
        finally:
            with self._inflight_zero:
                self._inflight_requests -= 1
                self._inflight_zero.notify_all()
        if job.error is not None:
            status, message = job.error
            return status, {"error": message}
        self.registry.counter("server.rows").inc(len(rows))
        result: dict = {"generation": job.generation}
        if single:
            result["prediction"] = job.predictions[0]
        else:
            result["predictions"] = job.predictions
        return 200, result

    # -- scoring ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        config = self.config
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            jobs = [job]
            rows = job.count
            deadline = time.monotonic() + config.max_wait_ms / 1000.0
            stop_seen = False
            while rows < config.max_batch_rows:
                remaining = deadline - time.monotonic()
                try:
                    nxt = (
                        self._queue.get(timeout=remaining)
                        if remaining > 0
                        else self._queue.get_nowait()
                    )
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop_seen = True
                    break
                jobs.append(nxt)
                rows += nxt.count
            self._score_jobs(jobs)
            if stop_seen:
                return

    def _predict_rows(self, pipeline: FittedPipeline, rows: list[dict]) -> list:
        table = rows_to_table(rows, pipeline.base_schema)
        predictions = pipeline.predict(
            table, executor=self.config.executor, n_jobs=self.config.n_jobs
        )
        return predictions_to_payload(predictions)

    def _score_jobs(self, jobs: list[_Job]) -> None:
        """Score one coalesced micro-batch; fall back per-job on failure."""
        generation = self._acquire_generation()
        try:
            merged = [row for job in jobs for row in job.rows]
            self._batches.inc()
            self._batch_rows.observe(float(len(merged)))
            started = time.monotonic()
            try:
                payload = self._predict_rows(generation.pipeline, merged)
                offset = 0
                for job in jobs:
                    job.predictions = payload[offset:offset + job.count]
                    job.generation = generation.index
                    offset += job.count
            except Exception:
                # one bad request must not fail its batch-mates: retry each
                # job alone so errors land only on their own request
                for job in jobs:
                    try:
                        job.predictions = self._predict_rows(
                            generation.pipeline, job.rows
                        )
                        job.generation = generation.index
                    except (RequestError, KeyError, TypeError, ValueError) as exc:
                        message = exc.args[0] if exc.args else str(exc)
                        job.error = (400, str(message))
                    except Exception as exc:  # pragma: no cover - defensive
                        job.error = (500, f"{type(exc).__name__}: {exc}")
            self._batch_s.observe(time.monotonic() - started)
        finally:
            self._release_generation(generation)
            for job in jobs:
                job.event.set()
