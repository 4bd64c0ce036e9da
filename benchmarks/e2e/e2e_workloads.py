"""The four workloads of the end-to-end ARDA benchmark.

Every workload builds its inputs from fixed-shape ``repro.datasets.sqlgen``
scenarios: the *structure* of a scenario (table counts, column kinds, key
domains, fan-outs, target weights) is drawn once from :data:`SHAPE_SEED`,
and the benchmark's ``--seed`` only re-seeds the data (table bodies, base
rows, target noise, unseen rows).  A different seed therefore changes values
but never shapes, which keeps run-to-run work comparable.  The program
receives only the generated tables.

Each workload runs in a child interpreter (:func:`run_child`) in three
phases:

1. **set-up**, repeated ``SETUP_REPS`` times and timed from a fresh
   interpreter's spawn until the first measured operation could start;
   ``setup_s`` is the median.  For the augment workloads that is
   :func:`run_setup` (generate, load or write the lake); for the serve
   workloads the model is trained once and the set-up is the server's cold
   start (import, artifact load, bind, warm);
2. **measurement** for ``--seconds``: a new operation starts only while the
   window is open, so the last one may run past it;
3. **checks** on the outputs, after the clock stops.

An augment operation and a set-up take seconds of pure CPU, and the speed of
a shared host drifts by 30-70 % for tens of seconds at a time.  So a fixed
reference task (:class:`Reference`) runs between operations and set-ups,
and their times are *calibrated* against it: each one is rescaled by how
much slower than nominal the reference ran just before and just after it.
The augment workloads report the median calibrated operation;
``augment_outofcore`` also runs the reference between its augment and
scoring phases and calibrates each phase on its own.  A served request's
client latency is a transport floor (a kernel timer on the seed, measured
per run) plus CPU work; only the CPU part is calibrated
(:func:`calibrated_request_s`), and the serve workloads report the median of
hundreds of requests.

With tracing on, the measurement alternates traced and untraced operations
(augment workloads) or runs one untraced and one traced server lifetime
(serve workloads), so the trace overhead is measured under the same host
conditions as the untraced numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import http.client
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import e2e_tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

WORKLOADS = ("augment_batched", "augment_outofcore", "serve_online", "serve_ingest")

# structure seed of every scenario; --seed re-seeds values only
SHAPE_SEED = 0
SETUP_REPS = 3
# the augment workloads need two operations to compare output digests
MIN_OPS = 2
# augment_batched cycles through this many value draws of its scenario: its
# cost follows the size of the trees the data grows, so averaging draws keeps
# one seed's data from setting the whole run's number
BATCHED_PARTS = 3
# serve_ingest publishes the next sensor micro-batch this often
INGEST_INTERVAL_S = 0.5
CLIENTS = 2
# time of Reference.time_s() at REFERENCE_ROUNDS rounds on an uncontended host of
# the kind the benchmark was sized on (2-vCPU Xeon at 2.1 GHz): calibrated
# timings read in seconds of that host
REFERENCE_ROUNDS = 15
REFERENCE_S = 0.23

# key pools of sqlgen.samplers: decoy keys start at +40_000 inside a planted
# edge's 100_000-wide stride, noise-table keys at +70_000
_DECOY_POOL = 40_000
_NOISE_POOL = 70_000
_STRIDE = 100_000


def check_key_geometry(profile) -> None:
    """Raise unless every decoy and noise key pool stays inside its band.

    ``SamplerProfile`` does not check this: decoy ``d`` takes keys from
    ``40_000 + d * (n_keys_max + 1)`` for up to ``n_keys_max`` values, and
    must end below the noise band at 70_000; noise table ``t`` starts at
    ``70_000 + t * (n_keys_max + 1)`` and must end below the next planted
    domain at 100_000.  A profile that breaks this silently plants overlaps.
    """
    width = profile.n_keys[1]
    for d in range(profile.n_decoys[1]):
        end = _DECOY_POOL + d * (width + 1) + width
        if end >= _NOISE_POOL:
            raise ValueError(
                f"profile {profile.name!r}: decoy {d} key pool ends at {end}, "
                f"inside the noise band (>= {_NOISE_POOL})"
            )
    for t in range(profile.n_noise_tables[1]):
        end = _NOISE_POOL + t * (width + 1) + width
        if end >= _STRIDE:
            raise ValueError(
                f"profile {profile.name!r}: noise table {t} key pool ends at "
                f"{end}, inside the next planted domain (>= {_STRIDE})"
            )


def _settings() -> dict:
    """Per-workload sizes: ``{workload: {"full": {...}, "smoke": {...}}}``."""
    from repro.datasets.sqlgen import SamplerProfile

    batched = dict(
        n_planted=(4, 4), n_decoys=(3, 3), n_noise_tables=(2, 2), fan_out_choices=(2,),
        n_signal_columns=(1, 1), noise_level=(0.05, 0.05), classification_fraction=1.0,
        n_classes_choices=(2,),
    )
    outofcore = dict(n_planted=(3, 3), n_signal_columns=(1, 2), classification_fraction=0.0)
    serve = dict(
        n_planted=(3, 3), n_decoys=(2, 2), n_noise_tables=(1, 1), fan_out_choices=(1, 2, 3),
        n_signal_columns=(1, 2), n_noise_columns=(0, 2), classification_fraction=0.0,
    )
    serve_full = dict(
        profile=SamplerProfile(
            name="e2e-serve", n_base_rows=(400, 400), n_keys=(40, 110),
            n_base_columns=(2, 4), **serve,
        ),
        arda=dict(coreset_size=100, selector_options={"n_rounds": 2}),
        request_rows=256,
    )
    serve_smoke = dict(
        profile=SamplerProfile(
            name="e2e-serve-smoke", n_base_rows=(120, 120), n_keys=(30, 40),
            n_base_columns=(2, 2), **serve,
        ),
        arda=dict(selector_options={"n_rounds": 1}),
        request_rows=32,
    )
    return {
        "augment_batched": {
            "full": dict(
                profile=SamplerProfile(
                    name="e2e-batched", n_base_rows=(300, 300), n_keys=(120, 120),
                    n_noise_columns=(4, 4), n_base_columns=(3, 3), **batched,
                ),
                arda=dict(coreset_size=100, budget=24, selector_options={"n_rounds": 2}),
            ),
            "smoke": dict(
                profile=SamplerProfile(
                    name="e2e-batched-smoke", n_base_rows=(150, 150), n_keys=(40, 40),
                    n_noise_columns=(2, 2), n_base_columns=(2, 2), **batched,
                ),
                arda=dict(coreset_size=60, budget=24, selector_options={"n_rounds": 1}),
            ),
        },
        "augment_outofcore": {
            "full": dict(
                profile=SamplerProfile(
                    name="e2e-outofcore", n_base_rows=(100_000, 100_000), n_decoys=(20, 20),
                    n_noise_tables=(20, 20), n_keys=(800, 1000), fan_out_choices=(32, 48, 64),
                    n_noise_columns=(0, 1), n_base_columns=(2, 3), **outofcore,
                ),
                arda=dict(
                    coreset_size=100, memory_budget=262_144, chunk_rows=16_384,
                    selector_options={"n_rounds": 2},
                ),
            ),
            "smoke": dict(
                profile=SamplerProfile(
                    name="e2e-outofcore-smoke", n_base_rows=(1_500, 1_500), n_decoys=(3, 3),
                    n_noise_tables=(3, 3), n_keys=(300, 300), fan_out_choices=(8,),
                    n_noise_columns=(0, 1), n_base_columns=(2, 2), **outofcore,
                ),
                arda=dict(
                    coreset_size=60, memory_budget=16_384, chunk_rows=512,
                    selector_options={"n_rounds": 1},
                ),
            ),
        },
        "serve_online": {"full": serve_full, "smoke": serve_smoke},
        "serve_ingest": {"full": serve_full, "smoke": serve_smoke},
    }


def settings(workload: str, smoke: bool) -> dict:
    chosen = _settings()[workload]["smoke" if smoke else "full"]
    check_key_geometry(chosen["profile"])
    return chosen


def scenario(profile, seed: int, part: int = 0):
    """``(spec, unseen_spec)``: fixed structure, values re-seeded by ``seed``.

    ``part`` selects one of several independent value draws for the same
    seed.  ``unseen_spec`` differs only in its base-table seed, so its base
    rows are new rows over the same key domains (the scoring and serving
    inputs).
    """
    from repro.datasets.sqlgen import generate_scenario

    spec = generate_scenario(SHAPE_SEED, 0, profile)
    state = np.random.SeedSequence([seed, part]).generate_state(len(spec.tables) + 3)
    tables = tuple(
        dataclasses.replace(table, data_seed=int(value))
        for table, value in zip(spec.tables, state[3:])
    )
    spec = dataclasses.replace(
        spec, seed=seed, tables=tables, base_seed=int(state[0]), target_seed=int(state[1])
    )
    return spec, dataclasses.replace(spec, base_seed=int(state[2]))


# -- small helpers ---------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)``: the highest of p50/p90/p99/p99.9 that still has
    at least ten samples beyond it (nearest-rank), or ``None`` below 20 samples."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - pct / 100) >= 10 - 1e-9:
            rank = max(1, int(np.ceil(round(pct / 100 * n, 6))))
            return pct, ordered[rank - 1]
    return None


def probe_ms() -> list[float]:
    """Wall times of a fixed pure-Python loop: how fast the host runs right now."""
    out = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        out.append((time.perf_counter() - started) * 1e3)
    return out


class Reference:
    """A fixed, benchmark-owned reference task and the calibration it gives.

    The shared host's speed drifts 30-70 % for tens of seconds at a time,
    which moves every CPU-bound wall time with it.  The reference task, timed
    just before and just after a piece of work, measures that drift, and
    :meth:`calibrated` rescales the work's time to a host where the full
    task takes ``REFERENCE_S``.  A smoke run uses one round instead of
    ``REFERENCE_ROUNDS``: it checks the harness, not the host.
    """

    def __init__(self, rounds: int = REFERENCE_ROUNDS):
        rng = np.random.default_rng(0)
        self.rounds = rounds
        self._x, self._y = rng.random((4000, 8)), rng.integers(0, 2, 4000)

    def time_s(self) -> float:
        """Wall time of one run of the task (~0.25 s at full size).

        Each round mixes the two kinds of work ARDA's CPU-bound paths do: a
        pure-Python loop, and numpy sorts, prefix sums and gathers over a
        fixed array.
        """
        x, y = self._x, self._y
        started = time.perf_counter()
        for _ in range(self.rounds):
            total = 0
            for i in range(100_000):
                total += i * i
            for _ in range(4):
                for j in range(x.shape[1]):
                    order = np.argsort(x[:, j], kind="stable")
                    np.cumsum(y[order])[np.searchsorted(x[order, j], 0.5)]
        return time.perf_counter() - started

    def host_factor(self, before_s: float, after_s: float) -> float:
        """How many times slower than nominal the task ran around a piece of
        work: the mean of its two times over its nominal time."""
        nominal = REFERENCE_S * self.rounds / REFERENCE_ROUNDS
        return (before_s + after_s) / (2 * nominal)

    def calibrated(self, seconds: float, before_s: float, after_s: float) -> float:
        """``seconds`` of CPU-bound work, rescaled to an uncontended host."""
        return seconds / self.host_factor(before_s, after_s)


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    Numeric libraries are held to one thread each so a 2-core host runs the
    program's own threads and the load generator, not a BLAS pool besides.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _digest(*parts) -> str:
    digest = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _discovery_recall(spec, base, repository) -> float:
    from repro.discovery.discovery import JoinDiscovery

    candidates = JoinDiscovery().discover(base, repository, target="target")
    planted = {(e.foreign_table, e.base_column, e.foreign_column) for e in spec.joins}
    found = {
        (c.foreign_table, key.base_column, key.foreign_column)
        for c in candidates
        for key in c.keys
        if not key.soft
    }
    return len(planted & found) / len(planted)


def _selection_recall(spec, kept: list[str]) -> float:
    planted = set(spec.target.planted_feature_names())
    return len(planted & set(kept)) / len(planted)


# -- set-up (runs in its own interpreter) -----------------------------------------


def run_setup(workload: str, seed: int, smoke: bool, out: Path) -> None:
    """Build what the workload needs before its first measured operation."""
    from repro.datasets.sqlgen.materialise import materialise_tables
    from repro.discovery.repository import DataRepository

    config = settings(workload, smoke)
    spec, unseen = scenario(config["profile"], seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "augment_batched":
        # in-memory repositories: the cold start is import + generate + load
        for part in range(BATCHED_PARTS):
            DataRepository(materialise_tables(scenario(config["profile"], seed, part)[0])[1])
        return
    if workload == "augment_outofcore":
        from repro.relational.persist import write_table

        base, tables = materialise_tables(spec)
        chunk_rows = config["arda"]["chunk_rows"]
        (out / "lake").mkdir()
        lake = DataRepository.open(out / "lake", chunk_rows=chunk_rows, load_profiles=False)
        for table in tables:
            lake.add(table)
        write_table(base, out / "base.tbl", chunk_rows=chunk_rows)
        unseen_base, _ = materialise_tables(unseen)
        write_table(unseen_base, out / "unseen.tbl", chunk_rows=chunk_rows)
        return
    # serve_*: train on the lake, save the artifact
    from repro.core.arda import ARDA
    from repro.core.config import ARDAConfig

    base, tables = materialise_tables(spec)
    (out / "lake").mkdir()
    lake = DataRepository.open(out / "lake", load_profiles=False)
    for table in tables:
        lake.add(table)
    report = ARDA(ARDAConfig(persist_profiles=False, **config["arda"])).augment_tables(
        base, lake, target="target", task=spec.target.task
    )
    report.pipeline.save(out / "model.rpro")
    (out / "train.json").write_text(
        json.dumps(
            {
                "kept_columns": report.kept_columns,
                "augmented_score": report.augmented_score,
                "selection_recall": _selection_recall(spec, report.kept_columns),
            }
        )
    )


def _timed_setup(workload: str, seed: int, smoke: bool, out: Path) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    command = [sys.executable, str(HERE / "bench_e2e.py"), "--setup", workload,
               "--seed", str(seed), "--work", str(out)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    completed = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                               timeout=120)
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{completed.stderr[-2000:]}")
    return elapsed


# -- augment workloads ------------------------------------------------------------


@contextlib.contextmanager
def _traced_op(tracer: e2e_tracing.Tracer | None):
    """Wrappers in place and one ``bench.op`` root span for the body; no-op
    without a tracer."""
    if tracer is None:
        yield
        return
    installation = e2e_tracing.install(e2e_tracing.TARGETS, tracer)
    try:
        with tracer.span("bench.op"):
            yield
    finally:
        installation.restore()


def _measure_ops(seconds: float, min_ops: int, op, summarise, tracer,
                 reference: Reference) -> list[dict]:
    """Run ``op(index)`` while the window is open; alternate tracing if on.

    The reference task runs between operations, so each record carries the
    reference times just before and just after it (``reference_s``); an
    operation that times the reference between its own phases reports it as
    ``reference_mid_s``, which is not part of its ``wall_s``.
    ``summarise(record, index)`` runs untimed after each operation and
    replaces the operation's large outputs with digests and counters, so
    memory does not grow with the number of operations that fit the window.
    """
    records = []
    started = time.perf_counter()
    before = reference.time_s()
    while len(records) < min_ops or time.perf_counter() - started < seconds:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        with _traced_op(tracer if traced else None):
            op_started = time.perf_counter()
            record = op(index)
            record["wall_s"] = (time.perf_counter() - op_started
                                - record.get("reference_mid_s", 0.0))
        record["traced"] = traced
        after = reference.time_s()
        record["reference_s"] = (before, after)
        record["host_factor"] = reference.host_factor(before, after)
        before = after
        summarise(record, index)
        records.append(record)
    return records


def _summarise_report(record: dict, spec) -> None:
    report = record.pop("report")
    repository = record.pop("repository")
    record["quality"] = {
        "augmented_score": report.augmented_score,
        "selection_recall": _selection_recall(spec, report.kept_columns),
    }
    record["profile_cache"] = repository.profile_cache.stats()
    record["stream"] = {
        name: dataclasses.asdict(stats) for name, stats in (report.stream_stats or {}).items()
    }


def _augment_batched(config, seed, seconds, tracer, work, reference) -> dict:
    from repro.core.arda import ARDA
    from repro.core.config import ARDAConfig
    from repro.datasets.sqlgen.materialise import materialise_tables
    from repro.discovery.repository import DataRepository

    specs = [scenario(config["profile"], seed, part)[0] for part in range(BATCHED_PARTS)]
    inputs = [(spec, *materialise_tables(spec)) for spec in specs]
    arda_config = ARDAConfig(**config["arda"])

    def op(index: int) -> dict:
        spec, base, tables = inputs[index % BATCHED_PARTS]
        repository = DataRepository(tables)
        report = ARDA(arda_config).augment_tables(
            base, repository, target="target", task=spec.target.task
        )
        report.pipeline.save(work / "model.rpro")
        return {"report": report, "repository": repository, "part": index % BATCHED_PARTS}

    def summarise(record: dict, index: int) -> None:
        spec, base, _ = inputs[record["part"]]
        report = record["report"]
        record["digest"] = _digest(report.kept_columns, report.augmented_score,
                                   report.pipeline.predict(base.head(200)))
        _summarise_report(record, spec)

    records = _measure_ops(seconds, 2 * BATCHED_PARTS, op, summarise, tracer, reference)
    # the median calibrated operation of each value draw, averaged over the draws
    latency = statistics.mean(
        statistics.median(r["wall_s"] / r["host_factor"] for r in records
                          if r["part"] == part and not r["traced"])
        for part in range(BATCHED_PARTS)
    )
    rows = inputs[0][1].num_rows
    return {
        "records": records,
        "metrics": {"latency_ms": latency * 1e3, "throughput_rows_per_s": rows / latency},
        "checks": {
            "discovery_recall_ge_0.9": all(
                _discovery_recall(spec, base, DataRepository(tables)) >= 0.9
                for spec, base, tables in inputs
            ),
        },
        "ops": len(records),
        "failed": 0,
    }


def _augment_outofcore(config, seed, seconds, tracer, work, setup_dir, reference) -> dict:
    from repro.core.arda import ARDA
    from repro.core.config import ARDAConfig
    from repro.discovery.repository import DataRepository
    from repro.relational.persist import open_chunks, read_table
    from repro.serving.pipeline import FittedPipeline

    spec, _ = scenario(config["profile"], seed)
    lake = setup_dir / "lake"
    base_path, unseen_path = setup_dir / "base.tbl", setup_dir / "unseen.tbl"
    out_path, artifact = work / "augmented.tbl", work / "model.rpro"
    arda_config = ARDAConfig(persist_profiles=False, **config["arda"])
    checks = {}

    def op(index: int) -> dict:
        started = time.perf_counter()
        repository = DataRepository.open(lake, load_profiles=False)
        report = ARDA(arda_config).augment_tables(
            open_chunks(base_path), repository, target="target", task=spec.target.task,
            augmented_path=out_path,
        )
        report.pipeline.save(artifact)
        report.pipeline.release()
        augment_s = time.perf_counter() - started
        # a reference between the phases calibrates each phase on its own
        reference_mid = reference.time_s()
        started = time.perf_counter()
        pipeline = FittedPipeline.load(artifact, repository=repository)
        predictions = pipeline.predict(open_chunks(unseen_path))
        pipeline.release()
        return {
            "report": report, "repository": repository, "predictions": predictions,
            "augment_s": augment_s, "score_s": time.perf_counter() - started,
            "reference_mid_s": reference_mid,
        }

    def summarise(record: dict, index: int) -> None:
        predictions = record.pop("predictions")
        record["digest"] = _digest(record["report"].kept_columns,
                                   record["report"].augmented_score, predictions)
        record["unseen_rows"] = len(predictions)
        if index == 0:
            checks["streamed_rows_eq_base_rows"] = (
                open_chunks(out_path).num_rows == open_chunks(base_path).num_rows
            )
            offline = FittedPipeline.load(artifact, repository=record["repository"])
            in_memory = offline.predict(read_table(unseen_path).head(1000))
            offline.release()
            checks["chunked_eq_in_memory_first_1000"] = bool(
                np.array_equal(in_memory, predictions[: len(in_memory)])
            )
            checks["discovery_recall_ge_0.9"] = _discovery_recall(
                spec, open_chunks(base_path), record["repository"]
            ) >= 0.9
        _summarise_report(record, spec)

    records = _measure_ops(seconds, MIN_OPS, op, summarise, tracer, reference)
    untraced = [r for r in records if not r["traced"]]
    augment = [reference.calibrated(r["augment_s"], r["reference_s"][0],
                                    r["reference_mid_s"]) for r in untraced]
    score = [reference.calibrated(r["score_s"], r["reference_mid_s"], r["reference_s"][1])
             for r in untraced]
    # medians of the calibrated operation and of its calibrated scoring phase
    latency = statistics.median(a + s for a, s in zip(augment, score))
    score = statistics.median(score)
    return {
        "records": records,
        "metrics": {
            "latency_ms": latency * 1e3,
            "throughput_rows_per_s": untraced[0]["unseen_rows"] / score,
        },
        "checks": checks,
        "ops": len(records),
        "failed": 0,
    }


# -- serve workloads --------------------------------------------------------------


class _Server:
    """One ``repro server`` process, started through the tracing launcher."""

    def __init__(self, setup_dir: Path, reload_interval: float, log: Path,
                 trace_out: Path | None = None):
        self.reload_interval = reload_interval
        command = [sys.executable, str(HERE / "e2e_server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "--", str(setup_dir / "model.rpro"), "--repository", str(setup_dir / "lake"),
            "--port", "0", "--workers", "2", "--reload-interval", str(reload_interval),
        ]
        started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        banner = self.proc.stdout.readline()
        if "http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start; see {log}")
        self.port = int(banner.strip().rsplit(":", 1)[1])
        self.ready_s = time.perf_counter() - started

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def transport_floor_s(self, requests: int = 20) -> float:
        """Median round trip of ``GET /healthz`` on one keep-alive connection.

        ``/healthz`` does no scoring, so this is the transport's own latency
        on a reused connection -- on the seed a fixed ~44-ms stall (a kernel
        timer, not CPU), which does not slow down with the host.
        """
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        times = []
        try:
            for _ in range(requests):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                connection.getresponse().read()
                times.append(time.perf_counter() - started)
        finally:
            connection.close()
        return statistics.median(times)

    def vm_hwm_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains and exits 0), then wait; kill on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def calibrated_request_s(latency: float, floor: float, factor: float) -> float:
    """One request's client latency with its host-speed-bound part calibrated.

    Client latency is the transport floor (:meth:`_Server.transport_floor_s`)
    plus CPU work.  A request slower than the floor waited it out, and keeps
    that wait as measured; only the rest is divided by the host factor.  A
    faster request did not wait, and all of it is divided.
    """
    stall = floor if latency > floor else 0.0
    return stall + (latency - stall) / factor


def _client_phase(server: _Server, rows: list[str], expected: list[float], seconds: float,
                  publish=None) -> dict:
    """Closed loop: CLIENTS threads, one keep-alive connection each.

    ``publish`` (serve_ingest) is called by client 0 before a request once
    ``INGEST_INTERVAL_S`` has passed since its previous call.
    """
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    attempts = [0] * CLIENTS
    failures = [0] * CLIENTS
    publishes: list[float] = []
    deadline = time.perf_counter() + seconds
    errors: list[str] = []

    def client(index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        cursor = index * len(rows) // CLIENTS
        last_publish = -INGEST_INTERVAL_S  # publish before the first request
        try:
            while time.perf_counter() < deadline:
                if publish is not None and index == 0 and \
                        time.perf_counter() - last_publish >= INGEST_INTERVAL_S:
                    started = time.perf_counter()
                    publish()
                    publishes.append(time.perf_counter() - started)
                    last_publish = time.perf_counter()
                row = cursor % len(rows)
                cursor += 1
                attempts[index] += 1
                started = time.perf_counter()
                try:
                    connection.request("POST", "/predict", rows[row],
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    failures[index] += 1
                    errors.append(repr(exc))
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                            timeout=30)
                    continue
                latencies[index].append(time.perf_counter() - started)
                if response.status != 200 or json.loads(body)["prediction"] != expected[row]:
                    failures[index] += 1
                    errors.append(f"row {row}: HTTP {response.status} {body[:200]!r}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    flat = [value for per_client in latencies for value in per_client]
    return {
        "latencies": flat,
        "wall_s": wall,
        "requests": sum(attempts),
        "failed": sum(failures),
        "errors": errors[:5],
        "publishes": publishes,
    }


def _serve(workload, config, seed, seconds, tracer, work, setup_dir, servers,
           trace_dir, reference) -> dict:
    from repro.datasets.sqlgen.materialise import (
        STREAM_TABLE,
        iter_streaming_batches,
        materialise_tables,
    )
    from repro.discovery.repository import DataRepository
    from repro.serving.pipeline import FittedPipeline

    spec, unseen = scenario(config["profile"], seed)
    unseen_base, _ = materialise_tables(unseen)
    request_table = unseen_base.head(config["request_rows"]).drop(["target"])
    lake = setup_dir / "lake"
    offline = FittedPipeline.load(setup_dir / "model.rpro",
                                  repository=DataRepository.open(lake, load_profiles=False))
    expected = [float(v) for v in offline.predict(request_table)]
    offline.release()
    rows = [json.dumps(request_table.row(i)) for i in range(request_table.num_rows)]

    publish = None
    if workload == "serve_ingest":
        writer = DataRepository.open(lake, load_profiles=False)
        batches = iter_streaming_batches(spec, n_batches=2_000, batch_rows=64)

        def publish() -> None:
            batch = next(batches)
            if STREAM_TABLE in writer.table_names:
                writer.replace(batch)
            else:
                writer.add(batch)

    def measured_phase(window: float) -> dict:
        """The untraced client phase between two runs of the reference task,
        then the transport floor: what calibrating its latencies needs."""
        before = reference.time_s()
        phase = _client_phase(server, rows, expected, window, publish)
        phase["host_factor"] = reference.host_factor(before, reference.time_s())
        phase["floor_s"] = server.transport_floor_s()
        return phase

    server = servers[-1]
    phases = {}
    if tracer is None:
        phases["untraced"] = measured_phase(seconds)
        peak = server.vm_hwm_mb()
        server.stop()
    else:
        # one untraced and one traced server lifetime, half the window each
        phases["untraced"] = measured_phase(seconds / 2)
        peak = server.vm_hwm_mb()
        server.stop()
        server_trace = trace_dir / f"{workload}.server.trace.json"
        server = _Server(setup_dir, server.reload_interval, work / "server.log", server_trace)
        servers.append(server)
        installation = e2e_tracing.install(e2e_tracing.TARGETS, tracer)
        try:
            before = server.get("/metrics")
            phases["traced"] = _client_phase(server, rows, expected, seconds / 2, publish)
            phases["traced"]["metrics_before"] = before
            phases["traced"]["metrics"] = server.get("/metrics")
        finally:
            installation.restore()
        server.stop()
        phases["traced"]["server_spans"] = e2e_tracing.spans_from_chrome(server_trace)

    untraced = phases["untraced"]
    train = json.loads((setup_dir / "train.json").read_text())
    discovery_base, discovery_tables = materialise_tables(spec)
    checks = {
        "served_eq_offline": all(p["failed"] == 0 for p in phases.values()),
        "discovery_recall_ge_0.9":
            _discovery_recall(spec, discovery_base, DataRepository(discovery_tables)) >= 0.9,
    }
    latencies = untraced["latencies"]
    calibrated = [calibrated_request_s(latency, untraced["floor_s"], untraced["host_factor"])
                  for latency in latencies]
    # the window, rescaled like the requests that filled it
    window_s = untraced["wall_s"] * sum(calibrated) / sum(latencies)
    return {
        "phases": phases,
        "train": train,
        "metrics": {
            "latency_ms": statistics.median(calibrated) * 1e3,
            "throughput_rows_per_s": len(latencies) / window_s,
            "peak_rss_mb": peak,
        },
        "checks": checks,
        "ops": sum(p["requests"] + len(p["publishes"]) for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "digest": _digest(train["kept_columns"], train["augmented_score"], expected),
        "tail": tail_percentile(latencies),
        "requests": len(latencies),
    }


# -- the child: one workload, start to finish -------------------------------------


def run_child(workload: str, seed: int, seconds: float, smoke: bool,
              trace_dir: Path | None, work: Path) -> dict:
    """Run one workload and return its result document."""
    config = settings(workload, smoke)
    work.mkdir(parents=True, exist_ok=True)
    probes_before = probe_ms()
    tracer = e2e_tracing.make_tracer() if trace_dir is not None else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    setup_reps = 1 if smoke else SETUP_REPS
    reference = Reference(1 if smoke else REFERENCE_ROUNDS)

    setup_times = []
    setup_raw = []
    train_s = None
    servers: list[_Server] = []
    setup_dir = work / "setup-0"

    def timed(seconds: float, before: float) -> float:
        """Record one set-up; return the reference time measured after it."""
        after = reference.time_s()
        setup_raw.append(seconds)
        setup_times.append(reference.calibrated(seconds, before, after))
        return after

    try:
        if workload.startswith("serve_"):
            # training runs once; what a serving deployment pays on every
            # start is the server's cold start (import, load, bind, warm)
            train_s = _timed_setup(workload, seed, smoke, setup_dir)
            reload_interval = INGEST_INTERVAL_S if workload == "serve_ingest" else 0.0
            before = reference.time_s()
            for _ in range(setup_reps):
                for server in servers:
                    server.stop()
                servers.append(_Server(setup_dir, reload_interval, work / "server.log"))
                before = timed(servers[-1].ready_s, before)
        else:
            before = reference.time_s()
            for rep in range(setup_reps):
                setup_dir = work / f"setup-{rep}"
                before = timed(_timed_setup(workload, seed, smoke, setup_dir), before)

        if workload == "augment_batched":
            result = _augment_batched(config, seed, seconds, tracer, work, reference)
        elif workload == "augment_outofcore":
            result = _augment_outofcore(config, seed, seconds, tracer, work, setup_dir,
                                        reference)
        else:
            result = _serve(workload, config, seed, seconds, tracer, work, setup_dir,
                            servers, trace_dir, reference)
    finally:
        for server in servers:
            server.stop()

    metrics = {"setup_s": statistics.median(setup_times), **result["metrics"]}
    metrics.setdefault("peak_rss_mb", _peak_rss_mb())
    probes_after = probe_ms()
    doc = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "metrics": metrics,
        "checks": result["checks"],
        "ops": result["ops"],
        "failed": result["failed"],
        "setup_s_samples": setup_times,
        "setup_raw_s": setup_raw,
        "probe_ms": {"before": statistics.median(probes_before),
                     "after": statistics.median(probes_after)},
    }
    if workload.startswith("augment_"):
        records = result["records"]
        parts = sorted({r.get("part", 0) for r in records})
        digests = [{r["digest"] for r in records if r.get("part", 0) == p} for p in parts]
        doc["checks"]["digest_identical_across_reps"] = all(len(d) == 1 for d in digests)
        doc["digest"] = _digest([sorted(d) for d in digests])
        doc["op_wall_s"] = [r["wall_s"] for r in records if not r["traced"]]
        doc["op_host_factor"] = [r["host_factor"] for r in records if not r["traced"]]
    else:
        doc["train_s"] = train_s
        untraced = result["phases"]["untraced"]
        doc["raw_latency_ms"] = statistics.median(untraced["latencies"]) * 1e3
        doc["host_factor"] = untraced["host_factor"]
        doc["floor_ms"] = untraced["floor_s"] * 1e3
        doc["digest"] = result["digest"]
        doc["requests"] = result["requests"]
        doc["tail"] = result["tail"]
        doc["errors"] = [e for p in result["phases"].values() for e in p["errors"]]
    if tracer is not None:
        tracer.write_chrome(trace_dir / f"{workload}.trace.json")
        doc["layers"] = layer_metrics(workload, result, tracer,
                                      statistics.median(probes_before + probes_after))
    return doc


# -- per-layer metrics -------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: str, result: dict, tracer, probe: float) -> dict:
    """Every per-layer metric, per measured operation of the traced part."""
    if workload.startswith("augment_"):
        traced = [r for r in result["records"] if r["traced"]]
        untraced = [r for r in result["records"] if not r["traced"]]
        spans = tracer.spans
        ops = len(traced)
        overhead = _ratio(statistics.median(r["wall_s"] for r in traced),
                          statistics.median(r["wall_s"] for r in untraced)) - 1.0
    else:
        phase = result["phases"]["traced"]
        spans = tracer.spans + phase["server_spans"]
        ops = len(phase["latencies"])
        overhead = _ratio(statistics.median(phase["latencies"]),
                          statistics.median(result["phases"]["untraced"]["latencies"])) - 1.0
    stats = e2e_tracing.layer_stats(spans)
    empty = e2e_tracing.LayerStats()

    def per(value: float) -> float:
        return _ratio(value, ops)

    def layer(name: str) -> e2e_tracing.LayerStats:
        return stats.get(name, empty)

    selection = layer("selection")
    forest_fit = layer("ml.forest.fit")
    roots = [e2e_tracing.coverage(spans, name) for name in e2e_tracing.COVERAGE_ROOTS]
    out = {
        "selection.self_s": per(selection.self_s),
        "selection.cpu_s": per(selection.cpu_s),
        "selection.calls": per(selection.calls),
        "selection.keep_ratio": _ratio(selection.attrs.get("kept", 0),
                                       selection.attrs.get("considered", 0)),
        "ml.forest.fit_s": per(forest_fit.total_s),
        "ml.forest.predict_s": per(layer("ml.forest.predict").total_s),
        "ml.tree.trees": per(forest_fit.attrs.get("trees", 0)),
        "ml.tree.nodes": per(forest_fit.attrs.get("nodes", 0)),
        "ml.holdout_s": per(layer("ml.holdout").total_s),
        "relational.imputation.self_s": per(layer("relational.imputation").self_s),
        "relational.encoding.self_s": per(layer("relational.encoding").self_s),
        "relational.encoding.columns_in": per(layer("relational.encoding").attrs.get(
            "columns_in", 0)),
        "core.arda.augment_s": per(layer("core.arda.augment").total_s),
        "core.join_execution.batch_s": per(layer("core.join_execution.batch").total_s),
        "core.join_execution.replay_s": per(layer("core.join_execution.replay").total_s),
        "relational.aggregate.self_s": per(layer("relational.aggregate").self_s),
        "relational.aggregate.rows_in": per(layer("relational.aggregate").attrs.get(
            "rows_in", 0)),
        "relational.persist.write_s": per(layer("relational.persist.write").self_s),
        "relational.persist.read_s": per(layer("relational.persist.read").self_s),
        "discovery.self_s": per(layer("discovery").self_s),
        "coreset.self_s": per(layer("coreset").self_s),
        "core.join_plan.self_s": per(layer("core.join_plan").self_s),
        "serving.pipeline.fit_s": per(layer("serving.pipeline.fit").total_s),
        "serving.pipeline.save_s": per(layer("serving.pipeline.save").total_s),
        "serving.pipeline.load_s": per(layer("serving.pipeline.load").total_s),
        "serving.pipeline.bind_s": per(layer("serving.pipeline.bind").total_s),
        "serving.pipeline.predict_s": per(layer("serving.pipeline.predict").total_s),
        "serving.codec.self_s": per(layer("serving.codec").self_s),
        "discovery.repository.publish_s": per(layer("discovery.repository.publish").total_s),
        "trace.coverage": min(value for value in roots if value is not None),
        "trace.overhead": overhead,
        "host.probe_ms": probe,
    }
    out.update(_join_metrics(result, ops))
    out.update(_discovery_metrics(result, ops))
    out.update(_bytes_metrics(workload, result, spans, ops))
    out.update(_server_metrics(workload, result, stats))
    out.update(_quality_metrics(workload, result))
    return out


def _join_metrics(result: dict, ops: int) -> dict:
    probed = total = partitions = spilled = 0
    for record in result.get("records", ()):
        if not record["traced"]:
            continue
        for stats in record.get("stream", {}).values():
            probed += stats["chunks_probed"]
            total += stats["chunks_total"]
            partitions += stats["spill_partitions"]
            spilled += stats["spill_bytes_written"]
    return {
        "relational.join.chunks_probed": _ratio(probed, ops),
        "relational.join.pruning_ratio": 1.0 - probed / total if total else 0.0,
        "relational.join.spill_partitions": _ratio(partitions, ops),
        "relational.join.spill_bytes_written": _ratio(spilled, ops),
    }


def _discovery_metrics(result: dict, ops: int) -> dict:
    hits = misses = 0
    for record in result.get("records", ()):
        if record["traced"]:
            hits += record["profile_cache"]["hits"]
            misses += record["profile_cache"]["misses"]
    return {
        "discovery.tables_profiled": _ratio(misses, ops),
        "discovery.cache_hit_ratio": _ratio(hits, hits + misses),
    }


def _bytes_metrics(workload: str, result: dict, spans, ops: int) -> dict:
    totals = {"pages": 0, "header": 0, "zone_map": 0}
    if workload.startswith("augment_"):
        for span in spans:
            if span.name == "bench.op":
                for kind in totals:
                    totals[kind] += span.attrs.get(f"bytes_read.{kind}", 0)
    else:
        phase = result["phases"]["traced"]
        after = phase["metrics"]["sources"]["persist.bytes_read"]
        before = phase["metrics_before"]["sources"]["persist.bytes_read"]
        for kind in totals:
            totals[kind] = after[kind] - before[kind]
    return {f"relational.persist.bytes_read.{k}": _ratio(v, ops) for k, v in totals.items()}


def _server_metrics(workload: str, result: dict, stats: dict) -> dict:
    names = ("serving.server.request_ms_p50", "serving.server.queue_wait_ms",
             "serving.server.coalesce_ratio", "serving.http.transport_ms",
             "serving.server.reloads", "serving.server.reload_failures",
             "serving.client.tail_ms", "serving.ingest.publish_p50_ms")
    if not workload.startswith("serve_"):
        return dict.fromkeys(names, 0.0)
    phase = result["phases"]["traced"]
    spans = phase["server_spans"]
    request = [s.duration_s * 1e3 for s in spans if s.name == "serving.server.request"]
    batch = [s.duration_s * 1e3 for s in spans if s.name == "serving.server.batch"]
    counters = phase["metrics"]["counters"]
    before = phase["metrics_before"]["counters"]

    def delta(name: str) -> float:
        return counters.get(name, 0.0) - before.get(name, 0.0)

    request_p50 = statistics.median(request)
    client_p50 = statistics.median(phase["latencies"]) * 1e3
    tail = tail_percentile(phase["latencies"])
    return {
        "serving.server.request_ms_p50": request_p50,
        "serving.server.queue_wait_ms": max(0.0, request_p50 - statistics.median(batch)),
        "serving.server.coalesce_ratio": _ratio(delta("server.requests"),
                                                delta("server.batches")),
        "serving.http.transport_ms": client_p50 - request_p50,
        "serving.server.reloads": delta("server.reloads"),
        "serving.server.reload_failures": delta("server.reload_failures"),
        "serving.client.tail_ms": tail[1] * 1e3 if tail else 0.0,
        "serving.ingest.publish_p50_ms":
            statistics.median(phase["publishes"]) * 1e3 if phase["publishes"] else 0.0,
    }


def _quality_metrics(workload: str, result: dict) -> dict:
    if workload.startswith("augment_"):
        quality = result["records"][0]["quality"]
    else:
        quality = result["train"]
    return {
        "quality.augmented_score": quality["augmented_score"],
        "quality.selection_recall": quality["selection_recall"],
    }
