"""Tests for the resident serving server, unified CLI and metrics registry.

Covers the serving-server acceptance surface:

* served predictions — single-row, batch, and under concurrent clients —
  are byte-identical to offline ``FittedPipeline.predict`` on the same rows;
* micro-batch coalescing: several queued requests are scored as one batch,
  and a malformed request in a coalesced batch fails alone (batch-mates
  still succeed);
* hot reload: artifact swap under sustained multi-client load on keep-alive
  connections with zero failed requests, repository-generation pickup,
  torn-write resilience, and a generation's fingerprint always being the
  digest of the bytes it serves;
* graceful shutdown: every admitted request gets its response;
* HTTP error surface: 400/404/413/503 with JSON bodies, malformed
  ``Content-Length`` headers, ``/healthz`` and ``/metrics`` content;
* transport: ``Expect: 100-continue`` clients get their interim reply;
* the unified ``python -m repro`` CLI and content-based row-file dispatch;
* the :mod:`repro.observability` registry and the migrated subsystem
  counters.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import _load_rows, main as cli_main
from repro.core import ARDA, ARDAConfig, ServingConfig
from repro.core.results import AugmentationReport
from repro.datasets.synthetic import RelationalDatasetBuilder, SignalTableSpec
from repro.discovery.repository import DataRepository, ProfileCache
from repro.observability import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.relational.io import write_csv
from repro.relational.join import StreamJoinStats
from repro.relational.table import Table
from repro.serving import FittedPipeline, PredictionServer, RequestError
from repro.serving.codec import (
    parse_predict_payload,
    predictions_to_payload,
    rows_to_table,
)
from repro.serving.server import _Job

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Two ARDA runs over one dataset (hot-swap source and target) + a lake."""
    builder = RelationalDatasetBuilder(
        "server", task="regression", n_rows=120, n_entities=40, seed=3
    )
    builder.add_signal_table(SignalTableSpec("signal", n_signal_columns=2, weight=2.0))
    builder.add_noise_tables(1, prefix="noise", n_columns=2)
    dataset = builder.build()
    report = ARDA(ARDAConfig()).augment(dataset)
    report_b = ARDA(ARDAConfig(random_state=7)).augment(dataset)
    assert report.pipeline is not None and report_b.pipeline is not None
    tmp = tmp_path_factory.mktemp("server-module")
    artifact = tmp / "model.pipeline"
    report.pipeline.save(artifact)
    artifact_b = tmp / "model-b.pipeline"
    report_b.pipeline.save(artifact_b)
    lake = tmp / "lake"
    lake.mkdir()
    for name in dataset.repository.table_names:
        dataset.repository.get(name).save(lake / f"{name}.tbl")
    rows = [dataset.base_table.row(i) for i in range(16)]
    types = {c.name: c.ctype for c in dataset.base_table.columns()}
    offline = FittedPipeline.load(artifact, repository=DataRepository.open(lake))
    expected = offline.predict(Table.from_rows(rows, types=types))
    offline_b = FittedPipeline.load(artifact_b, repository=DataRepository.open(lake))
    expected_b = offline_b.predict(Table.from_rows(rows, types=types))
    assert not np.array_equal(expected, expected_b)  # swap must be observable
    assert offline.joins  # the serving tests exercise join replay
    return SimpleNamespace(
        dataset=dataset,
        artifact=artifact,
        artifact_b=artifact_b,
        lake=lake,
        rows=rows,
        types=types,
        expected=expected,
        expected_b=expected_b,
    )


@pytest.fixture
def mutable_copy(trained, tmp_path):
    """A private artifact + lake copy tests may overwrite or truncate."""
    artifact = tmp_path / "model.pipeline"
    shutil.copyfile(trained.artifact, artifact)
    lake = tmp_path / "lake"
    shutil.copytree(trained.lake, lake)
    return SimpleNamespace(artifact=artifact, lake=lake)


def make_server(artifact, lake, **overrides) -> PredictionServer:
    """A started server on an ephemeral port with an isolated registry."""
    options = {"port": 0, "workers": 2, "reload_interval_s": 0.0}
    options.update(overrides)
    config = ServingConfig(**options)
    return PredictionServer(
        artifact, repository=str(lake), config=config, registry=MetricsRegistry()
    ).start()


def http_post(address, payload, path="/predict", timeout=30):
    host, port = address
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(f"http://{host}:{port}{path}", data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def keepalive_request(connection, method, path, payload=None):
    """One request on a persistent ``http.client`` connection: (status, doc)."""
    body = None if payload is None else json.dumps(payload)
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body, headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def raw_exchange(address, request: bytes, timeout=3.0) -> bytes:
    """Send raw request bytes; everything the server sends until it closes."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        received = []
        while chunk := sock.recv(65536):
            received.append(chunk)
    return b"".join(received)


def http_get(address, path, timeout=30):
    host, port = address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=timeout
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# -- serving config ----------------------------------------------------------


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.workers >= 1 and config.max_batch_rows >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_batch_rows": 0},
            {"max_wait_ms": -1.0},
            {"queue_depth": 0},
            {"max_request_rows": 0},
            {"reload_interval_s": -0.1},
            {"drain_timeout_s": 0.0},
            {"port": 70000},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


# -- codec -------------------------------------------------------------------


class TestCodec:
    def test_payload_shapes(self):
        rows, single = parse_predict_payload({"a": 1.0})
        assert single and rows == [{"a": 1.0}]
        rows, single = parse_predict_payload([{"a": 1.0}, {"a": 2.0}])
        assert not single and len(rows) == 2
        rows, single = parse_predict_payload({"rows": [{"a": 1.0}]})
        assert not single and rows == [{"a": 1.0}]

    @pytest.mark.parametrize(
        "payload",
        ["text", 7, {"rows": "nope"}, {"rows": [1, 2]}, [], {"rows": []}, [None]],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(RequestError):
            parse_predict_payload(payload)

    def test_rows_to_table_pins_fitted_types(self):
        table = rows_to_table(
            [{"x": "3.5", "label": 7}, {"x": None, "label": "b"}],
            [("x", "numeric"), ("label", "categorical")],
        )
        assert table.column("x").ctype.value == "numeric"
        assert table.column("label").ctype.value == "categorical"
        values = table.column("x").values
        assert values[0] == 3.5 and np.isnan(values[1])

    def test_rows_to_table_bad_value_raises_request_error(self):
        with pytest.raises(RequestError, match="could not decode rows"):
            rows_to_table([{"x": "abc"}], [("x", "numeric")])

    def test_predictions_to_payload_json_safe(self):
        out = predictions_to_payload(np.array([1.5, np.nan, np.inf]))
        assert out == [1.5, None, None]
        labels = np.array(["a", None, "b"], dtype=object)
        assert predictions_to_payload(labels) == ["a", None, "b"]


# -- the resident server ------------------------------------------------------


class TestPredictionServer:
    def test_concurrent_singles_and_batch_identical_to_offline(self, trained):
        with make_server(trained.artifact, trained.lake, max_wait_ms=5.0) as server:
            results = [None] * len(trained.rows)

            def fetch(i):
                results[i] = http_post(server.address, trained.rows[i])

            threads = [
                threading.Thread(target=fetch, args=(i,))
                for i in range(len(trained.rows))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(status == 200 for status, _doc in results)
            singles = np.array([doc["prediction"] for _status, doc in results])
            assert np.array_equal(singles, trained.expected)

            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200
            assert np.array_equal(np.array(doc["predictions"]), trained.expected)
            assert doc["generation"] == 0

    def test_worker_coalesces_queued_jobs_into_one_batch(self, trained):
        # drive the worker loop synchronously: five queued jobs and a stop
        # sentinel must score as ONE merged batch, split back per job
        server = PredictionServer(
            trained.artifact,
            repository=str(trained.lake),
            config=ServingConfig(port=0, workers=1),
            registry=MetricsRegistry(),
        )
        server._live = server._load_generation(index=0)
        try:
            jobs = [_Job([row]) for row in trained.rows[:5]]
            for job in jobs:
                server._queue.put(job)
            from repro.serving.server import _STOP

            server._queue.put(_STOP)
            server._worker_loop()
            for job, want in zip(jobs, trained.expected[:5]):
                assert job.event.is_set() and job.error is None
                assert job.predictions == [want]
            batches = server.registry.histogram("server.batch_rows")
            assert batches.count == 1  # one batch, not five
            assert batches.sum == 5.0
        finally:
            server.close()

    def test_bad_job_in_coalesced_batch_fails_alone(self, trained):
        server = PredictionServer(
            trained.artifact,
            repository=str(trained.lake),
            config=ServingConfig(port=0, workers=1),
            registry=MetricsRegistry(),
        )
        server._live = server._load_generation(index=0)
        try:
            numeric = next(
                name
                for name, ctype in server._live.pipeline.base_schema
                if ctype == "numeric" and name != server._live.pipeline.target
            )
            good = _Job([dict(trained.rows[0])])
            poisoned_row = dict(trained.rows[1])
            poisoned_row[numeric] = "not-a-number"
            bad = _Job([poisoned_row])
            server._score_jobs([good, bad])
            assert good.error is None
            assert good.predictions == [trained.expected[0]]
            assert bad.error is not None and bad.error[0] == 400
        finally:
            server.close()

    def test_http_error_surface(self, trained):
        with make_server(trained.artifact, trained.lake, max_request_rows=4) as server:
            status, doc = http_post(server.address, b"{not json")
            assert status == 400 and "JSON" in doc["error"]
            status, doc = http_post(server.address, {"rows": [1, 2]})
            assert status == 400
            status, doc = http_post(server.address, {"bogus_column": 1.0})
            assert status == 400 and "missing base columns" in doc["error"]
            status, doc = http_post(server.address, {"rows": trained.rows[:5]})
            assert status == 413 and "max_request_rows" in doc["error"]
            status, doc = http_post(server.address, trained.rows[0], path="/nope")
            assert status == 404
            status, doc = http_get(server.address, "/nope")
            assert status == 404

    def test_healthz_and_metrics(self, trained):
        with make_server(trained.artifact, trained.lake) as server:
            status, doc = http_get(server.address, "/healthz")
            assert status == 200 and doc == {"status": "ok", "generation": 0}
            http_post(server.address, {"rows": trained.rows[:3]})
            status, snap = http_get(server.address, "/metrics")
            assert status == 200
            assert snap["counters"]["server.requests"] == 1.0
            assert snap["counters"]["server.rows"] == 3.0
            assert snap["counters"]["server.batches"] >= 1.0
            assert snap["histograms"]["server.request_s"]["count"] == 1
            state = snap["sources"]["server.state"]
            assert state["generation"] == 0 and state["workers"] == 2
            assert not state["draining"]

    def test_graceful_shutdown_drains_admitted_requests(self, trained):
        server = make_server(trained.artifact, trained.lake, max_wait_ms=5.0)
        address = server.address
        outcomes = []
        lock = threading.Lock()

        def fire():
            try:
                status, doc = http_post(address, {"rows": trained.rows})
            except OSError:
                # never admitted (socket already closed) — not a failed request
                status, doc = None, None
            with lock:
                outcomes.append((status, doc))

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let most requests get admitted before draining
        server.close()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 12
        assert any(status == 200 for status, _doc in outcomes)
        for status, doc in outcomes:
            # admitted requests must complete; late arrivals get a clean 503
            assert status in (200, 503, None), (status, doc)
            if status == 200:
                assert np.array_equal(
                    np.array(doc["predictions"]), trained.expected
                )
        # the drained server answers nothing further
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/healthz", timeout=5
            )

    def test_manual_hot_swap_changes_predictions(self, trained, mutable_copy):
        with make_server(mutable_copy.artifact, mutable_copy.lake) as server:
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200 and doc["generation"] == 0
            assert np.array_equal(np.array(doc["predictions"]), trained.expected)
            assert server.check_reload() is False  # nothing changed yet

            shutil.copyfile(trained.artifact_b, mutable_copy.artifact)
            assert server.check_reload() is True
            assert server.generation == 1
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200 and doc["generation"] == 1
            assert np.array_equal(np.array(doc["predictions"]), trained.expected_b)
            snap = server.registry.snapshot()
            assert snap["counters"]["server.reloads"] == 1.0

    def test_torn_artifact_write_keeps_old_generation(self, trained, mutable_copy):
        with make_server(mutable_copy.artifact, mutable_copy.lake) as server:
            whole = mutable_copy.artifact.read_bytes()
            mutable_copy.artifact.write_bytes(whole[: len(whole) // 2])
            assert server.check_reload() is False
            assert server.generation == 0
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200
            assert np.array_equal(np.array(doc["predictions"]), trained.expected)
            snap = server.registry.snapshot()
            assert snap["counters"]["server.reload_failures"] >= 1.0
            # the restored artifact fingerprints back to the live generation
            mutable_copy.artifact.write_bytes(whole)
            assert server.check_reload() is False

    def test_repository_generation_triggers_reload(self, trained, mutable_copy):
        with make_server(mutable_copy.artifact, mutable_copy.lake) as server:
            writer = DataRepository.open(mutable_copy.lake)
            writer.add(
                Table.from_dict(
                    {"k": [1.0, 2.0], "v": [3.0, 4.0]}, name="late_arrival"
                )
            )
            assert server.check_reload() is True
            assert server.generation == 1
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200
            assert np.array_equal(np.array(doc["predictions"]), trained.expected)

    @pytest.mark.stress
    def test_hot_swap_under_sustained_load_zero_failures(self, trained, mutable_copy):
        """4 concurrent clients, artifact swapped live: no request may fail."""
        swaps = max(2, int(os.environ.get("ARDA_STRESS", "0") or 0) // 50)
        with make_server(
            mutable_copy.artifact, mutable_copy.lake,
            workers=3, reload_interval_s=0.05, max_wait_ms=2.0,
        ) as server:
            failures: list = []
            generations: set[int] = set()
            stop = threading.Event()
            lock = threading.Lock()

            def hammer():
                # one keep-alive connection per client, held across every
                # generation swap; reconnect only after an error (which
                # still counts as a failure)
                connection = http.client.HTTPConnection(*server.address, timeout=30)
                try:
                    while not stop.is_set():
                        try:
                            status, doc = keepalive_request(
                                connection, "POST", "/predict", {"rows": trained.rows[:4]}
                            )
                            if status != 200:
                                raise AssertionError((status, doc))
                            with lock:
                                generations.add(doc["generation"])
                            want = (
                                trained.expected
                                if doc["generation"] % 2 == 0
                                else trained.expected_b
                            )
                            if not np.array_equal(
                                np.array(doc["predictions"]), want[:4]
                            ):
                                raise AssertionError("prediction drift mid-swap")
                        except Exception as exc:  # noqa: BLE001 - recorded, not raised
                            with lock:
                                failures.append(repr(exc))
                            stop.set()
                            connection.close()
                            connection = http.client.HTTPConnection(
                                *server.address, timeout=30
                            )
                finally:
                    connection.close()

            clients = [threading.Thread(target=hammer) for _ in range(4)]
            for client in clients:
                client.start()
            sources = [trained.artifact_b, trained.artifact]
            for swap in range(swaps):
                time.sleep(0.4)
                shutil.copyfile(sources[swap % 2], mutable_copy.artifact)
                deadline = time.monotonic() + 10
                while server.generation == swap and time.monotonic() < deadline:
                    time.sleep(0.02)
            time.sleep(0.3)
            stop.set()
            for client in clients:
                client.join()
            assert failures == []
            assert server.generation == swaps
            assert generations >= set(range(swaps + 1))

    def test_generation_fingerprint_is_digest_of_served_bytes(
        self, trained, mutable_copy, monkeypatch
    ):
        with make_server(mutable_copy.artifact, mutable_copy.lake) as server:
            shutil.copyfile(trained.artifact_b, mutable_copy.artifact)
            served = mutable_copy.artifact.read_bytes()
            original_load = FittedPipeline.load

            def racing_load(source, repository=None):
                # a writer replaces the artifact again right after the
                # server's fingerprint read
                shutil.copyfile(trained.artifact, mutable_copy.artifact)
                return original_load(source, repository)

            monkeypatch.setattr(FittedPipeline, "load", staticmethod(racing_load))
            assert server.check_reload() is True
            monkeypatch.undo()
            assert server._live.artifact_fingerprint == hashlib.blake2b(
                served, digest_size=16
            ).hexdigest()
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200 and doc["generation"] == 1
            assert np.array_equal(np.array(doc["predictions"]), trained.expected_b)
            # the file now holds the first artifact again: a real change
            assert server.check_reload() is True
            status, doc = http_post(server.address, {"rows": trained.rows})
            assert status == 200 and doc["generation"] == 2
            assert np.array_equal(np.array(doc["predictions"]), trained.expected)
            assert server.check_reload() is False

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_malformed_content_length_answers_400_and_closes(self, trained, length):
        with make_server(trained.artifact, trained.lake) as server:
            reply = raw_exchange(
                server.address,
                b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: " + length
                + b"\r\n\r\n{}",
            )
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in head.split(b"\r\n")
            assert "Content-Length" in json.loads(body)["error"]
            snap = server.registry.snapshot()
            assert snap["counters"]["server.responses_4xx"] == 1.0
            # the server itself keeps serving
            assert http_get(server.address, "/healthz")[0] == 200

    def test_snapshot_rejected_and_unbound_joins_rejected(self, trained, tmp_path):
        repo = DataRepository.open(trained.lake)
        with pytest.raises(TypeError, match="live DataRepository"):
            PredictionServer(trained.artifact, repository=repo.snapshot())
        server = PredictionServer(
            trained.artifact, config=ServingConfig(port=0), registry=MetricsRegistry()
        )
        with pytest.raises(ValueError, match="repository"):
            server.start()


# -- transport ----------------------------------------------------------------


class TestTransport:
    """The handler's unbuffered writer answers ``Expect: 100-continue``.

    curl sends that header for request bodies over 1 KB and waits for the
    interim reply before it sends the body; a buffered writer would hold
    the reply back.
    """

    def test_expect_100_continue_gets_interim_reply(self, trained):
        body = json.dumps(trained.rows[0]).encode()
        with make_server(trained.artifact, trained.lake) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(
                    b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Expect: 100-continue\r\n\r\n"
                )
                started = time.monotonic()
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(1)
                assert time.monotonic() - started < 1.0
                assert interim.startswith(b"HTTP/1.1 100 ")
                sock.sendall(body)
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == 200
                assert json.loads(response.read())["prediction"] == trained.expected[0]


# -- repository reload --------------------------------------------------------


class TestRepositoryReload:
    def test_reader_adopts_writer_generation(self, tmp_path):
        writer = DataRepository.open(tmp_path)
        writer.add(Table.from_dict({"k": [1.0], "v": [10.0]}, name="t"))
        reader = DataRepository.open(tmp_path)
        before = reader.generation
        assert reader.reload() == before  # nothing new
        writer.replace(Table.from_dict({"k": [1.0], "v": [99.0]}, name="t"))
        assert reader.reload() > before
        assert reader.get("t").column("v").values[0] == 99.0

    def test_reload_noop_without_directory(self):
        repository = DataRepository()
        assert repository.reload() == repository.generation


# -- pipeline warm/release ----------------------------------------------------


class TestWarmRelease:
    def test_warm_requires_binding(self, trained):
        pipeline = FittedPipeline.load(trained.artifact)
        if pipeline.joins:
            with pytest.raises(ValueError, match="bind"):
                pipeline.warm()
        pipeline.bind(DataRepository.open(trained.lake))
        assert pipeline.warm() is pipeline

    def test_release_is_idempotent_and_rebindable(self, trained):
        repository = DataRepository.open(trained.lake)
        pipeline = FittedPipeline.load(trained.artifact, repository=repository)
        pipeline.release()
        pipeline.release()
        with pytest.raises(ValueError, match="repository"):
            pipeline.predict(Table.from_rows(trained.rows, types=trained.types))
        pipeline.bind(repository)
        out = pipeline.predict(Table.from_rows(trained.rows, types=trained.types))
        assert np.array_equal(out, trained.expected)


# -- unified CLI and shims ----------------------------------------------------


class TestUnifiedCLI:
    def test_inspect_and_score(self, trained, tmp_path, capsys):
        assert cli_main(["inspect", str(trained.artifact)]) == 0
        assert "target" in capsys.readouterr().out
        rows_path = tmp_path / "rows.tbl"
        Table.from_rows(trained.rows, types=trained.types).save(rows_path)
        out_path = tmp_path / "predictions.csv"
        assert (
            cli_main(
                [
                    "score",
                    str(trained.artifact),
                    "--repository",
                    str(trained.lake),
                    "--rows",
                    str(rows_path),
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        from repro.relational.io import read_csv

        written = read_csv(out_path).column("prediction").values
        assert np.array_equal(written, trained.expected)

    def test_score_dispatches_on_content_not_suffix(self, trained, tmp_path, capsys):
        table = Table.from_rows(trained.rows, types=trained.types)
        upper = tmp_path / "rows.CSV"
        write_csv(table, upper)
        noext = tmp_path / "rowsdata"
        write_csv(table, noext)
        for path in (upper, noext):
            assert (
                cli_main(
                    [
                        "score",
                        str(trained.artifact),
                        "--repository",
                        str(trained.lake),
                        "--rows",
                        str(path),
                        "--head",
                        "1",
                    ]
                )
                == 0
            )
            assert capsys.readouterr().out.splitlines()[0] == str(trained.expected[0])

    def test_load_rows_garbage_names_accepted_formats(self, tmp_path):
        garbage = tmp_path / "blob.bin"
        garbage.write_bytes(b"\x00\xff\xfe definitely not a table")
        with pytest.raises(ValueError) as excinfo:
            _load_rows(garbage)
        message = str(excinfo.value)
        assert "RPROTBLF" in message and "CSV" in message

    def test_repo_subcommands(self, mutable_copy, capsys):
        assert cli_main(["repo", "stat", str(mutable_copy.lake)]) == 0
        assert "bytes read" in capsys.readouterr().out
        assert (
            cli_main(
                ["repo", "rechunk", str(mutable_copy.lake), "signal", "--chunk-rows", "32"]
            )
            == 0
        )
        assert "-> " in capsys.readouterr().out
        assert cli_main(["repo", "rechunk", str(mutable_copy.lake)]) == 2

    def test_server_subcommand_serves_and_drains_on_sigint(self, trained):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(trained.artifact),
                "--repository",
                str(trained.lake),
                "--port",
                "0",
                "--reload-interval",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline().strip()
            assert "http://" in banner
            address = banner.rsplit("http://", 1)[1]
            with urllib.request.urlopen(
                f"http://{address}/healthz", timeout=30
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=60) == 0


# -- observability ------------------------------------------------------------


class TestObservability:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_quantiles_and_dict(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        assert math.isnan(histogram.quantile(0.5))
        for value in (0.5, 1.5, 1.5, 3.0, 7.0):
            histogram.observe(value)
        doc = histogram.to_dict()
        assert doc["count"] == 5 and doc["min"] == 0.5 and doc["max"] == 7.0
        assert doc["sum"] == pytest.approx(13.5)
        assert 0.5 <= doc["p50"] <= 2.0
        assert 4.0 <= doc["p99"] <= 7.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_registry_get_or_create_and_collisions(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.register_source("y", lambda: {})

    def test_snapshot_shape_and_source_errors(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.histogram("lat").observe(0.2)
        registry.register_source("ok", lambda: {"a": 1})
        registry.register_source("boom", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["counters"] == {"jobs": 3.0}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["sources"]["ok"] == {"a": 1}
        assert "ZeroDivisionError" in snap["sources"]["boom"]["error"]
        assert json.dumps(snap)  # must be JSON-serialisable
        registry.unregister_source("boom")
        assert "boom" not in registry.snapshot()["sources"]

    def test_record_timings(self):
        registry = MetricsRegistry()
        registry.record_timings("stage", {"join_s": 0.5, "fit_s": 1.5})
        snap = registry.snapshot()
        assert snap["histograms"]["stage.join_s"]["count"] == 1
        assert snap["histograms"]["stage.fit_s"]["sum"] == 1.5

    def test_persist_bytes_read_is_a_default_source(self):
        snap = get_registry().snapshot()
        assert "persist.bytes_read" in snap["sources"]
        assert isinstance(snap["sources"]["persist.bytes_read"], dict)

    def test_profile_cache_register_metrics(self):
        registry = MetricsRegistry()
        cache = ProfileCache()
        name = cache.register_metrics(registry, name="cache")
        assert name == "cache"
        stats = registry.snapshot()["sources"]["cache"]
        assert {"hits", "misses"} <= set(stats)

    def test_stream_join_stats_record_to(self):
        registry = MetricsRegistry()
        stats = StreamJoinStats(
            chunks_total=4, chunks_probed=3,
            rows_total=100, rows_probed=75, rows_matched=50,
        )
        stats.record_to(registry)
        stats.record_to(registry)
        counters = registry.snapshot()["counters"]
        assert counters["stream_join.chunks_total"] == 8.0
        assert counters["stream_join.rows_matched"] == 100.0

    def test_augment_records_into_default_registry(self, trained):
        # the module fixture ran ARDA.augment, which records per-run metrics
        snap = get_registry().snapshot()
        assert snap["counters"].get("arda.runs", 0) >= 1.0
        assert snap["histograms"]["arda.stage.total_s"]["count"] >= 1

    def test_report_record_metrics_isolated(self):
        registry = MetricsRegistry()
        report = AugmentationReport(
            dataset_name="d", task="regression", base_score=0.1,
            augmented_score=0.2, augmented_table=Table([], name="t"),
            total_time=1.0, selection_time=0.25, fit_time=0.5,
        )
        report.record_metrics(registry)
        snap = registry.snapshot()
        assert snap["counters"]["arda.runs"] == 1.0
        assert snap["histograms"]["arda.stage.selection_s"]["sum"] == 0.25
