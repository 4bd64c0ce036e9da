"""Benchmark-owned span tracer: wrappers at layer boundaries, Chrome export.

The benchmark instruments the program from outside: :func:`install` replaces
public functions and methods *at the names their callers use* (for example
``repro.core.arda.impute_table``, which is the binding ``ARDA`` calls, not
``repro.relational.imputation.impute_table``) with wrappers that record one
span per call, and :meth:`Installation.restore` puts every original back.  Nothing in
``src/`` knows it is being traced.

A span records its name, start and end (``perf_counter_ns``), the span that
caused it (the parent is tracked per thread of control with a
``contextvars.ContextVar``), a trace id shared by every span under one root,
the thread CPU time it consumed, and the delta of
``repro.relational.persist.bytes_read_detail()`` over its lifetime.  Spans are
kept in memory and written once, at exit, as Chrome trace-event JSON
(``chrome://tracing`` and Perfetto open it).

:func:`self_times` and :func:`coverage` implement the two pieces of interval
arithmetic the per-layer metrics need: a span's self time is its duration
minus the part of its interval that its direct children cover, and a root's
coverage is the covered fraction of its duration.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start_ns: int
    end_ns: int = 0
    cpu_ns: int = 0
    thread_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans in memory; thread-safe, parent links via contextvars.

    New threads start with an empty context, so a span opened on a server
    worker thread is a root of its own trace.
    """

    def __init__(self, bytes_source: Callable[[], dict] | None = None):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._bytes_source = bytes_source

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields the :class:`Span`."""
        parent = self._current.get()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            start_ns=time.perf_counter_ns(),
            thread_id=threading.get_ident(),
        )
        before = self._bytes_source() if self._bytes_source is not None else None
        token = self._current.set(span)
        cpu_start = time.thread_time_ns()
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.cpu_ns = time.thread_time_ns() - cpu_start
            span.end_ns = time.perf_counter_ns()
            self._current.reset(token)
            if before is not None:
                for kind, value in self._bytes_source().items():
                    if value != before.get(kind, 0):
                        span.attrs[f"bytes_read.{kind}"] = value - before.get(kind, 0)
            with self._lock:
                self.spans.append(span)

    def write_chrome(self, path: str | Path) -> None:
        """Write every span as Chrome trace-event JSON (complete events)."""
        with self._lock:
            spans = list(self.spans)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": os.getpid(),
                "tid": span.thread_id,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "trace_id": span.trace_id,
                    "cpu_ms": span.cpu_ns / 1e6,
                    **span.attrs,
                },
            }
            for span in spans
        ]
        Path(path).write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def spans_from_chrome(path: str | Path) -> list[Span]:
    """Read spans back from a trace written by :meth:`Tracer.write_chrome`."""
    doc = json.loads(Path(path).read_text())
    spans = []
    for event in doc["traceEvents"]:
        args = dict(event["args"])
        start_ns = int(round(event["ts"] * 1e3))
        spans.append(
            Span(
                name=event["name"],
                span_id=args.pop("span_id"),
                parent_id=args.pop("parent_id"),
                trace_id=args.pop("trace_id"),
                start_ns=start_ns,
                end_ns=start_ns + int(round(event["dur"] * 1e3)),
                cpu_ns=int(round(args.pop("cpu_ms") * 1e6)),
                thread_id=event["tid"],
                attrs=args,
            )
        )
    return spans


# -- interval arithmetic --------------------------------------------------------


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time (seconds) of every span: duration minus child coverage."""
    children = _children(spans)
    out = {}
    for span in spans:
        kids = [(c.start_ns, c.end_ns) for c in children.get(span.span_id, ())]
        covered = _covered_ns(span.start_ns, span.end_ns, kids)
        out[span.span_id] = (span.end_ns - span.start_ns - covered) / 1e9
    return out


def coverage(spans: list[Span], root_name: str) -> float | None:
    """Share of the summed duration of ``root_name`` spans its children cover.

    ``None`` when no such span was recorded.
    """
    children = _children(spans)
    total = covered = 0
    for span in spans:
        if span.name != root_name:
            continue
        total += span.end_ns - span.start_ns
        kids = [(c.start_ns, c.end_ns) for c in children.get(span.span_id, ())]
        covered += _covered_ns(span.start_ns, span.end_ns, kids)
    return covered / total if total else None


@dataclass
class LayerStats:
    """Per-name totals over a set of spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Aggregate spans by name: calls, inclusive and self time, CPU, attrs."""
    own = self_times(spans)
    out: dict[str, LayerStats] = {}
    for span in spans:
        stats = out.setdefault(span.name, LayerStats())
        stats.calls += 1
        stats.total_s += span.duration_s
        stats.self_s += own[span.span_id]
        stats.cpu_s += span.cpu_ns / 1e9
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                stats.attrs[key] = stats.attrs.get(key, 0) + value
    return out


# -- wrappers ---------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One instrumentation point.

    ``where`` is ``"module:attribute"`` or ``"module:Class.method"``.  With
    ``method`` set, the target is a factory: its return value is left alone
    except that the named method of the returned instance is wrapped (used
    for ``make_selector`` / ``make_coreset_builder``, whose products are the
    layer).  ``attrs`` computes span attributes from ``(args, kwargs,
    result)``.
    """

    where: str
    span: str
    attrs: Callable[[tuple, dict, object], dict] | None = None
    method: str | None = None


def traced(fn: Callable, name: str, tracer: Tracer, attrs=None) -> Callable:
    """Wrap ``fn`` so every call (or every ``next`` of a generator) is a span."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    with tracer.span(name):
                        try:
                            item = next(iterator)
                        except StopIteration as stop:
                            return stop.value
                    yield item
            finally:
                iterator.close()

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

    return wrapper


def _factory(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        product = fn(*args, **kwargs)
        bound = getattr(product, target.method)
        setattr(product, target.method, traced(bound, target.span, tracer, target.attrs))
        return product

    return wrapper


def _resolve(where: str) -> tuple[object, str]:
    module_name, _, path = where.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class Installation:
    """The set of wrappers one :func:`install` put in place."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        """Put every original back, in reverse installation order."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install(targets: list[Target], tracer: Tracer) -> Installation:
    """Wrap every target; a missing target raises (the map is out of date)."""
    installation = Installation()
    try:
        for target in targets:
            owner, attribute = _resolve(target.where)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(raw, (classmethod, staticmethod)):
                inner = _wrap_function(raw.__func__, target, tracer)
                replacement = type(raw)(inner)
            else:
                replacement = _wrap_function(raw, target, tracer)
            installation._saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
    except BaseException:
        installation.restore()
        raise
    return installation


def _wrap_function(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    if target.method is not None:
        return _factory(fn, target, tracer)
    return traced(fn, target.span, tracer, target.attrs)


# -- the instrumentation map ------------------------------------------------------


def _rows_in(args, kwargs, result) -> dict:
    return {"rows_in": args[0].num_rows}


def _columns_in(args, kwargs, result) -> dict:
    return {"columns_in": args[0].num_columns}


def _method_columns_in(args, kwargs, result) -> dict:
    return {"columns_in": args[1].num_columns}


def _selection(args, kwargs, result) -> dict:
    return {"considered": int(args[0].shape[1]), "kept": len(result.selected)}


def _forest_fit(args, kwargs, result) -> dict:
    trees = args[0].estimators_
    return {"trees": len(trees), "nodes": sum(tree.node_count for tree in trees)}


def _predict_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


# Layer boundaries of the augment path, the scoring path and the server.  Each
# entry names the binding the caller actually uses, so the wrapper sees exactly
# the calls that path makes.
TARGETS: list[Target] = [
    Target("repro.core.arda:ARDA.augment_tables", "core.arda.augment"),
    Target("repro.discovery.discovery:JoinDiscovery.discover", "discovery"),
    Target("repro.core.arda:make_coreset_builder", "coreset", method="reduce_table"),
    Target("repro.core.arda:build_join_plan", "core.join_plan"),
    Target("repro.core.arda:join_candidates_detailed", "core.join_execution.batch"),
    Target("repro.core.arda:replay_kept_joins", "core.join_execution.replay"),
    Target("repro.serving.pipeline:replay_kept_joins", "core.join_execution.replay"),
    Target("repro.relational.join:group_by_aggregate", "relational.aggregate", _rows_in),
    Target("repro.core.arda:impute_table", "relational.imputation"),
    Target("repro.relational.imputation:FittedImputer.transform", "relational.imputation"),
    Target("repro.core.arda:to_design_matrix", "relational.encoding", _columns_in),
    Target("repro.core.arda:encode_features_binned", "relational.encoding", _columns_in),
    Target("repro.relational.encoding:FittedEncoder.transform", "relational.encoding",
           _method_columns_in),
    Target("repro.core.arda:make_selector", "selection", _selection, method="select"),
    Target("repro.core.arda:holdout_score", "ml.holdout"),
    Target("repro.ml.forest:RandomForestClassifier.fit", "ml.forest.fit", _forest_fit),
    Target("repro.ml.forest:RandomForestRegressor.fit", "ml.forest.fit", _forest_fit),
    Target("repro.ml.forest:RandomForestClassifier.predict", "ml.forest.predict"),
    Target("repro.ml.forest:RandomForestRegressor.predict", "ml.forest.predict"),
    Target("repro.core.arda:write_table_stream", "relational.persist.write"),
    Target("repro.core.arda:iter_grace_left_join", "relational.join.grace"),
    Target("repro.relational.join:StreamingHashJoin.probe_chunk", "relational.join.probe"),
    Target("repro.relational.persist:ChunkedTableReader.chunk", "relational.persist.read"),
    Target("repro.relational.persist:ChunkedTableReader.take", "relational.persist.read"),
    Target("repro.discovery.repository:DataRepository.open", "discovery.repository.open"),
    Target("repro.discovery.repository:DataRepository.add", "discovery.repository.publish"),
    Target("repro.discovery.repository:DataRepository.replace",
           "discovery.repository.publish"),
    Target("repro.serving.pipeline:fit_pipeline_from_training", "serving.pipeline.fit"),
    Target("repro.serving.pipeline:FittedPipeline.save", "serving.pipeline.save"),
    Target("repro.serving.pipeline:FittedPipeline.load", "serving.pipeline.load"),
    Target("repro.serving.pipeline:FittedPipeline.bind", "serving.pipeline.bind"),
    Target("repro.serving.pipeline:FittedPipeline.predict", "serving.pipeline.predict",
           _predict_rows),
    Target("repro.serving.server:parse_predict_payload", "serving.codec"),
    Target("repro.serving.server:rows_to_table", "serving.codec"),
    Target("repro.serving.server:predictions_to_payload", "serving.codec"),
    # the server's own request and micro-batch units: private names, but the
    # only boundaries that separate admission/queueing from scoring
    Target("repro.serving.server:PredictionServer._handle_predict", "serving.server.request"),
    Target("repro.serving.server:PredictionServer._score_jobs", "serving.server.batch"),
]

# the program-level calls whose wall time the layer spans must account for
COVERAGE_ROOTS = ("core.arda.augment", "serving.pipeline.predict", "serving.server.batch")


def make_tracer() -> Tracer:
    """A tracer that records ``persist.bytes_read_detail`` deltas per span."""
    from repro.relational.persist import bytes_read_detail

    return Tracer(bytes_source=bytes_read_detail)
