"""Tests of the end-to-end benchmark harness (not of the program it measures)."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

import bench_e2e
import compare
import e2e_tracing
import e2e_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(1, n + 1)]
    chosen, value = e2e_workloads.tail_percentile(samples)
    assert chosen == pct
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_needs_twenty_samples():
    assert e2e_workloads.tail_percentile([1.0] * 19) is None
    assert e2e_workloads.tail_percentile([float(i) for i in range(1, 1001)])[1] == 990.0


# -- host calibration ------------------------------------------------------------


@pytest.mark.parametrize("rounds", [1, e2e_workloads.REFERENCE_ROUNDS])
def test_calibration_rescales_by_the_reference(rounds):
    reference = e2e_workloads.Reference(rounds)
    nominal = e2e_workloads.REFERENCE_S * rounds / e2e_workloads.REFERENCE_ROUNDS
    assert reference.calibrated(2.0, nominal, nominal) == pytest.approx(2.0)
    # the reference ran 1.5x slower on average around the work: so did the work
    assert reference.host_factor(nominal, 2 * nominal) == pytest.approx(1.5)
    assert reference.calibrated(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
    assert reference.time_s() > 0


def test_served_latency_keeps_the_transport_floor_as_measured():
    floor = 0.044
    # waited out the floor: only the 10 ms of work above it is rescaled
    assert e2e_workloads.calibrated_request_s(0.054, floor, 2.0) == pytest.approx(0.049)
    # faster than the floor: it never waited, so all of it is work
    assert e2e_workloads.calibrated_request_s(0.012, floor, 2.0) == pytest.approx(0.006)
    assert e2e_workloads.calibrated_request_s(0.054, floor, 1.0) == pytest.approx(0.054)


# -- self time and coverage ------------------------------------------------------


def _span(span_id, parent, start, end, name="x"):
    return e2e_tracing.Span(name=name, span_id=span_id, parent_id=parent, trace_id=1,
                            start_ns=start * 10**9, end_ns=end * 10**9)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0, 100, "root"),
        _span(2, 1, 10, 40, "a"),
        _span(3, 1, 30, 60, "b"),       # overlaps a: counted once
        _span(4, 2, 15, 20, "a.child"),  # grandchild: covers a, not root
        _span(5, 1, 90, 120, "late"),   # clipped to the root's end
    ]
    own = e2e_tracing.self_times(spans)
    assert own[1] == pytest.approx(100 - 50 - 10)
    assert own[2] == pytest.approx(30 - 5)
    assert own[4] == pytest.approx(5)
    assert e2e_tracing.coverage(spans, "root") == pytest.approx(0.6)
    assert e2e_tracing.coverage(spans, "missing") is None
    stats = e2e_tracing.layer_stats(spans)
    assert stats["root"].self_s == pytest.approx(40)
    assert stats["a"].total_s == pytest.approx(30)


def test_chrome_trace_round_trips(tmp_path):
    tracer = e2e_tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner") as inner:
            inner.attrs["rows"] = 3
    tracer.write_chrome(tmp_path / "t.json")
    spans = {s.name: s for s in e2e_tracing.spans_from_chrome(tmp_path / "t.json")}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["inner"].trace_id == spans["outer"].span_id
    assert spans["inner"].attrs["rows"] == 3


# -- wrapper transparency --------------------------------------------------------


class _Product:
    def run(self, x):
        return x + 1


def _fake_module() -> types.ModuleType:
    module = types.ModuleType("e2e_fake_layer")

    def square(x):
        return x * x

    def fail():
        raise KeyError("boom")

    def numbers(n):
        yield from range(n)
        return "done"

    class Thing:
        def method(self, x):
            return [x, self]

        @classmethod
        def build(cls, x):
            return cls, x

        @staticmethod
        def static(x):
            return -x

    module.square, module.fail, module.numbers, module.Thing = square, fail, numbers, Thing
    module.factory = _Product
    return module


def test_wrappers_are_transparent_and_restored(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    originals = dict(module.__dict__)
    class_originals = dict(module.Thing.__dict__)
    targets = [
        e2e_tracing.Target(f"{module.__name__}:square", "square"),
        e2e_tracing.Target(f"{module.__name__}:fail", "fail"),
        e2e_tracing.Target(f"{module.__name__}:numbers", "numbers"),
        e2e_tracing.Target(f"{module.__name__}:Thing.method", "method"),
        e2e_tracing.Target(f"{module.__name__}:Thing.build", "build"),
        e2e_tracing.Target(f"{module.__name__}:Thing.static", "static"),
        e2e_tracing.Target(f"{module.__name__}:factory", "product", method="run"),
    ]
    tracer = e2e_tracing.Tracer()
    installation = e2e_tracing.install(targets, tracer)
    try:
        thing = module.Thing()
        assert module.square(7) == 49
        with pytest.raises(KeyError, match="boom"):
            module.fail()
        generator = module.numbers(3)
        assert list(generator) == [0, 1, 2]
        assert thing.method(2) == [2, thing]
        assert module.Thing.build(5) == (module.Thing, 5)
        assert module.Thing.static(4) == -4
        assert module.factory().run(1) == 2
    finally:
        installation.restore()
    names = [span.name for span in tracer.spans]
    assert names.count("numbers") == 4  # three items plus the exhausting next()
    for name in ("square", "fail", "method", "build", "static", "product"):
        assert name in names
    assert next(s for s in tracer.spans if s.name == "fail").attrs["error"] == "KeyError"
    assert all(module.__dict__[k] is v for k, v in originals.items())
    assert all(module.Thing.__dict__[k] is v for k, v in class_originals.items())


def test_every_program_target_resolves_and_is_restored():
    resolved = [e2e_tracing._resolve(t.where) for t in e2e_tracing.TARGETS]
    before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for owner, attr in resolved]
    installation = e2e_tracing.install(e2e_tracing.TARGETS, e2e_tracing.Tracer())
    installation.restore()
    after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
             for owner, attr in resolved]
    assert all(a is b for a, b in zip(before, after))


# -- sqlgen geometry guard -------------------------------------------------------


@pytest.mark.parametrize("workload", e2e_workloads.WORKLOADS)
@pytest.mark.parametrize("smoke", [False, True])
def test_benchmark_profiles_keep_key_pools_disjoint(workload, smoke):
    e2e_workloads.settings(workload, smoke)  # raises on a bad profile


def test_geometry_guard_rejects_overlapping_pools():
    profile = e2e_workloads.settings("augment_outofcore", False)["profile"]
    with pytest.raises(ValueError, match="decoy"):
        e2e_workloads.check_key_geometry(replace(profile, n_decoys=(30, 30)))
    with pytest.raises(ValueError, match="noise"):
        e2e_workloads.check_key_geometry(replace(profile, n_noise_tables=(30, 30)))


# -- compare.py ------------------------------------------------------------------


def test_compare_verdicts():
    parent = [100.0 + (i % 3) for i in range(10)]
    assert compare.verdict(parent, [p - 20 for p in parent], "lower", 0.1)["verdict"] == \
        "improved"
    assert compare.verdict(parent, [p + 20 for p in parent], "lower", 0.1)["verdict"] == \
        "regressed"
    assert compare.verdict(parent, [p + 1 for p in parent], "lower", 0.1)["verdict"] == \
        "no-worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # fewer than ten pairs can never claim a gain
    assert compare.verdict(parent[:5], [p - 20 for p in parent[:5]], "lower",
                           0.1)["verdict"] == "no-worse"


# -- the benchmark itself --------------------------------------------------------


def test_benchmark_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "serve_online",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_smoke_run_emits_every_metric_with_its_unit(tmp_path):
    reference = e2e_workloads.Reference()
    before = reference.time_s()
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke", "--seed", "0",
         "--trace", str(tmp_path / "traces"), "--json", str(tmp_path / "runs.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - started
    # seconds on an uncontended host, so a slow spell of a shared one does not fail it
    elapsed = reference.calibrated(wall, before, reference.time_s())
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert elapsed <= 30, f"smoke run took {elapsed:.1f} calibrated s ({wall:.1f} s wall)"
    final = json.loads(completed.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    docs = json.loads((tmp_path / "runs.json").read_text())["runs"]
    assert [doc["workload"] for doc in docs] == list(e2e_workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for doc in docs:
        workload = doc["workload"]
        end_to_end, problems = bench_e2e.evaluate(doc, SPEC["end_to_end"], traced=False)
        assert not problems
        assert {k: v["unit"] for k, v in end_to_end.items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name, unit in units.items():
            assert final["metrics"][f"{workload}.{name}"]["unit"] == unit
        assert doc["layers"]["trace.coverage"] >= 0.95
        assert (tmp_path / "traces" / f"{workload}.trace.json").exists()


def test_readme_links_resolve():
    spec = importlib.util.spec_from_file_location("check_docs", ROOT / "tools" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    check_docs.DOC_FILES = [HERE / "README.md"]
    assert check_docs.check_links() == []
