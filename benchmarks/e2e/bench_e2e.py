"""End-to-end ARDA benchmark: augment, out-of-core augment + score, serving.

Runs the whole ARDA path -- discovery, coreset, join plan, batch joins,
impute/encode, RIFS, final materialisation, fit, artifact save, served
predict -- on fixed-shape ``repro.datasets.sqlgen`` scenarios, from outside
the program.  Each workload runs in a fresh child interpreter.  The run
prints every metric by name with its unit, checks the program's outputs, and
ends with one JSON line::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {"setup_s": {"value": ..., "unit": "s"}, ...}}

Usage, from the repository root::

    python benchmarks/e2e/bench_e2e.py --seed 0                       # all four workloads
    python benchmarks/e2e/bench_e2e.py --workload serve_online --seed 3 --seconds 15 --trace 0
    python benchmarks/e2e/bench_e2e.py --seed 0 --trace .bench_e2e/traces   # per-layer run
    python benchmarks/e2e/bench_e2e.py --smoke --trace 1 --json smoke.json

``--trace 1`` (or ``--trace DIR``) repeats the workloads with span wrappers
installed, writes one Chrome trace per process into the directory
(``.bench_e2e/traces`` for ``1``) and reports the per-layer metrics instead
of the end-to-end ones.  Metric names, units and bounds come from
``BENCHMARK.json`` at the repository root.  The exit code is non-zero when a
correctness check fails, an operation fails or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = ROOT / ".bench_e2e"
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from e2e_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated value")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", default="0",
                        help="0 = off; 1 = per-layer run traced into .bench_e2e/traces; "
                        "any other value = per-layer run traced into that directory")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write every workload's full result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a short window (harness tests)")
    # internal: the per-workload child and the timed set-up interpreter
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--setup", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--trace-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def trace_dir_of(value: str) -> Path | None:
    if value == "0":
        return None
    if value == "1":
        return OUT_DIR / "traces"
    return Path(value).resolve()


def run_workload(workload: str, args, seconds: float, trace_dir: Path | None) -> dict:
    """Run one workload in a fresh child interpreter; return its document."""
    from e2e_workloads import child_env

    work = OUT_DIR / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    command = [sys.executable, str(HERE / "bench_e2e.py"), "--child", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--work", str(work), "--result", str(result)]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    if args.smoke:
        command.append("--smoke")
    try:
        completed = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
        if completed.returncode != 0 or not result.exists():
            return {"workload": workload, "error": completed.stderr[-3000:] or
                    f"child exited with {completed.returncode}"}
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": f"timed out after {CHILD_TIMEOUT_S}s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(doc: dict, declared: list[dict], traced: bool) -> tuple[dict, list[str]]:
    """Attach units to the declared metrics and list every problem found."""
    problems = []
    if "error" in doc:
        return {}, [f"{doc['workload']}: {doc['error']}"]
    source = doc.get("layers", {}) if traced else doc["metrics"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = source.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"{doc['workload']}: metric {name} missing or not finite")
            continue
        if not traced and value <= 0:
            problems.append(f"{doc['workload']}: end-to-end metric {name} is {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for check, ok in doc["checks"].items():
        if not ok:
            problems.append(f"{doc['workload']}: check {check} failed")
    if doc["failed"]:
        problems.append(f"{doc['workload']}: {doc['failed']} of {doc['ops']} operations failed "
                        f"{doc.get('errors', '')}")
    return metrics, problems


def report(doc: dict, metrics: dict, problems: list[str]) -> None:
    """Human-readable block for one workload."""
    if "error" in doc:
        print(f"{doc['workload']}: ERROR\n{doc['error']}")
        return
    print(f"{doc['workload']}  seed={doc['seed']}  ops={doc['ops']}  failed={doc['failed']}"
          f"  digest={doc['digest']}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if "tail" in doc and doc["tail"]:
        pct, value = doc["tail"]
        print(f"  client latency p{pct:g} = {value * 1e3:.3f} ms over {doc['requests']} requests")
    if "op_wall_s" in doc:
        walls, factors = doc["op_wall_s"], doc["op_host_factor"]
        print(f"  untraced operations, k={len(walls)}: wall s / host factor: "
              f"{', '.join(f'{w:.3f}/{f:.2f}' for w, f in zip(walls, factors))}")
    if doc.get("train_s") is not None:
        print(f"  training before the server starts: {doc['train_s']:.3f} s")
        print(f"  client latency median {doc['raw_latency_ms']:.3f} ms as measured; "
              f"transport floor {doc['floor_ms']:.3f} ms; host factor {doc['host_factor']:.3f}")
    samples = zip(doc["setup_s_samples"], doc["setup_raw_s"])
    print(f"  setup_s samples (calibrated / wall): "
          f"{', '.join(f'{s:.3f}/{r:.3f}' for s, r in samples)}")
    print(f"  host probe: {doc['probe_ms']['before']:.2f} ms before, "
          f"{doc['probe_ms']['after']:.2f} ms after")
    checks = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in doc["checks"].items())
    print(f"  checks: {checks}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"bench_e2e: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)

    if args.setup is not None:
        from e2e_workloads import run_setup

        run_setup(args.setup, args.seed, args.smoke, args.work)
        return 0
    if args.child is not None:
        from e2e_workloads import run_child

        doc = run_child(args.child, args.seed, args.seconds, args.smoke, args.trace_dir,
                        args.work)
        args.result.write_text(json.dumps(doc))
        return 0

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds = min(seconds, 1.0)
    trace_dir = trace_dir_of(args.trace)
    declared = spec["per_layer"] if trace_dir is not None else spec["end_to_end"]
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]

    docs, all_metrics, problems = [], {}, []
    attempted = failed = 0
    for workload in workloads:
        doc = run_workload(workload, args, seconds, trace_dir)
        metrics, found = evaluate(doc, declared, trace_dir is not None)
        report(doc, metrics, found)
        docs.append(doc)
        problems += found
        # a child that produced no document counts as one failed operation
        attempted += doc.get("ops", 1)
        failed += doc.get("failed", 1)
        for name, entry in metrics.items():
            all_metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = entry

    if args.json is not None:
        args.json.write_text(json.dumps({"runs": docs}, indent=1))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
