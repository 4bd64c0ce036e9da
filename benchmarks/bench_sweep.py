"""Scenario-sweep benchmarks (the planted-ground-truth fuzzing gate).

Times the ``repro sweep`` building blocks end to end:

* **generate** — sampling scenario specs (``generate_scenario``) alone; pure
  SeedSequence arithmetic, should be effectively free next to a pipeline run.
  ``tables`` counts the tables the specs describe.
* **materialise** — turning specs into in-memory tables, the per-scenario
  fixed cost every sweep pays before discovery.  ``rows`` counts the base
  and repository rows produced.
* **scenario-p50** — the headline kernel: the **p50 wall time of one full
  scored scenario** (materialise + discovery + ARDA + plant scoring) across
  ``--scenarios`` memory-layout scenarios.  This is what bounds how many
  scenarios CI can afford per sweep.

Also asserts the determinism contract the sweep's tests rely on: two runs of
the same ``(seed, config)`` must produce byte-identical deterministic JSON —
a benchmark run that breaks it fails loudly here too.

Standalone on purpose (no pytest-benchmark dependency) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_sweep.py --quick --json BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from repro.core.config import SweepConfig
from repro.datasets.sqlgen import ScenarioSweep, generate_scenario, materialise_scenario
from repro.observability import MetricsRegistry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument("--scenarios", type=int, default=None, help="scenarios per sweep")
    parser.add_argument("--seed", type=int, default=0, help="sweep root seed")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()
    n_scenarios = args.scenarios if args.scenarios is not None else (4 if args.quick else 20)
    n_specs = 200
    results: list[dict] = []
    failures: list[str] = []

    start = time.perf_counter()
    specs = [generate_scenario(args.seed, i) for i in range(n_specs)]
    generate_s = time.perf_counter() - start
    results.append(
        {
            "bench": "generate",
            "seconds": generate_s / n_specs,
            "specs": n_specs,
            "tables": sum(len(spec.tables) for spec in specs),
            "total_s": generate_s,
        }
    )

    start = time.perf_counter()
    n_tables = n_rows = 0
    for spec in specs[:n_scenarios]:
        dataset = materialise_scenario(spec)
        n_tables += len(dataset.repository.table_names)
        n_rows += dataset.base_table.num_rows + sum(
            table.num_rows for table in dataset.repository
        )
    materialise_s = (time.perf_counter() - start) / n_scenarios
    results.append(
        {
            "bench": "materialise",
            "seconds": materialise_s,
            "scenarios": n_scenarios,
            "tables": n_tables,
            "rows": n_rows,
        }
    )

    config = SweepConfig(n_scenarios=n_scenarios, seed=args.seed, layout="memory")
    sweep_result = ScenarioSweep(config, registry=MetricsRegistry()).run()
    p50 = statistics.median(score.elapsed_s for score in sweep_result.scores)
    results.append(
        {
            "bench": "scenario-p50",
            "seconds": p50,
            "scenarios": n_scenarios,
            "failed": sweep_result.n_failed,
            "mean_discovery_recall": sweep_result.mean_discovery_recall,
            "mean_uplift": sweep_result.mean_uplift,
            "sweep_s": sweep_result.elapsed_s,
        }
    )
    if not sweep_result.passed:
        failures.append(
            f"{sweep_result.n_failed}/{n_scenarios} scenarios failed their plant "
            "(discovery recall floor or planted-vs-decoy ranking)"
        )
    repeat = ScenarioSweep(config, registry=MetricsRegistry()).run()
    if repeat.deterministic_json() != sweep_result.deterministic_json():
        failures.append(
            "same (seed, config) produced different deterministic sweep JSON "
            "across two in-process runs"
        )

    print(f"\n{'bench':<16} {'seconds':>10}   extra")
    for row in results:
        extra = ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
            if k not in ("bench", "seconds")
        )
        print(f"{row['bench']:<16} {row['seconds'] * 1e3:>8.1f}ms   {extra}")

    if args.json:
        args.json.write_text(json.dumps({"suite": "sweep", "results": results}, indent=2))
        print(f"\nwrote {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
