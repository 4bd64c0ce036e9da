"""CI benchmark-regression gate.

Compares measured benchmark timings (the ``--json`` output of
``bench_columnar.py`` / ``bench_persistence.py``) against the committed
``benchmarks/baselines.json`` and fails if any kernel regressed more than the
allowed ratio:

    python benchmarks/check_regression.py --baseline benchmarks/baselines.json \
        BENCH_columnar.json BENCH_persistence.json

Rules:

* a kernel FAILS when ``measured > max_ratio * baseline`` **and**
  ``measured > min_seconds`` (sub-``min_seconds`` timings are too noisy on
  shared CI runners to gate on);
* a baseline kernel missing from the measurements FAILS (a silently dropped
  benchmark must not pass the gate);
* a measured kernel with no baseline only warns — commit a baseline entry for
  it to bring it under the gate;
* a baseline counter (``counters``: deterministic work counts such as spill
  partitions, spill bytes or chunks probed, keyed by kernel) FAILS unless the
  measured row reports exactly that value, and a missing counter FAILS as a
  missing kernel does.  Counters gate kernels too fast for ``min_seconds``.

Baselines are recorded from ``--quick`` runs with generous headroom; when a
deliberate change moves a kernel's cost, re-record with the printed value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def measured_seconds(row: dict) -> float | None:
    """The gated timing of one result row (``seconds``, or ``new_s``)."""
    value = row.get("seconds", row.get("new_s"))
    return None if value is None else float(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("measurements", type=Path, nargs="+", help="BENCH_*.json files")
    parser.add_argument("--baseline", type=Path, required=True, help="baselines.json")
    args = parser.parse_args()

    baseline_doc = json.loads(args.baseline.read_text())
    baselines: dict[str, float] = baseline_doc["kernels"]
    max_ratio = float(baseline_doc.get("max_ratio", 2.0))
    min_seconds = float(baseline_doc.get("min_seconds", 0.05))

    counters: dict[str, dict[str, int]] = baseline_doc.get("counters", {})

    measured: dict[str, float] = {}
    rows: dict[str, dict] = {}
    for path in args.measurements:
        doc = json.loads(path.read_text())
        suite = doc.get("suite", path.stem)
        for row in doc.get("results", []):
            kernel = f"{suite}/{row['bench']}"
            rows[kernel] = row
            seconds = measured_seconds(row)
            if seconds is not None:
                measured[kernel] = seconds

    failures: list[str] = []
    print(f"{'kernel':<28} {'measured':>10} {'baseline':>10} {'ratio':>7}")
    for kernel, baseline in sorted(baselines.items()):
        seconds = measured.get(kernel)
        if seconds is None:
            failures.append(f"{kernel}: present in baseline but not measured")
            print(f"{kernel:<28} {'MISSING':>10} {baseline * 1e3:>8.1f}ms {'-':>7}")
            continue
        ratio = seconds / baseline
        verdict = ""
        if ratio > max_ratio and seconds > min_seconds:
            failures.append(
                f"{kernel}: {seconds * 1e3:.1f}ms is {ratio:.2f}x the "
                f"{baseline * 1e3:.1f}ms baseline (limit {max_ratio}x)"
            )
            verdict = "  << REGRESSION"
        print(
            f"{kernel:<28} {seconds * 1e3:>8.1f}ms {baseline * 1e3:>8.1f}ms "
            f"{ratio:>6.2f}x{verdict}"
        )
    for kernel in sorted(set(measured) - set(baselines)):
        print(f"{kernel:<28} {measured[kernel] * 1e3:>8.1f}ms {'(no baseline)':>10}")

    if counters:
        print(f"\n{'counter':<44} {'measured':>12} {'baseline':>12}")
    for kernel, expected in sorted(counters.items()):
        row = rows.get(kernel, {})
        for name, value in sorted(expected.items()):
            label = f"{kernel}.{name}"
            got = row.get(name)
            verdict = ""
            if got is None:
                failures.append(f"{label}: counter in baseline but not measured")
                verdict = "  << MISSING"
            elif got != value:
                failures.append(f"{label}: measured {got}, baseline {value} (must match)")
                verdict = "  << CHANGED"
            print(f"{label:<44} {str(got):>12} {value:>12}{verdict}")

    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
