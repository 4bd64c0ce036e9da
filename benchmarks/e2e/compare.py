"""Compare two labelled sets of benchmark runs (choosing-metrics section 8).

Reads a ledger written by ``record.py`` and, for every (workload, metric),
prints each side's median and quartiles, the change's win fraction over the
paired runs, and a verdict:

* **improved** -- at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's own spread (Q3 - Q1);
* **unresolved** -- the parent's spread, as a share of its median, is wider
  than the metric's bound, unless every change run beats every parent run;
* **regressed** -- the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* **no-worse** -- none of the above.

Bounds and directions come from ``BENCHMARK.json``; per-layer metrics have no
bound and get statistics only.  Runs pair up in ledger order within each
workload.  The exit code is 1 when any metric regressed.

Usage::

    python benchmarks/e2e/compare.py ab.json --parent ab/parent --change ab/change
    python benchmarks/e2e/compare.py seed.json --parent acceptance_a --change acceptance_b
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """Statistics and the section-8 verdict for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    out = {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3, "n": len(parent)},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3, "n": len(change)},
        "pairs": len(pairs),
        "win_fraction": wins / len(pairs) if pairs else 0.0,
        "parent_spread": spread / abs(p_med) if p_med else 0.0,
    }
    if bound is None:
        out["verdict"] = "-"
        return out
    gain = sign * (c_med - p_med)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= MIN_PAIRS and out["win_fraction"] >= 0.9 and gain > spread:
        out["verdict"] = "improved"
    elif out["parent_spread"] > bound and not all_better:
        out["verdict"] = "unresolved"
    elif p_med and -gain / abs(p_med) > bound:
        out["verdict"] = "regressed"
    else:
        out["verdict"] = "no-worse"
    return out


def metric_values(runs: list[dict], workload: str, name: str) -> list[float]:
    values = []
    for run in runs:
        result = run.get("result") or {}
        if run["workload"] == workload and name in result.get("metrics", {}):
            values.append(result["metrics"][name]["value"])
    return values


def compare(ledger: dict, spec: dict, parent_label: str, change_label: str) -> list[dict]:
    parent = [r for r in ledger["runs"] if r["label"] == parent_label]
    change = [r for r in ledger["runs"] if r["label"] == change_label]
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, bound in metrics:
            p = metric_values(parent, workload, metric["name"])
            c = metric_values(change, workload, metric["name"])
            if not p or not c:
                continue
            row = verdict(p, c, metric["better"], bound)
            row.update(workload=workload, metric=metric["name"], unit=metric["unit"],
                       bound=bound)
            rows.append(row)
    return rows


def digests(ledger: dict, labels: set[str]) -> dict[tuple[str, int], set[str]]:
    """Output digests per (workload, seed) over the runs of ``labels``."""
    out: dict[tuple[str, int], set[str]] = {}
    for run in ledger["runs"]:
        if run["label"] in labels and run.get("doc"):
            out.setdefault((run["workload"], run["seed"]), set()).add(run["doc"]["digest"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ledger", type=Path)
    parser.add_argument("--parent", required=True, help="label of the parent runs")
    parser.add_argument("--change", required=True, help="label of the change runs")
    args = parser.parse_args(argv)

    ledger = json.loads(args.ledger.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(ledger, spec, args.parent, args.change)
    if not rows:
        print(f"no common runs for {args.parent!r} and {args.change!r}", file=sys.stderr)
        return 2

    def side(stats: dict) -> str:
        return f"{stats['median']:.5g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    print(f"{'workload':<18} {'metric':<40} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<18} {row['metric']:<40} {side(row['parent']):<34} "
              f"{side(row['change']):<34} {row['win_fraction']:>5.2f} "
              f"{row['parent_spread']:>7.3f} {bound:>6}  {row['verdict']}")
    pairs = min(row["pairs"] for row in rows)
    if pairs < MIN_PAIRS:
        print(f"note: only {pairs} pairs; no gain can be claimed below {MIN_PAIRS}")
    seen = digests(ledger, {args.parent, args.change})
    mixed = {key: sorted(v) for key, v in seen.items() if len(v) > 1}
    print(f"output digests over both sides: "
          f"{f'identical per seed ({len(seen)} workload-seed pairs)' if not mixed else mixed}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
