"""Record benchmark runs into a ledger (one JSON file, appended run by run).

Runs the command of ``BENCHMARK.json`` exactly as an evaluation does --
``<command> --workload W --seed N --seconds <run_seconds> --trace T`` from
the root of a checkout -- and keeps, per run, the final JSON line and the
full result document (``--json``).  With several ``--side NAME=DIR``
checkouts the runs alternate between sides, flipping the order every seed,
which is the pairing ``compare.py`` expects.

Examples, from the repository root::

    # two acceptance sets of the same code on one seed
    python benchmarks/e2e/record.py --out ledger.json --set acceptance_a --seeds 0 0 0
    python benchmarks/e2e/record.py --out ledger.json --set acceptance_b --seeds 0 0 0
    # ten alternating parent/change pairs on fresh seeds
    python benchmarks/e2e/record.py --out ab.json --set ab --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --side parent=../parent-checkout --side change=.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def host_info(checkout: Path) -> dict:
    """Commit, core count and interpreter/library versions of the host."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                               capture_output=True, text=True, check=True).stdout.strip()
        if dirty:
            commit += " (with uncommitted changes)"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_once(checkout: Path, workload: str, seed: int, trace: str) -> dict:
    """One run of the benchmark command in ``checkout``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    scratch = checkout / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=scratch) as tmp:
        doc_path = Path(tmp) / "doc.json"
        command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", trace, "--json", str(doc_path)]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
        wall = time.perf_counter() - started
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        doc = json.loads(doc_path.read_text())["runs"][0] if doc_path.exists() else None
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "exit_code": completed.returncode, "result": result, "doc": doc,
            "stderr": completed.stderr[-2000:] if completed.returncode else ""}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="ledger file (appended)")
    parser.add_argument("--set", required=True, help="name of this set of runs")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=DIR",
                        help="checkout to run in; repeat to alternate between checkouts")
    args = parser.parse_args(argv)

    sides = [tuple(side.split("=", 1)) for side in args.side] or [("", str(ROOT))]
    sides = [(name, Path(path).resolve()) for name, path in sides]
    spec = json.loads((sides[0][1] / "BENCHMARK.json").read_text())
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    ledger = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    ledger.setdefault("hosts", {})
    for name, checkout in sides:
        ledger["hosts"][name or "default"] = host_info(checkout)

    failures = 0
    for workload in workloads:
        for index, seed in enumerate(args.seeds):
            order = sides if index % 2 == 0 else list(reversed(sides))
            for name, checkout in order:
                run = run_once(checkout, workload, seed, args.trace)
                run["label"] = f"{args.set}/{name}" if name else args.set
                ledger["runs"].append(run)
                args.out.write_text(json.dumps(ledger, indent=1))
                ok = run["exit_code"] == 0 and run["result"] and run["result"]["correct"]
                failures += not ok
                print(f"{run['label']:<24} {workload:<18} seed={seed:<4} "
                      f"{'ok' if ok else 'FAILED'} {run['wall_s']:.1f}s", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
