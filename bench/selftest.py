"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload with ``--size tiny`` (one cell, one trial, small
completion instances), untraced and traced, and checks that each run's
outputs pass the benchmark's checks and that the metric names and units it
prints are exactly those in BENCHMARK.json.  It makes no claim about time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{where}: output checks failed\n{proc.stdout}")
            if result["attempted"] < 1:
                problems.append(f"{where}: no operation attempted")
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} do not match "
                                f"BENCHMARK.json {sorted(expected[trace].items())}")
            print(f"{where}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(got)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
