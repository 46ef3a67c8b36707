"""Run every workload once and print its end-to-end metrics with units.

    python3 bench/summary.py [--seed N]

Prints setup_s, wall_s, peak_rss_mb, max_route_err and failed_frac for the
oracle, geometry and hybrid workloads, one ``run.py`` process each, each
measuring for the ``run_seconds`` that BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed with code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]))  # the human-readable block; the last line is JSON
        status |= not json.loads(lines[-1])["correct"]
    return status


if __name__ == "__main__":
    raise SystemExit(main())
