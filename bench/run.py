"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload {oracle,geometry,hybrid} --seed N \
        --seconds S --trace {0,1}

Each run starts ``worker.py`` in a fresh process with BLAS/OpenMP threads
pinned to 1.  ``setup_s`` is the median, over nine fresh processes, of the
time from process start through interpreter, numpy and ``holonomy`` import and
seeded input generation.  With ``--trace 0`` the worker times passes over the
workload's tables for about S seconds and the run reports the ``end_to_end``
metrics of BENCHMARK.json; with ``--trace 1`` it reports the ``per_layer``
metrics.  Both times are corrected for load from other processes with a
reference kernel, which puts them in seconds of the reference host at rest
(see ``worker.REFERENCE_S`` and bench/README.md); the times as measured are
printed next to them and kept in the record.  The last line of standard
output is the result JSON; the full record, with provenance, is appended to
``bench/_work/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKER = BENCH / "worker.py"
# setup_s is the median over fresh processes: these many set-up-only ones before
# and after the measured run, which is timed too.
SETUP_SAMPLES_AROUND = 4
WORKER_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _digest(paths) -> str:
    """Digest of the files' names and contents, to tell source trees apart
    where git is not available or the tree has uncommitted changes."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _worker(args: argparse.Namespace, *extra: str) -> tuple[float, dict]:
    """Start the worker, wait for it, and return its start time and result."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("oracle", "geometry", "hybrid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holonomy" / "cli.py").is_file():
        print(f"no holonomy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)

    def setup_sample(*extra: str) -> tuple[float, float, dict]:
        """Raw and load-corrected set-up time of one fresh worker, and its result."""
        started, res = _worker(args, *extra)
        raw = res["ready"] - started
        return raw, raw * res["scale"], res

    samples = [setup_sample("--setup-only") for _ in range(SETUP_SAMPLES_AROUND)]
    samples.append(setup_sample())
    res = samples[-1][2]
    samples += [setup_sample("--setup-only") for _ in range(SETUP_SAMPLES_AROUND)]
    setups = [corrected for _, corrected, _ in samples]
    raw_setups = [raw for raw, _, _ in samples]

    failed_frac = res["failed"] / res["attempted"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["metrics"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"], "max_route_err": res["max_route_err"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    provenance = {
        "git_sha": _git_sha(),
        "program_digest": _digest((ROOT / "src").rglob("*.py")),
        "harness_digest": _digest([*BENCH.glob("*.py"), ROOT / "BENCHMARK.json"]),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: "1" for var in THREAD_VARS},
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance, "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "failed_frac": failed_frac, "worker": res, "metrics": metrics,
    }
    with (WORK / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {provenance['git_sha'][:12]}  python {provenance['python']}  "
          f"numpy {provenance['numpy']}  blas {provenance['blas']}  "
          f"nproc {provenance['nproc']}  threads 1")
    for name in names:
        print(f"  {name:40s} {values[name]:14.6g} {units[name]}")
    if not args.trace:
        # setup_s and wall_s above are in seconds of the reference host at rest
        print(f"  {'setup_s as measured':40s} {statistics.median(raw_setups):14.6g} s")
        print(f"  {'wall_s as measured':40s} {res['raw_wall_s']:14.6g} s")
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} 1  "
          f"({res['failed']} of {res['attempted']} rows)")
    for note in res["notes"]:
        print(f"  mismatch: {note}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
