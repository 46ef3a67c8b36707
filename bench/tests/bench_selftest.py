"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q bench/tests/bench_selftest.py

The file name does not match ``test_*.py`` on purpose, so the package's
``pytest`` run does not collect it; name it explicitly as above.  The run
tests drive ``run.py`` on the cheapest workload (``hybrid``) with a short
measuring time and take about a minute; they leave ``results.jsonl`` as they
found it, so their short runs never enter a result set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")
RESULTS = BENCH / "_work" / "results.jsonl"


@pytest.fixture(autouse=True, scope="module")
def keep_results():
    before = RESULTS.read_bytes() if RESULTS.exists() else None
    yield
    if before is None:
        RESULTS.unlink(missing_ok=True)
    else:
        RESULTS.write_bytes(before)


def run(seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "hybrid", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_bytes() -> dict[str, bytes]:
    out = BENCH / "_work" / "hybrid"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_and_same_seed_repeats_them(name, tmp_path):
    first = [t.config for t in workloads.build(name, 1, tmp_path)]
    again = [t.config for t in workloads.build(name, 1, tmp_path)]
    other = [t.config for t in workloads.build(name, 2, tmp_path)]
    assert first == again
    assert [c["params"] for c in first] != [c["params"] for c in other]
    assert [c["experiment"] for c in first] == [c["experiment"] for c in other]


def test_new_seed_keeps_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"]]
    for seed in (1, 2):
        result = run(seed, trace=0)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_identical_counts_and_csv_bytes():
    results, tables = [], []
    for _ in range(2):
        results.append(run(7, trace=1))
        tables.append(csv_bytes())
    assert list(results[0]["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if units[k] in COUNT_UNITS}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["cli.rows"] > 0 and counts[0]["manifold.quad_calls"] > 0
    assert tables[0] == tables[1] and tables[0]
    # the untraced run writes the same bytes as the traced one
    run(7, trace=0)
    assert csv_bytes() == tables[0]
