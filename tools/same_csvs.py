"""Check that two source trees write byte-identical CSVs.

    python tools/same_csvs.py BASE HEAD

BASE and HEAD are checkouts of this repository, say the commit a change
starts from and the change.  Each tree's ``src/`` runs in its own Python
process on the same tables: every table ``bench/workloads.build`` makes for
the ``oracle``, ``geometry`` and ``hybrid`` workloads at seeds 1 to 3,
each experiment's CLI defaults, and every snapshot configuration in
``tests/data`` (the only tables with ``PoleProximity`` and
``WeakCouplingViolated`` rows); 106 CSVs in all.  The tables come from this
checkout's ``bench/workloads.py`` and ``tests/data``, so both trees see the
same inputs.

The script prints every CSV whose bytes differ between the trees, or that
only one of them wrote, and exits 1 if there is any; it exits 0 when every
CSV is byte-identical.  Under each CSV written by both trees it prints every
column that moved, with the largest absolute move over the cells that are
finite numbers on both sides, and whether any other cell (text, empty, inf
or nan; compared exactly) changed.  A change that moves values on purpose
quotes this list.  Both trees together take about 8 s on a 2-core x86-64
host.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is not a package)

SEEDS = (1, 2, 3)
EXPERIMENTS = ("spin-berry", "gho-uncoupled", "hybrid-spin-osc", "hybrid-gho", "full-quantum",
               "oracle-quantum", "oracle-classical", "fig1", "fig2")

# Runs in a fresh process with PYTHONPATH set to one tree's src/: executes the
# configurations read from stdin and names the holonomy it imported.
_RUN = """
import contextlib, json, sys
import holonomy
from holonomy.cli import ExperimentConfig, execute
print(holonomy.__file__, file=sys.stderr)
for raw in json.load(sys.stdin):
    with contextlib.redirect_stdout(None):
        execute(ExperimentConfig.from_dict(raw))
"""


def configs(out: Path) -> list[dict]:
    """Every configuration, each writing under its own directory of ``out``."""
    found = [table.config
             for workload in workloads.WORKLOADS for seed in SEEDS
             for table in workloads.build(workload, seed, out / f"{workload}-{seed}")]
    found += [{"experiment": name, "output": {"directory": str(out / "defaults" / name)}}
              for name in EXPERIMENTS]
    found += [dict(json.loads(path.read_text()),
                   output={"directory": str(out / "snapshots" / path.stem)})
              for path in sorted((ROOT / "tests" / "data").glob("*.json"))]
    return found


def contents(tree: Path, out: Path) -> dict[str, bytes]:
    """Run every configuration on ``tree``'s source; the bytes of each CSV
    written, by its path under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    subprocess.run([sys.executable, "-c", _RUN], input=json.dumps(configs(out)), text=True,
                   env=env, cwd=out.parent, check=True)
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*.csv"))}


def _finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def column_moves(base: str, head: str) -> list[str]:
    """One line per column whose cells differ between two CSV texts, rows
    matched by position: the largest absolute move over the cells that are
    finite numbers on both sides, and ``text changed`` when any other cell
    differs.  A changed row count or a column only one side has gets a line
    of its own."""
    tables = [list(csv.reader(io.StringIO(text))) for text in (base, head)]
    old, new = ({name: column for name, *column in zip(*table)} if table else {}
                for table in tables)
    lines = []
    if len(tables[0]) != len(tables[1]):
        lines.append(f"rows: {len(tables[0]) - 1} -> {len(tables[1]) - 1}")
    for name in [*old, *(name for name in new if name not in old)]:
        if name not in new or name not in old:
            lines.append(f"{name}: only in {'head' if name in new else 'base'}")
            continue
        moves, text = [], False
        for a, b in zip(old[name], new[name]):
            if a != b:
                x, y = _finite(a), _finite(b)
                if x is None or y is None:
                    text = True
                else:
                    moves.append(abs(x - y))
        if moves or text:
            parts = [f"largest move {max(moves):.3e}"] if moves else []
            lines.append(f"{name}: " + ", ".join(parts + ["text changed"] * text))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout the change starts from")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        base = contents(args.base, Path(tmp) / "base")
        head = contents(args.head, Path(tmp) / "head")
    differ = sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))
    for name in differ:
        print(f"differs: {name}")
        if name in base and name in head:
            for line in column_moves(base[name].decode(), head[name].decode()):
                print(f"  {line}")
    print(f"{len(base.keys() | head.keys())} CSVs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
