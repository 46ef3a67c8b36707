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
CSV is byte-identical.  It compares each table's ``run_meta.json`` the same
way, on the fields that say where its rows ended: ``rows``, ``failed_rows``
and ``samples_used``, the count of rows that finished at each sample count.
A change that stops a row at another rung of the sample ladder moves no CSV
byte when the row is resolved at both, and shows only there.  Under each CSV written by both trees it prints every
column that moved, with the largest absolute move over the cells that are
finite numbers on both sides, that move relative to the column's scale and
to the table's (the largest finite magnitude of the column's cells, and of
any cell, in either table), and whether any other cell (text, empty, inf or
nan; compared exactly) changed.  A value column moved by rounding reads near
1e-16 against its own scale; a column that is itself at rounding level,
such as a converged error estimate or a route residual, reads near 1 there
and near 1e-16 against the table.  A change that
moves values on purpose quotes this list.  Under each differing
``run_meta.json`` it prints each of those fields that differs, base then
head.  Both trees together take about 8 s on a 2-core x86-64 host.
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
# the fields of each table's run_meta.json that are compared
META_FIELDS = ("rows", "failed_rows", "samples_used")
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
    written, and the ``META_FIELDS`` of each ``run_meta.json`` as sorted JSON,
    by its path under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    subprocess.run([sys.executable, "-c", _RUN], input=json.dumps(configs(out)), text=True,
                   env=env, cwd=out.parent, check=True)
    found = {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*.csv"))}
    for path in sorted(out.rglob("run_meta.json")):
        meta = json.loads(path.read_text())
        found[str(path.relative_to(out))] = json.dumps(
            {key: meta[key] for key in META_FIELDS}, sort_keys=True).encode()
    return found


def meta_moves(base: bytes, head: bytes) -> list[str]:
    """One line per ``META_FIELDS`` field that differs between two records."""
    old, new = json.loads(base), json.loads(head)
    return [f"{key}: {json.dumps(old[key], sort_keys=True)} -> {json.dumps(new[key], sort_keys=True)}"
            for key in META_FIELDS if old[key] != new[key]]


def _finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def column_moves(base: str, head: str) -> list[str]:
    """One line per column whose cells differ between two CSV texts, rows
    matched by position: the largest absolute move over the cells that are
    finite numbers on both sides, that move relative to the column's and to
    the table's scale (the largest finite magnitude of the column's cells
    and of any cell in either table; left out when that is 0), and
    ``text changed`` when any other cell differs.
    A changed row count or a column only one side has gets a line of its
    own."""
    tables = [list(csv.reader(io.StringIO(text))) for text in (base, head)]
    old, new = ({name: column for name, *column in zip(*table)} if table else {}
                for table in tables)

    def scale(cells):
        return max((abs(v) for v in map(_finite, cells) if v is not None), default=0.0)

    table_scale = scale(cell for table in tables for row in table[1:] for cell in row)
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
            column_scale = scale(old[name] + new[name])
            if moves and column_scale:
                parts.append(f"relative {max(moves) / column_scale:.1e} of the column and "
                             f"{max(moves) / table_scale:.1e} of the table")
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
    names = base.keys() | head.keys()
    differ = sorted(name for name in names if base.get(name) != head.get(name))
    for name in differ:
        print(f"differs: {name}")
        if name in base and name in head:
            moves = meta_moves if name.endswith(".json") else column_moves
            for line in moves(base[name].decode(), head[name].decode()):
                print(f"  {line}")
    for kind, suffix in (("CSVs", ".csv"), ("run_meta.json records", ".json")):
        count = sum(1 for name in names if name.endswith(suffix))
        if count or suffix == ".csv":
            print(f"{count} {kind}, {sum(1 for name in differ if name.endswith(suffix))} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
