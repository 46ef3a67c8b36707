"""Check that two source trees write byte-identical CSVs.

    python tools/same_csvs.py BASE HEAD

BASE and HEAD are checkouts of this repository, say the commit a change
starts from and the change.  Each tree's ``src/`` runs in its own Python
process on the same tables: every table ``bench/workloads.build`` makes for
the ``oracle``, ``geometry`` and ``hybrid`` workloads at seeds 1 to 3, and
each experiment's CLI defaults.  The tables come from this checkout's
``bench/workloads.py``, so both trees see the same inputs.

The script prints every CSV whose SHA-256 differs between the trees, or that
only one of them wrote, and exits 1 if there is any; it exits 0 when every
CSV is byte-identical.  A change that moves values on purpose quotes this
list.  Both trees together take about 6 s on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    return found


def digests(tree: Path, out: Path) -> dict[str, str]:
    """Run every configuration on ``tree``'s source; SHA-256 of each CSV written,
    by its path under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    subprocess.run([sys.executable, "-c", _RUN], input=json.dumps(configs(out)), text=True,
                   env=env, cwd=out.parent, check=True)
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*.csv"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout the change starts from")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        base = digests(args.base, Path(tmp) / "base")
        head = digests(args.head, Path(tmp) / "head")
    differ = sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(base.keys() | head.keys())} CSVs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
