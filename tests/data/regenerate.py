"""Regenerate the committed experiment snapshots in this directory.

Each ``<name>.json`` here is a CLI configuration (``<experiment>.json`` one
small configuration per experiment, ``<experiment>-defaults.json`` an
experiment's CLI defaults); this script runs it and writes ``<name>.csv``,
every cell of the table ``holonomy.cli`` produces for it, failed rows and
their ``error`` column included.
``tests/test_snapshot.py`` compares a fresh run against these files.  Run it
from the repository root:

    PYTHONPATH=src python tests/data/regenerate.py

A change that moves a value regenerates the snapshots and lists the moved
cells and their size in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

from holonomy.cli import ExperimentConfig, execute

DATA = Path(__file__).resolve().parent


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        for config in sorted(DATA.glob("*.json")):
            raw = dict(json.loads(config.read_text()), output={"directory": out})
            with contextlib.redirect_stdout(None):
                execute(ExperimentConfig.from_dict(raw))
            shutil.copyfile(Path(out) / f"{raw['experiment']}.csv", config.with_suffix(".csv"))
            print(f"wrote {config.with_suffix('.csv')}")


if __name__ == "__main__":
    main()
