"""Every cell of one small configuration per experiment, and of the CLI
defaults of ``fig1``, ``fig2`` and both oracles, against the committed
snapshot in ``tests/data`` (regenerated by ``tests/data/regenerate.py``).

Values are compared, not bytes, because numpy's FFT and libm can move the
last digits across platforms and numpy versions.  A direct value must agree
to relative 1e-12.  A difference column is the difference of two values of
order one, so it gets an absolute floor instead.  Coordinates, text columns,
empty cells and the ``error`` column must match exactly.
"""

import csv
import json
from pathlib import Path

import pytest

from holonomy import manifold
from holonomy.cli import _EXPERIMENTS, EXPERIMENTS, ExperimentConfig, execute

DATA = Path(__file__).parent / "data"
CONFIGS = sorted(DATA.glob("*.json"))

RTOL = 1e-12
DIFFERENCE_ATOL = 1e-12
DIFFERENCE_COLUMNS = {
    "quadrature_error", "abs_err_bo_vs_hybrid", "abs_err", "abs_err_1", "abs_err_2",
    "abs_error", "correspondence_residual", "norm_drift", "j_drift",
}
TEXT_COLUMNS = {"ratio", "branch", "error"}
# the snapshots with a typed-error row: past K_max, at the pole, past weak coupling
WITH_ERROR_ROWS = {"fig1", "fig2", "full-quantum", "hybrid-gho", "spin-berry", "hybrid-spin-osc"}
# the experiments whose CLI defaults have a snapshot, ``<experiment>-defaults.json``
WITH_DEFAULTS = ("fig1", "fig2", "oracle-quantum", "oracle-classical")


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(text.splitlines())
    return header, rows


def test_snapshot_covers_the_coupling_sweeps():
    defaults = [f"{name}-defaults" for name in WITH_DEFAULTS]
    assert sorted(c.stem for c in CONFIGS) == sorted([*EXPERIMENTS, *defaults])
    for name in WITH_DEFAULTS:  # nothing set, so every value is the CLI's default
        assert json.loads((DATA / f"{name}-defaults.json").read_text()) == {"experiment": name}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_experiment_matches_snapshot(config, tmp_path):
    manifold._drive_grid.cache_clear()  # as in a fresh process
    raw = dict(json.loads(config.read_text()), output={"directory": str(tmp_path)})
    assert execute(ExperimentConfig.from_dict(raw)) == 0
    header, rows = read_table((tmp_path / f"{raw['experiment']}.csv").read_text())
    want_header, want_rows = read_table(config.with_suffix(".csv").read_text())
    assert header == want_header
    assert len(rows) == len(want_rows)
    if config.stem in WITH_ERROR_ROWS:
        assert {row[-1] for row in want_rows} > {""}
    for i, (row, want_row) in enumerate(zip(rows, want_rows)):
        for col, got, want in zip(header, row, want_row):
            where = f"{config.stem} row {i} {col}: {got} != {want}"
            if col in TEXT_COLUMNS or "" in (got, want):
                assert got == want, where
            elif col in DIFFERENCE_COLUMNS:
                assert abs(float(got) - float(want)) <= DIFFERENCE_ATOL, where
            else:
                assert abs(float(got) - float(want)) <= RTOL * abs(float(want)), where


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_resolved_settings_reproduce_the_run(config, tmp_path):
    """Given back as ``params`` and ``numerics``, the settings ``run_meta.json``
    says a run used give the same CSV bytes and the same settings, and they
    name every declared setting."""
    raw = json.loads(config.read_text())
    csvs, resolved = [], []
    for run in ("given", "resolved"):
        manifold._drive_grid.cache_clear()
        out = tmp_path / run
        assert execute(ExperimentConfig.from_dict(dict(raw, output={"directory": str(out)}))) == 0
        csvs.append((out / f"{raw['experiment']}.csv").read_bytes())
        resolved.append(json.loads((out / "run_meta.json").read_text())["resolved"])
        raw = dict(raw, **resolved[-1])
    assert csvs[0] == csvs[1] and resolved[0] == resolved[1]
    *_, params, numerics = _EXPERIMENTS[raw["experiment"]]
    assert {section: set(settings) for section, settings in resolved[0].items()} == {
        "params": set(params), "numerics": set(numerics)}
