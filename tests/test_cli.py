import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import (
    StandardLoopParams,
    bo_full_quantum_phase_parts,
    combined_parameter_loop,
    coupled_gho_one_form,
    elliptic_bound,
    full_quantum_phase,
    manifold,
    phases_from_one_form,
    quantum_geometry,
)
from holonomy.cli import _EXPERIMENTS, ExperimentConfig, execute, main
from holonomy.errors import HolonomyError
from holonomy.errors import ConfigInvalid


def read_csv(path: Path):
    with path.open() as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def small_hybrid_config(out_dir: str, count: int = 6) -> dict:
    return {
        "experiment": "hybrid-gho",
        "params": {"epsilon": 0.5, "n1": 2, "n2": 1, "j_action": 1.0},
        "sweep": {"parameter": "k", "start": 1e-3, "stop": 0.12, "count": count, "scale": "log"},
        "numerics": {"n_samples": 1024},
        "output": {"directory": out_dir, "emit_svg": True},
        "seed": 7,
    }


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"experiment": "nope"})

    def test_sweep_needs_two_points(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict(
                {
                    "experiment": "hybrid-gho",
                    "sweep": {"parameter": "k", "start": 0, "stop": 1, "count": 1},
                }
            )

    def test_cli_error_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "bogus"}))
        code = main(["run", str(bad)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigInvalid"


class TestRun:
    def test_hybrid_gho_rows_and_invariants(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_hybrid_config(str(tmp_path / "out")))
        assert execute(cfg) == 0
        rows = read_csv(tmp_path / "out" / "hybrid-gho.csv")
        assert len(rows) == 6
        for row in rows:
            assert row["error"] == ""
            g0 = float(row["gamma_0"])
            g00 = float(row["gamma_00"])
            gi = float(row["gamma_I"])
            assert abs(g0 - (g00 + gi)) <= 1e-12 * max(1.0, abs(g0))
            assert float(row["elliptic_margin"]) > 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["rows"] == 6
        assert (tmp_path / "out" / "hybrid-gho.svg").exists()

    def test_zero_coupling_row_uses_subsystem_branch(self, tmp_path):
        cfg_dict = small_hybrid_config(str(tmp_path / "out"), count=3)
        cfg_dict["sweep"] = {"parameter": "k", "start": 0.0, "stop": 0.1, "count": 3,
                             "scale": "linear"}
        execute(ExperimentConfig.from_dict(cfg_dict))
        rows = read_csv(tmp_path / "out" / "hybrid-gho.csv")
        assert rows[0]["branch"] == "per-subsystem"
        assert float(rows[0]["gamma_0"]) == float(rows[0]["gamma_00"])
        assert float(rows[0]["gamma_I"]) == 0.0
        assert rows[1]["branch"] == "common"

    def test_per_point_errors_recorded(self, tmp_path):
        cfg_dict = small_hybrid_config(str(tmp_path / "out"), count=3)
        cfg_dict["sweep"]["stop"] = 10.0  # beyond the elliptic bound
        cfg = ExperimentConfig.from_dict(cfg_dict)
        assert execute(cfg) == 0
        rows = read_csv(tmp_path / "out" / "hybrid-gho.csv")
        assert rows[-1]["error"] == "EllipticViolation"
        assert rows[0]["error"] == ""

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        execute(ExperimentConfig.from_dict(small_hybrid_config(str(out1))))
        execute(ExperimentConfig.from_dict(small_hybrid_config(str(out2))))
        assert (out1 / "hybrid-gho.csv").read_bytes() == (out2 / "hybrid-gho.csv").read_bytes()

    def test_spin_berry_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "spin-berry",
                "params": {"thetas": [math.pi / 3]},
                "numerics": {"n_samples": 1024},
                "output": {"directory": str(tmp_path)},
            }
        )
        assert execute(cfg) == 0
        rows = read_csv(tmp_path / "spin-berry.csv")
        assert abs(float(rows[0]["delta_theta_1"]) - math.pi / 2) < 1e-5
        assert float(rows[0]["abs_err_1"]) < 1e-5

    def test_gho_uncoupled_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "gho-uncoupled",
                "params": {"epsilons": [0.5]},
                "numerics": {"n_samples": 2048},
                "output": {"directory": str(tmp_path)},
            }
        )
        assert execute(cfg) == 0
        rows = read_csv(tmp_path / "gho-uncoupled.csv")
        assert float(rows[0]["abs_err"]) < 1e-9
        assert abs(float(rows[0]["correspondence_residual"])) < 1e-9


class TestFigSweeps:
    def test_fig_subcommands_reduced_grid(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["fig1", "--out", str(out), "--points", "5"]) == 0
        assert main(["fig2", "--out", str(out), "--points", "5"]) == 0
        rows1 = read_csv(out / "fig1.csv")
        rows2 = read_csv(out / "fig2.csv")
        assert len(rows1) == 15 and len(rows2) == 15  # 3 ratios x 5 points
        by_ratio: dict[str, list[dict]] = {}
        for row in rows1:
            by_ratio.setdefault(row["ratio"], []).append(row)
        for ratio_rows in by_ratio.values():
            gi = [float(r["gamma_I"]) for r in ratio_rows]
            assert all(b > a for a, b in zip(gi, gi[1:]))  # monotone growth in K
        for row in rows2:
            assert float(row["delta_phi_I"]) < 0.0
            identity = float(row["delta_phi_I"]) + float(row["gamma_I"]) * 1e-13
            assert abs(identity) <= 1e-12 * abs(float(row["delta_phi_I"]))


class TestOracleCLI:
    def test_oracle_classical_fast(self, tmp_path):
        code = main(
            [
                "oracle",
                "classical",
                "--slowness",
                "150",
                "--samples",
                "128",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "oracle-classical.csv")
        assert rows[0]["error"] == ""
        assert float(rows[0]["abs_error"]) < 0.1

    def test_oracle_quantum_fast(self, tmp_path):
        code = main(
            [
                "oracle",
                "quantum",
                "--slowness",
                "150",
                "--samples",
                "128",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "oracle-quantum.csv")
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == ""
            assert float(row["abs_error"]) < 0.1
            assert float(row["final_fidelity"]) > 0.99

    def test_oracle_quantum_row_diagonalises_its_loop_once(self, tmp_path, monkeypatch):
        from holonomy import cli, dynamics_oracle

        calls = []
        for module in (cli, dynamics_oracle):
            def counted(*args, _inner=module.eigenframe_along_loop, **kwargs):
                calls.append(1)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, "eigenframe_along_loop", counted)
        code = main(["oracle", "quantum", "--slowness", "150", "--samples", "128",
                     "--out", str(tmp_path)])
        assert code == 0
        assert len(read_csv(tmp_path / "oracle-quantum.csv")) == 2
        assert len(calls) == 2

    def test_sweep_parameter_name_checked(self, tmp_path):
        cfg_dict = small_hybrid_config(str(tmp_path))
        cfg_dict["sweep"]["parameter"] = "epsilon"
        with pytest.raises(ConfigInvalid):
            execute(ExperimentConfig.from_dict(cfg_dict))


# Each of these configurations must be refused before any row runs.
BAD_CONFIGS = {
    "sweep count": '{"experiment": "hybrid-gho", "sweep": {"parameter": "k", "start": 0.01,'
                   ' "stop": 0.02, "count": "abc"}}',
    "sweep start": '{"experiment": "hybrid-gho", "sweep": {"parameter": "k", "start": "a",'
                   ' "stop": 0.02, "count": 3}}',
    "sweep not an object": '{"experiment": "hybrid-gho", "sweep": 5}',
    "params list": '{"experiment": "hybrid-gho", "params": [1, 2]}',
    "output list": '{"experiment": "hybrid-gho", "output": ["out"]}',
    "n1 string": '{"experiment": "hybrid-gho", "params": {"n1": "two"}}',
    "n_samples string": '{"experiment": "spin-berry", "numerics": {"n_samples": "x"}}',
    "seed string": '{"experiment": "spin-berry", "seed": "x"}',
    "thetas string": '{"experiment": "spin-berry", "params": {"thetas": "ab"}}',
    "j_action overflows": '{"experiment": "hybrid-gho", "params": {"j_action": 1e400}}',
    "negative slowness": '{"experiment": "oracle-quantum", "numerics": {"slowness": -1}}',
    "zero omega": '{"experiment": "hybrid-spin-osc", "params": {"omega": 0}}',
    "negative field, spin": '{"experiment": "spin-berry", "params": {"b_magnitude": -1}}',
    "negative field, hybrid": '{"experiment": "hybrid-spin-osc", "params": {"b_magnitude": -1}}',
    "zero cycles": '{"experiment": "spin-berry", "params": {"cycles": 0}}',
    # keys that are no longer read: ignoring one would change that config's numbers
    "zero steps": '{"experiment": "oracle-classical", "numerics": {"steps_per_sample": 0}}',
    "steps_per_sample": '{"experiment": "oracle-quantum", "numerics": {"steps_per_sample": 64}}',
    "hbar": '{"experiment": "full-quantum", "params": {"hbar": 1.0}}',
    "negative m_level": '{"experiment": "full-quantum", "params": {"m_level": -1}}',
    "spin-osc too few samples": '{"experiment": "hybrid-spin-osc", "numerics": {"n_samples": 8}}',
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_invalid_config_exits_2_with_one_record(text, tmp_path, capsys):
    cfg = json.loads(text)
    cfg.setdefault("output", {"directory": str(tmp_path / "out")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, instead", [
    ("params", "hbar", "each action as J/hbar"),
    ("params", "j_over_hbar", "j_action"),
    ("params", "a1_over_a2", "a2"),
    ("numerics", "steps_per_sample", "slowness and n_samples"),
])
def test_removed_key_names_what_to_give_instead(section, key, instead):
    with pytest.raises(ConfigInvalid, match=f"^{section}.{key} is not a setting; give {instead}$"):
        ExperimentConfig.from_dict({"experiment": "oracle-classical", section: {key: 1}})


def test_misspelt_keys_show_in_resolved(tmp_path):
    # keys the experiment does not declare are not read: the run's resolved
    # settings show the defaults in their place
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "hybrid-gho", "params": {"epsilom": 0.5},
                                "numerics": {"n_sample": 64},
                                "output": {"directory": str(tmp_path / "out")}}))
    assert main(["run", str(path)]) == 0
    resolved = json.loads((tmp_path / "out" / "run_meta.json").read_text())["resolved"]
    assert resolved["params"]["epsilon"] == math.sqrt(3.0) / 2.0
    assert resolved["numerics"] == {"n_samples": 4096}
    assert "epsilom" not in resolved["params"]


# A small configuration per experiment in which every declared setting can
# move a cell: a coupling k > 0 where the action J enters, no sweep where k is
# a setting, and (n1, n2) = (3, 1), which stays a reduced pair with either raised.
_FRACTIONS = {"parameter": "k_fraction_of_max", "start": 0.1, "stop": 0.5, "count": 2}
LIVE_CONFIGS = {
    "spin-berry": {"params": {"thetas": [1.0]}},
    "gho-uncoupled": {"params": {"n1": 3, "n2": 1, "epsilons": [0.5]}},
    "hybrid-spin-osc": {"params": {"lambdas": [0.02]}},
    "hybrid-gho": {"params": {"n1": 3, "n2": 1, "epsilon": 0.5, "k": 0.05}},
    "full-quantum": {"params": {"n1": 3, "n2": 1, "epsilon": 0.5, "k": 0.05}},
    "oracle-quantum": {"params": {"thetas": [1.0]},
                       "numerics": {"n_samples": 32, "slowness": 20.0}},
    "oracle-classical": {"params": {"epsilons": [0.5]},
                         "numerics": {"n_samples": 32, "slowness": 20.0}},
    "fig1": {"params": {"ratios": [[3, 1]]}, "sweep": _FRACTIONS},
    "fig2": {"params": {"ratios": [[3, 1]]}, "sweep": _FRACTIONS},
}
# gho-uncoupled's phase and angle do not depend on the oscillators' scales, so
# its a and mu settings move its cells by rounding at most; its checks still
# read them (``OUT_OF_RANGE_CONFIGS["gho-uncoupled a1 mu2"]``).
SCALE_FREE = {"gho-uncoupled": {"a1", "a2", "mu1", "mu2"}}


def _perturbed(value):
    """An int plus 1, a float times 1.1 plus 0.01, a list in its first element."""
    if isinstance(value, list):
        return [_perturbed(value[0]), *value[1:]]
    return value + 1 if isinstance(value, int) else value * 1.1 + 0.01


@pytest.mark.parametrize("experiment", LIVE_CONFIGS)
def test_every_declared_setting_is_read(experiment, tmp_path):
    """Changing any one setting an experiment declares changes its CSV bytes:
    no declared setting is dead, or a second name for another."""
    raw = {"experiment": experiment, "numerics": {"n_samples": 64}, **LIVE_CONFIGS[experiment]}

    def csv_bytes(raw: dict, run: str) -> bytes:
        out = tmp_path / run
        assert execute(ExperimentConfig.from_dict(dict(raw, output={"directory": str(out)}))) == 0
        return (out / f"{experiment}.csv").read_bytes()

    base = csv_bytes(raw, "base")
    assert all(row["error"] == "" for row in read_csv(tmp_path / "base" / f"{experiment}.csv"))
    *_, params, numerics = _EXPERIMENTS[experiment]
    unread = []
    for section, declared in (("params", params), ("numerics", numerics)):
        given = raw.get(section, {})
        for key in sorted(declared.keys() - SCALE_FREE.get(experiment, set())):
            changed = dict(given, **{key: _perturbed(given.get(key, declared[key]))})
            if csv_bytes(dict(raw, **{section: changed}), key) == base:
                unread.append(key)
    assert unread == []


# Output values that are not a non-empty directory string and a JSON bool:
# ``str(None)`` once named the directory "None", and ``bool("false")`` is True.
BAD_OUTPUTS = {
    "directory null": {"directory": None},
    "directory empty": {"directory": ""},
    "directory number": {"directory": 5},
    "emit_svg string": {"emit_svg": "false"},
    "emit_svg number": {"emit_svg": 1},
}


@pytest.mark.parametrize("output", BAD_OUTPUTS.values(), ids=BAD_OUTPUTS)
def test_invalid_output_exits_2_and_writes_nothing(output, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "hybrid-gho",
                                "output": dict({"directory": "out"}, **output)}))
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv", [["fig1"], ["fig2"], ["oracle", "quantum"], ["oracle", "classical"]],
                         ids=" ".join)
def test_subcommand_empty_out_exits_2_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    # the subcommands' configurations go through the same checks as ``run``'s
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", ""]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "experiment", ["spin-berry", "gho-uncoupled", "hybrid-spin-osc", "oracle-quantum",
                   "oracle-classical"],
)
def test_sweep_rejected_where_nothing_is_swept(experiment, tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": experiment,
        "sweep": {"parameter": "k", "start": 0.01, "stop": 0.02, "count": 2},
        "output": {"directory": str(tmp_path)},
    })
    with pytest.raises(ConfigInvalid):
        execute(cfg)
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_fig_sweep_spans_fractions_of_k_max(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "fig1",
        "params": {"ratios": [[2, 1]], "a2": 0.25, "j_action": 2.0},
        "sweep": {"parameter": "k_fraction_of_max", "start": 0.2, "stop": 0.6, "count": 3,
                  "scale": "linear"},
        "numerics": {"n_samples": 256},
        "output": {"directory": str(tmp_path)},
    })
    assert execute(cfg) == 0
    p = StandardLoopParams(a1=1.0, a2=0.25, mu1=1.0, mu2=1.0, n1=2, n2=1, base_rate=1.0,
                           epsilon=math.sqrt(3.0) / 2.0, j_action=2.0)
    _, k_max = elliptic_bound(p)
    rows = read_csv(tmp_path / "fig1.csv")
    assert [r["ratio"] for r in rows] == ["2/1"] * 3
    assert [float(r["K"]) for r in rows] == list(np.linspace(0.2 * k_max, 0.6 * k_max, 3))


def readme_schemas() -> dict[str, list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("CSV schemas", 1)[1]
    schemas = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            schemas[cells[0].strip("`")] = [c.strip() for c in cells[1].split(",")]
    return schemas


# Cheap configurations; each sweep ends past K_max, so its last row fails.
SCHEMA_CASES = {
    "spin-berry": {"params": {"thetas": [1.0]}},
    "gho-uncoupled": {"params": {"epsilons": [0.5]}},
    "hybrid-spin-osc": {"params": {"lambdas": [0.0]}},
    "hybrid-gho": {"sweep": {"parameter": "k", "start": 0.01, "stop": 10.0, "count": 2}},
    "full-quantum": {},
    "oracle-quantum": {"params": {"thetas": [1.0]}, "numerics": {"slowness": 50, "n_samples": 32}},
    "oracle-classical": {"numerics": {"slowness": 50, "n_samples": 32}},
    "fig1": {"params": {"ratios": [[1, 1]]},
             "sweep": {"parameter": "k_fraction_of_max", "start": 0.5, "stop": 1.5, "count": 2}},
    "fig2": {"params": {"ratios": [[1, 1]]},
             "sweep": {"parameter": "k_fraction_of_max", "start": 0.5, "stop": 1.5, "count": 2}},
}


@pytest.mark.parametrize("experiment", SCHEMA_CASES)
def test_csv_header_matches_readme_and_failed_rows_keep_coordinates(experiment, tmp_path):
    cfg = {"experiment": experiment, "numerics": {"n_samples": 64},
           "output": {"directory": str(tmp_path)}, **SCHEMA_CASES[experiment]}
    assert execute(ExperimentConfig.from_dict(cfg)) == 0
    with (tmp_path / f"{experiment}.csv").open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    header = reader.fieldnames
    assert header == readme_schemas()[experiment] + ["error"]
    if "sweep" in cfg:
        last = rows[-1]
        assert last["error"] == "EllipticViolation" and float(last["K"]) > 0
        assert all(last[c] == "" for c in header[2:-1])  # fig rows never computed a branch
    else:
        assert all(r["error"] == "" for r in rows)


def test_overflowing_spin_family_is_a_typed_row_not_nan(tmp_path):
    # mu * |B| overflows: the Wilson phases used to come out NaN with no error
    cfg = ExperimentConfig.from_dict({
        "experiment": "spin-berry",
        "params": {"thetas": [1.0, 2.0], "mu": 1e300, "b_magnitude": 1e150},
        "numerics": {"n_samples": 64},
        "output": {"directory": str(tmp_path)},
    })
    assert execute(cfg) == 0
    text = (tmp_path / "spin-berry.csv").read_text()
    assert "nan" not in text.lower()
    assert [row["error"] for row in read_csv(tmp_path / "spin-berry.csv")] == ["NonFinite"] * 2


@pytest.mark.filterwarnings("error")
def test_eigenpair_residual_failure_is_a_typed_row(tmp_path, monkeypatch, capsys):
    # eigenvectors off by 1e-6 at one sample: the residual check fails there
    eigh = quantum_geometry._eigh

    def perturbed(h, vectors=True):
        energies, vecs = eigh(h)
        vecs[5, 0, 0] += 1e-6
        return energies, vecs

    monkeypatch.setattr(quantum_geometry, "_eigh", perturbed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "spin-berry", "params": {"thetas": [1.0]}, "numerics": {"n_samples": 64},
        "output": {"directory": str(tmp_path / "out")}}))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(tmp_path / "out" / "spin-berry.csv")
    assert [(row["theta"], row["error"]) for row in rows] == [(f"{1.0:.16e}", "ResidualTooLarge")]


# Each of these left floating-point range inside a row or while its points
# were built, and ended in an OverflowError traceback or a RuntimeWarning.
OUT_OF_RANGE_CONFIGS = {
    "full-quantum k": {"experiment": "full-quantum", "params": {"k": 1e200}},
    "spin-osc lambda": {"experiment": "hybrid-spin-osc", "params": {"lambdas": [1e200]}},
    "spin-osc epsilon": {"experiment": "hybrid-spin-osc", "params": {"epsilon": 1e300}},
    "hybrid-gho j_action": {"experiment": "hybrid-gho", "params": {"j_action": 1e308, "k": 0.1}},
    "fig1 a1": {"experiment": "fig1", "params": {"a1": 1e300}},
    # 2 pi / base_rate overflows to a period of +inf: the drive grid is NonFinite
    "hybrid-gho base_rate": {"experiment": "hybrid-gho", "params": {"base_rate": 1e-320}},
    "full-quantum base_rate": {"experiment": "full-quantum", "params": {"base_rate": 1e-320}},
    "gho-uncoupled base_rate": {"experiment": "gho-uncoupled", "params": {"base_rate": 1e-320}},
    "oracle-classical base_rate": {"experiment": "oracle-classical",
                                   "params": {"base_rate": 1e-320}},
    # omega2 = 2 base_rate overflows to inf, so the slow subsystem's own period
    # 2 pi / omega2 is 0.0: the drive grid is NonFinite, not a bad period
    "hybrid-gho base_rate 1e308": {"experiment": "hybrid-gho",
                                   "params": {"base_rate": 1e308, "n1": 1, "n2": 2}},
    "oracle-classical base_rate 1e308": {"experiment": "oracle-classical",
                                         "params": {"base_rate": 1e308, "n1": 1, "n2": 2}},
    # the root in d_ratio's denominator underflows to 0: a Python ZeroDivisionError
    "gho-uncoupled a1 mu2": {"experiment": "gho-uncoupled",
                             "params": {"a1": 7.9e-266, "mu2": 1.5e-144}},
    "hybrid-gho a1 a2": {"experiment": "hybrid-gho", "params": {"a1": 1e-200, "a2": 1e-200}},
    "fig1 a1 6.3e-244": {"experiment": "fig1", "params": {"a1": 6.3e-244}},
    # the characteristic rate scale * sqrt(slowness) of the step recommendation overflows
    "oracle-quantum mu": {"experiment": "oracle-quantum", "params": {"mu": 1e307}},
    "oracle-classical a2": {"experiment": "oracle-classical", "params": {"a2": 1e307}},
    # the start amplitude sqrt(2 Z J / omega) overflows, underflows to 0, or
    # stays finite while p = amp * omega / Z overflows
    "oracle-classical j0 1e300": {"experiment": "oracle-classical",
                                  "params": {"j0": 1e300, "mu2": 1e-10}},
    "oracle-classical j0 1e-300": {"experiment": "oracle-classical",
                                   "params": {"j0": 1e-300, "mu2": 1e30}},
    "oracle-classical j0 1.7e308": {"experiment": "oracle-classical",
                                    "params": {"j0": 1.7e308, "mu2": 5e307}},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", OUT_OF_RANGE_CONFIGS.values(), ids=OUT_OF_RANGE_CONFIGS)
def test_out_of_range_values_are_typed(cfg, tmp_path, capsys):
    cfg = dict(cfg, numerics={"n_samples": 64}, output={"directory": str(tmp_path / "out")})
    if cfg["experiment"] == "fig1":
        cfg["params"] = dict(cfg["params"], ratios=[[1, 1]])
        cfg["sweep"] = {"parameter": "k_fraction_of_max", "start": 0.1, "stop": 0.5, "count": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path)])
    lines = capsys.readouterr().err.strip().splitlines()
    if code == 2 and "base_rate" not in cfg["params"]:
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
        assert not (tmp_path / "out").exists()
    else:
        assert code == 0 and lines == []
        rows = read_csv(tmp_path / "out" / f"{cfg['experiment']}.csv")
        assert rows and all(row["error"] == "NonFinite" for row in rows)


def _kind(default):
    """A declared default's kind: its type, or a list of its elements' type."""
    return [type(default[0])] if isinstance(default, list) else type(default)


# each experiment's float and list-of-float params, as its table declares them
FUZZED_PARAMS = {
    name: {key: _kind(default) for key, default in params.items()
           if _kind(default) in (float, [float])}
    for name, (_, _, _, params, _) in _EXPERIMENTS.items()
}
# the same over every experiment, for keys an experiment does not declare
ANY_PARAM = {key: kind for fuzzed in FUZZED_PARAMS.values() for key, kind in fuzzed.items()}
_TEXT_COLUMNS = {"ratio", "branch", "error"}
# finite, of either sign, with magnitude from 1e-300 to 1e300
_MAGNITUDES = st.builds(lambda sign, u: sign * 10.0 ** (600.0 * u - 300.0),
                        st.sampled_from([-1.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def one_row_configs(draw):
    """A one-row config (two rows for fig, whose sweep needs two points) with
    one or two of its experiment's numeric params drawn from ``_MAGNITUDES``,
    and now and then one that only another experiment declares."""
    experiment = draw(st.sampled_from(sorted(FUZZED_PARAMS)))
    own = FUZZED_PARAMS[experiment]
    keys = draw(st.permutations(sorted(own)))[:draw(st.integers(1, 2))]
    if draw(st.integers(0, 3)) == 0:
        keys.append(draw(st.sampled_from(sorted(ANY_PARAM.keys() - own.keys()))))
    params = {}
    for key in keys:
        value = draw(_MAGNITUDES)
        params[key] = [value] if ANY_PARAM[key] == [float] else value
    numerics = {"n_samples": 32, "slowness": 20.0}
    cfg = {"experiment": experiment, "params": params,
           "numerics": {key: numerics[key] for key in _EXPERIMENTS[experiment][4]}}
    if experiment.startswith("fig"):
        params["ratios"] = [[1, 1]]
        cfg["sweep"] = {"parameter": "k_fraction_of_max", "start": 0.1, "stop": 0.5, "count": 2}
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)  # ~1.3 s, 2-core x86-64
@given(one_row_configs())
def test_fuzzed_configs_exit_typed_with_finite_cells(cfg):
    """Any finite value of any numeric param either fails the config check
    (exit 2, one JSON ``ConfigInvalid`` line) or gives rows whose every cell
    is finite or empty (exit 0, nothing on stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output={"directory": str(out)})))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["run", str(path)])
        lines = stderr.getvalue().splitlines()
        if code == 2:
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
            assert not out.exists()
            return
        assert code == 0 and lines == []
        for row in read_csv(out / f"{cfg['experiment']}.csv"):
            for col, cell in row.items():
                assert col in _TEXT_COLUMNS or cell == "" or math.isfinite(float(cell)), (col, row)


# Step recommendations past the oracles' step cap: each row fails typed, before
# its upsampled loop is allocated (at mu 1e6 that loop would take 42 GiB).
OVERLONG_SCHEDULE_CONFIGS = {
    "oracle-quantum mu 1e6": {"experiment": "oracle-quantum", "params": {"mu": 1e6}},
    "oracle-quantum mu 1e300": {"experiment": "oracle-quantum", "params": {"mu": 1e300}},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", OVERLONG_SCHEDULE_CONFIGS.values(), ids=OVERLONG_SCHEDULE_CONFIGS)
def test_overlong_schedules_are_typed_row_errors(cfg, tmp_path, capsys):
    cfg = dict(cfg, numerics={"n_samples": 16}, output={"directory": str(tmp_path / "out")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(tmp_path / "out" / f"{cfg['experiment']}.csv")
    assert rows and all(row["error"] == "TooManySteps" for row in rows)


# Sweeps whose points leave floating-point range, or that no point reads.
SWEEP_CONFIGS = {
    "linear k overflows": {"experiment": "hybrid-gho", "sweep": {
        "parameter": "k", "start": -1.7e308, "stop": 1.7e308, "count": 3}},
    "fig with no ratios": {"experiment": "fig1", "params": {"ratios": []}, "sweep": {
        "parameter": "k_fraction_of_max", "start": 0.1, "stop": 0.5, "count": 1}},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", SWEEP_CONFIGS.values(), ids=SWEEP_CONFIGS)
def test_sweep_checked_inside_the_floating_point_boundary(cfg, tmp_path, capsys):
    cfg = dict(cfg, output={"directory": str(tmp_path / "out")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "inside file"])
def test_unwritable_output_exits_2_with_one_record(under, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    code = main(["oracle", "quantum", "--samples", "64", "--slowness", "100", "--out", str(out)])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigInvalid"
    assert record["detail"].startswith("cannot write output: ")
    assert blocker.read_text() == ""


def test_oracle_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "quantum", "--seed", "1"])
    assert exc.value.code == 2


def run_rows(cfg: dict, out_dir: Path) -> list[dict[str, str]]:
    assert execute(ExperimentConfig.from_dict(dict(cfg, output={"directory": str(out_dir)}))) == 0
    return read_csv(out_dir / f"{cfg['experiment']}.csv")


# Swept configs at 64 samples.  The full-quantum K range crosses K_max
# (EllipticViolation) and then mode collapse (ModeCollapse); the second
# hybrid-gho sweep starts at k = 0, on the per-subsystem branch.
SWEPT_CONFIGS = {
    "full-quantum": {"experiment": "full-quantum", "params": {
        "epsilon": 0.5, "n1": 2, "n2": 1, "a1": 2.0, "m_level": 1, "n_level": 2},
        "sweep": {"parameter": "k", "start": 0.05, "stop": 2.0, "count": 9, "scale": "log"}},
    "hybrid-gho k > 0": {"experiment": "hybrid-gho", "params": {
        "epsilon": 0.5, "n1": 2, "n2": 1, "j_action": 3.0},
        "sweep": {"parameter": "k", "start": 1e-3, "stop": 0.7, "count": 5, "scale": "log"}},
    "hybrid-gho from k = 0": {"experiment": "hybrid-gho", "params": {"epsilon": 0.5, "n1": 1, "n2": 2},
                              "sweep": {"parameter": "k", "start": 0.0, "stop": 0.8, "count": 5}},
    "fig1": {"experiment": "fig1", "params": {"ratios": [[2, 1], [1, 1]]}, "sweep": {
        "parameter": "k_fraction_of_max", "start": 0.01, "stop": 1.2, "count": 4, "scale": "log"}},
}


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("cfg", SWEPT_CONFIGS.values(), ids=SWEPT_CONFIGS)
def test_swept_rows_equal_one_point_runs(cfg, cold, tmp_path):
    """Each row of a sweep, error column included, is bit for bit the row of
    a one-point run of its K made afterwards in the same process, with the
    drive-grid cache as the previous run left it (warm) or emptied (cold):
    work built once per sweep leaks nothing between rows or sweeps."""
    cfg = dict(cfg, numerics={"n_samples": 64})
    swept = run_rows(cfg, tmp_path / "swept")
    errors = {row["error"] for row in swept}
    assert "" in errors and len(errors) > 1
    if cfg["experiment"] == "full-quantum":
        assert {"EllipticViolation", "ModeCollapse"} <= errors
    experiment, params = cfg["experiment"], cfg["params"]
    if experiment == "fig1":
        # a fig1 row is the hybrid-gho row of fig1's default parameters
        experiment, params = "hybrid-gho", {"a1": 1.0, "a2": 1e-8, "j_action": 1e13}
    for i, row in enumerate(swept):
        one = dict(params, k=float(row["K"]))
        if "ratio" in row:
            one["n1"], one["n2"] = map(int, row["ratio"].split("/"))
        if cold:
            manifold._drive_grid.cache_clear()
        [single] = run_rows(dict(cfg, experiment=experiment, params=one, sweep=None),
                            tmp_path / f"single-{i}")
        assert {col: single[col] for col in row} == row


def test_full_quantum_row_is_its_three_routes(tmp_path):
    """Each full-quantum row's cells are, bit for bit, the three routes called
    directly and independently in the row's order, on the loop of the settings
    ``run_meta.json`` says the run used; a failed row names the first route's
    error.  Across K_max and then mode collapse the error column runs
    "" -> EllipticViolation -> ModeCollapse, each kind in one contiguous block."""
    cfg = dict(SWEPT_CONFIGS["full-quantum"], numerics={"n_samples": 64})
    params = cfg["params"]
    m, n = params["m_level"], params["n_level"]
    rows = run_rows(cfg, tmp_path)
    order = ["", "EllipticViolation", "ModeCollapse"]
    kinds = [row["error"] for row in rows]
    assert sorted(set(kinds)) == sorted(order)
    assert kinds == sorted(kinds, key=order.index)
    resolved = json.loads((tmp_path / "run_meta.json").read_text())["resolved"]["params"]
    assert "j_action" not in resolved  # the hybrid route runs at the oscillator level's m + 1/2
    fields = {f.name for f in dataclasses.fields(StandardLoopParams)}
    base = StandardLoopParams(**{key: v for key, v in resolved.items() if key in fields},
                              j_action=m + 0.5)
    assert {key: getattr(base, key) for key in params if key in fields} == {
        key: v for key, v in params.items() if key in fields}
    loop = combined_parameter_loop(base, 64)
    routes = (full_quantum_phase, bo_full_quantum_phase_parts,
              lambda loop, ks, m, n: phases_from_one_form(coupled_gho_one_form(base, loop, ks)))
    for row in rows:
        k = float(row["K"])
        cells, outs = {}, []
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for route in routes:  # each a block of one; a row stops at its first error
                [out] = route(loop, [k], m, n)
                if isinstance(out, HolonomyError):
                    break
                outs.append(out)
        error = type(out).__name__ if isinstance(out, HolonomyError) else ""
        if not error:
            gamma_mn, (part1, part2), phases = outs
            hybrid = phases.gammas[n]
            cells = dict(gamma_mn=gamma_mn.value, bo_gamma_mn=part1.value + part2.value,
                         hybrid_gamma_n=hybrid, abs_err_bo_vs_hybrid=abs(part1.value - hybrid))
        assert row["error"] == error
        for col in ("gamma_mn", "bo_gamma_mn", "hybrid_gamma_n", "abs_err_bo_vs_hybrid"):
            assert (float(row[col]) if row[col] else None) == cells.get(col), (k, col)
