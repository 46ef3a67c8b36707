"""Configuration ingestion, named experiments, and CSV/SVG emission.

Every experiment writes ``<experiment>.csv`` (17 significant digits, '.'
decimal separator), optionally ``<experiment>.svg`` (a plain polyline chart,
no external renderer), and ``run_meta.json`` with the echoed configuration,
the settings the run used (``resolved``), the rows that finished at each
sample count (``samples_used``), package version, and timings.
CSV bytes are deterministic for a fixed configuration; the ``seed`` is
recorded for provenance only, as no experiment draws random numbers.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .errors import ConfigInvalid, HolonomyError, NonFinite
from .manifold import (
    DEFAULT_SAMPLES,
    QuadratureResult,
    StandardLoopParams,
    _gho_loop,
    _gho_points,
    circle_loop,
    combined_parameter_loop,
    subsystem_parameter_loop,
)
from .models import SpinOscillatorHybrid, cone_loop, spin_hamiltonian_family, spin_oscillator_loop
from .hybrid_pipeline import (
    BRANCH_COMMON,
    bo_full_quantum_phase_parts,
    coupled_gho_one_form,
    coupled_samples,
    elliptic_bound,
    full_quantum_phase,
    phases_from_one_form,
    require_coupled_samples,
    spin_oscillator_frequency,
    spin_oscillator_one_form,
    standard_loop_report,
)
from .quantum_geometry import berry_and_hannay, eigenframe_along_loop, spin_hannay_closed_form
from .dynamics_oracle import (
    action_angle_to_qp,
    propagate_classical,
    propagate_quantum,
    recommended_steps_per_sample,
)

# fig's default sweep; its K grid spans these fractions of each ratio's K_max
_FIG_SWEEP = {"parameter": "k_fraction_of_max", "start": 1e-4, "stop": 0.95, "count": 50,
              "scale": "log"}

# A sweep point: the row's coordinates and the callable computing, at a given
# sample count, its other columns and the quadratures they come from.
Row = tuple[dict[str, Any], tuple[QuadratureResult, ...]]
Point = tuple[dict[str, Any], Callable[[int], Row]]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _number(key: str, value: Any, default: Any, positive: bool = False) -> Any:
    """``value`` as a finite number of ``default``'s kind (``int`` or ``float``),
    also positive when ``positive`` is set; for a list ``default``, a list of
    values of its first element's kind.  Anything else raises ``ConfigInvalid``."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigInvalid(f"{key} must be a list, got {value!r}")
        return [_number(key, v, default[0], positive) for v in value]
    kind = type(default)
    finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        abs(value) <= sys.float_info.max  # false for inf, nan and ints past float range
    )
    if not (finite and (kind is float or float(value).is_integer())
            and (value > 0 or not positive)):
        sign = "positive " if positive else ""
        raise ConfigInvalid(f"{key} must be a finite {sign}{kind.__name__}, got {value!r}")
    return kind(value)


# The settings that must be positive, in every experiment that declares them.
_POSITIVE = {"mu", "b_magnitude", "cycles", "a", "m", "omega", "j0", "a1_over_a2", "n_samples",
             "slowness"}


def _resolve(section: dict[str, Any], declared: dict[str, Any]) -> dict[str, Any]:
    """Each declared setting's value in ``section``, else its default, checked."""
    return {key: _number(key, section.get(key, default), default, key in _POSITIVE)
            for key, default in declared.items()}


def _sweep_block(sweep: dict[str, Any]) -> tuple[Callable[..., np.ndarray], float, float, int]:
    """A sweep block's spacing, start, stop and count, checked.  Only
    comparisons run here; the arithmetic that lays out the points, which can
    leave floating-point range, runs in ``_grid`` under ``_sweep``'s errstate."""
    if sweep.get("scale", "linear") not in ("linear", "log"):
        raise ConfigInvalid("sweep scale must be 'linear' or 'log'")
    log = sweep.get("scale") == "log"
    start = _number("start", sweep.get("start"), 0.0, positive=log)
    stop = _number("stop", sweep.get("stop"), 0.0, positive=log)
    count = _number("count", sweep.get("count"), 0)
    if count < 2:
        raise ConfigInvalid("sweep count must be at least 2")
    return np.geomspace if log else np.linspace, start, stop, count


def _grid(sweep: dict[str, Any], scale: float = 1.0) -> list[float]:
    """The points of a sweep block, each times ``scale``."""
    spacing, start, stop, count = _sweep_block(sweep)
    return [float(v) for v in spacing(start * scale, stop * scale, count)]


@dataclass
class ExperimentConfig:
    """A validated experiment description."""

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    sweep: dict[str, Any] | None = None
    numerics: dict[str, Any] = field(default_factory=dict)
    output_dir: str = "out"
    emit_svg: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.sweep is not None:
            _sweep_block(self.sweep)  # a malformed sweep fails here, even one no point reads

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("configuration must be a JSON object")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigInvalid(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
        sections = {key: raw.get(key, {}) for key in ("params", "numerics", "output")}
        sweep = raw.get("sweep")
        for key, section in (*sections.items(), ("sweep", {} if sweep is None else sweep)):
            if not isinstance(section, dict):
                raise ConfigInvalid(f"{key} must be an object, got {section!r}")
        for key, name, instead in (("params", "hbar", "each action as J/hbar"),
                                   ("numerics", "steps_per_sample", "slowness and n_samples")):
            if name in sections[key]:
                raise ConfigInvalid(f"{key}.{name} is not a setting; give {instead}")
        directory = sections["output"].get("directory", "out")
        if not (isinstance(directory, str) and directory):
            raise ConfigInvalid(f"output directory must be a non-empty string, got {directory!r}")
        emit_svg = sections["output"].get("emit_svg", False)
        if not isinstance(emit_svg, bool):
            raise ConfigInvalid(f"emit_svg must be true or false, got {emit_svg!r}")
        return cls(
            experiment=exp,
            params=sections["params"],
            sweep=sweep,
            numerics=sections["numerics"],
            output_dir=directory,
            emit_svg=emit_svg,
            seed=_number("seed", raw.get("seed", 0), 0),
        )

    @classmethod
    def from_path(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read configuration: {exc}") from exc
        return cls.from_dict(raw)

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "sweep": self.sweep,
            "numerics": self.numerics,
            "output": {"directory": self.output_dir, "emit_svg": self.emit_svg},
            "seed": self.seed,
        }


# The settings of ``StandardLoopParams`` and their defaults.
_LOOP = {"a1": 1.0, "a2": 1.0, "mu1": 1.0, "mu2": 1.0, "n1": 1, "n2": 1, "base_rate": 1.0,
         "epsilon": math.sqrt(3.0) / 2.0, "k": 0.0, "j_action": 1.0, "n_level": 0}


def _loop_settings(*without: str) -> dict[str, Any]:
    return {key: default for key, default in _LOOP.items() if key not in without}


def _loop_params(s: dict[str, Any], **overrides: Any) -> StandardLoopParams:
    """The standard loop of the resolved settings ``s``, with ``overrides``."""
    return StandardLoopParams(**({key: s[key] for key in _LOOP if key in s} | overrides))


def _hybrid_gho_row(p: StandardLoopParams, cap: int, n_samples: int) -> Row:
    report = standard_loop_report(p, n_samples, check_samples=cap)
    return {
        "branch": report.branch,
        "gamma_0": report.gamma,
        "gamma_00": report.gamma_0_part,
        "gamma_I": report.gamma_I_part,
        "delta_phi": report.delta_phi,
        "delta_phi_0": report.delta_phi_0_part,
        "delta_phi_I": report.delta_phi_I_part,
        "gamma_I_approx": report.gamma_I_approx,
        "delta_phi_I_approx": report.delta_phi_I_approx,
        "elliptic_margin": report.elliptic_margin,
        "quadrature_error": report.quadrature_error,
    }, report.quadratures


def _coupling_points(base: StandardLoopParams, ks: list[float], cap: int) -> list[Point]:
    """hybrid-gho rows of the loop ``base`` at each coupling in ``ks``."""
    return [({"ratio": f"{base.n1}/{base.n2}", "K": k},
             partial(_hybrid_gho_row, replace(base, k=k), cap)) for k in ks]


def _hybrid_gho_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    base = _loop_params(s)  # checks the settings, k too when a sweep replaces it
    ks = [base.k] if cfg.sweep is None else _grid(cfg.sweep)
    return _coupling_points(base, ks, s["n_samples"])


def _fig_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    """hybrid-gho rows over (ratio, K), K swept as fractions of each ratio's K_max."""
    # a2 and j_action, unless given, follow from a1 / a1_over_a2 and j_over_hbar
    s.update(_resolve(cfg.params, {"a2": s["a1"] / s["a1_over_a2"], "j_action": s["j_over_hbar"]}))
    if any(len(ratio) != 2 for ratio in s["ratios"]):
        raise ConfigInvalid(f"ratios must be a list of [n1, n2] pairs, got {s['ratios']!r}")
    points = []
    for n1, n2 in s["ratios"]:
        base = _loop_params(s, n1=n1, n2=n2)
        _, k_max = elliptic_bound(base)
        ks = _grid(_FIG_SWEEP if cfg.sweep is None else cfg.sweep, k_max)
        points += _coupling_points(base, ks, s["n_samples"])
    return points


def _spin_berry_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    family = spin_hamiltonian_family(s["mu"])

    def row(theta: float, n_samples: int) -> Row:
        loop = cone_loop(theta, b=s["b_magnitude"], n_samples=n_samples, cycles=s["cycles"])
        frame = eigenframe_along_loop(family, loop)
        g1, d1 = berry_and_hannay(frame, 0)
        g2, d2 = berry_and_hannay(frame, 1)
        c1 = spin_hannay_closed_form(loop, 1)
        c2 = spin_hannay_closed_form(loop, 2)
        return dict(
            gamma_1=g1, gamma_2=g2, delta_theta_1=d1, delta_theta_2=d2,
            closed_form_1=c1, closed_form_2=c2,
            abs_err_1=abs(d1 - c1), abs_err_2=abs(d2 - c2),
        ), ()

    return [({"theta": theta}, partial(row, theta)) for theta in s["thetas"]]


def _gho_uncoupled_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    cap = s["n_samples"]

    def row(p: StandardLoopParams, n_samples: int) -> Row:
        report = standard_loop_report(p, n_samples, branch=BRANCH_COMMON, check_samples=cap)
        require_coupled_samples(coupled_samples(p, cap), p.k, modes=False)
        loop = combined_parameter_loop(p, n_samples)
        phases = phases_from_one_form(coupled_gho_one_form(p, loop))
        closed = report.gamma_0_part
        quad = phases.gammas[p.n_level]
        corr = closed + (p.n_level + 0.5) * (p.omega1 / p.omega2) * report.delta_phi_0_part
        return dict(
            gamma_00_closed=closed,
            gamma_00_quadrature=quad,
            abs_err=abs(closed - quad),
            delta_phi_0=report.delta_phi_0_part,
            correspondence_residual=corr,
        ), (*report.quadratures, *phases.quadratures)

    return [({"epsilon": eps}, partial(row, _loop_params(s, epsilon=eps))) for eps in s["epsilons"]]


def _hybrid_spin_osc_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    cap, omega = s["n_samples"], s["omega"]
    period = 2.0 * math.pi / omega
    triple = [(s["a"], s["m"], omega)]

    @cache
    def loop(n_samples: int):
        return spin_oscillator_loop(circle_loop(period=period, n_samples=n_samples),
                                    _gho_loop(triple, s["epsilon"], period, n_samples, 1))

    # each row's model is checked here, on the loop of the ladder's first rung
    hybrid = partial(SpinOscillatorHybrid, mu=s["mu"], b_field=s["b_magnitude"],
                     loop=loop(_rungs(cap)[0]), i_plus=s["i_plus"], i_minus=s["i_minus"],
                     j_action=s["j_action"])
    checked = _gho_points(triple, s["epsilon"], period, cap)

    def row(model: SpinOscillatorHybrid, n_samples: int) -> Row:
        spin_oscillator_frequency(model, checked)  # the sampled checks, at the cap
        model = replace(model, loop=loop(n_samples))
        phases = phases_from_one_form(spin_oscillator_one_form(model))
        return dict(
            gamma_plus=phases.gammas["+"],
            gamma_minus=phases.gammas["-"],
            delta_phi=phases.delta_phi,
            quadrature_error=phases.quadrature_error,
        ), phases.quadratures

    return [({"lambda": lam}, partial(row, hybrid(lam=lam))) for lam in s["lambdas"]]


def _full_quantum_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    m_level = s["m_level"]
    if m_level < 0:
        raise ConfigInvalid(f"m_level must be nonnegative, got {m_level}")
    base, cap = _loop_params(s), s["n_samples"]
    # Neither the loops nor the samples the checks read depend on k or
    # j_action, so the sweep builds each once, in the first row that reads
    # it; ``cache`` stores no exception, so a failing build stays each row's
    # own typed error.
    combined_loop = cache(partial(combined_parameter_loop, base))
    checked = cache(partial(coupled_samples, base, cap))
    # the hybrid route's classical action is the oscillator level's, m + 1/2
    s["j_action"] = m_level + 0.5

    def row(p: StandardLoopParams, n_samples: int) -> Row:
        # This order decides which typed error a row past mode collapse reports.
        require_coupled_samples(checked(), p.k)
        loop = combined_loop(n_samples)
        gamma_mn = full_quantum_phase(loop, p.k, m_level, p.n_level)
        part1, part2 = bo_full_quantum_phase_parts(loop, p.k, m_level, p.n_level)
        phases = phases_from_one_form(coupled_gho_one_form(p, loop))
        hybrid_gamma = phases.gammas[p.n_level]
        return dict(
            gamma_mn=gamma_mn.value,
            bo_gamma_mn=part1.value + part2.value,
            hybrid_gamma_n=hybrid_gamma,
            abs_err_bo_vs_hybrid=abs(part1.value - hybrid_gamma),
        ), (gamma_mn, part1, part2, *phases.quadratures)

    ks = [base.k] if cfg.sweep is None else _grid(cfg.sweep)
    return [({"K": k}, partial(row, _loop_params(s, k=k))) for k in ks]


def _oracle_quantum_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    mu, slowness = s["mu"], s["slowness"]
    family = spin_hamiltonian_family(mu)

    def row(theta: float, n_samples: int) -> Row:
        loop = cone_loop(theta, n_samples=n_samples)
        steps = recommended_steps_per_sample(loop, slowness, rate_scale=mu)
        prop = propagate_quantum(family, loop, 0, slowness, steps)
        gamma_w, _ = berry_and_hannay(prop.frame, 0)
        return dict(
            gamma_numeric=prop.geometric_phase,
            gamma_wilson=gamma_w,
            abs_error=abs(prop.geometric_phase - gamma_w),
            norm_drift=prop.norm_drift,
            final_fidelity=prop.final_fidelity,
        ), ()

    return [
        ({"theta": theta, "level": 0, "slowness": slowness}, partial(row, theta))
        for theta in s["thetas"]
    ]


def _oracle_classical_points(cfg: ExperimentConfig, s: dict[str, Any]) -> list[Point]:
    slowness = s["slowness"]

    def row(p: StandardLoopParams, n_samples: int) -> Row:
        loop = subsystem_parameter_loop(p, 2, n_samples)
        report = standard_loop_report(p, max(DEFAULT_SAMPLES, n_samples))
        steps = recommended_steps_per_sample(loop, slowness, rate_scale=p.a2)
        qp0 = action_angle_to_qp(loop.points[0], s["j0"], s["phi0"])
        traj = propagate_classical(loop, qp0, slowness, steps)
        dphi_quad = report.delta_phi_0_part
        return dict(
            delta_phi_numeric=traj.hannay_angle,
            delta_phi_quadrature=dphi_quad,
            abs_error=abs(traj.hannay_angle - dphi_quad),
            j_drift=traj.action_drift,
        ), ()

    return [
        ({"epsilon": eps, "slowness": slowness}, partial(row, _loop_params(s, epsilon=eps)))
        for eps in s["epsilons"]
    ]


_SAMPLES = {"n_samples": DEFAULT_SAMPLES}
_ORACLE_NUMERICS = {"n_samples": 256, "slowness": 1000.0}
# fig's a2 and j_action defaults are a1 / a1_over_a2 and j_over_hbar (``_fig_points``)
_FIG_PARAMS = {**_loop_settings("n1", "n2", "k"), "a2": 1e-8, "j_action": 1e13,
               "a1_over_a2": 1e8, "j_over_hbar": 1e13, "ratios": [[1, 1], [2, 1], [1, 2]]}

# experiment -> (sweep points from the resolved settings, swept parameter or None,
# CSV columns before ``error``, params, numerics).  ``params`` and ``numerics`` give
# each setting's default, whose kind (int, float or a list of them) a value must
# have; a setting named in ``_POSITIVE`` must also be positive.
_EXPERIMENTS: dict[str, tuple[
    Callable[[ExperimentConfig, dict[str, Any]], list[Point]], str | None, tuple[str, ...],
    dict[str, Any], dict[str, Any]]] = {
    "spin-berry": (_spin_berry_points, None, (
        "theta", "gamma_1", "gamma_2", "delta_theta_1", "delta_theta_2",
        "closed_form_1", "closed_form_2", "abs_err_1", "abs_err_2"),
        {"mu": 1.0, "b_magnitude": 1.0, "cycles": 1,
         "thetas": [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3]}, _SAMPLES),
    "gho-uncoupled": (_gho_uncoupled_points, None, (
        "epsilon", "gamma_00_closed", "gamma_00_quadrature", "abs_err",
        "delta_phi_0", "correspondence_residual"),
        {**_loop_settings("epsilon", "k"), "epsilons": [0.1, 0.5, math.sqrt(3.0) / 2.0]}, _SAMPLES),
    "hybrid-spin-osc": (_hybrid_spin_osc_points, None, (
        "lambda", "gamma_plus", "gamma_minus", "delta_phi", "quadrature_error"),
        {"a": 1.0, "m": 1.0, "epsilon": 0.5, "omega": 1.0, "mu": 1.0, "b_magnitude": 1.0,
         "i_plus": 1.0, "i_minus": 0.0, "j_action": 1.0, "lambdas": [0.0, 0.02, 0.05]}, _SAMPLES),
    "hybrid-gho": (_hybrid_gho_points, "k", (
        "ratio", "K", "branch", "gamma_0", "gamma_00", "gamma_I", "delta_phi",
        "delta_phi_0", "delta_phi_I", "gamma_I_approx", "delta_phi_I_approx",
        "elliptic_margin", "quadrature_error"), _LOOP, _SAMPLES),
    "full-quantum": (_full_quantum_points, "k", (
        "K", "gamma_mn", "bo_gamma_mn", "hybrid_gamma_n", "abs_err_bo_vs_hybrid"),
        {**_LOOP, "m_level": 0}, _SAMPLES),
    "oracle-quantum": (_oracle_quantum_points, None, (
        "theta", "level", "slowness", "gamma_numeric", "gamma_wilson",
        "abs_error", "norm_drift", "final_fidelity"),
        {"mu": 1.0, "thetas": [math.pi / 2, math.pi / 3]}, _ORACLE_NUMERICS),
    "oracle-classical": (_oracle_classical_points, None, (
        "epsilon", "slowness", "delta_phi_numeric", "delta_phi_quadrature",
        "abs_error", "j_drift"),
        {**_loop_settings("epsilon", "k"), "j0": 1.0, "phi0": 0.3,
         "epsilons": [math.sqrt(3.0) / 2.0]}, _ORACLE_NUMERICS),
    "fig1": (_fig_points, "k_fraction_of_max", (
        "ratio", "K", "branch", "gamma_0", "gamma_00", "gamma_I"), _FIG_PARAMS, _SAMPLES),
    "fig2": (_fig_points, "k_fraction_of_max", (
        "ratio", "K", "branch", "delta_phi_I", "gamma_I", "delta_phi_0"), _FIG_PARAMS, _SAMPLES),
}

EXPERIMENTS = tuple(_EXPERIMENTS)

# The experiments of closed-loop quadratures, which converge geometrically in
# the sample count: each row climbs ``_rungs``.  The others (spin-berry's Wilson
# loops, which converge algebraically, and the oracles) run at n_samples.
_LADDERED = {"hybrid-gho", "fig1", "fig2", "full-quantum", "gho-uncoupled", "hybrid-spin-osc"}
_FIRST_RUNG = 256


def _rungs(cap: int) -> list[int]:
    """The sample counts a quadrature row may run at, lowest first: cap / 2^j
    from the first at or below ``_FIRST_RUNG`` up to the cap itself, each
    halving taken only while it leaves an even count, which the stride-2
    estimate needs.  A cap of at most ``_FIRST_RUNG``, or odd, is the only rung."""
    rungs = [cap]
    while rungs[0] > _FIRST_RUNG and rungs[0] % 4 == 0:
        rungs.insert(0, rungs[0] // 2)
    return rungs


def _sweep(cfg: ExperimentConfig) -> tuple[list[str], list[dict[str, Any]], dict[str, Any],
                                           dict[str, int]]:
    """The experiment's CSV header, one row per sweep point, the settings the
    run used, and how many rows finished at each sample count.

    A quadrature row (``_LADDERED``) runs at each of ``_rungs(n_samples)`` in
    turn and stops at the first where every quadrature it takes is resolved
    (``QuadratureResult.resolved``), or at the cap; every sampled check that
    decides its typed error reads the cap's samples, so the rung never changes
    that.  A row that fails stops where it fails.

    Every setting is checked and every point built before the first row runs;
    a ``HolonomyError`` or ``ValueError`` raised meanwhile is ``ConfigInvalid``.
    A row's ``HolonomyError`` goes into its ``error`` column; the row keeps its
    coordinates.  All of it runs with numpy's overflow, invalid and divide
    conditions raised; any ``ArithmeticError`` (numpy's conditions, a Python
    float ``**`` that overflows, a Python division by zero) means a value left
    floating-point range: ``ConfigInvalid`` before the first row, ``NonFinite``
    in a row.
    """
    points, axis, columns, params, numerics = _EXPERIMENTS[cfg.experiment]
    if cfg.sweep is not None and cfg.sweep.get("parameter") != axis:
        swept = cfg.sweep.get("parameter")
        takes = f"sweeps over {axis!r}, not {swept!r}" if axis else "takes no sweep"
        raise ConfigInvalid(f"experiment {cfg.experiment!r} {takes}")
    rows = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            s = {**_resolve(cfg.params, params), **_resolve(cfg.numerics, numerics)}
            sweep_points = points(cfg, s)
        except ConfigInvalid:
            raise
        except (HolonomyError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        except ArithmeticError as exc:
            raise ConfigInvalid(f"configuration leaves floating-point range: {exc}") from exc
        rungs = _rungs(s["n_samples"]) if cfg.experiment in _LADDERED else [s["n_samples"]]
        samples_used = Counter()
        for coords, compute in sweep_points:
            for n in rungs:
                try:
                    cells, quadratures = compute(n)
                except HolonomyError as exc:
                    cells, quadratures = {"error": type(exc).__name__}, ()
                except ArithmeticError:
                    cells, quadratures = {"error": NonFinite.__name__}, ()
                if all(q.resolved for q in quadratures):
                    break
            rows.append(dict(coords, error="") | cells)
            samples_used[str(n)] += 1
    resolved = {"params": {key: v for key, v in s.items() if key not in numerics},
                "numerics": {key: s[key] for key in numerics}}
    return [*columns, "error"], rows, resolved, dict(samples_used)


def _write_csv(path: Path, header: list[str], rows: list[dict[str, Any]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in header])


def _write_svg(path: Path, header: list[str], rows: list[dict[str, Any]], experiment: str) -> None:
    """A minimal polyline chart of the second numeric column against the first."""
    numeric_cols = [c for c in header if c not in ("ratio", "branch", "error", "level")]
    if len(numeric_cols) < 2:
        return
    xcol, ycol = numeric_cols[0], numeric_cols[1]
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row.get("error"):
            continue
        key = str(row.get("ratio", ""))
        try:
            series.setdefault(key, []).append((float(row[xcol]), float(row[ycol])))
        except (KeyError, TypeError, ValueError):
            continue
    pts_all = [p for pts in series.values() for p in pts]
    if not pts_all:
        return
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    width, height, margin = 640, 420, 60
    sx = (width - 2 * margin) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (height - 2 * margin) / (y1 - y0 if y1 > y0 else 1.0)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return margin + (x - x0) * sx, height - margin - (y - y0) * sy

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle">{xcol}</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height // 2})">{ycol}</text>',
        f'<text x="{width // 2}" y="25" text-anchor="middle">{experiment}</text>',
    ]
    for i, (key, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        path_d = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{path_d}"/>')
        if key:
            parts.append(
                f'<text x="{width - margin + 4}" y="{margin + 16 * i}" fill="{color}" '
                f'font-size="12">{key}</text>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def execute(cfg: ExperimentConfig) -> int:
    """Run one experiment configuration; returns the process exit code.  An
    output directory that cannot be created or written is ``ConfigInvalid``."""
    t_start = time.perf_counter()
    header, rows, resolved, samples_used = _sweep(cfg)
    out_dir = Path(cfg.output_dir)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(csv_path, header, rows)
        if cfg.emit_svg:
            _write_svg(out_dir / f"{cfg.experiment}.svg", header, rows, cfg.experiment)
        meta = {
            "version": __version__,
            "config": cfg.as_dict(),
            "resolved": resolved,
            "rows": len(rows),
            "failed_rows": sum(1 for r in rows if r.get("error")),
            "samples_used": samples_used,
            "elapsed_seconds": time.perf_counter() - t_start,
        }
        (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write output: {exc}") from exc
    label_cols = [c for c in header[:3] if c != "error"]
    for i, row in enumerate(rows):
        tag = " ".join(f"{c}={row.get(c, '')}" for c in label_cols)
        status = row.get("error") or "ok"
        print(f"{cfg.experiment} [{i + 1}/{len(rows)}] {tag}: {status}")
    print(f"wrote {csv_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="holonomy",
        description="Geometric phases and angle shifts for driven quantum, "
        "classical, and hybrid systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a JSON config")
    p_run.add_argument("config", help="path to the configuration file")

    for which in (1, 2):
        p_fig = sub.add_parser(f"fig{which}", help=f"reproduce the coupling sweep figure {which}")
        p_fig.add_argument("--out", default="out", help="output directory")
        p_fig.add_argument("--points", type=int, default=50, help="sweep points per ratio")
        p_fig.add_argument("--emit-svg", action="store_true")

    p_or = sub.add_parser("oracle", help="time-domain oracle comparisons")
    p_or.add_argument("kind", choices=("quantum", "classical"))
    p_or.add_argument("--slowness", type=float, default=_ORACLE_NUMERICS["slowness"])
    p_or.add_argument("--samples", type=int, default=_ORACLE_NUMERICS["n_samples"])
    p_or.add_argument("--out", default="out")
    p_or.add_argument("--emit-svg", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_path(args.config)
        else:
            if args.command == "oracle":
                raw = {"experiment": f"oracle-{args.kind}",
                       "numerics": {"slowness": args.slowness, "n_samples": args.samples}}
            else:
                raw = {"experiment": args.command, "sweep": dict(_FIG_SWEEP, count=args.points)}
            raw["output"] = {"directory": args.out, "emit_svg": args.emit_svg}
            cfg = ExperimentConfig.from_dict(raw)
        return execute(cfg)
    except ConfigInvalid as exc:
        print(json.dumps({"error": "ConfigInvalid", "detail": str(exc)}), file=sys.stderr)
        return 2
    except HolonomyError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
