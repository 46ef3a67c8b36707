"""Seeded experiment configurations for the three benchmark workloads.

A workload is a list of tables.  Each table is one ``holonomy.cli`` experiment
configuration together with what the correctness gate needs to know about it:
the number of rows it must produce and, for coupling sweeps, each row's
coupling and the couplings past which a row must fail with a typed error.  Inputs depend only on
the seed; the program sees nothing but the configurations.

Every workload carries acceptance criteria's own reference cases next to its
seeded ones (the equatorial loop of criterion 11, the four cone angles of
criterion 2, the weak-coupling ladder of criterion 8, the coupled-oscillator
model of criterion 10).  On ``oracle`` and ``hybrid`` the reference rows have
the largest route disagreement by construction of the physics, and on
``geometry`` stratified angles always sample the error's peak, so
``max_route_err`` compares commits rather than seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("oracle", "geometry", "hybrid")

EPS_PAPER = math.sqrt(3.0) / 2.0
# Criterion 11/12 convergence ladder; the CLI default slowness is the last rung.
SLOWNESS_LADDER = (250.0, 500.0, 1000.0)
ORACLE_SAMPLES = 256
LOOP_SAMPLES = 4096  # package default (holonomy.manifold.DEFAULT_SAMPLES)
FIG_RATIOS = [[1, 1], [2, 1], [1, 2]]
# Sweeps keep every coupling value at least this far (relatively) from a
# bound, so the expected outcome of each row is never a rounding question.
BOUND_CLEARANCE = 0.01


@dataclass
class Table:
    """One CLI configuration and the facts its rows are checked against."""

    config: dict
    rows: int
    meta: dict = field(default_factory=dict)

    @property
    def experiment(self) -> str:
        return self.config["experiment"]

    @property
    def csv_path(self) -> Path:
        return Path(self.config["output"]["directory"]) / f"{self.experiment}.csv"


def build(workload: str, seed: int, out_dir: Path) -> list[Table]:
    """The tables of ``workload`` for ``seed``, writing under ``out_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(out_dir), seed)


def _config(experiment, out: Path, seed: int, params, numerics=None, sweep=None) -> dict:
    cfg = {
        "experiment": experiment,
        "params": params,
        "numerics": numerics or {"n_samples": LOOP_SAMPLES},
        "output": {"directory": str(out), "emit_svg": False},
        "seed": seed,
    }
    if sweep is not None:
        cfg["sweep"] = sweep
    return cfg


def geometric_grid(start: float, stop: float, count: int) -> list[float]:
    """The points of a log sweep, as the CLI's ``geomspace`` lays them out."""
    ratio = (stop / start) ** (1.0 / (count - 1))
    return [start * ratio**i for i in range(count)]


def _clear_count(start: float, stop: float, count: int, bounds: list[float]) -> int:
    """Smallest count >= ``count`` whose sweep keeps clear of every bound."""
    while any(
        abs(k / b - 1.0) < BOUND_CLEARANCE
        for k in geometric_grid(start, stop, count)
        for b in bounds
    ):
        count += 1
    return count


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def elliptic_k_max(eps: float, a1: float = 1.0, a2: float = 1.0) -> float:
    """Coupling where the worst-case effective frequency of the standard
    loops vanishes (unit mu): (1 - eps) sqrt(a1 a2)."""
    return (1.0 - eps) * math.sqrt(a1 * a2)


def mode_collapse_k(eps: float, n1: int, n2: int, a1: float, a2: float, n_samples: int) -> float:
    """Smallest coupling at which the lower normal mode closes at a loop sample.

    Both bare triples keep omega_i^2 = a_i^2 (1 - eps^2); the lower mode closes
    where k^2 Z1 Z2 reaches omega_1^2 omega_2^2.
    """
    z_max = max(
        a1 * (1.0 - eps * math.cos(n1 * t)) * a2 * (1.0 - eps * math.cos(n2 * t))
        for t in (2.0 * math.pi * j / n_samples for j in range(n_samples + 1))
    )
    return a1 * a2 * (1.0 - eps**2) / math.sqrt(z_max)


def _oracle(rng: random.Random, out: Path, seed: int) -> list[Table]:
    # The equator (criterion 11) has the largest non-adiabatic error of any
    # cone angle; the seeded angle stays inside the band where the canonical
    # section of the lower level has a pivot.  One table per loop and rung
    # keeps each timed unit short (see wall_s in README.md).
    series = [("oracle-quantum", {"thetas": [math.pi / 2.0], "mu": 1.0}),
              ("oracle-quantum", {"thetas": [rng.uniform(0.4, 2.4)], "mu": 1.0}),
              ("oracle-classical", {"epsilons": [rng.uniform(0.2, 0.9)]})]
    tables = []
    for index, (experiment, params) in enumerate(series):
        for slowness in SLOWNESS_LADDER:
            numerics = {"slowness": slowness, "n_samples": ORACLE_SAMPLES}
            tables.append(Table(
                _config(experiment, out / f"{experiment}-{index}-{int(slowness)}", seed,
                        params, numerics),
                rows=1, meta={"slowness": slowness, "series": index},
            ))
    return tables


def _geometry(rng: random.Random, out: Path, seed: int) -> list[Table]:
    # Single-cycle loops only: at cycles=2 the Wilson phase's second-order
    # discretisation error reaches 1.9e-6, above criterion 2's 1e-6.
    anchors = [math.pi / 6.0, math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0]
    thetas = anchors + _stratified(rng, 0.2, math.pi - 0.2, 26)
    tables = []
    for i in range(6):
        params = {
            "thetas": thetas[5 * i: 5 * (i + 1)],
            "mu": rng.uniform(0.5, 2.0),
            "b_magnitude": rng.uniform(0.5, 2.0),
            "cycles": 1,
        }
        tables.append(Table(_config("spin-berry", out / f"spin-{i}", seed, params), rows=5))
    return tables


def _hybrid(rng: random.Random, out: Path, seed: int) -> list[Table]:
    tables = []

    # Paper figures: 3 ratios x 30 couplings, the top rows past K_max.
    fig_eps = rng.uniform(0.3, 0.9)
    fig_lo, fig_hi = 1e-4, 1.3
    fig_count = _clear_count(fig_lo, fig_hi, 30, [1.0])
    k_max_fig = elliptic_k_max(fig_eps, 1.0, 1e-8)  # the figures' default a1/a2 = 1e8
    for which in (1, 2):
        params = {"epsilon": fig_eps, "ratios": FIG_RATIOS,
                  "k_min_fraction": fig_lo, "k_max_fraction": fig_hi}
        sweep = {"parameter": "k_fraction_of_max", "start": fig_lo, "stop": fig_hi,
                 "count": fig_count, "scale": "log"}
        tables.append(Table(
            _config(f"fig{which}", out / f"fig{which}", seed, params, sweep=sweep),
            rows=len(FIG_RATIOS) * fig_count,
            meta={"k_max": k_max_fig, "epsilon": fig_eps, "n_level": 0,
                  "k_grid": [f * k_max_fig for _ in FIG_RATIOS
                             for f in geometric_grid(fig_lo, fig_hi, fig_count)]},
        ))

    # Seeded hybrid-gho sweeps over reduced ratios, each with a tail past K_max.
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (3, 2)):
        eps = rng.uniform(0.3, 0.9)
        j_action = rng.uniform(0.5, 3.0)
        n_level = rng.randrange(3)
        k_max = elliptic_k_max(eps)
        lo, hi = 1e-3 * k_max, 1.25 * k_max
        count = _clear_count(lo, hi, 30, [k_max])
        params = {"epsilon": eps, "n1": n1, "n2": n2, "j_action": j_action, "n_level": n_level}
        sweep = {"parameter": "k", "start": lo, "stop": hi, "count": count, "scale": "log"}
        tables.append(Table(
            _config("hybrid-gho", out / f"gho-{n1}-{n2}", seed, params, sweep=sweep),
            rows=count,
            meta={"k_max": k_max, "epsilon": eps, "n_level": n_level, "j_action": j_action,
                  "k_grid": geometric_grid(lo, hi, count)},
        ))

    # Criterion 8: the weak-coupling ladder D = 0.1, 0.05, 0.025, 0.0125 D_max.
    k_max = elliptic_k_max(EPS_PAPER)
    params = {"epsilon": EPS_PAPER, "n1": 2, "n2": 1, "j_action": 1.0, "n_level": 0}
    sweep = {"parameter": "k", "start": 0.0125 * k_max, "stop": 0.1 * k_max,
             "count": 4, "scale": "log"}
    tables.append(Table(
        _config("hybrid-gho", out / "gho-weak", seed, params, sweep=sweep),
        rows=4,
        meta={"k_max": k_max, "epsilon": EPS_PAPER, "n_level": 0, "j_action": 1.0,
              "k_grid": geometric_grid(0.0125 * k_max, 0.1 * k_max, 4), "weak_coupling": True},
    ))

    # Criterion 10's coupled-oscillator model, swept past K_max (the one-form
    # route fails) and on past mode collapse (every route fails).
    for sweep_index in range(2):
        eps = rng.uniform(0.35, 0.65)
        a1 = 2.0
        k_max = elliptic_k_max(eps, a1, 1.0)
        k_collapse = mode_collapse_k(eps, 2, 1, a1, 1.0, LOOP_SAMPLES)
        lo, hi = 0.02 * k_max, 1.6 * k_collapse
        count = _clear_count(lo, hi, 40, [k_max, k_collapse])
        params = {"epsilon": eps, "n1": 2, "n2": 1, "a1": a1,
                  "m_level": rng.randrange(3), "n_level": rng.randrange(3)}
        sweep = {"parameter": "k", "start": lo, "stop": hi, "count": count, "scale": "log"}
        tables.append(Table(
            _config("full-quantum", out / f"full-quantum-{sweep_index}", seed, params,
                    sweep=sweep),
            rows=count,
            meta={"k_max": k_max, "k_collapse": k_collapse,
                  "k_grid": geometric_grid(lo, hi, count)},
        ))

    for n1, n2 in ((1, 1), (2, 1), (3, 2)):
        params = {"n1": n1, "n2": n2, "n_level": rng.randrange(3),
                  "epsilons": [rng.uniform(0.05, 0.9) for _ in range(8)]}
        tables.append(Table(
            _config("gho-uncoupled", out / f"uncoupled-{n1}-{n2}", seed, params), rows=8,
        ))

    # lam * Q_typ / B stays below the 0.3 weak-coupling limit for lam <= 0.1.
    params = {"lambdas": [0.0] + [rng.uniform(0.0, 0.1) for _ in range(15)],
              "epsilon": rng.uniform(0.2, 0.6)}
    tables.append(Table(_config("hybrid-spin-osc", out / "spin-osc", seed, params), rows=16))
    return tables


_BUILDERS = {"oracle": _oracle, "geometry": _geometry, "hybrid": _hybrid}
