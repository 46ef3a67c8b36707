"""Per-row correctness gate for the benchmark's CSV tables.

Every row is checked against an independent route at the tolerance of the
acceptance criterion that covers it; no tolerance is wider than the
criterion's.  Rows past a coupling bound must carry the expected typed error.
A row fails on a wrong value, a non-finite value, a missing or unexpected
typed error, or a table whose run raised an untyped exception.

Each checked route pair also yields its disagreement as a share of its
tolerance; the largest share over a workload is ``max_route_err``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from workloads import SLOWNESS_LADDER, Table

# Acceptance-criterion tolerances (tests/test_acceptance.py).
QUANTUM_ORACLE_RAD = 0.01        # criterion 11
CLASSICAL_ORACLE_REL = 0.02      # criterion 12
CLASSICAL_ACTION_DRIFT = 0.005   # criterion 12
WILSON_VS_CLOSED = 1e-6          # criterion 2
UNCOUPLED_REL = 1e-9             # criteria 5 and 6
CLOSED_FORM_REL = 1e-12          # criterion 5 (value of gamma_00)
COUPLING_IDENTITY_REL = 1e-12    # criterion 7
WEAK_COUPLING_REL = 0.05         # criterion 8
BO_VS_HYBRID_REL = 1e-9          # criterion 10(b)
FIG2_SMALLNESS = 1e-2            # criterion 13

ADIABATIC_FIDELITY = 0.99


class Mismatch(Exception):
    """A row whose outcome differs from the expected one."""


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    max_route_err: float = 0.0
    notes: list[str] = field(default_factory=list)

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{where}: {why}")

    def route(self, err: float, tol: float) -> None:
        self.max_route_err = max(self.max_route_err, err / tol)


def _num(row: dict, col: str) -> float:
    try:
        value = float(row[col])
    except (KeyError, ValueError):
        raise Mismatch(f"{col}={row.get(col)!r} is not a number") from None
    if not math.isfinite(value):
        raise Mismatch(f"{col}={value} is not finite")
    return value


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise Mismatch(why)


def _expected_error(table: Table, row_index: int) -> str:
    """Typed error expected of a sweep row, from the coupling the row was
    generated with (error rows of hybrid-gho leave the K column empty)."""
    if "k_grid" not in table.meta:
        return ""
    k = table.meta["k_grid"][row_index]
    if k < table.meta["k_max"]:
        return ""
    if k < table.meta.get("k_collapse", math.inf):
        return "EllipticViolation"
    return "ModeCollapse"


def _gamma_n0_closed(eps: float, n1: int, n_level: int) -> float:
    # common-period branch, base rate 1: T * omega_1 = 2 pi n1
    root = math.sqrt(1.0 - eps**2)
    return (2 * n_level + 1) * (1.0 - root) * 2.0 * math.pi * n1 / (4.0 * root)


def _oracle_quantum(row, table, verdict, track):
    err = _num(row, "abs_error")
    _require(err == abs(_num(row, "gamma_numeric") - _num(row, "gamma_wilson")),
             "abs_error is not |gamma_numeric - gamma_wilson|")
    _require(_num(row, "final_fidelity") >= ADIABATIC_FIDELITY, "final fidelity below 0.99")
    _num(row, "norm_drift")
    if table.meta["slowness"] == SLOWNESS_LADDER[-1]:
        _require(err <= QUANTUM_ORACLE_RAD, f"phase error {err:.3e} rad above 0.01")
        verdict.route(err, QUANTUM_ORACLE_RAD)
    track.append(err)


def _oracle_classical(row, table, verdict, track):
    err = _num(row, "abs_error")
    quad = _num(row, "delta_phi_quadrature")
    _require(err == abs(_num(row, "delta_phi_numeric") - quad),
             "abs_error is not |numeric - quadrature|")
    rel = err / abs(quad)
    _require(rel <= CLASSICAL_ORACLE_REL, f"relative angle error {rel:.3e} above 2%")
    drift = _num(row, "j_drift")
    if table.meta["slowness"] == SLOWNESS_LADDER[-1]:
        _require(drift <= CLASSICAL_ACTION_DRIFT, f"action drift {drift:.3e} above 0.5%")
        verdict.route(rel, CLASSICAL_ORACLE_REL)
    track.append(drift)


def _spin_berry(row, table, verdict, track):
    theta = _num(row, "theta")
    analytic = {1: math.pi * (1.0 - math.cos(theta)), 2: math.pi * (1.0 + math.cos(theta))}
    for level in (1, 2):
        gamma = _num(row, f"gamma_{level}")
        delta = _num(row, f"delta_theta_{level}")
        closed = _num(row, f"closed_form_{level}")
        _require(delta == -gamma, f"delta_theta_{level} is not bit-exactly -gamma_{level}")
        err = abs(delta - closed)
        _require(_num(row, f"abs_err_{level}") == err, f"abs_err_{level} mismatch")
        err_analytic = abs(delta - analytic[level])
        _require(max(err, err_analytic) <= WILSON_VS_CLOSED,
                 f"level {level}: Wilson vs closed form {err:.3e}, vs analytic "
                 f"{err_analytic:.3e} (tolerance 1e-6)")
        verdict.route(max(err, err_analytic), WILSON_VS_CLOSED)


def _gamma_split(row, table) -> float:
    """gamma_0 = gamma_00 + gamma_I exactly, with gamma_00 on its closed form."""
    gamma_i = _num(row, "gamma_I")
    g00 = _num(row, "gamma_00")
    _require(_num(row, "gamma_0") == g00 + gamma_i, "gamma_0 is not gamma_00 + gamma_I")
    n1 = int(row["ratio"].split("/")[0])
    closed = _gamma_n0_closed(table.meta["epsilon"], n1, table.meta["n_level"])
    _require(abs(g00 - closed) <= CLOSED_FORM_REL * abs(closed), "gamma_00 off its closed form")
    return gamma_i


def _fig1(row, table, verdict, track):
    _require(row["branch"] == "common", f"branch {row['branch']!r} is not 'common'")
    _gamma_split(row, table)


def _fig2(row, table, verdict, track):
    _require(row["branch"] == "common", f"branch {row['branch']!r} is not 'common'")
    dphi_i = _num(row, "delta_phi_I")
    _num(row, "gamma_I")
    _require(dphi_i < 0.0, "delta_phi_I is not negative")
    _require(abs(dphi_i) < FIG2_SMALLNESS * abs(_num(row, "delta_phi_0")),
             "delta_phi_I is not below 1% of delta_phi_0")


def _hybrid_gho(row, table, verdict, track):
    gamma_i = _gamma_split(row, table)
    resid = abs(gamma_i + table.meta["j_action"] * _num(row, "delta_phi_I")) / abs(gamma_i)
    _require(resid <= COUPLING_IDENTITY_REL, f"gamma_I + J delta_phi_I residual {resid:.3e}")
    verdict.route(resid, COUPLING_IDENTITY_REL)
    for col in ("gamma_I_approx", "delta_phi", "elliptic_margin", "quadrature_error"):
        _num(row, col)
    if table.meta.get("weak_coupling"):
        weak = abs(gamma_i / _num(row, "gamma_I_approx") - 1.0)
        _require(weak <= WEAK_COUPLING_REL, f"weak-coupling error {weak:.3e} above 5%")
        verdict.route(weak, WEAK_COUPLING_REL)
        track.append(-weak)  # must shrink as the coupling halves, i.e. down the sweep


def _full_quantum(row, table, verdict, track):
    _num(row, "gamma_mn")
    _num(row, "bo_gamma_mn")
    rel = _num(row, "abs_err_bo_vs_hybrid") / abs(_num(row, "hybrid_gamma_n"))
    _require(rel <= BO_VS_HYBRID_REL, f"BO part 1 vs hybrid {rel:.3e} above 1e-9")
    verdict.route(rel, BO_VS_HYBRID_REL)


def _gho_uncoupled(row, table, verdict, track):
    closed = _num(row, "gamma_00_closed")
    quad = _num(row, "gamma_00_quadrature")
    _require(_num(row, "abs_err") == abs(closed - quad), "abs_err mismatch")
    rel = abs(quad / closed - 1.0)
    corr = abs(_num(row, "correspondence_residual")) / abs(closed)
    _num(row, "delta_phi_0")
    _require(rel <= UNCOUPLED_REL, f"quadrature vs closed form {rel:.3e} above 1e-9")
    _require(corr <= UNCOUPLED_REL, f"correspondence residual {corr:.3e} above 1e-9")
    verdict.route(max(rel, corr), UNCOUPLED_REL)


def _hybrid_spin_osc(row, table, verdict, track):
    for col in ("gamma_plus", "gamma_minus", "delta_phi", "quadrature_error"):
        _num(row, col)


_ROW_CHECKS = {
    "oracle-quantum": _oracle_quantum,
    "oracle-classical": _oracle_classical,
    "spin-berry": _spin_berry,
    "fig1": _fig1,
    "fig2": _fig2,
    "hybrid-gho": _hybrid_gho,
    "full-quantum": _full_quantum,
    "gho-uncoupled": _gho_uncoupled,
    "hybrid-spin-osc": _hybrid_spin_osc,
}


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check(tables: list[Table], outputs: list[bytes | str]) -> Verdict:
    """Gate every row of one pass.

    ``outputs[i]`` holds table i's CSV bytes, or the name of the untyped
    exception its run raised.
    """
    verdict = Verdict()
    # Per-row quantities that must shrink along the slowness ladder (the
    # convergence study of criterion 11) or as the coupling halves (criterion 8).
    tracks: dict[tuple, list[float]] = {}
    for t, (table, out) in enumerate(zip(tables, outputs)):
        verdict.attempted += table.rows
        where = f"{table.experiment}#{t}"
        if isinstance(out, str):
            for _ in range(table.rows):
                verdict.fail(where, f"untyped exception {out}")
            continue
        rows = parse_csv(out)
        if len(rows) != table.rows:
            verdict.fail(where, f"{len(rows)} rows, expected {table.rows}")
            verdict.failed += table.rows - 1
            continue
        for i, row in enumerate(rows):
            key = ("series", table.meta["series"]) if "series" in table.meta else (t,)
            track = tracks.setdefault(key, [])
            try:
                expected = _expected_error(table, i)
                if row["error"] != expected:
                    raise Mismatch(f"error {row['error']!r}, expected {expected!r}")
                if not expected:
                    _ROW_CHECKS[table.experiment](row, table, verdict, track)
            except Mismatch as exc:
                verdict.fail(f"{where} row {i}", str(exc))
    for key, values in tracks.items():
        for a, b in zip(values, values[1:]):
            if not b < a:
                verdict.fail(f"{key}", f"no convergence: {b:.3e} after {a:.3e}")
    return verdict
