"""The unified one-form for hybrid systems and every phase derived from it.

A one-form on parameter space whose coefficients are affine in the action
variables yields geometric phases as exact action-derivative reads: the
coefficient of a quantum action integrates to that level's phase, and minus
the coefficient of the classical action integrates to the angle shift.
Coupling corrections, weak-coupling approximations, and the fully quantum
coupled-oscillator comparison all reduce to closed-curve quadratures of
explicit coefficient fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .errors import (
    EllipticViolation,
    ModeCollapse,
    OmegaImaginary,
    WeakCouplingViolated,
    require_positive,
)
from .manifold import (
    DEFAULT_SAMPLES,
    Covector,
    LoopSpec,
    QuadratureResult,
    StandardLoopParams,
    _drive_grid,
    _frequency_sq,
    closed_line_integral,
    periodic_integral,
)
from .models import SpinOscillatorHybrid

_WEAK_COUPLING_MAX = 0.3  # largest allowed lam * Q_typ / B for the spin hybrid

BRANCH_COMMON = "common"
BRANCH_SUBSYSTEM = "per-subsystem"


@dataclass(frozen=True)
class LinearOneForm:
    """Sampled covector coefficients of a one-form affine in the actions.

    ``action_coeffs[label]`` is the coefficient of that quantum action and
    ``j_coeff`` the coefficient of the classical action, each a ``Covector``
    of its nonzero columns; ``phases_from_one_form`` raises ``LengthMismatch``
    for a column the loop does not have or one of another length.
    """

    loop: LoopSpec
    action_coeffs: dict[Hashable, Covector]
    j_coeff: Covector


@dataclass(frozen=True)
class PhaseSet:
    """Loop phases extracted from a one-form."""

    gammas: dict[Hashable, float]
    delta_phi: float
    quadrature_error: float


@dataclass(frozen=True)
class HybridPhaseReport:
    """Phases of the standard coupled-oscillator hybrid, decomposed into
    uncoupled parts and coupling corrections."""

    gamma: float
    delta_phi: float
    gamma_0_part: float
    gamma_I_part: float
    delta_phi_0_part: float
    delta_phi_I_part: float
    gamma_I_approx: float
    delta_phi_I_approx: float
    elliptic_margin: float
    quadrature_error: float
    branch: str


def phases_from_one_form(a: LinearOneForm) -> PhaseSet:
    """Integrate a one-form's coefficients around its loop.

    Because the coefficients are affine in the actions, each quantum phase is
    the exact circulation of its action coefficient, and the angle shift is
    minus the circulation of the classical-action coefficient.
    """
    res = {label: closed_line_integral(c, a.loop) for label, c in a.action_coeffs.items()}
    res_j = closed_line_integral(a.j_coeff, a.loop)
    return PhaseSet(
        gammas={label: r.value for label, r in res.items()},
        delta_phi=-res_j.value,
        quadrature_error=max(r.error_estimate for r in (*res.values(), res_j)),
    )


def spin_oscillator_one_form(m: SpinOscillatorHybrid) -> LinearOneForm:
    """One-form of the spin coupled to one classical oscillator.

    Coordinates are (cos phi, sin phi, X, Y, Z).  Each spin action couples to
    the azimuth with coefficient -1/2; the coupling correction enters the
    spin coefficients through the analytic action-derivative of the
    oscillator term, whose frequency is shifted by the population imbalance.
    """
    pts = m.loop.points
    x, y, z = pts[:, 2:].T
    shift = m.mu * m.lam**2 * (m.i_plus - m.i_minus) / m.b_field
    x_eff = x + shift
    omega_sq = x_eff * z - y**2
    require_positive(omega_sq, lambda j: OmegaImaginary(
        f"action-shifted frequency squared {omega_sq[j]:.3e} at sample {j}", sample=j))
    omega = np.sqrt(omega_sq)
    if m.j_action > 0:
        q_typ = np.sqrt(2.0 * z * m.j_action / omega)
        ratio = float(np.max(m.lam * q_typ / m.b_field))
        if ratio > _WEAK_COUPLING_MAX:
            raise WeakCouplingViolated(
                f"lam * Q_typ / B reaches {ratio:.3f}, beyond {_WEAK_COUPLING_MAX}"
            )

    # -dphi / 2 on the circle embedding (c, s), where dphi = -s dc + c ds
    azimuth = {0: 0.5 * pts[:, 1], 1: -0.5 * pts[:, 0]}
    # d(Omega^2) for Omega^2 = (X + shift) Z - Y^2
    d_omega_sq = {2: z, 3: -2.0 * y, 4: x_eff}

    correction = m.mu * m.lam**2 * z**2 * m.j_action / (4.0 * omega**3 * m.b_field)
    coeff_plus = azimuth | _d_y_over_z(pts, 2, -correction)
    coeff_minus = azimuth | _d_y_over_z(pts, 2, correction)
    j_coeff = _d_z_over_omega(pts, 2, omega, d_omega_sq, -(y / (2.0 * z)))

    return LinearOneForm(
        loop=m.loop, action_coeffs={"+": coeff_plus, "-": coeff_minus}, j_coeff=j_coeff
    )


def _bo_frequency_sq(x1: np.ndarray, x2: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(omega^2 of the fast triple, effective Omega^2 of the slow triple),
    both checked positive at every sample."""
    w_sq = _frequency_sq(x1, "fast-triple frequency squared")
    omega_sq = x2[:, 0] * x2[:, 2] - k**2 * x1[:, 2] * x2[:, 2] / w_sq - x2[:, 1] ** 2
    require_positive(omega_sq, lambda j: EllipticViolation(
        f"effective frequency squared {omega_sq[j]:.3e} at sample {j}", sample=j))
    return w_sq, omega_sq


def _triple_pair(loop: LoopSpec) -> tuple[np.ndarray, np.ndarray]:
    """The fast and slow triples (X1, Y1, Z1) and (X2, Y2, Z2) of a combined
    loop, as built by ``combined_parameter_loop``."""
    if loop.dim != 6:
        raise ValueError(f"expected a combined loop of two triples, got {loop.dim} columns")
    return loop.points[:, :3], loop.points[:, 3:]


def _d_y_over_z(points: np.ndarray, col: int, f: np.ndarray) -> Covector:
    """Covector of f d(Y/Z), f sampled along the loop, for the triple (X, Y, Z)
    in columns col..col+2: its two nonzero columns, col + 1 and col + 2."""
    y, z = points[:, col + 1], points[:, col + 2]
    return {col + 1: f * (1.0 / z), col + 2: f * (-y / z**2)}


def _d_z_over_omega(points: np.ndarray, col: int, omega: np.ndarray,
                    d_omega_sq: Covector, f: np.ndarray) -> Covector:
    """Covector of f d(Z/Omega), f sampled along the loop, for the triple
    (X, Y, Z) in columns col..col+2, given Omega and the covector d(Omega^2),
    whose columns it has; column col + 2 must be among them."""
    scale = -0.5 * f * points[:, col + 2] / omega**3
    grad = {j: scale * c for j, c in d_omega_sq.items()}
    grad[col + 2] += f / omega
    return grad


def coupled_gho_one_form(p: StandardLoopParams, loop: LoopSpec) -> LinearOneForm:
    """One-form of the quantum oscillator coupled to the classical one.

    ``loop`` carries the concatenated triples (X1, Y1, Z1, X2, Y2, Z2) over
    the common period, as ``combined_parameter_loop(p, n)`` builds
    them.  The quantum-action coefficient multiplies d(Y1/Z1); the
    classical-action coefficient collects the coupling back-reaction on
    d(Y1/Z1) together with the slow oscillator's own d(Z2/Omega) term.
    """
    p.require_elliptic()
    x1, x2 = _triple_pair(loop)
    pts = loop.points
    w_sq, omega_sq = _bo_frequency_sq(x1, x2, p.k)
    w = np.sqrt(w_sq)
    omega = np.sqrt(omega_sq)
    z1, z2 = x1[:, 2], x2[:, 2]
    y2 = x2[:, 1]
    ksq = p.k**2
    kzz = ksq * z1 * z2 / w_sq**2  # k^2 Z1 Z2 / omega^4

    # gradient of Omega^2 = X2 Z2 - k^2 Z1 Z2 / omega^2 - Y2^2
    grad_osq = {0: kzz * z1, 1: -2.0 * kzz * x1[:, 1], 2: kzz * x1[:, 0] - ksq * z2 / w_sq,
                3: z2, 4: -2.0 * y2, 5: x2[:, 0] - ksq * z1 / w_sq}

    nl = p.n_level
    quantum_coeff = _d_y_over_z(pts, 0, (2 * nl + 1) * z1 / (4.0 * w)
                                + ksq * z1**2 * z2 * p.j_action / (2.0 * w_sq**2 * omega))
    j_coeff = _d_z_over_omega(pts, 3, omega, grad_osq, -(y2 / (2.0 * z2)))
    for col, c in _d_y_over_z(pts, 0, kzz * z1 / (2.0 * omega)).items():
        j_coeff[col] += c

    return LinearOneForm(loop=loop, action_coeffs={nl: quantum_coeff}, j_coeff=j_coeff)


def _effective_core_sq(
    p: StandardLoopParams, c1: np.ndarray, c2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(core^2, f1, f2) with core^2 = 1 - eps^2 - 2 D^2 f1 f2 checked positive
    at every sample, where f_i = 1 - eps c_i and c_i = cos(w_i t)."""
    eps, d = p.epsilon, p.d_ratio
    f1 = 1.0 - eps * c1
    f2 = 1.0 - eps * c2
    core_sq = 1.0 - eps**2 - 2.0 * d**2 * f1 * f2
    require_positive(core_sq, lambda j: EllipticViolation(
        f"effective frequency squared vanished at sample {j}", sample=j))
    return core_sq, f1, f2


def _fast_phase_span(p: StandardLoopParams, branch: str) -> float:
    """T w1, the fast drive's phase over the integration range: one fast-triple
    cycle (2 pi) on the per-subsystem branch."""
    return 2.0 * math.pi if branch == BRANCH_SUBSYSTEM else p.common_period * p.omega1


def gamma_n0_closed_form(p: StandardLoopParams, branch: str = BRANCH_COMMON) -> float:
    """Uncoupled quantum phase: (2n+1)(1 - sqrt(1-eps^2)) T w1 / (4 sqrt(1-eps^2))."""
    root = math.sqrt(1.0 - p.epsilon**2)
    return (2 * p.n_level + 1) * (1.0 - root) * _fast_phase_span(p, branch) / (4.0 * root)


def elliptic_bound(p: StandardLoopParams) -> tuple[float, float]:
    """Largest dimensionless coupling and coupling constant satisfying the
    worst-case positivity of the effective frequency."""
    eps = p.epsilon
    d_max = math.sqrt((1.0 - eps**2) / 2.0) / (1.0 + eps)
    k_max = d_max * math.sqrt(2.0 * p.mu1 * p.mu2 * p.a1 * p.a2 * (1.0 - eps**2))
    return d_max, k_max


def standard_loop_report(
    p: StandardLoopParams,
    n_samples: int = DEFAULT_SAMPLES,
    branch: str | None = None,
) -> HybridPhaseReport:
    """Phases and angle of the standard coupled-oscillator hybrid.

    The uncoupled quantum part comes from its closed form; the remaining
    pieces are periodic-trapezoid quadratures of the explicit integrands over
    the common period (or over each subsystem's own period on the uncoupled
    branch, which is only legal at k = 0).  The coupling correction pair is
    computed from one shared integrand array, so the antisymmetry between
    phase and angle corrections holds to rounding.
    """
    if branch is None:
        branch = BRANCH_SUBSYSTEM if p.k == 0.0 else BRANCH_COMMON
    if branch not in (BRANCH_COMMON, BRANCH_SUBSYSTEM):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == BRANCH_SUBSYSTEM and p.k != 0.0:
        raise ValueError("per-subsystem integration ranges require k = 0")
    p.require_elliptic()

    eps, d = p.epsilon, p.d_ratio
    one_minus = 1.0 - eps**2
    root = math.sqrt(one_minus)

    # the per-subsystem branch (k = 0) integrates the slow subsystem over its own period
    period = p.common_period if branch == BRANCH_COMMON else 2.0 * math.pi / p.omega2
    c2, s2 = _drive_grid(p.omega2, period, n_samples)

    gamma_0 = gamma_n0_closed_form(p, branch)

    # Coupling corrections share one integrand, evaluated on the range that
    # carries both drives (the common period; they vanish identically at k=0,
    # where d = 0).  The effective-frequency core below feeds them and the
    # uncoupled angle shift.
    c1, s1 = _drive_grid(p.omega1, period, n_samples)
    core_sq, f1, f2 = _effective_core_sq(p, c1, c2)
    margin = float(np.min(core_sq))
    core = np.sqrt(core_sq)
    drive = eps - c1
    omega_eff = p.a2 * core
    base = d**2 * p.a2**2 * eps * p.omega1 * f2 * drive / (p.a1 * one_minus * omega_eff)
    res_dphi = periodic_integral(-base, period)
    res_gamma = periodic_integral(p.j_action * base, period)
    delta_phi_i = res_dphi.value
    gamma_i = res_gamma.value
    errs = [0.0, res_dphi.error_estimate, res_gamma.error_estimate]
    prod_dot = eps * p.omega1 * s1 * f2 + f1 * eps * p.omega2 * s2
    core_dot = -(d**2) * prod_dot / core

    # Uncoupled angle shift, with the effective frequency kept inside.
    integrand0 = -(eps**2) * p.omega2 * s2**2 / (2.0 * core * f2) + eps * s2 * core_dot / (
        2.0 * core**2
    )
    res0 = periodic_integral(integrand0, period)
    delta_phi_0 = res0.value
    errs.append(res0.error_estimate)

    t_omega1 = _fast_phase_span(p, branch)
    gamma_i_approx = eps**2 * p.a2 * p.j_action * d**2 * t_omega1 / (p.a1 * one_minus * root)
    delta_phi_i_approx = -(eps**2) * p.a2 * d**2 * t_omega1 / (p.a1 * one_minus * root)

    return HybridPhaseReport(
        gamma=gamma_0 + gamma_i,
        delta_phi=delta_phi_0 + delta_phi_i,
        gamma_0_part=gamma_0,
        gamma_I_part=gamma_i,
        delta_phi_0_part=delta_phi_0,
        delta_phi_I_part=delta_phi_i,
        gamma_I_approx=gamma_i_approx,
        delta_phi_I_approx=delta_phi_i_approx,
        elliptic_margin=margin,
        quadrature_error=max(errs),
        branch=branch,
    )


def single_gho_phase(loop: LoopSpec, n: int) -> QuadratureResult:
    """Phase of one isolated generalized oscillator around its triple loop:
    the circulation of (2n+1) Z/(4 omega) d(Y/Z)."""
    w_sq = _frequency_sq(loop.points, "frequency squared")
    coeff = (2 * n + 1) * loop.points[:, 2] / (4.0 * np.sqrt(w_sq))
    return closed_line_integral(_d_y_over_z(loop.points, 0, coeff), loop)


def _normal_mode_squares(w1_sq: np.ndarray, w2_sq: np.ndarray, kzz: np.ndarray):
    """(upper^2, lower^2, sin^2 beta) of two coupled oscillators, sample by
    sample, from the bare frequencies squared and kzz = k^2 Z1 Z2.  Raises
    ``ModeCollapse`` at the first sample whose lower mode squared is not
    positive; sin^2 beta is 0 where the modes neither differ nor couple."""
    r = np.sqrt((w1_sq - w2_sq) ** 2 + 4.0 * kzz)
    low_sq = 0.5 * (w1_sq + w2_sq - r)
    require_positive(low_sq, lambda j: ModeCollapse(
        f"lower normal frequency squared {low_sq[j]:.3e} at sample {j} is not positive "
        f"(omega1^2 omega2^2 = {w1_sq[j] * w2_sq[j]:.3e}, k^2 Z1 Z2 = {kzz[j]:.3e})",
        sample=j))
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_sq = np.where(r > 0, np.clip((w2_sq - w1_sq + r) / (2.0 * r), 0.0, 1.0), 0.0)
    return 0.5 * (w1_sq + w2_sq + r), low_sq, sin_sq


def full_quantum_phase(loop: LoopSpec, k: float, m: int, n: int) -> float:
    """Phase of the fully quantum coupled-oscillator state with m quanta in
    the upper normal mode and n in the lower.

    ``loop`` is the combined loop of both triples (``combined_parameter_loop``).
    Evaluates the normal-mode connection coefficients sample by sample and
    integrates around it.  Raises ``ModeCollapse`` when the coupling closes
    the lower mode anywhere along the loop.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    x1, x2 = _triple_pair(loop)
    pts = loop.points
    w1_sq, w2_sq = _frequency_sq(pts.reshape(-1, 2, 3), "a bare triple's frequency squared").T
    high_sq, low_sq, sin_sq = _normal_mode_squares(w1_sq, w2_sq, k**2 * x1[:, 2] * x2[:, 2])
    high = np.sqrt(high_sq)
    low = np.sqrt(low_sq)
    cos_sq = 1.0 - sin_sq

    t1 = (x1[:, 2] / 4.0) * ((2 * m + 1) * cos_sq / high + (2 * n + 1) * sin_sq / low)
    t2 = (x2[:, 2] / 4.0) * ((2 * m + 1) * sin_sq / high + (2 * n + 1) * cos_sq / low)
    coeffs = _d_y_over_z(pts, 0, t1) | _d_y_over_z(pts, 3, t2)
    return closed_line_integral(coeffs, loop).value


def bo_full_quantum_phase_parts(loop: LoopSpec, k: float, m: int, n: int) -> tuple[float, float]:
    """The two quadrature pieces of the slow/fast-separated quantum phase
    around the combined loop: the d(Y1/Z1) part and the d(Y2/Z2) part.

    Here ``n`` counts the fast oscillator's level and ``m`` the slow one's
    (unlike ``full_quantum_phase``, whose ``m`` counts the upper normal
    mode).  Actions are in units of hbar, so callers comparing against the
    hybrid phases set J = m + 1/2 themselves.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    x1, x2 = _triple_pair(loop)
    pts = loop.points
    w_sq, omega_sq = _bo_frequency_sq(x1, x2, k)
    w = np.sqrt(w_sq)
    omega = np.sqrt(omega_sq)
    z1, z2 = x1[:, 2], x2[:, 2]

    t1 = (2 * n + 1) * z1 / (4.0 * w) + (2 * m + 1) * k**2 * z1**2 * z2 / (
        4.0 * w_sq**2 * omega
    )
    t2 = (2 * m + 1) * z2 / (4.0 * omega)
    part1 = closed_line_integral(_d_y_over_z(pts, 0, t1), loop).value
    part2 = closed_line_integral(_d_y_over_z(pts, 3, t2), loop).value
    return part1, part2


def bo_full_quantum_phase(loop: LoopSpec, k: float, m: int, n: int) -> float:
    """Slow/fast-separated quantum phase (sum of both quadrature pieces)."""
    p1, p2 = bo_full_quantum_phase_parts(loop, k, m, n)
    return p1 + p2
