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
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable

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
    Differential,
    LoopSpec,
    QuadratureResult,
    StandardLoopParams,
    _drive_grid,
    _frequency_sq,
    _gho_points,
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
    of its nonzero terms: loop columns and differentials pulled back onto
    ``loop``; ``phases_from_one_form`` raises ``LengthMismatch`` for a column
    the loop does not have or a term of another length.
    """

    loop: LoopSpec
    action_coeffs: dict[Hashable, Covector]
    j_coeff: Covector


@dataclass(frozen=True)
class PhaseSet:
    """Loop phases extracted from a one-form, and the quadratures behind them:
    one per action coefficient, in order, then the classical action's."""

    gammas: dict[Hashable, float]
    delta_phi: float
    quadratures: tuple[QuadratureResult, ...]

    @property
    def quadrature_error(self) -> float:
        """The largest error estimate of the quadratures."""
        return max(q.error_estimate for q in self.quadratures)


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
    quadratures: tuple[QuadratureResult, ...]
    branch: str

    quadrature_error = PhaseSet.quadrature_error  # the quadratures' largest estimate


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
        quadratures=(*res.values(), res_j),
    )


def spin_oscillator_one_form(m: SpinOscillatorHybrid) -> LinearOneForm:
    """One-form of the spin coupled to one classical oscillator.

    Coordinates are (cos phi, sin phi, X, Y, Z).  Each spin action couples to
    the azimuth with coefficient -1/2; the coupling correction enters the
    spin coefficients through the analytic action-derivative of the
    oscillator term, whose frequency is shifted by the population imbalance.
    """
    pts = m.loop.points
    _, y, z = pts[:, 2:].T
    omega_sq, omega = spin_oscillator_frequency(m, pts[:, 2:])

    # -dphi / 2 on the circle embedding (c, s), where dphi = -s dc + c ds
    azimuth = {0: 0.5 * pts[:, 1], 1: -0.5 * pts[:, 0]}
    d_y_over_z, d_p = (m.loop.derived(_differential, r, 2) for r in (_y_over_z_rate, _p_rate))

    correction = m.mu * m.lam**2 * z**2 * m.j_action / (4.0 * omega**3 * m.b_field)
    # f d(Z/Omega), f = -Y/(2Z), with d(Omega^2) = dP + shift dZ and dZ column 4
    scale = y / (4.0 * omega * omega_sq)  # -f Z / (2 Omega^3)
    return LinearOneForm(m.loop, {"+": azimuth | {d_y_over_z: -correction},
                                  "-": azimuth | {d_y_over_z: correction}},
                         j_coeff={4: -(y / (2.0 * z)) / omega + m.frequency_shift * scale,
                                  d_p: scale})


def spin_oscillator_frequency(m: SpinOscillatorHybrid,
                              xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Omega^2 = (X + shift) Z - Y^2 and Omega of ``m``'s action-shifted
    oscillator at the rows (X, Y, Z) of ``xyz``, checked in this order:
    ``OmegaImaginary`` at the first sample where Omega^2 is not positive, then,
    for a positive action J, ``WeakCouplingViolated`` where the sampled maximum
    of lam Q_typ / B, Q_typ = sqrt(2 Z J / Omega), passes 0.3."""
    x, y, z = xyz.T
    omega_sq = (x + m.frequency_shift) * z - y**2
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
    return omega_sq, omega


def _p_rate(x: np.ndarray, v: np.ndarray, col: int) -> np.ndarray:
    """dP/dt, P = X Z - Y^2, of the triple (X, Y, Z) in columns col..col+2."""
    return (v[:, col] * x[:, col + 2] + x[:, col] * v[:, col + 2]
            - 2.0 * x[:, col + 1] * v[:, col + 1])


def _y_over_z_rate(x: np.ndarray, v: np.ndarray, col: int) -> np.ndarray:
    """d(Y/Z)/dt of the triple (X, Y, Z) in columns col..col+2."""
    y, z = x[:, col + 1], x[:, col + 2]
    return (1.0 / z) * v[:, col + 1] + (-y / z**2) * v[:, col + 2]


def _differential(loop: LoopSpec, rate: Callable[..., np.ndarray], col: int) -> Differential:
    """``loop.pullback(rate, col)``; a zero Z gives inf or nan, which X Z - Y^2 > 0 rules out."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return loop.pullback(rate, col)


# The K-independent samples of a combined loop's points that the coupled routes
# check: w_sq = (omega1^2, omega2^2 = P2 = X2 Z2 - Y2^2), z1z2 = Z1 Z2 and
# u = Z1 Z2 / omega1^2, inf or nan where omega1^2 is not positive.
_PairSamples = namedtuple("_PairSamples", "w_sq z1z2 u")

# The K-independent pieces of the coupled-oscillator routes on a combined loop:
# the ``_PairSamples`` fields, fast = Z1/(4 omega1), back = Z1^2 Z2/(4 omega1^4),
# slow = -Y2/(2 Z2), and the differentials d(Y1/Z1), dP2 and du.  The fully
# quantum routes alone also read d(Y2/Z2), which each builds itself.
_PairGeometry = namedtuple("_PairGeometry", "w_sq z1z2 u fast back slow d_y1z1 d_p2 d_u")


def _pair_samples(x: np.ndarray) -> _PairSamples:
    """The ``_PairSamples`` of the combined points ``x``."""
    triples = x.reshape(-1, 2, 3)
    w_sq = triples[..., 0] * triples[..., 2] - triples[..., 1] ** 2
    z1z2 = x[:, 2] * x[:, 5]
    with np.errstate(divide="ignore", invalid="ignore"):
        return _PairSamples(w_sq, z1z2, z1z2 / w_sq[:, 0])


def coupled_samples(p: StandardLoopParams, n_samples: int) -> _PairSamples:
    """The ``_PairSamples`` of ``combined_parameter_loop(p, n_samples)``'s
    points, elementwise from the cached drive grids: no spectrum, no pullback."""
    return _pair_samples(_gho_points([(p.a1, p.mu1, p.omega1), (p.a2, p.mu2, p.omega2)],
                                     p.epsilon, p.common_period, n_samples))


def _pair_geometry(loop: LoopSpec) -> _PairGeometry:
    """The ``_PairGeometry`` of a combined loop (through ``loop.derived``); a
    sample divided by omega1^2 is inf or nan where that is not positive."""
    if loop.dim != 6:
        raise ValueError(f"expected a combined loop of two triples, got {loop.dim} columns")

    def u_rate(x, v):  # u = Z1 Z2 / P1
        p1 = x[:, 0] * x[:, 2] - x[:, 1] ** 2
        return ((v[:, 2] * x[:, 5] + x[:, 2] * v[:, 5]) / p1
                - x[:, 2] * x[:, 5] * _p_rate(x, v, 0) / p1**2)

    x = loop.points
    d_y1z1 = loop.derived(_differential, _y_over_z_rate, 0)
    samples = _pair_samples(x)
    w1_sq, z1z2 = samples.w_sq[:, 0], samples.z1z2
    with np.errstate(divide="ignore", invalid="ignore"):
        return _PairGeometry(
            *samples, fast=x[:, 2] / (4.0 * np.sqrt(w1_sq)),
            back=x[:, 2] * z1z2 / (4.0 * w1_sq**2), slow=-(x[:, 4] / (2.0 * x[:, 5])),
            d_y1z1=d_y1z1, d_p2=loop.derived(_differential, _p_rate, 3), d_u=loop.pullback(u_rate))


def require_coupled_samples(g: _PairSamples, k: float, modes: bool = True) -> None:
    """Raise the typed error the coupled-oscillator routes raise at the
    samples ``g`` (``coupled_samples``), in the order a full-quantum row meets
    them: ``full_quantum_phase``'s, a bare triple's frequency
    (``EllipticViolation``) and the lower normal mode (``ModeCollapse``),
    when ``modes`` is set; then those of ``bo_full_quantum_phase_parts`` and
    ``coupled_gho_one_form``, the fast-triple and effective frequency
    (``EllipticViolation``)."""
    if modes:
        _normal_modes(g, k, _lower_mode_sq)
    _slow_frequency_sq(g, k)


def _slow_frequency_sq(g: _PairSamples, k: float) -> np.ndarray:
    """Effective Omega^2 = omega2^2 - k^2 u, checked positive after omega1^2."""
    require_positive(g.w_sq[:, 0], lambda j: EllipticViolation(
        f"fast-triple frequency squared {g.w_sq[j, 0]:.3e} at sample {j}", sample=j))
    omega_sq = g.w_sq[:, 1] - k**2 * g.u
    require_positive(omega_sq, lambda j: EllipticViolation(
        f"effective frequency squared {omega_sq[j]:.3e} at sample {j}", sample=j))
    return omega_sq


def coupled_gho_one_form(p: StandardLoopParams, loop: LoopSpec) -> LinearOneForm:
    """One-form of the quantum oscillator coupled to the classical one.

    ``loop`` carries the concatenated triples (X1, Y1, Z1, X2, Y2, Z2) over
    the common period, as ``combined_parameter_loop(p, n)`` builds
    them.  The quantum-action coefficient multiplies d(Y1/Z1); the
    classical-action coefficient collects the coupling back-reaction on
    d(Y1/Z1) together with the slow oscillator's own d(Z2/Omega) term.
    """
    p.require_elliptic()
    g = loop.derived(_pair_geometry)
    omega_sq = _slow_frequency_sq(g, p.k)
    omega = np.sqrt(omega_sq)
    ksq = p.k**2
    back = g.back / omega  # Z1^2 Z2 / (4 omega1^4 Omega)

    # f d(Z2/Omega), f = -Y2/(2 Z2), with d(Omega^2) = dP2 - k^2 du and dZ2
    # column 5; scale = -f Z2 / (2 Omega^3)
    scale = loop.points[:, 4] / (4.0 * omega * omega_sq)
    nl = p.n_level
    quantum_coeff = {g.d_y1z1: (2 * nl + 1) * g.fast + (2.0 * ksq * p.j_action) * back}
    j_coeff = {g.d_y1z1: (2.0 * ksq) * back, 5: g.slow / omega, g.d_p2: scale,
               g.d_u: -ksq * scale}
    return LinearOneForm(loop=loop, action_coeffs={nl: quantum_coeff}, j_coeff=j_coeff)


# A sweep from k = 0 reads at most six profiles, one per period and sample
# count, as ``_drive_grid`` reads grids.
@lru_cache(maxsize=6, typed=True)
def _drive_profile(eps: float, omega1: float, omega2: float, period: float,
                   n_samples: int) -> tuple[np.ndarray, ...]:
    """The K-independent samples of ``standard_loop_report``, read-only, with
    (c_i, s_i) = (cos, sin)(w_i t) and f_i = 1 - eps c_i: f1 f2, f2 (eps - c1),
    d(f1 f2)/dt, -(eps^2) w2 s2^2 / (2 f2) and eps s2."""
    c2, s2 = _drive_grid(omega2, period, n_samples)
    c1, s1 = _drive_grid(omega1, period, n_samples)
    f1, f2 = 1.0 - eps * c1, 1.0 - eps * c2
    profile = (f1 * f2, f2 * (eps - c1), eps * omega1 * s1 * f2 + f1 * eps * omega2 * s2,
               -(eps**2) * omega2 * s2**2 / (2.0 * f2), eps * s2)
    for a in profile:
        a.flags.writeable = False
    return profile


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
    check_samples: int | None = None,
) -> HybridPhaseReport:
    """Phases and angle of the standard coupled-oscillator hybrid.

    The uncoupled quantum part comes from its closed form; the remaining
    pieces are periodic-trapezoid quadratures of the explicit integrands over
    the common period (or over each subsystem's own period on the uncoupled
    branch, which is only legal at k = 0).  The coupling correction pair is
    computed from one shared integrand array, so the antisymmetry between
    phase and angle corrections holds to rounding.  The sampled elliptic check
    and ``elliptic_margin`` read ``check_samples`` samples (by default
    ``n_samples``) before the quadratures run.
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

    def profile(n: int) -> tuple[np.ndarray, ...]:
        return _drive_profile(eps, p.omega1, p.omega2, period, n)

    f1f2, f2_drive, f1f2_dot, slow_term, eps_s2 = profile(n_samples)

    gamma_0 = gamma_n0_closed_form(p, branch)

    # Coupling corrections share one integrand, evaluated on the range that
    # carries both drives (the common period; they vanish identically at k=0,
    # where d = 0).  The effective-frequency core 1 - eps^2 - 2 D^2 f1 f2
    # feeds them and the uncoupled angle shift.
    def checked_core_sq(f1f2: np.ndarray) -> np.ndarray:
        core_sq = one_minus - 2.0 * d**2 * f1f2
        require_positive(core_sq, lambda j: EllipticViolation(
            f"effective frequency squared vanished at sample {j}", sample=j))
        return core_sq

    check_samples = n_samples if check_samples is None else check_samples
    checked = checked_core_sq(profile(check_samples)[0])
    core_sq = checked if check_samples == n_samples else checked_core_sq(f1f2)
    margin = float(np.min(checked))
    core = np.sqrt(core_sq)
    base = (d**2 * p.a2 * eps * p.omega1 / (p.a1 * one_minus)) * f2_drive / core
    res_dphi = periodic_integral(-base, period)
    res_gamma = periodic_integral(p.j_action * base, period)

    # Uncoupled angle shift, with the effective frequency kept inside.
    core_dot = -(d**2) * f1f2_dot / core
    res0 = periodic_integral(slow_term / core + eps_s2 * core_dot / (2.0 * core_sq), period)

    t_omega1 = _fast_phase_span(p, branch)
    gamma_i_approx = eps**2 * p.a2 * p.j_action * d**2 * t_omega1 / (p.a1 * one_minus * root)
    delta_phi_i_approx = -(eps**2) * p.a2 * d**2 * t_omega1 / (p.a1 * one_minus * root)

    return HybridPhaseReport(
        gamma=gamma_0 + res_gamma.value,
        delta_phi=res0.value + res_dphi.value,
        gamma_0_part=gamma_0,
        gamma_I_part=res_gamma.value,
        delta_phi_0_part=res0.value,
        delta_phi_I_part=res_dphi.value,
        gamma_I_approx=gamma_i_approx,
        delta_phi_I_approx=delta_phi_i_approx,
        elliptic_margin=margin,
        quadratures=(res_dphi, res_gamma, res0),
        branch=branch,
    )


def single_gho_phase(loop: LoopSpec, n: int) -> QuadratureResult:
    """Phase of one isolated generalized oscillator around its triple loop:
    the circulation of (2n+1) Z/(4 omega) d(Y/Z)."""
    w_sq = _frequency_sq(loop.points, "frequency squared")
    coeff = (2 * n + 1) * loop.points[:, 2] / (4.0 * np.sqrt(w_sq))
    return closed_line_integral({loop.derived(_differential, _y_over_z_rate, 0): coeff}, loop)


def _lower_mode_sq(w1_sq: np.ndarray, w2_sq: np.ndarray,
                   kzz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = sqrt((omega1^2 - omega2^2)^2 + 4 kzz) and the lower normal mode
    squared, (omega1^2 + omega2^2 - r) / 2, of two coupled oscillators, sample
    by sample, from the bare frequencies squared and kzz = k^2 Z1 Z2.  Raises
    ``ModeCollapse`` at the first sample whose lower mode squared is not
    positive."""
    r = np.sqrt((w1_sq - w2_sq) ** 2 + 4.0 * kzz)
    low_sq = 0.5 * (w1_sq + w2_sq - r)
    require_positive(low_sq, lambda j: ModeCollapse(
        f"lower normal frequency squared {low_sq[j]:.3e} at sample {j} is not positive "
        f"(omega1^2 omega2^2 = {w1_sq[j] * w2_sq[j]:.3e}, k^2 Z1 Z2 = {kzz[j]:.3e})",
        sample=j))
    return r, low_sq


def _normal_mode_squares(w1_sq: np.ndarray, w2_sq: np.ndarray, kzz: np.ndarray):
    """(upper^2, lower^2, sin^2 beta) of two coupled oscillators, sample by
    sample, checked as ``_lower_mode_sq`` checks; sin^2 beta is 0 where the
    modes neither differ nor couple."""
    r, low_sq = _lower_mode_sq(w1_sq, w2_sq, kzz)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_sq = np.where(r > 0, np.clip((w2_sq - w1_sq + r) / (2.0 * r), 0.0, 1.0), 0.0)
    return 0.5 * (w1_sq + w2_sq + r), low_sq, sin_sq


def _normal_modes(g: _PairSamples, k: float, squares=_normal_mode_squares):
    """``squares`` (``_normal_mode_squares`` or ``_lower_mode_sq``) at the
    samples ``g``, after checking that both bare triples' frequencies squared
    are positive (``EllipticViolation``)."""
    require_positive(g.w_sq, lambda j: EllipticViolation(
        f"a bare triple's frequency squared {np.min(g.w_sq[j]):.3e} at sample {j}", sample=j))
    return squares(g.w_sq[:, 0], g.w_sq[:, 1], k**2 * g.z1z2)


def full_quantum_phase(loop: LoopSpec, k: float, m: int, n: int) -> QuadratureResult:
    """Phase of the fully quantum coupled-oscillator state with m quanta in
    the upper normal mode and n in the lower, as its quadrature.

    ``loop`` is the combined loop of both triples (``combined_parameter_loop``).
    Evaluates the normal-mode connection coefficients sample by sample and
    integrates around it.  Raises ``ModeCollapse`` when the coupling closes
    the lower mode anywhere along the loop.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    g = loop.derived(_pair_geometry)
    d_y2z2 = loop.derived(_differential, _y_over_z_rate, 3)
    high_sq, low_sq, sin_sq = _normal_modes(g, k)
    high, low = np.sqrt(high_sq), np.sqrt(low_sq)
    cos_sq = 1.0 - sin_sq

    x = loop.points
    t1 = x[:, 2] / 4.0 * ((2 * m + 1) * cos_sq / high + (2 * n + 1) * sin_sq / low)
    t2 = x[:, 5] / 4.0 * ((2 * m + 1) * sin_sq / high + (2 * n + 1) * cos_sq / low)
    return closed_line_integral({g.d_y1z1: t1, d_y2z2: t2}, loop)


def bo_full_quantum_phase_parts(loop: LoopSpec, k: float, m: int,
                                n: int) -> tuple[QuadratureResult, QuadratureResult]:
    """The two quadratures of the slow/fast-separated quantum phase around
    the combined loop: the d(Y1/Z1) part and the d(Y2/Z2) part.

    Here ``n`` counts the fast oscillator's level and ``m`` the slow one's
    (unlike ``full_quantum_phase``, whose ``m`` counts the upper normal
    mode).  Actions are in units of hbar, so callers comparing against the
    hybrid phases set J = m + 1/2 themselves.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    g = loop.derived(_pair_geometry)
    d_y2z2 = loop.derived(_differential, _y_over_z_rate, 3)
    omega = np.sqrt(_slow_frequency_sq(g, k))

    t1 = (2 * n + 1) * g.fast + ((2 * m + 1) * k**2) * g.back / omega
    t2 = (2 * m + 1) * (loop.points[:, 5] / 4.0) / omega
    return closed_line_integral({g.d_y1z1: t1}, loop), closed_line_integral({d_y2z2: t2}, loop)


def bo_full_quantum_phase(loop: LoopSpec, k: float, m: int, n: int) -> float:
    """Slow/fast-separated quantum phase (sum of both quadrature pieces)."""
    p1, p2 = bo_full_quantum_phase_parts(loop, k, m, n)
    return p1.value + p2.value
