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
    HolonomyError,
    ModeCollapse,
    OmegaImaginary,
    WeakCouplingViolated,
    failing_rows,
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
    _epsilon_block,
    _frequency_sq,
    _require_coupling,
    _require_grid,
    closed_line_integral,
    periodic_integral,
)
from .models import SpinOscillatorHybrid

_WEAK_COUPLING_MAX = 0.3  # largest allowed |lam| * Q_typ / B for the spin hybrid

BRANCH_COMMON = "common"
BRANCH_SUBSYSTEM = "per-subsystem"

# Every coupled route takes its couplings as a block, a sequence ``ks`` (the spin
# hybrid's ``lams``), and gives each row its result or the ``HolonomyError`` its own
# checks raise; one coupling is a block of one.  A negative k, or a failure no
# coupling decides (a bare or fast triple's frequency, a grid or loop that cannot
# be built), is raised for the whole block.  An epsilon block (params that differ
# only in epsilon, in place of ``p``) takes one coupling per row and runs on a loop
# block, where every check that reads a loop row is that row's own.  A row-dependent
# sample array is a (K, M + 1) stack with the loop sample on its last axis, which
# numpy sums pairwise row by row as it sums a 1-D array, and each row's scalar
# factors (d^2, k^2, eps, a coefficient) are Python floats formed one row at a time,
# then stacked into a (K, 1) column: so every row is bit for bit its block of one.
# Arithmetic after a check reads only the rows that passed it.


def _rows(p, ks) -> tuple[list[StandardLoopParams], list]:
    """Each row's params and checked coupling: ``p`` at each coupling of ``ks``, or
    an epsilon block ``p``'s rows, one coupling each (another count is a ``ValueError``)."""
    ks = _require_coupling(ks)
    qs = _epsilon_block(p)[2] if isinstance(p, (list, tuple)) else [p] * len(ks)
    if len(qs) != len(ks):
        raise ValueError(f"an epsilon block of {len(qs)} rows got {len(ks)} couplings")
    return qs, ks


def _column(factors: list[float]) -> np.ndarray:
    """Per-row factors as a (K, 1) column."""
    return np.array(factors, dtype=float)[:, None]


def _standing(count: int, failed: dict[int, HolonomyError]) -> list[int]:
    """The rows of a block of ``count`` that have not failed."""
    return [i for i in range(count) if i not in failed]


def _merged(failed: dict[int, HolonomyError], results: list) -> list:
    """Each row's outcome: its error in ``failed``, else the next of the standing rows' ``results``."""
    rest = iter(results)
    return [failed[i] if i in failed else next(rest) for i in range(len(failed) + len(results))]


@dataclass(frozen=True)
class LinearOneForm:
    """Sampled covector coefficients of a one-form affine in the actions.

    ``action_coeffs[label]`` is the coefficient of that quantum action and
    ``j_coeff`` the coefficient of the classical action, each a ``Covector``
    of its nonzero terms: loop columns and differentials pulled back onto
    ``loop``; ``phases_from_one_form`` raises ``LengthMismatch`` for a column
    the loop does not have or a term of another length.

    Each coefficient is a (K', M + 1) stack, a row per member of the form's block
    that has a one-form, in order, or (M + 1,) samples its rows share; ``failed``
    holds each other member's error by its index; a form with no such member has no terms.
    """

    loop: LoopSpec
    action_coeffs: dict[Hashable, Covector]
    j_coeff: Covector
    failed: dict[int, HolonomyError]


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


def phases_from_one_form(a: LinearOneForm) -> list[PhaseSet | HolonomyError]:
    """Integrate a one-form's coefficients around its loop.

    Because the coefficients are affine in the actions, each quantum phase is
    the exact circulation of its action coefficient, and the angle shift is
    minus the circulation of the classical-action coefficient.  Each member of
    the form's block gets its phases, or the error ``failed`` holds for it.
    """
    labels = list(a.action_coeffs)
    res = [closed_line_integral(c, a.loop) for c in (*a.action_coeffs.values(), a.j_coeff)]
    return _merged(a.failed, [_phase_set(labels, r) for r in zip(*res)] if a.j_coeff else [])


def _phase_set(labels: list[Hashable], quadratures) -> PhaseSet:
    """The phases of the action coefficients' quadratures and then the classical action's."""
    *res, res_j = quadratures
    return PhaseSet(gammas={label: r.value for label, r in zip(labels, res)},
                    delta_phi=-res_j.value, quadratures=tuple(quadratures))


def spin_oscillator_one_form(m: SpinOscillatorHybrid, lams) -> LinearOneForm:
    """One-form of the spin coupled to one classical oscillator.

    Coordinates are (cos phi, sin phi, X, Y, Z).  Each spin action couples to
    the azimuth with coefficient -1/2; the coupling correction enters the
    spin coefficients through the analytic action-derivative of the
    oscillator term, whose frequency is shifted by the population imbalance.
    The form has a row per coupling of the lambda block ``lams``, or its error.
    """
    pts = m.loop.points
    _, y, z = pts[:, 2:].T
    omega_sq, omega, failed = spin_oscillator_frequency(m, pts[:, 2:], lams)
    lams = [lams[i] for i in _standing(len(lams), failed)]
    if not lams:
        return LinearOneForm(m.loop, {}, {}, failed)
    # -dphi / 2 on the circle embedding (c, s), where dphi = -s dc + c ds
    azimuth = {0: 0.5 * pts[:, 1], 1: -0.5 * pts[:, 0]}
    d_y_over_z, d_p = (m.loop.derived(_differential, r, 2) for r in (_y_over_z_rate, _p_rate))

    correction = (_column([m.mu * x**2 for x in lams]) * z**2 * m.j_action
                  / (4.0 * omega**3 * m.b_field))
    # f d(Z/Omega), f = -Y/(2Z), with d(Omega^2) = dP + shift dZ and dZ column 4
    scale = y / (4.0 * omega * omega_sq)  # -f Z / (2 Omega^3)
    shifts = _column([m.frequency_shift_at(x) for x in lams])
    return LinearOneForm(m.loop, {"+": azimuth | {d_y_over_z: -correction},
                                  "-": azimuth | {d_y_over_z: correction}},
                         {4: -(y / (2.0 * z)) / omega + shifts * scale, d_p: scale}, failed)


def spin_oscillator_frequency(m: SpinOscillatorHybrid, xyz: np.ndarray, lams):
    """Omega^2 = (X + shift) Z - Y^2 and Omega of ``m``'s action-shifted
    oscillator at the rows (X, Y, Z) of ``xyz``, checked in this order:
    ``OmegaImaginary`` at the first sample where Omega^2 is not positive, then,
    for a positive action J, ``WeakCouplingViolated`` where the sampled maximum
    of |lam| Q_typ / B, Q_typ = sqrt(2 Z J / Omega), passes 0.3.  Gives, of the
    lambda block ``lams``, the passing rows' stacks and the others' errors by index."""
    x, y, z = xyz.T
    omega_sq = (x + _column([m.frequency_shift_at(v) for v in lams])) * z - y**2
    failed = failing_rows(omega_sq, lambda i, j: OmegaImaginary(
        f"action-shifted frequency squared {omega_sq[i, j]:.3e} at sample {j}", sample=j))
    standing = _standing(len(lams), failed)
    omega_sq = omega_sq[standing]
    omega = np.sqrt(omega_sq)
    if m.j_action > 0:
        q_typ = np.sqrt(2.0 * z * m.j_action / omega)
        ratios = np.max(_column([abs(lams[i]) for i in standing]) * q_typ / m.b_field, axis=-1)
        failed |= {i: WeakCouplingViolated(f"|lam| * Q_typ / B reaches {ratio:.3f}, beyond "
                                           f"{_WEAK_COUPLING_MAX}")
                   for i, ratio in zip(standing, ratios.tolist()) if ratio > _WEAK_COUPLING_MAX}
        kept = [j for j, i in enumerate(standing) if i not in failed]
        omega_sq, omega = omega_sq[kept], omega[kept]
    return omega_sq, omega, failed


def _p_rate(x: np.ndarray, v: np.ndarray, col: int) -> np.ndarray:
    """dP/dt, P = X Z - Y^2, of the triple (X, Y, Z) in columns col..col+2."""
    return (v[..., col] * x[..., col + 2] + x[..., col] * v[..., col + 2]
            - 2.0 * x[..., col + 1] * v[..., col + 1])


def _y_over_z_rate(x: np.ndarray, v: np.ndarray, col: int) -> np.ndarray:
    """d(Y/Z)/dt of the triple (X, Y, Z) in columns col..col+2."""
    y, z = x[..., col + 1], x[..., col + 2]
    return (v[..., col + 1] - (y / z) * v[..., col + 2]) / z


def _differential(loop: LoopSpec, rate: Callable[..., np.ndarray], col: int) -> Differential:
    """``loop.pullback(rate, col)``; a zero Z gives inf or nan, which X Z - Y^2 > 0 rules out."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return loop.pullback(rate, col)


# The K-independent pieces of the coupled-oscillator routes on a combined loop:
# w_sq = (omega1^2, omega2^2 = P2 = X2 Z2 - Y2^2), z1z2 = Z1 Z2, u = Z1 Z2 / omega1^2,
# fast = Z1/(4 omega1), back = Z1 u/(4 omega1^2), slow = -Y2/(2 Z2), and the
# differentials d(Y1/Z1), dP2 and du.  The fully quantum routes alone also read
# d(Y2/Z2), which each builds itself.
_PairGeometry = namedtuple("_PairGeometry", "w_sq z1z2 u fast back slow d_y1z1 d_p2 d_u")


def _pair_geometry(loop: LoopSpec) -> _PairGeometry:
    """The ``_PairGeometry`` of a combined loop (block) (through ``loop.derived``); a
    sample divided by omega1^2 is inf or nan where that is not positive."""
    if loop.dim != 6:
        raise ValueError(f"expected a combined loop of two triples, got {loop.dim} columns")

    def u_rate(x, v):  # u = Z1 Z2 / P1
        p1 = x[..., 0] * x[..., 2] - x[..., 1] ** 2
        u = x[..., 2] * x[..., 5] / p1
        return (v[..., 2] * x[..., 5] + x[..., 2] * v[..., 5] - u * _p_rate(x, v, 0)) / p1

    x = loop.points
    d_y1z1 = loop.derived(_differential, _y_over_z_rate, 0)
    triples = x.reshape(*x.shape[:-1], 2, 3)
    w_sq = triples[..., 0] * triples[..., 2] - triples[..., 1] ** 2
    z1z2 = x[..., 2] * x[..., 5]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = z1z2 / w_sq[..., 0]
        return _PairGeometry(
            w_sq, z1z2, u, fast=x[..., 2] / (4.0 * np.sqrt(w_sq[..., 0])),
            back=x[..., 2] * u / (4.0 * w_sq[..., 0]), slow=-(x[..., 4] / (2.0 * x[..., 5])),
            d_y1z1=d_y1z1, d_p2=loop.derived(_differential, _p_rate, 3), d_u=loop.pullback(u_rate))


def _slow_frequency_sq(loop: LoopSpec, ks: list, failed: dict[int, HolonomyError]):
    """``loop`` narrowed to the rows of ``ks`` that ``failed`` does not hold and whose
    omega1^2, then Omega^2 = omega2^2 - k^2 u, is positive (each other row joins ``failed``),
    its geometry, and their Omega^2.  A single loop's omega1^2 failure is raised."""
    block = loop
    for fast in (True, False):
        standing = _standing(len(ks), failed)
        if not standing:
            return block, None, None
        loop = block.select(standing)
        g = loop.derived(_pair_geometry)
        w_sq = (np.atleast_2d(g.w_sq[..., 0]) if fast
                else g.w_sq[..., 1] - _column([ks[i]**2 for i in standing]) * g.u)
        found = failing_rows(w_sq, lambda i, j: EllipticViolation(
            f"{'fast-triple' if fast else 'effective'} frequency squared {w_sq[i, j]:.3e} at "
            f"sample {j}", sample=j))
        if found and fast and loop.points.ndim == 2:
            raise found[0]
        failed |= {standing[i]: error for i, error in found.items()}
    kept = _standing(len(standing), found)
    loop = loop.select(kept)
    return loop, loop.derived(_pair_geometry), w_sq[kept] if found else w_sq


def _elliptic_failures(qs: list[StandardLoopParams], ks: list) -> dict[int, HolonomyError]:
    """The worst-case bound's ``EllipticViolation`` at each row's coupling of
    ``ks`` where its params' ``elliptic_margin_at`` is not positive."""
    margins = [q.elliptic_margin_at(k) for q, k in zip(qs, ks)]
    return {i: EllipticViolation(f"elliptic condition violated: margin {m:.3e} at coupling k={k}")
            for i, (k, m) in enumerate(zip(ks, margins)) if not m > 0.0}


def coupled_gho_one_form(p, loop: LoopSpec, ks) -> LinearOneForm:
    """One-form of the quantum oscillator coupled to the classical one.

    ``loop`` carries the concatenated triples (X1, Y1, Z1, X2, Y2, Z2) over
    the common period, as ``combined_parameter_loop(p, n)`` builds
    them.  The quantum-action coefficient multiplies d(Y1/Z1); the
    classical-action coefficient collects the coupling back-reaction on
    d(Y1/Z1) together with the slow oscillator's own d(Z2/Omega) term.  The
    form has a row per coupling of the K block ``ks``, or of an epsilon block
    ``p`` on its loop block, or its error.
    """
    qs, ks = _rows(p, ks)
    failed = _elliptic_failures(qs, ks)
    loop, g, omega_sq = _slow_frequency_sq(loop, ks, failed)
    standing = _standing(len(ks), failed)
    if not standing:
        return LinearOneForm(loop, {}, {}, failed)
    ksq = [ks[i]**2 for i in standing]
    omega = np.sqrt(omega_sq)
    back = g.back / omega  # Z1 u / (4 omega1^2 Omega)

    # f d(Z2/Omega), f = -Y2/(2 Z2), with d(Omega^2) = dP2 - k^2 du and dZ2
    # column 5; scale = -f Z2 / (2 Omega^3)
    scale = loop.points[..., 4] / (4.0 * omega * omega_sq)
    nl = qs[0].n_level
    quantum_coeff = {g.d_y1z1: (2 * nl + 1) * g.fast
                     + _column([2.0 * x * qs[i].j_action for x, i in zip(ksq, standing)]) * back}
    j_coeff = {g.d_y1z1: _column([2.0 * x for x in ksq]) * back, 5: g.slow / omega,
               g.d_p2: scale, g.d_u: _column([-x for x in ksq]) * scale}
    return LinearOneForm(loop, {nl: quantum_coeff}, j_coeff, failed)


# Read at a row's cap alone, whose samples each rung takes at a stride: a sweep from
# k = 0 reads two (slow and common period), a full-quantum sweep one, fig2 three (a
# ratio each, shared by tables).
@lru_cache(maxsize=3, typed=True)
def _drive_profile(epsilons: tuple[float, ...], omega1: float, omega2: float, period: float,
                   n_samples: int) -> tuple[np.ndarray, ...]:
    """The K-independent samples of ``standard_loop_report``, read-only, a row
    per epsilon, with (c_i, s_i) = (cos, sin)(w_i t) and f_i = 1 - eps c_i: f1 f2,
    f2 (eps - c1), d(f1 f2)/dt, -(eps^2) w2 s2^2 / (2 f2) and eps s2;
    ``mode_collapses`` reads f1 f2 alone."""
    c2, s2 = _drive_grid(omega2, period, n_samples)
    c1, s1 = _drive_grid(omega1, period, n_samples)
    eps = _column(list(epsilons))
    f1, f2 = 1.0 - eps * c1, 1.0 - eps * c2
    profile = (f1 * f2, f2 * (eps - c1),
               _column([e * omega1 for e in epsilons]) * s1 * f2 + f1 * eps * omega2 * s2,
               _column([-(e**2) * omega2 for e in epsilons]) * s2**2 / (2.0 * f2), eps * s2)
    for a in profile:
        a.flags.writeable = False
    return profile


def _core_margins(qs: list[StandardLoopParams], ks: list, f1f2: np.ndarray, error: type,
                  failed: dict[int, HolonomyError]) -> tuple[list[float], list[float]]:
    """(D^2, margin) of each row that ``failed`` does not hold, D =
    ``q.d_ratio_at(k)`` of its params and coupling in ``qs`` and ``ks``, whose
    effective-frequency core 1 - eps^2 - 2 D^2 f1 f2 stays positive at the
    samples ``f1f2`` (a ``_drive_profile``'s); each other row joins ``failed``
    as ``error`` at the first sample where its core is not positive.

    On the loop family X_i Z_i - Y_i^2 = a_i^2 (1 - eps^2) and
    Z1 Z2 = (a1 a2 / (mu1 mu2)) f1 f2, so the effective frequency squared
    omega2^2 - k^2 Z1 Z2 / omega1^2 is a2^2 times the core and the normal
    modes' product omega1^2 omega2^2 - k^2 Z1 Z2 is a1^2 a2^2 (1 - eps^2)
    times it.  Rounding is monotone and f1 f2 > 0, so the core's least
    sample, the margin, is exactly 1 - eps^2 - (2 D^2) max(f1 f2); only a row
    that fails forms its sampled core, to name the sample."""
    peaks = np.max(f1f2, axis=-1).tolist()
    dsq, margins = [], []
    for i, (q, k) in enumerate(zip(qs, ks)):
        if i in failed:
            continue
        row = i if len(peaks) > 1 else 0
        one_minus = 1.0 - q.epsilon**2
        d = q.d_ratio_at(k)
        margin = one_minus - 2.0 * d**2 * peaks[row]
        if margin > 0:
            dsq.append(d**2)
            margins.append(margin)
        else:
            j = int(np.argmax(~(one_minus - 2.0 * d**2 * f1f2[row] > 0)))
            failed[i] = error(f"the core 1 - eps^2 - 2 D^2 f1 f2 of the effective frequency "
                              f"and the lower normal mode is not positive at sample {j}", sample=j)
    return dsq, margins


def mode_collapses(p: StandardLoopParams, ks: list, n_samples: int) -> list[ModeCollapse | None]:
    """Each coupling of ``ks``'s ``ModeCollapse`` on ``p``'s combined loop of
    ``n_samples`` samples (``combined_parameter_loop``), or None: the lower
    normal mode closes where the effective-frequency core does
    (``_core_margins``), so this is one comparison per coupling."""
    ks = _require_coupling(ks)
    f1f2 = _drive_profile((p.epsilon,), p.omega1, p.omega2, p.common_period, n_samples)[0]
    failed = {}
    _core_margins([p] * len(ks), ks, f1f2, ModeCollapse, failed)
    return [failed.get(i) for i in range(len(ks))]


def _fast_phase_span(p: StandardLoopParams, branch: str) -> float:
    """T w1, the fast drive's phase over the integration range: one fast-triple
    cycle (2 pi) on the per-subsystem branch."""
    return 2.0 * math.pi if branch == BRANCH_SUBSYSTEM else p.common_period * p.omega1


def gamma_n0_closed_form(p: StandardLoopParams, branch: str = BRANCH_COMMON) -> float:
    """Uncoupled quantum phase: (2n+1)(1 - sqrt(1-eps^2)) T w1 / (4 sqrt(1-eps^2))."""
    root = math.sqrt(1.0 - p.epsilon**2)
    gap = p.epsilon**2 / (1.0 + root)  # 1 - root, without its cancellation at small eps
    return (2 * p.n_level + 1) * gap * _fast_phase_span(p, branch) / (4.0 * root)


def elliptic_bound(p: StandardLoopParams) -> tuple[float, float]:
    """Largest dimensionless coupling and coupling constant satisfying the
    worst-case positivity of the effective frequency."""
    eps = p.epsilon
    d_max = math.sqrt((1.0 - eps**2) / 2.0) / (1.0 + eps)
    k_max = d_max * math.sqrt(2.0 * p.mu1 * p.mu2 * p.a1 * p.a2 * (1.0 - eps**2))
    return d_max, k_max


def standard_loop_report(
    p,
    ks,
    n_samples: int = DEFAULT_SAMPLES,
    branch: str | None = None,
    check_samples: int | None = None,
) -> list[HybridPhaseReport | HolonomyError]:
    """Phases and angle of the standard coupled-oscillator hybrid.

    The uncoupled quantum part comes from its closed form; the remaining
    pieces are periodic-trapezoid quadratures of the explicit integrands over
    the common period (or over each subsystem's own period on the uncoupled
    branch, which is only legal at k = 0).  The coupling correction pair is
    computed from one shared integrand array, so the antisymmetry between
    phase and angle corrections holds to rounding.  The sampled elliptic check
    and ``elliptic_margin`` read ``check_samples`` samples (by default
    ``n_samples``), a multiple of ``n_samples``, and the quadratures every
    ``check_samples // n_samples``-th of them.  The result has, for each
    coupling of the K block ``ks`` (or row of an epsilon block ``p``, one
    coupling each), its report or the ``HolonomyError`` it raised.
    """
    qs, ks = _rows(p, ks)
    if branch not in (None, BRANCH_COMMON, BRANCH_SUBSYSTEM):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == BRANCH_SUBSYSTEM and any(x != 0.0 for x in ks):
        raise ValueError("per-subsystem integration ranges require k = 0")
    branches = [(BRANCH_SUBSYSTEM if x == 0.0 else BRANCH_COMMON) if branch is None else branch
                for x in ks]
    reports = {}
    for b in dict.fromkeys(branches):
        rows = [i for i, x in enumerate(branches) if x == b]
        reports |= zip(rows, _branch_reports([qs[i] for i in rows], [ks[i] for i in rows],
                                             n_samples, b, check_samples))
    return [reports[i] for i in range(len(ks))]


def _branch_reports(qs: list[StandardLoopParams], ks: list, n_samples: int, branch: str,
                    check_samples: int | None) -> list[HybridPhaseReport | HolonomyError]:
    """``standard_loop_report``'s rows of one branch, at the params ``qs``
    (one for all, or an epsilon block's) and couplings ``ks``."""
    failed = _elliptic_failures(qs, ks)
    if len(failed) == len(ks):
        return _merged(failed, [])
    q = qs[0]  # every row's drives, scales and actions
    shared = all(x is q for x in qs)

    # the per-subsystem branch (k = 0) integrates the slow subsystem over its own period
    period = q.common_period if branch == BRANCH_COMMON else 2.0 * math.pi / q.omega2
    cap = n_samples if check_samples is None else check_samples
    f1f2, *profile = _drive_profile((q.epsilon,) if shared else tuple(x.epsilon for x in qs),
                                    q.omega1, q.omega2, period, cap)
    _require_grid(period, n_samples)
    if cap % n_samples:
        raise ValueError(f"check_samples {cap} is not a multiple of n_samples {n_samples}")

    # Coupling corrections share one integrand, evaluated on the range that
    # carries both drives (the common period; they vanish identically at k=0,
    # where d = 0).  The effective-frequency core 1 - eps^2 - 2 D^2 f1 f2
    # feeds them and the uncoupled angle shift; its least sample at the cap is
    # the elliptic margin.
    dsq, margins = _core_margins(qs, ks, f1f2, EllipticViolation, failed)
    standing = _standing(len(ks), failed)
    rows = 0 if shared else standing  # a K block's one profile row, or each row's
    stride = cap // n_samples  # each rung's samples are the cap's at this stride
    f1f2, f2_drive, f1f2_dot, slow_term, eps_s2 = (a[rows, ::stride] for a in (f1f2, *profile))
    # each standing row's (eps, 1 - eps^2, sqrt(1 - eps^2), gamma_0), once per profile row
    heads = [(x.epsilon, 1.0 - x.epsilon**2, math.sqrt(1.0 - x.epsilon**2),
              gamma_n0_closed_form(x, branch)) for x in ([q] if shared else [qs[i] for i in standing])]
    heads *= len(standing) if shared else 1
    core_sq = _column([h[1] for h in heads]) - _column([2.0 * x for x in dsq]) * f1f2
    core = np.sqrt(core_sq)
    base = _column([x * q.a2 * eps * q.omega1 / (q.a1 * one_minus)
                    for x, (eps, one_minus, *_) in zip(dsq, heads)]) * f2_drive / core
    res_dphi = periodic_integral(-base, period)
    res_gamma = periodic_integral(q.j_action * base, period)

    # Uncoupled angle shift, with the effective frequency kept inside.
    core_dot = _column([-x for x in dsq]) * f1f2_dot / core
    res0 = periodic_integral(slow_term / core + eps_s2 * core_dot / (2.0 * core_sq), period)

    t_omega1 = _fast_phase_span(q, branch)
    reports = [HybridPhaseReport(
        gamma=gamma_0 + gamma_i.value,
        delta_phi=phi_0.value + phi_i.value,
        gamma_0_part=gamma_0,
        gamma_I_part=gamma_i.value,
        delta_phi_0_part=phi_0.value,
        delta_phi_I_part=phi_i.value,
        gamma_I_approx=eps**2 * q.a2 * q.j_action * x * t_omega1 / (q.a1 * one_minus * root),
        delta_phi_I_approx=-(eps**2) * q.a2 * x * t_omega1 / (q.a1 * one_minus * root),
        elliptic_margin=margin,
        quadratures=(phi_i, gamma_i, phi_0),
        branch=branch,
    ) for x, margin, phi_i, gamma_i, phi_0, (eps, one_minus, root, gamma_0)
        in zip(dsq, margins, res_dphi, res_gamma, res0, heads)]
    return _merged(failed, reports)


def single_gho_phase(loop: LoopSpec, n: int) -> QuadratureResult:
    """Phase of one isolated generalized oscillator around its triple loop:
    the circulation of (2n+1) Z/(4 omega) d(Y/Z)."""
    w_sq = _frequency_sq(loop.points, "frequency squared")
    coeff = (2 * n + 1) * loop.points[:, 2] / (4.0 * np.sqrt(w_sq))
    return closed_line_integral({loop.derived(_differential, _y_over_z_rate, 0): coeff}, loop)


def _mode_product(w1_sq: np.ndarray, w2_sq: np.ndarray, kzz: np.ndarray):
    """omega1^2 omega2^2 - kzz, the product of two coupled oscillators' normal
    modes squared, at each row of the stack kzz = k^2 Z1 Z2 >= 0 (rows,
    samples), from the bare frequencies squared; and the ``ModeCollapse`` of
    each row where it is not positive, so the lower mode squared is not, at
    its first such sample."""
    product = w1_sq * w2_sq - kzz
    return product, failing_rows(product, lambda i, j: ModeCollapse(
        f"lower normal frequency squared is not positive at sample {j}: omega1^2 omega2^2 "
        f"- k^2 Z1 Z2 = {product[i, j]:.3e} (omega1^2 omega2^2 = {w1_sq[j] * w2_sq[j]:.3e}, "
        f"k^2 Z1 Z2 = {kzz[i, j]:.3e})", sample=j))


def _normal_mode_squares(w1_sq: np.ndarray, w2_sq: np.ndarray, kzz: np.ndarray):
    """(upper^2, lower^2, sin^2 beta) of two coupled oscillators at each row of
    the stack kzz whose lower mode stands, and the ``ModeCollapse`` of each
    other row (``_mode_product``); sin^2 beta is 0 where the modes neither
    differ nor couple.  r = sqrt((omega1^2 - omega2^2)^2 + 4 kzz) is a hypot,
    whose square cannot overflow; the upper mode squared is
    (omega1^2 + omega2^2 + r) / 2 and the lower the product over it, which
    keeps its digits where (omega1^2 + omega2^2 - r) / 2 cancels, as it does
    to 0 when omega1^2 and omega2^2 are orders of magnitude apart."""
    product, failed = _mode_product(w1_sq, w2_sq, kzz)
    if failed:
        standing = _standing(len(kzz), failed)
        product, kzz = product[standing], kzz[standing]
    r = np.hypot(w1_sq - w2_sq, 2.0 * np.sqrt(kzz))
    high_sq = 0.5 * (w1_sq + w2_sq + r)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_sq = np.where(r > 0, np.clip((w2_sq - w1_sq + r) / (2.0 * r), 0.0, 1.0), 0.0)
    return high_sq, product / high_sq, sin_sq, failed


def full_quantum_phase(loop: LoopSpec, ks, m: int, n: int) -> list[QuadratureResult | ModeCollapse]:
    """Phase of the fully quantum coupled-oscillator state with m quanta in
    the upper normal mode and n in the lower, as its quadrature.

    ``loop`` is the combined loop of both triples (``combined_parameter_loop``).
    Evaluates the normal-mode connection coefficients sample by sample and
    integrates around it.  Returns, for each coupling of the K block ``ks``,
    its quadrature or its ``ModeCollapse`` where the coupling closes the lower
    mode anywhere along the loop.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    ks = _require_coupling(ks)
    g = loop.derived(_pair_geometry)
    d_y2z2 = loop.derived(_differential, _y_over_z_rate, 3)
    require_positive(g.w_sq, lambda j: EllipticViolation(
        f"a bare triple's frequency squared {np.min(g.w_sq[j]):.3e} at sample {j}", sample=j))
    high_sq, low_sq, sin_sq, failed = _normal_mode_squares(
        g.w_sq[:, 0], g.w_sq[:, 1], _column([k**2 for k in ks]) * g.z1z2)
    high, low = np.sqrt(high_sq), np.sqrt(low_sq)
    cos_sq = 1.0 - sin_sq

    x = loop.points
    t1 = x[:, 2] / 4.0 * ((2 * m + 1) * cos_sq / high + (2 * n + 1) * sin_sq / low)
    t2 = x[:, 5] / 4.0 * ((2 * m + 1) * sin_sq / high + (2 * n + 1) * cos_sq / low)
    return _merged(failed, closed_line_integral({g.d_y1z1: t1, d_y2z2: t2}, loop))


def bo_full_quantum_phase_parts(loop: LoopSpec, ks, m: int, n: int) -> list[
        tuple[QuadratureResult, QuadratureResult] | HolonomyError]:
    """The two quadratures of the slow/fast-separated quantum phase around
    the combined loop: the d(Y1/Z1) part and the d(Y2/Z2) part.

    Here ``n`` counts the fast oscillator's level and ``m`` the slow one's
    (unlike ``full_quantum_phase``, whose ``m`` counts the upper normal
    mode).  Actions are in units of hbar, so callers comparing against the
    hybrid phases set J = m + 1/2 themselves.  Returns, for each coupling of
    the K block ``ks``, its pair or effective-frequency ``EllipticViolation``.
    """
    if m < 0 or n < 0:
        raise ValueError("mode occupation numbers must be nonnegative")
    ks = _require_coupling(ks)
    g = loop.derived(_pair_geometry)
    d_y2z2 = loop.derived(_differential, _y_over_z_rate, 3)
    failed = {}
    omega_sq = _slow_frequency_sq(loop, ks, failed)[2]
    standing = _standing(len(ks), failed)
    if not standing:
        return _merged(failed, [])
    omega = np.sqrt(omega_sq)

    t1 = (2 * n + 1) * g.fast + _column([(2 * m + 1) * ks[i]**2 for i in standing]) * g.back / omega
    t2 = (2 * m + 1) * (loop.points[:, 5] / 4.0) / omega
    parts = zip(closed_line_integral({g.d_y1z1: t1}, loop), closed_line_integral({d_y2z2: t2}, loop))
    return _merged(failed, list(parts))
