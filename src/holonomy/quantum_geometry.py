"""Eigenframes along loops, Wilson-loop geometric phases, the map from
quantum states to canonical coordinates, action-angle variables, and the
angle-averaged one-form.

Sign conventions
----------------
Phases follow gamma_k = i * (circulation of <E_k|dE_k>), which makes the
geometric phase of the lower spin level on the unit equatorial field loop
equal to -pi, and the associated angle shift Delta_theta_k = -gamma_k = +pi.

Branch convention
-----------------
The Wilson loop fixes a phase only modulo 2*pi.  Values are unreduced by
tracking the eigenvector phase in the canonical gauge that keeps the
highest-index usable component real positive; for two-level systems this is
the gauge that is smooth away from the "south" degeneracy, so level-2 angles
such as pi*(1 + cos(theta)) come out on the branch in (0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GapTooSmall,
    HermiticityViolation,
    NonFinite,
    NotNormalized,
    NotUnitary,
    OverlapTooSmall,
    PoleProximity,
    relative_gap_tol,
    require_gap,
    require_positive,
)
from .manifold import LoopSpec, closed_line_integral

TWO_PI = 2.0 * math.pi

_PIVOT_FLOOR = 1e-3
_FD_STEP_FLOOR = 1e-8
_FD_STEP_REL = 1e-6
_THETA_GRID = 8  # exact angle average for trigonometric degree < 8


@dataclass(frozen=True)
class HamiltonianFamily:
    """A parameterized family X -> H(X) of N x N Hermitian matrices.

    ``eval`` maps one parameter point to one matrix.  The optional ``batch``
    maps an (n, d) array of points to the (n, N, N) stack in one call; when
    given, ``matrices`` uses it instead of evaluating point by point.  Every
    evaluated matrix must be finite and Hermitian within ``hermiticity_tol``.
    A non-finite matrix raises ``NonFinite`` with its sample index in place of
    the floating-point warning that produced it, so evaluation runs with
    numpy's floating-point warnings off.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    hermiticity_tol: float = 1e-10
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def matrix(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            h = np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=complex)
        if h.shape != (self.dim, self.dim):
            raise ValueError(f"family returned shape {h.shape}, expected {(self.dim,)*2}")
        return self._checked(h[None])[0]

    def matrices(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        shape = (pts.shape[0], self.dim, self.dim)
        with np.errstate(all="ignore"):
            if self.batch is not None:
                out = np.asarray(self.batch(pts), dtype=complex)
                if out.shape != shape:
                    raise ValueError(
                        f"batch evaluator returned shape {out.shape}, expected {shape}"
                    )
            else:
                out = np.empty(shape, dtype=complex)
                for j, x in enumerate(pts):
                    out[j] = np.asarray(self.eval(x), dtype=complex)
        return self._checked(out)

    def _checked(self, out: np.ndarray) -> np.ndarray:
        finite = np.isfinite(out)
        if not finite.all():
            j = int(np.argmin(finite.all(axis=(1, 2))))
            raise NonFinite(f"family matrix at sample {j} is not finite", sample=j)
        dev = float(np.max(np.abs(out - np.conj(np.swapaxes(out, 1, 2)))))
        if dev > self.hermiticity_tol:
            raise HermiticityViolation(
                f"max |H - H^dagger| = {dev:.3e} exceeds {self.hermiticity_tol:.1e}"
            )
        return out


@dataclass(frozen=True)
class EigenFrame:
    """Gauge-aligned eigenvalue/eigenvector path along a closed loop.

    ``vectors[j][:, k]`` is the k-th eigenvector at sample j; consecutive
    samples are phase-aligned so their overlaps are real nonnegative.  The
    last sample is aligned to its predecessor, not forced back onto sample 0:
    the residual closure phase is the holonomy.
    """

    loop: LoopSpec
    energies: np.ndarray
    vectors: np.ndarray
    min_gap: float


def eigenframe_along_loop(
    family: HamiltonianFamily, loop: LoopSpec, gap_tol: float | None = None
) -> EigenFrame:
    """Diagonalize the family at every loop sample and align the gauge.

    Raises ``GapTooSmall`` at the sample where adjacent levels come closest,
    when that gap is below ``gap_tol`` (default 1e-9 times the spectral
    scale), and ``NonFinite`` at the first sample whose matrix is not finite.
    """
    h = family.matrices(loop.points)
    energies, vectors = np.linalg.eigh(h)
    tol = gap_tol if gap_tol is not None else relative_gap_tol(energies)
    min_gap = require_gap(energies, tol)

    resid = np.einsum("jab,jbk->jak", h, vectors) - vectors * energies[:, None, :]
    if float(np.max(np.abs(resid))) > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
        raise ArithmeticError("eigendecomposition residual above tolerance")

    align_gauge(vectors)
    return EigenFrame(loop=loop, energies=energies, vectors=vectors, min_gap=min_gap)


def align_gauge(vectors: np.ndarray) -> np.ndarray:
    """Rephase an (n, N, K) stack of eigenvector columns, in place, so that
    consecutive samples have real nonnegative overlaps.

    Sample j's factor is the conjugated product of the raw consecutive
    overlap phases up to j (the link variables of Fukui, Hatsugai and Suzuki,
    J. Phys. Soc. Jpn. 74, 1674 (2005)), so one cumulative product aligns
    every sample at once.  A product of unit phasors, renormalised, keeps the
    rounding near machine precision; a cumulative sum of angles would not,
    because eigh may flip a vector's sign at every sample and the sum then
    reaches thousands of radians.  A zero overlap has no phase: its link is
    1, masked explicitly because ``np.angle(-0.0 + 0j)`` is pi.
    """
    ov = np.einsum("jnk,jnk->jk", np.conj(vectors[:-1]), vectors[1:])
    links = np.exp(1j * np.where(np.abs(ov) > 0, np.angle(ov), 0.0))
    factors = np.conj(np.cumprod(links, axis=0))
    vectors[1:] *= (factors / np.abs(factors))[:, None, :]
    return vectors


def section_pivot(track: np.ndarray) -> int | None:
    """Pick the gauge-fixing component for one level's eigenvector track.

    Returns the highest component index whose modulus stays above a floor
    along the whole track, or None when every component dips too low.
    """
    floor = np.min(np.abs(track), axis=0)
    viable = np.nonzero(floor > _PIVOT_FLOOR)[0]
    return int(viable[-1]) if viable.size else None


def canonical_section_track(track: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Rotate each vector so the pivot component is real positive.

    The result depends only on the rays, so it is gauge invariant.  Returns
    None when no component is usable as a pivot.
    """
    pivot = section_pivot(track)
    if pivot is None:
        return None
    ph = track[:, pivot]
    return track * np.conj(ph / np.abs(ph))[:, None], pivot


def _links(track: np.ndarray) -> np.ndarray:
    """Consecutive overlaps <v_j|v_j+1> of one level's track, then the closing
    <v_m|v_0>; ``OverlapTooSmall`` at the first that vanishes (or is NaN)."""
    links = np.empty(track.shape[0], dtype=complex)
    links[:-1] = np.einsum("jn,jn->j", np.conj(track[:-1]), track[1:])
    links[-1] = np.vdot(track[-1], track[0])
    mod = np.abs(links)
    require_positive(mod, lambda j: OverlapTooSmall(
        f"eigenvector overlap {mod[j]:.3e} between samples {j} and {(j + 1) % len(links)}",
        sample=j))
    return links


def _accumulated_section_phase(track: np.ndarray) -> float | None:
    canon = canonical_section_track(track)
    if canon is None:
        return None
    angles = np.angle(_links(canon[0]))
    return -(float(np.sum(angles[:-1])) + float(angles[-1]))


def _reduced_wilson_phase(track: np.ndarray) -> float:
    links = _links(track)
    return -float(np.angle(np.prod(links / np.abs(links))))


def berry_and_hannay(frame: EigenFrame, k: int) -> tuple[float, float]:
    """Geometric phase and angle shift of level ``k`` around the frame's loop.

    The magnitude modulo 2*pi is the gauge-invariant discrete Wilson loop
    (product of consecutive overlaps plus the closing overlap).  The 2*pi
    branch is fixed by the canonical-section tracking described in the module
    docstring; when no section pivot exists the value falls back to the
    reduced phase unwound by the loop's cycle count.  The angle shift is the
    exact negation of the phase.
    """
    if not 0 <= k < frame.vectors.shape[2]:
        raise IndexError(f"level {k} out of range for {frame.vectors.shape[2]} levels")
    track = frame.vectors[:, :, k]
    gamma_red = _reduced_wilson_phase(track)
    gamma_acc = _accumulated_section_phase(track)
    if gamma_acc is not None:
        winding = round((gamma_acc - gamma_red) / TWO_PI)
        gamma = gamma_red + TWO_PI * winding
    else:
        gamma = gamma_red
        cycles = frame.loop.cycles
        m = track.shape[0] - 1
        if cycles > 1 and m % cycles == 0:
            base = m // cycles
            gamma_base = _reduced_wilson_phase(track[: base + 1])
            winding = round((cycles * gamma_base - gamma_red) / TWO_PI)
            gamma = gamma_red + TWO_PI * winding
    return gamma, -gamma


def spin_hannay_closed_form(loop: LoopSpec, level: int) -> float:
    """Angle shift of a two-level magnetic system from its closed-form connection.

    ``loop`` lives in field space (B1, B2, B3); ``level`` is 1 (lower) or 2
    (upper).  The connection has a pole where B3 = -B (level 1) or B3 = +B
    (level 2); loops closer than 1e-6 * B to a pole are rejected.  The points
    are first scaled by the power of two that brings max |B_i| into [1/2, 1),
    so the squares neither overflow nor underflow (and the value is unchanged).
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    if loop.dim != 3:
        raise ValueError("field loop must be 3-dimensional")
    exponent = np.frexp(np.max(np.abs(loop.points)))[1]
    loop = LoopSpec(loop.period, loop.times, np.ldexp(loop.points, -exponent), loop.cycles)
    b1, b2, b3 = loop.points.T
    b = np.sqrt(b1**2 + b2**2 + b3**2)
    sign = 1.0 if level == 1 else -1.0
    denom_core = b + sign * b3
    if np.any(denom_core <= 1e-6 * b):
        raise PoleProximity(
            f"loop approaches the level-{level} connection pole (min margin "
            f"{float(np.min(denom_core / b)):.2e} of |B|)"
        )
    denom = 2.0 * b * denom_core
    coeffs = np.column_stack([b2 / denom, -b1 / denom, np.zeros_like(b)])
    return -closed_line_integral(coeffs, loop).value


def classicalize(psi: np.ndarray, hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Split a state's components into canonical pairs psi_n = (q_n + i p_n)/sqrt(2 hbar).

    Returns (q, p, sum(p^2 + q^2)); the last entry equals 2 hbar ||psi||^2 and
    doubles as a normalization check.
    """
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ValueError("state must be finite")
    root = math.sqrt(2.0 * hbar)
    q = root * np.real(psi)
    p = root * np.imag(psi)
    return q, p, float(np.sum(p**2 + q**2))


@dataclass(frozen=True)
class StokesVector:
    """The unit vector representing a normalized two-level pure state."""

    s1: float
    s2: float
    s3: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli matrices in the component ordering (lower, upper) used here.

    Component 1 of a state is the spin-down amplitude and component 2 the
    spin-up amplitude, so sigma_3 is diag(-1, +1).
    """
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    s3 = np.array([[-1, 0], [0, 1]], dtype=complex)
    return s1, s2, s3


def stokes_vector(
    psi: np.ndarray,
    hbar: float = 1.0,
    field: np.ndarray | None = None,
    mu: float = 1.0,
) -> StokesVector:
    """Stokes components of a normalized two-level state.

    With ``field`` given, additionally verifies that the classical energy
    -mu * S . B reproduces the quantum expectation of the spin Hamiltonian.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("stokes_vector expects a two-component state")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) >= 1e-10:
        raise NotNormalized(f"|psi| = {norm} is not 1 within 1e-10")
    q, p, _ = classicalize(psi, hbar)
    s = StokesVector(
        s1=float((q[0] * q[1] + p[0] * p[1]) / hbar),
        s2=float((p[0] * q[1] - p[1] * q[0]) / hbar),
        s3=float((p[1] ** 2 + q[1] ** 2 - p[0] ** 2 - q[0] ** 2) / (2.0 * hbar)),
    )
    if field is not None:
        b = np.asarray(field, dtype=float)
        classical = -mu * float(s.array @ b)
        sx, sy, sz = pauli_matrices()
        h = -mu * (b[0] * sx + b[1] * sy + b[2] * sz)
        quantum = float(np.real(np.vdot(psi, h @ psi)))
        if abs(classical - quantum) > 1e-10 * max(1.0, abs(quantum)):
            raise ArithmeticError(
                f"classical energy {classical!r} disagrees with quantum {quantum!r}"
            )
    return s


@dataclass(frozen=True)
class ActionAngle:
    """Action-angle coordinates of a state in an instantaneous eigenbasis."""

    actions: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        actions = np.asarray(self.actions, dtype=float)
        angles = np.mod(np.asarray(self.angles, dtype=float), TWO_PI)
        if np.any(actions < 0):
            raise ValueError("actions must be nonnegative")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "angles", angles)


def _require_unitary(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    n = c.shape[0]
    dev = float(np.max(np.abs(c.conj().T @ c - np.eye(n))))
    if dev > 1e-10:
        raise NotUnitary(f"max |C^dagger C - I| = {dev:.3e} exceeds 1e-10")
    return c


def action_angle_transform(psi: np.ndarray, eigenvectors: np.ndarray, hbar: float = 1.0) -> ActionAngle:
    """Map a state onto (I, theta) in the eigenbasis whose columns are given.

    I_k = hbar * |<E_k|psi>|^2 and theta_k = -arg <E_k|psi> modulo 2*pi, so
    the actions sum to hbar times the squared norm of the state.
    """
    c = _require_unitary(eigenvectors)
    amps = c.conj().T @ np.asarray(psi, dtype=complex)
    actions = hbar * np.abs(amps) ** 2
    angles = np.mod(-np.angle(amps), TWO_PI)
    return ActionAngle(actions=actions, angles=angles)


def reconstruct(aa: ActionAngle, eigenvectors: np.ndarray, hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``action_angle_transform``: back to canonical (q, p)."""
    c = _require_unitary(eigenvectors)
    amps = np.sqrt(aa.actions / hbar) * np.exp(-1j * aa.angles)
    psi = c @ amps
    q, p, _ = classicalize(psi, hbar)
    return q, p


def _sorted_eigvecs_checked(family: HamiltonianFamily, x: np.ndarray, gap_tol: float):
    energies, vectors = np.linalg.eigh(family.matrix(x))
    require_gap(energies, gap_tol)
    return energies, vectors


def _canonicalize_columns(c: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    out = c.copy()
    for k, piv in enumerate(pivots):
        z = out[piv, k]
        if abs(z) == 0.0:
            raise GapTooSmall(sample=0, level=k, gap=0.0, tol=0.0)
        out[:, k] *= np.conj(z) / abs(z)
    return out


def _fd_eigvec_triplet(family: HamiltonianFamily, x: np.ndarray, dx: np.ndarray):
    """Canonically gauged eigenvector matrices at x and x +/- h along dx."""
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    norm_dx = float(np.linalg.norm(dx))
    if norm_dx == 0.0:
        raise ValueError("dx must be nonzero")
    unit = dx / norm_dx
    h = max(_FD_STEP_REL * float(np.linalg.norm(x)), _FD_STEP_FLOOR)
    e0, c0 = np.linalg.eigh(family.matrix(x))
    tol = relative_gap_tol(e0)
    require_gap(e0, tol)
    _, cp = _sorted_eigvecs_checked(family, x + h * unit, tol)
    _, cm = _sorted_eigvecs_checked(family, x - h * unit, tol)
    pivots = np.argmax(np.abs(c0), axis=0)
    c0 = _canonicalize_columns(c0, pivots)
    cp = _canonicalize_columns(cp, pivots)
    cm = _canonicalize_columns(cm, pivots)
    return c0, cp, cm, h, norm_dx


def finite_difference_connection(
    family: HamiltonianFamily, x: np.ndarray, dx: np.ndarray
) -> np.ndarray:
    """Per-level values of i <E_k | d E_k> contracted with dx.

    Central finite differences in the canonical gauge; used as the reference
    side of the angle-average identity.
    """
    c0, cp, cm, h, norm_dx = _fd_eigvec_triplet(family, x, dx)
    deriv = (cp - cm) / (2.0 * h)
    conn = np.einsum("nk,nk->k", np.conj(c0), deriv)
    return np.real(1j * conn) * norm_dx


def theta_averaged_one_form(
    family: HamiltonianFamily,
    actions: np.ndarray,
    x: np.ndarray,
    dx: np.ndarray,
) -> float:
    """Angle-averaged one-form <p dq> evaluated on the direction dx.

    The average runs over a uniform grid of 8 points per angle, which is
    exact for the degree-2 trigonometric integrand; the parametric derivative
    of q uses central differences with step max(1e-6 |x|, 1e-8).  Actions
    enter in absolute units: q and p carry sqrt(2 I_k).
    """
    actions = np.asarray(actions, dtype=float)
    n = family.dim
    if actions.shape != (n,):
        raise ValueError(f"expected {n} actions, got shape {actions.shape}")
    if np.any(actions < 0):
        raise ValueError("actions must be nonnegative")
    c0, cp, cm, h, norm_dx = _fd_eigvec_triplet(family, x, dx)

    grid = np.indices((_THETA_GRID,) * n).reshape(n, -1).T * (TWO_PI / _THETA_GRID)
    cos_t = np.cos(grid) * np.sqrt(2.0 * actions)[None, :]
    sin_t = np.sin(grid) * np.sqrt(2.0 * actions)[None, :]

    def q_of(c: np.ndarray) -> np.ndarray:
        return cos_t @ np.real(c).T + sin_t @ np.imag(c).T

    p0 = cos_t @ np.imag(c0).T - sin_t @ np.real(c0).T
    dq = (q_of(cp) - q_of(cm)) / (2.0 * h)
    return float(np.mean(np.einsum("gn,gn->g", p0, dq))) * norm_dx
