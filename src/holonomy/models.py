"""Closed-form model zoo: spin in a magnetic field, generalized harmonic
oscillators, the two hybrid systems, and the coupled-oscillator normal modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModeCollapse, ZeroField, require_positive
from .manifold import DEFAULT_SAMPLES, LoopSpec, _drive_grid, _frequency_sq, _joined, _require_grid
from .quantum_geometry import HamiltonianFamily

_AXIS_EPS = 1e-14


def spin_hamiltonian_family(mu: float = 1.0) -> HamiltonianFamily:
    """The two-level family H(B) = -mu * sigma . B over field space.

    The four entries are filled from -mu * B in the Pauli convention of
    ``pauli_matrices``: H = [[-v3, v1 + i v2], [v1 - i v2, v3]] with v = -mu B.
    """

    def matrices(b: np.ndarray) -> np.ndarray:
        v = -mu * b
        h = np.zeros((len(b), 2, 2), dtype=complex)
        h.real[:, 0, 0] = -v[:, 2]
        h.real[:, 1, 1] = v[:, 2]
        h.real[:, 0, 1] = h.real[:, 1, 0] = v[:, 0]
        h.imag[:, 0, 1] = v[:, 1]
        h.imag[:, 1, 0] = -v[:, 1]
        return h

    return HamiltonianFamily(dim=2, eval=matrices)


def cone_loop(
    theta: float,
    b: float = 1.0,
    period: float = 1.0,
    n_samples: int = DEFAULT_SAMPLES,
    cycles: int = 1,
) -> LoopSpec:
    """Field loop at constant polar angle theta on the sphere of radius b,
    sampled in one vectorised pass."""
    _require_grid(period, n_samples)
    cos, sin = _drive_grid(2.0 * math.pi * cycles / period, period, n_samples)
    st, ct = math.sin(theta), math.cos(theta)
    points = b * np.column_stack([st * cos, st * sin, np.full_like(cos, ct)])
    return LoopSpec(period, points, cycles)


@dataclass(frozen=True)
class SpinFieldModel:
    """A magnetic moment driven around a closed field loop."""

    mu: float
    b_loop: LoopSpec

    def __post_init__(self):
        if self.b_loop.dim != 3:
            raise ValueError("field loop must be 3-dimensional")
        norms = np.linalg.norm(self.b_loop.points, axis=1)
        if not np.all(norms > 0):
            raise ZeroField("field magnitude must stay positive along the loop")

    def family(self) -> HamiltonianFamily:
        return spin_hamiltonian_family(self.mu)


def spin_eigensystem(b: np.ndarray, mu: float = 1.0):
    """Closed-form eigenpairs of -mu * sigma . B, energies (-mu B, +mu B).

    Component ordering is (lower, upper).  On the field axis B1 = B2 = 0 the
    formulas degenerate to 0/0; the values used there are the limits along
    B1 -> 0+, which gives (0, 1) and (1, 0) on the north side and (1, 0),
    (0, -1) on the south side.
    """
    b = np.asarray(b, dtype=float)
    norm = float(np.linalg.norm(b))
    if norm == 0.0:
        raise ZeroField("spin eigensystem undefined at zero field")
    b1, b2, b3 = b
    if math.hypot(b1, b2) <= _AXIS_EPS * norm:
        if b3 > 0:
            v1 = np.array([0.0, 1.0], dtype=complex)
            v2 = np.array([1.0, 0.0], dtype=complex)
        else:
            v1 = np.array([1.0, 0.0], dtype=complex)
            v2 = np.array([0.0, -1.0], dtype=complex)
    else:
        f = b1 + 1j * b2
        v1 = np.array(
            [f / math.sqrt(2.0 * norm * (norm + b3)), math.sqrt((norm + b3) / (2.0 * norm))]
        )
        v2 = np.array(
            [f / math.sqrt(2.0 * norm * (norm - b3)), -math.sqrt((norm - b3) / (2.0 * norm))]
        )
    return (-mu * norm, v1), (mu * norm, v2)


@dataclass(frozen=True)
class SpinEffectiveField:
    """Total field, mixing angle and level energies of the coupled spin."""

    b_tot: float
    theta: float
    e_plus: float
    e_minus: float


def spin_oscillator_effective(b: float, lam: float, q: float, mu: float = 1.0) -> SpinEffectiveField:
    """Effective field seen by the spin at oscillator displacement q.

    b_tot = sqrt(b^2 + lam^2 q^2), cos(theta) = lam q / b_tot, and the level
    energies are +/- mu b_tot.
    """
    if not b > 0:
        raise ValueError("bare field magnitude must be positive")
    b_tot = math.hypot(b, lam * q)
    cos_theta = lam * q / b_tot
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    return SpinEffectiveField(b_tot=b_tot, theta=theta, e_plus=mu * b_tot, e_minus=-mu * b_tot)


def spin_oscillator_weak_expansion(b: float, lam: float, q: float) -> float:
    """Second-order expansion of the total field, b + lam^2 q^2 / (2 b)."""
    if not b > 0:
        raise ValueError("bare field magnitude must be positive")
    return b + (lam * q) ** 2 / (2.0 * b)


@dataclass(frozen=True)
class GHOTriple:
    """One generalized-oscillator parameter triple (X, Y, Z)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.z > 0:
            raise ValueError("Z must be positive")

    @property
    def omega(self) -> float:
        """sqrt(X Z - Y^2); raises ``EllipticViolation`` unless X Z - Y^2 > 0."""
        return math.sqrt(_frequency_sq(np.array([[self.x, self.y, self.z]]), "X Z - Y^2")[0])


def gho_effective_energy(x1: GHOTriple, k: float, q: float, n: int, hbar: float = 1.0) -> float:
    """Level energy of the oscillator shifted by the coupling k q:
    (n + 1/2) hbar omega - Z1 k^2 q^2 / (2 omega^2).
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    w = x1.omega
    return (n + 0.5) * hbar * w - x1.z * k**2 * q**2 / (2.0 * w**2)


@dataclass(frozen=True)
class NormalModeSplit:
    """Mixing angle and frequencies of the two coupled-oscillator normal modes."""

    beta: float
    omega_1: float
    omega_2: float

    def __post_init__(self):
        if not (self.omega_1 >= self.omega_2 > 0):
            raise ValueError("normal frequencies must satisfy omega_1 >= omega_2 > 0")


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


def normal_mode_split(x1: GHOTriple, x2: GHOTriple, k: float) -> NormalModeSplit:
    """Diagonalize two bilinearly coupled generalized oscillators.

    Fails with ``ModeCollapse`` when the coupling pushes the lower mode
    frequency to zero, i.e. when omega_1^2 omega_2^2 <= k^2 Z1 Z2.  At k = 0
    with identical frequencies the mixing angle is taken to be 0.
    """
    squares = np.array([[x1.omega**2], [x2.omega**2], [k**2 * x1.z * x2.z]])
    high, low, sin_sq = (float(v[0]) for v in _normal_mode_squares(*squares))
    return NormalModeSplit(math.asin(math.sqrt(sin_sq)), math.sqrt(high), math.sqrt(low))


@dataclass(frozen=True)
class SpinOscillatorHybrid:
    """A spin in a rotating planar field coupled to one classical oscillator.

    ``loop`` has five columns: the field azimuth embedded as
    (cos phi, sin phi), then the oscillator triple (X, Y, Z), as
    ``spin_oscillator_loop`` joins them.  ``i_plus``/``i_minus`` are the
    spin-level actions and ``j_action`` the oscillator action.
    """

    mu: float
    lam: float
    b_field: float
    loop: LoopSpec
    i_plus: float
    i_minus: float
    j_action: float

    def __post_init__(self):
        if not self.b_field > 0:
            raise ValueError("field magnitude must be positive")
        if self.i_plus < 0 or self.i_minus < 0 or self.j_action < 0:
            raise ValueError("actions must be nonnegative")
        if self.loop.dim != 5:
            raise ValueError(f"expected the five columns (cos phi, sin phi, X, Y, Z), "
                             f"got {self.loop.dim}")


def spin_oscillator_loop(phi_loop: LoopSpec, x_loop: LoopSpec) -> LoopSpec:
    """The five-column loop of ``SpinOscillatorHybrid``: the azimuth circle
    (cos phi, sin phi) beside the oscillator triple (X, Y, Z), which must
    share its sampling and period."""
    if (phi_loop.dim, x_loop.dim) != (2, 3):
        raise ValueError("expected the circle embedding (cos, sin) and the triple (X, Y, Z)")
    return _joined(phi_loop, x_loop)
