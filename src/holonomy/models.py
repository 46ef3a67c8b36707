"""The spin in a magnetic field (its Hamiltonian family and cone field loops)
and the spin-oscillator hybrid with its five-column loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import (DEFAULT_SAMPLES, LoopSpec, _born_with_velocities, _drive_grid,
                       _drive_rates, _joined, _require_grid)
from .quantum_geometry import HamiltonianFamily


def spin_hamiltonian_family(mu: float = 1.0) -> HamiltonianFamily:
    """The two-level family H(B) = -mu * sigma . B over field space.

    Component 1 of a state is the spin-down amplitude and component 2 the
    spin-up one, so sigma_3 = diag(-1, +1), and the four entries are filled
    from -mu * B: H = [[-v3, v1 + i v2], [v1 - i v2, v3]] with v = -mu B.
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
    sampled in one vectorised pass.  It is born with its velocity and (an even
    M) its half velocity: b sin(theta) times its drive's cached interpolant
    derivative beside an exact-zero third column, so it takes no FFT of its
    own unless that product would overflow (``_gho_loop``'s rule)."""
    _require_grid(period, n_samples)
    omega = 2.0 * math.pi * cycles / period
    cos, sin = _drive_grid(omega, period, n_samples)
    st, ct = math.sin(theta), math.cos(theta)
    points = b * np.column_stack([st * cos, st * sin, np.full_like(cos, ct)])
    return _born_with_velocities(LoopSpec(period, points, cycles), (
        np.hstack([r * (b * st), np.zeros((len(r), 1))])
        for r in _drive_rates(omega, period, n_samples)))


@dataclass(frozen=True)
class SpinOscillatorHybrid:
    """A spin in a rotating planar field coupled to one classical oscillator.

    ``loop`` has five columns: the field azimuth embedded as
    (cos phi, sin phi), then the oscillator triple (X, Y, Z), as
    ``spin_oscillator_loop`` joins them.  ``i_plus``/``i_minus`` are the
    spin-level actions and ``j_action`` the oscillator action.
    """

    mu: float
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

    def frequency_shift_at(self, lam: float) -> float:
        """mu lam^2 (I+ - I-) / B at the coupling ``lam``, the population
        imbalance's shift of the oscillator's X in its frequency squared
        (X + shift) Z - Y^2."""
        return self.mu * lam**2 * (self.i_plus - self.i_minus) / self.b_field


def spin_oscillator_loop(phi_loop: LoopSpec, x_loop: LoopSpec) -> LoopSpec:
    """The five-column loop of ``SpinOscillatorHybrid``: the azimuth circle
    (cos phi, sin phi) beside the oscillator triple (X, Y, Z), which must
    share its sampling and period."""
    if (phi_loop.dim, x_loop.dim) != (2, 3):
        raise ValueError("expected the circle embedding (cos, sin) and the triple (X, Y, Z)")
    return _joined(phi_loop, x_loop)
