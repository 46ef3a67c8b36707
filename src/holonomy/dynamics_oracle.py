"""Independent time-domain validators: adiabatic Schrodinger propagation with
geometric-phase extraction, and integration of the driven classical
oscillator with angle-shift extraction.

Both propagators apply the classical fourth-order Runge-Kutta method with a
fixed step to a time-dilated traversal of the loop; parameter values between
samples come from the loop's own band-limited interpolant
(``LoopSpec.upsampled``), the one every quadrature differentiates.
Determinism of step placement makes convergence studies reproducible.

Both equations are linear in the state, y' = A(t) y, so each step is one
fixed matrix y_{i+1} = M_i y_i.  All step matrices are built in one
vectorised pass from A at the step starts and midpoints.  Their running
products are then formed as a blocked prefix scan (Blelloch, "Prefix Sums
and Their Applications", CMU-CS-90-190, 1990): inside each block of
``steps_per_sample`` steps, vectorised across the loop samples, and then
carried from block to block.  That takes ``steps_per_sample + m`` Python
iterations for m loop samples.  Every trace (norms, phases, actions, angles)
is derived from the resulting array of states.  Matrix stacks are stored
batch-last, shape (N, N, ...), so every elementwise operation runs over the
long batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EllipticViolation,
    NonAdiabatic,
    OverlapTooSmall,
    require_gap,
    require_positive,
)
from .manifold import LoopSpec
from .quantum_geometry import HamiltonianFamily, canonical_section_track, eigenframe_along_loop

TWO_PI = 2.0 * math.pi

_ADIABATIC_FIDELITY = 0.99


@dataclass(frozen=True)
class QuantumPropagation:
    """Result of one adiabatic Schrodinger run around a loop."""

    psi_initial: np.ndarray
    psi_final: np.ndarray
    dynamical_phase: float
    norm_drift: float
    slowness: float
    level: int
    phase_track: np.ndarray
    final_fidelity: float


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Result of one driven-oscillator run around a loop."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    action_trace: np.ndarray
    angle_trace: np.ndarray
    dynamical_angle: float
    slowness: float

    @property
    def action_drift(self) -> float:
        j0 = self.action_trace[0]
        return float(np.max(np.abs(self.action_trace / j0 - 1.0)))


def recommended_steps_per_sample(loop: LoopSpec, slowness: float, rate_scale: float = 1.0) -> int:
    """Steps per loop sample keeping the integrator error well under the
    adiabatic error at the given slowness (dilated step ~ 0.7/sqrt(slowness)
    in units of the characteristic rate)."""
    target = 0.7 / (rate_scale * math.sqrt(slowness))
    return max(8, int(math.ceil(slowness * loop.spacing / target)))


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % TWO_PI - math.pi


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a @ b of stacks stored batch-last: a has shape
    (N, N, ...) and b shape (N, K, ...)."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j : j + 1] * b[j : j + 1]
    return out


def _rk4_step_increments(gen: np.ndarray, h: float) -> np.ndarray:
    """Increments D_i = M_i - I of the RK4 steps y_{i+1} = M_i y_i of
    y' = A(t) y.

    ``gen`` is batch-last, shape (N, N, 2n): A at every step start (even
    entries) and midpoint (odd entries) of a closed traversal, so the last
    step ends where the first starts.  With B1 = I + h/2 A0 and
    B2 = I + h/2 A1 B1 each step is
    M = I + h/6 (A0 + 2 A1 B1 + 2 A1 B2 + A2 (I + h A1 B2)).
    The identity is left out: rounding I + D to the stored matrix would bias
    every step's norm the same way on loops of constant spectrum.
    """
    a0 = gen[..., 0::2]
    a1 = gen[..., 1::2]
    eye = np.eye(gen.shape[0])[:, :, None]
    k = _bmm(a1, eye + (0.5 * h) * a0)  # A1 B1
    out = a0 + 2.0 * k
    k = _bmm(a1, eye + (0.5 * h) * k)  # A1 B2
    out += 2.0 * k
    out += _bmm(np.roll(a0, -1, axis=-1), eye + h * k)
    out *= h / 6.0
    return out


def _blocked_states(incs: np.ndarray, y0: np.ndarray, block: int) -> np.ndarray:
    """States y_0 .. y_n of y_{i+1} = (I + D_i) y_i, by a blocked prefix scan.

    ``incs`` holds the D_i batch-last, shape (N, N, n); the result has shape
    (N, n + 1).  The running products inside each block of ``block`` steps
    are formed vectorised across blocks; the block totals then carry the
    state from one block start to the next.
    """
    dim, n = incs.shape[0], incs.shape[-1]
    m = n // block
    # prods[:, :, r, j] is the product of the first r + 1 steps of block j
    prods = incs.reshape(dim, dim, m, block).swapaxes(2, 3).copy()
    prods[:, :, 0] += np.eye(dim)[:, :, None]
    for r in range(1, block):
        prods[:, :, r] = prods[:, :, r - 1] + _bmm(prods[:, :, r], prods[:, :, r - 1])
    starts = np.empty((dim, m), dtype=np.result_type(incs, y0))
    starts[:, 0] = y0
    for j in range(1, m):
        starts[:, j] = prods[:, :, -1, j - 1] @ starts[:, j - 1]
    within = _bmm(prods, starts[:, None, None, :])[:, 0]
    states = np.empty((dim, n + 1), dtype=starts.dtype)
    states[:, 0] = y0
    states[:, 1:] = within.swapaxes(1, 2).reshape(dim, n)
    return states


def propagate_quantum(
    family: HamiltonianFamily,
    loop: LoopSpec,
    k: int,
    slowness: float,
    steps_per_sample: int = 32,
    hbar: float = 1.0,
) -> QuantumPropagation:
    """Integrate the Schrodinger equation while the parameters traverse the
    loop once over a total time of slowness * period.

    The state starts in level ``k``'s eigenvector (canonical gauge).
    ``norm_drift`` sums, over the steps, how far each step moves the norm
    away from 1: |norm ratio of consecutive states - 1|, which equals the
    excess a per-step renormalisation would discard.  The dynamical phase is
    the trapezoid of the tracked level's energy over the full step grid.
    ``phase_track`` holds, at every loop sample, the state's phase relative
    to the canonical eigenvector plus the dynamical phase accumulated so far;
    its unwrapped increments survive many windings and feed
    ``extract_geometric_phase``.
    """
    if not 0 <= k < family.dim:
        raise IndexError(f"level {k} out of range")
    if slowness <= 0 or steps_per_sample < 1:
        raise ValueError("slowness must be positive and steps_per_sample at least 1")
    m = loop.n_segments
    n_steps = m * steps_per_sample
    h = slowness * loop.period / n_steps

    fine = loop.upsampled(2 * steps_per_sample)  # 2 points per step
    gen = family.matrices(fine)
    energies_fine = np.linalg.eigvalsh(gen[::2])  # one per full step
    require_gap(energies_fine, stride=steps_per_sample)

    # reference eigenvectors at the loop samples: the canonical section, or
    # the transport-aligned eigenframe where no component can serve as pivot
    track = eigenframe_along_loop(family, loop).vectors[:, :, k]
    canon = canonical_section_track(track)
    refs = track if canon is None else canon[0]

    gen = np.ascontiguousarray(np.moveaxis(gen, 0, -1)) * (-1j / hbar)  # dpsi/dtau = gen psi
    psi_initial = refs[0].astype(complex)
    states = _blocked_states(_rk4_step_increments(gen, h), psi_initial, steps_per_sample)
    norms = np.linalg.norm(states, axis=0)
    norm_drift = float(np.sum(np.abs(norms[1:] / norms[:-1] - 1.0)))
    psi = states[:, -1] / norms[-1]

    e_level = energies_fine[:, k]
    dyn = np.cumsum(np.concatenate(([0.0], 0.5 * h / hbar * (e_level + np.roll(e_level, -1)))))
    overlaps = np.einsum("ja,aj->j", np.conj(refs), states[:, ::steps_per_sample])
    track = np.angle(overlaps) + dyn[::steps_per_sample]

    fidelity = float(abs(np.vdot(refs[-1], psi)) ** 2)
    if fidelity < _ADIABATIC_FIDELITY:
        raise NonAdiabatic(
            f"final level fidelity {fidelity:.4f} below {_ADIABATIC_FIDELITY}; "
            f"increase the slowness"
        )
    return QuantumPropagation(
        psi_initial=psi_initial,
        psi_final=psi,
        dynamical_phase=float(dyn[-1]),
        norm_drift=norm_drift,
        slowness=slowness,
        level=k,
        phase_track=track,
        final_fidelity=fidelity,
    )


def extract_geometric_phase(prop: QuantumPropagation, initial_state: np.ndarray) -> float:
    """Total phase minus dynamical phase, unwound across multiples of 2*pi.

    The per-sample increments of the propagation's phase track are small in
    the adiabatic regime, so summing their wrapped values preserves windings
    that a single final overlap would fold back into (-pi, pi].
    """
    initial_state = np.asarray(initial_state, dtype=complex)
    overlap = abs(np.vdot(initial_state, prop.psi_final))
    if overlap <= 0.9:
        raise OverlapTooSmall(f"|<initial|final>| = {overlap:.4f} is at or below 0.9")
    base = float(np.angle(np.vdot(initial_state, prop.psi_initial)))
    increments = _wrap_angle(np.diff(prop.phase_track))
    return base + float(prop.phase_track[0]) + float(np.sum(increments))


def action_angle_to_qp(triple: np.ndarray, j_action: float, phi: float) -> tuple[float, float]:
    """Oscillator coordinates for action ``j_action`` and angle ``phi`` at
    frozen parameters (X, Y, Z)."""
    x, y, z = (float(v) for v in triple)
    w_sq = x * z - y**2
    if not w_sq > 0:
        raise EllipticViolation(f"frequency squared {w_sq:.3e} is not positive")
    w = math.sqrt(w_sq)
    amp = math.sqrt(2.0 * z * j_action / w)
    q = amp * math.cos(phi)
    p = -amp * ((y / z) * math.cos(phi) + (w / z) * math.sin(phi))
    return q, p


def propagate_classical(
    x2_loop: LoopSpec,
    initial_qp: tuple[float, float],
    slowness: float,
    steps_per_sample: int = 32,
) -> ClassicalTrajectory:
    """Integrate dQ/dt = Y Q + Z P, dP/dt = -X Q - Y P while the triple
    traverses the loop once over slowness * period.

    The action and angle traces come from inverting the elliptic
    action-angle transform at the frozen instantaneous parameters after every
    step; the angle trace is unwound continuously.  The dynamical angle is
    the trapezoid of the instantaneous frequency over the run.
    """
    if x2_loop.dim != 3:
        raise ValueError("expected a loop of oscillator triples (X, Y, Z)")
    if slowness <= 0 or steps_per_sample < 1:
        raise ValueError("slowness must be positive and steps_per_sample at least 1")
    m = x2_loop.n_segments
    n_steps = m * steps_per_sample
    h = slowness * x2_loop.period / n_steps

    fine = x2_loop.upsampled(2 * steps_per_sample)
    x, y, z = fine.T
    w_sq_fine = x * z - y**2
    per_sample = 2 * steps_per_sample  # fine points per loop sample
    require_positive(w_sq_fine, lambda i: EllipticViolation(
        f"frequency squared vanished between samples ({i // per_sample})", sample=i // per_sample))

    gen = np.array([[y, z], [-x, -y]])
    q, p = _blocked_states(
        _rk4_step_increments(gen, h), np.asarray(initial_qp, dtype=float), steps_per_sample
    )

    # frozen parameters at every step start, the last step ending on the first
    y_at = np.append(y[::2], y[0])
    z_at = np.append(z[::2], z[0])
    omega = np.sqrt(np.append(w_sq_fine[::2], w_sq_fine[0]))
    v = -(z_at * p + y_at * q) / omega
    actions = omega * (q * q + v * v) / (2.0 * z_at)
    raw = np.arctan2(v, q)
    angles = np.cumsum(np.concatenate(([raw[0]], _wrap_angle(np.diff(raw)))))

    dyn = float(h * (0.5 * omega[0] + np.sum(omega[1:-1]) + 0.5 * omega[-1]))
    return ClassicalTrajectory(
        times=np.arange(n_steps + 1) * h,
        q=q,
        p=p,
        action_trace=actions,
        angle_trace=angles,
        dynamical_angle=dyn,
        slowness=slowness,
    )


def extract_hannay_angle(traj: ClassicalTrajectory) -> float:
    """Angle advance beyond the dynamical integral of the instantaneous
    frequency over exactly one loop traversal."""
    return float(traj.angle_trace[-1] - traj.angle_trace[0] - traj.dynamical_angle)
