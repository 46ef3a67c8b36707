"""Independent time-domain validators: adiabatic Schrodinger propagation,
which returns its geometric phase, and integration of the driven classical
oscillator, which returns its Hannay angle.

Both propagators apply the classical fourth-order Runge-Kutta method with a
fixed step to a time-dilated traversal of the loop; parameter values between
samples come from the loop's own band-limited interpolant, the one every
quadrature differentiates (``LoopSpec.upsampled``, grouped by offset for the
classical oscillator).
Determinism of step placement makes convergence studies reproducible.

Both equations are linear in the state, y' = A(t) y, so each step is one
fixed matrix y_{i+1} = M_i y_i.  Their running products are formed as a
blocked prefix scan (Blelloch, "Prefix Sums and Their Applications",
CMU-CS-90-190, 1990): inside each block of ``steps_per_sample`` steps,
vectorised across the loop samples, and then carried from block to block.
That takes ``steps_per_sample + m`` Python iterations for m loop samples.
The scan walks the steps of a block in cache-sized chunks (Lam, Rothberg and
Wolf, "The cache performance and optimizations of blocked algorithms",
ASPLOS 1991): each chunk's step matrices are built from A at its step
starts, midpoints and ends and folded straight into the running products,
so no array of every step's matrix is formed.  Inside a chunk, matrices are
laid out (N, N, step, sample), so every elementwise operation runs over a
whole row of loop samples.  Every trace (norms, phases, actions, angles) is
derived from the resulting array of states.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonAdiabatic, NonFinite, TooManySteps, require_gap
from .manifold import LoopSpec, _frequency_sq, _trapezoid
from .quantum_geometry import (
    EigenFrame,
    HamiltonianFamily,
    _eigh,
    eigenframe_along_loop,
    smooth_track,
)

TWO_PI = 2.0 * math.pi

_ADIABATIC_FIDELITY = 0.99

# Steps per chunk of the RK4 scan, rounded down to whole rows of loop samples.
# For the real 2 x 2 oscillator a chunk's generators take 0.5 MiB and its
# increments and each stage temporary 0.25 MiB, so the chunk's working set
# stays within a core's 2 MiB L2 cache.
_CHUNK_STEPS = 8192

# The most RK4 steps one run may take.  The upsampled loop holds two points
# per step, so this bounds a run's memory before anything is allocated.
_MAX_STEPS = 2**22


@dataclass(frozen=True)
class QuantumPropagation:
    """Result of one adiabatic Schrodinger run around a loop."""

    geometric_phase: float
    psi_final: np.ndarray
    dynamical_phase: float
    norm_drift: float
    phase_track: np.ndarray
    final_fidelity: float
    frame: EigenFrame


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Result of one driven-oscillator run around a loop."""

    hannay_angle: float
    q: np.ndarray
    p: np.ndarray
    action_trace: np.ndarray
    angle_trace: np.ndarray
    dynamical_angle: float

    @property
    def action_drift(self) -> float:
        j0 = self.action_trace[0]
        return float(np.max(np.abs(self.action_trace / j0 - 1.0)))


def recommended_steps_per_sample(loop: LoopSpec, slowness: float, rate_scale: float = 1.0) -> int:
    """Steps per loop sample keeping the integrator error well under the
    adiabatic error at the given slowness (dilated step ~ 0.7/sqrt(slowness)
    in units of the characteristic rate).  Raises ``ValueError`` for a
    slowness or rate scale that is not positive and finite, and ``NonFinite``
    when the characteristic rate rate_scale * sqrt(slowness) or the step
    count itself overflows."""
    for name, value in (("slowness", slowness), ("rate_scale", rate_scale)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    rate = rate_scale * math.sqrt(slowness)
    if math.isinf(rate):
        raise NonFinite(f"rate_scale * sqrt(slowness) overflows: {rate_scale} * sqrt({slowness})")
    target = 0.7 / rate
    steps = slowness * loop.spacing / target
    if math.isinf(steps):
        raise NonFinite(f"steps per sample overflow at slowness {slowness}, rate_scale {rate_scale}")
    return max(8, int(math.ceil(steps)))


def _require_schedule(loop: LoopSpec, slowness: float, steps_per_sample: int) -> None:
    """Check a run's schedule before any of its arrays is allocated."""
    if not (math.isfinite(slowness) and slowness > 0):
        raise ValueError(f"slowness must be positive and finite, got {slowness}")
    if not (isinstance(steps_per_sample, numbers.Integral) and steps_per_sample >= 1):
        raise ValueError(f"steps_per_sample must be a positive integer, got {steps_per_sample!r}")
    n_steps = loop.n_segments * int(steps_per_sample)
    if n_steps > _MAX_STEPS:
        raise TooManySteps(f"{loop.n_segments} samples at {steps_per_sample} steps per sample "
                           f"take {n_steps} steps, more than {_MAX_STEPS}")


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % TWO_PI - math.pi


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a @ b of stacks stored batch-last: a has shape
    (N, N, ...) and b shape (N, K, ...)."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j : j + 1] * b[j : j + 1]
    return out


def _rk4_states(
    generators: Callable[[int, int], np.ndarray], y0: np.ndarray, h: float, block: int, m: int
) -> np.ndarray:
    """States y_0 .. y_n of n = m * block RK4 steps y_{i+1} = M_i y_i of
    y' = A(t) y around a closed traversal, by a blocked prefix scan.

    Step i = j * block + r is step r of loop sample j.  ``generators(lo, hi)``
    returns A at the fine offsets lo .. hi - 1 of every sample, shape
    (N, N, hi - lo, m): offset 2r is the start of step r and 2r + 1 its
    midpoint; the last step of sample j ends at offset 0 of sample j + 1, and
    the last step of all where the first starts.  With B1 = I + h/2 A0 and
    B2 = I + h/2 A1 B1 each step is
    M = I + h/6 (A0 + 2 A1 B1 + 2 A1 B2 + A2 (I + h A1 B2)).

    The scan walks r in chunks of whole offset rows, every sample at once.
    Each chunk's increments D = M - I are folded straight into the running
    products P[:, :, r, j] of the first r + 1 steps of block j; the block
    totals then carry the state from one block start to the next.  The
    identity is kept out of D: rounding I + D to a stored matrix would bias
    every step's norm the same way on loops of constant spectrum.  The result
    has shape (N, n + 1).
    """
    dim = y0.shape[0]
    rows = max(1, _CHUNK_STEPS // m)
    eye = np.eye(dim)[:, :, None, None]
    wrap = np.roll(generators(0, 1), -1, axis=-1)  # offset 0 of the next sample
    prods = np.empty((dim, dim, block, m), dtype=wrap.dtype)
    for r0 in range(0, block, rows):
        r1 = min(r0 + rows, block)
        gen = generators(2 * r0, min(2 * r1 + 1, 2 * block))
        if r1 == block:
            gen = np.concatenate((gen, wrap), axis=2)
        a0, a1 = gen[:, :, 0:-1:2], gen[:, :, 1::2]
        k = _bmm(a1, eye + (0.5 * h) * a0)  # A1 B1
        inc = a0 + 2.0 * k
        k = _bmm(a1, eye + (0.5 * h) * k)  # A1 B2
        inc += 2.0 * k
        inc += _bmm(gen[:, :, 2::2], eye + h * k)
        inc *= h / 6.0
        if r0 == 0:
            prods[:, :, 0] = inc[:, :, 0] + eye[:, :, 0]
        for r in range(max(r0, 1), r1):
            prev = prods[:, :, r - 1]
            np.add(prev, _bmm(inc[:, :, r - r0], prev), out=prods[:, :, r])
    starts = np.empty((dim, m), dtype=np.result_type(prods, y0))
    starts[:, 0] = y0
    for j in range(1, m):
        starts[:, j] = prods[:, :, -1, j - 1] @ starts[:, j - 1]
    states = np.empty((dim, m * block + 1), dtype=starts.dtype)
    states[:, 0] = y0
    within = states[:, 1:].reshape(dim, m, block)
    for r0 in range(0, block, rows):
        r1 = min(r0 + rows, block)
        within[:, :, r0:r1] = _bmm(prods[:, :, r0:r1], starts[:, None, None, :])[:, 0].swapaxes(1, 2)
    return states


def propagate_quantum(
    family: HamiltonianFamily,
    loop: LoopSpec,
    k: int,
    slowness: float,
    steps_per_sample: int = 32,
) -> QuantumPropagation:
    """Integrate the Schrodinger equation while the parameters traverse the
    loop once over a total time of slowness * period.

    Energies are in units of hbar: for a physical hbar, propagate the family
    H/hbar, whose generator, dynamical phase and gap check scale together.

    The state starts in level ``k``'s eigenvector.  The reference
    eigenvectors at the loop samples are ``smooth_track`` of the loop's
    eigenframe, which is returned as ``frame``, so the Wilson phase of the
    same loop needs no second diagonalisation.
    ``norm_drift`` sums, over the steps, how far each step moves the norm
    away from 1: |norm ratio of consecutive states - 1|, which equals the
    excess a per-step renormalisation would discard.  The spectrum at every
    step start (in closed form for two levels, by LAPACK for more) feeds the
    per-step gap check, whose error names the loop sample, and the dynamical
    phase: the trapezoid of the tracked level's energy over the full step grid.
    ``phase_track`` holds, at every loop sample, the state's phase relative
    to the reference eigenvector plus the dynamical phase accumulated so far.
    ``geometric_phase`` is the total phase minus the dynamical phase: the
    track's start plus the sum of its wrapped increments, which are small in
    the adiabatic regime, so it keeps windings that a single final overlap
    would fold back into (-pi, pi].
    """
    if not 0 <= k < family.dim:
        raise IndexError(f"level {k} out of range")
    _require_schedule(loop, slowness, steps_per_sample)
    m = loop.n_segments
    n_steps = m * steps_per_sample
    h = slowness * loop.period / n_steps

    fine = loop.upsampled(2 * steps_per_sample)  # 2 points per step
    gen = family.matrices(fine, stride=2 * steps_per_sample)
    energies_fine = _eigh(gen[::2], vectors=False)  # one per full step
    require_gap(energies_fine, stride=steps_per_sample)

    frame = eigenframe_along_loop(family, loop)
    refs = smooth_track(frame, k)

    by_sample = gen.reshape(m, 2 * steps_per_sample, family.dim, family.dim)

    def generators(lo: int, hi: int) -> np.ndarray:  # dpsi/dtau = gen psi
        return np.ascontiguousarray(by_sample[:, lo:hi].transpose(2, 3, 1, 0)) * -1j

    states = _rk4_states(generators, refs[0].astype(complex), h, steps_per_sample, m)
    norms = np.linalg.norm(states, axis=0)
    norm_drift = float(np.sum(np.abs(norms[1:] / norms[:-1] - 1.0)))
    psi = states[:, -1] / norms[-1]

    e_level = energies_fine[:, k]
    dyn = np.cumsum(np.concatenate(([0.0], 0.5 * h * (e_level + np.roll(e_level, -1)))))
    overlaps = np.einsum("ja,aj->j", np.conj(refs), states[:, ::steps_per_sample])
    track = np.angle(overlaps) + dyn[::steps_per_sample]

    fidelity = float(abs(np.vdot(refs[-1], psi)) ** 2)
    if not fidelity >= _ADIABATIC_FIDELITY:
        raise NonAdiabatic(
            f"final level fidelity {fidelity:.4f} below {_ADIABATIC_FIDELITY}; "
            f"increase the slowness"
        )
    return QuantumPropagation(
        geometric_phase=float(track[0]) + float(np.sum(_wrap_angle(np.diff(track)))),
        psi_final=psi,
        dynamical_phase=float(dyn[-1]),
        norm_drift=norm_drift,
        phase_track=track,
        final_fidelity=fidelity,
        frame=frame,
    )


def action_angle_to_qp(triple: np.ndarray, j_action: float, phi: float) -> tuple[float, float]:
    """Oscillator coordinates for action ``j_action`` and angle ``phi`` at
    frozen parameters (X, Y, Z).  Raises ``NonFinite`` when the amplitude
    sqrt(2 Z J / omega) underflows to 0 or q or p overflows."""
    if not (math.isfinite(j_action) and j_action > 0):
        raise ValueError(f"j_action must be positive and finite, got {j_action}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    x, y, z = (float(v) for v in triple)
    w = math.sqrt(_frequency_sq(np.array([[x, y, z]]), "frequency squared")[0])
    amp = math.sqrt(2.0 * z * j_action / w)
    q = amp * math.cos(phi)
    p = -amp * ((y / z) * math.cos(phi) + (w / z) * math.sin(phi))
    if not (amp > 0.0 and math.isfinite(q) and math.isfinite(p)):
        raise NonFinite(f"amplitude {amp} gives (q, p) = ({q}, {p}) out of floating-point range")
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
    the trapezoid of the instantaneous frequency over the run, and
    ``hannay_angle`` the angle's advance beyond it over the one traversal.
    """
    if x2_loop.dim != 3:
        raise ValueError("expected a loop of oscillator triples (X, Y, Z)")
    _require_schedule(x2_loop, slowness, steps_per_sample)
    qp0 = np.asarray(initial_qp, dtype=float)
    if qp0.shape != (2,) or not (np.all(np.isfinite(qp0)) and np.any(qp0)):
        raise ValueError(f"initial_qp must be a finite, nonzero (q, p) pair, got {initial_qp}")
    m = x2_loop.n_segments
    n_steps = m * steps_per_sample
    h = slowness * x2_loop.period / n_steps

    planes = x2_loop._offset_planes(2 * steps_per_sample)  # (offset, coordinate, sample)
    w_sq = _frequency_sq(planes.transpose(2, 0, 1), "frequency squared between samples")

    def generators(lo: int, hi: int) -> np.ndarray:
        x, y, z = planes[lo:hi].transpose(1, 0, 2)
        return np.array([[y, z], [-x, -y]])

    q, p = _rk4_states(generators, qp0, h, steps_per_sample, m)

    # frozen parameters at every step start, in step order, the last step
    # ending on the first; values are laid out (sample, offset)
    def at_starts(values: np.ndarray) -> np.ndarray:
        return np.append(values[:, ::2], values[0, 0])

    y_at = at_starts(planes[:, 1].T)
    z_at = at_starts(planes[:, 2].T)
    omega = np.sqrt(at_starts(w_sq))
    v = -(z_at * p + y_at * q) / omega
    actions = omega * (q * q + v * v) / (2.0 * z_at)
    raw = np.arctan2(v, q)
    angles = np.cumsum(np.concatenate(([raw[0]], _wrap_angle(np.diff(raw)))))
    dyn = _trapezoid(omega, slowness * x2_loop.period)

    return ClassicalTrajectory(
        hannay_angle=float(angles[-1] - angles[0] - dyn),
        q=q,
        p=p,
        action_trace=actions,
        angle_trace=angles,
        dynamical_angle=dyn,
    )

