"""Eigenframes along loops, Wilson-loop geometric phases, the closed-form
two-level connection, and the angle-averaged one-form identity.

Sign conventions
----------------
Phases follow gamma_k = i * (circulation of <E_k|dE_k>), which makes the
geometric phase of the lower spin level on the unit equatorial field loop
equal to -pi, and the associated angle shift Delta_theta_k = -gamma_k = +pi.

Branch convention
-----------------
The Wilson loop fixes a phase only modulo 2*pi.  Values are unreduced by
summing the link angles of one smooth, single-valued gauge, ``smooth_track``:
the canonical gauge that keeps the highest-index usable component real
positive.  For two-level systems this is the gauge that is smooth away from
the "south" degeneracy, so level-2 angles such as pi*(1 + cos(theta)) come
out on the branch in (0, 2*pi).  Where every component dips too low, the
parallel-transport gauge with its holonomy spread evenly over the samples
takes its place.  The adiabatic oracle takes its reference eigenvectors from
the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GapTooSmall,
    HermiticityViolation,
    NonFinite,
    OverlapTooSmall,
    PoleProximity,
    ResidualTooLarge,
    require_gap,
    require_positive,
)
from .manifold import LoopSpec, _block_of, closed_line_integral

TWO_PI = 2.0 * math.pi

_PIVOT_FLOOR = 1e-3
_FD_STEP_FLOOR = 1e-8
_FD_STEP_REL = 1e-6
_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class HamiltonianFamily:
    """A parameterized family X -> H(X) of N x N Hermitian matrices.

    ``eval`` maps an (n, d) array of parameter points to the (n, N, N) stack
    of their matrices in one call; a per-point function ``f`` becomes one as
    ``lambda pts: np.stack([f(x) for x in pts])``.  ``matrices`` takes any
    stack of points (M, ..., d) whose axis 0 is the loop sample, hands
    ``eval`` the points flattened in order and returns (M, ..., N, N).
    Every evaluated matrix must be finite and Hermitian within 1e-10.  A
    non-finite matrix raises ``NonFinite`` with its index on axis 0 in place
    of the floating-point warning that produced it, so evaluation runs with
    numpy's floating-point warnings off.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return self.matrices(np.asarray(x, dtype=float)[None])[0]

    def matrices(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        flat = pts.reshape(-1, pts.shape[-1])
        shape = (flat.shape[0], self.dim, self.dim)
        with np.errstate(all="ignore"):
            out = np.asarray(self.eval(flat), dtype=complex)
        if out.shape != shape:
            raise ValueError(f"family returned shape {out.shape}, expected {shape}")
        finite = np.isfinite(out)
        if not finite.all():
            j = int(np.unravel_index(np.argmin(finite.all(axis=(1, 2))), pts.shape[:-1])[0])
            raise NonFinite(f"family matrix at sample {j} is not finite", sample=j)
        dev = _hermitian_deviation(out)
        if dev > _HERMITICITY_TOL:
            raise HermiticityViolation(
                f"max |H - H^dagger| = {dev:.3e} exceeds {_HERMITICITY_TOL:.1e}"
            )
        return out.reshape(pts.shape[:-1] + shape[1:])


def _hermitian_deviation(h: np.ndarray) -> float:
    """max |H - H^dagger| over an (n, N, N) stack, one pass over the sample
    axis per entry (i, j) with i <= j.  Entry (j, i) of H - H^dagger is minus
    the conjugate of entry (i, j), so its modulus is the same bit for bit."""
    n = h.shape[-1]
    return max(float(np.max(np.abs(h[:, i, j] - np.conj(h[:, j, i]))))
               for i in range(n) for j in range(i, n))


@dataclass(frozen=True)
class EigenFrame:
    """Eigenvalue/eigenvector path along a closed loop.

    ``vectors[j][:, k]`` is the k-th eigenvector at sample j, as the
    diagonalisation returns it: each sample's phase is arbitrary.
    ``smooth_track`` puts one level into a smooth gauge.
    """

    loop: LoopSpec
    energies: np.ndarray
    vectors: np.ndarray
    min_gap: float


def _eigh(h: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues (..., N) of a stack (..., N, N) of Hermitian
    matrices, and with ``vectors`` their eigenvectors as columns, like
    ``np.linalg.eigh``; a loop sample on axis 0 stays on axis 0.

    Both read the lower triangle.  A 2 x 2 stack is solved in closed form:
    with m = (a + d)/2, c = (a - d)/2 and r = hypot(c, |b|) for
    H = [[a, b], [conj(b), d]], the eigenvalues are m -/+ r.  The lower
    eigenvector (x, y) is the larger of the two null-space candidates of
    H - (m - r), (b, -(c + r)) for c >= 0 and (c - r, conj(b)) otherwise, so
    its norm hypot(|b|, |c| + r) is at least r; the upper one is
    (-conj(y), conj(x)), orthogonal by construction.  At an exact degeneracy
    (r = 0) the basis is the identity, so the gap check, not a 0/0, reports
    it.  Larger stacks go to LAPACK.
    """
    if h.shape[-1] != 2:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    a = h[..., 0, 0].real
    d = h[..., 1, 1].real
    b = np.conj(h[..., 1, 0])
    abs_b = np.abs(b)
    mid = 0.5 * (a + d)
    half = 0.5 * (a - d)
    r = np.hypot(half, abs_b)
    energies = np.stack([mid - r, mid + r], axis=-1)
    if not vectors:
        return energies
    upper_half = half >= 0
    x = np.where(upper_half, b, half - r)
    y = np.where(upper_half, -(half + r), np.conj(b))
    norm = np.hypot(abs_b, np.abs(half) + r)
    degenerate = norm == 0
    x[degenerate] = 1.0
    norm[degenerate] = 1.0
    x /= norm
    y /= norm
    vecs = np.empty(h.shape, dtype=complex)
    vecs[..., 0, 0] = x
    vecs[..., 1, 0] = y
    vecs[..., 0, 1] = -np.conj(y)
    vecs[..., 1, 1] = np.conj(x)
    return energies, vecs


def _residuals(h: np.ndarray, energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Moduli |(H v_k - E_k v_k)_a| of an (n, N, N) stack of eigenpairs, as an
    (N * N, n) array whose row a * N + k holds entry a of level k.

    Each row is one pass over the sample axis that sums h_ab v_bk with b
    ascending; numpy's batched products (einsum, matmul) run a loop per tiny
    matrix and take several times as long.
    """
    n = h.shape[-1]
    out = np.empty((n * n, h.shape[0]))
    for a in range(n):
        for k in range(n):
            r = h[:, a, 0] * vectors[:, 0, k]
            for b in range(1, n):
                r += h[:, a, b] * vectors[:, b, k]
            r -= vectors[:, a, k] * energies[:, k]
            np.abs(r, out=out[a * n + k])
    return out


def eigenframe_along_loop(family: HamiltonianFamily, loop: LoopSpec) -> EigenFrame:
    """Diagonalize the family at every loop sample.

    Two-level families are diagonalised in closed form and larger ones by
    LAPACK (``_eigh``); the residual |H v - E v| of every eigenpair is checked
    entry by entry against 1e-9 times the matrix scale either way, and
    ``ResidualTooLarge`` names the sample and level of the largest.  Raises
    ``GapTooSmall`` at the sample where adjacent levels come closest, when
    that gap is below 1e-9 times the spectral scale, and ``NonFinite`` at the
    first sample whose matrix is not finite.
    """
    h = family.matrices(loop.points)
    energies, vectors = _eigh(h)
    min_gap = require_gap(energies)

    resid = _residuals(h, energies, vectors)
    worst = float(np.max(resid))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(h))))
    if worst > tol:
        row, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
        raise ResidualTooLarge(
            f"eigenpair residual {worst:.3e} of level {row % family.dim} at sample {j} "
            f"exceeds {tol:.3e}", sample=int(j))

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
    along the whole track, or None when every component dips too low.  The
    columns are tried from the highest down, each reduced on its own: numpy
    reduces a narrow (M + 1, N) array along axis 0 about ten times slower.
    """
    for n in reversed(range(track.shape[1])):
        if np.min(np.abs(track[:, n])) > _PIVOT_FLOOR:
            return n
    return None


def canonical_section_track(track: np.ndarray) -> np.ndarray | None:
    """Rotate each vector so the pivot component is real positive.

    The result depends only on the rays, so it is gauge invariant.  Returns
    None when no component is usable as a pivot.
    """
    pivot = section_pivot(track)
    if pivot is None:
        return None
    ph = track[:, pivot]
    return track * np.conj(ph / np.abs(ph))[:, None]


def smooth_track(frame: EigenFrame, k: int) -> np.ndarray:
    """Level ``k``'s eigenvectors along the frame's loop, shape (M + 1, N), in
    a gauge that is smooth and single-valued: sample M equals sample 0.

    Where a section pivot exists this is the canonical section.  Otherwise it
    is the parallel-transport track (``align_gauge``), whose last sample
    carries the holonomy: its closing phase theta, unwound on a multi-cycle
    loop to the nearest 2*pi of ``cycles`` times the first base cycle's, is
    spread evenly over the samples, sample j rotated by exp(-i theta j / M).
    """
    if not 0 <= k < frame.vectors.shape[2]:
        raise IndexError(f"level {k} out of range for {frame.vectors.shape[2]} levels")
    canon = canonical_section_track(frame.vectors[:, :, k])
    if canon is not None:
        return canon
    track = align_gauge(frame.vectors[:, :, k:k + 1].copy())[:, :, 0]
    m = track.shape[0] - 1
    theta = -float(np.angle(np.vdot(track[m], track[0])))
    cycles = frame.loop.cycles
    if cycles > 1 and m % cycles == 0:
        theta_base = -float(np.angle(np.vdot(track[m // cycles], track[0])))
        theta += TWO_PI * round((cycles * theta_base - theta) / TWO_PI)
    return track * np.exp(-1j * theta * np.arange(m + 1) / m)[:, None]


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


def berry_and_hannay(frame: EigenFrame, k: int) -> tuple[float, float]:
    """Geometric phase and angle shift of level ``k`` around the frame's loop.

    The phase is the discrete Wilson loop: minus the summed angles of the
    consecutive overlaps, closing overlap included, of ``smooth_track``.  Its
    value modulo 2*pi is gauge invariant; the smooth gauge fixes the 2*pi
    branch, as the module docstring describes.  The angle shift is the exact
    negation of the phase.
    """
    gamma = -float(np.sum(np.angle(_links(smooth_track(frame, k)))))
    return gamma, -gamma


def spin_hannay_closed_form(loop: LoopSpec, level: int | Sequence[int]) -> float | list[float]:
    """Angle shift of a two-level magnetic system from its closed-form connection.

    ``loop`` lives in field space (B1, B2, B3); ``level`` is 1 (lower) or 2
    (upper), or a sequence of levels, which gives the list of their values:
    the field is then scaled once and the levels' connections are integrated
    as one stack, each value bit for bit the one its level alone gives.  The
    connection has a pole where B3 = -B (level 1) or B3 = +B (level 2); loops
    closer than 1e-6 * B to the pole of a requested level are rejected, the
    first such level's ``PoleProximity`` raised before any quadrature.  The
    points are scaled by the power of two 2**-e that brings max |B_i| into
    [1/2, 1), so the squares neither overflow nor underflow; the connection,
    homogeneous of degree -1 in B, is then scaled back by 2**-e, which is exact.
    """
    block, levels = _block_of(level)
    if not set(levels) <= {1, 2}:
        raise ValueError("level must be 1 or 2")
    if loop.dim != 3:
        raise ValueError("field loop must be 3-dimensional")
    exponent = np.frexp(np.max(np.abs(loop.points)))[1]
    b1, b2, b3 = np.ldexp(loop.points, -exponent).T
    b = np.sqrt(b1**2 + b2**2 + b3**2)
    coeffs = []
    for lv in levels:
        denom_core = b + (1.0 if lv == 1 else -1.0) * b3
        if np.any(denom_core <= 1e-6 * b):
            raise PoleProximity(
                f"loop approaches the level-{lv} connection pole (min margin "
                f"{float(np.min(denom_core / b)):.2e} of |B|)"
            )
        denom = 2.0 * b * denom_core
        coeffs.append((np.ldexp(b2 / denom, -exponent), np.ldexp(-b1 / denom, -exponent)))
    stacks = dict(enumerate(np.array(c) for c in zip(*coeffs)))
    values = [-r.value for r in closed_line_integral(stacks, loop)] if coeffs else []
    return values if block else values[0]


def _fd_eigvec_triplet(family: HamiltonianFamily, x: np.ndarray, dx: np.ndarray):
    """Canonically gauged eigenvector matrices at x and x +/- h along dx,
    diagonalised as one stack of three."""
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    norm_dx = float(np.linalg.norm(dx))
    if norm_dx == 0.0:
        raise ValueError("dx must be nonzero")
    unit = dx / norm_dx
    h = max(_FD_STEP_REL * float(np.linalg.norm(x)), _FD_STEP_FLOOR)
    energies, vectors = _eigh(family.matrices(np.stack([x, x + h * unit, x - h * unit])))
    require_gap(energies)
    pivots = vectors[:, np.argmax(np.abs(vectors[0]), axis=0), np.arange(family.dim)]
    if not np.all(pivots):
        j, level = np.argwhere(pivots == 0)[0]
        raise GapTooSmall(sample=int(j), level=int(level), gap=0.0, tol=0.0)
    c0, cp, cm = vectors * (np.conj(pivots) / np.abs(pivots))[:, None, :]
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

    At the actions I_k (in units of hbar) and angles theta_k, the level
    amplitudes a_k = sqrt(I_k) exp(-i theta_k) in the eigenbasis C give the
    state psi = C a, whose components split into canonical pairs
    psi_n = (q_n + i p_n)/sqrt(2).  The average runs over the 2N + 1 points of
    the rank-1 lattice theta_i = 2 pi i (1, ..., N) / (2N + 1), i = 0 ... 2N,
    which is exact for this integrand: its frequencies e_k +/- e_l and 2 e_k
    are none of them 0 modulo 2N + 1 (Sloan and Joe, Lattice Methods for
    Multiple Integration, 1994).  The parametric derivative of q uses central
    differences with step max(1e-6 |x|, 1e-8).
    """
    actions = np.asarray(actions, dtype=float)
    n = family.dim
    if actions.shape != (n,):
        raise ValueError(f"expected {n} actions, got shape {actions.shape}")
    if np.any(actions < 0):
        raise ValueError("actions must be nonnegative")
    if not np.all(np.isfinite(actions)):
        raise ValueError("actions must be finite")
    nodes = np.outer(np.arange(2 * n + 1), np.arange(1, n + 1)) % (2 * n + 1)
    amps = np.sqrt(actions) * np.exp(-1j * (nodes * (TWO_PI / (2 * n + 1))))
    c0, cp, cm, h, norm_dx = _fd_eigvec_triplet(family, x, dx)
    root = math.sqrt(2.0)
    p0 = root * np.imag(amps @ c0.T)
    dq = (root * np.real(amps @ cp.T) - root * np.real(amps @ cm.T)) / (2.0 * h)
    return float(np.mean(np.einsum("gn,gn->g", p0, dq))) * norm_dx
