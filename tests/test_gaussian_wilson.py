"""An independent route to the coupled oscillators' ground-state phase.

The quantum Hamiltonian H = z^T M z / 2, z = (q1, q2, p1, p2), with
H_i = (X_i q_i^2 + 2 Y_i q_i p_i + Z_i p_i^2) / 2 and coupling k q1 q2, is
quadratic, so its ground state is the Gaussian exp(-q^T A q / 2) with
A = -i P Q^-1, where the columns (Q; P) are the +i omega eigenvectors of J M
(one oscillator gives A = (omega + i Y) / Z).  Gaussian overlaps have a
closed form, so the discrete Wilson loop over the samples needs only the
Hamiltonian: no connection coefficient and no pulled-back d(Y/Z) enters it.
Its error falls as M^-2, and the Richardson value (4 W(2M) - W(M)) / 3 as
M^-4.  References: Berry, Proc. R. Soc. A 392, 45 (1984); Littlejohn,
Phys. Rep. 138, 193 (1986).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import StandardLoopParams, combined_parameter_loop, full_quantum_phase

_J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def criterion_10_params(eps):
    return StandardLoopParams(a1=2.0, a2=1.0, mu1=1.0, mu2=1.0, n1=2, n2=1, base_rate=1.0,
                              epsilon=eps)


def ground_state_widths(points, k):
    """The symmetric matrix A of the ground-state Gaussian at each sample."""
    x1, y1, z1, x2, y2, z2 = points.T
    m = np.zeros((len(points), 4, 4))
    m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 3, 3] = x1, x2, z1, z2
    m[:, 0, 1] = m[:, 1, 0] = k
    m[:, 0, 2] = m[:, 2, 0] = y1
    m[:, 1, 3] = m[:, 3, 1] = y2
    widths = []
    for vals, vecs in zip(*np.linalg.eig(_J @ m)):
        cols = vecs[:, vals.imag > 0]
        a = -1j * cols[2:] @ np.linalg.inv(cols[:2])
        widths.append(0.5 * (a + a.T))
    return np.array(widths)


def gaussian_wilson_phase(p, k, n_samples):
    """gamma = -sum_j arg <psi_j|psi_j+1>.  The link is
    det(4 Re A_j Re A_j+1)^(1/4) / sqrt(det(conj A_j + A_j+1)), whose
    magnitude is real, and whose principal root is continuous because
    Re(conj A_j + A_j+1) is positive definite."""
    a = ground_state_widths(combined_parameter_loop(p, n_samples).points, k)
    return 0.5 * float(np.sum(np.angle(np.linalg.det(np.conj(a[:-1]) + a[1:]))))


def richardson(p, k, n_samples):
    """(4 W(2M) - W(M)) / 3 at M = ``n_samples``."""
    return (4.0 * gaussian_wilson_phase(p, k, 2 * n_samples)
            - gaussian_wilson_phase(p, k, n_samples)) / 3.0


def mode_collapse_k(loop):
    """The smallest k at which k^2 Z1 Z2 reaches omega1^2 omega2^2 on a sample."""
    x1, y1, z1, x2, y2, z2 = loop.points.T
    return float(np.min(np.sqrt((x1 * z1 - y1**2) * (x2 * z2 - y2**2) / (z1 * z2))))


def test_richardson_error_falls_16_fold_per_doubling():
    p = criterion_10_params(0.5)
    ref = full_quantum_phase(combined_parameter_loop(p, 4096), 0.4, 0, 0)
    errors = [abs(richardson(p, 0.4, m) - ref) for m in (128, 256)]
    assert 12.0 < errors[0] / errors[1] < 20.0, errors


# Measured over eps in [0.05, 0.7] and k up to 0.9 of mode collapse, the
# Richardson error at M = 256 peaks at 8.0e-7 (eps 0.7, 0.9 of collapse) and
# is 1.9e-8 at (eps, k) = (0.5, 0.4); the bound is 2.5 times the peak.
@settings(max_examples=25, deadline=None, derandomize=True)  # ~1 s, 2-core x86-64
@given(st.floats(0.05, 0.7), st.floats(0.0, 0.9))
def test_gaussian_wilson_loop_matches_full_quantum_phase(eps, collapse_fraction):
    p = criterion_10_params(eps)
    loop = combined_parameter_loop(p, 4096)
    k = collapse_fraction * mode_collapse_k(loop)
    assert abs(richardson(p, k, 256) - full_quantum_phase(loop, k, 0, 0)) <= 2e-6
