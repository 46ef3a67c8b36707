import dataclasses
import inspect
import math

import holonomy
import holonomy.dynamics_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from holonomy import (
    EllipticViolation,
    GapTooSmall,
    HamiltonianFamily,
    LoopSpec,
    NonAdiabatic,
    NonFinite,
    StandardLoopParams,
    TooManySteps,
    action_angle_to_qp,
    berry_and_hannay,
    circle_loop,
    cone_loop,
    eigenframe_along_loop,
    propagate_classical,
    propagate_quantum,
    recommended_steps_per_sample,
    spin_hamiltonian_family,
    standard_loop_report,
    subsystem_parameter_loop,
)
from holonomy.quantum_geometry import canonical_section_track, smooth_track
from loops import make_loop

EPS_PAPER = math.sqrt(3.0) / 2.0
FAMILY = spin_hamiltonian_family(1.0)


def constant_field_loop(n=64):
    return make_loop(lambda t: np.array([0.3, -0.2, 0.9]), 1.0, n)


def std_params(eps=EPS_PAPER):
    return StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1,
                              base_rate=1.0, epsilon=eps, j_action=1.0)


def three_level_family():
    rng = np.random.default_rng(7)
    couplings = []
    for _ in range(3):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        couplings.append(0.1 * (a + a.conj().T))
    base = np.diag([-1.0, 0.0, 1.5]).astype(complex)
    return HamiltonianFamily(dim=3, eval=lambda pts: base + np.einsum(
        "nd,dab->nab", pts, np.stack(couplings)))


# a two-level cone and a three-level family, whose steps go to LAPACK
QUANTUM_CASES = pytest.mark.parametrize(
    "family, loop",
    [
        (FAMILY, cone_loop(1.1, n_samples=32)),
        (three_level_family(), make_loop(
            lambda t: np.array([math.cos(2 * math.pi * t), math.sin(2 * math.pi * t), 0.5]),
            1.0, 32)),
    ],
    ids=["spin", "three-level"],
)


def record_increments(monkeypatch, name):
    """Every step increment D = exp(Omega) - I that ``oracle.<name>`` returns
    during the test, batch-last as returned."""
    seen = []
    real = getattr(oracle, name)

    def recording(omega):
        seen.append(real(omega))
        return seen[-1]

    monkeypatch.setattr(oracle, name, recording)
    return seen


def step_matrices(increments):
    """The step matrices I + D of recorded increments, as an (n, N, N) stack."""
    dim = increments[0].shape[0]
    incs = np.concatenate([np.moveaxis(d.reshape(dim, dim, -1), -1, 0) for d in increments])
    return incs + np.eye(dim)


def step_schedule(loop, sps, slowness):
    """Step size and the (start, midpoint, end) rows of every step in the
    upsampled grid."""
    n = loop.n_segments * sps
    h = slowness * loop.period / n
    return h, [(2 * i, 2 * i + 1, (2 * i + 2) % (2 * n)) for i in range(n)]


def magnus_exponent(a0, a_half, a1, h):
    """Omega = h/6 (A0 + 4 A1/2 + A1) - h^2/12 [A0, A1] of N x N matrices."""
    return h / 6.0 * (a0 + 4.0 * a_half + a1) - h * h / 12.0 * (a0 @ a1 - a1 @ a0)


def expm(a):
    """exp(a) of one diagonalisable matrix by its general eigendecomposition."""
    w, v = np.linalg.eig(a)
    return (v * np.exp(w)) @ np.linalg.inv(v)


def magnus_step(gen, idx, y, h):
    return expm(magnus_exponent(gen[idx[0]], gen[idx[1]], gen[idx[2]], h)) @ y


def sequential_quantum(family, loop, k, slowness, sps):
    """Per-step Magnus loop with renormalisation, as one step after another."""
    mats = family.matrices(loop.upsampled(2 * sps).reshape(-1, loop.dim))
    h, steps = step_schedule(loop, sps, slowness)
    e = np.linalg.eigvalsh(mats[::2])[:, k]
    refs = canonical_section_track(np.linalg.eigh(family.matrices(loop.points))[1][:, :, k])
    gen = -1j * mats
    psi = refs[0].astype(complex)
    drift, dyn, track = 0.0, 0.0, [0.0]
    for i, idx in enumerate(steps):
        psi = magnus_step(gen, idx, psi, h)
        nrm = float(np.linalg.norm(psi))
        drift += abs(nrm - 1.0)
        psi /= nrm
        dyn += 0.5 * h * (e[i] + e[(i + 1) % len(steps)])
        if (i + 1) % sps == 0:
            track.append(float(np.angle(np.vdot(refs[(i + 1) // sps], psi))) + dyn)
    return psi, drift, dyn, np.array(track)


def sequential_classical(loop, qp0, slowness, sps):
    """Per-step Magnus loop for the driven oscillator, with the angle unwound
    one step at a time against omega h at the step's midpoint."""
    fine = loop.upsampled(2 * sps).reshape(-1, 3)
    gen = np.array([[[y, z], [-x, -y]] for x, y, z in fine])
    h, steps = step_schedule(loop, sps, slowness)
    qp = [np.asarray(qp0, dtype=float)]
    for idx in steps:
        qp.append(magnus_step(gen, idx, qp[-1], h).real)
    raw = []
    for i, (q, p) in enumerate(qp):
        x, y, z = fine[(2 * i) % fine.shape[0]]
        raw.append(math.atan2(-(z * p + y * q) / math.sqrt(x * z - y * y), q))
    angles = [raw[0]]
    for i in range(1, len(raw)):
        x, y, z = fine[2 * i - 1]  # midpoint of the step that ends at state i
        advance = h * math.sqrt(x * z - y * y)
        delta = raw[i] - raw[i - 1] - advance
        angles.append(angles[-1] + advance + (delta + math.pi) % (2 * math.pi) - math.pi)
    q, p = np.array(qp).T
    return q, p, np.array(angles)


def zero_padded_upsample(points, factor):
    """Band-limited upsampling by zero-padding the full spectrum."""
    x = points[:-1]
    m = x.shape[0]
    coef = np.fft.fft(x, axis=0)
    big = np.zeros((m * factor, x.shape[1]), dtype=complex)
    pos = (m + 1) // 2
    big[:pos] = coef[:pos]
    big[m * factor - (m - pos):] = coef[pos:]
    if m % 2 == 0:
        big[m // 2] = 0.5 * coef[m // 2]
        big[m * factor - m // 2] = 0.5 * coef[m // 2]
    return np.real(np.fft.ifft(big, axis=0)) * factor


@pytest.mark.parametrize("m, factor", [(17, 6), (16, 6), (32, 2), (256, 2 * 1109)])
def test_upsample_matches_zero_padding(m, factor):
    rng = np.random.default_rng(m + factor)
    points = rng.normal(size=(m + 1, 3))
    points[-1] = points[0]
    fine = LoopSpec(1.0, points).upsampled(factor)
    assert fine.shape == (m, factor, 3)
    assert np.max(np.abs(fine.reshape(-1, 3) - zero_padded_upsample(points, factor))) <= 1e-13
    assert np.max(np.abs(fine[:, 0] - points[:-1])) <= 1e-13


@pytest.mark.parametrize("factor", [0, -2, 1.5, 2.0])
def test_upsample_factor_must_be_a_positive_integer(factor):
    with pytest.raises(ValueError, match=f"factor must be a positive integer, got {factor!r}"):
        circle_loop(n_samples=16).upsampled(factor)


def lune_loop(alpha, cycles, n_samples):
    """Unit field at polar angle pi (1 - cos 2 pi c t) / 2 and azimuth
    alpha sin 2 pi c t, c = cycles: it passes through both poles, so no
    eigenvector component can serve as a section pivot."""
    def field(t):
        theta = math.pi * (1.0 - math.cos(2 * math.pi * cycles * t)) / 2.0
        phi = alpha * math.sin(2 * math.pi * cycles * t)
        return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                         math.cos(theta)])
    return make_loop(field, 1.0, n_samples, cycles=cycles)


def meridian_loop(n_samples):
    return make_loop(lambda t: np.array([math.sin(2 * math.pi * t), 0.0, math.cos(2 * math.pi * t)]),
                     1.0, n_samples)


NO_PIVOT_LOOPS = {
    "lune": lambda: lune_loop(0.7, 1, 256),
    "two-cycle lune": lambda: lune_loop(1.3, 2, 512),
    "meridian": lambda: meridian_loop(256),
}


@pytest.mark.parametrize("case", [*NO_PIVOT_LOOPS, "cone"])
def test_smooth_track_is_single_valued(case):
    loop = cone_loop(1.1, n_samples=256) if case == "cone" else NO_PIVOT_LOOPS[case]()
    frame = eigenframe_along_loop(FAMILY, loop)
    for k in (0, 1):
        track = smooth_track(frame, k)
        assert np.max(np.abs(track[-1] - track[0])) <= 1e-12


@pytest.mark.parametrize("case", NO_PIVOT_LOOPS)
def test_no_pivot_oracle_keeps_the_holonomy(case):
    # without a pivot the references are the transport track, whose last
    # sample carries the holonomy; the oracle must still see it, so its gap
    # to the Wilson phase is only the adiabatic error and falls with slowness
    loop = NO_PIVOT_LOOPS[case]()
    gaps = []
    for slowness in (100.0, 400.0):
        prop = propagate_quantum(FAMILY, loop, 0, slowness,
                                 recommended_steps_per_sample(loop, slowness))
        gamma_w, _ = berry_and_hannay(prop.frame, 0)
        gaps.append(abs(prop.geometric_phase - gamma_w))
    assert gaps[1] <= 0.1
    assert gaps[1] <= gaps[0] / 3.0


class TestPropagateQuantum:
    def test_constant_loop_pure_dynamical(self):
        loop = constant_field_loop()
        prop = propagate_quantum(FAMILY, loop, 0, slowness=20.0, steps_per_sample=64)
        gamma = prop.geometric_phase
        assert abs(gamma) < 1e-10
        assert prop.final_fidelity > 0.999999

    def test_equator_matches_wilson(self):
        loop = cone_loop(math.pi / 2, n_samples=128)
        frame = eigenframe_along_loop(FAMILY, loop)
        gamma_w, _ = berry_and_hannay(frame, 0)
        sps = recommended_steps_per_sample(loop, 200.0)
        prop = propagate_quantum(FAMILY, loop, 0, 200.0, sps)
        gamma = prop.geometric_phase
        assert abs(gamma - gamma_w) < 0.05
        assert gamma < 0  # lower level carries the negative phase

    def test_slowness_doubling_improves(self):
        loop = cone_loop(math.pi / 3, n_samples=128)
        frame = eigenframe_along_loop(FAMILY, loop)
        gamma_w, _ = berry_and_hannay(frame, 0)
        errs = []
        for s in (50.0, 100.0, 200.0):
            sps = recommended_steps_per_sample(loop, s)
            prop = propagate_quantum(FAMILY, loop, 0, s, sps)
            errs.append(abs(prop.geometric_phase - gamma_w))
        assert errs[2] < errs[1] < errs[0]

    def test_two_cycle_loop_doubles_phase(self):
        loop1 = cone_loop(math.pi / 3, n_samples=128)
        loop2 = cone_loop(math.pi / 3, n_samples=256, cycles=2, period=2.0)
        sps = recommended_steps_per_sample(loop1, 300.0)
        prop1 = propagate_quantum(FAMILY, loop1, 0, 300.0, sps)
        g1 = prop1.geometric_phase
        prop2 = propagate_quantum(FAMILY, loop2, 0, 300.0, sps)
        g2 = prop2.geometric_phase
        assert abs(g2 - 2.0 * g1) < 0.02

    @pytest.mark.parametrize("theta", [0.5, math.pi / 3, math.pi / 2, 2.3])
    def test_reversed_loop_negates_phase(self, theta):
        # gamma_fwd + gamma_rev is the adiabatic error, which falls as
        # 1/slowness: at most 9.9/slowness on these cones, 4x smaller at 4x
        loop = cone_loop(theta, n_samples=64)
        sums = []
        for s in (100.0, 400.0):
            sps = recommended_steps_per_sample(loop, s)
            fwd = propagate_quantum(FAMILY, loop, 0, s, sps).geometric_phase
            rev = propagate_quantum(FAMILY, loop.reversed(), 0, s, sps).geometric_phase
            sums.append(abs(fwd + rev))
            assert sums[-1] <= 12.0 / s
        assert sums[1] <= sums[0] / 3.0

    def test_norm_drift_small(self):
        # every step is unitary to rounding, so over 8448 steps the norm
        # drifts by rounding alone
        loop = cone_loop(math.pi / 2, n_samples=128)
        sps = max(32, int(math.ceil(100.0 * loop.spacing / 0.012)))
        prop = propagate_quantum(FAMILY, loop, 0, 100.0, sps)
        assert prop.norm_drift <= 1e-11

    def test_nonadiabatic_detected(self):
        loop = cone_loop(math.pi / 2, n_samples=64)
        with pytest.raises(NonAdiabatic):
            propagate_quantum(FAMILY, loop, 0, slowness=2.0, steps_per_sample=64)

    @QUANTUM_CASES
    def test_matches_sequential_magnus(self, family, loop):
        sps = 12
        prop = propagate_quantum(family, loop, 0, 30.0, sps)
        psi, drift, dyn, track = sequential_quantum(family, loop, 0, 30.0, sps)
        assert np.max(np.abs(prop.phase_track - track)) <= 1e-10
        assert np.max(np.abs(prop.psi_final - psi)) <= 1e-12
        assert abs(prop.norm_drift - drift) <= 1e-12
        assert abs(prop.dynamical_phase - dyn) <= 1e-12 * abs(dyn)

    @QUANTUM_CASES
    def test_step_matrices_are_unitary(self, monkeypatch, family, loop):
        sps = recommended_steps_per_sample(loop, 1000.0)
        seen = record_increments(monkeypatch, "_unitary_expm1")
        propagate_quantum(family, loop, 0, 1000.0, sps)
        steps = step_matrices(seen)
        assert steps.shape[0] == loop.n_segments * sps
        residual = np.conj(steps.swapaxes(1, 2)) @ steps - np.eye(family.dim)
        assert np.max(np.abs(residual)) <= 1e-13

    def test_gap_error_reports_loop_sample(self):
        # |B| = 1 + cos(2 pi t) vanishes at t = 1/2, between samples 8 and 9 of 17
        loop = make_loop(lambda t: np.array([1.0 + math.cos(2 * math.pi * t), 0.0, 0.0]), 1.0, 17)
        with pytest.raises(GapTooSmall) as info:
            propagate_quantum(FAMILY, loop, 0, 10.0, steps_per_sample=4)
        assert info.value.sample == 8

    def test_non_finite_error_reports_loop_sample(self):
        # NaN only at fine point 43 = 5 * 8 + 3 of 32 samples at 4 steps
        # (8 fine points) per sample: between loop samples 5 and 6
        m, sps = 32, 4
        t_nan = (5 + 3 / (2 * sps)) / m

        def nan_between_samples(pts):
            t = np.arctan2(pts[:, 1], pts[:, 0]) / (2 * np.pi) % 1.0
            out = np.zeros((len(pts), 2, 2))
            out[:, 1, 1] = 1.0
            out[np.abs(t - t_nan) < 1e-9, 1, 1] = np.nan
            return out

        family = HamiltonianFamily(dim=2, eval=nan_between_samples)
        with pytest.raises(NonFinite) as info:
            propagate_quantum(family, circle_loop(n_samples=m), 0, 10.0, sps)
        assert info.value.sample == 5


class TestPropagateClassical:
    def test_frozen_parameters(self):
        n = 64
        loop = make_loop(lambda t: np.array([1.3, -0.2, 0.9]), 1.0, n)
        x, y, z = loop.points[0]
        omega = math.sqrt(x * z - y * y)
        qp0 = action_angle_to_qp(loop.points[0], 0.8, 0.5)
        traj = propagate_classical(loop, qp0, slowness=5.0, steps_per_sample=256)
        assert traj.action_drift < 1e-10
        advance = traj.angle_trace[-1] - traj.angle_trace[0]
        assert abs(advance - omega * 5.0) < 1e-8
        assert abs(traj.hannay_angle) < 1e-6

    def test_standard_loop_action_invariance(self):
        p = std_params()
        loop = subsystem_parameter_loop(p, 2, 128)
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
        sps = recommended_steps_per_sample(loop, 300.0)
        traj = propagate_classical(loop, qp0, 300.0, sps)
        assert traj.action_drift <= 0.02

    def test_reversed_loop_negates_angle(self):
        p = std_params(eps=0.5)
        loop = subsystem_parameter_loop(p, 2, 128)
        rev = loop.reversed()
        sps = recommended_steps_per_sample(loop, 400.0)
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.0)
        fwd = propagate_classical(loop, qp0, 400.0, sps).hannay_angle
        bwd = propagate_classical(rev, qp0, 400.0, sps).hannay_angle
        assert abs(fwd + bwd) < 0.02 * abs(fwd)

    def test_angle_extraction_gauge_free(self):
        p = std_params(eps=0.5)
        loop = subsystem_parameter_loop(p, 2, 128)
        sps = recommended_steps_per_sample(loop, 200.0)
        vals = []
        for phi0 in (0.0, 1.0):
            qp0 = action_angle_to_qp(loop.points[0], 1.0, phi0)
            traj = propagate_classical(loop, qp0, 200.0, sps)
            vals.append(traj.hannay_angle)
        # the angle shift is independent of where the oscillator starts
        assert abs(vals[0] - vals[1]) < 2e-3

    def test_matches_quadrature_moderate_slowness(self):
        p = std_params(eps=0.5)
        loop = subsystem_parameter_loop(p, 2, 128)
        [rep] = standard_loop_report(p, [0.0])
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
        sps = recommended_steps_per_sample(loop, 400.0)
        traj = propagate_classical(loop, qp0, 400.0, sps)
        dphi = traj.hannay_angle
        assert abs(dphi - rep.delta_phi_0_part) < 0.05 * abs(rep.delta_phi_0_part)

    def test_elliptic_guard(self):
        n = 64
        pts = np.tile([1.0, 1.5, 1.0], (n + 1, 1))  # X Z - Y^2 < 0
        loop = LoopSpec(1.0, pts)
        with pytest.raises(EllipticViolation):
            propagate_classical(loop, (1.0, 0.0), 10.0, 32)

    def test_elliptic_error_reports_loop_sample(self):
        # X Z - Y^2 = 0.99 + cos(2 pi t) dips below zero only for |t - 1/2| < 0.0225,
        # between samples 8 and 9 of 17
        loop = make_loop(lambda t: np.array([0.99 + math.cos(2 * math.pi * t), 0.0, 1.0]), 1.0, 17)
        assert np.all(loop.points[:, 0] > 0)
        with pytest.raises(EllipticViolation) as info:
            propagate_classical(loop, (1.0, 0.0), 10.0, steps_per_sample=4)
        assert info.value.sample == 8

    @pytest.mark.parametrize("eps, slowness, sps", [(0.5, 1000.0, None), (0.3, 4000.0, 24)])
    def test_step_matrices_are_symplectic(self, monkeypatch, eps, slowness, sps):
        loop = subsystem_parameter_loop(std_params(eps=eps), 2, 256)
        sps = sps or recommended_steps_per_sample(loop, slowness)
        seen = record_increments(monkeypatch, "_symplectic_expm1")
        propagate_classical(loop, action_angle_to_qp(loop.points[0], 1.0, 0.3), slowness, sps)
        steps = step_matrices(seen)
        assert steps.shape[0] == loop.n_segments * sps
        assert np.max(np.abs(np.linalg.det(steps) - 1.0)) <= 1e-13

    def test_step_exponent_without_rotation_reports_its_sample(self):
        # every A = [[0, a], [-1/a, 0]] is elliptic (det A = 1), but at h = 4
        # the commutator term of the step from a = 1 through 2 to 4 outweighs
        # the mean: det Omega = 16 * 13 * 3.25 / 36 - (16 * 3.75 / 12)^2 < 0
        def elliptic(a):
            return np.array([[0.0, a], [-1.0 / a, 0.0]])

        steps = [(1.0, 1.0, 1.0), (1.0, 2.0, 4.0), (1.0, 1.0, 1.0)]
        omega = np.stack([magnus_exponent(*map(elliptic, abc), 4.0) for abc in steps], axis=-1)
        assert np.all(np.linalg.det(np.moveaxis(omega, -1, 0)) * [1, -1, 1] > 0)
        with pytest.raises(EllipticViolation, match="at sample 1") as info:
            oracle._symplectic_expm1(omega[:, :, None])  # one step per sample
        assert info.value.sample == 1

    @pytest.mark.parametrize("sps", [24, 28])
    def test_unwinds_steps_past_pi(self, sps):
        # at slowness 4000 a step advances the angle by omega h = 3.9 (24
        # steps per sample) or 3.4 (28), past pi, so a wrapped step-to-step
        # difference alone would drop a turn at every step
        loop = subsystem_parameter_loop(std_params(eps=0.3), 2, 256)
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
        fine = propagate_classical(loop, qp0, 4000.0, 128).hannay_angle
        coarse = propagate_classical(loop, qp0, 4000.0, sps)
        omega = math.sqrt(1.0 - 0.3**2)  # constant along this loop
        assert omega * 4000.0 * loop.period / (256 * sps) > math.pi
        assert abs(coarse.hannay_angle / fine - 1.0) <= 1e-2

    def test_matches_sequential_magnus(self):
        loop = subsystem_parameter_loop(std_params(eps=0.5), 2, 32)
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
        traj = propagate_classical(loop, qp0, 20.0, 12)
        q, p, angles = sequential_classical(loop, qp0, 20.0, 12)
        assert np.max(np.abs(traj.q - q)) <= 1e-12
        assert np.max(np.abs(traj.p - p)) <= 1e-12
        assert np.max(np.abs(traj.angle_trace - angles)) <= 1e-10


def order_run_quantum(shape, slowness, sps):
    loop = cone_loop(0.4 + 2.0 * shape, n_samples=64)
    return propagate_quantum(FAMILY, loop, 0, 50.0 + 150.0 * slowness, sps).geometric_phase


def order_run_classical(shape, slowness, sps):
    loop = subsystem_parameter_loop(std_params(eps=0.2 + 0.7 * shape), 2, 64)
    qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
    return propagate_classical(loop, qp0, 10.0 + 40.0 * slowness, sps).hannay_angle


@pytest.mark.parametrize("run", [order_run_quantum, order_run_classical],
                         ids=["spin cone", "oscillator loop"])
@settings(max_examples=10, deadline=None, derandomize=True)  # ~0.1 s, 2-core x86-64
@given(shape=st.floats(0.0, 1.0), slowness=st.floats(0.0, 1.0))
def test_fourth_order(run, shape, slowness):
    # a fourth-order step's error shrinks 16-fold per doubling of the steps
    values = [run(shape, slowness, sps) for sps in (4, 8, 16)]
    ratio = abs(values[0] - values[1]) / abs(values[1] - values[2])
    assert 8.0 <= ratio <= 32.0


def unchunked_magnus_step_increments(gen, h, expm1):
    """Increments D_i = exp(Omega_i) - I of every Magnus step at once; ``gen``
    is A at every step start and midpoint, batch-last, shape (N, N, 2n)."""
    a0 = gen[..., 0::2]
    a1 = np.roll(a0, -1, axis=-1)
    omega = (h / 6.0) * (a0 + 4.0 * gen[..., 1::2] + a1)
    omega -= (h * h / 12.0) * (oracle._bmm(a0, a1) - oracle._bmm(a1, a0))
    return expm1(omega)


def unchunked_blocked_states(incs, y0, block):
    """States from all increments (N, N, n) by the blocked prefix scan in one
    pass over every step."""
    dim, n = incs.shape[0], incs.shape[-1]
    m = n // block
    prods = incs.reshape(dim, dim, m, block).swapaxes(2, 3).copy()
    prods[:, :, 0] += np.eye(dim)[:, :, None]
    for r in range(1, block):
        prods[:, :, r] = prods[:, :, r - 1] + oracle._bmm(prods[:, :, r], prods[:, :, r - 1])
    starts = np.empty((dim, m), dtype=np.result_type(incs, y0))
    starts[:, 0] = y0
    for j in range(1, m):
        starts[:, j] = prods[:, :, -1, j - 1] @ starts[:, j - 1]
    within = oracle._bmm(prods, starts[:, None, None, :])[:, 0]
    states = np.empty((dim, n + 1), dtype=starts.dtype)
    states[:, 0] = y0
    states[:, 1:] = within.swapaxes(1, 2).reshape(dim, n)
    return states


def unchunked_magnus_states(generators, expm1, y0, h, block, m):
    """The scan without chunks: every step's generators in step order, then
    every increment, then the states."""
    gen = generators(0, 2 * block)
    gen = gen.transpose(0, 1, 3, 2).reshape(gen.shape[0], gen.shape[1], -1)
    return unchunked_blocked_states(unchunked_magnus_step_increments(gen, h, expm1), y0, block)


def forbid_steps(monkeypatch):
    def fail(*args):
        raise AssertionError("Magnus steps ran before the parameter checks")

    monkeypatch.setattr(oracle, "_magnus_states", fail)


CHUNK = oracle._CHUNK_STEPS


class TestChunkedScan:
    """The chunked scan does each step's arithmetic exactly as one pass over
    all steps does, whatever the chunk boundaries."""

    @pytest.mark.parametrize(
        "m, sps",
        [
            (256, 1109),  # a prime block over many chunks
            (32, CHUNK // 32 + CHUNK // 64 + 1),  # a partial last chunk
            (32, 1),
            (16, CHUNK + 3),  # one block longer than a chunk
            (CHUNK + 16, 2),  # one offset row longer than a chunk
        ],
    )
    def test_classical_bit_identical(self, monkeypatch, m, sps):
        loop = subsystem_parameter_loop(std_params(eps=0.5), 2, m)
        qp0 = action_angle_to_qp(loop.points[0], 1.0, 0.3)
        slowness = 1000.0 if m == 256 else 20.0
        traj = propagate_classical(loop, qp0, slowness, sps)
        monkeypatch.setattr(oracle, "_magnus_states", unchunked_magnus_states)
        ref = propagate_classical(loop, qp0, slowness, sps)
        for field in ("hannay_angle", "q", "p", "action_trace", "angle_trace",
                      "dynamical_angle"):
            assert np.array_equal(getattr(traj, field), getattr(ref, field)), field

    @pytest.mark.parametrize("sps", [1, CHUNK // 32 + CHUNK // 64 + 1])
    @QUANTUM_CASES
    def test_quantum_bit_identical(self, monkeypatch, family, loop, sps):
        prop = propagate_quantum(family, loop, 0, 30.0, sps)
        monkeypatch.setattr(oracle, "_magnus_states", unchunked_magnus_states)
        ref = propagate_quantum(family, loop, 0, 30.0, sps)
        for field in ("geometric_phase", "psi_final", "phase_track", "norm_drift",
                      "dynamical_phase", "final_fidelity"):
            assert np.array_equal(getattr(prop, field), getattr(ref, field)), field

    # Two failures: one at a late offset of an early sample, which a chunked
    # walk reaches last, and one at an early offset of a later sample.
    M, EARLY, LATE = 64, 3, 40
    SPS = CHUNK // 64 + CHUNK // 256  # offset rows past the first chunk exist
    LATE_ROW, EARLY_ROW = SPS - 5, 3

    def test_elliptic_error_names_earliest_sample(self, monkeypatch):
        m, sps = self.M, self.SPS
        t_early = (self.EARLY + self.LATE_ROW / sps) / m
        t_late = (self.LATE + self.EARLY_ROW / sps) / m

        def bumps(t):  # trigonometric polynomials of degree 16 < m / 2
            return np.cos(np.pi * (t - t_early)) ** 32 + np.cos(np.pi * (t - t_late)) ** 32

        c = 0.5 * (np.max(bumps(np.arange(m) / m)) + bumps(t_early))
        loop = make_loop(lambda t: np.array([c - bumps(t), 0.0, 1.0]), 1.0, m)
        rows = CHUNK // m
        x = loop.upsampled(2 * sps)[..., 0]
        bad_samples, bad_offsets = np.nonzero(x <= 0)
        assert set(bad_samples) == {self.EARLY, self.LATE}
        assert np.all(bad_offsets[bad_samples == self.EARLY] >= 2 * rows)
        assert np.all(bad_offsets[bad_samples == self.LATE] < 2 * rows)
        forbid_steps(monkeypatch)
        with pytest.raises(EllipticViolation) as info:
            propagate_classical(loop, (1.0, 0.0), 10.0, sps)
        assert info.value.sample == self.EARLY

    def test_gap_error_reports_smallest_gap(self, monkeypatch):
        m, sps = self.M, self.SPS
        # a sub-tolerance gap at an early offset of an early sample, and the
        # smallest gap at a late offset of a later sample, in a later chunk
        dips = [((self.EARLY + self.EARLY_ROW / sps) / m, 1e-11),
                ((self.LATE + self.LATE_ROW / sps) / m, 1e-12)]
        assert self.LATE_ROW >= CHUNK // m > self.EARLY_ROW

        def gaps(pts):
            t = np.arctan2(pts[:, 1], pts[:, 0]) / (2.0 * np.pi)
            g = np.ones(len(pts))
            for t0, depth in dips:
                d = (t - t0 + 0.5) % 1.0 - 0.5
                g -= (1.0 - depth) * np.exp(-((d / 1e-6) ** 2))
            return g

        def diag(pts):
            out = np.zeros((len(pts), 2, 2))
            out[:, 1, 1] = gaps(pts)
            return out

        family = HamiltonianFamily(dim=2, eval=diag)
        forbid_steps(monkeypatch)
        with pytest.raises(GapTooSmall) as info:
            propagate_quantum(family, circle_loop(n_samples=m), 0, 10.0, sps)
        assert info.value.sample == self.LATE
        assert info.value.gap == pytest.approx(1e-12, rel=1e-6)


# (error, what the message names, the call)
ORACLE_GUARDS = {
    "elliptic triple": (EllipticViolation, "frequency squared",
                        lambda: action_angle_to_qp(np.array([1.0, 2.0, 1.0]), 1.0, 0.3)),
    "X Z = Y^2": (EllipticViolation, "frequency squared",
                  lambda: action_angle_to_qp(np.array([1.0, 1.0, 1.0]), 1.0, 0.3)),
    "zero steps, quantum": (ValueError, "steps_per_sample",
                            lambda: propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), 0,
                                                      30.0, 0)),
    "zero steps, classical": (ValueError, "steps_per_sample",
                              lambda: propagate_classical(
                                  subsystem_parameter_loop(std_params(eps=0.5), 2, 32),
                                  (1.0, 0.0), 20.0, 0)),
    "fractional steps": (ValueError, "steps_per_sample must be a positive integer, got 2.5",
                         lambda: propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), 0,
                                                   30.0, 2.5)),
    # rejected before the upsampled loop is allocated
    "steps past the cap": (TooManySteps, f"more than {oracle._MAX_STEPS}",
                           lambda: propagate_classical(
                               subsystem_parameter_loop(std_params(eps=0.5), 2, 32),
                               (1.0, 0.0), 20.0, oracle._MAX_STEPS // 32 + 1)),
    # a step of h = 393 outweighs its mean generator with the commutator term
    "step past a rotation": (EllipticViolation, "Magnus exponent determinant",
                             lambda: propagate_classical(
                                 subsystem_parameter_loop(std_params(eps=0.5), 2, 16),
                                 (1.0, 0.0), 1000.0, 1)),
    "level 2 of 2": (IndexError, "level 2",
                     lambda: propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), 2, 30.0, 8)),
    "level -1": (IndexError, "level -1",
                 lambda: propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), -1, 30.0, 8)),
    "not triples": (ValueError, "triples",
                    lambda: propagate_classical(circle_loop(n_samples=32), (1.0, 0.0), 20.0, 8)),
    # slowness * spacing * rate_scale / 0.25 = 1000 / 64 * 1e307 / 0.25 overflows
    "rate overflows": (NonFinite, "rate_scale",
                       lambda: recommended_steps_per_sample(cone_loop(1.0, n_samples=64), 1000.0,
                                                            rate_scale=1e307)),
    # slowness 1e300 and rate_scale 1e11 are finite, the step count is not
    "steps overflow": (NonFinite, "steps per sample",
                       lambda: recommended_steps_per_sample(cone_loop(1.0, n_samples=256), 1e300,
                                                            rate_scale=1e11)),
}


@pytest.mark.parametrize("error, names, call", ORACLE_GUARDS.values(), ids=ORACLE_GUARDS)
def test_guard_raises_its_error_naming_the_argument(error, names, call):
    with pytest.raises(error, match=names):
        call()


class TestArgumentChecks:
    def test_step_cap_is_inclusive(self):
        # only the schedule check runs, so nothing is allocated at the cap
        loop = cone_loop(1.1, n_samples=32)
        oracle._require_schedule(loop, 30.0, np.int64(oracle._MAX_STEPS // 32))
        with pytest.raises(TooManySteps):
            oracle._require_schedule(loop, 30.0, oracle._MAX_STEPS // 32 + 1)

    @pytest.mark.parametrize("slowness", [math.nan, math.inf, -1.0, 0.0])
    def test_slowness(self, slowness):
        loop = subsystem_parameter_loop(std_params(eps=0.5), 2, 32)
        with pytest.raises(ValueError, match="slowness"):
            propagate_classical(loop, (1.0, 0.0), slowness, 8)
        with pytest.raises(ValueError, match="slowness"):
            propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), 0, slowness, 8)
        with pytest.raises(ValueError, match="slowness"):
            recommended_steps_per_sample(loop, slowness)

    @pytest.mark.parametrize("rate_scale", [math.nan, math.inf, -1.0, 0.0])
    def test_rate_scale(self, rate_scale):
        loop = cone_loop(1.1, n_samples=32)
        with pytest.raises(ValueError, match="rate_scale"):
            recommended_steps_per_sample(loop, 100.0, rate_scale=rate_scale)

    @pytest.mark.parametrize("qp0", [(math.nan, 0.3), (0.0, math.inf), (0.0, 0.0)])
    def test_initial_qp(self, qp0):
        loop = subsystem_parameter_loop(std_params(eps=0.5), 2, 32)
        with pytest.raises(ValueError, match="initial_qp"):
            propagate_classical(loop, qp0, 20.0, 8)

    @pytest.mark.parametrize("j_action", [-1.0, 0.0, math.nan, math.inf])
    def test_j_action(self, j_action):
        with pytest.raises(ValueError, match="j_action"):
            action_angle_to_qp(np.array([1.3, -0.2, 0.9]), j_action, 0.3)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_phi(self, phi):
        with pytest.raises(ValueError, match="phi"):
            action_angle_to_qp(np.array([1.3, -0.2, 0.9]), 1.0, phi)

    def test_no_hbar(self):
        # energies and actions are in units of hbar: a physical hbar is carried
        # by the family and the config, and no public callable or dataclass takes one
        public = {name: obj for name, obj in vars(holonomy).items()
                  if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)}
        assert "propagate_quantum" in public and "StandardLoopParams" in public
        for name, obj in public.items():
            assert "hbar" not in inspect.signature(obj).parameters, name
        with pytest.raises(TypeError, match="hbar"):
            propagate_quantum(FAMILY, cone_loop(1.1, n_samples=32), 0, 30.0, 8, hbar=0.0)

    @pytest.mark.parametrize("propagate, position", [(propagate_quantum, 4),
                                                     (propagate_classical, 3)])
    def test_step_count_has_no_default(self, propagate, position):
        # one step schedule: every caller passes its count, as
        # recommended_steps_per_sample gives it, by this name and position
        params = list(inspect.signature(propagate).parameters.values())
        assert params[position].name == "steps_per_sample"
        assert params[position].default is inspect.Parameter.empty
        with pytest.raises(TypeError, match="steps_per_sample"):
            propagate(*[FAMILY, cone_loop(1.1, n_samples=32), 0, 30.0][4 - position:])

    def test_energies_in_units_of_hbar(self):
        # the family H/hbar at slowness s takes the steps of H at slowness s/hbar
        loop = cone_loop(1.1, n_samples=32)
        scaled = propagate_quantum(spin_hamiltonian_family(0.5), loop, 0, 60.0, 8)
        plain = propagate_quantum(FAMILY, loop, 0, 30.0, 8)
        assert np.array_equal(scaled.psi_final, plain.psi_final)
        assert scaled.dynamical_phase == plain.dynamical_phase
        assert np.array_equal(scaled.phase_track, plain.phase_track)
