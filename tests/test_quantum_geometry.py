import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from holonomy import (
    EigenFrame,
    GapTooSmall,
    HamiltonianFamily,
    HermiticityViolation,
    LoopSpec,
    NonFinite,
    OverlapTooSmall,
    PoleProximity,
    ResidualTooLarge,
    berry_and_hannay,
    circle_loop,
    closed_line_integral,
    cone_loop,
    eigenframe_along_loop,
    finite_difference_connection,
    propagate_quantum,
    spin_hamiltonian_family,
    spin_hannay_closed_form,
    theta_averaged_one_form,
)
from holonomy import quantum_geometry
from holonomy.errors import require_gap
from holonomy.quantum_geometry import (
    _eigh,
    _fd_eigvec_triplet,
    _hermitian_deviation,
    _residuals,
    align_gauge,
)
from loops import make_loop

RNG = np.random.default_rng(20240811)


def random_family(dim, rng, n_params=3):
    mats = []
    for _ in range(n_params + 1):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(0.5 * (a + a.conj().T))

    return HamiltonianFamily(dim=dim, eval=lambda pts: mats[0] + np.einsum(
        "nd,dab->nab", pts, np.stack(mats[1:])))


def constant_family(h0):
    """The family with the matrix ``h0`` at every point."""
    return HamiltonianFamily(dim=2, eval=lambda pts: np.broadcast_to(h0, (len(pts), 2, 2)))


# Pauli matrices with component 1 the spin-down amplitude and component 2 the
# spin-up one, so sigma_3 = diag(-1, +1), as ``spin_hamiltonian_family`` takes them.
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, 1j], [-1j, 0]], dtype=complex),
         np.array([[-1, 0], [0, 1]], dtype=complex))


def spin_matrix(b, mu):
    """-mu * sigma . B at one field point, written out term by term."""
    s1, s2, s3 = PAULI
    return -mu * (b[0] * s1 + b[1] * s2 + b[2] * s3)


class TestHamiltonianFamily:
    def test_spin_batch_matches_pointwise(self):
        pts = RNG.normal(size=(50, 3)) * 10.0 ** RNG.uniform(-200, 150, size=(50, 1))
        pts[:6] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                   [-0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        for mu in (1.7, -0.3):
            fam = spin_hamiltonian_family(mu)
            stacked = np.stack([spin_matrix(x, mu) for x in pts])
            assert np.array_equal(fam.matrices(pts), stacked)
            assert np.array_equal(fam.matrix(pts[7]), stacked[7])

    def test_batch_hermiticity_guard(self):
        fam = constant_family(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(HermiticityViolation):
            fam.matrices(np.zeros((4, 3)))

    def test_one_evaluator(self):
        assert [f.name for f in dataclasses.fields(HamiltonianFamily)] == ["dim", "eval"]

    def test_batch_shape_checked(self):
        fam = HamiltonianFamily(dim=2, eval=lambda pts: np.zeros((len(pts), 3, 3)))
        with pytest.raises(ValueError):
            fam.matrices(np.zeros((4, 3)))


class TestLoopSampleAxis:
    """A stack of points (M, f, d) is M loop samples of f points each: the
    results keep that layout, and every error names the index on axis 0."""

    M, F = 16, 6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matrices_of_a_stack_are_the_flat_ones_reshaped(self, dim):
        fam = spin_hamiltonian_family(1.3) if dim == 2 else random_family(3, RNG)
        fine = cone_loop(1.1, n_samples=self.M).upsampled(self.F)
        flat = fam.matrices(fine.reshape(-1, 3))
        assert np.array_equal(fam.matrices(fine), flat.reshape(self.M, self.F, dim, dim))

    @pytest.mark.parametrize("j, s", [(0, 5), (7, 0), (15, 3)])
    def test_non_finite_names_the_sample(self, j, s):
        def nan_at(pts):
            out = np.zeros((len(pts), 2, 2))
            out[j * self.F + s, 0, 0] = np.nan
            return out

        with pytest.raises(NonFinite) as info:
            HamiltonianFamily(dim=2, eval=nan_at).matrices(np.zeros((self.M, self.F, 3)))
        assert info.value.sample == j

    def test_gap_error_names_the_sample_and_level(self):
        energies = np.cumsum(np.ones((self.M, self.F, 4)), axis=-1)
        energies[3, 5, 2:] -= 1.0 - 1e-11  # below tolerance, not the smallest
        energies[9, 1, 1:] -= 1.0 - 1e-12
        with pytest.raises(GapTooSmall) as info:
            require_gap(energies)
        assert (info.value.sample, info.value.level) == (9, 0)
        assert info.value.gap == pytest.approx(1e-12, rel=1e-3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_eigh_of_a_stack_is_the_flat_one_reshaped(self, dim):
        h = random_stack(np.random.default_rng(dim), self.M * self.F, dim, 1.0)
        stack = h.reshape(self.M, self.F, dim, dim)
        energies, vectors = _eigh(stack)
        assert np.array_equal(energies, _eigh(h)[0].reshape(self.M, self.F, dim))
        assert np.array_equal(vectors, _eigh(h)[1].reshape(stack.shape))
        assert np.array_equal(_eigh(stack, vectors=False),
                              _eigh(h, vectors=False).reshape(self.M, self.F, dim))


class TestEigenFrame:
    def test_equator_energies_and_gap(self):
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(math.pi / 2, n_samples=256))
        assert_allclose(frame.energies[:, 0], -1.0, atol=1e-12)
        assert_allclose(frame.energies[:, 1], 1.0, atol=1e-12)
        assert_allclose(frame.min_gap, 2.0, rtol=1e-12)

    def test_constant_family_frames_identical(self):
        h0 = np.array([[1.0, 0.3j], [-0.3j, -1.0]])
        fam = constant_family(h0)
        loop = make_loop(lambda t: np.array([math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)]), 1.0, 64)
        frame = eigenframe_along_loop(fam, loop)
        assert np.max(np.abs(frame.vectors - frame.vectors[0])) < 1e-12

    def test_degenerate_field_rejected(self):
        # loop passing through B = 0
        loop = make_loop(
            lambda t: np.array([math.cos(2 * math.pi * t), 0.0, 0.0]), 1.0, 64
        )
        with pytest.raises(GapTooSmall):
            eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)

    def test_orthonormal_and_aligned(self):
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(1.1, n_samples=128))
        v = frame.vectors
        gram = np.einsum("jnk,jnl->jkl", np.conj(v), v)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        ov = np.einsum("jnk,jnk->jk", np.conj(v[:-1]), v[1:])
        assert np.min(ov.real) > 0

    def test_hermiticity_guard(self):
        fam = constant_family(np.array([[0.0, 1.0], [0.5, 0.0]]))
        loop = cone_loop(0.7, n_samples=32)
        with pytest.raises(HermiticityViolation):
            eigenframe_along_loop(fam, loop)


class TestWilsonLoop:
    def test_equator_solid_angle(self):
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(math.pi / 2))
        gamma, dtheta = berry_and_hannay(frame, 0)
        assert abs(abs(gamma) - math.pi) < 1e-6
        assert dtheta == -gamma

    def test_cone_matches_closed_form(self):
        loop = cone_loop(math.pi / 3)
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        _, dtheta = berry_and_hannay(frame, 0)
        assert abs(dtheta - math.pi / 2) < 1e-6

    def test_constant_loop_no_transport(self):
        h0 = PAULI[2]
        fam = constant_family(h0)
        loop = make_loop(lambda t: np.array([1.0, 0.0]), 1.0, 64)
        gamma, dtheta = berry_and_hannay(eigenframe_along_loop(fam, loop), 0)
        assert gamma == 0.0 and dtheta == 0.0

    def test_gauge_invariance(self):
        loop = cone_loop(2 * math.pi / 3, n_samples=512)
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        g_ref, _ = berry_and_hannay(frame, 0)
        phases = np.exp(1j * RNG.uniform(0, 2 * math.pi, size=(frame.vectors.shape[0], 1, 2)))
        scrambled = EigenFrame(
            loop=frame.loop,
            energies=frame.energies,
            vectors=frame.vectors * phases,
            min_gap=frame.min_gap,
        )
        g_scr, _ = berry_and_hannay(scrambled, 0)
        assert abs(g_scr - g_ref) < 1e-12

    def test_sign_relation_bitexact(self):
        for theta in (0.4, 1.0, 2.2):
            frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(theta, n_samples=256))
            for k in (0, 1):
                gamma, dtheta = berry_and_hannay(frame, k)
                assert dtheta == -gamma

    def test_convergence_to_closed_form(self):
        errs = []
        for n in (1024, 2048, 4096):
            loop = cone_loop(math.pi / 3, n_samples=n)
            frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
            _, dtheta = berry_and_hannay(frame, 0)
            errs.append(abs(dtheta - spin_hannay_closed_form(loop, 1)))
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-6

    def test_multi_cycle_doubles(self):
        loop2 = cone_loop(math.pi / 3, n_samples=2048, cycles=2)
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop2)
        gamma, _ = berry_and_hannay(frame, 0)
        assert abs(gamma - 2 * (-math.pi / 2)) < 1e-5

    def test_meridian_falls_back_to_reduced_phase(self):
        # a great circle through both poles leaves no component usable as a
        # gauge pivot; the reduced Wilson value (here half the full sphere)
        # must come through on its own
        from holonomy.quantum_geometry import section_pivot

        loop = make_loop(
            lambda t: np.array([math.sin(2 * math.pi * t), 0.0, math.cos(2 * math.pi * t)]),
            1.0,
            2048,
        )
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        assert section_pivot(frame.vectors[:, :, 0]) is None
        gamma, _ = berry_and_hannay(frame, 0)
        assert abs(abs(gamma) - math.pi) < 1e-6

    def test_meridian_two_cycles_unwound_by_cycle_count(self):
        loop = make_loop(
            lambda t: np.array([math.sin(4 * math.pi * t), 0.0, math.cos(4 * math.pi * t)]),
            1.0,
            4096,
            cycles=2,
        )
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        gamma, _ = berry_and_hannay(frame, 0)
        assert abs(abs(gamma) - 2 * math.pi) < 1e-6


class TestClosedFormConnection:
    def test_equator_level_one(self):
        assert abs(spin_hannay_closed_form(cone_loop(math.pi / 2), 1) - math.pi) < 1e-9

    def test_cone_level_two(self):
        val = spin_hannay_closed_form(cone_loop(math.pi / 3), 2)
        assert abs(val - 3 * math.pi / 2) < 1e-9

    def test_meridian_plane_loop_vanishes(self):
        # loop in the B1-B3 plane with B1 of fixed sign: zero winding
        loop = make_loop(
            lambda t: np.array(
                [2.0 + math.cos(2 * math.pi * t), 0.0, 0.5 * math.sin(2 * math.pi * t)]
            ),
            1.0,
            512,
        )
        assert abs(spin_hannay_closed_form(loop, 1)) < 1e-12

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            spin_hannay_closed_form(cone_loop(math.pi - 1e-8), 1)


def grid_averaged_one_form(family, actions, x, dx):
    """<p dq> on dx averaged over the full 8^N grid of angles: a reference
    for ``theta_averaged_one_form``'s (2N + 1)-point lattice."""
    c0, cp, cm, h, norm_dx = _fd_eigvec_triplet(family, x, dx)
    n = family.dim
    grid = np.indices((8,) * n).reshape(n, -1).T * (2.0 * math.pi / 8)
    cos_t = np.cos(grid) * np.sqrt(2.0 * actions)
    sin_t = np.sin(grid) * np.sqrt(2.0 * actions)

    def q_of(c):
        return cos_t @ np.real(c).T + sin_t @ np.imag(c).T

    p0 = cos_t @ np.imag(c0).T - sin_t @ np.real(c0).T
    dq = (q_of(cp) - q_of(cm)) / (2.0 * h)
    return float(np.mean(np.einsum("gn,gn->g", p0, dq))) * norm_dx


class TestThetaAveragedOneForm:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_lattice_matches_full_grid(self, dim):
        rng = np.random.default_rng(dim)
        fam = random_family(dim, rng)
        for _ in range(5):
            x, dx = rng.normal(size=3), rng.normal(size=3)
            actions = rng.uniform(0.0, 2.0, size=dim)
            ref = grid_averaged_one_form(fam, actions, x, dx)
            lattice = theta_averaged_one_form(fam, actions, x, dx)
            assert abs(lattice - ref) <= 1e-8 * abs(ref)

    def test_zero_actions(self):
        fam = spin_hamiltonian_family(1.0)
        val = theta_averaged_one_form(fam, np.zeros(2), np.array([0.3, 0.1, 0.9]), np.array([0.0, 1.0, 0.0]))
        assert val == 0.0

    @pytest.mark.parametrize("actions, match", [([0.5, -1e-300], "nonnegative"),
                                                ([np.nan, 1.0], "finite"),
                                                ([1.0, np.inf], "finite")])
    def test_rejects_bad_actions(self, actions, match):
        fam = spin_hamiltonian_family(1.0)
        with pytest.raises(ValueError, match=match):
            theta_averaged_one_form(fam, np.array(actions), np.array([0.3, 0.1, 0.9]),
                                    np.array([0.0, 1.0, 0.0]))

    def test_matches_connection_spin(self):
        fam = spin_hamiltonian_family(1.0)
        for _ in range(10):
            b = RNG.normal(size=3)
            b *= RNG.uniform(0.5, 2.0) / np.linalg.norm(b)
            actions = RNG.uniform(0.0, 2.0, size=2)
            dx = RNG.normal(size=3)
            lhs = theta_averaged_one_form(fam, actions, b, dx)
            rhs = float(actions @ finite_difference_connection(fam, b, dx))
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-9)

    def test_matches_connection_three_level(self):
        fam = random_family(3, RNG)
        for _ in range(5):
            x = RNG.normal(size=3)
            actions = RNG.uniform(0.0, 2.0, size=3)
            dx = RNG.normal(size=3)
            lhs = theta_averaged_one_form(fam, actions, x, dx)
            rhs = float(actions @ finite_difference_connection(fam, x, dx))
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-9)


def sequential_gauge(vectors):
    """The sample-by-sample alignment loop that ``align_gauge`` replaces."""
    v = vectors.copy()
    for j in range(1, v.shape[0]):
        ov = np.einsum("nk,nk->k", np.conj(v[j - 1]), v[j])
        phases = np.where(np.abs(ov) > 0, ov / np.abs(np.where(np.abs(ov) > 0, ov, 1.0)), 1.0)
        v[j] *= np.conj(phases)[None, :]
    return v


def raw_eigenvectors(family, loop):
    return _eigh(family.matrices(loop.points))[1]


def three_level_loop(n_samples):
    return make_loop(
        lambda t: np.array([math.cos(2 * math.pi * t), math.sin(2 * math.pi * t),
                            0.3 * math.sin(4 * math.pi * t)]),
        1.0,
        n_samples,
    )


class TestCumulativeGauge:
    def test_matches_sequential_loop_spin(self):
        fam = spin_hamiltonian_family(1.3)
        loop = cone_loop(1.2, n_samples=4096)
        raw = raw_eigenvectors(fam, loop)
        ref = sequential_gauge(raw)
        assert np.max(np.abs(align_gauge(raw.copy()) - ref)) <= 1e-12
        aligned = align_gauge(eigenframe_along_loop(fam, loop).vectors.copy())
        assert np.max(np.abs(aligned - ref)) <= 1e-12
        # the same rays as LAPACK's, whatever the phase of each
        lapack = np.linalg.eigh(fam.matrices(loop.points))[1]
        fidelity = np.abs(np.einsum("jnk,jnk->jk", np.conj(aligned), lapack))
        assert np.min(fidelity) >= 1 - 1e-12

    def test_matches_sequential_loop_three_level(self):
        # a family that is not the spin family
        fam = random_family(3, np.random.default_rng(7))
        loop = three_level_loop(1024)
        aligned = align_gauge(eigenframe_along_loop(fam, loop).vectors.copy())
        ref = sequential_gauge(raw_eigenvectors(fam, loop))
        assert np.max(np.abs(aligned - ref)) <= 1e-12

    @pytest.mark.parametrize("case", ["spin", "three-level"])
    def test_consecutive_overlaps_real_nonnegative(self, case):
        if case == "spin":
            frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(2.0, n_samples=2048))
        else:
            frame = eigenframe_along_loop(random_family(3, np.random.default_rng(7)),
                                          three_level_loop(1024))
        v = align_gauge(frame.vectors.copy())
        ov = np.einsum("jnk,jnk->jk", np.conj(v[:-1]), v[1:])
        assert np.max(np.abs(ov.imag)) <= 1e-12
        assert np.min(ov.real) >= -1e-12

    def test_zero_overlap_contributes_phase_one(self):
        # level 0 jumps from e0 to e1 between samples 1 and 2: that overlap is
        # exactly zero, its link is 1, and sample 2 keeps the factor -i that
        # sample 1 needed
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        v = np.stack([e0, 1j * e0, -e1, np.exp(0.4j) * e1, np.exp(1.1j) * e1])[:, :, None]
        out = align_gauge(v.copy())
        assert np.all(np.isfinite(out))
        assert_allclose(out[:2, :, 0], [e0, e0], atol=1e-15)
        assert_allclose(out[2:, :, 0], np.broadcast_to(-1j * -e1, (3, 2)), atol=1e-15)
        ov = np.einsum("jnk,jnk->jk", np.conj(out[:-1]), out[1:])[:, 0]
        assert ov[1] == 0
        assert_allclose(ov[[0, 2, 3]], 1.0, atol=1e-15)


class TestNonFinite:
    def test_nan_interior_sample_raises_with_its_index(self):
        equator = cone_loop(math.pi / 2, n_samples=64)
        pts = equator.points.copy()
        pts[20, 1] = np.nan
        loop = LoopSpec(equator.period, pts, cycles=equator.cycles)
        with pytest.raises(NonFinite) as err:
            eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        assert err.value.sample == 20

    def test_overflowing_family_raises(self):
        with pytest.raises(NonFinite) as err:
            spin_hamiltonian_family(1e300).matrices(np.array([[0.0, 0.0, 1.0], [1e150, 0.0, 0.0]]))
        assert err.value.sample == 1
        with pytest.raises(NonFinite):
            spin_hamiltonian_family(1e300).matrix(np.array([1e150, 0.0, 0.0]))


CONE_THETA = st.floats(min_value=0.2, max_value=math.pi - 0.2)
LEVEL = st.sampled_from([0, 1])
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def wrapped(angle):
    return abs((angle + math.pi) % (2 * math.pi) - math.pi)


class TestWilsonProperties:
    @PROPERTY
    @given(theta=CONE_THETA, level=LEVEL, seed=st.integers(0, 2**32 - 1))
    def test_random_sample_phases_leave_gamma_unchanged(self, theta, level, seed):
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), cone_loop(theta, n_samples=256))
        phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(257, 1, 2)))
        scrambled = EigenFrame(loop=frame.loop, energies=frame.energies,
                               vectors=frame.vectors * phases, min_gap=frame.min_gap)
        assert abs(berry_and_hannay(scrambled, level)[0] - berry_and_hannay(frame, level)[0]) <= 1e-10

    @PROPERTY
    @given(theta=CONE_THETA, level=LEVEL, cycles=st.sampled_from([1, 2]))
    def test_reversed_loop_negates_gamma(self, theta, level, cycles):
        fam = spin_hamiltonian_family(1.0)
        loop = cone_loop(theta, n_samples=256, cycles=cycles)
        gamma, _ = berry_and_hannay(eigenframe_along_loop(fam, loop), level)
        gamma_rev, _ = berry_and_hannay(eigenframe_along_loop(fam, loop.reversed()), level)
        assert abs(gamma_rev + gamma) <= 1e-10

    @PROPERTY
    @given(theta=CONE_THETA, level=LEVEL, shift=st.integers(1, 255))
    def test_cyclic_shift_leaves_gamma_unchanged(self, theta, level, shift):
        fam = spin_hamiltonian_family(1.0)
        loop = cone_loop(theta, n_samples=256)
        pts = np.roll(loop.points[:-1], -shift, axis=0)
        shifted = LoopSpec(loop.period, np.vstack([pts, pts[:1]]), cycles=loop.cycles)
        gamma, _ = berry_and_hannay(eigenframe_along_loop(fam, loop), level)
        gamma_shift, _ = berry_and_hannay(eigenframe_along_loop(fam, shifted), level)
        assert wrapped(gamma_shift - gamma) <= 1e-10

    @PROPERTY
    @given(theta=CONE_THETA, level=LEVEL, cycles=st.integers(2, 4),
           m=st.sampled_from([64, 128, 256]))
    def test_cycles_scale_gamma_and_closed_form(self, theta, level, cycles, m):
        fam = spin_hamiltonian_family(1.0)
        single = cone_loop(theta, n_samples=m)
        multi = cone_loop(theta, n_samples=cycles * m, cycles=cycles)
        gamma, _ = berry_and_hannay(eigenframe_along_loop(fam, single), level)
        gamma_c, _ = berry_and_hannay(eigenframe_along_loop(fam, multi), level)
        assert abs(gamma_c - cycles * gamma) <= 1e-10
        closed = spin_hannay_closed_form(single, level + 1)
        assert abs(spin_hannay_closed_form(multi, level + 1) - cycles * closed) <= 1e-10

    @PROPERTY
    @given(theta=CONE_THETA, level=LEVEL, m=st.sampled_from([64, 128, 256]),
           amp=st.floats(-0.6, 0.6), offset=st.floats(0.0, 2 * math.pi))
    def test_reparametrised_azimuth_keeps_gamma(self, theta, level, m, amp, offset):
        # azimuth 2 pi s + amp (sin(2 pi s + offset) - sin offset) is monotone for |amp| < 1
        fam = spin_hamiltonian_family(1.0)
        uniform = cone_loop(theta, n_samples=m)
        s = uniform.times
        phi = 2 * math.pi * s + amp * (np.sin(2 * math.pi * s + offset) - math.sin(offset))
        pts = np.column_stack([math.sin(theta) * np.cos(phi), math.sin(theta) * np.sin(phi),
                               np.full_like(phi, math.cos(theta))])
        gamma, _ = berry_and_hannay(eigenframe_along_loop(fam, uniform), level)
        gamma_re, _ = berry_and_hannay(eigenframe_along_loop(fam, LoopSpec(1.0, pts)), level)
        discretisation = abs(gamma + spin_hannay_closed_form(uniform, level + 1))
        assert abs(gamma_re - gamma) <= discretisation + 1e-12


class TestWilsonLinks:
    def test_orthogonal_consecutive_eigenvectors_raise_overlap_too_small(self):
        # the field flips from +z to -z between samples 7 and 8 and back at the end:
        # the gap stays 2, but the link between samples 7 and 8 vanishes
        pts = np.zeros((17, 3))
        pts[:, 2] = 1.0
        pts[8:16, 2] = -1.0
        loop = LoopSpec(1.0, pts)
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        for level in (0, 1):
            with pytest.raises(OverlapTooSmall) as err:
                berry_and_hannay(frame, level)
            assert err.value.sample == 7

    def test_vanishing_closing_link_names_the_last_sample(self):
        # a real track turning from (1, 0) to exactly (0, 1) in 16 steps: every
        # consecutive overlap is cos(pi/32), the closing one is exactly 0
        angle = np.linspace(0.0, math.pi / 2, 17)
        c, s = np.cos(angle), np.sin(angle)
        c[-1], s[-1] = 0.0, 1.0
        vectors = np.stack([np.column_stack([c, s]), np.column_stack([-s, c])], axis=2)
        loop = LoopSpec(1.0, np.ones((17, 1)))
        frame = EigenFrame(loop=loop, energies=np.tile([-1.0, 1.0], (17, 1)),
                           vectors=vectors.astype(complex), min_gap=2.0)
        with pytest.raises(OverlapTooSmall) as err:
            berry_and_hannay(frame, 0)
        assert err.value.sample == 16


def old_spin_hannay_closed_form(loop, level):
    """The closed form as written before its points were scaled by a power of two."""
    b1, b2, b3 = loop.points.T
    b = np.sqrt(b1**2 + b2**2 + b3**2)
    sign = 1.0 if level == 1 else -1.0
    denom_core = b + sign * b3
    if np.any(denom_core <= 1e-6 * b):
        raise PoleProximity("pole")
    denom = 2.0 * b * denom_core
    return -closed_line_integral({0: b2 / denom, 1: -b1 / denom}, loop).value


class TestClosedFormScale:
    def test_in_range_values_unchanged(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            theta = rng.uniform(0.2, 2.9)
            b = 10.0 ** rng.uniform(-3, 3)
            loop = cone_loop(theta, b=b, n_samples=int(rng.choice([64, 256, 4096])))
            for level in (1, 2):
                assert spin_hannay_closed_form(loop, level) == old_spin_hannay_closed_form(
                    loop, level)

    @pytest.mark.parametrize("exponent", [515, -664, 997])
    def test_power_of_two_scaled_field_gives_unit_value(self, exponent):
        # fields near 1e155, 1e-200 and 1e300: the squares overflow or underflow
        unit = cone_loop(1.0, n_samples=256)
        scaled = LoopSpec(unit.period, np.ldexp(unit.points, exponent))
        for level in (1, 2):
            assert spin_hannay_closed_form(scaled, level) == spin_hannay_closed_form(unit, level)

    def test_small_field_loop_closed_within_absolute_tolerance(self):
        # |B| = 1e-6 and an endpoint 5e-13 off: closed within LoopSpec's
        # absolute tolerance 1e-12, which the same loop scaled to |B| ~ 1 is not
        loop = cone_loop(1.0, b=1e-6, n_samples=256)
        pts = loop.points.copy()
        pts[-1, 2] += 5e-13
        small = LoopSpec(loop.period, pts)
        for level in (1, 2):
            unit = spin_hannay_closed_form(cone_loop(1.0, n_samples=256), level)
            assert abs(spin_hannay_closed_form(small, level) - unit) <= 1e-8

    @pytest.mark.parametrize("b", [1e155, 1e-200, 1e300])
    def test_extreme_field_strength_matches_wilson(self, b):
        loop = cone_loop(1.0, b=b, n_samples=256)
        frame = eigenframe_along_loop(spin_hamiltonian_family(1.0), loop)
        for level in (1, 2):
            closed = spin_hannay_closed_form(loop, level)
            assert abs(closed - spin_hannay_closed_form(cone_loop(1.0, n_samples=256), level)) <= 1e-14
            assert abs(berry_and_hannay(frame, level - 1)[1] - closed) <= 1e-4


def two_level_stack(rng, n, exponent, offset):
    """n random 2 x 2 Hermitian matrices scaled by 10**exponent, each shifted
    by ``offset`` times its own splitting; the first rows are the kernel's
    branch edges: diagonal either way round, real and imaginary couplings,
    equal diagonals, and an exact degeneracy."""
    a, d = rng.normal(size=(2, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    a[:6] = [1.0, -1.0, 0.7, 0.2, 0.5, 0.5]
    d[:6] = [-1.0, 1.0, -0.3, 0.9, 0.5, 0.5]
    b[:6] = [0.0, 0.0, 0.4, -0.6j, 1.0 - 1.0j, 0.0]
    shift = offset * np.hypot(0.5 * (a - d), np.abs(b))
    h = np.empty((n, 2, 2), dtype=complex)
    h[:, 0, 0] = a + shift
    h[:, 1, 1] = d + shift
    h[:, 0, 1] = b
    h[:, 1, 0] = np.conj(b)
    return h * 10.0**exponent


class TestTwoLevelKernel:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-200, 155),
           offset=st.floats(-1e6, 1e6))
    def test_matches_lapack(self, seed, exponent, offset):
        h = two_level_stack(np.random.default_rng(seed), 64, exponent, offset)
        scale = np.max(np.abs(h), axis=(1, 2))
        energies, vectors = _eigh(h)
        assert np.array_equal(_eigh(h, vectors=False), energies)
        assert np.all(np.abs(energies - np.linalg.eigvalsh(h)) <= 1e-14 * scale[:, None])
        resid = np.linalg.norm(h @ vectors - vectors * energies[:, None, :], axis=1)
        assert np.all(resid <= 1e-14 * scale[:, None])
        gram = np.einsum("jnk,jnl->jkl", np.conj(vectors), vectors)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-14
        assert np.all(energies[:, 0] <= energies[:, 1])

    @pytest.mark.parametrize("c", [0.0, 2.5])
    @pytest.mark.parametrize("route", ["frame", "connection", "propagation"])
    def test_exact_degeneracy_is_a_gap_error(self, c, route):
        fam = constant_family(c * np.eye(2, dtype=complex))
        loop = make_loop(lambda t: np.array([math.cos(2 * math.pi * t), 0.0]), 1.0, 16)
        with np.errstate(all="raise"), pytest.raises(GapTooSmall):
            if route == "frame":
                eigenframe_along_loop(fam, loop)
            elif route == "connection":
                finite_difference_connection(fam, np.array([0.3, 0.1]), np.array([1.0, 0.0]))
            else:
                propagate_quantum(fam, loop, 0, 10.0, steps_per_sample=4)

    def test_three_levels_keep_lapack(self):
        fam = random_family(3, np.random.default_rng(7))
        loop = three_level_loop(256)
        energies, vectors = np.linalg.eigh(fam.matrices(loop.points))
        frame = eigenframe_along_loop(fam, loop)
        assert np.array_equal(frame.energies, energies)
        assert np.array_equal(frame.vectors, vectors)


def random_stack(rng, n, dim, scale, hermitian=True):
    """n random complex dim x dim matrices times ``scale``; with ``hermitian``
    the Hermitian part, which is Hermitian bit for bit."""
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    if hermitian:
        a = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
    return a * scale


def stack_family(h):
    """The family that returns the stack ``h`` for a loop of len(h) samples."""
    return HamiltonianFamily(dim=h.shape[-1], eval=lambda pts: h)


def perturbed_eigh(sample, level, component, size):
    """``_eigh`` with one eigenvector entry moved by ``size``."""
    def eigh(h, vectors=True):
        energies, vecs = _eigh(h)
        vecs[sample, component, level] += size
        return energies, vecs
    return eigh


def einsum_residual(h, energies, vectors):
    """The batched residual H v - E v that the entry-wise check replaces."""
    return np.einsum("jab,jbk->jak", h, vectors) - vectors * energies[:, None, :]


CHECK_CASE = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5),
                  exponent=st.integers(-200, 150))


class TestEntrywiseChecks:
    """The Hermiticity and residual checks, one pass over the sample axis per
    matrix entry, against the full-stack formulas they replace."""

    @PROPERTY
    @given(**CHECK_CASE)
    def test_hermitian_deviation_equals_full_difference(self, seed, dim, exponent):
        rng = np.random.default_rng(seed)
        for hermitian in (False, True):
            h = random_stack(rng, 33, dim, 10.0**exponent, hermitian)
            full = float(np.max(np.abs(h - np.conj(np.swapaxes(h, 1, 2)))))
            assert _hermitian_deviation(h) == full

    @PROPERTY
    @given(**CHECK_CASE)
    def test_residuals_match_einsum(self, seed, dim, exponent):
        h = random_stack(np.random.default_rng(seed), 33, dim, 10.0**exponent)
        energies, vectors = _eigh(h)
        ref = np.abs(einsum_residual(h, energies, vectors))
        new = _residuals(h, energies, vectors).reshape(dim, dim, -1).transpose(2, 0, 1)
        scale = np.max(np.abs(h), axis=(1, 2))[:, None, None]
        assert np.all(np.abs(new - ref) <= 8 * np.finfo(float).eps * scale)

    @PROPERTY
    @given(**CHECK_CASE, factor=st.sampled_from([0.5, 2.0]))
    def test_hermiticity_check_decides_as_before(self, seed, dim, exponent, factor):
        rng = np.random.default_rng(seed)
        h = random_stack(rng, 33, dim, 10.0**exponent)
        j, i, k = rng.integers(33), rng.integers(dim), rng.integers(dim)
        # an imaginary diagonal part is exact at every scale: dev = factor * tol
        diagonal = h.copy()
        diagonal[j, i, i] += 0.5j * factor * 1e-10
        offdiagonal = h.copy()
        offdiagonal[j, i, (i + 1) % dim] += factor * 1e-10
        for stack in (diagonal, offdiagonal):
            before = float(np.max(np.abs(stack - np.conj(np.swapaxes(stack, 1, 2))))) > 1e-10
            try:
                stack_family(stack).matrices(np.zeros((33, 1)))
                raised = False
            except HermiticityViolation:
                raised = True
            assert raised == before
        assert (factor > 1) == (_hermitian_deviation(diagonal) > 1e-10)

    @PROPERTY
    @given(**CHECK_CASE, factor=st.sampled_from([0.5, 2.0]))
    def test_residual_check_decides_as_before(self, seed, dim, exponent, factor):
        rng = np.random.default_rng(seed)
        h = random_stack(rng, 33, dim, 10.0**exponent)
        energies, vectors = _eigh(h)
        j, level = rng.integers(33), rng.integers(dim)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(h))))
        # moving entry a of the vector by d moves the residual by d (H - E) e_a
        column = np.abs(h[j] - energies[j, level] * np.eye(dim))
        component = int(np.argmax(np.max(column, axis=0)))
        size = factor * tol / np.max(column[:, component])
        vectors[j, component, level] += size
        before = float(np.max(np.abs(einsum_residual(h, energies, vectors)))) > tol
        assert before == (factor > 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantum_geometry, "_eigh", perturbed_eigh(j, level, component, size))
            try:
                eigenframe_along_loop(stack_family(h), circle_loop(n_samples=32))
                raised = None
            except ResidualTooLarge as exc:
                raised = exc
        assert (raised is not None) == before
        if raised is not None:
            assert raised.sample == j and f"level {level} at sample {j}" in str(raised)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_failure_names_sample_and_level(self, dim, monkeypatch):
        if dim == 2:
            fam, loop = spin_hamiltonian_family(1.0), cone_loop(1.0, n_samples=64)
        else:
            fam, loop = random_family(3, np.random.default_rng(11)), three_level_loop(64)
        level = dim - 1
        monkeypatch.setattr(quantum_geometry, "_eigh", perturbed_eigh(37, level, 0, 1e-6))
        with pytest.raises(ResidualTooLarge, match=f"level {level} at sample 37") as info:
            eigenframe_along_loop(fam, loop)
        assert info.value.sample == 37
