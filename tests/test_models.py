import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonomy import (
    EllipticViolation,
    GHOTriple,
    ModeCollapse,
    SpinFieldModel,
    ZeroField,
    cone_loop,
    gho_effective_energy,
    make_loop,
    normal_mode_split,
    spin_eigensystem,
    spin_hamiltonian_family,
    spin_oscillator_effective,
    spin_oscillator_weak_expansion,
)

RNG = np.random.default_rng(42)


class TestSpinEigensystem:
    def test_north_axis(self):
        (e1, v1), (e2, v2) = spin_eigensystem(np.array([0.0, 0.0, 1.0]), mu=1.0)
        assert e1 == -1.0 and e2 == 1.0
        assert_allclose(v1, [0.0, 1.0], atol=1e-15)

    def test_transverse_field(self):
        (_, v1), _ = spin_eigensystem(np.array([1.0, 0.0, 0.0]))
        assert_allclose(v1, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)

    def test_matches_generic_eigensolver(self):
        fam = spin_hamiltonian_family(1.7)
        for _ in range(25):
            b = RNG.normal(size=3)
            if np.linalg.norm(b) < 1e-3:
                continue
            (e1, v1), (e2, v2) = spin_eigensystem(b, mu=1.7)
            evals, evecs = np.linalg.eigh(fam.matrix(b))
            assert abs(e1 - evals[0]) <= 1e-12 * max(1, abs(evals[0]))
            assert abs(e2 - evals[1]) <= 1e-12 * max(1, abs(evals[1]))
            assert abs(abs(np.vdot(v1, evecs[:, 0])) - 1.0) < 1e-12
            assert abs(abs(np.vdot(v2, evecs[:, 1])) - 1.0) < 1e-12

    def test_orthonormal_everywhere(self):
        for _ in range(25):
            b = RNG.normal(size=3)
            if np.linalg.norm(b) < 1e-3:
                continue
            (_, v1), (_, v2) = spin_eigensystem(b)
            assert abs(np.vdot(v1, v1) - 1.0) < 1e-12
            assert abs(np.vdot(v2, v2) - 1.0) < 1e-12
            assert abs(np.vdot(v1, v2)) < 1e-12

    def test_zero_field(self):
        with pytest.raises(ZeroField):
            spin_eigensystem(np.zeros(3))

    def test_spin_field_model_rejects_vanishing_field(self):
        loop = cone_loop(0.4, n_samples=64)
        SpinFieldModel(mu=1.0, b_loop=loop)  # fine
        bad = loop.points.copy()
        bad[3] = 0.0
        from holonomy import LoopSpec

        with pytest.raises(ZeroField):
            SpinFieldModel(mu=1.0, b_loop=LoopSpec(loop.period, loop.times, bad))


class TestSpinOscillatorEffective:
    def test_decoupled(self):
        eff = spin_oscillator_effective(b=2.0, lam=0.0, q=1.3)
        assert eff.b_tot == 2.0
        assert_allclose(eff.theta, math.pi / 2, rtol=1e-15)

    def test_matched_coupling(self):
        eff = spin_oscillator_effective(b=1.0, lam=1.0, q=1.0, mu=2.0)
        assert_allclose(eff.b_tot, math.sqrt(2.0), rtol=1e-15)
        assert_allclose(math.cos(eff.theta), 1.0 / math.sqrt(2.0), rtol=1e-14)
        assert_allclose(eff.e_plus, 2.0 * math.sqrt(2.0), rtol=1e-15)

    def test_matches_two_level_eigensolver(self):
        fam = spin_hamiltonian_family(1.0)
        for _ in range(10):
            b, lam, q = RNG.uniform(0.5, 2.0), RNG.uniform(0, 1), RNG.normal()
            phi = RNG.uniform(0, 2 * math.pi)
            eff = spin_oscillator_effective(b, lam, q)
            field = np.array([b * math.cos(phi), b * math.sin(phi), lam * q])
            evals = np.linalg.eigvalsh(fam.matrix(field))
            assert_allclose(evals, [-eff.b_tot, eff.b_tot], rtol=1e-12)

    def test_expansion_remainder_bound(self):
        b = 1.0
        for lam_q in np.linspace(0.01, 0.3, 12):
            exact = math.hypot(b, lam_q)
            approx = spin_oscillator_weak_expansion(b, lam_q, 1.0)
            assert abs(exact - approx) <= lam_q**4 / (8.0 * b**3)


class TestGHOEffectiveEnergy:
    def test_decoupled_ground_state(self):
        triple = GHOTriple(x=2.0, y=0.3, z=1.0)
        assert_allclose(
            gho_effective_energy(triple, k=0.0, q=5.0, n=0, hbar=1.0),
            0.5 * triple.omega,
            rtol=1e-15,
        )

    def test_cancellation_point(self):
        assert gho_effective_energy(GHOTriple(1.0, 0.0, 1.0), k=1.0, q=1.0, n=0) == 0.0

    def test_elliptic_violation(self):
        with pytest.raises(EllipticViolation):
            gho_effective_energy(GHOTriple(x=1.0, y=2.0, z=1.0), k=0.0, q=0.0, n=0)

    def test_linear_in_n_quadratic_in_q(self):
        triple = GHOTriple(x=1.5, y=-0.4, z=0.8)
        ns = np.arange(6)
        vals_n = [gho_effective_energy(triple, 0.7, 1.1, int(n)) for n in ns]
        fit_n = np.polyfit(ns, vals_n, 1)
        assert np.max(np.abs(np.polyval(fit_n, ns) - vals_n)) < 1e-12
        qs = np.linspace(-2, 2, 9)
        vals_q = [gho_effective_energy(triple, 0.7, q, 2) for q in qs]
        fit_q = np.polyfit(qs, vals_q, 2)
        assert np.max(np.abs(np.polyval(fit_q, qs) - vals_q)) < 1e-12
        assert abs(fit_q[1]) < 1e-12  # no linear-in-q term


class TestNormalModes:
    def test_decoupled_limit(self):
        x1 = GHOTriple(4.0, 0.0, 1.0)  # omega1 = 2
        x2 = GHOTriple(1.0, 0.0, 1.0)  # omega2 = 1
        split = normal_mode_split(x1, x2, 0.0)
        assert_allclose([split.omega_1, split.omega_2], [2.0, 1.0], rtol=1e-15)
        assert split.beta == 0.0

    def test_frequency_sum_rule(self):
        for _ in range(20):
            x1 = GHOTriple(RNG.uniform(1, 4), RNG.uniform(-0.5, 0.5), RNG.uniform(0.5, 2))
            x2 = GHOTriple(RNG.uniform(1, 4), RNG.uniform(-0.5, 0.5), RNG.uniform(0.5, 2))
            k_lim = x1.omega * x2.omega / math.sqrt(x1.z * x2.z)
            split = normal_mode_split(x1, x2, 0.5 * k_lim)
            lhs = split.omega_1**2 + split.omega_2**2
            rhs = x1.omega**2 + x2.omega**2
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_degenerate_coupled_example(self):
        split = normal_mode_split(GHOTriple(1.0, 0.0, 1.0), GHOTriple(1.0, 0.0, 1.0), 0.5)
        assert_allclose(split.omega_1, math.sqrt(1.5), rtol=1e-14)
        assert_allclose(split.omega_2, math.sqrt(0.5), rtol=1e-14)
        assert_allclose(math.sin(split.beta) ** 2, 0.5, rtol=1e-12)

    def test_mode_collapse(self):
        with pytest.raises(ModeCollapse) as err:
            normal_mode_split(GHOTriple(1.0, 0.0, 1.0), GHOTriple(1.0, 0.0, 1.0), 1.0)
        assert err.value.sample == 0

    def test_continuity_toward_zero_coupling(self):
        x1 = GHOTriple(4.0, 0.1, 1.0)
        x2 = GHOTriple(1.0, -0.2, 1.0)
        prev_beta, prev_low = None, None
        for k in (0.5, 0.25, 0.125, 0.0625, 0.0):
            split = normal_mode_split(x1, x2, k)
            if prev_beta is not None:
                assert abs(split.beta - prev_beta) < 0.3
                assert abs(split.omega_2 - prev_low) < 0.2
            prev_beta, prev_low = split.beta, split.omega_2
        assert abs(prev_low - min(x1.omega, x2.omega)) < 1e-12
        assert prev_beta in (0.0,) or abs(prev_beta - math.pi / 2) < 1e-12


class TestConeLoop:
    @pytest.mark.parametrize("theta, b, period, n, cycles", [
        (math.pi / 3, 1.0, 1.0, 4096, 1), (0.3, 2.5, 3.0, 100, 2), (math.pi, 0.7, 1.0, 16, 3),
    ])
    def test_vectorised_samples_match_scalar_make_loop(self, theta, b, period, n, cycles):
        w = 2.0 * math.pi * cycles / period
        st, ct = math.sin(theta), math.cos(theta)
        scalar = make_loop(
            lambda t: b * np.array([st * math.cos(w * t), st * math.sin(w * t), ct]),
            period, n, cycles=cycles,
        )
        loop = cone_loop(theta, b=b, period=period, n_samples=n, cycles=cycles)
        assert np.array_equal(loop.times, scalar.times)
        assert np.array_equal(loop.points, scalar.points)
        assert loop.cycles == cycles


def old_normal_mode_split(x1, x2, k):
    """The scalar split as written before it became a view of the vectorised core."""
    w1sq = x1.omega**2
    w2sq = x2.omega**2
    r = math.sqrt((w1sq - w2sq) ** 2 + 4.0 * k**2 * x1.z * x2.z)
    low = 0.5 * (w1sq + w2sq - r)
    if not low > 0:
        raise ModeCollapse("lower normal frequency squared is not positive")
    high = 0.5 * (w1sq + w2sq + r)
    if r == 0.0:
        beta = 0.0
    else:
        sin_b = math.sqrt(max(0.0, (w2sq - w1sq + r) / (2.0 * r)))
        beta = math.asin(min(1.0, sin_b))
    return beta, math.sqrt(high), math.sqrt(low)


class TestNormalModesUnchanged:
    def test_named_points_bit_identical(self):
        x1, x2 = GHOTriple(4.0, 0.1, 1.0), GHOTriple(1.0, -0.2, 1.3)
        k_lim = x1.omega * x2.omega / math.sqrt(x1.z * x2.z)
        cases = [
            (GHOTriple(1.0, 0.0, 1.0), GHOTriple(1.0, 0.0, 1.0), 0.0),  # r = 0
            (GHOTriple(1.0, 0.0, 1.0), GHOTriple(1.0, 0.0, 1.0), 0.5),
            (x1, x2, 0.0),
            (x1, x2, 0.3),
            (x2, x1, 0.3),
            (x1, x2, k_lim * (1.0 - 1e-9)),  # just short of collapse
        ]
        for a, b, k in cases:
            split = normal_mode_split(a, b, k)
            assert (split.beta, split.omega_1, split.omega_2) == old_normal_mode_split(a, b, k)

    def test_random_points_agree_with_the_old_split(self):
        # The old split squared w1^2 - w2^2 with Python's float power, which
        # is not always correctly rounded; the core's square is.  Wherever
        # the two squares agree, so does every output bit.
        rng = np.random.default_rng(3)
        exact = 0
        for _ in range(500):
            x1 = GHOTriple(rng.uniform(1, 4), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2))
            x2 = GHOTriple(rng.uniform(1, 4), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2))
            k = rng.uniform(0.0, 0.99) * x1.omega * x2.omega / math.sqrt(x1.z * x2.z)
            split = normal_mode_split(x1, x2, k)
            new = (split.beta, split.omega_1, split.omega_2)
            old = old_normal_mode_split(x1, x2, k)
            d = x1.omega**2 - x2.omega**2
            if d**2 == d * d:
                assert new == old
                exact += 1
            else:
                for u, v in zip(new, old):
                    assert abs(u - v) <= 4 * math.ulp(v)
        assert exact >= 490
