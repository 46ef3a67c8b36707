import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loops import make_loop
from numpy.testing import assert_allclose

from holonomy import (
    EllipticViolation,
    LoopSpec,
    ModeCollapse,
    cone_loop,
    full_quantum_phase,
    spin_hamiltonian_family,
)
from holonomy.hybrid_pipeline import _normal_mode_squares

RNG = np.random.default_rng(42)


def bare_squares(x1, x2, k):
    """omega1^2, omega2^2 and k^2 Z1 Z2 of one pair of triples (X, Y, Z), as
    the one-sample arrays ``full_quantum_phase`` hands the normal-mode core."""
    x, y, z = np.array([x1, x2], dtype=float).T
    w_sq = x * z - y**2
    return w_sq[:1], w_sq[1:], np.array([k**2 * x1[2] * x2[2]])


def split(x1, x2, k):
    """(upper^2, lower^2, sin^2 beta) of one pair of triples."""
    return tuple(float(v[0]) for v in _normal_mode_squares(*bare_squares(x1, x2, k)))


def collapse_coupling(x1, x2):
    """k_c = omega1 omega2 / sqrt(Z1 Z2), where the lower mode closes."""
    w1_sq, w2_sq, _ = bare_squares(x1, x2, 0.0)
    return math.sqrt(w1_sq[0] * w2_sq[0] / (x1[2] * x2[2]))


def random_triple(rng):
    return (rng.uniform(1, 4), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2))


class TestSpinEigensystem:
    def test_matches_generic_eigensolver(self):
        # the spin family's spectrum is -mu |B|, +mu |B|
        fam = spin_hamiltonian_family(1.7)
        for _ in range(25):
            b = RNG.normal(size=3)
            norm = float(np.linalg.norm(b))
            if norm < 1e-3:
                continue
            evals = np.linalg.eigvalsh(fam.matrix(b))
            for e, expected in zip(evals, (-1.7 * norm, 1.7 * norm)):
                assert abs(e - expected) <= 1e-12 * max(1, abs(expected))


# X in [1, 4], Y in [-0.5, 0.5], Z in [0.5, 2]: omega^2 = X Z - Y^2 in [0.25, 8]
TRIPLES = st.tuples(st.floats(1.0, 4.0), st.floats(-0.5, 0.5), st.floats(0.5, 2.0))
# k^2 Z1 Z2 as a share of omega1^2 omega2^2: short of collapse, or past it
KZZ_SHARE = st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 2.0))


class TestNormalModes:
    def test_decoupled_limit(self):
        # omega1^2 = 4, omega2^2 = 1
        assert split((4.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.0) == (4.0, 1.0, 0.0)

    def test_frequency_sum_rule(self):
        for _ in range(20):
            x1, x2 = random_triple(RNG), random_triple(RNG)
            high_sq, low_sq, _ = split(x1, x2, 0.5 * collapse_coupling(x1, x2))
            w1_sq, w2_sq, _ = bare_squares(x1, x2, 0.0)
            rhs = float(w1_sq[0] + w2_sq[0])
            assert abs(high_sq + low_sq - rhs) <= 1e-12 * rhs

    def test_degenerate_coupled_example(self):
        high_sq, low_sq, sin_sq = split((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.5)
        assert_allclose(high_sq, 1.5, rtol=1e-14)
        assert_allclose(low_sq, 0.5, rtol=1e-14)
        assert_allclose(sin_sq, 0.5, rtol=1e-12)

    def test_mode_collapse(self):
        with pytest.raises(ModeCollapse) as err:
            split((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 1.0)
        assert err.value.sample == 0

    def test_continuity_toward_zero_coupling(self):
        x1, x2 = (4.0, 0.1, 1.0), (1.0, -0.2, 1.0)
        prev_sin_sq, prev_low_sq = None, None
        for k in (0.5, 0.25, 0.125, 0.0625, 0.0):
            _, low_sq, sin_sq = split(x1, x2, k)
            if prev_sin_sq is not None:
                assert abs(sin_sq - prev_sin_sq) < 0.3
                assert abs(low_sq - prev_low_sq) < 0.4
            prev_sin_sq, prev_low_sq = sin_sq, low_sq
        w1_sq, w2_sq, _ = bare_squares(x1, x2, 0.0)
        assert abs(prev_low_sq - min(w1_sq[0], w2_sq[0])) < 1e-12
        assert prev_sin_sq in (0.0, 1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(TRIPLES, TRIPLES, KZZ_SHARE), min_size=1, max_size=8))
    def test_squares_keep_the_invariants_or_name_the_collapse(self, pairs):
        w1_sq = np.array([t1[0] * t1[2] - t1[1] ** 2 for t1, _, _ in pairs])
        w2_sq = np.array([t2[0] * t2[2] - t2[1] ** 2 for _, t2, _ in pairs])
        kzz = np.array([share for _, _, share in pairs]) * w1_sq * w2_sq
        collapsed = [j for j, (_, _, share) in enumerate(pairs) if share > 1.0]
        if collapsed:
            with pytest.raises(ModeCollapse) as err:
                _normal_mode_squares(w1_sq, w2_sq, kzz)
            assert err.value.sample == collapsed[0]
            return
        high_sq, low_sq, sin_sq = _normal_mode_squares(w1_sq, w2_sq, kzz)
        total = w1_sq + w2_sq
        ulp = np.spacing(total)
        assert np.all(np.abs(high_sq + low_sq - total) <= 4 * ulp)
        assert np.all(np.abs(high_sq * low_sq - (w1_sq * w2_sq - kzz)) <= 16 * total * ulp)
        assert np.all((0.0 <= sin_sq) & (sin_sq <= 1.0))


def pair_loop(x1, x2, n_samples=16):
    """A constant combined loop holding one pair of triples (X, Y, Z)."""
    return LoopSpec(1.0, np.tile(np.array([*x1, *x2], dtype=float), (n_samples + 1, 1)))


# (error, what the message names, the call)
MODEL_GUARDS = {
    "X Z < Y^2": (EllipticViolation, "bare triple's frequency squared",
                  lambda: full_quantum_phase(pair_loop((1.0, 2.0, 1.0), (1.0, 0.0, 1.0)),
                                             0.1, 0, 0)),
}


@pytest.mark.parametrize("error, names, call", MODEL_GUARDS.values(), ids=MODEL_GUARDS.keys())
def test_guard_raises_its_error_naming_the_argument(error, names, call):
    with pytest.raises(error, match=names):
        call()


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


def old_normal_mode_squares(w1_sq, w2_sq, kzz):
    """The scalar formula the vectorised core replaced, on the squares."""
    r = math.sqrt((w1_sq - w2_sq) ** 2 + 4.0 * kzz)
    low_sq = 0.5 * (w1_sq + w2_sq - r)
    if not low_sq > 0:
        raise ModeCollapse("lower normal frequency squared is not positive")
    high_sq = 0.5 * (w1_sq + w2_sq + r)
    sin_sq = 0.0 if r == 0.0 else min(1.0, max(0.0, (w2_sq - w1_sq + r) / (2.0 * r)))
    return high_sq, low_sq, sin_sq


def old_split(x1, x2, k):
    return old_normal_mode_squares(*(float(v[0]) for v in bare_squares(x1, x2, k)))


class TestNormalModesUnchanged:
    def test_named_points_bit_identical(self):
        x1, x2 = (4.0, 0.1, 1.0), (1.0, -0.2, 1.3)
        k_lim = collapse_coupling(x1, x2)
        cases = [
            ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.0),  # r = 0, where sin^2 beta is 0
            ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), 0.5),
            (x1, x2, 0.0),
            (x1, x2, 0.3),
            (x2, x1, 0.3),
            (x1, x2, k_lim * (1.0 - 1e-9)),  # just short of collapse
        ]
        for a, b, k in cases:
            assert split(a, b, k) == old_split(a, b, k)
        assert split(*cases[0])[2] == 0.0

    def test_random_points_agree_with_the_old_split(self):
        # The old formula squared w1^2 - w2^2 with Python's float power, which
        # is not always correctly rounded; the core's square is.  Wherever
        # the two squares agree, so does every output bit.
        rng = np.random.default_rng(3)
        exact = 0
        for _ in range(500):
            x1, x2 = random_triple(rng), random_triple(rng)
            k = rng.uniform(0.0, 0.99) * collapse_coupling(x1, x2)
            new = split(x1, x2, k)
            old = old_split(x1, x2, k)
            w1_sq, w2_sq, _ = bare_squares(x1, x2, 0.0)
            d = float(w1_sq[0] - w2_sq[0])
            if d**2 == d * d:
                assert new == old
                exact += 1
            else:
                for u, v in zip(new, old):
                    assert abs(u - v) <= 4 * math.ulp(v)
        assert exact >= 490
