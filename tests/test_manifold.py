import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from holonomy import (
    EllipticViolation,
    LoopSpec,
    NonFinite,
    NotClosed,
    QuadratureResult,
    StandardLoopParams,
    TooFewSamples,
    LengthMismatch,
    circle_loop,
    closed_line_integral,
    combined_parameter_loop,
    cone_loop,
    periodic_integral,
    standard_loop_report,
    standard_parameter_loops,
    subsystem_parameter_loop,
)
from holonomy import manifold
from holonomy.cli import ExperimentConfig, _sweep
from holonomy.manifold import _frequency_sq, _gho_loop, _joined
from loops import make_loop

EPS_PAPER = math.sqrt(3.0) / 2.0


def unit_circle_3d(n=4096, cycles=1):
    return make_loop(
        lambda t: np.array([math.cos(2 * math.pi * cycles * t), math.sin(2 * math.pi * cycles * t), 0.0]),
        period=1.0,
        n_samples=n,
        cycles=cycles,
    )


def angle_form(loop):
    x, y = loop.points[:, 0], loop.points[:, 1]
    r2 = x**2 + y**2
    return {0: -y / r2, 1: x / r2}


class TestMakeLoop:
    """The scalar sampler of ``loops``, the reference the loop builders are
    checked against, closes its loops and checks its grid before sampling."""

    def test_constant_map(self):
        loop = make_loop(lambda t: np.array([1.0, 0.0, 0.0]), 1.0, 16)
        assert loop.n_segments == 16
        assert np.all(loop.points == loop.points[0])

    def test_circle_closure(self):
        loop = unit_circle_3d()
        assert_allclose(loop.points[0], [1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(loop.points[-1], loop.points[0], atol=1e-12)

    def test_standard_family_value_at_zero(self):
        # X1(0) = a1*mu1*(1 + eps) for the standard drive
        p = StandardLoopParams(a1=2.0, a2=1.0, mu1=3.0, mu2=1.0, n1=1, n2=1,
                               base_rate=1.0, epsilon=EPS_PAPER)
        loop1, _ = standard_parameter_loops(p, 64)
        assert_allclose(loop1.points[0, 0], 2.0 * 3.0 * (1.0 + EPS_PAPER), rtol=1e-15)

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            make_loop(lambda t: np.array([t]), 1.0, 32)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            make_loop(lambda t: np.array([1.0]), 1.0, 8)

    @pytest.mark.parametrize("n_samples", [-5, -1, 0, 15])
    def test_sample_count_checked_before_sampling(self, n_samples):
        with pytest.raises(TooFewSamples):
            make_loop(never_called, 1.0, n_samples)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_period_checked_before_sampling(self, period):
        with pytest.raises(ValueError, match="period"):
            make_loop(never_called, period, 32)


def never_called(t):
    raise AssertionError(f"f called at t={t}")


def coupled_report(period, n_samples):
    """``standard_loop_report``, which takes its period from its parameters."""
    p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=2, n2=1, base_rate=1.0,
                           epsilon=0.5, k=0.1)
    return standard_loop_report(p, n_samples)


# Every loop builder, and the tests' scalar sampler, given a period and a
# sample count.  LoopSpec's sample count is the row count of its points, less one.
LOOP_BUILDERS = {
    "make_loop": lambda period, n: make_loop(never_called, period, n),
    "circle_loop": lambda period, n: circle_loop(period=period, n_samples=n),
    "cone_loop": lambda period, n: cone_loop(1.0, period=period, n_samples=n),
    "_gho_loop": lambda period, n: _gho_loop([(1.0, 1.0, 1.0)], 0.5, period, n, 1),
    "LoopSpec": lambda period, n: LoopSpec(period, np.ones((n + 1, 2))),
}
# Everything that takes a sample count and lays out its own grid.
SAMPLERS = {name: build for name, build in LOOP_BUILDERS.items() if name != "LoopSpec"} | {
    "standard_loop_report": coupled_report}


class TestClosedLineIntegral:
    def test_winding_number(self):
        loop = unit_circle_3d()
        res = closed_line_integral(angle_form(loop), loop)
        assert abs(res.value - 2 * math.pi) < 1e-10
        assert res.error_estimate >= 0.0

    def test_equatorial_connection(self):
        # c = (B2 dB1 - B1 dB2) / (2 B (B + B3)) integrates to -pi on the equator
        loop = unit_circle_3d()
        b1, b2, b3 = loop.points.T
        b = np.sqrt(b1**2 + b2**2 + b3**2)
        denom = 2.0 * b * (b + b3)
        res = closed_line_integral({0: b2 / denom, 1: -b1 / denom}, loop)
        assert abs(res.value + math.pi) < 1e-9

    def test_constant_loop_vanishes(self):
        loop = make_loop(lambda t: np.array([1.0, 2.0, 3.0]), 1.0, 64)
        c = {col: np.ones(len(loop.points)) for col in range(loop.dim)}
        assert closed_line_integral(c, loop).value == 0.0

    def test_orientation_reversal_negates(self):
        loop = unit_circle_3d(n=512)
        c = angle_form(loop)
        fwd = closed_line_integral(c, loop).value
        rev = closed_line_integral({col: v[::-1] for col, v in c.items()}, loop.reversed()).value
        assert abs(fwd + rev) <= 1e-12 * abs(fwd)

    def test_doubling_samples_converges(self):
        # smooth non-band-limited integrand: rational function on the circle
        def coeffs(loop):
            x, y = loop.points[:, 0], loop.points[:, 1]
            den = 1.0 + 0.5 * x
            return {0: -y / den, 1: x / den}

        v1 = closed_line_integral(coeffs(unit_circle_3d(1024)), unit_circle_3d(1024)).value
        v2 = closed_line_integral(coeffs(unit_circle_3d(2048)), unit_circle_3d(2048)).value
        assert abs(v2 - v1) < 1e-8 * abs(v2)

    def test_length_mismatch(self):
        loop = unit_circle_3d(n=64)
        with pytest.raises(LengthMismatch, match=r"shape \(10,\)"):
            closed_line_integral({0: np.zeros(10)}, loop)

    @pytest.mark.parametrize("columns", [{0: np.zeros(65), 1: np.zeros(64)},
                                         {2: np.zeros((65, 1))}, {0: np.zeros((65, 3))}],
                             ids=["one short", "2-D column", "dense array"])
    def test_column_of_another_shape(self, columns):
        loop = unit_circle_3d(n=64)
        with pytest.raises(LengthMismatch, match="shape"):
            closed_line_integral(columns, loop)

    @pytest.mark.parametrize("col", [3, -1, 1.0, "x"])
    def test_column_outside_the_loop(self, col):
        loop = unit_circle_3d(n=64)
        with pytest.raises(LengthMismatch, match="is not one of the loop's 3 columns of 65 samples"):
            closed_line_integral({0: np.zeros(65), col: np.zeros(65)}, loop)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sample", [0, 7, 10, 64])
    def test_non_finite_column(self, bad, sample):
        loop = unit_circle_3d(n=64)
        c = angle_form(loop)
        c[1][sample] = bad
        with pytest.raises(NonFinite):
            closed_line_integral(c, loop)

    def test_empty_covector_vanishes(self):
        res = closed_line_integral({}, unit_circle_3d(n=64))
        assert (res.value, res.error_estimate) == (0.0, 0.0)


def test_derived_is_built_once_per_arguments_and_not_after_a_raise():
    loop = unit_circle_3d(n=64)
    calls = []

    def build(loop, col):
        calls.append(col)
        if len(calls) == 1:
            raise NonFinite("first build fails")
        return loop.points[:, col] * 2.0

    with pytest.raises(NonFinite):
        loop.derived(build, 0)
    first = loop.derived(build, 0)
    assert loop.derived(build, 0) is first
    assert loop.derived(build, 1) is not first
    assert calls == [0, 0, 1]


def dense_reference(columns, loop):
    """The dense contraction: every column, zeros included, by einsum, full
    and stride-2; (value, error estimate, scale of the summands)."""
    dense = np.zeros_like(loop.points)
    for col, c in columns.items():
        dense[:, col] = c

    def trapezoid(c, vel):
        g = np.append(np.einsum("jd,jd->j", c[:-1], vel), c[-1] @ vel[0])
        return loop.period / (len(c) - 1) * (0.5 * g[0] + np.sum(g[1:-1]) + 0.5 * g[-1])

    value = trapezoid(dense, loop.velocity)
    half = trapezoid(dense[::2], loop.half_velocity)
    scale = loop.period / loop.n_segments * np.sum(np.abs(dense[:-1] * loop.velocity))
    return value, abs(value - half), scale


@settings(max_examples=200, deadline=None, derandomize=True)  # ~0.3 s, 2-core x86-64
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       half_m=st.integers(16, 300), period=st.floats(0.01, 100.0), data=st.data())
def test_columns_match_the_dense_contraction(seed, dim, half_m, period, data):
    """Contracting only a covector's columns gives the dense einsum's value and
    error estimate to 8 ulp of the summands' scale, for any subset of columns."""
    rng = np.random.default_rng(seed)
    m = 2 * half_m
    points = rng.normal(size=(m + 1, dim)) * rng.uniform(0.1, 10.0, size=dim)
    points[-1] = points[0]
    loop = LoopSpec(period, points)
    cols = data.draw(st.sets(st.integers(0, dim - 1)), label="columns")
    columns = {col: rng.normal(size=m + 1) * 10.0 ** rng.uniform(-3, 3) for col in cols}
    res = closed_line_integral(columns, loop)
    value, error, scale = dense_reference(columns, loop)
    tol = 8 * np.spacing(scale)
    assert abs(res.value - value) <= tol
    assert abs(res.error_estimate - error) <= tol


class TestPeriodicIntegral:
    def test_constant(self):
        res = periodic_integral(np.full(65, 2.5), 2.0)
        assert_allclose(res.value, 5.0, rtol=1e-15)

    def test_smooth_periodic(self):
        t = np.linspace(0, 2 * math.pi, 257)
        res = periodic_integral(1.0 / (2.0 + np.cos(t)), 2 * math.pi)
        assert_allclose(res.value, 2 * math.pi / math.sqrt(3.0), rtol=1e-12)


class TestStrideTwoEstimate:
    """Every quadrature's error estimate comes from its stride-2 subsample;
    where that cannot be formed, the quadrature refuses to run."""

    @pytest.mark.parametrize("segments", [17, 30])
    def test_periodic_integral_needs_an_even_count_of_32(self, segments):
        t = np.linspace(0, 2 * math.pi, segments + 1)
        with pytest.raises(TooFewSamples, match=f"got {segments}"):
            periodic_integral(1.0 / (2.0 + np.cos(t)), 2 * math.pi)

    @pytest.mark.parametrize("segments", [17, 30])
    def test_closed_line_integral_needs_an_even_count_of_32(self, segments):
        loop = unit_circle_3d(segments)
        with pytest.raises(TooFewSamples, match=f"got {segments}"):
            closed_line_integral(angle_form(loop), loop)

    def test_estimate_bounds_a_coarse_grid_error(self):
        t = np.linspace(0, 2 * math.pi, 33)
        res = periodic_integral(1.0 / (2.0 + np.cos(t)), 2 * math.pi)
        assert abs(res.value - 2 * math.pi / math.sqrt(3.0)) <= res.error_estimate


class TestStandardLoops:
    def test_epsilon_zero_freezes(self):
        p = StandardLoopParams(a1=1.5, a2=1.0, mu1=2.0, mu2=1.0, n1=1, n2=1,
                               base_rate=1.0, epsilon=0.0)
        loop1, _ = standard_parameter_loops(p, 64)
        assert np.all(loop1.points == loop1.points[0])
        assert_allclose(loop1.points[0], [1.5 * 2.0, 0.0, 1.5 / 2.0], rtol=1e-15)

    def test_frequency_invariant_along_loop(self):
        # X Z - Y^2 = a^2 (1 - eps^2) at every sample
        p = StandardLoopParams(a1=1.0, a2=2.0, mu1=1.0, mu2=3.0, n1=2, n2=1,
                               base_rate=1.0, epsilon=EPS_PAPER)
        loop1, loop2 = standard_parameter_loops(p, 512)
        for loop, a in ((loop1, p.a1), (loop2, p.a2)):
            x, y, z = loop.points.T
            assert_allclose(x * z - y**2, a**2 * (1 - EPS_PAPER**2), rtol=1e-12)
        x1, y1, z1 = loop1.points.T
        omega = np.sqrt(x1 * z1 - y1**2)
        assert_allclose(omega, p.a1 / 2.0, rtol=1e-12)  # a1 * sqrt(1 - 3/4)

    def test_common_period_and_cycles(self):
        p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=3, n2=2,
                               base_rate=1.0, epsilon=0.3)
        loop1, loop2 = standard_parameter_loops(p, 126)
        assert_allclose(loop1.period, 2 * math.pi, rtol=1e-15)
        assert loop1.cycles == 3 and loop2.cycles == 2
        # loop 1 repeats after a third of the common period
        x1 = loop1.points[:, 0]
        assert_allclose(x1[: 126 // 3], x1[126 // 3 : 2 * 126 // 3], rtol=1e-12)
        sub = subsystem_parameter_loop(p, 1, 128)
        assert_allclose(sub.period, 2 * math.pi / 3.0, rtol=1e-15)

    def test_reduced_pair_required(self):
        with pytest.raises(ValueError):
            StandardLoopParams(a1=1, a2=1, mu1=1, mu2=1, n1=2, n2=4,
                               base_rate=1.0, epsilon=0.1)

    def test_combined_loop_shape(self):
        p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1,
                               base_rate=1.0, epsilon=0.2)
        combined = combined_parameter_loop(p, 64)
        assert combined.dim == 6


class TestLoopSpecValidation:
    def test_non_closed_rejected(self):
        t = np.linspace(0, 1, 33)
        pts = np.column_stack([t, t])
        with pytest.raises(NotClosed):
            LoopSpec(1.0, pts)

    def test_scalar_points_rejected(self):
        with pytest.raises(ValueError, match="points"):
            LoopSpec(1.0, 5.0)

    def test_three_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match="points"):
            LoopSpec(1.0, np.ones((17, 2, 2)))
        with pytest.raises(ValueError, match="points must be a 2-D array"):
            LoopSpec(1.0, np.ones(17))

    @pytest.mark.parametrize("build", SAMPLERS.values(), ids=SAMPLERS)
    @pytest.mark.parametrize("n_samples", [16.0, 16.5])
    def test_non_integer_sample_count_rejected(self, build, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            build(2 * math.pi, n_samples)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", SAMPLERS.values(), ids=SAMPLERS)
    @pytest.mark.parametrize("n_samples", [-4, 0, 15])
    def test_too_few_samples_rejected(self, build, n_samples):
        with pytest.raises(TooFewSamples, match=f"need at least 16 segments, got {n_samples}"):
            build(2 * math.pi, n_samples)

    @pytest.mark.parametrize("segments", [0, 15])
    def test_too_few_segments_rejected(self, segments):
        with pytest.raises(TooFewSamples, match=f"need at least 16 segments, got {segments}"):
            LoopSpec(1.0, np.ones((segments + 1, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", LOOP_BUILDERS.values(), ids=LOOP_BUILDERS)
    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan])
    def test_non_positive_period_rejected(self, build, period):
        with pytest.raises(ValueError, match="period"):
            build(period, 32)

    def test_numpy_integer_sample_count_accepted(self):
        assert circle_loop(n_samples=np.int64(32)).n_segments == 32


STANDARD = dict(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1, base_rate=1.0, epsilon=0.5)

# (error, what the message names, the call)
MANIFOLD_GUARDS = {
    "infinite period": (ValueError, "period", lambda: LoopSpec(math.inf, np.ones((17, 2)))),
    "zero cycles": (ValueError, "cycles", lambda: LoopSpec(1.0, np.ones((17, 2)), cycles=0)),
    "zero a1": (ValueError, "a1", lambda: StandardLoopParams(**dict(STANDARD, a1=0.0))),
    "float n1": (ValueError, "multipliers", lambda: StandardLoopParams(**dict(STANDARD, n1=1.0))),
    "zero n2": (ValueError, "multipliers", lambda: StandardLoopParams(**dict(STANDARD, n2=0))),
    "unreduced pair": (ValueError, r"\(n1, n2\)=\(2, 4\)",
                       lambda: StandardLoopParams(**dict(STANDARD, n1=2, n2=4))),
    "epsilon 1": (ValueError, "epsilon", lambda: StandardLoopParams(**dict(STANDARD, epsilon=1.0))),
    "negative k": (ValueError, "coupling k", lambda: StandardLoopParams(**dict(STANDARD, k=-0.1))),
    "negative j_action": (ValueError, "j_action",
                          lambda: StandardLoopParams(**dict(STANDARD, j_action=-1.0))),
    "negative n_level": (ValueError, "n_level",
                         lambda: StandardLoopParams(**dict(STANDARD, n_level=-1))),
    "joined periods": (ValueError, "period",
                       lambda: _joined(circle_loop(1.0, 32), circle_loop(2.0, 32))),
    "subsystem 3": (ValueError, "subsystem",
                    lambda: subsystem_parameter_loop(StandardLoopParams(**STANDARD), 3, 32)),
}


@pytest.mark.parametrize("error, names, call", MANIFOLD_GUARDS.values(), ids=MANIFOLD_GUARDS)
def test_guard_raises_its_error_naming_the_argument(error, names, call):
    with pytest.raises(error, match=names):
        call()


def trig_loop(m, period=2.7):
    """A trigonometric-polynomial loop of degree 5 and its exact velocity."""
    w = 2 * math.pi / period
    t = np.linspace(0.0, period, m + 1)
    pts = np.column_stack([np.cos(w * t) + 0.3 * np.sin(3 * w * t),
                           0.5 * np.sin(2 * w * t) - 0.2 * np.cos(5 * w * t) + 1.0])
    vel = w * np.column_stack([-np.sin(w * t) + 0.9 * np.cos(3 * w * t),
                               np.cos(2 * w * t) + np.sin(5 * w * t)])
    pts[-1] = pts[0]
    return LoopSpec(period, pts), vel


class TestDerivedTimes:
    """A loop is its period and its samples; its times follow from them."""

    def test_fields_are_period_points_cycles(self):
        assert [f.name for f in dataclasses.fields(LoopSpec)] == ["period", "points", "cycles"]

    @pytest.mark.parametrize("m, period", [(16, 1.0), (33, 2.7), (4096, 2 * math.pi)])
    def test_times_are_the_linspace_grid(self, m, period):
        loop, _ = trig_loop(m, period)
        assert np.array_equal(loop.times, np.linspace(0.0, period, m + 1))
        assert loop.times is loop.times
        with pytest.raises(ValueError):
            loop.times[1] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            loop.times = np.linspace(0.0, period, m + 1)

    def test_times_carry_through_reversal_and_joining(self):
        loop, _ = trig_loop(64)
        assert np.array_equal(loop.reversed().times, loop.times)
        p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=3, n2=2,
                               base_rate=1.0, epsilon=0.3)
        combined = combined_parameter_loop(p, 126)
        assert np.array_equal(combined.times, np.linspace(0.0, p.common_period, 127))
        for part in standard_parameter_loops(p, 126):
            assert np.array_equal(part.times, combined.times)


class TestFrequencySquared:
    """The one checked X Z - Y^2: values as written out, the first bad sample named."""

    @pytest.mark.parametrize("shape", [(40, 3), (40, 5, 3), (40, 2, 3)])
    def test_values_are_x_z_minus_y_squared(self, shape):
        t = np.random.default_rng(len(shape)).uniform(0.5, 2.0, size=shape)
        t[..., 1] *= 0.1
        assert np.array_equal(_frequency_sq(t, "w^2"), t[..., 0] * t[..., 2] - t[..., 1] ** 2)

    def test_first_sample_with_any_bad_value(self):
        t = np.tile([1.0, 0.5, 1.0], (40, 5, 1))  # (sample, offset, coordinate)
        t[30, 0, 1] = 2.0  # negative at an early offset of a late sample
        t[12, 4, 0] = np.nan  # NaN at a late offset of an earlier sample
        with pytest.raises(EllipticViolation) as err:
            _frequency_sq(t, "w^2")
        assert err.value.sample == 12
        t[12, 4, 0] = 0.25  # exactly zero is not positive either
        with pytest.raises(EllipticViolation) as err:
            _frequency_sq(t, "w^2")
        assert err.value.sample == 12


class TestLoopInterpolant:
    def test_arrays_are_read_only_copies(self):
        t = np.linspace(0.0, 1.0, 33)
        pts = np.column_stack([np.cos(2 * math.pi * t), np.sin(2 * math.pi * t)])
        pts[-1] = pts[0]
        loop = LoopSpec(1.0, pts)
        with pytest.raises(ValueError):
            loop.points[3, 0] = 1.0
        with pytest.raises(ValueError):
            loop.times[3] = 0.5
        pts[3, 0] = 99.0  # the caller's array stays its own
        assert loop.points[3, 0] != 99.0

    def test_velocity_is_computed_once(self):
        loop = circle_loop(n_samples=64)
        assert loop.velocity is loop.velocity
        assert loop.half_velocity is loop.half_velocity
        with pytest.raises(ValueError):
            loop.velocity[0, 0] = 1.0

    @pytest.mark.parametrize("m", [33, 34, 64])
    def test_velocity_matches_analytic_derivative(self, m):
        loop, vel = trig_loop(m)
        scale = np.max(np.abs(vel))
        assert loop.velocity.shape == (m, 2)
        assert np.max(np.abs(loop.velocity - vel[:-1])) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [34, 64])  # M/2 odd and even
    def test_half_velocity_matches_analytic_derivative(self, m):
        loop, vel = trig_loop(m)
        scale = np.max(np.abs(vel))
        assert loop.half_velocity.shape == (m // 2, 2)
        assert np.max(np.abs(loop.half_velocity - vel[:-1:2])) <= 1e-12 * scale

    def test_half_velocity_needs_even_segments(self):
        loop, _ = trig_loop(33)
        with pytest.raises(ValueError):
            loop.half_velocity


class TestNonFinite:
    def test_non_finite_quadrature_rejected(self):
        with pytest.raises(NonFinite):
            QuadratureResult(value=float("nan"), error_estimate=0.0, scale=1.0)
        with pytest.raises(NonFinite):
            QuadratureResult(value=1.0, error_estimate=float("inf"), scale=1.0)
        loop = circle_loop(n_samples=64)
        coeffs = {0: np.zeros(65)}
        coeffs[0][10] = np.inf
        with pytest.raises(NonFinite):
            closed_line_integral(coeffs, loop)


def old_gho_triple(a, mu, eps, omega, t):
    c = eps * np.cos(omega * t)
    s = eps * np.sin(omega * t)
    return a * mu * (1.0 + c), -a * s, (a / mu) * (1.0 - c)


def old_standard_parameter_loops(p, n_samples):
    """The loop pair as built before one loop builder served every GHO loop."""
    t = np.linspace(0.0, p.common_period, n_samples + 1)
    pts1 = np.column_stack(old_gho_triple(p.a1, p.mu1, p.epsilon, p.omega1, t))
    pts2 = np.column_stack(old_gho_triple(p.a2, p.mu2, p.epsilon, p.omega2, t))
    pts1[-1] = pts1[0]
    pts2[-1] = pts2[0]
    return (LoopSpec(p.common_period, pts1, cycles=p.n1),
            LoopSpec(p.common_period, pts2, cycles=p.n2))


def old_subsystem_parameter_loop(p, subsystem, n_samples):
    a, mu, omega = (p.a1, p.mu1, p.omega1) if subsystem == 1 else (p.a2, p.mu2, p.omega2)
    period = 2.0 * math.pi / omega
    t = np.linspace(0.0, period, n_samples + 1)
    pts = np.column_stack(old_gho_triple(a, mu, p.epsilon, omega, t))
    pts[-1] = pts[0]
    return LoopSpec(period, pts, cycles=1)


def old_combined_parameter_loop(p, n_samples):
    loop1, loop2 = old_standard_parameter_loops(p, n_samples)
    return LoopSpec(p.common_period, np.hstack([loop1.points, loop2.points]))


def assert_same_loop(new, old):
    assert new.period == old.period and new.cycles == old.cycles
    assert np.array_equal(new.times, old.times)
    assert np.array_equal(new.points, old.points)


class TestGHOLoopsUnchanged:
    PARAMS = [
        dict(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1, base_rate=1.0, epsilon=EPS_PAPER),
        dict(a1=2.0, a2=0.3, mu1=1.7, mu2=0.45, n1=2, n2=1, base_rate=1.3, epsilon=0.5),
        dict(a1=0.7, a2=3.1, mu1=0.9, mu2=2.2, n1=3, n2=2, base_rate=0.37, epsilon=0.0),
        dict(a1=1e-3, a2=1e3, mu1=5.0, mu2=0.2, n1=1, n2=4, base_rate=2.5, epsilon=0.95),
    ]

    @pytest.mark.parametrize("kw", PARAMS)
    @pytest.mark.parametrize("n_samples", [16, 127, 4096])
    def test_bit_identical_to_the_old_constructions(self, kw, n_samples):
        p = StandardLoopParams(**kw)
        for new, old in zip(standard_parameter_loops(p, n_samples),
                            old_standard_parameter_loops(p, n_samples)):
            assert_same_loop(new, old)
        for subsystem in (1, 2):
            assert_same_loop(subsystem_parameter_loop(p, subsystem, n_samples),
                             old_subsystem_parameter_loop(p, subsystem, n_samples))
        assert_same_loop(combined_parameter_loop(p, n_samples),
                         old_combined_parameter_loop(p, n_samples))


@st.composite
def drive_loops(draw):
    """A ``_gho_loop`` of one or two triples at an even or odd M, each drive
    n_i in 1..M cycles of the period (aliased where n_i >= M/4), and the size
    of each column's terms: a mu (1 + eps), a eps and (a/mu) (1 + eps)."""
    m = draw(st.integers(16, 600))
    period, eps = draw(st.floats(0.01, 100.0)), draw(st.floats(0.0, 0.99))
    scale = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    triples = draw(st.lists(st.tuples(scale, scale, st.integers(1, m)), min_size=1, max_size=2))
    loop = _gho_loop([(a, mu, 2 * math.pi * n / period) for a, mu, n in triples], eps, period,
                     m, 1)
    return loop, np.ravel([(a * mu * (1 + eps), a * eps, a / mu * (1 + eps))
                           for a, mu, _ in triples])


# In ulp of a column's size times the Nyquist rate pi M / T, rounding being
# absolute (the smallest subnormal) below the normal range: the largest
# difference measured over 12,000 random draws like these, M up to 4096, was
# 12.1 (numpy 2.4's pocketfft, x86-64); the bound leaves 2.6 times that.
DRIVE_RATE_ULPS = 32


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=drive_loops())
def test_drive_loop_velocities_match_the_loops_own_fft(drawn):
    """A ``_gho_loop`` loop's velocities, taken by linearity from the cached
    drive rates with no FFT of its own, equal those the same points give
    through ``LoopSpec``'s FFT to rounding, at the M samples and at the
    stride-2 ones; all are read-only, and an odd M's ``half_velocity`` is a
    ``ValueError`` on both paths."""
    loop, size = drawn
    fft = LoopSpec(loop.period, loop.points, loop.cycles)
    m = loop.n_segments
    pairs = [(loop.velocity, fft.velocity, m)]
    if m % 2:
        for either in (loop, fft):
            with pytest.raises(ValueError, match="even segment count"):
                either.half_velocity
    else:
        pairs.append((loop.half_velocity, fft.half_velocity, m // 2))
    assert "_spectrum" not in loop.__dict__
    for new, old, samples in pairs:
        assert new.shape == old.shape
        assert not (new.flags.writeable or old.flags.writeable)
        ulp = np.finfo(float).eps * size + np.finfo(float).smallest_subnormal
        tol = DRIVE_RATE_ULPS * ulp * math.pi * samples / loop.period
        assert np.all(np.abs(new - old) <= tol)


def test_an_uncoupled_table_takes_only_its_drives_ffts(monkeypatch):
    """An 8-row ``gho-uncoupled`` table at 4096 samples takes four real FFTs,
    its two drives' rates at full and stride-2 resolution, and none per row,
    though each row builds its own loop."""
    rfft, calls = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    manifold._drive_grid.cache_clear()
    manifold._drive_rates.cache_clear()
    cfg = ExperimentConfig.from_dict({
        "experiment": "gho-uncoupled", "params": {"n1": 2, "n2": 1, "epsilons": [
            0.1 * i for i in range(1, 9)]}, "numerics": {"n_samples": 4096}})
    _, rows, *_ = _sweep(cfg)
    assert [row["error"] for row in rows] == [""] * 8
    assert len(calls) <= 4


def test_an_overflowing_drive_velocity_is_left_to_the_fft():
    """A ``_gho_loop`` whose velocity would overflow is built all the same and
    leaves its velocity to the FFT, which raises on use as it does for the same
    points in a plain ``LoopSpec``; so a ``hybrid-spin-osc`` table, which builds
    such a triple before its rows and never reads its velocity, still runs and
    reports each row's own error."""
    omega = 1e10
    loop = _gho_loop([(1e150, 1e150, omega)], 0.5, 2 * math.pi / omega, 64, 1)
    assert "velocity" not in loop.__dict__
    for either in (loop, LoopSpec(loop.period, loop.points)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            either.velocity
    cfg = ExperimentConfig.from_dict({"experiment": "hybrid-spin-osc", "params": {
        "a": 1e170, "omega": 1e150}, "numerics": {"n_samples": 64}})
    _, rows, *_ = _sweep(cfg)
    assert [row["error"] for row in rows] == ["NonFinite"] * 3
