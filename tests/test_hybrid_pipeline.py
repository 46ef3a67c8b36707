import csv
import gc
import math
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from holonomy import (
    BRANCH_COMMON,
    BRANCH_SUBSYSTEM,
    EllipticViolation,
    LengthMismatch,
    LinearOneForm,
    LoopSpec,
    ModeCollapse,
    NonFinite,
    SpinOscillatorHybrid,
    StandardLoopParams,
    TooFewSamples,
    WeakCouplingViolated,
    bo_full_quantum_phase_parts,
    circle_loop,
    closed_line_integral,
    combined_parameter_loop,
    coupled_gho_one_form,
    elliptic_bound,
    full_quantum_phase,
    phases_from_one_form,
    single_gho_phase,
    spin_oscillator_loop,
    spin_oscillator_one_form,
    standard_loop_report,
    standard_parameter_loops,
)
from holonomy import hybrid_pipeline, manifold
from holonomy.manifold import _gho_points
from holonomy.cli import ExperimentConfig, _sweep
from holonomy.cli import ExperimentConfig, execute

EPS_PAPER = math.sqrt(3.0) / 2.0


def std_params(eps=EPS_PAPER, n1=1, n2=1, j_action=1.0, n_level=0, **kw):
    return StandardLoopParams(
        a1=kw.pop("a1", 1.0), a2=kw.pop("a2", 1.0), mu1=1.0, mu2=1.0,
        n1=n1, n2=n2, base_rate=1.0, epsilon=eps,
        j_action=j_action, n_level=n_level, **kw,
    )


def triple_loop(a=1.0, m=1.0, eps=0.5, n_samples=1024, period=2 * math.pi):
    t = np.linspace(0.0, period, n_samples + 1)
    w = 2 * math.pi / period
    x = a * m * (1 + eps * np.cos(w * t))
    y = -a * eps * np.sin(w * t)
    z = (a / m) * (1 - eps * np.cos(w * t))
    pts = np.column_stack([x, y, z])
    pts[-1] = pts[0]
    return LoopSpec(period, pts, cycles=1)


def spin_osc(eps=0.5, j_action=1.0, i_plus=1.0, i_minus=0.0, n_samples=1024):
    period = 2 * math.pi
    return SpinOscillatorHybrid(
        mu=1.0, b_field=1.0,
        loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n_samples),
                                  triple_loop(eps=eps, n_samples=n_samples, period=period)),
        i_plus=i_plus, i_minus=i_minus, j_action=j_action,
    )


def mismatched_one_form():
    loop = triple_loop(n_samples=64)
    return LinearOneForm(loop=loop, action_coeffs={0: {1: np.zeros(65)}}, j_coeff={2: np.zeros(64)},
                         failed={})


# (error, what the message names, the call)
PIPELINE_GUARDS = {
    "one-form shape": (LengthMismatch, r"covector column 2 of shape \(64,\)",
                       lambda: phases_from_one_form(mismatched_one_form())),
    "five columns": (ValueError, "got 5 columns",
                     lambda: full_quantum_phase(spin_osc(n_samples=64).loop, [0.1], 0, 0)),
    "unknown branch": (ValueError, "unknown branch 'other'",
                       lambda: standard_loop_report(std_params(), [0.0], 64, branch="other")),
    "full quantum m": (ValueError, "occupation",
                       lambda: full_quantum_phase(combined_parameter_loop(std_params(), 64),
                                                  [0.1], -1, 0)),
    "full quantum n": (ValueError, "occupation",
                       lambda: full_quantum_phase(combined_parameter_loop(std_params(), 64),
                                                  [0.1], 0, -1)),
    "separated m": (ValueError, "occupation",
                    lambda: bo_full_quantum_phase_parts(combined_parameter_loop(std_params(), 64),
                                                        [0.1], -1, 0)),
    "separated n": (ValueError, "occupation",
                    lambda: bo_full_quantum_phase_parts(combined_parameter_loop(std_params(), 64),
                                                        [0.1], 0, -1)),
    # a negative coupling fails the whole block, at every route that takes one
    "negative k": (ValueError, "coupling k must be nonnegative",
                   lambda: standard_loop_report(std_params(), [0.1, -0.1], 64)),
    "negative k one-form": (ValueError, "coupling k must be nonnegative",
                            lambda: coupled_gho_one_form(
                                std_params(), combined_parameter_loop(std_params(), 64), [-0.1])),
    "negative k full quantum": (ValueError, "coupling k must be nonnegative",
                                lambda: full_quantum_phase(
                                    combined_parameter_loop(std_params(), 64), [-0.1], 0, 0)),
    "negative k separated": (ValueError, "coupling k must be nonnegative",
                             lambda: bo_full_quantum_phase_parts(
                                 combined_parameter_loop(std_params(), 64), [-0.1], 0, 0)),
    "negative k mode collapses": (ValueError, "coupling k must be nonnegative",
                                  lambda: hybrid_pipeline.mode_collapses(std_params(), [-0.1], 256)),
    # an epsilon block takes one coupling per row; zip would drop the rows past the shorter
    "epsilon block, fewer couplings": (
        ValueError, "epsilon block of 2 rows got 1 couplings",
        lambda: standard_loop_report([std_params(0.3), std_params(0.5)], [0.0], 64)),
    "epsilon block one-form, more couplings": (
        ValueError, "epsilon block of 2 rows got 3 couplings",
        lambda: coupled_gho_one_form([std_params(0.3), std_params(0.5)], combined_parameter_loop(
            [std_params(0.3), std_params(0.5)], 64), [0.0] * 3)),
}


@pytest.mark.parametrize("error, names, call", PIPELINE_GUARDS.values(), ids=PIPELINE_GUARDS)
def test_guard_raises_its_error_naming_the_argument(error, names, call):
    with pytest.raises(error, match=names):
        call()


def empty_spin_frequency(p, loop):
    """``spin_oscillator_frequency`` of an empty lambda block: its rows, standing or failed."""
    m = spin_osc(n_samples=64)
    omega_sq, _, failed = hybrid_pipeline.spin_oscillator_frequency(m, m.loop.points[:, 2:], [])
    return [*omega_sq, *failed]


# Every coupled route, called with an empty block, as its outcomes per row.
EMPTY_BLOCK_ROUTES = {
    "standard_loop_report": lambda p, loop: standard_loop_report(p, [], 64),
    "coupled_gho_one_form": lambda p, loop: phases_from_one_form(coupled_gho_one_form(p, loop, [])),
    "full_quantum_phase": lambda p, loop: full_quantum_phase(loop, [], 0, 0),
    "bo_full_quantum_phase_parts": lambda p, loop: bo_full_quantum_phase_parts(loop, [], 0, 0),
    "spin_oscillator_one_form": lambda p, loop: phases_from_one_form(
        spin_oscillator_one_form(spin_osc(n_samples=64), [])),
    "spin_oscillator_frequency": empty_spin_frequency,
}


@pytest.mark.parametrize("route", EMPTY_BLOCK_ROUTES.values(), ids=EMPTY_BLOCK_ROUTES)
def test_an_empty_block_has_no_outcomes(route):
    p = std_params(eps=0.5, n1=2, n2=1)
    assert route(p, combined_parameter_loop(p, 64)) == []


class TestPhasesFromOneForm:
    def test_action_times_winding(self):
        # A = I dphi on the unit circle gives gamma = 2 pi, delta_phi = 0
        loop = circle_loop(n_samples=256)
        c, s = loop.points.T
        # a block of one: (1, M + 1) stacks, the classical action's coefficient zero
        form = LinearOneForm(loop=loop, action_coeffs={0: {0: -s[None], 1: c[None]}},
                             j_coeff={0: np.zeros((1, 257))}, failed={})
        [ph] = phases_from_one_form(form)
        assert abs(ph.gammas[0] - 2 * math.pi) < 1e-10
        assert ph.delta_phi == 0.0

    def test_spin_oscillator_decoupled_solid_angle(self):
        [ph] = phases_from_one_form(spin_oscillator_one_form(spin_osc(), [0.0]))
        assert abs(ph.gammas["+"] + math.pi) < 1e-12
        assert abs(ph.gammas["-"] + math.pi) < 1e-12

    def test_coupled_gho_two_routes_at_zero_coupling(self):
        p = std_params(eps=EPS_PAPER)
        [ph] = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p), [0.0]))
        [rep] = standard_loop_report(p, [0.0], branch=BRANCH_COMMON)
        assert abs(ph.gammas[0] / rep.gamma_0_part - 1.0) <= 1e-9
        assert abs(ph.delta_phi / rep.delta_phi_0_part - 1.0) <= 1e-9


class TestSpinOscillatorOneForm:
    def test_decoupled_angle_shift(self):
        [ph] = phases_from_one_form(spin_oscillator_one_form(spin_osc(eps=0.5), [0.0]))
        root = math.sqrt(1 - 0.25)
        expected = -(2 * math.pi / 2) * (1 - root) / root
        assert abs(ph.delta_phi - expected) < 1e-10

    def test_zero_oscillator_action_phases_exact(self):
        [ph] = phases_from_one_form(spin_oscillator_one_form(spin_osc(j_action=0.0), [0.1]))
        assert ph.gammas["+"] == -math.pi
        assert ph.gammas["-"] == -math.pi

    def test_multi_cycle_azimuth_scales_phases(self):
        # two field revolutions per parameter period: gamma_pm = -2 pi at J = 0
        period = 2 * math.pi
        n = 1024
        hybrid = SpinOscillatorHybrid(
            mu=1.0, b_field=1.0,
            loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n, cycles=2),
                                      triple_loop(eps=0.5, n_samples=n, period=period)),
            i_plus=1.0, i_minus=0.0, j_action=0.0,
        )
        [ph] = phases_from_one_form(spin_oscillator_one_form(hybrid, [0.1]))
        assert abs(ph.gammas["+"] + 2 * math.pi) < 1e-12
        assert abs(ph.gammas["-"] + 2 * math.pi) < 1e-12

    def test_constant_triple(self):
        period = 2 * math.pi
        n = 256
        pts = np.tile([1.2, -0.1, 0.8], (n + 1, 1))
        hybrid = SpinOscillatorHybrid(
            mu=1.0, b_field=1.0,
            loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n),
                                      LoopSpec(period, pts)),
            i_plus=0.7, i_minus=0.3, j_action=1.0,
        )
        [ph] = phases_from_one_form(spin_oscillator_one_form(hybrid, [0.05]))
        assert abs(ph.delta_phi) <= 1e-12
        assert abs(ph.gammas["+"] + math.pi) <= 1e-12
        assert abs(ph.gammas["-"] + math.pi) <= 1e-12

    def test_coupling_splits_levels(self):
        [ph] = phases_from_one_form(spin_oscillator_one_form(spin_osc(), [0.05]))
        assert ph.gammas["+"] != ph.gammas["-"]
        # corrections are opposite: gamma_+ + gamma_- = -2 pi exactly
        assert abs(ph.gammas["+"] + ph.gammas["-"] + 2 * math.pi) < 1e-12

    def test_weak_coupling_guard(self):
        [err] = phases_from_one_form(spin_oscillator_one_form(spin_osc(j_action=4.0), [0.5]))
        assert type(err) is WeakCouplingViolated  # a sampled maximum: it names no sample

    def test_weak_coupling_guard_reads_the_size_of_lambda(self):
        # the sign of lambda flips the coupling, not its strength
        cfg = ExperimentConfig.from_dict({"experiment": "hybrid-spin-osc", "params": {
            "lambdas": [0.5, -0.5, -1.05], "j_action": 4.0}})
        _, rows, *_ = _sweep(cfg)
        assert [row["error"] for row in rows] == ["WeakCouplingViolated"] * 3

    def test_population_inversion_can_close_the_frequency(self):
        # a large enough inverted population drives the shifted X negative
        from holonomy import OmegaImaginary

        hybrid = spin_osc(j_action=0.0, i_plus=0.0, i_minus=1.0, n_samples=256)
        [err] = phases_from_one_form(spin_oscillator_one_form(hybrid, [1.05]))
        assert type(err) is OmegaImaginary

    def test_omega_imaginary_names_its_sample(self):
        from holonomy import OmegaImaginary

        hybrid = spin_osc(j_action=0.0, i_plus=0.0, i_minus=1.0, n_samples=256)
        [err] = phases_from_one_form(spin_oscillator_one_form(hybrid, [1.05]))
        assert type(err) is OmegaImaginary
        x, y, z = hybrid.loop.points[:, 2:].T
        omega_sq = (x - 1.05**2) * z - y**2
        assert err.sample == int(np.argmax(omega_sq <= 0)) > 0

    def test_one_form_integrates_around_the_model_loop(self):
        hybrid = spin_osc()
        assert hybrid.loop.dim == 5
        assert spin_oscillator_one_form(hybrid, [0.05]).loop is hybrid.loop

    def test_loops_must_share_sampling(self):
        with pytest.raises(ValueError):
            spin_oscillator_loop(circle_loop(period=2 * math.pi, n_samples=256),
                                 triple_loop(n_samples=512))


class TestReportQuadratureError:
    @pytest.mark.parametrize("n_samples", [17, 30])
    def test_too_coarse_for_an_error_estimate(self, n_samples):
        # no stride-2 estimate can be formed; at 17 samples delta_phi_0 is 4.8e-5 off
        p = std_params(eps=0.8, n1=2, n2=1)
        with pytest.raises(TooFewSamples, match=f"got {n_samples}"):
            standard_loop_report(p, [0.1], n_samples)

    def test_estimate_at_32_samples_covers_the_error(self):
        p = std_params(eps=0.8, n1=2, n2=1)
        [coarse] = standard_loop_report(p, [0.1], 32)
        [converged] = standard_loop_report(p, [0.1], 4096)
        assert coarse.quadrature_error > 0.0
        assert abs(coarse.delta_phi_0_part - converged.delta_phi_0_part) <= coarse.quadrature_error


class TestCoupledGHOOneForm:
    def test_zero_coupling_coefficient_reduction(self):
        # the quantum coefficient is one term, 3 Z1/(4 omega) d(Y1/Z1)
        p = std_params(eps=0.5, n_level=1)
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 256), [0.0])
        x, v = form.loop.points, form.loop.velocity
        z1 = x[:, 2]
        w = math.sqrt(p.a1**2 * (1 - 0.25))
        d_y1z1 = form.loop.derived(hybrid_pipeline._pair_geometry).d_y1z1
        assert list(form.action_coeffs[1]) == [d_y1z1]
        assert_allclose(d_y1z1.full, v[:, 1] / z1[:-1] - x[:-1, 1] * v[:, 2] / z1[:-1] ** 2,
                        rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(form.action_coeffs[1][d_y1z1] - 3.0 * z1 / (4.0 * w))) < 1e-12

    def test_frozen_parameters_zero_phases(self):
        p = std_params(eps=0.0)
        [ph] = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p, 256), [0.01]))
        assert abs(ph.gammas[0]) < 1e-14
        assert abs(ph.delta_phi) < 1e-14

    def test_effective_frequency_two_expressions(self):
        p = std_params(eps=EPS_PAPER)
        k = 0.5 * elliptic_bound(p)[1]
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 512), [k])
        pts = form.loop.points
        x1, x2 = pts[:, :3], pts[:, 3:]
        w_sq = x1[:, 0] * x1[:, 2] - x1[:, 1] ** 2
        omega_direct = np.sqrt(
            x2[:, 0] * x2[:, 2] - k**2 * x1[:, 2] * x2[:, 2] / w_sq - x2[:, 1] ** 2
        )
        t = form.loop.times
        d = p.d_ratio_at(k)
        f1 = 1 - p.epsilon * np.cos(p.omega1 * t)
        f2 = 1 - p.epsilon * np.cos(p.omega2 * t)
        omega_reduced = p.a2 * np.sqrt(1 - p.epsilon**2 - 2 * d**2 * f1 * f2)
        assert_allclose(omega_direct, omega_reduced, rtol=1e-12)

    def test_elliptic_violation_is_the_rows_error(self):
        p = std_params(eps=EPS_PAPER)
        k = 1.01 * elliptic_bound(p)[1]
        [err] = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p), [k]))
        assert type(err) is EllipticViolation and err.sample is None  # the worst-case bound


class TestStandardLoopReport:
    def test_gamma_00_reference_value(self):
        [rep] = standard_loop_report(std_params(eps=EPS_PAPER), [0.0], branch=BRANCH_COMMON)
        assert_allclose(rep.gamma_0_part, math.pi / 2, rtol=1e-12)

    def test_delta_phi_0_per_cycle(self):
        [rep] = standard_loop_report(std_params(eps=EPS_PAPER), [0.0])
        assert rep.branch == BRANCH_SUBSYSTEM
        assert abs(rep.delta_phi_0_part + math.pi) < 1e-9

    def test_coupling_identity(self):
        p = std_params(eps=EPS_PAPER, j_action=2.5)
        _, k_max = elliptic_bound(p)
        for frac in (0.2, 0.6, 0.9):
            [rep] = standard_loop_report(p, [frac * k_max])
            resid = rep.gamma_I_part + p.j_action * rep.delta_phi_I_part
            assert abs(resid) <= 1e-12 * abs(rep.gamma_I_part)

    def test_decomposition_sums_exactly(self):
        p = std_params(eps=0.5)
        _, k_max = elliptic_bound(p)
        [rep] = standard_loop_report(p, [0.5 * k_max])
        assert rep.gamma == rep.gamma_0_part + rep.gamma_I_part
        assert rep.delta_phi == rep.delta_phi_0_part + rep.delta_phi_I_part
        assert rep.elliptic_margin > 0

    def test_uncoupled_correspondence(self):
        for n1, n2 in ((1, 1), (2, 1), (3, 2)):
            for n in (0, 1, 2):
                p = std_params(eps=0.6, n1=n1, n2=n2, n_level=n)
                [rep] = standard_loop_report(p, [0.0], branch=BRANCH_COMMON)
                resid = rep.gamma_0_part + (n + 0.5) * (p.omega1 / p.omega2) * rep.delta_phi_0_part
                assert abs(resid) <= 1e-9 * abs(rep.gamma_0_part)

    def test_weak_coupling_quadratic_convergence(self):
        p = std_params(eps=EPS_PAPER, n1=2, n2=1)
        d_max, k_max = elliptic_bound(p)
        fracs = (0.2, 0.1, 0.05, 0.025)
        errs = []
        for frac in fracs:
            [rep] = standard_loop_report(p, [frac * k_max])
            errs.append(abs(rep.gamma_I_part / rep.gamma_I_approx - 1.0))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        ratios = [e / (frac * d_max) ** 2 for e, frac in zip(errs, fracs)]
        assert max(ratios) < 10.0 * min(ratios)  # bounded constant in the D^2 law

    def test_orientation_reversal_negates_phases(self):
        p = std_params(eps=0.5)
        ks = [0.4 * elliptic_bound(p)[1]]
        # the one-form built on the reversed loop, whose differentials are its own
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 512), ks)
        rev = coupled_gho_one_form(p, form.loop.reversed(), ks)
        [fwd_ph] = phases_from_one_form(form)
        [rev_ph] = phases_from_one_form(rev)
        assert abs(fwd_ph.gammas[0] + rev_ph.gammas[0]) < 1e-12 * abs(fwd_ph.gammas[0])
        assert abs(fwd_ph.delta_phi + rev_ph.delta_phi) < 1e-12 * abs(fwd_ph.delta_phi)

    def test_report_vs_one_form_route_with_coupling(self):
        p = std_params(eps=EPS_PAPER, j_action=1.0)
        ks = [0.5 * elliptic_bound(p)[1]]
        [rep] = standard_loop_report(p, ks)
        [ph] = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p), ks))
        assert abs(ph.gammas[0] / rep.gamma - 1.0) < 1e-9
        assert abs(ph.delta_phi / rep.delta_phi - 1.0) < 1e-9

    def test_subsystem_branch_requires_zero_coupling(self):
        with pytest.raises(ValueError):
            standard_loop_report(std_params(eps=0.5), [1e-9], branch=BRANCH_SUBSYSTEM)


    @pytest.mark.parametrize("n_level", [0, 2])
    def test_closed_form_keeps_its_digits_at_small_eps(self, n_level):
        """``gamma_n0_closed_form`` against a 60-digit reference from eps 1e-4
        to 0.99: within 4 ulp, once the rounding of eps^2, which 1 - eps^2
        magnifies by 1 / (1 - eps^2), is allowed for.  Forming 1 - sqrt(1 - eps^2)
        by subtraction was 1.4e-8 of the value off at eps 1e-4."""
        with localcontext() as ctx:
            ctx.prec = 60
            for eps in np.geomspace(1e-4, 0.99, 400).tolist():
                got = hybrid_pipeline.gamma_n0_closed_form(std_params(eps, n_level=n_level),
                                                           BRANCH_SUBSYSTEM)
                root = (1 - Decimal(eps) ** 2).sqrt()
                want = (2 * n_level + 1) * (1 - root) * Decimal(2.0 * math.pi) / (4 * root)
                tol = 4 * math.ulp(float(want)) / (1.0 - eps**2)
                assert abs(Decimal(got) - want) <= Decimal(tol), eps


@pytest.mark.parametrize("scale", [1e80, 1e150])
def test_gho_uncoupled_rows_stay_finite_at_a_large_z1(scale):
    """(a1, mu1) = (lambda, 1 / lambda) maps the fast triple's Y to lambda Y
    and Z to lambda^2 Z, which leaves every phase as it is, so the rows equal
    those at lambda = 1 to rounding with |Z1| up to about 1e300.  d(Y/Z),
    the back-reaction term and du form no Y/Z^2, Z1^2 Z2, omega1^4 or P1^2,
    any of which overflows past |Z1| of about 1.3e154."""
    def rows(a1):
        raw = {"experiment": "gho-uncoupled", "numerics": {"n_samples": 256},
               "params": {"n1": 2, "n2": 1, "a1": a1, "mu1": 1.0 / a1, "epsilons": [0.3, 0.8]}}
        return _sweep(ExperimentConfig.from_dict(raw))[1]

    for got, want in zip(rows(scale), rows(1.0), strict=True):
        assert got.pop("error") == want.pop("error") == ""
        tol = 4 * math.ulp(max(map(abs, want.values())))
        assert all(abs(got[col] - value) <= tol for col, value in want.items()), (got, want)


def test_full_quantum_rows_stay_finite_at_a_large_omega1():
    """At (a1, mu1) = (1e80, 1e-80) omega1^2 is about 1e160: r forms no
    (omega1^2 - omega2^2)^2, which overflows past omega1^2 of about 1.3e154,
    and the lower mode no omega1^2 + omega2^2 - r, which cancels to 0 at
    K = 0.  Every row is finite, and the K = 0 row, whose phases do not see
    the scaling, is the (1, 1) row's to a few ulp."""
    def rows(a1, sweep=None):
        raw = {"experiment": "full-quantum", "numerics": {"n_samples": 256}, "sweep": sweep,
               "params": {"n1": 2, "n2": 1, "a1": a1, "mu1": 1.0 / a1, "epsilon": 0.5}}
        return _sweep(ExperimentConfig.from_dict(raw))[1]

    (got,), (want,) = rows(1e80), rows(1.0)
    assert got.pop("error") == want.pop("error") == ""
    tol = 4 * math.ulp(max(map(abs, want.values())))
    assert all(abs(got[col] - value) <= tol for col, value in want.items()), (got, want)
    swept = rows(1e80, {"parameter": "k", "start": 0.0, "stop": 0.4, "count": 5})
    for row in swept:
        assert row.pop("error") == "" and all(map(math.isfinite, row.values())), row


class TestDriveGridMemo:
    """The loop builders and ``standard_loop_report`` read drive grids from an
    ``lru_cache`` whose grids are all finite and read-only, so a cached grid
    is indistinguishable from a fresh one."""

    def test_grids_are_read_only(self):
        for a in manifold._drive_grid(2.0, 2 * math.pi, 64):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_hit_equals_a_fresh_computation(self):
        manifold._drive_grid.cache_clear()
        first = manifold._drive_grid(3.0, 2 * math.pi, 128)
        hit = manifold._drive_grid(3.0, 2 * math.pi, 128)
        assert hit is first
        wt = 3.0 * np.linspace(0.0, 2 * math.pi, 129)
        assert hit[0].tobytes() == np.cos(wt).tobytes()
        assert hit[1].tobytes() == np.sin(wt).tobytes()

    def test_report_on_a_hit_equals_a_report_on_a_miss(self):
        p = std_params(eps=0.5, n1=2, n2=1)
        # the report reads its grids through _drive_profile, whose key has no a_i
        hybrid_pipeline._drive_profile.cache_clear()
        manifold._drive_grid.cache_clear()
        miss = standard_loop_report(p, [0.1], 256)
        assert manifold._drive_grid.cache_info().currsize == 2
        assert standard_loop_report(p, [0.1], 256) == miss

    def test_memo_is_bounded(self):
        maxsize = manifold._drive_grid.cache_info().maxsize
        for n in range(1, 3 * maxsize):
            manifold._drive_grid(float(n), 2 * math.pi, 32)
        assert manifold._drive_grid.cache_info().currsize == maxsize

    def test_grid_left_non_finite_outside_the_errstate_is_not_memoised(self, tmp_path):
        # omega1 = 2 base_rate overflows to inf, so its grid would be NaN: the
        # grid raises NonFinite itself, under any errstate, and is not cached.
        params = {"base_rate": 1e308, "n1": 2, "n2": 1}
        p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, epsilon=EPS_PAPER, **params)
        manifold._drive_grid.cache_clear()
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            standard_loop_report(p, [1e-3], 64)
        assert manifold._drive_grid.cache_info().currsize == 1  # omega2's finite grid
        with pytest.raises(NonFinite):
            manifold._drive_grid(p.omega1, p.common_period, 64)
        cfg = ExperimentConfig.from_dict({
            "experiment": "hybrid-gho", "params": params | {"k": 1e-3}, "numerics": {"n_samples": 64},
            "output": {"directory": str(tmp_path)},
        })
        assert execute(cfg) == 0
        [row] = csv.DictReader((tmp_path / "hybrid-gho.csv").read_text().splitlines())
        assert row["error"] == "NonFinite"

    def test_float_sample_count_is_checked_on_a_cached_grid(self):
        manifold._drive_grid(2.0, 2 * math.pi, 64)
        with pytest.raises(ValueError, match="n_samples"):
            manifold._drive_grid(2.0, 2 * math.pi, 64.0)


class TestEllipticBound:
    def test_zero_modulation(self):
        d_max, _ = elliptic_bound(std_params(eps=0.0))
        assert_allclose(d_max, 1.0 / math.sqrt(2.0), rtol=1e-15)

    def test_reference_value(self):
        d_max, _ = elliptic_bound(std_params(eps=EPS_PAPER))
        assert abs(d_max - 0.18947) <= 1e-5

    def test_vanishes_as_modulation_saturates(self):
        d_max, _ = elliptic_bound(std_params(eps=0.999999))
        assert d_max < 1e-3

    def test_round_trip_with_d_ratio(self):
        p = std_params(eps=0.4)
        d_max, k_max = elliptic_bound(p)
        assert abs(p.d_ratio_at(k_max) - d_max) < 1e-12


class TestFullQuantum:
    def setup_method(self):
        self.p = std_params(eps=0.5, n1=2, n2=1, a1=2.0)
        self.loop1, self.loop2 = standard_parameter_loops(self.p, 1024)
        self.loop = combined_parameter_loop(self.p, 1024)

    def test_zero_coupling_sum(self):
        total = full_quantum_phase(self.loop, [0.0], 1, 2)[0].value
        split = single_gho_phase(self.loop1, 1).value + single_gho_phase(self.loop2, 2).value
        assert abs(total - split) <= 1e-10

    def test_frozen_parameters(self):
        p = std_params(eps=0.0, a1=2.0, n1=2, n2=1)
        assert abs(full_quantum_phase(combined_parameter_loop(p, 256), [0.1], 0, 0)[0].value) < 1e-14

    def test_swap_symmetry(self):
        k = 0.15
        direct = full_quantum_phase(self.loop, [k], 2, 1)[0].value
        swapped_points = np.hstack([self.loop2.points, self.loop1.points])
        swapped = full_quantum_phase(LoopSpec(self.loop.period, swapped_points),
                                     [k], 2, 1)[0].value
        assert abs(direct - swapped) <= 1e-10

    def test_mode_collapse_along_loop(self):
        [err] = full_quantum_phase(self.loop, [5.0], 0, 0)
        assert type(err) is ModeCollapse and err.sample == 0

    def test_mode_collapse_names_its_first_sample(self):
        # the lower mode closes where omega1^2 omega2^2 <= k^2 Z1 Z2
        x1, x2 = self.loop.points[:, :3], self.loop.points[:, 3:]
        w1_sq = x1[:, 0] * x1[:, 2] - x1[:, 1] ** 2
        w2_sq = x2[:, 0] * x2[:, 2] - x2[:, 1] ** 2
        ratio = w1_sq * w2_sq / (x1[:, 2] * x2[:, 2])
        k = math.sqrt(np.quantile(ratio, 0.4))
        [err] = full_quantum_phase(self.loop, [k], 0, 0)
        assert type(err) is ModeCollapse
        assert err.sample == int(np.argmax(ratio <= k**2)) > 0

    def test_nan_sample_is_elliptic_violation_at_that_sample(self):
        # NaN compares false both ways, so a guard written as "any <= 0" let it through
        pts = self.loop2.points.copy()
        pts[37, 0] = np.nan
        loop2 = LoopSpec(self.loop2.period, pts, cycles=self.loop2.cycles)
        combined = LoopSpec(self.loop.period, np.hstack([self.loop1.points, pts]))
        with pytest.raises(EllipticViolation) as single:
            single_gho_phase(loop2, 0)
        with pytest.raises(EllipticViolation) as full:
            full_quantum_phase(combined, [0.1], 0, 0)
        assert single.value.sample == full.value.sample == 37


def sampled_cap_check(p: StandardLoopParams, k: float, cap: int):
    """The check that full-quantum rows made at the cap before it was decided
    in closed form, as (error class name, sample) or (None, None): the normal
    modes' product (``_mode_product``), then the effective frequency squared,
    both on the combined loop's ``cap`` samples."""
    x = _gho_points([(p.a1, p.mu1, p.omega1), (p.a2, p.mu2, p.omega2)], p.epsilon,
                    p.common_period, cap)
    triples = x.reshape(-1, 2, 3)
    w_sq = triples[..., 0] * triples[..., 2] - triples[..., 1] ** 2
    z1z2 = x[:, 2] * x[:, 5]
    _, failed = hybrid_pipeline._mode_product(w_sq[:, 0], w_sq[:, 1], np.array([[k**2]]) * z1z2)
    if failed:
        return "ModeCollapse", failed[0].sample
    bad = ~(w_sq[:, 1] - k**2 * (z1z2 / w_sq[:, 0]) > 0)
    return ("EllipticViolation", int(np.argmax(bad))) if bad.any() else (None, None)


def closed_form_root(p: StandardLoopParams, cap: int) -> float:
    """The coupling where 1 - eps^2 - 2 D^2 max(f1 f2) vanishes at ``cap`` samples."""
    one_minus = 1.0 - p.epsilon**2
    f1f2 = hybrid_pipeline._drive_profile((p.epsilon,), p.omega1, p.omega2, p.common_period,
                                          cap)[0]
    d = math.sqrt(one_minus / (2.0 * float(np.max(f1f2))))
    return d * math.sqrt(2.0 * p.mu1 * p.mu2 * p.a1 * p.a2 * one_minus)


class TestModeCollapsesAtTheCap:
    """``mode_collapses`` decides a full-quantum row's check at the cap with
    one comparison at the peak of f1 f2."""

    # Over 300 random families (nine reduced ratios, eps 0.01-0.99, a_i and
    # mu_i over 1e-3..1e3, caps 512-4096) the two checks differed at 12 of 600
    # couplings 1e-15 relative from the root and at none from 1e-14 on; the
    # offsets drawn here keep a hundredfold margin.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratio=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (5, 3), (3, 1)]),
           eps=st.floats(0.01, 0.99),
           scales=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           cap=st.integers(1, 8).map(lambda j: 512 * j),
           offset=st.floats(-12.0, -3.0).map(lambda e: 10.0**e), side=st.sampled_from([-1, 1]))
    def test_closed_form_reads_as_the_sampled_check(self, ratio, eps, scales, cap, offset, side):
        a1, a2, mu1, mu2 = (10.0**e for e in scales)
        p = StandardLoopParams(a1=a1, a2=a2, mu1=mu1, mu2=mu2, n1=ratio[0], n2=ratio[1],
                               base_rate=1.0, epsilon=eps)
        k = closed_form_root(p, cap) * (1.0 + side * offset)
        [error] = hybrid_pipeline.mode_collapses(p, [k], cap)
        assert (type(error).__name__ if error else None, getattr(error, "sample", None)) == \
            sampled_cap_check(p, k, cap)
        assert (error is None) == (side < 0)

    def test_the_root_of_criterion_10s_model(self):
        """At 4096 samples the closed form closes the lower mode one ulp below
        the sampled product: k = 0.8329378723506385 passed the sampled check
        and then failed the one-form's worst-case bound (``EllipticViolation``);
        it now reads ``ModeCollapse`` at the sample where the product closes at
        the next coupling up.  The coupling below still reads the bound."""
        p = std_params(eps=0.5, n1=2, n2=1, a1=2.0)
        k = 0.8329378723506385
        below, above = math.nextafter(k, 0.0), math.nextafter(k, 1.0)
        assert sampled_cap_check(p, below, 4096) == sampled_cap_check(p, k, 4096) == (None, None)
        assert sampled_cap_check(p, above, 4096) == ("ModeCollapse", 1226)
        assert [getattr(e, "sample", e) for e in
                hybrid_pipeline.mode_collapses(p, [below, k, above], 4096)] == [None, 1226, 1226]
        raw = {"experiment": "full-quantum",
               "params": {"a1": 2.0, "epsilon": 0.5, "n1": 2, "n2": 1}}
        rows = [_sweep(ExperimentConfig.from_dict(dict(raw, params=dict(raw["params"], k=x))))[1][0]
                for x in (below, k, above)]
        assert [row["error"] for row in rows] == ["EllipticViolation", "ModeCollapse",
                                                  "ModeCollapse"]


class TestBOFullQuantum:
    def setup_method(self):
        self.p = std_params(eps=0.5, n1=2, n2=1, a1=2.0)
        self.loop = combined_parameter_loop(self.p, 1024)

    def separated(self, k, m, n):
        """The slow/fast-separated phase: the sum of its two quadratures."""
        [(part1, part2)] = bo_full_quantum_phase_parts(self.loop, [k], m, n)
        return part1.value + part2.value

    def test_zero_coupling_matches_exact(self):
        # The exact formula counts m in the higher normal mode (oscillator 1
        # here since omega1 > omega2); the separated formula counts m in the
        # heavy oscillator 2.  At k = 0 they describe the same state with the
        # indices interchanged.
        exact = full_quantum_phase(self.loop, [0.0], 1, 2)[0].value
        bo = self.separated(0.0, 2, 1)
        assert abs(exact - bo) <= 1e-12

    def test_fast_part_matches_hybrid_phase(self):
        k, m, n = 0.15, 1, 2
        p = std_params(eps=0.5, n1=2, n2=1, a1=2.0, j_action=(m + 0.5), n_level=n)
        [(part1, _)] = bo_full_quantum_phase_parts(self.loop, [k], m, n)
        [ph] = phases_from_one_form(coupled_gho_one_form(p, self.loop, [k]))
        assert abs(part1.value / ph.gammas[n] - 1.0) <= 1e-9

    def test_level_difference_gives_angle_shift(self):
        k, m, n = 0.15, 1, 2
        p = std_params(eps=0.5, n1=2, n2=1, a1=2.0, j_action=(m + 0.5), n_level=n)
        [ph] = phases_from_one_form(coupled_gho_one_form(p, self.loop, [k]))
        g_m = self.separated(k, m, n)
        g_m1 = self.separated(k, m + 1, n)
        assert abs(-(g_m1 - g_m) - ph.delta_phi) <= 1e-9


class TestPairGeometry:
    """The K-independent pieces of the coupled-oscillator routes are built once
    per loop and live exactly as long as it does."""

    def test_built_once(self):
        p = std_params(eps=0.5, n1=2, n2=1, a1=2.0)
        loop = combined_parameter_loop(p, 256)
        full_quantum_phase(loop, [0.1], 1, 0)
        first = loop.derived(hybrid_pipeline._pair_geometry)
        bo_full_quantum_phase_parts(loop, [0.1], 1, 0)
        form = coupled_gho_one_form(p, loop, [0.1])
        again = loop.derived(hybrid_pipeline._pair_geometry)
        assert again is first
        assert all(a is b for a, b in zip(again, first))
        assert list(form.action_coeffs[0]) == [first.d_y1z1]
        assert {first.d_y1z1, first.d_p2, first.d_u} <= form.j_coeff.keys()

    def test_one_form_leaves_slow_differential_unbuilt(self):
        # only the fully quantum routes read d(Y2/Z2); the hybrid one-form does not build it
        p = std_params(eps=0.5)
        loop = combined_parameter_loop(p, 256)
        key = (hybrid_pipeline._differential, hybrid_pipeline._y_over_z_rate, 3)
        coupled_gho_one_form(p, loop, [0.1])
        assert key not in loop._derived
        full_quantum_phase(loop, [0.1], 0, 0)
        assert key in loop._derived

    def test_freed_with_its_loop(self):
        p = std_params(eps=0.5)
        loop = combined_parameter_loop(p, 256)
        phases_from_one_form(coupled_gho_one_form(p, loop, [0.1]))
        full_quantum_phase(loop, [0.1], 0, 0)
        refs = [weakref.ref(loop), weakref.ref(loop.derived(hybrid_pipeline._pair_geometry).d_u)]
        del loop
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_bare_fast_frequency_not_positive_is_each_routes_own_error(self):
        # omega1^2 = 1 - 4 < 0 everywhere; the shared geometry divides by it, yet
        # under raised floating-point conditions each route names its own guard
        loop = LoopSpec(1.0, np.tile([1.0, 2.0, 1.0, 1.0, 0.1, 1.0], (65, 1)))
        routes = {"a bare triple's frequency squared": lambda: full_quantum_phase(loop, [0.1], 0, 0),
                  "fast-triple frequency squared": lambda: bo_full_quantum_phase_parts(
                      loop, [0.1], 0, 0)}
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(2):  # the second call reads the geometry the first built
                for names, call in routes.items():
                    with pytest.raises(EllipticViolation, match=names) as err:
                        call()
                    assert err.value.sample == 0
                with pytest.raises(EllipticViolation, match="fast-triple"):
                    coupled_gho_one_form(std_params(eps=0.5), loop, [0.1])

    def test_differential_of_another_loop_is_rejected(self):
        p = std_params(eps=0.5)
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 256), [0.1])
        with pytest.raises(LengthMismatch, match="not pulled back onto this loop"):
            phases_from_one_form(LinearOneForm(form.loop.reversed(), form.action_coeffs, {}, {}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), col=st.integers(0, 3), half_m=st.integers(16, 300),
       period=st.floats(0.01, 100.0))
def test_pulled_back_y_over_z_matches_its_columns(seed, col, half_m, period):
    """f d(Y/Z) pulled back onto the loop equals the column form
    f (1/Z) dY + f (-Y/Z^2) dZ, value and error estimate, to 8 ulp of the
    summands' scale."""
    rng = np.random.default_rng(seed)
    m = 2 * half_m
    points = rng.normal(size=(m + 1, col + 3)) * rng.uniform(0.1, 10.0, size=col + 3)
    points[:, col + 2] = rng.uniform(0.2, 5.0) + np.abs(points[:, col + 2])
    points[-1] = points[0]
    loop = LoopSpec(period, points)
    f = rng.normal(size=m + 1) * 10.0 ** rng.uniform(-3, 3)
    y, z = points[:, col + 1], points[:, col + 2]
    columns = {col + 1: f * (1.0 / z), col + 2: f * (-y / z**2)}
    d_y_over_z = hybrid_pipeline._differential(loop, hybrid_pipeline._y_over_z_rate, col)
    pulled = closed_line_integral({d_y_over_z: f}, loop)
    ref = closed_line_integral(columns, loop)
    summands = np.abs(columns[col + 1][:-1] * loop.velocity[:, col + 1]) + np.abs(
        columns[col + 2][:-1] * loop.velocity[:, col + 2])
    tol = 8 * np.spacing(loop.period / m * np.sum(summands))
    assert abs(pulled.value - ref.value) <= tol
    assert abs(pulled.error_estimate - ref.error_estimate) <= tol


class TestNormalModeCollapseSide:
    @pytest.mark.parametrize("offset", [-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])
    def test_full_quantum_phase_collapses_where_normal_mode_split_does(self, offset):
        # a frozen-parameter loop: every sample carries the same pair of triples
        x1, x2 = (4.0, 0.1, 1.0), (1.0, -0.2, 1.3)
        w1, w2 = (math.sqrt(x * z - y**2) for x, y, z in (x1, x2))
        k_c = w1 * w2 / math.sqrt(x1[2] * x2[2])  # the lower mode closes at k_c
        k = (1.0 + offset) * k_c
        loop = LoopSpec(1.0, np.tile([*x1, *x2], (65, 1)))
        [out] = full_quantum_phase(loop, [k], 0, 0)
        if offset > 0:
            assert type(out) is ModeCollapse and out.sample == 0
        else:
            assert out.value == 0.0
