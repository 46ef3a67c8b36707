import csv
import gc
import math
import weakref

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
    bo_full_quantum_phase,
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
from holonomy.cli import ExperimentConfig, execute

EPS_PAPER = math.sqrt(3.0) / 2.0


def std_params(eps=EPS_PAPER, k=0.0, n1=1, n2=1, j_action=1.0, n_level=0, **kw):
    return StandardLoopParams(
        a1=kw.pop("a1", 1.0), a2=kw.pop("a2", 1.0), mu1=1.0, mu2=1.0,
        n1=n1, n2=n2, base_rate=1.0, epsilon=eps, k=k,
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


def spin_osc(lam, eps=0.5, j_action=1.0, i_plus=1.0, i_minus=0.0, n_samples=1024):
    period = 2 * math.pi
    return SpinOscillatorHybrid(
        mu=1.0, lam=lam, b_field=1.0,
        loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n_samples),
                                  triple_loop(eps=eps, n_samples=n_samples, period=period)),
        i_plus=i_plus, i_minus=i_minus, j_action=j_action,
    )


def mismatched_one_form():
    loop = triple_loop(n_samples=64)
    return LinearOneForm(loop=loop, action_coeffs={0: {1: np.zeros(65)}}, j_coeff={2: np.zeros(64)})


# (error, what the message names, the call)
PIPELINE_GUARDS = {
    "one-form shape": (LengthMismatch, r"covector column 2 of shape \(64,\)",
                       lambda: phases_from_one_form(mismatched_one_form())),
    "five columns": (ValueError, "got 5 columns",
                     lambda: full_quantum_phase(spin_osc(0.0, n_samples=64).loop, 0.1, 0, 0)),
    "unknown branch": (ValueError, "unknown branch 'other'",
                       lambda: standard_loop_report(std_params(), 64, branch="other")),
    "full quantum m": (ValueError, "occupation",
                       lambda: full_quantum_phase(combined_parameter_loop(std_params(), 64),
                                                  0.1, -1, 0)),
    "full quantum n": (ValueError, "occupation",
                       lambda: full_quantum_phase(combined_parameter_loop(std_params(), 64),
                                                  0.1, 0, -1)),
    "separated m": (ValueError, "occupation",
                    lambda: bo_full_quantum_phase_parts(combined_parameter_loop(std_params(), 64),
                                                        0.1, -1, 0)),
    "separated n": (ValueError, "occupation",
                    lambda: bo_full_quantum_phase_parts(combined_parameter_loop(std_params(), 64),
                                                        0.1, 0, -1)),
}


@pytest.mark.parametrize("error, names, call", PIPELINE_GUARDS.values(), ids=PIPELINE_GUARDS)
def test_guard_raises_its_error_naming_the_argument(error, names, call):
    with pytest.raises(error, match=names):
        call()


class TestPhasesFromOneForm:
    def test_action_times_winding(self):
        # A = I dphi on the unit circle gives gamma = 2 pi, delta_phi = 0
        loop = circle_loop(n_samples=256)
        c, s = loop.points.T
        form = LinearOneForm(loop=loop, action_coeffs={0: {0: -s, 1: c}}, j_coeff={})
        ph = phases_from_one_form(form)
        assert abs(ph.gammas[0] - 2 * math.pi) < 1e-10
        assert ph.delta_phi == 0.0

    def test_spin_oscillator_decoupled_solid_angle(self):
        ph = phases_from_one_form(spin_oscillator_one_form(spin_osc(lam=0.0)))
        assert abs(ph.gammas["+"] + math.pi) < 1e-12
        assert abs(ph.gammas["-"] + math.pi) < 1e-12

    def test_coupled_gho_two_routes_at_zero_coupling(self):
        p = std_params(eps=EPS_PAPER, k=0.0)
        ph = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p)))
        rep = standard_loop_report(p, branch=BRANCH_COMMON)
        assert abs(ph.gammas[0] / rep.gamma_0_part - 1.0) <= 1e-9
        assert abs(ph.delta_phi / rep.delta_phi_0_part - 1.0) <= 1e-9


class TestSpinOscillatorOneForm:
    def test_decoupled_angle_shift(self):
        ph = phases_from_one_form(spin_oscillator_one_form(spin_osc(lam=0.0, eps=0.5)))
        root = math.sqrt(1 - 0.25)
        expected = -(2 * math.pi / 2) * (1 - root) / root
        assert abs(ph.delta_phi - expected) < 1e-10

    def test_zero_oscillator_action_phases_exact(self):
        ph = phases_from_one_form(spin_oscillator_one_form(spin_osc(lam=0.1, j_action=0.0)))
        assert ph.gammas["+"] == -math.pi
        assert ph.gammas["-"] == -math.pi

    def test_multi_cycle_azimuth_scales_phases(self):
        # two field revolutions per parameter period: gamma_pm = -2 pi at J = 0
        period = 2 * math.pi
        n = 1024
        hybrid = SpinOscillatorHybrid(
            mu=1.0, lam=0.1, b_field=1.0,
            loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n, cycles=2),
                                      triple_loop(eps=0.5, n_samples=n, period=period)),
            i_plus=1.0, i_minus=0.0, j_action=0.0,
        )
        ph = phases_from_one_form(spin_oscillator_one_form(hybrid))
        assert abs(ph.gammas["+"] + 2 * math.pi) < 1e-12
        assert abs(ph.gammas["-"] + 2 * math.pi) < 1e-12

    def test_constant_triple(self):
        period = 2 * math.pi
        n = 256
        pts = np.tile([1.2, -0.1, 0.8], (n + 1, 1))
        hybrid = SpinOscillatorHybrid(
            mu=1.0, lam=0.05, b_field=1.0,
            loop=spin_oscillator_loop(circle_loop(period=period, n_samples=n),
                                      LoopSpec(period, pts)),
            i_plus=0.7, i_minus=0.3, j_action=1.0,
        )
        ph = phases_from_one_form(spin_oscillator_one_form(hybrid))
        assert abs(ph.delta_phi) <= 1e-12
        assert abs(ph.gammas["+"] + math.pi) <= 1e-12
        assert abs(ph.gammas["-"] + math.pi) <= 1e-12

    def test_coupling_splits_levels(self):
        ph = phases_from_one_form(spin_oscillator_one_form(spin_osc(lam=0.05)))
        assert ph.gammas["+"] != ph.gammas["-"]
        # corrections are opposite: gamma_+ + gamma_- = -2 pi exactly
        assert abs(ph.gammas["+"] + ph.gammas["-"] + 2 * math.pi) < 1e-12

    def test_weak_coupling_guard(self):
        with pytest.raises(WeakCouplingViolated):
            spin_oscillator_one_form(spin_osc(lam=0.5, j_action=4.0))

    def test_population_inversion_can_close_the_frequency(self):
        # a large enough inverted population drives the shifted X negative
        from holonomy import OmegaImaginary

        hybrid = spin_osc(lam=1.05, j_action=0.0, i_plus=0.0, i_minus=1.0, n_samples=256)
        with pytest.raises(OmegaImaginary):
            spin_oscillator_one_form(hybrid)

    def test_omega_imaginary_names_its_sample(self):
        from holonomy import OmegaImaginary

        hybrid = spin_osc(lam=1.05, j_action=0.0, i_plus=0.0, i_minus=1.0, n_samples=256)
        with pytest.raises(OmegaImaginary) as err:
            spin_oscillator_one_form(hybrid)
        x, y, z = hybrid.loop.points[:, 2:].T
        omega_sq = (x - 1.05**2) * z - y**2
        assert err.value.sample == int(np.argmax(omega_sq <= 0)) > 0

    def test_one_form_integrates_around_the_model_loop(self):
        hybrid = spin_osc(lam=0.05)
        assert hybrid.loop.dim == 5
        assert spin_oscillator_one_form(hybrid).loop is hybrid.loop

    def test_loops_must_share_sampling(self):
        with pytest.raises(ValueError):
            spin_oscillator_loop(circle_loop(period=2 * math.pi, n_samples=256),
                                 triple_loop(n_samples=512))


class TestReportQuadratureError:
    @pytest.mark.parametrize("n_samples", [17, 30])
    def test_too_coarse_for_an_error_estimate(self, n_samples):
        # no stride-2 estimate can be formed; at 17 samples delta_phi_0 is 4.8e-5 off
        p = std_params(eps=0.8, k=0.1, n1=2, n2=1)
        with pytest.raises(TooFewSamples, match=f"got {n_samples}"):
            standard_loop_report(p, n_samples)

    def test_estimate_at_32_samples_covers_the_error(self):
        p = std_params(eps=0.8, k=0.1, n1=2, n2=1)
        coarse = standard_loop_report(p, 32)
        converged = standard_loop_report(p, 4096)
        assert coarse.quadrature_error > 0.0
        assert abs(coarse.delta_phi_0_part - converged.delta_phi_0_part) <= coarse.quadrature_error


class TestCoupledGHOOneForm:
    def test_zero_coupling_coefficient_reduction(self):
        # the quantum coefficient is one term, 3 Z1/(4 omega) d(Y1/Z1)
        p = std_params(eps=0.5, k=0.0, n_level=1)
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 256))
        x, v = form.loop.points, form.loop.velocity
        z1 = x[:, 2]
        w = math.sqrt(p.a1**2 * (1 - 0.25))
        d_y1z1 = form.loop.derived(hybrid_pipeline._pair_geometry).d_y1z1
        assert list(form.action_coeffs[1]) == [d_y1z1]
        assert_allclose(d_y1z1.full, v[:, 1] / z1[:-1] - x[:-1, 1] * v[:, 2] / z1[:-1] ** 2,
                        rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(form.action_coeffs[1][d_y1z1] - 3.0 * z1 / (4.0 * w))) < 1e-12

    def test_frozen_parameters_zero_phases(self):
        p = std_params(eps=0.0, k=0.01)
        ph = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p, 256)))
        assert abs(ph.gammas[0]) < 1e-14
        assert abs(ph.delta_phi) < 1e-14

    def test_effective_frequency_two_expressions(self):
        p0 = std_params(eps=EPS_PAPER, k=0.0)
        _, k_max = elliptic_bound(p0)
        p = std_params(eps=EPS_PAPER, k=0.5 * k_max)
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 512))
        pts = form.loop.points
        x1, x2 = pts[:, :3], pts[:, 3:]
        w_sq = x1[:, 0] * x1[:, 2] - x1[:, 1] ** 2
        omega_direct = np.sqrt(
            x2[:, 0] * x2[:, 2] - p.k**2 * x1[:, 2] * x2[:, 2] / w_sq - x2[:, 1] ** 2
        )
        t = form.loop.times
        d = p.d_ratio
        f1 = 1 - p.epsilon * np.cos(p.omega1 * t)
        f2 = 1 - p.epsilon * np.cos(p.omega2 * t)
        omega_reduced = p.a2 * np.sqrt(1 - p.epsilon**2 - 2 * d**2 * f1 * f2)
        assert_allclose(omega_direct, omega_reduced, rtol=1e-12)

    def test_elliptic_violation_raises(self):
        p0 = std_params(eps=EPS_PAPER, k=0.0)
        _, k_max = elliptic_bound(p0)
        p = std_params(eps=EPS_PAPER, k=1.01 * k_max)
        with pytest.raises(EllipticViolation):
            coupled_gho_one_form(p, combined_parameter_loop(p))


class TestStandardLoopReport:
    def test_gamma_00_reference_value(self):
        rep = standard_loop_report(std_params(eps=EPS_PAPER, k=0.0), branch=BRANCH_COMMON)
        assert_allclose(rep.gamma_0_part, math.pi / 2, rtol=1e-12)

    def test_delta_phi_0_per_cycle(self):
        rep = standard_loop_report(std_params(eps=EPS_PAPER, k=0.0))
        assert rep.branch == BRANCH_SUBSYSTEM
        assert abs(rep.delta_phi_0_part + math.pi) < 1e-9

    def test_coupling_identity(self):
        p0 = std_params(eps=EPS_PAPER, k=0.0, j_action=2.5)
        _, k_max = elliptic_bound(p0)
        for frac in (0.2, 0.6, 0.9):
            p = std_params(eps=EPS_PAPER, k=frac * k_max, j_action=2.5)
            rep = standard_loop_report(p)
            resid = rep.gamma_I_part + p.j_action * rep.delta_phi_I_part
            assert abs(resid) <= 1e-12 * abs(rep.gamma_I_part)

    def test_decomposition_sums_exactly(self):
        p0 = std_params(eps=0.5, k=0.0)
        _, k_max = elliptic_bound(p0)
        rep = standard_loop_report(std_params(eps=0.5, k=0.5 * k_max))
        assert rep.gamma == rep.gamma_0_part + rep.gamma_I_part
        assert rep.delta_phi == rep.delta_phi_0_part + rep.delta_phi_I_part
        assert rep.elliptic_margin > 0

    def test_uncoupled_correspondence(self):
        for n1, n2 in ((1, 1), (2, 1), (3, 2)):
            for n in (0, 1, 2):
                p = std_params(eps=0.6, k=0.0, n1=n1, n2=n2, n_level=n)
                rep = standard_loop_report(p, branch=BRANCH_COMMON)
                resid = rep.gamma_0_part + (n + 0.5) * (p.omega1 / p.omega2) * rep.delta_phi_0_part
                assert abs(resid) <= 1e-9 * abs(rep.gamma_0_part)

    def test_weak_coupling_quadratic_convergence(self):
        p0 = std_params(eps=EPS_PAPER, k=0.0, n1=2, n2=1)
        d_max, k_max = elliptic_bound(p0)
        fracs = (0.2, 0.1, 0.05, 0.025)
        errs = []
        for frac in fracs:
            rep = standard_loop_report(std_params(eps=EPS_PAPER, k=frac * k_max, n1=2, n2=1))
            errs.append(abs(rep.gamma_I_part / rep.gamma_I_approx - 1.0))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        ratios = [e / (frac * d_max) ** 2 for e, frac in zip(errs, fracs)]
        assert max(ratios) < 10.0 * min(ratios)  # bounded constant in the D^2 law

    def test_orientation_reversal_negates_phases(self):
        p0 = std_params(eps=0.5, k=0.0)
        _, k_max = elliptic_bound(p0)
        p = std_params(eps=0.5, k=0.4 * k_max)
        # the one-form built on the reversed loop, whose differentials are its own
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 512))
        rev = coupled_gho_one_form(p, form.loop.reversed())
        fwd_ph = phases_from_one_form(form)
        rev_ph = phases_from_one_form(rev)
        assert abs(fwd_ph.gammas[0] + rev_ph.gammas[0]) < 1e-12 * abs(fwd_ph.gammas[0])
        assert abs(fwd_ph.delta_phi + rev_ph.delta_phi) < 1e-12 * abs(fwd_ph.delta_phi)

    def test_report_vs_one_form_route_with_coupling(self):
        p0 = std_params(eps=EPS_PAPER, k=0.0, j_action=1.0)
        _, k_max = elliptic_bound(p0)
        p = std_params(eps=EPS_PAPER, k=0.5 * k_max, j_action=1.0)
        rep = standard_loop_report(p)
        ph = phases_from_one_form(coupled_gho_one_form(p, combined_parameter_loop(p)))
        assert abs(ph.gammas[0] / rep.gamma - 1.0) < 1e-9
        assert abs(ph.delta_phi / rep.delta_phi - 1.0) < 1e-9

    def test_subsystem_branch_requires_zero_coupling(self):
        with pytest.raises(ValueError):
            standard_loop_report(std_params(eps=0.5, k=1e-9), branch=BRANCH_SUBSYSTEM)


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
        p = std_params(eps=0.5, k=0.1, n1=2, n2=1)
        manifold._drive_grid.cache_clear()
        miss = standard_loop_report(p, 256)
        assert manifold._drive_grid.cache_info().currsize == 2
        assert standard_loop_report(p, 256) == miss

    def test_memo_is_bounded(self):
        maxsize = manifold._drive_grid.cache_info().maxsize
        for n in range(1, 3 * maxsize):
            manifold._drive_grid(float(n), 2 * math.pi, 32)
        assert manifold._drive_grid.cache_info().currsize == maxsize

    def test_grid_left_non_finite_outside_the_errstate_is_not_memoised(self, tmp_path):
        # omega1 = 2 base_rate overflows to inf, so its grid would be NaN: the
        # grid raises NonFinite itself, under any errstate, and is not cached.
        params = {"base_rate": 1e308, "n1": 2, "n2": 1, "k": 1e-3}
        p = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, epsilon=EPS_PAPER, **params)
        manifold._drive_grid.cache_clear()
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            standard_loop_report(p, 64)
        assert manifold._drive_grid.cache_info().currsize == 1  # omega2's finite grid
        with pytest.raises(NonFinite):
            manifold._drive_grid(p.omega1, p.common_period, 64)
        cfg = ExperimentConfig.from_dict({
            "experiment": "hybrid-gho", "params": params, "numerics": {"n_samples": 64},
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
        p0 = std_params(eps=0.4)
        d_max, k_max = elliptic_bound(p0)
        p = std_params(eps=0.4, k=k_max)
        assert abs(p.d_ratio - d_max) < 1e-12


class TestFullQuantum:
    def setup_method(self):
        self.p = std_params(eps=0.5, k=0.0, n1=2, n2=1, a1=2.0)
        self.loop1, self.loop2 = standard_parameter_loops(self.p, 1024)
        self.loop = combined_parameter_loop(self.p, 1024)

    def test_zero_coupling_sum(self):
        total = full_quantum_phase(self.loop, 0.0, 1, 2).value
        split = single_gho_phase(self.loop1, 1).value + single_gho_phase(self.loop2, 2).value
        assert abs(total - split) <= 1e-10

    def test_frozen_parameters(self):
        p = std_params(eps=0.0, a1=2.0, n1=2, n2=1)
        assert abs(full_quantum_phase(combined_parameter_loop(p, 256), 0.1, 0, 0).value) < 1e-14

    def test_swap_symmetry(self):
        k = 0.15
        direct = full_quantum_phase(self.loop, k, 2, 1).value
        swapped_points = np.hstack([self.loop2.points, self.loop1.points])
        swapped = full_quantum_phase(LoopSpec(self.loop.period, swapped_points),
                                     k, 2, 1).value
        assert abs(direct - swapped) <= 1e-10

    def test_mode_collapse_along_loop(self):
        with pytest.raises(ModeCollapse):
            full_quantum_phase(self.loop, 5.0, 0, 0)

    def test_mode_collapse_names_its_first_sample(self):
        # the lower mode closes where omega1^2 omega2^2 <= k^2 Z1 Z2
        x1, x2 = self.loop.points[:, :3], self.loop.points[:, 3:]
        w1_sq = x1[:, 0] * x1[:, 2] - x1[:, 1] ** 2
        w2_sq = x2[:, 0] * x2[:, 2] - x2[:, 1] ** 2
        ratio = w1_sq * w2_sq / (x1[:, 2] * x2[:, 2])
        k = math.sqrt(np.quantile(ratio, 0.4))
        with pytest.raises(ModeCollapse) as err:
            full_quantum_phase(self.loop, k, 0, 0)
        assert err.value.sample == int(np.argmax(ratio <= k**2)) > 0

    def test_nan_sample_is_elliptic_violation_at_that_sample(self):
        # NaN compares false both ways, so a guard written as "any <= 0" let it through
        pts = self.loop2.points.copy()
        pts[37, 0] = np.nan
        loop2 = LoopSpec(self.loop2.period, pts, cycles=self.loop2.cycles)
        combined = LoopSpec(self.loop.period, np.hstack([self.loop1.points, pts]))
        with pytest.raises(EllipticViolation) as single:
            single_gho_phase(loop2, 0)
        with pytest.raises(EllipticViolation) as full:
            full_quantum_phase(combined, 0.1, 0, 0)
        assert single.value.sample == full.value.sample == 37


class TestBOFullQuantum:
    def setup_method(self):
        self.p = std_params(eps=0.5, k=0.0, n1=2, n2=1, a1=2.0)
        self.loop = combined_parameter_loop(self.p, 1024)

    def test_zero_coupling_matches_exact(self):
        # The exact formula counts m in the higher normal mode (oscillator 1
        # here since omega1 > omega2); the separated formula counts m in the
        # heavy oscillator 2.  At k = 0 they describe the same state with the
        # indices interchanged.
        exact = full_quantum_phase(self.loop, 0.0, 1, 2).value
        bo = bo_full_quantum_phase(self.loop, 0.0, 2, 1)
        assert abs(exact - bo) <= 1e-12

    def test_fast_part_matches_hybrid_phase(self):
        k, m, n = 0.15, 1, 2
        p = std_params(eps=0.5, k=k, n1=2, n2=1, a1=2.0, j_action=(m + 0.5), n_level=n)
        part1, _ = bo_full_quantum_phase_parts(self.loop, k, m, n)
        ph = phases_from_one_form(coupled_gho_one_form(p, self.loop))
        assert abs(part1.value / ph.gammas[n] - 1.0) <= 1e-9

    def test_level_difference_gives_angle_shift(self):
        k, m, n = 0.15, 1, 2
        p = std_params(eps=0.5, k=k, n1=2, n2=1, a1=2.0, j_action=(m + 0.5), n_level=n)
        ph = phases_from_one_form(coupled_gho_one_form(p, self.loop))
        g_m = bo_full_quantum_phase(self.loop, k, m, n)
        g_m1 = bo_full_quantum_phase(self.loop, k, m + 1, n)
        assert abs(-(g_m1 - g_m) - ph.delta_phi) <= 1e-9


class TestPairGeometry:
    """The K-independent pieces of the coupled-oscillator routes are built once
    per loop and live exactly as long as it does."""

    def test_built_once(self):
        p = std_params(eps=0.5, k=0.1, n1=2, n2=1, a1=2.0)
        loop = combined_parameter_loop(p, 256)
        full_quantum_phase(loop, p.k, 1, 0)
        first = loop.derived(hybrid_pipeline._pair_geometry)
        bo_full_quantum_phase_parts(loop, p.k, 1, 0)
        form = coupled_gho_one_form(p, loop)
        again = loop.derived(hybrid_pipeline._pair_geometry)
        assert again is first
        assert all(a is b for a, b in zip(again, first))
        assert list(form.action_coeffs[0]) == [first.d_y1z1]
        assert {first.d_y1z1, first.d_p2, first.d_u} <= form.j_coeff.keys()

    def test_one_form_leaves_slow_differential_unbuilt(self):
        # only the fully quantum routes read d(Y2/Z2); the hybrid one-form does not build it
        p = std_params(eps=0.5, k=0.1)
        loop = combined_parameter_loop(p, 256)
        key = (hybrid_pipeline._differential, hybrid_pipeline._y_over_z_rate, 3)
        coupled_gho_one_form(p, loop)
        assert key not in loop._derived
        full_quantum_phase(loop, p.k, 0, 0)
        assert key in loop._derived

    def test_freed_with_its_loop(self):
        p = std_params(eps=0.5, k=0.1)
        loop = combined_parameter_loop(p, 256)
        phases_from_one_form(coupled_gho_one_form(p, loop))
        full_quantum_phase(loop, p.k, 0, 0)
        refs = [weakref.ref(loop), weakref.ref(loop.derived(hybrid_pipeline._pair_geometry).d_u)]
        del loop
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_bare_fast_frequency_not_positive_is_each_routes_own_error(self):
        # omega1^2 = 1 - 4 < 0 everywhere; the shared geometry divides by it, yet
        # under raised floating-point conditions each route names its own guard
        loop = LoopSpec(1.0, np.tile([1.0, 2.0, 1.0, 1.0, 0.1, 1.0], (65, 1)))
        routes = {"a bare triple's frequency squared": lambda: full_quantum_phase(loop, 0.1, 0, 0),
                  "fast-triple frequency squared": lambda: bo_full_quantum_phase_parts(
                      loop, 0.1, 0, 0)}
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(2):  # the second call reads the geometry the first built
                for names, call in routes.items():
                    with pytest.raises(EllipticViolation, match=names) as err:
                        call()
                    assert err.value.sample == 0
                with pytest.raises(EllipticViolation, match="fast-triple"):
                    coupled_gho_one_form(std_params(eps=0.5, k=0.1), loop)

    def test_differential_of_another_loop_is_rejected(self):
        p = std_params(eps=0.5, k=0.1)
        form = coupled_gho_one_form(p, combined_parameter_loop(p, 256))
        with pytest.raises(LengthMismatch, match="not pulled back onto this loop"):
            phases_from_one_form(LinearOneForm(form.loop.reversed(), form.action_coeffs, {}))


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
        if offset > 0:
            with pytest.raises(ModeCollapse):
                full_quantum_phase(loop, k, 0, 0)
        else:
            assert full_quantum_phase(loop, k, 0, 0).value == 0.0
