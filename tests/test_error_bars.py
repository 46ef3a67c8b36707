"""Honest error bars: the stride-2 error estimate of ``periodic_integral`` and
``closed_line_integral`` bounds each quadrature's true error against a closed
form, plus a rounding floor of 8 ulp of the integrand's scale
(``RESOLVED_SHARE * scale``, an ulp being the smallest subnormal below the
normal range), at every even M from 32 to 4096.  The sample ladder of the
quadrature experiments relies on this.

The closed forms write 1 - sqrt(1 - eps^2) as eps^2 / (1 + sqrt(1 - eps^2)):
``gamma_n0_closed_form`` subtracts, which loses about ulp / eps^2 of its
value at small eps (1.2e-13 of it at eps = 0.025, past 8 ulp of the scale).

Two limits are drawn around, not hidden:

- epsilon stays at or below 0.95.  Near epsilon = 1 a triple's X Z - Y^2,
  about a^2 (1 - eps^2), loses 1 / (1 - eps^2) ulp to cancellation, so the
  sampled integrand's own rounding outgrows 8 ulp of its scale (about
  eps 0.96 in the coupled one-form's angle, 0.988 in ``single_gho_phase``).
- The estimate is blind where the half count shares the integrand's
  symmetry: a drive of n cycles per period makes an integrand with only
  harmonics that are multiples of n, and when the power of 2 in n is at
  least the one in M, the M- and M/2-sample sums alias the same harmonics
  and agree to rounding, whatever their error.  The coupled draws keep
  M divisible by 4 (the ratios' multipliers hold one factor of 2 at most);
  ``test_estimate_is_blind_to_a_symmetry_its_half_count_shares`` pins the
  blind case.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import (
    StandardLoopParams,
    closed_line_integral,
    combined_parameter_loop,
    coupled_gho_one_form,
    periodic_integral,
    single_gho_phase,
    subsystem_parameter_loop,
)
from holonomy.manifold import RESOLVED_SHARE

EVEN_M = st.integers(16, 2048).map(lambda j: 2 * j)
SCALE = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)
EPS = st.floats(0.0, 0.95)
RATIOS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 1), (1, 3)]


def assert_honest(q, exact):
    # 8 ulp of the scale; below the normal range an ulp is the smallest subnormal
    floor = RESOLVED_SHARE * q.scale + 8 * np.finfo(float).smallest_subnormal
    assert abs(q.value - exact) <= q.error_estimate + floor, (q, exact, abs(q.value - exact))


def uncoupled_angle(p: StandardLoopParams, phase_span: float) -> float:
    """Minus a standard triple's Hannay angle over a drive phase span:
    (1 - sqrt(1 - eps^2)) span / (2 sqrt(1 - eps^2)); (n + 1/2) times it is
    the quantum phase at level n."""
    root = math.sqrt(1.0 - p.epsilon**2)
    return p.epsilon**2 / (1.0 + root) * phase_span / (2.0 * root)


def standard_params(draw, n1=1, n2=1):
    a1, mu1, a2, mu2, rate = (draw(SCALE) for _ in range(5))
    return StandardLoopParams(a1=a1, a2=a2, mu1=mu1, mu2=mu2, n1=n1, n2=n2, base_rate=rate,
                              epsilon=draw(EPS), n_level=draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(0.0, 20.0), m=EVEN_M)
def test_periodic_integral_of_exp_cos(a, m):
    """The trapezoid integral of exp(a cos t) over one period is 2 pi I0(a)."""
    t = np.linspace(0.0, 2.0 * math.pi, m + 1)
    assert_honest(periodic_integral(np.exp(a * np.cos(t)), 2.0 * math.pi),
                  2.0 * math.pi * float(np.i0(a)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), m=EVEN_M)
def test_single_gho_phase_on_a_subsystem_loop(data, m):
    """One cycle of the fast triple gives the uncoupled phase in closed form."""
    p = standard_params(data.draw)
    assert_honest(single_gho_phase(subsystem_parameter_loop(p, 1, m), p.n_level),
                  (p.n_level + 0.5) * uncoupled_angle(p, 2.0 * math.pi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), ratio=st.sampled_from(RATIOS), m=st.integers(8, 1024).map(lambda j: 4 * j))
def test_coupled_one_form_at_zero_coupling(data, ratio, m):
    """At k = 0 the coupled one-form's quantum coefficient integrates to the
    fast oscillator's uncoupled phase over the common period, and its
    classical coefficient to minus the slow oscillator's Hannay angle."""
    p = standard_params(data.draw, *ratio)
    loop = combined_parameter_loop(p, m)
    form = coupled_gho_one_form(p, loop)
    assert_honest(closed_line_integral(form.action_coeffs[p.n_level], loop),
                  (p.n_level + 0.5) * uncoupled_angle(p, p.common_period * p.omega1))
    assert_honest(closed_line_integral(form.j_coeff, loop),
                  uncoupled_angle(p, p.common_period * p.omega2))


@pytest.mark.xfail(strict=True, reason="the stride-2 estimate aliases the harmonics the "
                   "M-sample sum does when the half count shares the integrand's symmetry")
def test_estimate_is_blind_to_a_symmetry_its_half_count_shares():
    """A (1, 2) loop's classical coefficient has only even harmonics; at
    M = 34 its 17-sample half sees the same ones, so the estimate reads
    rounding while the error is 5e-2."""
    p = StandardLoopParams(a1=1.3, a2=0.7, mu1=0.8, mu2=1.5, n1=1, n2=2, base_rate=1.0,
                           epsilon=0.95)
    loop = combined_parameter_loop(p, 34)
    assert_honest(closed_line_integral(coupled_gho_one_form(p, loop).j_coeff, loop),
                  uncoupled_angle(p, p.common_period * p.omega2))
