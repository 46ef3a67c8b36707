"""A coupling sweep runs as one K block, a gho-uncoupled table as one
epsilon block and a hybrid-spin-osc table as one lambda block: each route
takes the block's rows at once, and every row equals its block of one bit for
bit, in each quadrature's value, error estimate and scale, in its elliptic
margin, in its typed error and the sample that error names, and in the rung of
the sample ladder where it stops."""

import json
import struct
from collections import Counter
from dataclasses import replace

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonomy import StandardLoopParams, elliptic_bound
from holonomy import cli
from holonomy.errors import HolonomyError
from holonomy.hybrid_pipeline import (
    BRANCH_COMMON,
    bo_full_quantum_phase_parts,
    coupled_gho_one_form,
    full_quantum_phase,
    mode_collapses,
    phases_from_one_form,
    spin_oscillator_frequency,
    spin_oscillator_one_form,
    standard_loop_report,
)
from holonomy.manifold import _gho_loop, circle_loop, combined_parameter_loop
from holonomy.models import SpinOscillatorHybrid, spin_oscillator_loop


def bits(value):
    """A float, a quadrature, a report, phases or an error, as comparable bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, dict):  # a CSV row
        return {name: bits(v) for name, v in value.items()}
    if isinstance(value, BaseException):
        return type(value).__name__, getattr(value, "sample", None)
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if value is None:
        return None
    fields = ("value", "error_estimate", "scale", "gamma", "delta_phi", "gamma_0_part",
              "gamma_I_part", "delta_phi_0_part", "delta_phi_I_part", "gamma_I_approx",
              "delta_phi_I_approx", "elliptic_margin", "quadratures", "gammas")
    return {name: bits(list(getattr(value, name).values()) if name == "gammas"
                       else getattr(value, name))
            for name in fields if hasattr(value, name)}


def alone(call):
    """A call's result, or the error it raises."""
    try:
        return call()
    except (HolonomyError, ArithmeticError) as exc:
        return exc


def one_row(call):
    """The outcome of a block of one: its one row, or the error the call raises."""
    outcome = alone(call)
    return outcome if isinstance(outcome, BaseException) else outcome[0]


def block_of(call, count):
    """A block call's outcomes; an error no coupling decides is every row's."""
    outcome = alone(call)
    return [outcome] * count if isinstance(outcome, BaseException) else outcome


def assert_rows_alone(call, singles):
    """A block call's outcomes are its rows' one-row outcomes ``singles``.  A
    block that raises an ``ArithmeticError`` has a row that raises one alone
    (``cli._outcomes`` then runs every row alone); a ``HolonomyError`` it
    raises is every row's."""
    outcome = alone(call)
    if isinstance(outcome, ArithmeticError):
        assert any(isinstance(single, ArithmeticError) for single in singles)
    else:
        assert bits(block_of(lambda: outcome, len(singles))) == bits(singles)


def assert_ladder_rows_alone(block, rungs):
    """Each row of a sweep block stops at the rung where it stops alone, with the same outcome."""
    coords, compute = block
    together = cli._ladder(compute, len(coords), rungs)
    apart = [cli._ladder(lambda rows, n, i=i: compute([i], n), 1, rungs)[0]
             for i in range(len(coords))]
    assert [(bits(out), n) for out, n in together] == [(bits(out), n) for out, n in apart]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ratio=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (5, 3)]),
       eps=st.floats(0.05, 0.95), scales=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       cap=st.integers(1, 4).map(lambda j: 512 * j), levels=st.tuples(*[st.integers(0, 2)] * 2),
       shares=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
def test_every_block_row_is_its_one_k_call(ratio, eps, scales, cap, levels, shares):
    """Couplings from 0 to twice K_max, past the elliptic bound and past mode
    collapse, through every route of hybrid-gho and full-quantum and through
    the ladder of both sweeps."""
    a1, a2, mu1, mu2 = (10.0**e for e in scales)
    m_level, n_level = levels
    base = StandardLoopParams(a1=a1, a2=a2, mu1=mu1, mu2=mu2, n1=ratio[0], n2=ratio[1],
                              base_rate=1.0, epsilon=eps, n_level=n_level, j_action=m_level + 0.5)
    k_max = elliptic_bound(base)[1]
    ks = [0.0, *(share * k_max for share in shares)]
    assert bits(block_of(lambda: mode_collapses(base, ks, cap), len(ks))) == bits(
        [one_row(lambda k=k: mode_collapses(base, [k], cap)) for k in ks])

    rungs = cli._rungs(cap)
    for n in rungs:
        loop = combined_parameter_loop(base, n)
        for route in (lambda ks: standard_loop_report(base, ks, n, check_samples=cap),
                      lambda ks: full_quantum_phase(loop, ks, m_level, n_level),
                      lambda ks: bo_full_quantum_phase_parts(loop, ks, m_level, n_level),
                      lambda ks: phases_from_one_form(coupled_gho_one_form(base, loop, ks))):
            assert bits(block_of(lambda: route(ks), len(ks))) == bits(
                [one_row(lambda k=k: route([k])) for k in ks])

    # the ladder: each row stops at the rung where it stops alone, with the same outcome
    s = {**cli._resolve({"n1": ratio[0], "n2": ratio[1], "a1": a1, "a2": a2, "mu1": mu1,
                         "mu2": mu2, "epsilon": eps, "n_level": n_level, "m_level": m_level},
                        cli._EXPERIMENTS["full-quantum"][3]), "n_samples": cap}
    sweep = {"parameter": "k", "start": 0.0, "stop": 2.0 * k_max, "count": 6}
    blocks = [cli._coupling_block(base, ks, cap),
              *cli._full_quantum_points(cli.ExperimentConfig("full-quantum", sweep=sweep), s)]
    for block in blocks:
        assert_ladder_rows_alone(block, rungs)


# scales whose omega1^2 = a1^2 (1 - eps^2) underflows to 0 in the rows of
# large epsilon only, and an a2 whose omega2^2 underflows in every row
FAST_UNDERFLOW = {"a1": 3.753174401070809e-161, "mu1": 3.5676277091178156e+125,
                  "a2": 1.0103622627732964, "mu2": 9.207744823468156}
SLOW_UNDERFLOW = {"a2": 1e-300}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ratio=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2)]),
       scales=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       extreme=st.sampled_from([{}, FAST_UNDERFLOW, SLOW_UNDERFLOW]),
       epsilons=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
       share=st.sampled_from([0.0, 0.5, 0.9, 1.2]), cap=st.integers(1, 4).map(lambda j: 512 * j),
       n_level=st.integers(0, 2), common=st.booleans())
@example(ratio=(1, 1), scales=[0.0] * 4, extreme=FAST_UNDERFLOW,  # omega1^2 fails row by row
         epsilons=[0.05, 0.5, 0.9, 0.99, 0.999, 0.3], share=0.0, cap=512, n_level=0, common=True)
def test_every_epsilon_block_row_is_its_one_row_call(ratio, scales, extreme, epsilons, share, cap,
                                                     n_level, common):
    """Rows that differ only in epsilon, at one coupling that the bound of
    some rows admits and of others not, some with a frequency squared that
    underflows to 0: every row of the report, of the one-form on the loop
    block and of the gho-uncoupled ladder is its block of one."""
    settings_ = dict(zip(("a1", "a2", "mu1", "mu2"), (10.0**e for e in scales)), **extreme)
    base = StandardLoopParams(**settings_, n1=ratio[0], n2=ratio[1], base_rate=1.0, epsilon=0.0,
                              n_level=n_level)
    # the first row's bound: a larger epsilon has a smaller one
    k = share * elliptic_bound(replace(base, epsilon=epsilons[0]))[1]
    ps = [replace(base, epsilon=eps) for eps in epsilons]
    ks = [k] * len(ps)  # one coupling per row
    branch = BRANCH_COMMON if common or k else None
    rungs = cli._rungs(cap)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for n in rungs:
            assert_rows_alone(
                lambda: standard_loop_report(ps, ks, n, branch=branch, check_samples=cap),
                [one_row(lambda p=p: standard_loop_report(p, [k], n, branch=branch,
                                                          check_samples=cap)) for p in ps])
            assert_rows_alone(
                lambda: phases_from_one_form(coupled_gho_one_form(
                    ps, combined_parameter_loop(ps, n), ks)),
                [one_row(lambda p=p: phases_from_one_form(coupled_gho_one_form(
                    p, combined_parameter_loop(p, n), [k]))) for p in ps])
        s = {**cli._resolve(dict(settings_, n1=ratio[0], n2=ratio[1], n_level=n_level,
                                 epsilons=epsilons), cli._EXPERIMENTS["gho-uncoupled"][3]),
             "n_samples": cap}
        (block,) = cli._gho_uncoupled_points(cli.ExperimentConfig("gho-uncoupled"), s)
        assert_ladder_rows_alone(block, rungs)


def frequency_row(m, xyz, lam):
    """The frequency check's block of one at ``lam``: its error, or its (Omega^2, Omega)."""
    omega_sq, omega, failed = spin_oscillator_frequency(m, xyz, [lam])
    return failed[0] if failed else (omega_sq[0], omega[0])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(eps=st.floats(0.0, 0.95), scales=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       actions=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
       lambdas=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=8),
       cap=st.integers(1, 4).map(lambda j: 512 * j))
def test_every_lambda_block_row_is_its_one_row_call(eps, scales, actions, lambdas, cap):
    """Couplings past the weak-coupling limit, and frequency shifts that make
    Omega^2 negative where I- > I+: every row of the frequency check, of the
    one-form and of the hybrid-spin-osc ladder is its block of one."""
    a, mass, b_field = (10.0**e for e in scales)
    i_plus, i_minus, j_action = actions
    rungs = cli._rungs(cap)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for n in rungs:
            loop = spin_oscillator_loop(circle_loop(2 * np.pi, n),
                                        _gho_loop([(a, mass, 1.0)], eps, 2 * np.pi, n, 1))
            m = SpinOscillatorHybrid(mu=1.0, b_field=b_field, loop=loop, i_plus=i_plus,
                                     i_minus=i_minus, j_action=j_action)
            xyz = loop.points[:, 2:]
            omega_sq, omega, failed = spin_oscillator_frequency(m, xyz, lambdas)
            rest = iter(zip(omega_sq, omega))
            assert bits([failed[i] if i in failed else next(rest) for i in range(len(lambdas))]) \
                == bits([alone(lambda lam=lam: frequency_row(m, xyz, lam)) for lam in lambdas])
            assert_rows_alone(lambda: phases_from_one_form(spin_oscillator_one_form(m, lambdas)),
                              [one_row(lambda lam=lam: phases_from_one_form(
                                  spin_oscillator_one_form(m, [lam]))) for lam in lambdas])
        s = {**cli._resolve({"a": a, "m": mass, "b_magnitude": b_field, "epsilon": eps,
                             "i_plus": i_plus, "i_minus": i_minus, "j_action": j_action,
                             "lambdas": lambdas}, cli._EXPERIMENTS["hybrid-spin-osc"][3]),
             "n_samples": cap}
        (block,) = cli._hybrid_spin_osc_points(cli.ExperimentConfig("hybrid-spin-osc"), s)
        assert_ladder_rows_alone(block, rungs)


def rows_and_rungs(raw: dict, out) -> tuple[list[str], dict]:
    """The CSV rows ``raw`` writes and its ``samples_used``."""
    assert cli.execute(cli.ExperimentConfig.from_dict(dict(raw, output={"directory": str(out)}))) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    return (out / f"{raw['experiment']}.csv").read_text().splitlines()[1:], meta["samples_used"]


@pytest.mark.parametrize("raw, key, values, rungs, errors", [
    # a (1, 1) loop at eps 0.898: rows near K_max climb to the cap, rows past
    # it fail the elliptic bound, and k^2 past 1e308 leaves floating-point range
    ({"experiment": "hybrid-gho", "params": {"epsilon": 0.898}}, "k",
     [0.0, 0.001, 0.05, 0.1, 0.1015, 0.10199, 0.102, 0.11, 1e160, 0.2, 1e200],
     {"256": 9, "512": 1, "4096": 1}, {"", "EllipticViolation", "NonFinite"}),
    # the same at eps 0.9 in full-quantum, where rows past K_max collapse the lower mode
    ({"experiment": "full-quantum", "params": {"epsilon": 0.9, "m_level": 1}}, "k",
     [0.0, 0.05, 0.09, 0.099, 0.0999, 0.09999, 0.1, 0.1001, 0.12, 1e160, 0.5],
     {"256": 8, "512": 1, "4096": 2}, {"", "ModeCollapse", "NonFinite"}),
    # criterion 10's model: rows between K_max and mode collapse fail the
    # one-form's bound after two routes have run
    ({"experiment": "full-quantum", "params": {"a1": 2.0, "epsilon": 0.5, "n1": 2, "n2": 1}}, "k",
     [0.0, 0.05, 0.4, 0.6, 0.7, 0.8, 0.83295, 0.9, 1e160, 1.0],
     {"256": 10}, {"", "EllipticViolation", "ModeCollapse", "NonFinite"}),
    # a fuzzed config: omega2^2 underflows to 0, so every row fails the effective frequency
    ({"experiment": "gho-uncoupled", "params": {"a2": 1e-300}, "numerics": {"n_samples": 32}},
     "epsilons", [0.1, 0.5, 0.8660254037844386], {"32": 3}, {"EllipticViolation"}),
    # omega1^2 underflows to 0 in the rows of large epsilon only
    ({"experiment": "gho-uncoupled", "params": FAST_UNDERFLOW},
     "epsilons", [0.05, 0.5, 0.9, 0.99, 0.999, 0.3], {"256": 1, "4096": 5},
     {"", "EllipticViolation"}),
    # the block's geometry overflows, so its rows run alone: some leave range, some fail
    ({"experiment": "gho-uncoupled", "params": {"a2": 1e-161, "mu2": 1e10},
      "numerics": {"n_samples": 64}},
     "epsilons", [0.05, 0.5, 0.9, 0.99, 0.999, 0.3], {"64": 6}, {"NonFinite", "EllipticViolation"}),
    # fine rows; rows whose Omega^2 fails at the cap; rows whose Omega^3 overflows at the rung
    ({"experiment": "hybrid-spin-osc", "params": {"a": 4.5e102, "i_plus": 0.0, "i_minus": 1.0,
                                                  "j_action": 0.0}},
     "lambdas", [0.0, 1e51, 1.2e51, 1.3e51, 1.45e51, 1.6e51, 2e51], {"256": 7},
     {"", "OmegaImaginary", "NonFinite"}),
], ids=["hybrid-gho", "full-quantum-ladder", "full-quantum-checks", "gho-uncoupled-fuzzed",
        "gho-uncoupled-fast", "gho-uncoupled-overflow", "hybrid-spin-osc"])
def test_a_sweep_writes_what_its_rows_write_alone(raw, key, values, rungs, errors, tmp_path,
                                                  monkeypatch):
    """A sweep (or a table of listed epsilons or lambdas) whose rows stop at
    different rungs, fail at different checks and leave floating-point range
    next to finite rows writes the same CSV rows and ``samples_used`` as each
    of its rows run as a one-row table."""
    alone_rows, alone_used = [], Counter()
    for i, value in enumerate(values):
        single = dict(raw, params=dict(raw["params"], **{key: value if key == "k" else [value]}))
        rows, used = rows_and_rungs(single, tmp_path / str(i))
        alone_rows += rows
        alone_used.update(used)
    if key == "k":
        monkeypatch.setattr(cli, "_grid", lambda sweep, scale=1.0: values)  # the sweep's couplings
        table = dict(raw, sweep={"parameter": "k", "start": 0.0, "stop": 1.0, "count": len(values)})
    else:
        table = dict(raw, params=dict(raw["params"], **{key: values}))
    rows, used = rows_and_rungs(table, tmp_path / "sweep")
    assert rows == alone_rows
    assert used == dict(alone_used) == rungs
    assert {row.rsplit(",", 1)[1] for row in rows} == errors
