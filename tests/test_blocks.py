"""A coupling sweep runs as one K block: each route takes the sweep's
couplings at once, and every row equals its one-K call bit for bit, in each
quadrature's value, error estimate and scale, in its elliptic margin, in its
typed error and the sample that error names, and in the rung of the sample
ladder where it stops."""

import json
import struct
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import StandardLoopParams, elliptic_bound
from holonomy import cli
from holonomy.errors import HolonomyError
from holonomy.hybrid_pipeline import (
    bo_full_quantum_phase_parts,
    coupled_gho_one_form,
    full_quantum_phase,
    mode_collapses,
    phases_from_one_form,
    standard_loop_report,
)
from holonomy.manifold import combined_parameter_loop


def bits(value):
    """A float, a quadrature, a report, phases or an error, as comparable bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
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
    """A one-K call's result, or the error it raises."""
    try:
        return call()
    except (HolonomyError, ArithmeticError) as exc:
        return exc


def block_of(call, count):
    """A block call's outcomes; an error no coupling decides is every row's."""
    outcome = alone(call)
    return [outcome] * count if isinstance(outcome, BaseException) else outcome


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
    one = [replace(base, k=k) for k in ks]
    assert bits(block_of(lambda: mode_collapses(base, ks, cap), len(ks))) == bits(
        [alone(lambda p=p: mode_collapses(p, [p.k], cap)[0]) for p in one])

    rungs = cli._rungs(cap)
    for n in rungs:
        reports = block_of(lambda: standard_loop_report(base, n, check_samples=cap, k=ks), len(ks))
        assert bits(reports) == bits(
            [alone(lambda p=p: standard_loop_report(p, n, check_samples=cap)) for p in one])
        loop = combined_parameter_loop(base, n)
        for route in (lambda k: full_quantum_phase(loop, k, m_level, n_level),
                      lambda k: bo_full_quantum_phase_parts(loop, k, m_level, n_level)):
            assert bits(block_of(lambda: route(ks), len(ks))) == bits(
                [alone(lambda k=k: route(k)) for k in ks])
        phases = block_of(lambda: phases_from_one_form(coupled_gho_one_form(base, loop, ks)),
                          len(ks))
        assert bits(phases) == bits(
            [alone(lambda p=p: phases_from_one_form(coupled_gho_one_form(p, loop))) for p in one])

    # the ladder: each row stops at the rung where it stops alone, with the same outcome
    s = {**cli._resolve({"n1": ratio[0], "n2": ratio[1], "a1": a1, "a2": a2, "mu1": mu1,
                         "mu2": mu2, "epsilon": eps, "n_level": n_level, "m_level": m_level},
                        cli._EXPERIMENTS["full-quantum"][3]), "n_samples": cap}
    sweep = {"parameter": "k", "start": 0.0, "stop": 2.0 * k_max, "count": 6}
    blocks = [cli._coupling_block(base, ks, cap),
              *cli._full_quantum_points(cli.ExperimentConfig("full-quantum", sweep=sweep), s)]
    for coords, compute in blocks:
        together = cli._ladder(compute, len(coords), rungs)
        apart = [cli._ladder(lambda rows, n, i=i: compute([i], n), 1, rungs)[0]
                 for i in range(len(coords))]
        assert [(bits(out), n) for out, n in together] == [(bits(out), n) for out, n in apart]


def rows_and_rungs(raw: dict, out) -> tuple[list[str], dict]:
    """The CSV rows ``raw`` writes and its ``samples_used``."""
    assert cli.execute(cli.ExperimentConfig.from_dict(dict(raw, output={"directory": str(out)}))) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    return (out / f"{raw['experiment']}.csv").read_text().splitlines()[1:], meta["samples_used"]


@pytest.mark.parametrize("raw, ks, rungs, errors", [
    # a (1, 1) loop at eps 0.898: rows near K_max climb to the cap, rows past
    # it fail the elliptic bound, and k^2 past 1e308 leaves floating-point range
    ({"experiment": "hybrid-gho", "params": {"epsilon": 0.898}},
     [0.0, 0.001, 0.05, 0.1, 0.1015, 0.10199, 0.102, 0.11, 1e160, 0.2, 1e200],
     {"256": 9, "512": 1, "4096": 1}, {"", "EllipticViolation", "NonFinite"}),
    # the same at eps 0.9 in full-quantum, where rows past K_max collapse the lower mode
    ({"experiment": "full-quantum", "params": {"epsilon": 0.9, "m_level": 1}},
     [0.0, 0.05, 0.09, 0.099, 0.0999, 0.09999, 0.1, 0.1001, 0.12, 1e160, 0.5],
     {"256": 8, "512": 1, "4096": 2}, {"", "ModeCollapse", "NonFinite"}),
    # criterion 10's model: rows between K_max and mode collapse fail the
    # one-form's bound after two routes have run
    ({"experiment": "full-quantum", "params": {"a1": 2.0, "epsilon": 0.5, "n1": 2, "n2": 1}},
     [0.0, 0.05, 0.4, 0.6, 0.7, 0.8, 0.83295, 0.9, 1e160, 1.0],
     {"256": 10}, {"", "EllipticViolation", "ModeCollapse", "NonFinite"}),
], ids=["hybrid-gho", "full-quantum-ladder", "full-quantum-checks"])
def test_a_sweep_writes_what_its_rows_write_alone(raw, ks, rungs, errors, tmp_path, monkeypatch):
    """A sweep whose rows stop at different rungs, fail at different checks
    and leave floating-point range next to finite rows writes the same CSV
    rows and ``samples_used`` as each of its rows run as a one-row table."""
    alone_rows, alone_used = [], Counter()
    for i, k in enumerate(ks):
        single = dict(raw, params=dict(raw["params"], k=k))
        rows, used = rows_and_rungs(single, tmp_path / str(i))
        alone_rows += rows
        alone_used.update(used)
    monkeypatch.setattr(cli, "_grid", lambda sweep, scale=1.0: ks)  # the sweep's couplings
    sweep = {"parameter": "k", "start": 0.0, "stop": 1.0, "count": len(ks)}
    rows, used = rows_and_rungs(dict(raw, sweep=sweep), tmp_path / "sweep")
    assert rows == alone_rows
    assert used == dict(alone_used) == rungs
    assert {row.rsplit(",", 1)[1] for row in rows} == errors
