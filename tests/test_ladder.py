"""The sample-count ladder of the quadrature experiments: each row runs at
``n_samples / 2^j`` from the first rung at or below 256 and doubles only while
one of its quadratures is unresolved, ``n_samples`` being the cap; every rung
below the cap is a multiple of 256 and more than two samples per cycle of the
fastest drive, so no drive multiplier can blind its stride-2 estimate, and a
cap at or below that is refused.  Every sampled check that decides a typed error, and
``elliptic_margin``, reads the cap's samples.  ``run_meta.json`` counts the
rows that finished at each rung."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import StandardLoopParams, elliptic_bound, standard_loop_report
from holonomy import cli
from holonomy.hybrid_pipeline import _drive_profile
from holonomy.manifold import _drive_grid, _gho_points
from holonomy.cli import _EXPERIMENTS, _FIRST_RUNG, ExperimentConfig, _rungs, _sweep, execute

DATA = Path(__file__).parent / "data"


def sweep(raw: dict):
    _, rows, _, samples_used = _sweep(ExperimentConfig.from_dict(raw))
    return rows, samples_used


@pytest.mark.parametrize("cap, rungs", [
    (4096, [256, 512, 1024, 2048, 4096]),
    (512, [256, 512]),
    (1000, [1000]),  # its half, 500, is not a multiple of 256
    (6000, [6000]),
    (260, [260]),
    (256, [256]),
    (258, [258]),
    (4097, [4097]),
    (64, [64]),
    (1536, [768, 1536]),  # 384 is not a multiple of 256, so 768 is the first rung
])
def test_rungs(cap, rungs):
    assert _rungs(cap) == rungs


def test_every_rung_is_an_even_count_of_at_least_32():
    """Every rung below the cap is a multiple of 256, and the first is at or
    below 256 or has no half that is one."""
    for cap in range(16, 20000):
        rungs = _rungs(cap)
        assert rungs[-1] == cap
        assert all(2 * low == high for low, high in zip(rungs, rungs[1:]))
        if len(rungs) > 1:
            assert all(n % 2 == 0 and n >= 32 for n in rungs)
            assert all(n % _FIRST_RUNG == 0 for n in rungs[:-1])
            assert rungs[0] <= _FIRST_RUNG or rungs[0] % (2 * _FIRST_RUNG)


def test_an_even_drive_multiplier_cannot_blind_a_rung():
    """A (6, 1) loop capped at 6000 samples: at 750 samples, whose half is
    odd, the stride-2 estimate of its six-cycle drive would read 1.4e-14
    while the quadrature is 3.7e-7 off at eps 0.99 and 6.8e-5 off at eps
    0.995.  6000 is not a multiple of 512, so the row runs at the cap alone
    and meets the closed form."""
    raw = {"experiment": "gho-uncoupled",
           "params": {"n1": 6, "n2": 1, "epsilons": [0.99, 0.995]},
           "numerics": {"n_samples": 6000}}
    rows, samples_used = sweep(raw)
    assert samples_used == {"6000": 2}
    for row in rows:
        assert row["abs_err"] < 1e-12 * row["gamma_00_closed"]


def test_no_rung_is_two_samples_or_fewer_per_cycle_of_the_fastest_drive():
    """At 256 samples a 128-cycle drive has two samples per cycle, so the
    half count sees it as a constant: its estimate read rounding and these
    rows stopped there 31.1 and 260.2 off.  Such rungs are skipped, and a cap
    at or below two samples per cycle is ``ConfigInvalid``."""
    raw = {"experiment": "gho-uncoupled", "params": {"n1": 128, "n2": 1, "epsilons": [0.5, 0.9]},
           "numerics": {"n_samples": 8192}}
    rows, samples_used = sweep(raw)
    assert "256" not in samples_used
    assert [row["error"] for row in rows] == ["", ""]
    assert max(row["abs_err"] for row in rows) < 1e-10
    for raw in (dict(raw, numerics={"n_samples": 256}),
                {"experiment": "fig1", "params": {"ratios": [[1, 1], [1, 200]]},
                 "numerics": {"n_samples": 400}}):
        with pytest.raises(cli.ConfigInvalid, match="the fastest drive"):
            sweep(raw)


def test_mode_collapse_is_decided_at_the_cap():
    """Criterion 10's model closes its lower mode at k = 0.832937872 on 4096
    samples and at k = 0.832965131 on 256; at k = 0.83295 a row capped at
    4096 runs its quadratures at 256 and still reads ``ModeCollapse``, where
    a plain 256-sample run reads the effective frequency's
    ``EllipticViolation``."""
    params = {"a1": 2.0, "epsilon": 0.5, "n1": 2, "n2": 1, "k": 0.83295}
    raw = {"experiment": "full-quantum", "params": params}
    rows, samples_used = sweep(raw)
    assert rows[0]["error"] == "ModeCollapse" and samples_used == {"256": 1}
    rows, samples_used = sweep(dict(raw, numerics={"n_samples": 256}))
    assert rows[0]["error"] == "EllipticViolation" and samples_used == {"256": 1}


def test_unresolved_row_is_the_direct_computation_at_the_cap():
    """A row just below K_max, where both drives of a (1, 1) loop peak
    together, stays unresolved up to the cap; its cells are then bit for bit
    those of ``standard_loop_report`` at the cap."""
    base = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1, base_rate=1.0,
                              epsilon=0.898)
    p = replace(base, k=0.9999 * elliptic_bound(base)[1])
    rows, samples_used = sweep({"experiment": "hybrid-gho",
                                "params": {"epsilon": p.epsilon, "k": p.k}})
    assert samples_used == {"4096": 1}
    report = standard_loop_report(p, 4096)
    assert not all(q.resolved for q in report.quadratures)
    want = {"gamma_0": report.gamma, "gamma_I": report.gamma_I_part,
            "delta_phi": report.delta_phi, "delta_phi_0": report.delta_phi_0_part,
            "delta_phi_I": report.delta_phi_I_part, "elliptic_margin": report.elliptic_margin,
            "quadrature_error": report.quadrature_error}
    assert {col: rows[0][col] for col in want} == want


def test_elliptic_margin_is_the_caps_sampled_minimum():
    """A row that resolves at the first rung reports the elliptic margin of
    the cap's samples, which differs from the first rung's in its last
    digits."""
    base = StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=3, n2=2, base_rate=1.0,
                              epsilon=0.5, k=0.3)
    rows, samples_used = sweep({"experiment": "hybrid-gho", "params": {
        "epsilon": 0.5, "n1": 3, "n2": 2, "k": 0.3}})
    assert samples_used == {"256": 1}
    at_cap = standard_loop_report(base, 4096).elliptic_margin
    assert rows[0]["elliptic_margin"] == at_cap != standard_loop_report(base, 256).elliptic_margin
    assert rows[0]["gamma_I"] == standard_loop_report(base, 256).gamma_I_part


def cap_of(raw: dict) -> int:
    default = _EXPERIMENTS[raw["experiment"]][-1]["n_samples"]
    return raw.get("numerics", {}).get("n_samples", default)


SMALL_CAPS = [c for c in sorted(DATA.glob("*.json")) if cap_of(json.loads(c.read_text())) <= 256]


@pytest.mark.parametrize("config", SMALL_CAPS, ids=lambda c: c.stem)
def test_a_cap_of_256_or_less_runs_every_row_at_the_cap(config, tmp_path, monkeypatch):
    """Each snapshot configuration capped at 256 samples or less writes the
    same bytes as when its experiment runs off the ladder, and every row
    finishes at the cap."""
    raw = json.loads(config.read_text())
    cap = cap_of(raw)
    written = []
    for run in ("ladder", "fixed"):
        if run == "fixed":
            monkeypatch.setattr(cli, "_LADDERED", set())
        out = tmp_path / run
        assert execute(ExperimentConfig.from_dict(dict(raw, output={"directory": str(out)}))) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["samples_used"] == {str(cap): meta["rows"]}
        written.append((out / f"{raw['experiment']}.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("raw", [
    {"experiment": "hybrid-gho", "params": {"epsilon": 0.898},
     "sweep": {"parameter": "k", "start": 0.001, "stop": 0.10199, "count": 7, "scale": "linear"}},
    {"experiment": "full-quantum", "params": {"a1": 2.0, "epsilon": 0.5, "n1": 2, "n2": 1},
     "sweep": {"parameter": "k", "start": 0.05, "stop": 1.0, "count": 6, "scale": "linear"}},
    {"experiment": "spin-berry"},
    {"experiment": "oracle-classical", "numerics": {"n_samples": 64, "slowness": 50.0}},
], ids=lambda raw: raw["experiment"])
def test_samples_used_counts_every_row_at_a_rung(raw, tmp_path):
    """``samples_used`` in ``run_meta.json`` adds up to the rows, and names
    only rungs of the cap: the quadrature experiments' ladder, the cap alone
    for the others."""
    assert execute(ExperimentConfig.from_dict(dict(raw, output={"directory": str(tmp_path)}))) == 0
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    cap = meta["resolved"]["numerics"]["n_samples"]
    assert sum(meta["samples_used"].values()) == meta["rows"]
    rungs = _rungs(cap) if raw["experiment"] in cli._LADDERED else [cap]
    assert set(map(int, meta["samples_used"])) <= set(rungs)
    if raw["experiment"] == "hybrid-gho":  # its last row, 0.9999 K_max, runs to the cap
        assert meta["samples_used"]["4096"] == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rate=st.floats(0.1, 10.0), ratio=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (5, 3)]),
       eps=st.floats(0.0, 0.95), scales=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       k_share=st.floats(0.0, 0.95), common=st.booleans(),
       cap=st.integers(1, 8).map(lambda j: 512 * j))
def test_every_rung_reads_the_caps_samples_at_a_stride(rate, ratio, eps, scales, k_share, common,
                                                        cap):
    """At every rung cap / 2^j the drive grids, the GHO points and the report's
    drive profile are the cap's at stride 2^j, bit for bit, over the common
    period and over the slow one.  So a report whose checks read the cap has
    the rung's own quadratures and the cap's ``elliptic_margin``, and a check
    count that is not a multiple of the rung is refused."""
    a1, a2, mu1, mu2 = (10.0**e for e in scales)
    base = StandardLoopParams(a1=a1, a2=a2, mu1=mu1, mu2=mu2, n1=ratio[0], n2=ratio[1],
                              base_rate=rate, epsilon=eps)
    # the common branch at any coupling, or the per-subsystem one (slow period) at k = 0
    p = replace(base, k=k_share * elliptic_bound(base)[1]) if common else base
    period = p.common_period if common else 2.0 * math.pi / p.omega2
    triples = [(a1, mu1, p.omega1), (a2, mu2, p.omega2)]

    def arrays(n):
        return (*_drive_grid(p.omega1, period, n), *_drive_grid(p.omega2, period, n),
                _gho_points(triples, eps, period, n),
                *(a[0] for a in _drive_profile((eps,), p.omega1, p.omega2, period, n)))

    at_cap = arrays(cap)
    margin = standard_loop_report(p, cap).elliptic_margin
    for stride in (1, 2, 4, 8, 16):
        n = cap // stride
        assert [a[::stride].tobytes() for a in at_cap] == [a.tobytes() for a in arrays(n)]
        checked = standard_loop_report(p, n, check_samples=cap)
        assert checked.quadratures == standard_loop_report(p, n).quadratures
        assert checked.elliptic_margin == margin
        with pytest.raises(ValueError, match="not a multiple"):
            standard_loop_report(p, n, check_samples=cap + n // 2)
