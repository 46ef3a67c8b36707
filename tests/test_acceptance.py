"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run pytest with -s to see them inline).
"""

import csv
import math
import time
from pathlib import Path

import numpy as np

import holonomy as H

EPS_PAPER = math.sqrt(3.0) / 2.0
FAMILY = H.spin_hamiltonian_family(1.0)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def std_params(eps=EPS_PAPER, k=0.0, n1=1, n2=1, j_action=1.0, n_level=0, **kw):
    return H.StandardLoopParams(
        a1=kw.pop("a1", 1.0), a2=kw.pop("a2", 1.0), mu1=1.0, mu2=1.0,
        n1=n1, n2=n2, base_rate=1.0, epsilon=eps, k=k,
        j_action=j_action, n_level=n_level, **kw,
    )


def test_criterion_01_spin_solid_angle():
    t0 = time.perf_counter()
    loop = H.cone_loop(math.pi / 2, n_samples=4096)
    frame = H.eigenframe_along_loop(FAMILY, loop)
    gamma, _ = H.berry_and_hannay(frame, 0)
    elapsed = time.perf_counter() - t0
    err = abs(abs(gamma) - math.pi)
    report(1, "equatorial Wilson |gamma| = pi within 1e-6, < 1 s",
           err < 1e-6 and elapsed < 1.0, f"err={err:.2e}, t={elapsed:.2f}s")


def test_criterion_02_closed_form_vs_wilson():
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        loop = H.cone_loop(theta, n_samples=4096)
        frame = H.eigenframe_along_loop(FAMILY, loop)
        for level in (1, 2):
            gamma, dtheta = H.berry_and_hannay(frame, level - 1)
            closed = H.spin_hannay_closed_form(loop, level)
            analytic = math.pi * (1.0 - math.cos(theta)) if level == 1 else math.pi * (
                1.0 + math.cos(theta)
            )
            worst = max(worst, abs(closed - (-gamma)), abs(dtheta - analytic))
    report(2, "cone closed forms vs Wilson loop within 1e-6", worst < 1e-6,
           f"worst={worst:.2e}")


def test_criterion_03_one_form_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        b = rng.normal(size=3)
        b *= rng.uniform(0.5, 2.0) / np.linalg.norm(b)
        actions = rng.uniform(0.0, 2.0, size=2)
        dx = rng.normal(size=3)
        lhs = H.theta_averaged_one_form(FAMILY, actions, b, dx)
        rhs = float(actions @ H.finite_difference_connection(FAMILY, b, dx))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-9))
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4)]
    mats = [0.5 * (m + m.conj().T) for m in mats]
    fam3 = H.HamiltonianFamily(
        dim=3, eval=lambda x: mats[0] + np.einsum("nd,dab->nab", x, np.stack(mats[1:]))
    )
    for _ in range(20):
        x = rng.normal(size=3)
        actions = rng.uniform(0.0, 2.0, size=3)
        dx = rng.normal(size=3)
        lhs = H.theta_averaged_one_form(fam3, actions, x, dx)
        rhs = float(actions @ H.finite_difference_connection(fam3, x, dx))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-9))
    elapsed = time.perf_counter() - t0
    report(3, "angle-average vs connection within 1e-7 relative, < 10 s",
           worst <= 1e-7 and elapsed < 10.0, f"worst={worst:.2e}, t={elapsed:.2f}s")


def test_criterion_04_sign_relation_bit_exact():
    ok = True
    for theta in (0.3, math.pi / 3, math.pi / 2, 2.5):
        frame = H.eigenframe_along_loop(FAMILY, H.cone_loop(theta, n_samples=512))
        for level in (0, 1):
            gamma, dtheta = H.berry_and_hannay(frame, level)
            ok = ok and (dtheta == -gamma)
    report(4, "angle shift is the bit-exact negation of the phase", ok)


def test_criterion_05_uncoupled_gho():
    t0 = time.perf_counter()
    worst = 0.0
    for eps in (0.1, 0.5, EPS_PAPER):
        p = std_params(eps=eps, k=0.0)
        closed = H.gamma_n0_closed_form(p, H.BRANCH_COMMON)
        quad = H.phases_from_one_form(
            H.coupled_gho_one_form(p, H.combined_parameter_loop(p))
        ).gammas[0]
        worst = max(worst, abs(quad / closed - 1.0))
    ref = H.gamma_n0_closed_form(std_params(eps=EPS_PAPER), H.BRANCH_COMMON)
    value_ok = abs(ref - math.pi / 2) < 1e-12
    elapsed = time.perf_counter() - t0
    report(5, "uncoupled phase quadrature vs closed form within 1e-9, < 1 s",
           worst <= 1e-9 and value_ok and elapsed < 1.0,
           f"worst={worst:.2e}, gamma_00={ref:.12f}, t={elapsed:.2f}s")


def test_criterion_06_uncoupled_correspondence():
    worst = 0.0
    for n1, n2 in ((1, 1), (2, 1), (3, 2)):
        for n in (0, 1, 2):
            p = std_params(eps=EPS_PAPER, k=0.0, n1=n1, n2=n2, n_level=n)
            rep = H.standard_loop_report(p, branch=H.BRANCH_COMMON)
            resid = abs(
                rep.gamma_0_part + (n + 0.5) * (p.omega1 / p.omega2) * rep.delta_phi_0_part
            ) / abs(rep.gamma_0_part)
            worst = max(worst, resid)
    report(6, "gamma_n0 = -(n+1/2)(w1/w2) delta_phi_0 within 1e-9 at zero coupling",
           worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_07_coupling_identity():
    p0 = std_params(eps=EPS_PAPER, k=0.0, j_action=2.0)
    _, k_max = H.elliptic_bound(p0)
    worst = 0.0
    for kval in np.geomspace(1e-3 * k_max, 0.95 * k_max, 50):
        p = std_params(eps=EPS_PAPER, k=float(kval), j_action=2.0)
        rep = H.standard_loop_report(p)
        resid = abs(rep.gamma_I_part + (p.j_action / p.hbar) * rep.delta_phi_I_part)
        worst = max(worst, resid / abs(rep.gamma_I_part))
    report(7, "gamma_I = -(J/hbar) delta_phi_I within 1e-12 on a 50-point grid",
           worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_08_weak_coupling():
    p0 = std_params(eps=EPS_PAPER, k=0.0, n1=2, n2=1)
    _, k_max = H.elliptic_bound(p0)
    errs = []
    for frac in (0.1, 0.05, 0.025, 0.0125):
        p = std_params(eps=EPS_PAPER, k=frac * k_max, n1=2, n2=1)
        rep = H.standard_loop_report(p)
        errs.append(abs(rep.gamma_I_part / rep.gamma_I_approx - 1.0))
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    report(8, "weak-coupling approximation within 5% at D = 0.1 D_max, improving as D halves",
           errs[0] <= 0.05 and monotone, f"errs={['%.2e' % e for e in errs]}")


def test_criterion_09_elliptic_bound():
    d_max, k_max = H.elliptic_bound(std_params(eps=EPS_PAPER))
    value_ok = abs(d_max - 0.18947) <= 1e-5
    raised = False
    try:
        H.standard_loop_report(std_params(eps=EPS_PAPER, k=1.001 * k_max))
    except H.EllipticViolation:
        raised = True
    raised_form = False
    p = std_params(eps=EPS_PAPER, k=1.001 * k_max)
    try:
        H.coupled_gho_one_form(p, H.combined_parameter_loop(p))
    except H.EllipticViolation:
        raised_form = True
    report(9, "D_max(eps) = 0.18947 +/- 1e-5; beyond it every path raises, never NaN",
           value_ok and raised and raised_form, f"d_max={d_max:.6f}")


def test_criterion_10_full_quantum_consistency():
    p = std_params(eps=0.5, k=0.0, n1=2, n2=1, a1=2.0)
    loop1, loop2 = H.standard_parameter_loops(p, 2048)
    loop = H.combined_parameter_loop(p, 2048)
    # (a) zero-coupling reduction to two independent oscillator phases
    total = H.full_quantum_phase(loop, 0.0, 1, 2)
    split = H.single_gho_phase(loop1, 1).value + H.single_gho_phase(loop2, 2).value
    err_a = abs(total - split)
    # (b) fast part of the separated phase vs hybrid phase at J = (m + 1/2) hbar
    kc, m, n = 0.15, 1, 2
    ph = H.phases_from_one_form(
        H.coupled_gho_one_form(
            std_params(eps=0.5, k=kc, n1=2, n2=1, a1=2.0, j_action=(m + 0.5), n_level=n),
            loop,
        )
    )
    part1, _ = H.bo_full_quantum_phase_parts(loop, kc, m, n)
    err_b = abs(part1 / ph.gammas[n] - 1.0)
    # (c) minus the level-index difference reproduces the angle shift
    g_m = H.bo_full_quantum_phase(loop, kc, m, n)
    g_m1 = H.bo_full_quantum_phase(loop, kc, m + 1, n)
    err_c = abs(-(g_m1 - g_m) - ph.delta_phi)
    report(10, "full-quantum reductions: (a) 1e-10, (b) 1e-9, (c) 1e-9",
           err_a <= 1e-10 and err_b <= 1e-9 and err_c <= 1e-9,
           f"a={err_a:.2e}, b={err_b:.2e}, c={err_c:.2e}")


def test_criterion_11_quantum_oracle():
    results = []
    for name, theta in (("equator", math.pi / 2), ("cone", math.pi / 3)):
        loop = H.cone_loop(theta, n_samples=256)
        frame = H.eigenframe_along_loop(FAMILY, H.cone_loop(theta, n_samples=4096))
        gamma_w, _ = H.berry_and_hannay(frame, 0)
        t0 = time.perf_counter()
        sps = H.recommended_steps_per_sample(loop, 1000.0)
        prop = H.propagate_quantum(FAMILY, loop, 0, 1000.0, sps)
        gamma_n = prop.geometric_phase
        elapsed = time.perf_counter() - t0
        results.append((name, abs(gamma_n - gamma_w), elapsed))
    # convergence study on the cone loop over three slowness doublings
    loop = H.cone_loop(math.pi / 3, n_samples=256)
    frame = H.eigenframe_along_loop(FAMILY, H.cone_loop(math.pi / 3, n_samples=4096))
    gamma_w, _ = H.berry_and_hannay(frame, 0)
    errs = []
    slownesses = (125.0, 250.0, 500.0, 1000.0)
    for s in slownesses:
        sps = H.recommended_steps_per_sample(loop, s)
        prop = H.propagate_quantum(FAMILY, loop, 0, s, sps)
        errs.append(abs(prop.geometric_phase - gamma_w))
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    fitted_c = float(np.median([e * s for e, s in zip(errs, slownesses)]))
    accurate = all(err <= 0.01 for _, err, _ in results)
    fast = all(t < 30.0 for _, _, t in results)
    detail = ", ".join(f"{nm}: err={e:.2e}, t={t:.1f}s" for nm, e, t in results)
    report(11, "propagation reproduces Wilson phases within 0.01 rad, monotone in slowness",
           accurate and fast and monotone,
           detail + f"; study errs={['%.2e' % e for e in errs]}, fitted c={fitted_c:.2f}")


def test_criterion_12_classical_oracle():
    t0 = time.perf_counter()
    ok = True
    details = []
    for eps in (0.3, EPS_PAPER):
        p = std_params(eps=eps, k=0.0)
        loop = H.subsystem_parameter_loop(p, 2, 256)
        rep = H.standard_loop_report(p)
        qp0 = H.action_angle_to_qp(loop.points[0], 1.0, 0.3)
        sps = H.recommended_steps_per_sample(loop, 1000.0)
        traj = H.propagate_classical(loop, qp0, 1000.0, sps)
        dphi = traj.hannay_angle
        rel = abs(dphi - rep.delta_phi_0_part) / abs(rep.delta_phi_0_part)
        ok = ok and rel <= 0.02 and traj.action_drift <= 0.005
        details.append(f"eps={eps:.3f}: rel={rel:.4f}, drift={traj.action_drift:.2e}")
    elapsed = time.perf_counter() - t0
    report(12, "trajectory angle shift within 2%, action drift within 0.5%, < 60 s",
           ok and elapsed < 60.0, "; ".join(details) + f"; t={elapsed:.1f}s")


def _fig_rows(tmp_path: Path, which: int) -> dict[str, list[dict]]:
    from holonomy.cli import main as cli_main

    out = tmp_path / f"fig{which}"
    assert cli_main([f"fig{which}", "--out", str(out), "--points", "50"]) == 0
    with (out / f"fig{which}.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_ratio: dict[str, list[dict]] = {}
    for row in rows:
        by_ratio.setdefault(row["ratio"], []).append(row)
    return by_ratio


def test_criterion_13_figure_reproduction(tmp_path):
    t0 = time.perf_counter()
    fig1 = _fig_rows(tmp_path, 1)
    fig2 = _fig_rows(tmp_path, 2)
    ok = True
    details = []
    for ratio, rows in fig1.items():
        assert all(r["error"] == "" for r in rows)
        g00 = float(rows[0]["gamma_00"])
        gi = [float(r["gamma_I"]) for r in rows]
        limit_ok = abs(float(rows[0]["gamma_0"]) - g00) <= 1e-2 * abs(g00)
        monotone = all(b > a for a, b in zip(gi, gi[1:]))
        diverges = gi[-1] > 10.0 * abs(g00)
        ok = ok and limit_ok and monotone and diverges
        details.append(f"{ratio}: limit={limit_ok}, monotone={monotone}, tail/g00={gi[-1] / g00:.1e}")
    for ratio, rows in fig2.items():
        neg = all(float(r["delta_phi_I"]) < 0.0 for r in rows)
        small = all(
            abs(float(r["delta_phi_I"])) < 1e-2 * abs(float(r["delta_phi_0"])) for r in rows
        )
        ok = ok and neg and small
    elapsed = time.perf_counter() - t0
    report(13, "coupling-sweep tables show the documented limits/monotonicity/divergence, < 2 min",
           ok and elapsed < 120.0, "; ".join(details) + f"; t={elapsed:.1f}s")


def test_criterion_14_determinism(tmp_path):
    from holonomy.cli import ExperimentConfig, execute

    cfg_dict = {
        "experiment": "hybrid-gho",
        "params": {"epsilon": EPS_PAPER, "n1": 2, "n2": 1},
        "sweep": {"parameter": "k", "start": 1e-4, "stop": 0.05, "count": 8, "scale": "log"},
        "numerics": {"n_samples": 2048},
        "output": {"directory": ""},
        "seed": 123,
    }
    outputs = []
    for name in ("run_a", "run_b"):
        cfg_dict["output"]["directory"] = str(tmp_path / name)
        execute(ExperimentConfig.from_dict(cfg_dict))
        outputs.append((tmp_path / name / "hybrid-gho.csv").read_bytes())
    report(14, "repeated runs of one configuration give bit-identical tables",
           outputs[0] == outputs[1], f"{len(outputs[0])} bytes")
