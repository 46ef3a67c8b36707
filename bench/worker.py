"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py``, once per run and a few more times with
``--setup-only`` to sample the set-up time.  The program under test is
``holonomy`` from the checkout's ``src`` directory; every table goes through
``holonomy.cli.execute``, looked up on the module at call time so that the
traced run's rebinding takes effect.

A pass runs every table of the workload once.  The first pass is gated row by
row; every later pass must reproduce its CSV bytes exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

WORK = BENCH / "_work"
MIN_PASSES = 3


# Time of ``_reference`` on an unloaded core of the host the bounds were set on
# (2-core x86-64, Python 3.11.7, numpy 2.4.6): the scale of load-corrected times.
REFERENCE_S = 4.0e-3


def _reference() -> float:
    """Time a fixed mix of interpreted arithmetic and small numpy FFTs, the two
    kinds of work the workloads do, to see how fast the host runs right now."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    x = np.linspace(0.0, 1.0, 4097)
    for _ in range(5):
        np.sqrt(np.abs(np.fft.fft(np.cos(6.0 * x) * x)))
    return time.perf_counter() - start


def _run_pass(cli, tables, configs, sink) -> tuple[list[float], list[float], list[bytes | str]]:
    """Run every table once.  Return each table's time, the mean time of the
    reference kernel run just before and just after it, and each table's CSV
    bytes or the name of the untyped exception its run raised."""
    for table in tables:
        table.csv_path.unlink(missing_ok=True)
    raised: dict[int, str] = {}
    times = []
    refs = [_reference()]
    with contextlib.redirect_stdout(sink):
        for i, cfg in enumerate(configs):
            start = time.perf_counter()
            try:
                cli.execute(cfg)
            except Exception as exc:  # an untyped failure fails the table, not the run
                traceback.print_exc()
                raised[i] = type(exc).__name__
            times.append(time.perf_counter() - start)
            refs.append(_reference())
    around = [0.5 * (before + after) for before, after in zip(refs, refs[1:])]
    outputs = [raised.get(i) or t.csv_path.read_bytes() for i, t in enumerate(tables)]
    return times, around, outputs


def _same_bytes(verdict, tables, base, outputs, label: str) -> None:
    for t, (a, b) in enumerate(zip(base, outputs)):
        if a != b:
            for _ in range(tables[t].rows):
                verdict.fail(f"{tables[t].experiment}#{t}", f"CSV bytes differ in {label}")


def _roadmap_timings(cli, sink) -> dict[str, float]:
    """The layer baselines quoted in ROADMAP.md, timed directly (untraced)."""
    import holonomy as H

    def timed(fn, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    family = H.spin_hamiltonian_family(1.0)
    cone = H.cone_loop(math.pi / 3.0, n_samples=256)
    sps_q = H.recommended_steps_per_sample(cone, 1000.0)
    p = H.StandardLoopParams(a1=1.0, a2=1.0, mu1=1.0, mu2=1.0, n1=1, n2=1,
                             base_rate=1.0, epsilon=math.sqrt(3.0) / 2.0)
    gho = H.subsystem_parameter_loop(p, 2, 256)
    qp0 = H.action_angle_to_qp(gho.points[0], 1.0, 0.3)
    sps_c = H.recommended_steps_per_sample(gho, 1000.0)
    loop = H.cone_loop(math.pi / 3.0, n_samples=4096)
    fig_out = str(WORK / "roadmap-fig1")

    def fig1():
        with contextlib.redirect_stdout(sink):
            cli.main(["fig1", "--out", fig_out, "--points", "50"])

    return {
        "roadmap.propagate_classical_s":
            timed(lambda: H.propagate_classical(gho, qp0, 1000.0, sps_c), 1),
        "roadmap.propagate_quantum_s":
            timed(lambda: H.propagate_quantum(family, cone, 0, 1000.0, sps_q), 1),
        "roadmap.eigenframe_4096_s": timed(lambda: H.eigenframe_along_loop(family, loop), 5),
        "roadmap.cone_loop_4096_s": timed(lambda: H.cone_loop(math.pi / 3.0, n_samples=4096), 5),
        "roadmap.fig1_150_rows_s": timed(fig1, 3),
    }


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; provenance is best effort
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import holonomy
    import holonomy.cli as cli

    import checks
    import workloads

    if not Path(holonomy.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"holonomy was imported from {holonomy.__file__}, not this checkout")
    tables = workloads.build(args.workload, args.seed, WORK / args.workload)
    configs = [cli.ExperimentConfig.from_dict(t.config) for t in tables]
    ready = time.monotonic()
    # How much slower than REFERENCE_S the host runs at the end of set-up.
    scale = REFERENCE_S / statistics.median(_reference() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready": ready, "scale": scale}))
        return 0

    result: dict = {"ready": ready, "scale": scale, "numpy": np.__version__, "blas": _blas()}
    with open(os.devnull, "w") as sink:
        start = time.perf_counter()
        cold_times, cold_refs, base = _run_pass(cli, tables, configs, sink)
        verdict = checks.check(tables, base)
        if args.trace:
            result.update(_traced(cli, tables, configs, sink, base, verdict, args, start))
        else:
            passes, refs, cpu = [cold_times], [cold_refs], []
            while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(map(sum, passes)) <= args.seconds
            ):
                cpu0 = time.process_time()
                table_times, table_refs, outputs = _run_pass(cli, tables, configs, sink)
                cpu.append(time.process_time() - cpu0)
                passes.append(table_times)
                refs.append(table_refs)
                _same_bytes(verdict, tables, base, outputs, f"pass {len(passes)}")
            # Load from other processes slows this host by up to 1.6x for
            # minutes at a time.  It slows the reference kernel run next to a
            # table alike, so each table's median time relative to it, scaled
            # by REFERENCE_S, is the steady measure (README.md, "Noise").
            relative = [[t / r for t, r in zip(ts, rs)] for ts, rs in zip(passes, refs)]
            result["wall_s"] = REFERENCE_S * sum(map(statistics.median, zip(*relative)))
            result["raw_wall_s"] = sum(map(statistics.median, zip(*passes)))
            result["table_times"] = passes
            result["reference_times"] = refs
            result["cpu_s"] = statistics.median(cpu)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        attempted=verdict.attempted,
        failed=min(verdict.failed, verdict.attempted),
        max_route_err=verdict.max_route_err,
        notes=verdict.notes,
    )
    print(json.dumps(result))
    return 0


def _traced(cli, tables, configs, sink, base, verdict, args, start) -> dict:
    """Alternate traced and untraced passes; per-layer metrics are the medians
    over the traced passes, and the tracing overhead is the ratio of the two
    kinds' median pass times."""
    from tracing import Tracer

    tracer = Tracer()
    traced_times, plain_times, cpu, runs, spans = [], [], [], [], []
    while not runs or (
        time.perf_counter() - start + traced_times[-1] + plain_times[-1] <= args.seconds
    ):
        tracer.reset()
        tracer.install()
        try:
            table_times, _, outputs = _run_pass(cli, tables, configs, sink)
        finally:
            tracer.uninstall()
        traced_times.append(sum(table_times))
        runs.append(tracer.layer_metrics())
        spans.append(tracer.spans)
        _same_bytes(verdict, tables, base, outputs, f"traced pass {len(runs)}")

        cpu0 = time.process_time()
        table_times, _, outputs = _run_pass(cli, tables, configs, sink)
        cpu.append(time.process_time() - cpu0)
        plain_times.append(sum(table_times))
        _same_bytes(verdict, tables, base, outputs, f"untraced pass {len(runs)}")
    Tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.jsonl", spans)

    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    metrics["process.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    metrics.update(_roadmap_timings(cli, sink))
    return {"metrics": metrics, "traced_pass_times": traced_times,
            "untraced_pass_times": plain_times}


if __name__ == "__main__":
    raise SystemExit(main())
