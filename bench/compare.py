"""Summarise one benchmark result set, or compare two.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A result set is a ``results.jsonl`` file as ``run.py`` appends it: one record
per run.  Records are grouped by workload and by traced/untraced run; every
run is kept, also several under one seed.  A group must come from one source
tree and one run length: its records must agree on git SHA, on the digests of
the program and of the benchmark, and on ``seconds``.  A set that mixes them
(``results.jsonl`` is append-only and outlives ``git checkout``) is refused;
start a fresh file for each commit.  Two sets must also agree on ``seconds``.
For each workload and metric the table shows the median and quartiles of each
side and, with two sets, the ratio NEW/BASE of the medians and a verdict:

- ``worse``: NEW's median is worse than BASE's by more than the bound that
  BENCHMARK.json fixes for the metric;
- ``unresolved``: BASE's own spread (quartile distance over median) is wider
  than the bound, and not every NEW run beats every BASE run;
- ``improved``: the medians differ by more than BASE's quartile distance and
  NEW wins at least nine tenths of the runs paired by seed (ties count for
  neither side);
- ``no worse``: otherwise.

Per-layer metrics have no bound; their verdict reads ``same`` when both
medians are equal (as work counters must be for unchanged code) and ``-``
otherwise.  ``failed_frac`` is shown for untraced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# What a group's records must share: the source tree they ran and the run length.
ORIGIN = ("git_sha", "program_digest", "harness_digest", "seconds")


class MixedSet(Exception):
    pass


def load(path: str) -> dict[tuple[str, int], dict]:
    """(workload, trace) -> {"origin": ..., "metrics": metric -> seed -> [values]}."""
    sets: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        origin = tuple(rec["seconds"] if key == "seconds" else rec["provenance"].get(key)
                       for key in ORIGIN)
        key = (rec["workload"], rec["trace"])
        group = sets.setdefault(key, {"origin": origin, "metrics": defaultdict(dict)})
        if group["origin"] != origin:
            raise MixedSet(f"{path}: {key[0]} trace {key[1]} mixes runs of "
                           f"{dict(zip(ORIGIN, group['origin']))} and {dict(zip(ORIGIN, origin))}")
        values = {name: metric["value"] for name, metric in rec["metrics"].items()}
        if not rec["trace"]:
            values["failed_frac"] = rec["failed_frac"]
        for name, value in values.items():
            group["metrics"][name].setdefault(rec["seed"], []).append(value)
    return sets


def flat(runs: dict[int, list[float]]) -> list[float]:
    return [x for values in runs.values() for x in values]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, list[float]], new: dict[int, list[float]], better: str,
            bound: float | None) -> str:
    b = flat(base)
    n = flat(new)
    b1, bm, b3 = quartiles(b)
    _, nm, _ = quartiles(n)
    if bound is None:
        return "same" if bm == nm else "-"
    sign = 1.0 if better == "lower" else -1.0
    if bm == 0.0:  # e.g. failed_frac: any change from zero is a change of kind
        return "no worse" if nm == 0.0 else ("worse" if sign * nm > 0 else "improved")
    worse_by = sign * (nm - bm) / abs(bm)
    if worse_by > bound:
        return "worse"
    all_better = all(sign * (x - y) < 0 for x in n for y in b)
    if (b3 - b1) / abs(bm) > bound and not all_better:
        return "unresolved"
    seeds = sorted(set(base) & set(new))
    pairs = ([(statistics.median(base[s]), statistics.median(new[s])) for s in seeds]
             or list(zip(b, n)))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if -worse_by * abs(bm) > (b3 - b1) and wins >= 0.9 * len(pairs):
        return "improved"
    return "no worse"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    info["failed_frac"] = {"name": "failed_frac", "unit": "1", "better": "lower", "bound": 0.0}
    try:
        loaded = [load(path) for path in argv]
    except MixedSet as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    sets = [{key: g["metrics"] for key, g in side.items()} for side in loaded]
    origins = [{key: g["origin"] for key, g in side.items()} for side in loaded]
    base = sets[0]
    new = sets[-1] if len(sets) == 2 else None
    if new is not None:
        at = ORIGIN.index("seconds")
        for key in set(origins[0]) & set(origins[1]):
            if origins[0][key][at] != origins[1][key][at]:
                print(f"refused: {key[0]} trace {key[1]} ran {origins[0][key][at]} s in "
                      f"{argv[0]} but {origins[1][key][at]} s in {argv[1]}", file=sys.stderr)
                return 2

    head = f"{'workload':9} {'trace':5} {'metric':38} {'unit':12} {'base median [q1, q3]':36}"
    if new is not None:
        head += f" {'new median [q1, q3]':36} {'new/base':>9}  verdict"
    print(head)
    for key in sorted(set(base) | set(new or {})):
        names = list(dict.fromkeys([*base.get(key, {}), *(new or {}).get(key, {})]))
        for name in names:
            m = info.get(name, {"unit": "?", "better": "lower"})
            cells = []
            for side in (base, new) if new is not None else (base,):
                values = flat(side.get(key, {}).get(name, {}))
                if values:
                    q1, q2, q3 = quartiles(values)
                    cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
                else:
                    cells.append("-")
            line = f"{key[0]:9} {key[1]:<5} {name:38} {m['unit']:12} {cells[0]:36}"
            if new is not None:
                b = base.get(key, {}).get(name, {})
                n = new.get(key, {}).get(name, {})
                if b and n:
                    bm, nm = quartiles(flat(b))[1], quartiles(flat(n))[1]
                    ratio = f"{nm / bm:9.4f}" if bm else f"{'-':>9}"
                    line += f" {cells[1]:36} {ratio}  {verdict(b, n, m['better'], m.get('bound'))}"
                else:
                    line += f" {cells[1]:36} {'-':>9}  -"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
