"""Spans around the calls into each holonomy layer, installed from outside.

``holonomy.cli`` imports the names it uses directly (``from .manifold import
make_loop``), so wrapping a function where it is defined catches nothing.
``Tracer.install`` therefore rebinds every public function or class that a
layer module imports from another layer module, in the importing module's
namespace, plus ``cli.execute`` (the root of each table) and
``HamiltonianFamily.matrices`` on the class.  ``uninstall`` restores them.

A span records its name, layer, start, end, parent span and the ``execute``
call it belongs to.  Spans stay in memory until the run ends and ``dump``
writes them out.  A layer's self time
is the summed duration of its spans minus the time their child spans cover.
Work counters are computed from each wrapped call's arguments and results, so
they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import holonomy.quantum_geometry
from holonomy.errors import HolonomyError

from checks import parse_csv

LAYERS = ("cli", "manifold", "models", "quantum_geometry", "hybrid_pipeline", "dynamics_oracle")

# span fields
_NAME, _LAYER, _START, _END, _PARENT, _EXECUTE, _CHILD, _ERROR = range(8)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == "holonomy" and layer in LAYERS else None


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _csv_stats(counts: Counter, args, kwargs) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    data = (Path(cfg.output_dir) / f"{cfg.experiment}.csv").read_bytes()
    rows = parse_csv(data)
    counts["cli.rows"] += len(rows)
    counts["cli.rows_typed_error"] += sum(1 for row in rows if row["error"])
    counts["cli.csv_bytes"] += len(data)


def _count(counts: Counter, name: str, fn, args, kwargs, result) -> None:
    """Add the work done by one call, from its arguments and result."""
    if name == "cli.execute":
        _csv_stats(counts, args, kwargs)
    elif name == "manifold.make_loop":
        counts["manifold.loop_points"] += result.points.shape[0]
    elif name == "manifold.closed_line_integral":
        counts["manifold.quad_calls"] += 1
        counts["manifold.quad_points"] += _bound(fn, args, kwargs)["loop"].points.shape[0]
    elif name == "manifold.periodic_integral":
        counts["manifold.quad_calls"] += 1
        counts["manifold.quad_points"] += len(_bound(fn, args, kwargs)["values"])
    elif name == "quantum_geometry.HamiltonianFamily.matrices":
        counts["quantum_geometry.matrices_points"] += result.shape[0]
    elif name == "quantum_geometry.eigenframe_along_loop":
        counts["quantum_geometry.eigen_points"] += result.loop.points.shape[0]
    elif name in ("dynamics_oracle.propagate_quantum", "dynamics_oracle.propagate_classical"):
        a = _bound(fn, args, kwargs)
        loop = a["loop"] if "loop" in a else a["x2_loop"]
        steps = loop.n_segments * a["steps_per_sample"]
        counts["dynamics_oracle.rk4_steps"] += steps
        # two upsampled parameter points per RK4 step (step start and midpoint)
        counts["dynamics_oracle.fine_points"] += 2 * steps


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._execute = 0
        self._attributed: dict[int, BaseException] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"holonomy.{layer}")
            for attr, obj in list(vars(module).items()):
                owner = _layer_of(obj)
                if attr.startswith("_") or owner in (None, layer):
                    continue
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    self._rebind(module, attr, f"{owner}.{obj.__qualname__}", owner)
        cli = importlib.import_module("holonomy.cli")
        self._rebind(cli, "execute", "cli.execute", "cli")
        family = holonomy.quantum_geometry.HamiltonianFamily
        self._rebind(family, "matrices", "quantum_geometry.HamiltonianFamily.matrices",
                     "quantum_geometry")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _rebind(self, target, attr: str, name: str, layer: str) -> None:
        original = vars(target)[attr]
        self._saved.append((target, attr, original))
        setattr(target, attr, self._wrap(original, name, layer))

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            return tracer._call(fn, name, layer, args, kwargs)

        return traced

    # -- recording ------------------------------------------------------------

    def _call(self, fn, name: str, layer: str, args, kwargs):
        if name == "cli.execute":
            self._execute += 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, 0.0, 0.0, parent, self._execute, 0.0, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except HolonomyError as exc:
            # attributed to the innermost layer it is raised out of
            if id(exc) not in self._attributed:
                self._attributed[id(exc)] = exc
                span[_ERROR] = type(exc).__name__
            raise
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][_CHILD] += span[_END] - span[_START]
        _count(self.counts, name, fn, args, kwargs, result)
        return result

    def reset(self) -> None:
        """Start a new pass: forget spans and counters of the previous one."""
        self.spans = []
        self.counts = Counter()
        self._attributed.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        calls: Counter = Counter()
        errors: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        wilson = 0.0
        for span in self.spans:
            duration = span[_END] - span[_START]
            own = duration - span[_CHILD]
            calls[span[_LAYER]] += 1
            errors[span[_LAYER]] += span[_ERROR] is not None
            self_s[span[_LAYER]] += own
            by_name[span[_NAME]] += own
            if span[_NAME] == "quantum_geometry.berry_and_hannay":
                wilson += duration
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.errors"] = errors[layer]
        for key in ("dynamics_oracle.rk4_steps", "dynamics_oracle.fine_points",
                    "quantum_geometry.matrices_points", "quantum_geometry.eigen_points",
                    "manifold.loop_points", "manifold.quad_calls", "manifold.quad_points",
                    "cli.rows", "cli.rows_typed_error", "cli.csv_bytes"):
            m[key] = self.counts[key]
        m["dynamics_oracle.quantum_s"] = by_name["dynamics_oracle.propagate_quantum"]
        m["dynamics_oracle.classical_s"] = by_name["dynamics_oracle.propagate_classical"]
        m["dynamics_oracle.ns_per_step"] = _ns_per(
            m["dynamics_oracle.quantum_s"] + m["dynamics_oracle.classical_s"],
            m["dynamics_oracle.rk4_steps"])
        m["quantum_geometry.matrices_s"] = by_name["quantum_geometry.HamiltonianFamily.matrices"]
        m["quantum_geometry.ns_per_matrix_point"] = _ns_per(
            m["quantum_geometry.matrices_s"], m["quantum_geometry.matrices_points"])
        m["quantum_geometry.eigenframe_s"] = by_name["quantum_geometry.eigenframe_along_loop"]
        m["quantum_geometry.ns_per_eigen_point"] = _ns_per(
            m["quantum_geometry.eigenframe_s"], m["quantum_geometry.eigen_points"])
        m["quantum_geometry.wilson_s"] = wilson
        m["manifold.make_loop_s"] = by_name["manifold.make_loop"]
        m["manifold.quad_s"] = (by_name["manifold.closed_line_integral"]
                                + by_name["manifold.periodic_integral"])
        return m

    @staticmethod
    def dump(path: Path, passes: list[list[list]]) -> None:
        """Write the spans of every traced pass to ``path`` as JSON lines."""
        with path.open("w") as fh:
            for pass_index, spans in enumerate(passes, 1):
                for i, s in enumerate(spans):
                    fh.write(json.dumps({
                        "pass": pass_index, "id": i, "name": s[_NAME], "layer": s[_LAYER],
                        "start": s[_START], "end": s[_END], "parent": s[_PARENT],
                        "execute": s[_EXECUTE], "error": s[_ERROR],
                    }) + "\n")


def _ns_per(seconds: float, count: int) -> float:
    return 1e9 * seconds / count if count else 0.0
