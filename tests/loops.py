"""A per-point loop sampler: the scalar reference for the package's vectorised
loop builders, and the way tests build a loop from a formula."""

import math

import numpy as np

from holonomy import LoopSpec
from holonomy.manifold import _require_grid


def make_loop(f, period, n_samples, cycles=1):
    """``f`` evaluated at each time of ``np.linspace(0, period, n_samples + 1)``,
    as ``LoopSpec(period, points, cycles)``.

    The grid is checked before ``f`` is called: ``_require_grid``'s checks,
    and ``ValueError`` for an infinite period.
    """
    _require_grid(period, n_samples)
    if not math.isfinite(period):
        raise ValueError(f"period must be positive and finite, got {period}")
    times = np.linspace(0.0, period, n_samples + 1)
    points = np.array([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in times])
    return LoopSpec(period, points, cycles)
