"""Exception types shared across the package, and the positivity and level-gap
guards that raise them with the offending loop sample."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class HolonomyError(Exception):
    """Base class for every failure mode this package raises deliberately."""


class NotClosed(HolonomyError):
    """The endpoint of a loop does not return to its start."""


class TooFewSamples(HolonomyError):
    """A loop needs at least 16 segments for the quadrature to be meaningful."""


class TooManySteps(HolonomyError):
    """A time-domain run would take more integrator steps than its bound."""


class LengthMismatch(HolonomyError):
    """Sampled coefficients do not line up with the loop samples."""


class HermiticityViolation(HolonomyError):
    """An evaluated operator family is not Hermitian within tolerance."""


class GapTooSmall(HolonomyError):
    """Adjacent levels (near-)cross along the loop; the connection is undefined."""

    def __init__(self, sample: int, level: int, gap: float, tol: float):
        self.sample = sample
        self.level = level
        self.gap = gap
        self.tol = tol
        super().__init__(
            f"gap {gap:.3e} between levels {level} and {level + 1} at sample "
            f"{sample} is below tolerance {tol:.3e}"
        )


class _AtSample(HolonomyError):
    """A failure that may name the loop sample where it occurred (``sample``)."""

    def __init__(self, message: str, sample: int | None = None):
        self.sample = sample
        super().__init__(message)


class NonFinite(_AtSample):
    """A sampled value is NaN or infinite where a finite number is required."""


class PoleProximity(HolonomyError):
    """A closed-form connection is evaluated too close to one of its poles."""


class EllipticViolation(_AtSample):
    """An effective oscillator frequency squared is non-positive."""


class ModeCollapse(_AtSample):
    """The lower normal-mode frequency squared is non-positive."""


class OmegaImaginary(_AtSample):
    """The action-shifted oscillator frequency squared is non-positive."""


class WeakCouplingViolated(HolonomyError):
    """The weak-coupling expansion behind a one-form is not trustworthy."""


class NonAdiabatic(HolonomyError):
    """Time evolution left the tracked level; slow down the drive."""


class OverlapTooSmall(_AtSample):
    """A vanishing link of a discrete Wilson loop, too small for a meaningful
    phase."""


class ResidualTooLarge(_AtSample):
    """An eigenpair misses H v = E v by more than 1e-9 times the matrix scale;
    ``sample`` is where the largest residual entry lies."""


class ConfigInvalid(HolonomyError):
    """An experiment configuration failed validation."""


def require_positive(values: np.ndarray, error: Callable[[int], HolonomyError]) -> None:
    """Raise ``error(j)`` for the first sample ``j`` (index on axis 0) with a
    value that is not positive.  A NaN is not positive, so it cannot slip
    through."""
    bad = ~(values > 0)
    if bad.any():
        raise error(int(np.argmax(bad.reshape(len(bad), -1).any(axis=1))))


def failing_rows(values: np.ndarray,
                 error: Callable[[int, int], HolonomyError]) -> dict[int, HolonomyError]:
    """``error(i, j)`` for each row i of the stack ``values`` (rows, samples)
    with a value that is not positive (NaN included), j its first such sample."""
    bad = ~(values > 0)
    if not bad.any():
        return {}
    return {i: error(i, int(np.argmax(bad[i]))) for i in np.flatnonzero(bad.any(axis=1)).tolist()}


def require_gap(energies: np.ndarray) -> float:
    """Smallest gap between adjacent levels of sorted spectra on the last axis.

    ``energies`` is one spectrum (N,) or a stack (M, ..., N) whose axis 0 is
    the loop sample.  Raises ``GapTooSmall`` at the sample and level of the
    smallest gap when it is below 1e-9 times the spectral scale, the largest
    |energy|.  A single level has no gap, and the result is then infinite.
    """
    gaps = np.diff(np.atleast_2d(energies), axis=-1)
    if gaps.size == 0:
        return math.inf
    tol = 1e-9 * max(float(np.max(np.abs(energies))), 1e-300)
    min_gap = float(np.min(gaps))
    if min_gap < tol:
        at = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
        raise GapTooSmall(sample=int(at[0]), level=int(at[-1]), gap=min_gap, tol=tol)
    return min_gap
