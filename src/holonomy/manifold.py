"""Closed parameter loops, the standard periodic parameter family, and
spectrally accurate closed-curve quadrature.

Loops are uniformly sampled closed curves with band-limited interpolants
(Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 3): one real FFT of
the samples, on first use, gives a loop's velocity and values between samples;
a loop of periodic drives takes its velocity from theirs by linearity.  The
trapezoid rule against that velocity integrates exactly on band-limited loops,
spectrally on smooth ones (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).
"""

from __future__ import annotations

import math
import numbers
import weakref
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import EllipticViolation, LengthMismatch, NonFinite, NotClosed, TooFewSamples, require_positive

DEFAULT_SAMPLES = 4096

_MIN_SEGMENTS = 16
_CLOSURE_RTOL = 1e-12


@dataclass(frozen=True, eq=False, repr=False)
class Differential:
    """dg along a loop (``LoopSpec.pullback``), equal only to itself: dg/dt at M samples
    (``full``) and at the stride-2 M/2 (``half``, None for an odd M), and the loop, weakly."""

    full: np.ndarray
    half: np.ndarray | None
    loop: weakref.ref


# A sampled covector, a sum of terms f dg: dg is a Differential of the loop or a
# column index j of its points, d(x_j) with rate velocity[:, j]; f has M + 1 samples.
Covector = Mapping[int | Differential, np.ndarray]


@dataclass(frozen=True)
class LoopSpec:
    """A closed curve in parameter space, sampled uniformly over one period,
    and its band-limited interpolant.

    ``points``, shape (M + 1, d), holds the M + 1 samples at ``times``, which
    are derived: ``np.linspace(0, period, M + 1)``.  The last point must
    coincide with the first (relative tolerance 1e-12).  ``cycles`` records
    how many base cycles the curve contains; phase computations use it for
    branch bookkeeping on multi-cycle loops.  Points are not checked here: a
    non-finite interior point reaches the consumer, whose guard names the
    sample.  ``points`` is a read-only copy, so the spectrum taken on first
    use, and the velocities cached from it or its drives, never go stale.
    """

    period: float
    points: np.ndarray
    cycles: int = 1

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
        _require_grid(self.period, points.shape[0] - 1)
        x0, x1 = points[0], points[-1]
        scale = max(1.0, float(np.max(np.abs(x0))), float(np.max(np.abs(x1))))
        if not np.all(np.abs(x1 - x0) <= _CLOSURE_RTOL * scale):
            raise NotClosed("loop endpoint does not return to its start")
        if not (isinstance(self.cycles, int) and self.cycles >= 1):
            raise ValueError(f"cycles must be a positive integer, got {self.cycles}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @cached_property
    def times(self) -> np.ndarray:
        """The read-only times of the samples, ``np.linspace(0, period, M + 1)``."""
        times = np.linspace(0.0, self.period, self.n_segments + 1)
        times.flags.writeable = False
        return times

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    @property
    def spacing(self) -> float:
        return self.period / self.n_segments

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Real FFT of the first M samples (the endpoint repeats the start)."""
        return np.fft.rfft(self.points[:-1], axis=0)

    @cached_property
    def velocity(self) -> np.ndarray:
        """d(points)/dt at the first M samples, shape (M, dim)."""
        return _derivative(self._spectrum, self.n_segments, self.period)

    @cached_property
    def half_velocity(self) -> np.ndarray:
        """The velocity of the stride-2 subsample ``points[::2]``, shape
        (M/2, dim), for the quadrature's error estimate; M must be even."""
        m = self.n_segments
        if m % 2:
            raise ValueError(f"a stride-2 subsample needs an even segment count, got {m}")
        return _derivative(np.fft.rfft(self.points[:-1:2], axis=0), m // 2, self.period)

    def upsampled(self, factor: int) -> np.ndarray:
        """The interpolant at M * factor points, shape (M, factor, dim), the
        loop sample on axis 0: entry ``[j, s]`` is at sample ``j + s / factor``.
        Each offset ``s`` is one length-M inverse real FFT of the spectrum
        times shift phases, an even M's Nyquist mode split symmetrically
        between +M/2 and -M/2; the result is a transposed view of those
        (factor, dim, M) planes.  A factor that is not a positive integer is
        a ``ValueError``."""
        if not (isinstance(factor, numbers.Integral) and factor >= 1):
            raise ValueError(f"factor must be a positive integer, got {factor!r}")
        m = self.n_segments
        k = np.arange(m // 2 + 1)
        s = np.arange(factor)
        shift = np.exp((2j * math.pi / (m * factor)) * np.outer(s, k))
        if m % 2 == 0:
            shift[:, -1] = np.cos(math.pi * s / factor)
        coef = np.ascontiguousarray(self._spectrum.T) * shift[:, None, :]
        return np.fft.irfft(coef, n=m, axis=-1).transpose(2, 0, 1)

    def pullback(self, rate: Callable[..., np.ndarray], *args) -> Differential:
        """dg of a function g of the points, whose chain rule ``rate(x, v,
        *args)`` gives dg/dt at rows ``x`` of points moving with velocity ``v``."""
        half = None if self.n_segments % 2 else rate(self.points[:-1:2], self.half_velocity, *args)
        return Differential(rate(self.points[:-1], self.velocity, *args), half, weakref.ref(self))

    def derived(self, build: Callable[..., object], *args):
        """``build(self, *args)``, built on first use and kept as long as the
        loop (geometry a sweep's rows share); a build that raises keeps nothing."""
        memo = self.__dict__.setdefault("_derived", {})
        if (build, *args) not in memo:
            memo[(build, *args)] = build(self, *args)
        return memo[(build, *args)]

    def reversed(self) -> "LoopSpec":
        """The same curve traversed in the opposite orientation."""
        return LoopSpec(self.period, self.points[::-1], self.cycles)


def _derivative(spectrum: np.ndarray, m: int, period: float) -> np.ndarray:
    """Read-only d/dt at M samples of the interpolant with real FFT ``spectrum``."""
    freqs = 2.0 * math.pi * np.fft.rfftfreq(m, d=period / m)
    coef = spectrum * (1j * freqs)[:, None]
    if m % 2 == 0:
        coef[m // 2] = 0.0  # unpaired Nyquist mode carries no derivative
    vel = np.fft.irfft(coef, n=m, axis=0)
    vel.flags.writeable = False
    return vel


# A quadrature whose estimate is at most 8 ulp of its integrand's scale is
# resolved: halving its samples moved it by rounding alone.
RESOLVED_SHARE = 8 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value, an error estimate from resolution halving, and the
    integrand's L1 scale h * sum |f dg/dt| over the M samples, the size its
    rounding is measured against."""

    value: float
    error_estimate: float
    scale: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.value, self.error_estimate, self.scale))):
            raise NonFinite(f"quadrature value {self.value}, error {self.error_estimate} "
                            f"or scale {self.scale} is not finite")
        if not (self.error_estimate >= 0.0 and self.scale >= 0.0):
            raise ValueError("error estimate and scale must be nonnegative")

    @property
    def resolved(self) -> bool:
        """Whether the error estimate is within ``RESOLVED_SHARE`` of the scale."""
        return self.error_estimate <= RESOLVED_SHARE * self.scale


def _require_grid(period: float, n_samples: int) -> None:
    """The checks a uniform grid on ``[0, period]`` needs before any arithmetic
    on its inputs: an integer ``n_samples`` of at least 16 and a finite
    ``period > 0`` (NaN and +inf fail)."""
    if not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if not n_samples >= _MIN_SEGMENTS:
        raise TooFewSamples(f"need at least {_MIN_SEGMENTS} segments, got {n_samples}")
    if not 0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")


# A sweep from k = 0 reads at most twelve grids: a coupled row's two over the
# common period and a k = 0 row's two over the slow subsystem's own period, each
# at the two sample counts its rows mostly run at and at the cap its checks read.
@lru_cache(maxsize=12, typed=True)
def _drive_grid(omega: float, period: float, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos(omega t), sin(omega t)) on ``np.linspace(0, period,
    n_samples + 1)``, the one sampling of every periodic drive, cached
    because a sweep repeats it every row.

    An infinite ``omega`` or ``period``, or a non-finite ``omega * period``,
    raises ``NonFinite``, so every grid is finite and a cached grid equals a
    fresh one under any errstate.  The infinity check runs before
    ``_require_grid``: a frequency that overflowed to inf has the period
    2 pi / inf = 0, which is then ``NonFinite``, not a bad period.  Keys are
    typed, so a float ``n_samples`` never hits an int entry past the guard.
    """
    if math.isinf(omega) or math.isinf(period):
        raise NonFinite(f"drive frequency {omega} or period {period} is infinite")
    _require_grid(period, n_samples)
    if not math.isfinite(omega * period):
        raise NonFinite(f"drive phase omega * period = {omega * period} is not finite")
    wt = omega * np.linspace(0.0, period, n_samples + 1)
    grid = (np.cos(wt), np.sin(wt))
    for a in grid:
        a.flags.writeable = False
    return grid


# The keys and guards of ``_drive_grid``.  Only loops read rates, never the
# checks, so a coupled sweep reads its two drives' at the two sample counts its
# rows mostly run at and at the cap, where a row that stays unresolved ends.
@lru_cache(maxsize=6, typed=True)
def _drive_rates(omega: float, period: float, n_samples: int) -> tuple[np.ndarray, ...]:
    """The read-only interpolant d/dt of ``_drive_grid``'s (cos, sin), shape
    (M, 2), at the M samples and, for an even M only, at the stride-2 ones."""
    pts = np.column_stack(_drive_grid(omega, period, n_samples))
    pts[-1] = pts[0]
    grid = LoopSpec(period, pts)
    return (grid.velocity,) if n_samples % 2 else (grid.velocity, grid.half_velocity)


def circle_loop(
    period: float = 1.0,
    n_samples: int = DEFAULT_SAMPLES,
    cycles: int = 1,
) -> LoopSpec:
    """A unit circle in the plane, embedded as (cos, sin); used for angle-like axes."""
    _require_grid(period, n_samples)
    pts = np.column_stack(_drive_grid(2.0 * math.pi * cycles / period, period, n_samples))
    pts[-1] = pts[0]
    return LoopSpec(period, pts, cycles)


def _trapezoid(values: np.ndarray, end: float, period: float) -> float:
    """Trapezoid sum over ``period`` of M uniform samples ``values`` and the closing ``end``."""
    return float(period / len(values) * (0.5 * values[0] + values[1:].sum() + 0.5 * end))


def _pulled_back(terms: list[tuple], m: int, stride: int) -> tuple[np.ndarray, float]:
    """``_trapezoid``'s (values, end) of the sum, term by term, of f dg/dt over the terms
    (f, (dg/dt, stride-2 dg/dt)); the last f meets the rate's first sample."""
    if not terms:
        return np.zeros(m // stride), 0.0
    (c, rates), *rest = terms
    g, end = c[:-1:stride] * rates[stride - 1], c[-1] * rates[stride - 1][0]
    for c, rates in rest:
        g += c[:-1:stride] * rates[stride - 1]
        end += c[-1] * rates[stride - 1][0]
    return g, end


def _require_halvable(m: int) -> None:
    """Every quadrature's error estimate is the difference from its stride-2
    subsample, which needs an even segment count of at least 32."""
    if m % 2 or m < 2 * _MIN_SEGMENTS:
        raise TooFewSamples(
            f"the stride-2 error estimate needs an even segment count of at least "
            f"{2 * _MIN_SEGMENTS}, got {m}"
        )


def closed_line_integral(coefficients: Covector, loop: LoopSpec) -> QuadratureResult:
    """Evaluate the circulation of a sampled covector field around the loop.

    ``coefficients`` maps each term's differential dg to its coefficient f at
    the M + 1 samples: a column index ``col`` stands for d(points[:, col]),
    with rate ``loop.velocity[:, col]``, or a ``loop.pullback`` Differential.
    The result is the trapezoid sum of f dg/dt summed over the terms, with the
    difference from the stride-2 subsample as its error estimate and h times
    the sum of |f dg/dt| as its scale.  A column
    outside ``[0, loop.dim)``, a differential of another loop or a
    coefficient of a shape other than (M + 1,) is ``LengthMismatch``.
    """
    m = loop.n_segments
    for key, c in coefficients.items():
        if isinstance(key, Differential):
            if not (key.loop() is loop and np.shape(c) == (m + 1,)):
                raise LengthMismatch(f"covector term of shape {np.shape(c)} is not pulled back "
                                     f"onto this loop of {m + 1} samples")
        elif not (isinstance(key, numbers.Integral) and 0 <= key < loop.dim
                  and np.shape(c) == (m + 1,)):
            raise LengthMismatch(f"covector column {key!r} of shape {np.shape(c)} is not one "
                                 f"of the loop's {loop.dim} columns of {m + 1} samples")
    _require_halvable(m)
    terms = [(c, (key.full, key.half) if isinstance(key, Differential)
              else (loop.velocity[:, key], loop.half_velocity[:, key]))
             for key, c in coefficients.items()]
    g, end = _pulled_back(terms, m, 1)
    value = _trapezoid(g, end, loop.period)
    half = _trapezoid(*_pulled_back(terms, m, 2), loop.period)
    return QuadratureResult(value, abs(value - half), _scale(g, loop.period))


def _scale(values: np.ndarray, period: float) -> float:
    """h * sum |values| of M uniform samples over ``period``."""
    return float(period / len(values) * np.abs(values).sum())


def periodic_integral(values: np.ndarray, period: float) -> QuadratureResult:
    """Trapezoid integral of a periodic function sampled on a closed uniform grid.

    ``values`` includes both endpoints (t = 0 and t = period).  The error
    estimate is the difference against the stride-2 subsample, and the scale
    h times the sum of |values| over the M samples.
    """
    v = np.asarray(values, dtype=float)
    _require_halvable(v.shape[0] - 1)
    value = _trapezoid(v[:-1], v[-1], period)
    half = _trapezoid(v[:-1:2], v[-1], period)
    return QuadratureResult(value, abs(value - half), _scale(v[:-1], period))


@dataclass(frozen=True)
class StandardLoopParams:
    """The periodic parameter family driving both generalized oscillators.

    Subsystem i follows X_i = a_i*mu_i*(1 + eps*cos(w_i t)),
    Y_i = -a_i*eps*sin(w_i t), Z_i = (a_i/mu_i)*(1 - eps*cos(w_i t)) with
    w_i = n_i * base_rate.  Keeping the frequencies an explicit reduced
    integer pair times one base rate makes the common period structural.
    The classical action ``j_action`` is in units of hbar, J/hbar, as every
    action in the package is.
    """

    a1: float
    a2: float
    mu1: float
    mu2: float
    n1: int
    n2: int
    base_rate: float
    epsilon: float
    k: float = 0.0
    j_action: float = 1.0
    n_level: int = 0

    def __post_init__(self):
        for name in ("a1", "a2", "mu1", "mu2", "base_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (isinstance(self.n1, int) and isinstance(self.n2, int)):
            raise ValueError("frequency multipliers must be integers")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("frequency multipliers must be positive")
        if math.gcd(self.n1, self.n2) != 1:
            raise ValueError(f"(n1, n2)=({self.n1}, {self.n2}) must be a reduced pair")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.k < 0:
            raise ValueError("coupling k must be nonnegative")
        if self.j_action < 0:
            raise ValueError("j_action must be nonnegative")
        if self.n_level < 0:
            raise ValueError("n_level must be nonnegative")

    @property
    def omega1(self) -> float:
        return self.n1 * self.base_rate

    @property
    def omega2(self) -> float:
        return self.n2 * self.base_rate

    @property
    def common_period(self) -> float:
        return 2.0 * math.pi / self.base_rate

    @property
    def d_ratio(self) -> float:
        """Dimensionless coupling strength built from k and the drive scales."""
        return self.k / math.sqrt(
            2.0 * self.mu1 * self.mu2 * self.a1 * self.a2 * (1.0 - self.epsilon**2)
        )

    @property
    def elliptic_margin(self) -> float:
        """Worst-case margin of the effective-frequency positivity condition."""
        return 1.0 - self.epsilon**2 - 2.0 * self.d_ratio**2 * (1.0 + self.epsilon) ** 2

    def require_elliptic(self) -> None:
        if not self.elliptic_margin > 0.0:
            raise EllipticViolation(
                f"elliptic condition violated: margin {self.elliptic_margin:.3e} "
                f"at coupling k={self.k}"
            )


def _gho_points(triples: list[tuple[float, float, float]], eps: float, period: float,
               n_samples: int) -> np.ndarray:
    """The GHO triples X = a mu (1 + eps cos wt), Y = -a eps sin wt, Z = (a/mu) (1 - eps cos
    wt), one per (a, mu, w) of ``triples``, side by side, sampled uniformly over [0, period],
    the last point snapped onto the first: elementwise work on the cached drive grids."""
    columns = []
    for a, mu, omega in triples:
        c, s = (eps * g for g in _drive_grid(omega, period, n_samples))
        columns += [a * mu * (1.0 + c), -a * s, (a / mu) * (1.0 - c)]
    pts = np.column_stack(columns)
    pts[-1] = pts[0]
    return pts


def _gho_loop(triples: list[tuple[float, float, float]], eps: float, period: float,
              n_samples: int, cycles: int) -> LoopSpec:
    """The loop of ``_gho_points``; its velocities are ``_drive_rates`` scaled."""
    loop = LoopSpec(period, _gho_points(triples, eps, period, n_samples), cycles=cycles)
    scales = [v for a, mu, _ in triples for v in (a * mu * eps, -a * eps, -(a / mu) * eps)]
    rates = [_drive_rates(omega, period, n_samples) for *_, omega in triples]
    with np.errstate(over="raise"), suppress(FloatingPointError):  # on overflow, left to the FFT
        for name, drives in zip(("velocity", "half_velocity"), zip(*rates)):  # odd M: no half
            loop.__dict__[name] = vel = np.hstack([r[:, [0, 1, 0]] for r in drives]) * scales
            vel.flags.writeable = False
    return loop


def _frequency_sq(triples: np.ndarray, what: str) -> np.ndarray:
    """X Z - Y^2 of the (X, Y, Z) triples on the last axis; raises
    ``EllipticViolation`` at the first index j on axis 0 where a value is not
    positive (NaN included), naming ``what`` and the smallest value there."""
    w_sq = triples[..., 0] * triples[..., 2] - triples[..., 1] ** 2
    require_positive(w_sq, lambda j: EllipticViolation(
        f"{what} {np.min(w_sq[j]):.3e} at sample {j}", sample=j))
    return w_sq


def _joined(loop1: LoopSpec, loop2: LoopSpec) -> LoopSpec:
    """One single-cycle loop whose points are both loops' points side by side;
    the loops must share their sampling and period."""
    if loop1.n_segments != loop2.n_segments:
        raise ValueError("the two loops must share their sampling")
    if abs(loop1.period - loop2.period) > 1e-12 * loop1.period:
        raise ValueError("the two loops must share their period")
    return LoopSpec(loop1.period, np.hstack([loop1.points, loop2.points]), cycles=1)


def standard_parameter_loops(
    p: StandardLoopParams, n_samples: int = DEFAULT_SAMPLES
) -> tuple[LoopSpec, LoopSpec]:
    """Both parameter loops over the common period.

    Loop i contains n_i base cycles, so the pair is synchronized for
    coupled-phase quadrature.
    """
    return (
        _gho_loop([(p.a1, p.mu1, p.omega1)], p.epsilon, p.common_period, n_samples, p.n1),
        _gho_loop([(p.a2, p.mu2, p.omega2)], p.epsilon, p.common_period, n_samples, p.n2),
    )


def subsystem_parameter_loop(
    p: StandardLoopParams, subsystem: int, n_samples: int = DEFAULT_SAMPLES
) -> LoopSpec:
    """One cycle of a single subsystem's parameter triple over its own period."""
    if subsystem == 1:
        a, mu, omega = p.a1, p.mu1, p.omega1
    elif subsystem == 2:
        a, mu, omega = p.a2, p.mu2, p.omega2
    else:
        raise ValueError("subsystem must be 1 or 2")
    return _gho_loop([(a, mu, omega)], p.epsilon, 2.0 * math.pi / omega, n_samples, 1)


def combined_parameter_loop(
    p: StandardLoopParams, n_samples: int = DEFAULT_SAMPLES
) -> LoopSpec:
    """Both triples side by side in one 6-dimensional common-period loop."""
    return _gho_loop([(p.a1, p.mu1, p.omega1), (p.a2, p.mu2, p.omega2)], p.epsilon,
                     p.common_period, n_samples, 1)
