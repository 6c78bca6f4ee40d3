"""Time-dependent coefficients of the jump CIR equation

    d xi_t = [a(t) - beta(t) xi_{t-}] dt + int y mu(dt,dy)
             + sigma(t) sqrt(xi_{t-} v 0) dW_t

and the validation gate for the whole artifact.

The four coefficient functions are deterministic, nonnegative and
right-continuous on a finite horizon ``[0, t_max]``: constants,
piecewise-constant and piecewise-linear functions on user grids, and a
clipped sine as a named closed form. A kind states only its values and
its knots, which quadrature and samplers take as forced breakpoints; one
rule each gives the rest. The range on ``[lo, hi]`` is that of the values
at ``lo``, the knots inside and ``hi``, less ``hi`` for a piecewise-constant
function, whose value at a knot ``hi`` belongs to the piece after ``[lo,
hi)``; the clipped sine adds the sine's critical points. The integral is
the midpoint rule between the knots, exact on constant and linear pieces;
the clipped sine keeps its antiderivative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NonPositiveSigma, PermanentConditionViolated

__all__ = [
    "TimeFunction",
    "Constant",
    "PiecewiseConstant",
    "PiecewiseLinear",
    "ClippedSine",
    "constant",
    "piecewise_constant",
    "piecewise_linear",
    "clipped_sine",
    "CoefficientSet",
    "CheckResult",
    "ValidationReport",
    "validate",
]


def _require_finite(*groups):
    """Every parameter of a time function must be a finite number: a NaN
    compares False with everything, so it would pass every later check."""
    if not all(math.isfinite(v) for g in groups for v in np.ravel(g)):
        raise ValueError("time-function parameters must be finite")


class TimeFunction:
    """Deterministic scalar function of time; evaluation is vectorized."""

    def __call__(self, t):
        raise NotImplementedError

    def breakpoints(self, lo: float, hi: float) -> np.ndarray:
        """Kink locations strictly inside (lo, hi)."""
        return np.empty(0)

    def _edges(self, lo, hi):
        """lo, the knots inside (lo, hi), and hi."""
        return np.concatenate(([lo], self.breakpoints(lo, hi), [hi]))

    def _extremes(self, lo, hi):
        """Points whose values include the min and the max on [lo, hi]."""
        return self._edges(lo, hi)

    def min_on(self, lo: float, hi: float) -> float:
        return float(np.min(self(self._extremes(lo, hi))))

    def max_on(self, lo: float, hi: float) -> float:
        return float(np.max(self(self._extremes(lo, hi))))

    def integral(self, lo: float, hi: float) -> float:
        """Integral over [lo, hi] by the midpoint rule between the knots."""
        edges = self._edges(lo, hi)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(self(mids) * np.diff(edges)))

    def smoothness_scale(self) -> float:
        """Characteristic length below which the function is smooth;
        infinite for functions that are polynomial between breakpoints."""
        return math.inf

    @property
    def is_piecewise_constant(self) -> bool:
        return False


@dataclass(frozen=True)
class Constant(TimeFunction):
    value: float

    def __post_init__(self):
        _require_finite(self.value)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.float64(self.value), t.shape).copy() \
            if t.ndim else float(self.value)

    @property
    def is_piecewise_constant(self):
        return True


@dataclass(frozen=True)
class PiecewiseConstant(TimeFunction):
    """Right-continuous step function: ``values[k]`` on ``[breaks[k-1], breaks[k])``
    with ``breaks`` the interior jump locations (len(values) == len(breaks)+1)."""

    breaks: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need len(values) == len(breaks) + 1")
        _require_finite(self.breaks, self.values)
        b = np.asarray(self.breaks, dtype=float)
        if b.size and (np.any(np.diff(b) <= 0) or b[0] <= 0):
            raise ValueError("breaks must be strictly increasing and positive")

    @cached_property
    def _b(self):
        return np.asarray(self.breaks, dtype=float)

    @cached_property
    def _v(self):
        return np.asarray(self.values, dtype=float)

    def __call__(self, t):
        idx = np.searchsorted(self._b, t, side="right")
        out = self._v[idx]
        return out if np.ndim(t) else float(out)

    def breakpoints(self, lo, hi):
        b = self._b
        return b[(b > lo) & (b < hi)]

    def _extremes(self, lo, hi):
        # right-continuous: the value at hi belongs to the piece after [lo, hi)
        return self._edges(lo, hi)[:-1]

    @property
    def is_piecewise_constant(self):
        return True


@dataclass(frozen=True)
class PiecewiseLinear(TimeFunction):
    """Continuous broken line through ``(knots[k], values[k])``; clamped to the
    end values outside the knot range."""

    knots: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need matching knots/values with len >= 2")
        _require_finite(self.knots, self.values)
        k = np.asarray(self.knots, dtype=float)
        if np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing")

    @cached_property
    def _k(self):
        return np.asarray(self.knots, dtype=float)

    @cached_property
    def _v(self):
        return np.asarray(self.values, dtype=float)

    def __call__(self, t):
        out = np.interp(t, self._k, self._v)
        return out if np.ndim(t) else float(out)

    def breakpoints(self, lo, hi):
        k = self._k
        return k[(k > lo) & (k < hi)]


@dataclass(frozen=True)
class ClippedSine(TimeFunction):
    """``max(offset + amplitude * sin(omega * t + phase), 0)``."""

    offset: float
    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        _require_finite(self.offset, self.amplitude, self.omega, self.phase)
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    def __call__(self, t):
        raw = self.offset + self.amplitude * np.sin(
            self.omega * np.asarray(t, dtype=float) + self.phase)
        out = np.maximum(raw, 0.0)
        return out if np.ndim(t) else float(out)

    def _roots(self, bases, lo, hi):
        # sorted t in (lo, hi) with omega t + phase = base (mod 2 pi)
        out = []
        for base in bases:
            k0 = math.floor((self.omega * lo + self.phase - base) / (2 * math.pi))
            for k in range(int(k0) - 1, int(k0) + int(self.omega * (hi - lo) / (2 * math.pi)) + 3):
                t = (base + 2 * math.pi * k - self.phase) / self.omega
                if lo < t < hi:
                    out.append(t)
        return np.sort(np.asarray(out))

    def breakpoints(self, lo, hi):
        # the clip crossings: offset + amplitude sin(x) = 0 mapped back to t
        m = -self.offset / self.amplitude if self.amplitude else 1.0
        if abs(m) >= 1:
            return np.empty(0)
        x1 = math.asin(m)
        return self._roots((x1, math.pi - x1), lo, hi)

    def _extremes(self, lo, hi):
        # the edges and the interior critical points of the sine
        return np.concatenate((self._edges(lo, hi),
                               self._roots((math.pi / 2, 3 * math.pi / 2), lo, hi)))

    def integral(self, lo, hi):
        edges = self._edges(lo, hi)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if self((a + b) / 2) <= 0:
                continue
            anti = lambda t: self.offset * t - \
                self.amplitude * math.cos(self.omega * t + self.phase) / self.omega
            total += anti(b) - anti(a)
        return total

    def smoothness_scale(self):
        return 2 * math.pi / self.omega


def constant(value: float) -> Constant:
    return Constant(float(value))


def piecewise_constant(breaks: Sequence[float], values: Sequence[float]) -> PiecewiseConstant:
    return PiecewiseConstant(tuple(float(b) for b in breaks),
                             tuple(float(v) for v in values))


def piecewise_linear(knots: Sequence[float], values: Sequence[float]) -> PiecewiseLinear:
    return PiecewiseLinear(tuple(float(k) for k in knots),
                           tuple(float(v) for v in values))


def clipped_sine(offset: float, amplitude: float, omega: float,
                 phase: float = 0.0) -> ClippedSine:
    return ClippedSine(float(offset), float(amplitude), float(omega), float(phase))


@dataclass(frozen=True)
class CoefficientSet:
    """The four time functions of the equation plus the starting point and
    the computational horizon.

    ``a`` is the continuous-input rate, ``a_tilde`` the time intensity of the
    jump random measure, ``beta`` the mean reversion and ``sigma`` the
    volatility scale. Instances are immutable and safe to share across
    workers.
    """

    a: TimeFunction
    a_tilde: TimeFunction
    beta: TimeFunction
    sigma: TimeFunction
    x0: float = 0.0
    t_max: float = 1.0

    def __post_init__(self):
        if not (self.x0 >= 0):
            raise ValueError("x0 must be nonnegative")
        if not (self.t_max > 0):
            raise ValueError("t_max must be positive")
        for name in ("a", "a_tilde", "beta"):
            if getattr(self, name).min_on(0.0, self.t_max) < 0:
                raise ValueError(f"{name} must be nonnegative on [0, t_max]")
        if self.sigma.min_on(0.0, self.t_max) <= 0:
            raise NonPositiveSigma(
                "sigma must be strictly positive on [0, t_max]")

    @cached_property
    def beta_min(self) -> float:
        return self.beta.min_on(0.0, self.t_max)

    @property
    def beta_strictly_positive(self) -> bool:
        return self.beta_min > 0

    @property
    def alpha_piecewise_constant(self) -> bool:
        """Whether 2 a / sigma^2 is piecewise constant: a and sigma are."""
        return self.a.is_piecewise_constant and self.sigma.is_piecewise_constant

    def alpha(self, t):
        """Input rate in units of the squared volatility: 2 a(t) / sigma^2(t)."""
        return 2.0 * self.a(t) / np.square(self.sigma(t))

    def breakpoints(self, lo: float, hi: float,
                    which: Tuple[str, ...] = ("a", "a_tilde", "beta", "sigma")) -> np.ndarray:
        pts = [getattr(self, name).breakpoints(lo, hi) for name in which]
        return np.unique(np.concatenate(pts)) if pts else np.empty(0)

    def smoothness_scale(self) -> float:
        return min(fn.smoothness_scale()
                   for fn in (self.a, self.a_tilde, self.beta, self.sigma))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    severity: str           # "error" | "warning" | "info"
    value: Optional[float] = None
    error_estimate: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[CheckResult, ...]

    @property
    def hard_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "error")

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.severity != "info")

    @property
    def samplers_available(self) -> bool:
        return all(c.passed for c in self.checks
                   if c.name == "restrictive_condition")

    def as_dict(self):
        return {"checks": [asdict(c) for c in self.checks],
                "hard_ok": self.hard_ok,
                "samplers_available": self.samplers_available}

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            val = "" if c.value is None else f"  value={c.value:.12g}"
            err = "" if c.error_estimate is None else f" (+-{c.error_estimate:.2g})"
            lines.append(f"[{status}] {c.name:26s} severity={c.severity:7s}{val}{err}"
                         + (f"  {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def validate(coeffs: CoefficientSet, nu, raise_on_error: bool = True) -> ValidationReport:
    """Check every standing assumption and the two jump-measure conditions.

    The report lists each assumption with pass/fail; integral conditions
    carry the numerically evaluated certificate and its error estimate.
    A violated summability condition raises by default (a nonpositive
    volatility cannot reach here: ``CoefficientSet`` refuses it); a
    violated square-root condition only flags the report and disables the
    exact samplers for infinite-activity measures.
    """
    checks = []
    smin = coeffs.sigma.min_on(0.0, coeffs.t_max)
    checks.append(CheckResult(
        "sigma_strictly_positive", smin > 0, "error", value=smin,
        detail="volatility scale on [0, t_max]"))
    for name in ("a", "a_tilde", "beta"):
        m = getattr(coeffs, name).min_on(0.0, coeffs.t_max)
        checks.append(CheckResult(
            f"{name}_nonnegative", m >= 0, "error", value=m))
    checks.append(CheckResult(
        "beta_strictly_positive", coeffs.beta_strictly_positive, "info",
        value=coeffs.beta_min,
        detail="hypothesis of the transition-transform formula"))

    cert = nu.certificates
    checks.append(CheckResult(
        "permanent_condition", math.isfinite(cert.summable_value), "error",
        value=cert.summable_value, error_estimate=cert.summable_error,
        detail="integral of (y & 1) against the jump measure"))
    cond2_pass = math.isfinite(cert.sqrt_value)
    checks.append(CheckResult(
        "restrictive_condition",
        cond2_pass or not nu.infinite_activity,
        "warning" if nu.infinite_activity else "info",
        value=cert.sqrt_value, error_estimate=cert.sqrt_error,
        detail="integral of (sqrt(y) & 1); gates exact samplers for "
               "infinite-activity measures"))

    report = ValidationReport(tuple(checks))
    if raise_on_error and not math.isfinite(cert.summable_value):
        raise PermanentConditionViolated(
            "jump measure has non-summable small jumps", report)
    return report
