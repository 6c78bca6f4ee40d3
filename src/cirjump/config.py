"""Run configuration files.

A run configuration is a YAML document with the model (the four time
functions, the jump measure, the starting point and the horizon), default
run parameters and scheme controls. Command-line flags override the
scalar run parameters.

Schema (all sections except ``model`` are optional)::

    schema_version: 1
    model:
      x0: 0.5
      t_max: 2.0
      a:       {kind: piecewise_constant, breaks: [0.6], values: [0.3, 0.8]}
      a_tilde: {kind: constant, value: 0.4}
      beta:    {kind: constant, value: 1.0}
      sigma:   {kind: constant, value: 1.0}
      nu:                      # omit only where a_tilde is 0
        kind: atoms            # atoms | exponential | gamma | tempered_power
        points: [[0.7, 1.2], [1.8, 0.4]]
    run:
      s: 0.0
      t: 1.0
      y: 0.5
      n_samples: 100000
      seed: 20090309
      workers: 1
      lambda_grid: [0.05, 0.1, 0.5, 1, 2, 5, 10, 20]
    controls:
      n_cells: 64              # I-cells of a non-piecewise-constant alpha
      delta: auto              # truncation level: auto | number
      step: 0.125              # Euler step
    tolerances:
      kernel_tol: 1.0e-9
      nu_tol: 1.0e-8

Time-function kinds::

    {kind: constant, value: v}
    {kind: piecewise_constant, breaks: [...], values: [...]}   # len+1 values
    {kind: piecewise_linear, knots: [...], values: [...]}
    {kind: clipped_sine, offset: c1, amplitude: c2, omega: w, phase: p}

Jump-measure kinds::

    {kind: atoms, points: [[size, weight], ...]}
    {kind: exponential, coef: 1.0, rate: 1.0}        # coef * exp(-rate y)
    {kind: gamma, coef: 1.0, shape: 2.0, rate: 1.0}  # coef y^(shape-1) e^(-rate y)
    {kind: tempered_power, coef: 1.0, rho: 0.4, decay: 1.0}
                                    # coef * y^-(1+rho) * exp(-decay y)

``coef``, ``rate``, ``shape`` and ``decay`` must be finite and positive,
``rho`` finite; ``rho >= 1`` is not summable and fails when the kernels are
built. The three named densities carry the closed form of their jump kernel
``int (1 - exp(-c y)) nu(dy)``, which the transforms use; atoms and truncated
measures use the node set of ``jumps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import yaml

from .coefficients import (CoefficientSet, TimeFunction, clipped_sine,
                           constant, piecewise_constant, piecewise_linear)
from .errors import ConfigError
from .jumps import DensityJumpMeasure, JumpMeasure, atoms
from .kernels import DEFAULT_NU_TOL, DEFAULT_TOL
from .samplers import DEFAULT_CELLS
from .verify import DEFAULT_LAMBDA_GRID

__all__ = ["RunConfig", "check_run", "load_config", "parse_config"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    coeffs: CoefficientSet
    nu: Optional[JumpMeasure]
    s: float
    t: float
    y: float
    n_samples: int
    seed: int
    workers: int
    lambda_grid: Tuple[float, ...]
    n_cells: int
    delta: Optional[float]      # None means the automatic schedule
    step: float
    kernel_tol: float
    nu_tol: float


def _need(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing field '{where}.{key}'")
    return mapping[key]


def _floats(seq, where):
    try:
        return [float(x) for x in seq]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{where}' must be a list of numbers") from exc


def _time_function(spec, where) -> TimeFunction:
    kind = _need(spec, "kind", where)
    try:
        if kind == "constant":
            return constant(float(_need(spec, "value", where)))
        if kind == "piecewise_constant":
            return piecewise_constant(_floats(_need(spec, "breaks", where), where + ".breaks"),
                                      _floats(_need(spec, "values", where), where + ".values"))
        if kind == "piecewise_linear":
            return piecewise_linear(_floats(_need(spec, "knots", where), where + ".knots"),
                                    _floats(_need(spec, "values", where), where + ".values"))
        if kind == "clipped_sine":
            return clipped_sine(float(_need(spec, "offset", where)),
                                float(_need(spec, "amplitude", where)),
                                float(_need(spec, "omega", where)),
                                float(spec.get("phase", 0.0)))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad time function at '{where}': {exc}") from exc
    raise ConfigError(f"unknown time-function kind '{kind}' at '{where}'")


def _parameter(spec, key, where, default=None, positive=True):
    """A named-density parameter: finite, and positive unless ``positive``
    is False; ``default`` None makes it required."""
    raw = _need(spec, key, where) if default is None else spec.get(key, default)
    try:
        x = float(raw)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0.0):
        need = "finite and positive" if positive else "finite"
        raise ConfigError(f"'{where}.{key}' must be {need}, got {raw!r}")
    return x


def _gamma_power(x, base):
    """Gamma(x) base^-x for x > -1, x != 0, through logarithms so that
    neither factor overflows alone; OverflowError when the product does."""
    return math.copysign(math.exp(math.lgamma(x) - x * math.log(base)), x)


class _ExpDensity:
    def __init__(self, coef, rate):
        self.coef, self.rate = coef, rate

    def __call__(self, y):
        return self.coef * np.exp(-self.rate * np.asarray(y, dtype=float))

    def one_minus_exp(self, c):
        # coef c / (rate (rate + c)), also at c = inf
        return self.coef / self.rate * -np.expm1(-np.log1p(c / self.rate))


class _GammaDensity:
    def __init__(self, coef, shape, rate):
        self.coef, self.shape, self.rate = coef, shape, rate
        self.mass = coef * _gamma_power(shape, rate)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.coef * y ** (self.shape - 1.0) * np.exp(-self.rate * y)

    def one_minus_exp(self, c):
        # coef Gamma(k) (r^-k - (r + c)^-k)
        return self.mass * -np.expm1(-self.shape * np.log1p(c / self.rate))


class _TemperedPower:
    def __init__(self, coef, rho, decay):
        self.coef, self.rho, self.decay = coef, rho, decay
        # coef Gamma(-rho) decay^rho; rho >= 1 is not summable and never used
        self.scale = coef * _gamma_power(-rho, decay) \
            if rho != 0.0 and rho < 1.0 else coef

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.coef * y ** (-(1.0 + self.rho)) * np.exp(-self.decay * y)

    def one_minus_exp(self, c):
        # coef Gamma(-rho) (decay^rho - (decay + c)^rho); its limit at rho = 0
        x = np.log1p(c / self.decay)
        if self.rho == 0.0:
            return self.coef * x
        return self.scale * -np.expm1(self.rho * x)


def _jump_measure(spec, where) -> JumpMeasure:
    kind = _need(spec, "kind", where)
    if kind == "atoms":
        pts = _need(spec, "points", where)
        try:
            return atoms([(float(y), float(w)) for y, w in pts])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad atoms at '{where}.points': {exc}") from exc
    if kind not in ("exponential", "gamma", "tempered_power"):
        raise ConfigError(f"unknown jump-measure kind '{kind}' at '{where}'")
    coef = _parameter(spec, "coef", where, 1.0)
    try:
        if kind == "exponential":
            rate = _parameter(spec, "rate", where, 1.0)
            return DensityJumpMeasure(_ExpDensity(coef, rate), rho=None,
                                      label=f"exponential(coef={coef},rate={rate})")
        if kind == "gamma":
            shape = _parameter(spec, "shape", where)
            rate = _parameter(spec, "rate", where, 1.0)
            rho = -shape if shape < 1.0 else None
            return DensityJumpMeasure(_GammaDensity(coef, shape, rate), rho=rho,
                                      label=f"gamma(shape={shape},rate={rate})")
        rho = _parameter(spec, "rho", where, positive=False)
        decay = _parameter(spec, "decay", where, 1.0)
        return DensityJumpMeasure(_TemperedPower(coef, rho, decay), rho=rho,
                                  label=f"tempered_power(rho={rho})")
    except OverflowError:
        raise ConfigError(f"'{where}' has a mass factor beyond the float "
                          f"range") from None


def parse_config(doc) -> RunConfig:
    """Build a run configuration from a parsed YAML document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    model = _need(doc, "model", "<root>")
    try:
        coeffs = CoefficientSet(
            a=_time_function(_need(model, "a", "model"), "model.a"),
            a_tilde=_time_function(_need(model, "a_tilde", "model"), "model.a_tilde"),
            beta=_time_function(_need(model, "beta", "model"), "model.beta"),
            sigma=_time_function(_need(model, "sigma", "model"), "model.sigma"),
            x0=float(model.get("x0", 0.0)),
            t_max=float(_need(model, "t_max", "model")),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    nu = _jump_measure(model["nu"], "model.nu") if model.get("nu") else None
    if nu is None and coeffs.a_tilde.max_on(0.0, coeffs.t_max) > 0.0:
        raise ConfigError("missing field 'model.nu' for a_tilde > 0")

    run = doc.get("run", {}) or {}
    controls = doc.get("controls", {}) or {}
    tols = doc.get("tolerances", {}) or {}

    # YAML 1.1 reads an exponent without a decimal point (1e-6) as a string
    delta_raw = controls.get("delta", "auto")
    try:
        delta = None if delta_raw == "auto" else float(delta_raw)
    except (TypeError, ValueError):
        raise ConfigError("controls.delta must be a number or 'auto'") from None

    t_default = min(1.0, coeffs.t_max)
    try:
        cfg = RunConfig(
            coeffs=coeffs,
            nu=nu,
            s=float(run.get("s", 0.0)),
            t=float(run.get("t", t_default)),
            y=float(run.get("y", coeffs.x0)),
            n_samples=int(run.get("n_samples", 100_000)),
            seed=int(run.get("seed", 0)),
            workers=int(run.get("workers", 1)),
            lambda_grid=tuple(_floats(run.get("lambda_grid", DEFAULT_LAMBDA_GRID),
                                      "run.lambda_grid")),
            n_cells=int(controls.get("n_cells", DEFAULT_CELLS)),
            delta=delta,
            step=float(controls.get("step", 0.125)),
            kernel_tol=float(tols.get("kernel_tol", DEFAULT_TOL)),
            nu_tol=float(tols.get("nu_tol", DEFAULT_NU_TOL)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid run parameters: {exc}") from exc
    return check_run(cfg)


def check_run(cfg: RunConfig) -> RunConfig:
    """Range checks on the run parameters and controls; raises
    :class:`ConfigError` naming the first offending field."""
    if not (0.0 <= cfg.s < cfg.t <= cfg.coeffs.t_max):
        raise ConfigError("run times must satisfy 0 <= s < t <= model.t_max")
    if not (0.0 <= cfg.y < math.inf):
        raise ConfigError("run.y must be finite and nonnegative")
    checks = (
        ("run.n_samples", cfg.n_samples >= 1, "at least 1"),
        ("run.seed", cfg.seed >= 0, "nonnegative"),
        ("run.workers", cfg.workers >= 1, "at least 1"),
        ("run.lambda_grid",
         all(0.0 <= lam < math.inf for lam in cfg.lambda_grid),
         "finite and nonnegative"),
        ("controls.n_cells", cfg.n_cells >= 1, "at least 1"),
        ("controls.delta", cfg.delta is None or 0.0 <= cfg.delta < math.inf,
         "'auto' or a finite nonnegative number"),
        ("controls.step", 0.0 < cfg.step < math.inf, "finite and positive"),
        ("tolerances.kernel_tol", cfg.kernel_tol > 0.0, "positive"),
        ("tolerances.nu_tol", cfg.nu_tol > 0.0, "positive"),
    )
    for field, ok, need in checks:
        if not ok:
            raise ConfigError(f"{field} must be {need}")
    return cfg


def load_config(path) -> RunConfig:
    """Parse a YAML run configuration; raises :class:`ConfigError` with the
    failing field (or YAML position) in the message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    return parse_config(doc)
