"""Named verification suites run by the command line.

Each suite checks one slice of the artifact against its analytic oracle on
the model given by a run configuration, and reports one entry per check.
All randomness is derived from the configured seed through fixed substream
offsets, so reports are byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .jumps import truncation_schedule
from .kernels import get_kernels
from .numerics import RngStream, integrate
from .paths import euler_terminal_batch
from .verify import (Z_HARD, _engines, chapman_kolmogorov, compare_component,
                     mc_statistics, moment_check_from_sums,
                     psi_semigroup_check, zero_fraction_z)

__all__ = ["SUITES", "SuiteReport", "run_suite"]

SEMIGROUP_TOL = 1e-7
DERIVATIVE_TOL = 1e-5


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def lines(self) -> List[str]:
        out = []
        for e in self.entries:
            status = "pass" if e["passed"] else "FAIL"
            detail = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in e.items()
                               if k not in ("check", "passed"))
            out.append(f"[{status}] {e['check']}: {detail}")
        out.append(f"suite {self.suite}: {'pass' if self.passed else 'FAIL'}")
        return out


def _entry(check, passed, **values):
    d = {"check": check, "passed": bool(passed)}
    d.update(values)
    return d


def _suite_kernels(cfg: RunConfig) -> SuiteReport:
    eng = get_kernels(cfg.coeffs, cfg.nu, tol=cfg.kernel_tol, nu_tol=cfg.nu_tol)
    grid = np.asarray(cfg.lambda_grid, dtype=float)
    entries = []

    rng = RngStream(cfg.seed, 900).generator()
    pts = np.sort(rng.uniform(0.0, cfg.coeffs.t_max, (100, 3)), axis=1)
    pts = pts[(np.diff(pts, axis=1) > 1e-3).all(axis=1)]
    defect = psi_semigroup_check(cfg.coeffs, pts, grid)
    entries.append(_entry("psi_functional_iteration", defect <= SEMIGROUP_TOL,
                          max_defect=defect, tolerance=SEMIGROUP_TOL))

    # B and C against oracles that do not read the primitive table
    s, t = cfg.s, cfg.t
    co = cfg.coeffs
    kv = eng.kernel_value(s, t)
    b_ref = math.exp(-co.beta.integral(s, t))
    entries.append(_entry("B_equals_exp_minus_beta_integral",
                          abs(kv.B - b_ref) <= cfg.kernel_tol * b_ref,
                          B=kv.B, expected=b_ref))
    c_ref = integrate(
        lambda v: 0.5 * co.sigma(v) ** 2
        * np.exp([co.beta.integral(0.0, x) for x in np.ravel(v)]),
        s, t, tol=cfg.kernel_tol,
        breakpoints=co.breakpoints(s, t, which=("beta", "sigma")))
    entries.append(_entry("C_equals_integral",
                          abs(kv.C - c_ref.value) <= cfg.kernel_tol * c_ref.value,
                          C=kv.C, expected=c_ref.value))

    # one-sided differences from psi(0) = 0; first is O(h^2), second O(h)
    h = 1e-5
    d1 = (4 * eng.psi(s, t, h) - eng.psi(s, t, 2 * h)) / (2 * h)
    d2 = (eng.psi(s, t, 2 * h) - 2 * eng.psi(s, t, h)) / h ** 2
    entries.append(_entry("psi_derivatives_at_zero",
                          abs(d1 - kv.B) <= DERIVATIVE_TOL * max(kv.B, 1.0)
                          and abs(d2 + 2 * kv.B / kv.p)
                          <= 1e-3 * max(2 * kv.B / kv.p, 1.0),
                          first=d1, expected_first=kv.B,
                          second=d2, expected_second=-2 * kv.B / kv.p))

    vals = eng.laplace_K(s, t, cfg.y, grid)[0]
    at0 = eng.laplace_K(s, t, cfg.y, 0.0)[0]
    logv = np.log(vals)
    convex = np.all(np.diff(np.diff(logv) / np.diff(grid))
                    / np.diff(grid[1:]) >= -1e-9)
    entries.append(_entry("transform_shape",
                          at0 == 1.0 and np.all(vals > 0)
                          and np.all(np.diff(vals) <= 1e-15) and convex,
                          value_at_zero=at0))

    if cfg.nu is not None:
        t2 = 0.5 * (s + t)
        inner = eng.psi(t2, t, grid)
        lhs = cfg.nu.one_minus_exp_integral(eng.psi(s, t2, inner))
        rhs = cfg.nu.one_minus_exp_integral(eng.psi(s, t, grid))
        d = float(np.max(np.abs(lhs - rhs)))
        entries.append(_entry("psi_tilde_composition", d <= 10 * cfg.nu_tol,
                              max_defect=d))
    return SuiteReport("kernels", tuple(entries))


def _compare(cfg: RunConfig, component: str):
    return compare_component(cfg.coeffs, cfg.nu, cfg.s, cfg.t, cfg.y,
                             component, cfg.n_samples, cfg.lambda_grid,
                             cfg.seed, n_cells=cfg.n_cells, delta=cfg.delta,
                             workers=cfg.workers)


def _suite_sampler_h(cfg: RunConfig) -> SuiteReport:
    cmpv = _compare(cfg, "H")
    stats, y = cmpv.stats, cfg.y
    kv = get_kernels(cfg.coeffs, cfg.nu).kernel_value(cfg.s, cfg.t)
    mc = moment_check_from_sums(stats, y * kv.B, 2 * y * kv.B / kv.p)
    zf = zero_fraction_z(stats["zeros"], stats["n"], math.exp(-y * kv.gamma))
    entries = (
        _entry("moments", mc.passed, z_mean=mc.z_mean, z_var=mc.z_var),
        _entry("zero_fraction", abs(zf) <= Z_HARD, z=zf),
        _entry("laplace_transform", cmpv.passed, max_abs_z=cmpv.max_abs_z),
    )
    return SuiteReport("sampler-H", entries)


def _suite_component(cfg: RunConfig, component: str, name: str) -> SuiteReport:
    if component == "Itilde" and cfg.nu is None:
        raise ConfigError(f"suite {name} needs a jump measure (model.nu)")
    cmpv = _compare(cfg, component)
    entries = [_entry("laplace_transform", cmpv.passed,
                      max_abs_z=cmpv.max_abs_z,
                      soft_exceedances=cmpv.soft_exceedances)]
    if component == "Itilde":
        sampler, _ = _engines(cfg.coeffs, cfg.nu, cfg.n_cells, cfg.delta)
        mass = cfg.nu.mass_above(sampler.delta)
        expected = mass * cfg.coeffs.a_tilde.integral(cfg.s, cfg.t)
        reps = 4096
        g = RngStream(cfg.seed, 7000).generator()
        counts = np.array([len(sampler.sample_prm(g, cfg.s, cfg.t))
                           for _ in range(reps)], dtype=float)
        se = counts.std(ddof=1) / math.sqrt(reps)
        zc = (counts.mean() - expected) / se if se > 0 else 0.0
        entries.append(_entry("jump_count_mean", abs(zc) <= 3.0,
                              z=zc, expected=expected, observed=counts.mean()))
    return SuiteReport(name, tuple(entries))


def _suite_ck(cfg: RunConfig) -> SuiteReport:
    u = 0.5 * (cfg.s + cfg.t)
    cmpv = chapman_kolmogorov(cfg.coeffs, cfg.nu, cfg.s, u, cfg.t, cfg.y,
                              cfg.n_samples, cfg.lambda_grid, cfg.seed,
                              n_cells=cfg.n_cells, delta=cfg.delta,
                              workers=cfg.workers)
    return SuiteReport("chapman-kolmogorov", (
        _entry("two_step_vs_one_step", cmpv.passed, midpoint=u,
               max_abs_z=cmpv.max_abs_z),))


def _suite_euler(cfg: RunConfig) -> SuiteReport:
    eng = get_kernels(cfg.coeffs, cfg.nu)
    lam = np.array([1.0])
    analytic = eng.laplace_K(cfg.s, cfg.t, cfg.y, lam)[0]
    entries = []
    errs, ses = [], []
    span = cfg.t - cfg.s
    for k in range(4):
        h = cfg.step / 2 ** k
        n_steps = max(1, int(round(span / h)))
        stats = mc_statistics(
            lambda g, m: euler_terminal_batch(g, cfg.coeffs, cfg.nu, cfg.s,
                                              cfg.t, n_steps, m,
                                              delta=cfg.delta, y0=cfg.y),
            cfg.n_samples, lam, cfg.seed, stream_base=1000 * (k + 1),
            workers=cfg.workers)
        errs.append(abs(float(stats["mean"][0] - analytic[0])))
        ses.append(float(stats["std_err"][0]))
        entries.append(_entry(f"rung_h={h:g}", True, abs_error=errs[-1],
                              std_err=ses[-1]))
    monotone = all(errs[k + 1] <= errs[k] + 2 * (ses[k] + ses[k + 1])
                   for k in range(len(errs) - 1))
    entries.append(_entry("weak_error_decreasing", monotone,
                          errors=" > ".join(f"{e:.2e}" for e in errs)))
    return SuiteReport("euler-convergence", tuple(entries))


def _suite_truncation(cfg: RunConfig) -> SuiteReport:
    if cfg.nu is None or not cfg.nu.infinite_activity:
        return SuiteReport("truncation", (
            _entry("schedule", True, note="finite-activity measure, nothing to truncate"),))
    sched = truncation_schedule(cfg.nu, 6)
    diags = [d for _, d in sched]
    ratios = [diags[i + 1] / diags[i] for i in range(len(diags) - 1)]
    ok = all(d < 4.0 ** -(i + 1) for i, d in enumerate(diags)) \
        and all(r <= 0.2501 for r in ratios)
    return SuiteReport("truncation", (
        _entry("geometric_schedule", ok,
               diagnostics=" ".join(f"{d:.3e}" for d in diags)),))


SUITES = {
    "kernels": _suite_kernels,
    "sampler-H": _suite_sampler_h,
    "sampler-I": lambda cfg: _suite_component(cfg, "I", "sampler-I"),
    "sampler-Itilde": lambda cfg: _suite_component(cfg, "Itilde", "sampler-Itilde"),
    "transition-K": lambda cfg: _suite_component(cfg, "K", "transition-K"),
    "chapman-kolmogorov": _suite_ck,
    "euler-convergence": _suite_euler,
    "truncation": _suite_truncation,
}


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](cfg)
