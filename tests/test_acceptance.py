"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every criterion records its full numeric report; the final
determinism criterion reruns each computation with the same seed and a
different worker count and requires byte-identical reports.
"""

import json
import math
import time

import numpy as np

import cirjump as cj
from cirjump.errors import RestrictiveConditionViolated
from cirjump.jumps import truncation_schedule
from cirjump.kernels import get_kernels
from cirjump.paths import euler_terminal_batch
from cirjump.samplers import get_sampler
from cirjump.verify import (chapman_kolmogorov, compare_component,
                            mc_statistics, moment_check_from_sums,
                            psi_semigroup_check, transform_comparison,
                            zero_fraction_z)

SEED = 20090309
LAMBDA_GRID = np.array([0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])

FULL_MODEL = cj.CoefficientSet(
    a=cj.piecewise_constant([0.6], [0.3, 0.8]),
    a_tilde=cj.piecewise_constant([1.0], [0.4, 0.2]),
    beta=cj.piecewise_constant([0.4, 1.1], [0.5, 2.0, 1.0]),
    sigma=cj.piecewise_constant([0.7], [1.0, 1.5]),
    x0=0.5, t_max=2.0)
TWO_ATOMS = cj.atoms([(0.7, 1.2), (1.8, 0.4)])
EXP_DENSITY = cj.density_measure(lambda y: np.exp(-y), rho=None, label="exp")
S, T, Y = 0.2, 1.2, 0.8

# filled per criterion: name -> (payload json, duration)
REPORTS = {}


def _record(num, label, payload, ok, dur, limit):
    REPORTS[num] = payload
    status = "PASS" if (ok and dur < limit) else "FAIL"
    print(f"[{status}] criterion {num:2d} ({dur:6.2f}s < {limit:g}s): {label}")
    assert ok, f"criterion {num} ({label}) failed: {payload[:400]}"
    assert dur < limit, f"criterion {num} exceeded its {limit}s budget: {dur:.1f}s"


def _run_crit_1():
    rows = []
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for sigma2 in (1.0, 2.0):
            c = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                                  beta=cj.constant(beta),
                                  sigma=cj.constant(math.sqrt(sigma2)),
                                  t_max=2.0)
            kv = get_kernels(c).kernel_value(0.3, 1.7)
            C = sigma2 / 2 * (math.exp(beta * 1.7) - math.exp(beta * 0.3)) / beta
            B = math.exp(-beta * 1.4)
            p = 1.0 / (math.exp(-beta * 1.7) * C)
            gam = 1.0 / (math.exp(-beta * 0.3) * C)
            errs = [abs(kv.C / C - 1), abs(kv.B / B - 1),
                    abs(kv.p / p - 1), abs(kv.gamma / gam - 1)]
            worst = max(worst, *errs)
            rows.append({"beta": beta, "sigma2": sigma2,
                         "C": kv.C, "B": kv.B, "p": kv.p, "gamma": kv.gamma})
    return json.dumps({"rows": rows, "worst_rel_err": worst}), worst <= 1e-8


def test_criterion_01_kernel_closed_forms():
    t0 = time.perf_counter()
    payload, ok = _run_crit_1()
    _record(1, "kernel quadrature vs constant-coefficient closed forms",
            payload, ok, time.perf_counter() - t0, 1.0)


def _run_crit_2():
    rng = np.random.default_rng(SEED)
    triples = np.sort(rng.uniform(0.0, FULL_MODEL.t_max, (100, 3)), axis=1)
    triples = triples[(np.diff(triples, axis=1) > 1e-3).all(axis=1)]
    defect = psi_semigroup_check(FULL_MODEL, triples, LAMBDA_GRID)
    return json.dumps({"triples": int(triples.shape[0]),
                       "max_defect": defect}), defect <= 1e-7


def test_criterion_02_psi_semigroup():
    t0 = time.perf_counter()
    payload, ok = _run_crit_2()
    _record(2, "functional-iteration defect over random time triples",
            payload, ok, time.perf_counter() - t0, 5.0)


def _run_crit_3():
    worst = 0.0
    vals = {}
    for alpha in (0.5, 1.0, 2.5):
        sigma = cj.piecewise_constant([0.7], [1.0, 1.5])
        a = cj.piecewise_constant([0.7], [alpha * 0.5, alpha * 1.125])
        c = cj.CoefficientSet(a=a, a_tilde=cj.constant(0),
                              beta=cj.piecewise_constant([0.4], [0.5, 2.0]),
                              sigma=sigma, t_max=2.0)
        eng = get_kernels(c)
        kv = eng.kernel_value(S, T)
        got, _ = eng.laplace_I(S, T, LAMBDA_GRID)
        want = (1.0 + LAMBDA_GRID / kv.p) ** -alpha
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
        vals[str(alpha)] = got.tolist()
    return json.dumps({"values": vals, "worst_rel_err": worst}), worst <= 1e-8


def test_criterion_03_gamma_law_reduction():
    t0 = time.perf_counter()
    payload, ok = _run_crit_3()
    _record(3, "continuous-input transform vs Gamma-law closed form",
            payload, ok, time.perf_counter() - t0, 1.0)


def _run_crit_4(workers=1):
    eng = get_kernels(FULL_MODEL)
    kv = eng.kernel_value(S, T)
    sampler = get_sampler(FULL_MODEL)
    stats = mc_statistics(lambda g, m: sampler.sample_h(g, S, T, Y, size=m),
                          1_000_000, LAMBDA_GRID, SEED, stream_base=0,
                          workers=workers)
    mc = moment_check_from_sums(stats, Y * kv.B, 2 * Y * kv.B / kv.p)
    zf = zero_fraction_z(stats["zeros"], stats["n"], math.exp(-Y * kv.gamma))
    analytic, _ = eng.laplace_H(S, T, Y, LAMBDA_GRID)
    z = (stats["mean"] - analytic) / stats["std_err"]
    ok = (abs(mc.z_mean) <= 4 and abs(mc.z_var) <= 4 and abs(zf) <= 4
          and np.max(np.abs(z)) <= 4 and int(np.sum(np.abs(z) > 3)) <= 1)
    payload = json.dumps({"z_mean": mc.z_mean, "z_var": mc.z_var,
                          "z_zero": zf, "z_transform": z.tolist()})
    return payload, ok


def test_criterion_04_h_sampler_exactness():
    t0 = time.perf_counter()
    payload, ok = _run_crit_4()
    _record(4, "started-mass sampler: moments, atom mass, transform (N=1e6)",
            payload, ok, time.perf_counter() - t0, 10.0)


def _run_crit_5(workers=1):
    out = {}
    ok = True
    for name, nu in (("two_atoms", TWO_ATOMS), ("exp_density", EXP_DENSITY)):
        cmp = compare_component(FULL_MODEL, nu, S, T, Y, "K", 1_000_000,
                                LAMBDA_GRID, SEED, n_cells=64,
                                workers=workers)
        out[name] = cmp.as_dict()
        ok = ok and cmp.passed
    return json.dumps(out), ok


def test_criterion_05_transition_law():
    t0 = time.perf_counter()
    payload, ok = _run_crit_5()
    _record(5, "one-step sampler vs transition transform, both measures (N=1e6)",
            payload, ok, time.perf_counter() - t0, 60.0)


def _run_crit_6(workers=1):
    cmp = chapman_kolmogorov(FULL_MODEL, TWO_ATOMS, S, 0.7, T, Y, 1_000_000,
                             LAMBDA_GRID, SEED, n_cells=64, workers=workers)
    return json.dumps(cmp.as_dict()), cmp.passed


def test_criterion_06_chapman_kolmogorov():
    t0 = time.perf_counter()
    payload, ok = _run_crit_6()
    _record(6, "two-step sampling vs one-step transform (N=1e6)",
            payload, ok, time.perf_counter() - t0, 60.0)


def _run_crit_7(workers=1):
    t1, t2, t3 = 0.2, 0.7, 1.2
    eng = get_kernels(FULL_MODEL, TWO_ATOMS)
    sampler = get_sampler(FULL_MODEL, TWO_ATOMS)
    out, durations = {}, {}

    tick = time.perf_counter()
    analytic_i, _ = eng.laplace_I(t1, t3, LAMBDA_GRID)

    def draw_i(g, m):
        v = sampler.sample_i(g, t1, t2, size=m)
        w = sampler.sample_h(g, t2, t3, v)
        return w + sampler.sample_i(g, t2, t3, size=m)

    cmp_i = transform_comparison(draw_i, analytic_i, LAMBDA_GRID, 1_000_000,
                                 SEED, workers=workers, label="skew-I")
    out["I"] = cmp_i.as_dict()
    durations["I"] = time.perf_counter() - tick

    tick = time.perf_counter()
    analytic_it, _ = eng.laplace_Itilde(t1, t3, LAMBDA_GRID)

    def draw_it(g, m):
        v = sampler.sample_itilde(g, t1, t2, size=m)
        w = sampler.sample_h(g, t2, t3, v)
        return w + sampler.sample_itilde(g, t2, t3, size=m)

    cmp_it = transform_comparison(draw_it, analytic_it, LAMBDA_GRID,
                                  1_000_000, SEED, stream_base=500,
                                  workers=workers, label="skew-Itilde")
    out["Itilde"] = cmp_it.as_dict()
    durations["Itilde"] = time.perf_counter() - tick
    return json.dumps(out), cmp_i.passed and cmp_it.passed, durations


def test_criterion_07_skew_convolution():
    t0 = time.perf_counter()
    payload, ok, durations = _run_crit_7()
    ok = ok and all(d < 60.0 for d in durations.values())
    _record(7, "skew-convolution composition for both input components (N=1e6)",
            payload, ok, time.perf_counter() - t0, 120.0)


def _run_crit_8(workers=1):
    eng = get_kernels(FULL_MODEL, TWO_ATOMS)
    lam = np.array([1.0])
    analytic, _ = eng.laplace_K(S, T, Y, lam)
    errs, ses = [], []
    span = T - S
    for k, h in enumerate((2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6)):
        n_steps = int(round(span / h))
        stats = mc_statistics(
            lambda g, m: euler_terminal_batch(g, FULL_MODEL, TWO_ATOMS,
                                              S, T, n_steps, m, y0=Y),
            100_000, lam, SEED, stream_base=1000 * (k + 1), workers=workers)
        errs.append(abs(float(stats["mean"][0] - analytic[0])))
        ses.append(float(stats["std_err"][0]))
    ok = all(errs[k + 1] <= errs[k] + 2 * (ses[k] + ses[k + 1])
             for k in range(3))
    return json.dumps({"abs_errors": errs, "std_errs": ses}), ok


def test_criterion_08_euler_weak_convergence():
    t0 = time.perf_counter()
    payload, ok = _run_crit_8()
    _record(8, "Euler weak-error ladder decreasing over h = 2^-3 .. 2^-6",
            payload, ok, time.perf_counter() - t0, 120.0)


def _run_crit_9():
    rho04 = cj.density_measure(
        lambda y: y ** -1.4 * np.exp(-y), rho=0.4, label="rho04")
    rho07 = cj.density_measure(
        lambda y: y ** -1.7 * np.exp(-y), rho=0.7, label="rho07")
    rep04 = cj.validate(FULL_MODEL, rho04, raise_on_error=False)
    rep07 = cj.validate(FULL_MODEL, rho07, raise_on_error=False)
    gate_ok = rep04.all_ok and rep04.samplers_available \
        and rep07.hard_ok and not rep07.samplers_available
    raised = False
    try:
        cj.TransitionSampler(FULL_MODEL, rho07, delta=0.05).sample_itilde(
            cj.RngStream(SEED).generator(), S, T, size=2)
    except RestrictiveConditionViolated:
        raised = True
    sched = truncation_schedule(rho04, 6)
    diags = [d for _, d in sched]
    sched_ok = all(d < 4.0 ** -(n + 1) for n, d in enumerate(diags)) \
        and all(b <= a / 4.0 * (1 + 1e-6) for a, b in zip(diags, diags[1:]))
    payload = json.dumps({"rho04": rep04.as_dict(), "rho07": rep07.as_dict(),
                          "sampler_blocked": raised,
                          "schedule_diagnostics": diags})
    return payload, gate_ok and raised and sched_ok


def test_criterion_09_infinite_activity_gate():
    t0 = time.perf_counter()
    payload, ok = _run_crit_9()
    _record(9, "square-root gate accepts rho=0.4, rejects rho=0.7; schedule",
            payload, ok, time.perf_counter() - t0, 5.0)


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    assert set(REPORTS) == set(range(1, 10)), \
        "criteria 1-9 must run before the determinism check"
    reruns = {
        1: _run_crit_1()[0],
        2: _run_crit_2()[0],
        3: _run_crit_3()[0],
        4: _run_crit_4(workers=3)[0],
        5: _run_crit_5(workers=3)[0],
        6: _run_crit_6(workers=3)[0],
        7: _run_crit_7(workers=3)[0],
        8: _run_crit_8(workers=3)[0],
        9: _run_crit_9()[0],
    }
    mismatched = [n for n in range(1, 10) if reruns[n] != REPORTS[n]]
    ok = not mismatched
    payload = json.dumps({"mismatched": mismatched})
    _record(10, "byte-identical reports under rerun with 3 workers",
            payload, ok, time.perf_counter() - t0, 300.0)
