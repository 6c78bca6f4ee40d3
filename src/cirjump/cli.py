"""Command-line entry point.

Subcommands::

    cirjump validate CONFIG            check model assumptions, exit 0 iff all pass
    cirjump laplace  CONFIG [flags]    transition-transform values as CSV
    cirjump sample   CONFIG [flags]    draws from a transition-law component
    cirjump simulate CONFIG [flags]    trajectory files plus a manifest
    cirjump verify   CONFIG --suite S  run a named verification suite

Flags override the scalars of the ``run``/``controls`` sections of the
configuration. Numeric CSV output uses 17 significant digits, so identical
configuration and seed reproduce byte-identical files. Exit codes: 0 on
success, 1 on a failed validation or verification, 2 on configuration or
usage errors. The environment variable ``CIRJUMP_THREADS`` sets the default
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .coefficients import validate
from .config import RunConfig, check_run, load_config
from .errors import CirJumpError, ConfigError
from .jumps import atoms
from .kernels import get_kernels
from .numerics import BIT_GENERATOR, RngStream
from .paths import branching_path, euler_path, exact_skeleton
from .samplers import (COMPONENTS, DEFAULT_CELLS, POISSON_MEAN_MAX,
                       get_component, get_sampler)
from .suites import SUITES, run_suite

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _default_workers(args, cfg: RunConfig) -> int:
    if getattr(args, "workers", None) is not None:
        return args.workers
    if cfg.workers != 1:
        return cfg.workers
    env = os.environ.get("CIRJUMP_THREADS", "1")
    if not env.strip().isdigit() or int(env) < 1:
        raise ConfigError(f"CIRJUMP_THREADS must be a positive integer, "
                          f"got {env!r}")
    return int(env)


def _override_run(cfg: RunConfig, args) -> RunConfig:
    changes = {field: v for field, attr in (("s", "s"), ("t", "t"), ("y", "y"),
                                            ("n_samples", "n"), ("seed", "seed"))
               if (v := getattr(args, attr, None)) is not None}
    return check_run(replace(cfg, **changes)) if changes else cfg


def _check_drawable(sampler, grid, y) -> None:
    """Reject a start mass whose started-mass Poisson mean y * gamma on some
    cell of ``grid`` is beyond what the generator can draw. gamma = B/D comes
    from the sampler's step record, which the draws then reuse."""
    gamma = max(sampler._step(r0, r1).gamma
                for r0, r1 in zip(grid[:-1], grid[1:]))
    if y * gamma > POISSON_MEAN_MAX:
        raise ConfigError(
            f"y={y:g} is too large to sample: the started-mass Poisson mean "
            f"y*gamma={y * gamma:.3g} exceeds {POISSON_MEAN_MAX:.3g}")


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    nu = cfg.nu if cfg.nu is not None else atoms([])
    report = validate(cfg.coeffs, nu, raise_on_error=False)
    print(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION,
                                 **report.as_dict()}) + "\n")
    return 0 if report.all_ok else 1


def cmd_laplace(args) -> int:
    cfg = _override_run(load_config(args.config), args)
    if args.lambdas:
        try:
            lams = tuple(float(x) for x in args.lambdas.split(","))
        except ValueError as exc:
            raise ConfigError(f"--lambdas: {exc}") from exc
        cfg = check_run(replace(cfg, lambda_grid=lams))
    if args.component == "Itilde" and cfg.nu is None:
        raise ConfigError("component Itilde has no transform without a jump "
                          "measure (model.nu)")
    eng = get_kernels(cfg.coeffs, cfg.nu, tol=cfg.kernel_tol,
                      nu_tol=cfg.nu_tol)
    grid = np.asarray(cfg.lambda_grid, dtype=float)
    vals, errs = get_component(args.component).laplace(eng, cfg.s, cfg.t,
                                                        cfg.y, grid)
    errs = np.broadcast_to(np.asarray(errs, dtype=float), vals.shape)
    lines = ["lambda,value,error_estimate"]
    lines += [f"{_fmt(l)},{_fmt(v)},{_fmt(e)}"
              for l, v, e in zip(grid, vals, errs)]
    _write_lines(args.out, lines)
    return 0


def cmd_sample(args) -> int:
    cfg = _override_run(load_config(args.config), args)
    sampler = get_sampler(cfg.coeffs, cfg.nu, n_cells=cfg.n_cells,
                          delta=cfg.delta)
    if args.component in ("K", "H"):
        _check_drawable(sampler, (cfg.s, cfg.t), cfg.y)
    g = RngStream(cfg.seed, 0).generator()
    n = cfg.n_samples
    x = get_component(args.component).draw(sampler, g, cfg.s, cfg.t, cfg.y, n)
    lines = ["value"] + [_fmt(v) for v in x]
    var = x.var(ddof=1) if x.size > 1 else 0.0
    summary = (f"n={n} mean={_fmt(x.mean())} variance={_fmt(var)} "
               f"zero_fraction={_fmt(np.mean(x == 0.0))}")
    _write_lines(args.out, lines)    # the summary goes where the draws do not
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = _override_run(load_config(args.config), args)
    step = args.step if args.step is not None else cfg.step
    n_steps = max(1, int(round((cfg.t - cfg.s) / step)))
    grid = np.linspace(cfg.s, cfg.t, n_steps + 1)
    # keyed as the scheme's path function keys it: Euler reads no I cells
    n_cells = DEFAULT_CELLS if args.scheme == "euler" else cfg.n_cells
    sampler = get_sampler(cfg.coeffs, cfg.nu, n_cells=n_cells, delta=cfg.delta)
    if args.scheme != "euler":
        _check_drawable(sampler, grid, cfg.y)
    os.makedirs(args.outdir, exist_ok=True)
    files = []
    for i in range(args.n_paths):
        stream = RngStream(cfg.seed, i)
        g = stream.generator()
        info = (stream.seed, stream.stream_id)
        if args.scheme == "euler":
            path = euler_path(g, cfg.coeffs, cfg.nu, grid, delta=cfg.delta,
                              y0=cfg.y, seed_info=info)
        elif args.scheme == "exact_skeleton":
            path = exact_skeleton(g, cfg.coeffs, cfg.nu, grid,
                                  n_cells=cfg.n_cells, delta=cfg.delta,
                                  y0=cfg.y, seed_info=info)
        else:
            path = branching_path(g, cfg.coeffs, cfg.nu, cfg.s, cfg.t, cfg.y,
                                  delta=cfg.delta, grid=grid,
                                  n_cells=cfg.n_cells, seed_info=info)
        name = f"path_{i:04d}.csv"
        with open(os.path.join(args.outdir, name), "w", encoding="utf-8",
                  newline="") as fh:
            path.write_csv(fh)
        files.append(name)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scheme": args.scheme,
        "seed": cfg.seed,
        "bit_generator": BIT_GENERATOR,
        "streams": [[cfg.seed, i] for i in range(args.n_paths)],
        "s": cfg.s, "t": cfg.t, "y": cfg.y, "step": step,
        "n_steps": n_steps, "n_paths": args.n_paths,
        "n_cells": cfg.n_cells, "delta": sampler.delta,
        "files": files,
    }
    with open(os.path.join(args.outdir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.n_paths} {args.scheme} path(s) to {args.outdir}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    cfg = check_run(replace(cfg, workers=_default_workers(args, cfg)))
    report = run_suite(args.suite, cfg)
    for line in report.lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            for e in (*report.entries, {"passed": report.passed}):
                fh.write(json.dumps({"schema_version": SCHEMA_VERSION,
                                     "suite": report.suite, **e}) + "\n")
    return 0 if report.passed else 1


def _write_lines(out, lines) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _positive_int(text) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {v}")
    return v


def _positive_float(text) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}")
    if not 0.0 < v < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {v}")
    return v


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cirjump", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, times=True):
        sp.add_argument("config", help="YAML run configuration")
        if times:
            sp.add_argument("--s", type=float, default=None)
            sp.add_argument("--t", type=float, default=None)
            sp.add_argument("--y", type=float, default=None)
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("validate", help="check model assumptions")
    sp.add_argument("config")
    sp.add_argument("--json", default=None, help="write the report as JSON")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("laplace", help="evaluate transition transforms")
    common(sp)
    sp.add_argument("--component", choices=tuple(COMPONENTS), default="K")
    sp.add_argument("--lambdas", default=None,
                    help="comma-separated transform arguments")
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sp.set_defaults(fn=cmd_laplace)

    sp = sub.add_parser("sample", help="draw from a transition law")
    common(sp)
    sp.add_argument("--component", choices=tuple(COMPONENTS), default="K")
    sp.add_argument("--n", type=int, default=None, help="number of draws")
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("simulate", help="simulate trajectories")
    common(sp)
    sp.add_argument("--scheme", choices=("euler", "exact_skeleton", "branching"),
                    required=True)
    sp.add_argument("--step", type=_positive_float, default=None,
                    help="grid step")
    sp.add_argument("--n-paths", type=_positive_int, default=1)
    sp.add_argument("--outdir", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("config")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", "--workers", type=_positive_int, default=None,
                    dest="workers", help="worker cap for Monte Carlo batches")
    sp.add_argument("--json", default=None, help="write the report as JSON lines")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CirJumpError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
