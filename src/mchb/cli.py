"""Command-line surface: run, sweep-darcy, mms, validate.

Exit codes are a total function of the outcome class:

* 0  success
* 1  configuration error, including a malformed command line
* 2  aborted run / aborted sweep
* 3  verification (convergence-slope) failure
* 4  strict assumption failure
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import verification
from .flow import (BrinkmanOptions, FlowSolverError, darcy_residual,
                   solve_brinkman, solve_darcy)
from .grid import l2_norm
from .io_formats import RunWriter, write_sweep_csv
from .parameters import (ConfigError, ScenarioConfig, StrictAssumptionError,
                         assumption_report, build_default_scenario,
                         load_config, require_assumptions)
from .state import build_initial_state
from .stepping import StepFailure, TimeStepper, explicit_terms

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2
EXIT_VERIFICATION = 3
EXIT_STRICT = 4


@dataclass
class SweepResult:
    """Brinkman-to-Darcy comparison on one frozen state."""

    eta_levels: list[float]
    velocity_gaps: list[float]
    velocity_gaps_rel: list[float]
    darcy_residuals: list[float]
    sweeps: list[int]            # Uzawa sweeps of each level's solve
    reference: object
    partial: bool = False


def _resolve_config(args) -> ScenarioConfig:
    strict = getattr(args, "strict", False)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"configuration file not found: {path}")
        cfg = load_config(path.read_text(), strict=strict)
    else:
        cfg = build_default_scenario(args.preset)
        if strict:
            require_assumptions(cfg)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "t_end", None) is not None:
        overrides["t_end"] = args.t_end
    if getattr(args, "steps", None) is not None:
        if args.steps < 0:
            raise ConfigError(f"--steps must be nonnegative, got {args.steps}")
        overrides["t_end"] = args.steps * cfg.dt
    if overrides:
        cfg = replace(cfg, **overrides).validate()
    return cfg


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("MCHB_OUT_DIR") or "mchb-out"
    return Path(base)


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    report = assumption_report(cfg)
    for name in report.failing():
        print(f"warning: assumption {name} violated", file=sys.stderr)
    out = _out_dir(args)
    with RunWriter(out, cfg, tag=args.tag) as writer:
        summary = TimeStepper(cfg).run(writer)
    print(f"run finished: {len(summary.reports)} steps, "
          f"E0={summary.e_initial:.6g}, out={out}")
    if summary.aborted:
        print(f"run aborted: {summary.message}", file=sys.stderr)
        return EXIT_ABORTED
    return EXIT_OK


def frozen_snapshot(cfg: ScenarioConfig, steps: int = 5):
    """Short run of the configured scenario, returning the frozen state inputs."""
    stepper = TimeStepper(cfg)
    state = build_initial_state(cfg, stepper.bundle)
    for _ in range(steps):
        state, _ = stepper.step(state, cfg.dt)
    terms = explicit_terms(state, stepper.bundle, cfg.sources_enabled, True)
    return state, terms.force, terms.s_v


def run_darcy_sweep(cfg: ScenarioConfig, eta_levels, jobs: int = 1,
                    snapshot_steps: int = 5, tol: float = 1e-10) -> SweepResult:
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if snapshot_steps < 0:
        raise ConfigError(f"snapshot steps must be nonnegative, "
                          f"got {snapshot_steps}")
    eta_levels = sorted(eta_levels, reverse=True)
    if not (all(0 < eta < math.inf for eta in eta_levels)
            and len(set(eta_levels)) == len(eta_levels)):
        raise ConfigError(f"eta levels must be distinct, positive and finite, "
                          f"got {eta_levels}")
    state, force, s_v = frozen_snapshot(cfg, steps=snapshot_steps)
    grid = state.grid
    nu = cfg.model.nu
    reference = solve_darcy(force, s_v, nu, grid, tol=tol)
    ref_norm = l2_norm(reference.v, grid)
    opts = BrinkmanOptions(tol=tol)

    def level(eta):
        res = solve_brinkman(force, s_v, eta, eta, nu, grid, opts)
        gap = l2_norm(res.v - reference.v, grid)
        dres = darcy_residual(res.v, res.p, force, nu, grid)
        return gap, dres, res.iterations

    results = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for fut in [pool.submit(level, eta) for eta in eta_levels]:
            try:
                results.append(fut.result())
            except FlowSolverError:
                results.append(None)
    # a failed level ends the ladder; the levels before it are kept
    partial = None in results
    rows = results[:results.index(None)] if partial else results
    gaps = [gap for gap, _, _ in rows]
    return SweepResult(eta_levels[:len(rows)], gaps,
                       [gap / max(ref_norm, 1e-300) for gap in gaps],
                       [res for _, res, _ in rows],
                       [sweeps for _, _, sweeps in rows], reference,
                       partial=partial)


def cmd_sweep_darcy(args) -> int:
    cfg = _resolve_config(args)
    if cfg.flow_backend != "brinkman":
        cfg = replace(cfg, flow_backend="brinkman").validate()
    try:
        levels = [float(tok) for tok in args.levels.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad eta ladder: {exc}") from None
    if not levels:
        raise ConfigError("empty eta ladder")
    try:
        result = run_darcy_sweep(cfg, levels, jobs=args.jobs,
                                 snapshot_steps=args.snapshot_steps)
    except (StepFailure, FlowSolverError, FloatingPointError) as exc:
        # a snapshot step or the Darcy reference failed: no level was solved
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep_darcy.csv", result.eta_levels,
                    result.velocity_gaps, result.velocity_gaps_rel,
                    result.darcy_residuals, partial=result.partial)
    for eta, gap, rel, res, sweeps in zip(
            result.eta_levels, result.velocity_gaps, result.velocity_gaps_rel,
            result.darcy_residuals, result.sweeps):
        print(f"eta={eta:.3e}  gap={gap:.6e}  rel={rel:.6e}  residual={res:.6e}"
              f"  sweeps={sweeps}")
    if result.partial:
        print("sweep aborted: solver failure, partial results flagged",
              file=sys.stderr)
        return EXIT_ABORTED
    return EXIT_OK


def cmd_mms(args) -> int:
    try:
        ns = [int(tok) for tok in args.grids.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad grid ladder: {exc}") from None
    if len(ns) < 2 or len(set(ns)) < len(ns) or min(ns) < 8:
        raise ConfigError(f"convergence study needs at least two distinct "
                          f"cell counts, each at least 8, got {ns}")
    studies = verification.run_all(tuple(ns))
    for s in studies:
        print(s.line())
    bad = verification.check_slopes(studies)
    if bad:
        print(f"verification failure: {', '.join(bad)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    report = assumption_report(cfg)
    for line in report.lines():
        print(line)
    if args.strict and not report.all_pass:
        print("strict mode: assumption failure "
              + ", ".join(report.failing()), file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``ConfigError``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mchb", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, preset_default):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", default=preset_default,
                       help=f"preset name (default {preset_default})")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None,
                       help="output root (default $MCHB_OUT_DIR or ./mchb-out)")
        p.add_argument("--strict", action="store_true",
                       help="hard-enforce the model assumptions")

    p = sub.add_parser("run", help="advance a scenario and write reports")
    common(p, "stratified-tumor")
    p.add_argument("--steps", type=int, default=None,
                   help="override t_end as steps * dt")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--tag", default="run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-darcy", help="vanishing-viscosity comparison")
    common(p, "darcy-limit")
    p.add_argument("--levels", default="1e-1,1e-2,1e-3,1e-4",
                   help="comma-separated eta ladder (lambda = eta)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--snapshot-steps", type=int, default=5,
                   help="steps used to prepare the frozen snapshot")
    p.set_defaults(func=cmd_sweep_darcy)

    p = sub.add_parser("mms", help="manufactured-solution convergence studies")
    p.add_argument("--grids", default="32,64,128,256")
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("validate", help="check the model assumptions")
    common(p, "stratified-tumor")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, FlowSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StrictAssumptionError):
            return EXIT_STRICT
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
