"""Command-line surface: run, sweep-darcy, mms, validate.

Exit codes are a total function of the outcome class:

* 0  success
* 1  configuration error, including a malformed command line and an
     output directory or file that cannot be made or written
* 2  aborted run / aborted sweep / failed MMS flow solve
* 3  verification (convergence-slope) failure
* 4  strict assumption failure

Loading a configuration only parses and validates it.  ``--strict`` is
applied by the commands: ``run`` and ``sweep-darcy`` stop with exit 4 before
any output directory is made or any step runs, and ``validate`` prints its
whole report first.  Without it, ``run`` warns once per failed assumption.
``run`` takes at most one of ``--steps`` and ``--t-end``.

Only ``parameters`` is imported here.  Each command imports the solver
modules it runs, after its inputs are checked, so ``validate`` and a
rejected configuration load no scipy module.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .parameters import (ConfigError, ScenarioConfig, StrictAssumptionError,
                         assumption_report, build_default_scenario,
                         check_ladder, load_config, require_assumptions)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2
EXIT_VERIFICATION = 3
EXIT_STRICT = 4

SWEEP_TOL = 1e-10  # flow tolerance of every sweep-darcy solve


@dataclass
class SweepResult:
    """Brinkman-to-Darcy comparison on one frozen state."""

    eta_levels: list[float]
    velocity_gaps: list[float]
    velocity_gaps_rel: list[float]
    darcy_residuals: list[float]
    sweeps: list[int]            # Uzawa sweeps of each level's solve
    partial: bool = False


def _resolve_config(args) -> ScenarioConfig:
    """The configuration of ``--config`` or ``--preset`` with the command
    line's overrides, parsed and validated; the assumptions go unchecked."""
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"configuration file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"configuration file {path}: {exc}") from None
        cfg = load_config(text)
    else:
        cfg = build_default_scenario(args.preset)
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


def _run_dir(args, cfg: ScenarioConfig) -> Path:
    """The output directory of a command that runs, created before any step
    or solve, and only once ``--strict`` has passed ``cfg``: there a failed
    assumption raises ``StrictAssumptionError`` first."""
    if args.strict:
        require_assumptions(cfg)
    out = Path(args.out_dir or os.environ.get("MCHB_OUT_DIR") or "mchb-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    if not args.tag or os.path.basename(args.tag) != args.tag:
        raise ConfigError(f"--tag must be a non-empty file-name stem with no "
                          f"path separator, got {args.tag!r}")
    out = _run_dir(args, cfg)
    for name in assumption_report(cfg).failing():
        print(f"warning: assumption {name} violated", file=sys.stderr)
    from .io_formats import RunWriter
    from .stepping import TimeStepper

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
    from .state import build_initial_state
    from .stepping import TimeStepper, explicit_terms

    stepper = TimeStepper(cfg)
    state = build_initial_state(cfg, stepper.bundle)
    for _ in range(steps):
        state, _ = stepper.step(state, cfg.dt)
    terms = explicit_terms(state, stepper.bundle, cfg.sources_enabled, True)
    return state, terms.force, terms.s_v


def run_darcy_sweep(cfg: ScenarioConfig, eta_levels, jobs: int = 1,
                    snapshot_steps: int = 5) -> SweepResult:
    """Brinkman solves at each level of ``eta_levels`` (lambda = eta) against
    the Darcy solve, on the state after ``snapshot_steps`` steps.

    Every solve runs at the fixed tolerance 1e-10, ``SWEEP_TOL``.
    """
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
    from .flow import (BrinkmanOptions, FlowSolverError, darcy_residual,
                       solve_brinkman, solve_darcy)
    from .grid import l2_norm

    state, force, s_v = frozen_snapshot(cfg, steps=snapshot_steps)
    grid = state.grid
    nu = cfg.model.nu
    reference = solve_darcy(force, s_v, nu, grid, tol=SWEEP_TOL)
    ref_norm = l2_norm(reference.v, grid)
    opts = BrinkmanOptions(tol=SWEEP_TOL)

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
                       [sweeps for _, _, sweeps in rows], partial=partial)


def cmd_sweep_darcy(args) -> int:
    cfg = replace(_resolve_config(args), flow_backend="brinkman").validate()
    try:
        levels = [float(tok) for tok in args.levels.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad eta ladder: {exc}") from None
    if not levels:
        raise ConfigError("empty eta ladder")
    out = _run_dir(args, cfg)
    from .flow import FlowSolverError
    from .io_formats import write_sweep_csv
    from .stepping import StepFailure

    try:
        result = run_darcy_sweep(cfg, levels, jobs=args.jobs,
                                 snapshot_steps=args.snapshot_steps)
    except (StepFailure, FlowSolverError, FloatingPointError) as exc:
        # a snapshot step or the Darcy reference failed: no level was solved
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    # the levels are printed first, so a CSV that cannot be written loses none
    for eta, gap, rel, res, sweeps in zip(
            result.eta_levels, result.velocity_gaps, result.velocity_gaps_rel,
            result.darcy_residuals, result.sweeps):
        print(f"eta={eta:.3e}  gap={gap:.6e}  rel={rel:.6e}  residual={res:.6e}"
              f"  sweeps={sweeps}")
    write_sweep_csv(out / "sweep_darcy.csv", result.eta_levels,
                    result.velocity_gaps, result.velocity_gaps_rel,
                    result.darcy_residuals, partial=result.partial)
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
    try:
        check_ladder(ns)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    from . import verification
    from .flow import FlowSolverError

    try:
        studies = verification.run_all(tuple(ns))
    except FlowSolverError as exc:  # the Darcy study's pressure solve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
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
    # the interface resolution is a note, not a verdict
    ratio = cfg.model.epsilon / max(cfg.domain_lx / cfg.grid_nx,
                                    cfg.domain_ly / cfg.grid_ny)
    print(f"note: epsilon/h = {ratio:.3g}, h the coarser cell width"
          + ("" if ratio >= 1 else ": unresolved, below 1"))
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
        p.add_argument("--strict", action="store_true",
                       help="exit 4 if a model assumption fails")

    def out_dir(p):
        p.add_argument("--out-dir", default=None,
                       help="output root (default $MCHB_OUT_DIR or ./mchb-out)")

    p = sub.add_parser("run", help="advance a scenario and write reports")
    common(p, "stratified-tumor")
    out_dir(p)
    horizon = p.add_mutually_exclusive_group()
    horizon.add_argument("--steps", type=int, default=None,
                         help="override t_end as steps * dt")
    horizon.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--tag", default="run",
                   help="file-name stem of the run's outputs (default run)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-darcy", help="vanishing-viscosity comparison")
    common(p, "darcy-limit")
    out_dir(p)
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
    except (ConfigError, OSError) as exc:
        # every path a command opens past its configuration is an output
        # path, so an OSError is an output directory or file that cannot be
        # made or written
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StrictAssumptionError):
            return EXIT_STRICT
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
