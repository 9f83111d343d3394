"""The benchmark's workloads: set-up from a seed, one round, and its checks.

A round is a fixed sequence of operations started from the same inputs, so
every round of a run repeats the same work bit for bit.  An operation is one
``TimeStepper.step`` call on the stepping workloads and one pass of
``verification.run_all`` on ``mms-ladder``.  All calls go through module
attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import mchb.constitutive
import mchb.flow
import mchb.io_formats
import mchb.parameters
import mchb.state
import mchb.stepping
import mchb.verification

import checks

RETRIED = (mchb.stepping.StepFailure, mchb.flow.FlowSolverError,
           FloatingPointError)


class TimedStepper(mchb.stepping.TimeStepper):
    """Times each step and records raw-numpy facts about its new state.

    Before each step it samples the host-speed kernel, so that the step's
    wall time can be scaled by the host's speed at that moment.
    """

    host = None

    def reset(self) -> None:
        self.op_s: list[float] = []
        self.cal_s: list[float] = []
        self.failed = 0
        self.masses: list[np.ndarray] = []
        self.defects: list[float] = []
        self.finite: list[bool] = []

    def step(self, state, dt):
        if self.host is not None:
            self.cal_s.append(self.host.sample())
        t0 = time.perf_counter()
        try:
            new, rep = super().step(state, dt)
        except RETRIED:
            self.failed += 1
            raise
        finally:
            self.op_s.append(time.perf_counter() - t0)
        g = self.grid
        self.masses.append(new.phi.sum(axis=(1, 2)) * g.cell_area)
        self.defects.append(checks.bookkeeping_defect(new.phi, g.cell_area,
                                                      g.area))
        self.finite.append(all(bool(np.isfinite(a).all()) for a in
                               (new.phi, new.mu, new.sigma, new.v, new.p)))
        return new, rep


class Stepping:
    """A preset advanced ``steps`` steps per round through ``TimeStepper.run``."""

    op_span = "stepping.step"

    def __init__(self, name: str, seed: int, out_dir: Path, host=None):
        self.name = name
        self.out_dir = out_dir
        preset, steps, overrides = SPEC[name]
        cfg = mchb.parameters.build_default_scenario(preset)
        cfg = replace(cfg, seed=seed, t_end=steps * cfg.dt, **overrides)
        self.steps = steps
        self.writes = name == "zero-source-64"
        self.stepper = TimedStepper(cfg)
        self.stepper.host = host
        self.stepper.reset()
        self.initial = mchb.state.build_initial_state(cfg, self.stepper.bundle)
        if name == "darcy-limit-64":
            self._perturb(seed)
        self.summary = None

    def _perturb(self, seed: int) -> None:
        """Seeded smooth perturbation of the stratified annuli."""
        st, g = self.initial, self.stepper.grid
        rng = np.random.default_rng(seed)
        for i in range(st.phi.shape[0]):
            st.phi[i] += mchb.state.smooth_random_field(rng, g, 5, 0.02)
        st.mu = mchb.state.consistent_mu(st.phi, st.sigma, self.stepper.bundle, g)

    def run_round(self, tracer=None) -> None:
        self.stepper.reset()
        if self.writes:
            with mchb.io_formats.RunWriter(self.out_dir, self.stepper.config,
                                           tag="run") as writer:
                self.summary = self.stepper.run(writer, state=self.initial)
        else:
            self.summary = self.stepper.run(state=self.initial)
        if self.stepper.host is not None:
            self.stepper.cal_s.append(self.stepper.host.sample())

    @property
    def op_s(self) -> list[float]:
        return self.stepper.op_s

    @property
    def cal_s(self) -> list[float]:
        """Host-speed sample per step: the mean of the samples around it."""
        cal = self.stepper.cal_s
        return [0.5 * (a + b) for a, b in zip(cal[:-1], cal[1:])]

    @property
    def cal_spent(self) -> float:
        return sum(self.stepper.cal_s)

    @property
    def failed(self) -> int:
        return self.stepper.failed

    def written_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.glob("run_*"))

    def check_round(self) -> list[str]:
        s, st = self.summary, self.stepper
        if s.aborted or len(s.reports) != self.steps:
            return [f"run ended after {len(s.reports)} of {self.steps} steps: "
                    f"{s.message}"]
        energies = [s.e_initial] + [r.energy_after for r in s.reports]
        out = checks.bookkeeping(st.defects)
        if self.name == "zero-source-64":
            out += checks.energy_non_increasing(energies)
            out += self._check_files([r.energy_after for r in s.reports])
        elif self.name == "relax-128":
            out += checks.energy_strictly_decreasing(energies)
            m0 = self.initial.phi.sum(axis=(1, 2)) * st.grid.cell_area
            out += checks.mass_drift([m0] + st.masses)
            out += checks.energy_matches(s.e_initial, self._raw_energy(self.initial))
            out += checks.energy_matches(energies[-1], self._raw_energy(s.state))
        else:
            out += checks.all_finite(st.finite)
        return out

    def _raw_energy(self, state) -> float:
        m = self.stepper.config.model
        g = self.stepper.grid
        return checks.raw_free_energy(
            state.phi, state.sigma, g.hx, g.hy, gamma=m.gamma,
            epsilon=m.epsilon, chi_sigma=m.chi_sigma,
            coupling=np.array([m.chi_phi, -m.alpha, -m.beta]),
            a_vec=np.array([0.0, m.alpha * m.c_q, m.beta * m.c_n]))

    def _check_files(self, energies) -> list[str]:
        out = checks.csv_report(self.out_dir / "run_report.csv", self.steps,
                                np.array(energies))
        every = self.stepper.config.snapshot_every
        for k in range(0, self.steps + 1, every):
            path = self.out_dir / f"run_state_{k:06d}.bin"
            if not path.is_file():
                out.append(f"snapshot {path.name} missing")
                continue
            stack = mchb.io_formats.read_field_dump(path)
            expected = _stack(self.initial) if k == 0 else \
                _stack(self.summary.state) if k == self.steps else None
            out += checks.snapshot(stack, self.stepper.grid.shape, expected)
        return out

    def final_check(self) -> list[str]:
        if self.name != "darcy-limit-64":
            return []
        return darcy_limit_check(self.summary.state, self.stepper.bundle)


def _stack(state) -> np.ndarray:
    return np.concatenate([state.phi, state.mu, state.sigma, state.v,
                           state.p[None]])


def darcy_limit_check(state, bundle, etas=(1e-1, 1e-2, 1e-3, 1e-4),
                      tol: float = 1e-10) -> list[str]:
    """Brinkman solves on the frozen state converge to the Darcy solve."""
    g = state.grid
    nu = bundle.params.nu
    _, _, n_sigma, _ = mchb.constitutive.chemical_energy(state.phi, state.sigma,
                                                         bundle.chem)
    force = mchb.flow.korteweg_force(state.phi, state.mu, state.sigma, n_sigma, g)
    s_v = mchb.constitutive.source_velocity(state.phi, state.sigma,
                                            bundle.sources)
    ref = mchb.flow.solve_darcy(force, s_v, nu, g, tol=tol)
    opts = mchb.flow.BrinkmanOptions(tol=tol)
    gaps, residuals = [], []
    for eta in etas:
        field = np.full(g.shape, eta)
        res = mchb.flow.solve_brinkman(force, s_v, field, field, nu, g, opts)
        gaps.append(float(np.sqrt(((res.v - ref.v)**2).sum() * g.cell_area)))
        residuals.append(mchb.flow.darcy_residual(res.v, res.p, force, nu, g))
    ref_norm = float(np.sqrt((ref.v**2).sum() * g.cell_area))
    return checks.darcy_limit(etas, gaps, residuals, ref_norm)


class MmsLadder:
    """Passes of every manufactured-solution study over one grid ladder."""

    op_span = "verification.pass"
    ladder = (32, 64, 128, 256)

    def __init__(self, name: str, seed: int, out_dir: Path, host=None):
        self.name = name
        self.host = host
        self.op_s: list[float] = []
        self.cal_s: list[float] = []
        self.cal_spent = 0.0
        self.failed = 0
        self.studies = []

    def run_round(self, tracer=None) -> None:
        """One pass, with host-speed samples before and after it.

        The stepping workloads' op spans come from the tracer's wrapper of
        ``TimeStepper.step``; this one is opened here.
        """
        cal = [self.host.sample() for _ in range(3)] if self.host else []
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(self.op_span):
                self.studies = mchb.verification.run_all(self.ladder)
        else:
            self.studies = mchb.verification.run_all(self.ladder)
        self.op_s = [time.perf_counter() - t0]
        if self.host:
            cal += [self.host.sample() for _ in range(3)]
            self.cal_s = [float(np.median(cal))]
            self.cal_spent = sum(cal)

    def written_bytes(self) -> int:
        return 0

    def check_round(self) -> list[str]:
        return checks.mms_slopes([(s.name, s.ns, s.errors) for s in self.studies])

    def final_check(self) -> list[str]:
        return []


# workload -> (preset, steps per round, config overrides)
SPEC = {
    "zero-source-64": ("zero-source", 16, {"snapshot_every": 4}),
    "darcy-limit-64": ("darcy-limit", 8, {}),
    "relax-128": ("zero-source", 4, {"grid_nx": 128, "grid_ny": 128,
                                     "flow_enabled": False}),
}
# host-speed kernel matching each workload's dominant cost
KERNEL = {"zero-source-64": "lu40", "darcy-limit-64": "lu40",
          "relax-128": "lu56", "mms-ladder": "cg256"}


def make(name: str, seed: int, out_dir: Path, host=None):
    cls = MmsLadder if name == "mms-ladder" else Stepping
    return cls(name, seed, out_dir, host)
