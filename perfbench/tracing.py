"""Span tracing of mchb from the outside, and the per-layer split it gives.

While installed, the tracer replaces public functions of the mchb modules
(and ``scipy.sparse.linalg.splu``) by wrappers that record one span per
call: name, start, end and the enclosing span.  Factorizations return a
proxy whose ``solve`` calls are spans too.  Spans stay in memory and are
written out when the run ends.  Uninstalling restores every original, so
untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

import mchb.constitutive
import mchb.diagnostics
import mchb.flow
import mchb.io_formats
import mchb.parameters
import mchb.state
import mchb.stepping
import mchb.verification

from checks import self_time_sum

CONSTITUTIVE = ("chemical_energy", "mobility", "source_phase",
                "source_nutrient", "source_velocity", "potential_eval")


def _targets():
    """(owner, attribute, span name, count-from-result) for every wrapper."""
    flow_iters = lambda res: res.iterations  # noqa: E731
    out = [
        (mchb.stepping.TimeStepper, "step", "stepping.step", None),
        (mchb.stepping.TimeStepper, "_ch_solve", "stepping.ch", None),
        (mchb.stepping.TimeStepper, "_nutrient_solve", "stepping.nutrient",
         lambda res: res[1]),
        (mchb.stepping, "solve_darcy", "flow.solve", flow_iters),
        (mchb.stepping, "solve_brinkman", "flow.solve", flow_iters),
        (mchb.verification, "solve_darcy", "flow.solve", flow_iters),
        (mchb.stepping, "korteweg_force", "flow.force", None),
        (mchb.diagnostics, "korteweg_force", "flow.force", None),
        (mchb.diagnostics, "energy_law_residual", "diagnostics.energy_law", None),
        (mchb.diagnostics, "free_energy", "diagnostics.free_energy", None),
        (mchb.io_formats.RunWriter, "__init__", "io_formats.open", None),
        (mchb.io_formats.RunWriter, "write_row", "io_formats.row", None),
        (mchb.io_formats.RunWriter, "snapshot", "io_formats.snapshot", None),
        (mchb.io_formats.RunWriter, "close", "io_formats.close", None),
        (mchb.verification, "mms_darcy", "verification.darcy", None),
        (mchb.verification, "mms_ch_operator", "verification.operators", None),
        (mchb.verification, "mms_nutrient_operator", "verification.operators",
         None),
        (mchb.verification, "mms_advection", "verification.operators", None),
        (mchb.parameters, "build_default_scenario", "parameters.scenario", None),
        (mchb.stepping, "build_specs", "parameters.specs", None),
        (mchb.state, "build_initial_state", "state.initial", None),
    ]
    for mod in (mchb.stepping, mchb.verification, mchb.flow):
        out.append((mod, "fv_diffusion_matrix", "grid.assembly", None))
    for mod in (mchb.stepping, mchb.diagnostics, mchb.verification):
        out.append((mod, "advective_divergence", "grid.advect", None))
    for name in CONSTITUTIVE:
        out.append((mchb.constitutive, name, f"constitutive.{name}", None))
    return out


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    t0: float
    t1: float = 0.0
    count: int = 0       # solver iterations reported by the call, if any

    @property
    def ms(self) -> float:
        return 1e3 * (self.t1 - self.t0)


class _TracedLU:
    """Factorization proxy that records each ``solve`` as a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("scipy.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def span(self, name: str):
        return _SpanContext(self, name)

    def _wrap(self, fn, name, count_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    sp.count = int(count_of(result))
                return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count_of in _targets():
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, count_of))
        orig_splu = spla.splu
        self._saved.append((spla, "splu", orig_splu))
        traced_splu = self._wrap(orig_splu, "scipy.splu", None)
        spla.splu = lambda *a, **k: _TracedLU(traced_splu(*a, **k), self)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "name": s.name,
                                     "t0": s.t0, "t1": s.t1, "count": s.count})
                         + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.span = Span(self.name, parent, time.perf_counter())
        tr.spans.append(self.span)
        tr._stack.append(len(tr.spans) - 1)
        return self.span

    def __exit__(self, *exc):
        self.span.t1 = time.perf_counter()
        self.tracer._stack.pop()


# ---------------------------------------------------------------------------
# per-layer split

# direct children of a step, grouped into the reported layers
STEP_PARTS = {
    "stepping.ch_ms": ("stepping.ch",),
    "stepping.nutrient_ms": ("stepping.nutrient",),
    "flow.solve_ms": ("flow.solve",),
    "flow.force_ms": ("flow.force",),
    "constitutive.ms": ("constitutive.",),
    "grid.advect_ms": ("grid.advect",),
    "diagnostics.ms": ("diagnostics.",),
}

PER_LAYER = (
    "stepping.step_ms", "stepping.self_ms", "stepping.ch_ms",
    "stepping.ch_factorizations", "stepping.ch_factorize_ms",
    "stepping.ch_lu_solves", "stepping.nutrient_ms",
    "stepping.nutrient_cg_iters",
    "flow.solve_ms", "flow.iterations", "flow.factorizations",
    "flow.factorize_ms", "flow.force_ms",
    "constitutive.ms", "constitutive.calls",
    "grid.assemblies", "grid.assembly_ms", "grid.advect_ms",
    "diagnostics.ms", "diagnostics.free_energy_calls",
    "io_formats.ms", "io_formats.bytes",
    "verification.darcy_ms", "verification.operators_ms",
    "parameters.ms", "state.initial_ms",
    "trace.overhead_s",
)


def _matches(name: str, prefixes) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in prefixes)


def layer_split(spans: list[Span], op_name: str, setup_end: int,
                io_bytes: float) -> tuple[dict, list[str]]:
    """Per-operation layer metrics from the spans, plus integrity problems.

    ``op_name`` names the span of one operation (a step, or one MMS pass);
    spans before index ``setup_end`` belong to the set-up.  Times are per
    operation except the set-up ones, which are per set-up.  A layer's time
    counts its spans that are not nested in another span of the same kind.
    On the stepping workloads the parts in ``STEP_PARTS`` count only calls
    the step makes itself, so that they add up to the step.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def inside(i, prefix):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name.startswith(prefix):
                return True
            p = spans[p].parent
        return False

    ops = [i for i, s in enumerate(spans) if s.name == op_name]
    stepping = op_name == "stepping.step"
    m = dict.fromkeys(PER_LAYER, 0.0)

    def add(key, value):
        m[key] += value

    for i in ops if stepping else ():
        step = spans[i]
        add("stepping.step_ms", step.ms)
        add("stepping.self_ms", step.ms - sum(spans[k].ms for k in children[i]))
        for k in children[i]:
            for key, prefixes in STEP_PARTS.items():
                if _matches(spans[k].name, prefixes):
                    add(key, spans[k].ms)

    for i, s in enumerate(spans):
        name = s.name
        if i < setup_end:
            if name.startswith("parameters.") and not inside(i, "parameters."):
                m["parameters.ms"] += s.ms
            elif name == "state.initial" and not inside(i, "state.initial"):
                m["state.initial_ms"] += s.ms
            continue
        if name.startswith("io_formats."):
            add("io_formats.ms", s.ms)
        if not inside(i, op_name):
            continue
        if name == "scipy.splu":
            if inside(i, "stepping.ch"):
                add("stepping.ch_factorizations", 1)
                add("stepping.ch_factorize_ms", s.ms)
            if inside(i, "flow.solve"):
                add("flow.factorizations", 1)
                add("flow.factorize_ms", s.ms)
        elif name == "scipy.lu_solve" and inside(i, "stepping.ch"):
            add("stepping.ch_lu_solves", 1)
        elif name == "stepping.nutrient":
            add("stepping.nutrient_cg_iters", s.count)
        elif name == "flow.solve" and not inside(i, "flow.solve"):
            add("flow.iterations", s.count)
            if not stepping:
                add("flow.solve_ms", s.ms)
        elif name == "grid.assembly" and not inside(i, "grid.assembly"):
            add("grid.assemblies", 1)
            add("grid.assembly_ms", s.ms)
        elif name.startswith("constitutive.") and not inside(i, "constitutive.") \
                and not inside(i, "diagnostics."):
            add("constitutive.calls", 1)
            if not stepping:
                add("constitutive.ms", s.ms)
        elif name == "grid.advect" and not stepping:
            add("grid.advect_ms", s.ms)
        elif name == "diagnostics.free_energy":
            add("diagnostics.free_energy_calls", 1)
        elif name == "verification.darcy":
            add("verification.darcy_ms", s.ms)
        elif name == "verification.operators":
            add("verification.operators_ms", s.ms)
    # totals to per-operation means; sums of integers divide exactly alike
    # in every run, so the counts repeat bit for bit
    for key in m:
        if key not in ("parameters.ms", "state.initial_ms"):
            m[key] /= max(len(ops), 1)
    if any(s.name.startswith("io_formats.") for s in spans[setup_end:]):
        m["io_formats.bytes"] = io_bytes
    problems = []
    if ops and stepping:
        problems = self_time_sum(m["stepping.step_ms"],
                                 [m["stepping.self_ms"]]
                                 + [m[key] for key in STEP_PARTS])
    return m, problems
