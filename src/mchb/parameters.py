"""Model constants, the assumption validator, and scenario configuration.

The scalar model constants live in :class:`ModelParameters`.  The validator
checks the eight structural assumptions the analysis rests on (domain and
positive coefficients, uniformly definite mobilities, viscosity bounds,
quadratic-minus-affine chemical energy, source growth bounds, bounded volume
source, potential coercivity/split, and the interface-thickness inequality
``epsilon < gamma chi_sigma A_psi / (8 C_G^2)``) and reports verdicts instead
of raising.

Scenario presets, one table (``PRESETS``) read by
``build_default_scenario``, the JSON configuration schema, the config
round-trip and ``check_ladder``, the grid-ladder check of the convergence
studies, also live here.  Loading a configuration (``load_config``,
``config_from_dict``) only parses and validates it; ``assumption_report``
reports the assumptions and ``require_assumptions`` enforces them.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import constitutive as cst


class ConfigError(ValueError):
    """Malformed configuration document or parameter set."""


class StrictAssumptionError(ConfigError):
    """Assumption violation under strict enforcement."""


# annotation -> (check, what a field with it must be)
_FIELD_KINDS = {
    "int": (lambda val: isinstance(val, numbers.Integral)
            and not isinstance(val, bool), "an integer"),
    # compared, not converted: an integer past the float range must not raise
    "float": (lambda val: isinstance(val, numbers.Real)
              and not isinstance(val, bool) and abs(val) <= sys.float_info.max,
              "a finite number"),
    "bool": (lambda val: isinstance(val, bool), "true or false"),
}


def _type_violations(obj) -> list[str]:
    """Numeric and boolean fields whose value does not fit their annotation."""
    out = []
    for f in fields(obj):
        if f.type not in _FIELD_KINDS:
            continue
        ok, what = _FIELD_KINDS[f.type]
        val = getattr(obj, f.name)
        if not ok(val):
            out.append(f"{f.name} must be {what}, got {val!r}")
    return out


class _Validated:
    """``validate``: the object itself, or every violation in one error."""

    def validate(self):
        v = self.violations()
        if v:
            raise ConfigError("; ".join(v))
        return self


@dataclass(frozen=True)
class ModelParameters(_Validated):
    """Every physical and model constant of the four-species system.

    Each constant lives here once, under one name: the source spec holds
    this object and reads it, and only ``diagnostics.nutrient_bc`` turns
    ``K`` and ``sigma_Gamma`` into the nutrient wall.  The counts are not constants: three tumor
    phases, one nutrient and two dimensions are the model itself, fixed by
    the 1 x 3 coupling matrix of ``build_specs`` and by the grid.
    """

    gamma: float = 1.0          # surface tension coefficient
    epsilon: float = 0.004      # interface thickness (default set by presets)
    nu: float = 1.0             # permeability coefficient
    chi_sigma: float = 1.0      # nutrient energy weight
    chi_phi: float = 2.0        # chemotaxis weight
    rate_p: float = 1.0         # proliferation
    rate_q: float = 1.0         # quiescence
    rate_a: float = 1.0         # apoptosis
    rate_d: float = 1.0         # degradation
    rate_c: float = 1.0         # consumption
    rate_b: float = 1.0         # vasculature supply
    kappa: float = 0.5          # healthy-loss fraction
    c_p: float = 2.0            # proliferation saturation concentration
    c_n: float = 0.3            # necrosis threshold
    c_q: float = 0.7            # quiescence threshold
    alpha: float = 1.0          # quiescence energy weight
    beta: float = 1.0           # necrosis energy weight
    r: float = 1.0              # truncation radius
    K: float = 1.0              # boundary permeability
    sigma_Gamma: float = 1.0    # boundary nutrient level
    sigma_Omega: float = 1.0    # vasculature nutrient level

    def violations(self) -> list[str]:
        v = _type_violations(self)
        if v:
            return v  # the value checks below assume well-typed fields
        pos = [("gamma", self.gamma), ("epsilon", self.epsilon), ("nu", self.nu),
               ("chi_sigma", self.chi_sigma), ("rate_p", self.rate_p),
               ("rate_q", self.rate_q), ("rate_a", self.rate_a),
               ("rate_d", self.rate_d), ("rate_c", self.rate_c),
               ("alpha", self.alpha), ("beta", self.beta), ("r", self.r)]
        for name, val in pos:
            if not (val > 0 and math.isfinite(val)):
                v.append(f"{name} must be positive and finite, got {val}")
        nonneg = [("chi_phi", self.chi_phi), ("rate_b", self.rate_b),
                  ("K", self.K), ("sigma_Gamma", self.sigma_Gamma),
                  ("sigma_Omega", self.sigma_Omega)]
        for name, val in nonneg:
            if not (val >= 0 and math.isfinite(val)):
                v.append(f"{name} must be nonnegative and finite, got {val}")
        if not 0.0 <= self.kappa <= 1.0:
            v.append(f"kappa must lie in [0, 1], got {self.kappa}")
        if not self.c_p > 1.0:
            v.append(f"c_p must exceed 1, got {self.c_p}")
        if not 0.0 < self.c_n < self.c_q:
            v.append(f"critical concentrations must satisfy 0 < c_n < c_q, "
                     f"got c_n={self.c_n}, c_q={self.c_q}")
        return v


@dataclass
class SpecBundle:
    """Model constants bundled with the constitutive spec objects."""

    params: ModelParameters
    potential: cst.PotentialSpec
    chem: cst.ChemicalEnergySpec
    sources: cst.SourceSpec


def build_specs(model: ModelParameters, *,
                source_variant: str = "linear") -> SpecBundle:
    """Assemble the concrete-model spec objects from the scalar constants.

    The chemical spec holds the model's coefficient arrays (the coupling
    ``B = (chi_phi, -alpha, -beta)`` and ``a = (0, alpha c_q, beta c_n)``);
    the source spec is the variant with ``model`` itself, copying nothing.
    """
    return SpecBundle(
        params=model,
        potential=cst.PotentialSpec(),
        chem=cst.ChemicalEnergySpec(
            chi_sigma=model.chi_sigma,
            coupling=np.array([[model.chi_phi, -model.alpha, -model.beta]]),
            a_vec=np.array([0.0, model.alpha * model.c_q,
                            model.beta * model.c_n])),
        sources=cst.SourceSpec(source_variant, model),
    )


# ---------------------------------------------------------------------------
# assumption validator

B_PSI = 1.0  # shift in the coercivity bound psi(p) >= A_psi |p|^2 - B_psi


def potential_coercivity_constant() -> float:
    """Largest A with ``psi(p) + B_PSI >= A |p|^2`` for the double well.

    The bound is separable: ``psi + B_PSI - A |p|^2 = sum_i g(x_i) + B_PSI``
    with ``g(x) = x^2 ((1-x)^2 - A)``, and the sum's minimum is three times
    that of ``g``.  So the bound holds for every ``p`` exactly when
    ``3 min_x g(x) >= -B_PSI``, that is, when
    ``A <= f(x) = (1-x)^2 + B_PSI / (3 x^2)`` for every ``x != 0``.  The
    largest such A is the minimum of ``f``.  As ``f`` tends to infinity at
    0 and at +-infinity, the minimum sits where ``f'(x) = 0``, at a real
    root of ``x^4 - x^3 - B_PSI/3`` (x = 1.19522... for B_PSI = 1).  ``f``
    at the real parts of the other roots is no smaller, so the minimum over
    all four is A_psi (0.27144754... for B_PSI = 1).
    """
    roots = np.roots([1.0, -1.0, 0.0, 0.0, -B_PSI / 3.0])
    return float(min((1.0 - x) ** 2 + B_PSI / (3.0 * x * x) for x in roots.real))


def chemical_growth_constant(chem: cst.ChemicalEnergySpec) -> float:
    """C_G with ``|G(p, s)| <= C_G (|p||s| + |p| + |s| + 1)``."""
    return max(float(np.linalg.norm(chem.coupling, 2)),
               float(np.linalg.norm(chem.a_vec)))


def epsilon_bound(model: ModelParameters, chem: cst.ChemicalEnergySpec) -> float:
    a_psi = potential_coercivity_constant()
    c_g = chemical_growth_constant(chem)
    try:
        return model.gamma * model.chi_sigma * a_psi / (8.0 * c_g**2)
    except OverflowError:  # C_G^2 past the float range: no epsilon is admissible
        return 0.0


@dataclass
class AssumptionReport:
    """Verdicts for the structural assumptions plus the derived constants."""

    passed: dict[str, bool]
    a_psi: float
    c_g: float
    eps_bound: float
    messages: list[str] = field(default_factory=list)
    parameter_errors: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return not self.parameter_errors and all(self.passed.values())

    def failing(self) -> list[str]:
        return [k for k, ok in self.passed.items() if not ok]

    def lines(self) -> list[str]:
        out = [f"A_psi = {self.a_psi:.6g}  (B_psi = {B_PSI})",
               f"C_G   = {self.c_g:.6g}",
               f"eps_bound = {self.eps_bound:.6g}"]
        for err in self.parameter_errors:
            out.append(f"parameter error: {err}")
        for key in sorted(self.passed):
            out.append(f"{key}: {'pass' if self.passed[key] else 'FAIL'}")
        out.extend(self.messages)
        return out


def validate_assumptions(model: ModelParameters, *,
                         source_variant: str = "linear",
                         eta0: float | None = None,
                         lambda0: float | None = None) -> AssumptionReport:
    """Check the eight structural assumptions; violations are reported.

    A3 checks the viscosity levels ``eta0`` and ``lambda0`` that are given
    and passes, saying so, when neither is.  Invalid parameters fail all
    eight, with ``c_g`` and ``eps_bound`` NaN.
    """
    passed: dict[str, bool] = {}
    msgs: list[str] = []
    a_psi = potential_coercivity_constant()
    param_errors = model.violations()
    if param_errors:
        for key in (f"A{i}" for i in range(1, 9)):
            passed[key] = False
        msgs.append("parameter-ordering failures reported before assumption checks")
        return AssumptionReport(passed, a_psi, math.nan, math.nan, msgs,
                                param_errors)

    bundle = build_specs(model, source_variant=source_variant)
    chem = bundle.chem
    c_g = chemical_growth_constant(chem)
    eps_b = epsilon_bound(model, chem) if c_g > 0 else math.inf
    # a fixed seed, so the sampled checks give the same verdict every call
    rng = np.random.default_rng(7041)

    # A1: domain and positive coefficients (rectangle stands in for smooth);
    # violations() has already rejected a nonpositive nu, epsilon or gamma
    passed["A1"] = True
    msgs.append("A1: nu, epsilon, gamma > 0 enforced by the parameter checks; "
                "rectangular domain; corner regularity caveat accepted")

    # A2: mobility tensors uniformly positive definite.
    p_s = rng.uniform(-2.0, 3.0, size=(3, 256))
    s_s = rng.uniform(-1.0, 3.0, size=(1, 256))
    phase_m, nut_m = cst.mobility(p_s, s_s)
    passed["A2"] = bool(phase_m.min() > 0.0 and nut_m.min() > 0.0)
    msgs.append("A2: unit diagonal phase mobilities and unit nutrient mobility")

    # A3: the bounds of the viscosity levels given (a Brinkman scenario's
    # eta0 and lambda0)
    a3 = []
    if eta0 is not None:
        a3.append((f"0 < eta0={eta0:g}", eta0 > 0))
    if lambda0 is not None:
        a3.append((f"0 <= lambda0={lambda0:g}", lambda0 >= 0))
    passed["A3"] = all(ok for _, ok in a3)
    msgs.append("A3: " + " and ".join(text for text, _ in a3) + " checked"
                if a3 else "A3: no Brinkman viscosity levels supplied; "
                "bounds enforced at scenario level")

    # A4: chemical energy in quadratic-minus-affine form with chi_sigma > 0.
    passed["A4"] = model.chi_sigma > 0 and np.all(np.isfinite(chem.coupling)) \
        and np.all(np.isfinite(chem.a_vec))
    a_n = float(np.linalg.norm(chem.coupling, 2) + np.linalg.norm(chem.a_vec))
    msgs.append(f"A4: N_ss = chi_sigma I with chi_sigma={model.chi_sigma:g}; "
                f"derivative growth constant A_N <= {a_n:.4g}")

    # A5: source decomposition S = Lambda - theta m with linear Lambda growth;
    # boundary source in the affine form K (Lambda_Gamma - s).
    b_s = cst.source_growth_constant(bundle.sources)
    scale = rng.uniform(0, 6, size=512)
    p_big = rng.uniform(-1, 1, size=(3, 512)) * 10.0**scale
    s_big = rng.uniform(-1, 1, size=(1, 512)) * 10.0**scale
    m_big = rng.uniform(-1, 1, size=(3, 512)) * 10.0**scale
    sp = cst.source_phase(p_big, s_big, m_big, bundle.sources)
    ss = cst.source_nutrient(p_big, s_big, m_big, bundle.sources)
    norms = (np.linalg.norm(sp, axis=0) + np.linalg.norm(ss, axis=0))
    budget = b_s * (np.linalg.norm(p_big, axis=0) + np.linalg.norm(s_big, axis=0)
                    + np.linalg.norm(m_big, axis=0) + 1.0)
    passed["A5"] = bool(np.all(norms <= budget * (1.0 + 1e-12)))
    msgs.append(f"A5: B_S = {b_s:.4g}; theta_phi = theta_sigma = 0; boundary "
                f"source affine with Lambda_Gamma = sigma_Gamma = "
                f"{model.sigma_Gamma:g}, K = {model.K:g} >= 0")

    # A6: bounded volume source.
    a_s = cst.velocity_source_bound(bundle.sources)
    sv = cst.source_velocity(p_big, s_big, bundle.sources)
    passed["A6"] = bool(np.all(np.abs(sv) <= a_s * (1.0 + 1e-12)))
    msgs.append(f"A6: A_S = {a_s:.4g}")

    # A7: potential coercivity, convex/concave split, Lipschitz concave part,
    # and quartic growth (rho = 4).
    pts = rng.uniform(-2.0, 3.0, size=(3, 1000))
    hess_diag = cst.convex_part_diag_hessian(pts, bundle.potential)
    val, grad, _ = cst.potential_eval(pts)
    coercive = bool(np.all(val >= a_psi * (pts**2).sum(axis=0) - B_PSI - 1e-12))
    rho = 4.0
    growth = bool(np.all(np.abs(val) <=
                         (B_PSI + 3.0) * ((pts**2).sum(axis=0)**(rho / 2) + 1.0)))
    passed["A7"] = a_psi > 0 and hess_diag.min() >= -1e-12 and coercive and growth
    s0 = bundle.potential.split_shift
    msgs.append(f"A7: split shift s0 = {s0:g}; concave-part "
                f"gradient Lipschitz with constant s0; growth exponent rho = 4 "
                "(theta_phi is identically zero, so the positive-definite "
                "source-coupling route does not supply the mu^2 control "
                "that case formally presumes)")

    # A8: interface thickness inequality.
    passed["A8"] = model.epsilon < eps_b
    if not passed["A8"]:
        msgs.append(
            "A8: require epsilon < gamma*chi_sigma*A_psi/(8*C_G^2) = "
            f"{eps_b:.6g}; got epsilon = {model.epsilon:g}")
    else:
        msgs.append(f"A8: epsilon = {model.epsilon:g} < eps_bound = {eps_b:.6g}")

    msgs.append("A_psi and the supremum of p(h_r) in B_S, A_S are exact; C_G, "
                "B_S, A_S are analytic bounds; the analysis only requires "
                "their existence")
    return AssumptionReport(passed, a_psi, c_g, eps_b, msgs, [])


def assumption_report(config: ScenarioConfig) -> AssumptionReport:
    """The assumption report of a scenario: its model, source variant and flow.

    The viscosity levels go to A3 only for the Brinkman backend, the one
    that reads them.
    """
    levels = {"eta0": config.eta0, "lambda0": config.lambda0} \
        if config.flow_backend == "brinkman" else {}
    return validate_assumptions(
        config.model, source_variant=config.source_variant, **levels)


def require_assumptions(config: ScenarioConfig) -> None:
    """Raise ``StrictAssumptionError`` unless every assumption holds."""
    report = assumption_report(config)
    if not report.all_pass:
        raise StrictAssumptionError(
            "assumption check failed under strict mode: "
            + ", ".join(report.failing()))


def default_parameters(**overrides) -> ModelParameters:
    """Order-one defaults with epsilon placed at 0.8 of its admissible bound."""
    base = ModelParameters(**overrides)
    if "epsilon" not in overrides:
        base = replace(base, epsilon=0.8 * epsilon_bound(base, build_specs(base).chem))
    return base.validate()


# ---------------------------------------------------------------------------
# scenario configuration

@dataclass(frozen=True)
class ScenarioConfig(_Validated):
    """Fully resolved run description: the model, its domain and data.

    The scheme's constants are not fields: the phase tolerance and update
    cap live in ``stepping``, the flow tolerance in ``flow`` and the
    random-smooth amplitude in ``state``, each beside its justification.
    """

    model: ModelParameters
    grid_nx: int = 64
    grid_ny: int = 64
    domain_lx: float = 1.0
    domain_ly: float = 1.0
    dt: float = 1e-6
    t_end: float = 1e-4
    flow_backend: str = "darcy"
    flow_enabled: bool = True
    eta0: float = 1e-2
    lambda0: float = 1e-2
    source_variant: str = "linear"
    sources_enabled: bool = True
    initial_condition: str = "stratified"
    init_modes: int = 5
    seed: int = 20240
    snapshot_every: int = 0

    def violations(self) -> list[str]:
        v = self.model.violations()
        bad_types = _type_violations(self)
        if bad_types:
            return v + bad_types  # the value checks below assume well-typed fields
        if not self.dt > 0:
            v.append(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            v.append(f"t_end must be nonnegative, got {self.t_end}")
        if self.grid_nx < 8 or self.grid_ny < 8:
            v.append(f"cell counts must be >= 8, got {self.grid_nx}x{self.grid_ny}")
        if self.domain_lx <= 0 or self.domain_ly <= 0:
            v.append("domain extents must be positive")
        elif min(self.grid_nx, self.grid_ny) > 0:
            for name, cells in (("domain_lx", self.grid_nx), ("domain_ly", self.grid_ny)):
                try:  # the operators divide by h**2, which must be finite
                    ok = 0.0 < 1.0 / (getattr(self, name) / cells)**2 < math.inf
                except (OverflowError, ZeroDivisionError):
                    ok = False
                if not ok:
                    v.append(f"{name} over {cells} cells gives a cell width "
                             "whose square or its inverse is not finite")
        if self.flow_backend not in ("darcy", "brinkman"):
            v.append(f"flow_backend must be darcy or brinkman, got {self.flow_backend!r}")
        if self.flow_backend == "brinkman" and not self.eta0 > 0:
            v.append(f"eta0 must be positive for the brinkman backend, got {self.eta0}")
        if self.lambda0 < 0:
            v.append(f"lambda0 must be nonnegative, got {self.lambda0}")
        if self.source_variant not in ("linear", "interfacial"):
            v.append(f"source_variant must be linear or interfacial, "
                     f"got {self.source_variant!r}")
        if self.initial_condition not in ("stratified", "random-smooth", "uniform"):
            v.append(f"unknown initial_condition {self.initial_condition!r}")
        if self.init_modes < 1:
            v.append(f"init_modes must be at least 1, got {self.init_modes}")
        if self.snapshot_every < 0:
            v.append(f"snapshot_every must be nonnegative, got {self.snapshot_every}")
        if self.seed < 0:
            v.append(f"seed must be nonnegative, got {self.seed}")
        return v


def default_dt(model: ModelParameters) -> float:
    """Interface relaxation time scale, 0.1 eps^2 / gamma."""
    return 0.1 * model.epsilon**2 / model.gamma


# name -> (model overrides, steps to t_end, config overrides); the model
# takes ``default_parameters`` and the step ``default_dt`` of that model
PRESETS = {
    "stratified-tumor": ({}, 100, {"domain_lx": 20.0, "domain_ly": 20.0}),
    "zero-source": ({"K": 0.0}, 200, {"sources_enabled": False,
                                      "initial_condition": "random-smooth"}),
    "darcy-limit": ({}, 5, {"domain_lx": 20.0, "domain_ly": 20.0,
                            "flow_backend": "brinkman"}),
    "mms": ({}, 0, {"sources_enabled": False, "initial_condition": "uniform"}),
}


def build_default_scenario(name: str) -> ScenarioConfig:
    """Resolve one of the named ``PRESETS`` into a full configuration."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    model_overrides, steps, overrides = PRESETS[name]
    model = default_parameters(**model_overrides)
    dt = default_dt(model)
    return ScenarioConfig(model=model, dt=dt, t_end=steps * dt,
                          **overrides).validate()


_MODEL_FIELDS = set(ModelParameters.__dataclass_fields__)
_CONFIG_FIELDS = set(ScenarioConfig.__dataclass_fields__) - {"model"}


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def serialize_config(config: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2)


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a JSON-style mapping over stratified-tumor defaults.

    Unknown keys and malformed values are errors.  The structural
    assumptions are not checked here: ``assumption_report`` reports them
    and ``require_assumptions`` enforces them.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"configuration document must be an object, got {type(doc).__name__}")
    base = build_default_scenario("stratified-tumor")
    model_doc = doc.get("model", {})
    if not isinstance(model_doc, dict):
        raise ConfigError("key 'model' must be an object")
    unknown = set(model_doc) - _MODEL_FIELDS
    if unknown:
        raise ConfigError(f"unknown model keys: {', '.join(sorted(unknown))}")
    unknown = set(doc) - _CONFIG_FIELDS - {"model"}
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    try:
        config = replace(base, model=replace(base.model, **model_doc),
                         **{k: doc[k] for k in doc if k != "model"})
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return config.validate()


def load_config(text: str) -> ScenarioConfig:
    """Parse a JSON configuration document (empty means all defaults)."""
    text = text.strip()
    if not text:
        return build_default_scenario("stratified-tumor")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise ConfigError(f"configuration parse error: {exc}") from None
    return config_from_dict(doc)


def check_ladder(ns) -> None:
    """Raise ``ValueError`` unless ``ns`` is 2+ distinct counts, each >= 8."""
    if len(ns) < 2 or len(set(ns)) < len(ns) or min(ns) < 8:
        raise ValueError(f"convergence study needs at least two distinct "
                         f"cell counts, each at least 8, got {list(ns)}")
