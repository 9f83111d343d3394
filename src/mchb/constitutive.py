"""Pointwise constitutive functions of the four-cell-species tumor model.

Everything in this module is closed-form algebra: the componentwise
double-well potential and its convex split, the quadratic-minus-affine
chemical free energy, the saturating proliferation law, truncations, the
phase/nutrient/velocity source terms, mobilities and viscosities.  Functions
broadcast over trailing axes, so they evaluate equally on single points
(shape ``(L,)``) and on field stacks (shape ``(L, ny, nx)``).

Component conventions: ``p[0]`` proliferating, ``p[1]`` quiescent, ``p[2]``
necrotic tumor fraction; ``s[0]`` the single nutrient density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PotentialSpec:
    """Componentwise double well with a quadratic stabilization split.

    The split is ``psi = psi1 + psi2`` with ``psi1 = psi + s0/2 |p|^2``
    (convex for ``s0 >= 1``) and ``psi2 = -s0/2 |p|^2`` (concave, globally
    Lipschitz gradient).
    """

    split_shift: float = 1.0

    def __post_init__(self):
        if self.split_shift < 1.0:
            raise ValueError("split_shift below 1 loses convexity of the split")


@dataclass(frozen=True, eq=False)
class ChemicalEnergySpec:
    """Coefficients of ``N(p, s) = chi_sigma/2 |s|^2 - (s.B p + a.p + b.s)``."""

    chi_sigma: float
    coupling: np.ndarray     # (M, L)
    a_vec: np.ndarray        # (L,)
    b_vec: np.ndarray        # (M,)


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """Rates and shape choices for the phase/nutrient/velocity sources.

    ``variant`` selects the truncated linear exchange chain ("linear") or the
    interfacial form scaled by 1/epsilon ("interfacial").  The paper's
    general decomposition ``S = Lambda(p, s) - theta(p, s) m`` has
    ``theta = 0`` in this model, so the sources are ``Lambda`` alone.
    """

    variant: str
    rate_p: float
    rate_q: float
    rate_a: float
    rate_d: float
    rate_c: float
    rate_b: float
    kappa: float
    c_p: float
    r: float
    epsilon: float
    sigma_omega: float
    k_boundary: float
    sigma_gamma: float

    def __post_init__(self):
        if self.variant not in ("linear", "interfacial"):
            raise ValueError(f"unknown source variant {self.variant!r}")


@dataclass(frozen=True)
class ViscositySpec:
    """Constant shear/bulk viscosity levels."""

    eta0: float
    lambda0: float


# ---------------------------------------------------------------------------
# potential

def double_well_gradient(p: np.ndarray) -> np.ndarray:
    """Gradient of ``psi(p) = sum_i p_i^2 (1 - p_i)^2`` alone."""
    return 2.0 * p * (1.0 - p) * (1.0 - 2.0 * p)


def potential_value(p: np.ndarray) -> np.ndarray:
    """Value of ``psi(p) = sum_i p_i^2 (1 - p_i)^2`` alone."""
    p = np.asarray(p, dtype=float)
    return (p**2 * (1.0 - p) ** 2).sum(axis=0)


def potential_eval(p: np.ndarray):
    """Value, gradient and Hessian of ``psi(p) = sum_i p_i^2 (1 - p_i)^2``."""
    p = np.asarray(p, dtype=float)
    value = potential_value(p)
    grad = double_well_gradient(p)
    diag = 12.0 * p**2 - 12.0 * p + 2.0
    L = p.shape[0]
    hess = np.zeros((L,) + p.shape)
    for i in range(L):
        hess[i, i] = diag[i]
    return value, grad, hess


def concave_gradient(p: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Gradient of the concave part ``-split_shift |p|^2 / 2`` of the split."""
    return -spec.split_shift * np.asarray(p, dtype=float)


def potential_split(p: np.ndarray, spec: PotentialSpec):
    """Convex/concave gradient parts; they sum to the full gradient exactly."""
    p = np.asarray(p, dtype=float)
    return (double_well_gradient(p) + spec.split_shift * p,
            concave_gradient(p, spec))


def convex_part_diag_hessian(p: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Diagonal of the convex-part Hessian (the split keeps it diagonal)."""
    p = np.asarray(p, dtype=float)
    return 12.0 * p**2 - 12.0 * p + 2.0 + spec.split_shift


# ---------------------------------------------------------------------------
# chemical free energy

def chemical_energy(p: np.ndarray, s: np.ndarray, spec: ChemicalEnergySpec):
    """``N`` and its first/second derivatives in the affine-coupling form."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    B = spec.coupling
    M = B.shape[0]
    bp = np.einsum("ml,l...->m...", B, p)
    n_val = (0.5 * spec.chi_sigma * (s**2).sum(axis=0)
             - (s * bp).sum(axis=0)
             - np.einsum("l,l...->...", spec.a_vec, p)
             - np.einsum("m,m...->...", spec.b_vec, s))
    n_phi = -np.einsum("ml,m...->l...", B, s) - _column(spec.a_vec, p)
    n_sigma = spec.chi_sigma * s - bp - _column(spec.b_vec, s)
    n_ss = spec.chi_sigma * np.eye(M)
    return n_val, n_phi, n_sigma, n_ss


def _column(vec: np.ndarray, like: np.ndarray) -> np.ndarray:
    out = np.asarray(vec, dtype=float)
    return out.reshape(out.shape + (1,) * (like.ndim - 1))


# ---------------------------------------------------------------------------
# scalar model functions

def saturating_proliferation(s, rate_p: float, c_p: float):
    """Bounded nondecreasing C^1 proliferation response.

    Linear ``rate_p * s`` up to ``c_p - 1``, saturated at ``rate_p * c_p``
    beyond ``c_p``, a monotone cubic bridge in between, and ``rate_p tanh(s)``
    for negative arguments (value/slope matched at zero).
    """
    s = np.asarray(s, dtype=float)
    t = s - (c_p - 1.0)
    bridge = rate_p * (c_p - 1.0) + rate_p * (t + t**2 - t**3)
    out = np.where(s < 0.0, rate_p * np.tanh(s), rate_p * s)
    out = np.where(s > c_p - 1.0, bridge, out)
    out = np.where(s >= c_p, rate_p * c_p, out)
    return out if out.ndim else float(out)


def truncation(s, r: float):
    """C^1 truncation: identity on [-r, 1+r], tanh saturation outside."""
    if r <= 0:
        raise ValueError("truncation radius must be positive")
    s = np.asarray(s, dtype=float)
    hi = 1.0 + r
    out = np.where(s > hi, hi + np.tanh(s - hi), s)
    out = np.where(s < -r, -r + np.tanh(s + r), out)
    return out if out.ndim else float(out)


def interface_polynomial(s, r: float):
    """``p(s) = s^2 (1 - s^2)^2`` and its truncated composition ``p(h_r(s))``."""
    s = np.asarray(s, dtype=float)
    p_val = s**2 * (1.0 - s**2) ** 2
    hr = truncation(s, r)
    p_r_val = hr**2 * (1.0 - hr**2) ** 2
    if p_val.ndim:
        return p_val, p_r_val
    return float(p_val), float(p_r_val)


# ---------------------------------------------------------------------------
# source terms

def _lambda_phase(p: np.ndarray, s: np.ndarray, spec: SourceSpec) -> np.ndarray:
    s0 = s[0]
    if spec.variant == "linear":
        pr = saturating_proliferation(s0, spec.rate_p, spec.c_p)
        return np.stack([
            truncation(p[0], spec.r) * pr - spec.rate_q * p[0],
            spec.rate_q * p[0] - spec.rate_a * p[1],
            spec.rate_a * p[1] - spec.rate_d * truncation(p[2], spec.r),
        ])
    pr = saturating_proliferation(s0, spec.rate_p, spec.c_p)
    inv_eps = 1.0 / spec.epsilon
    return np.stack([
        inv_eps * interface_polynomial(p[0], spec.r)[1] * (pr - spec.rate_q),
        inv_eps * interface_polynomial(p[1], spec.r)[1] * (spec.rate_q - spec.rate_a),
        inv_eps * interface_polynomial(p[2], spec.r)[1] * (spec.rate_a - spec.rate_d),
    ])


def source_phase(p, s, m, spec: SourceSpec) -> np.ndarray:
    """Phase source ``Lambda_phi(p, s)``; ``m`` is unused since theta = 0."""
    return _lambda_phase(np.asarray(p, dtype=float), np.asarray(s, dtype=float),
                         spec)


def source_nutrient(p, s, m, spec: SourceSpec) -> np.ndarray:
    """Nutrient source ``C h_r(p1) s - B (sigma_Omega - s)``; ``m`` is unused.

    The proliferating fraction is truncated so the consumption term keeps the
    linear growth bound; on the physical range of the phase field the
    truncation is the identity.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    return (spec.rate_c * truncation(p[0], spec.r) * s[0]
            - spec.rate_b * (spec.sigma_omega - s[0]))[None]


def source_healthy(p, s, spec: SourceSpec):
    """Source of the derived healthy fraction closing the volume balance."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if spec.variant == "linear":
        pr = saturating_proliferation(s[0], spec.rate_p, spec.c_p)
        return -spec.kappa * pr * truncation(p[0], spec.r)
    return np.zeros(np.broadcast(p[0], s[0]).shape)


def source_velocity(p, s, spec: SourceSpec) -> np.ndarray:
    """Volume source ``1 . Lambda_phi + S_healthy``; bounded for both variants."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    return _lambda_phase(p, s, spec).sum(axis=0) + source_healthy(p, s, spec)


def source_growth_constant(spec: SourceSpec) -> float:
    """Analytic constant B_S with |S_phi| + |S_sigma| <= B_S (|p|+|s|+|m|+1)."""
    hr_max = spec.r + 2.0
    p_max = spec.rate_p * spec.c_p
    if spec.variant == "linear":
        b_phi = hr_max * p_max + spec.rate_d * hr_max + 2.0 * (spec.rate_q + spec.rate_a)
    else:
        poly_max = _poly_sup(spec.r)
        rate_span = max(abs(p_max - spec.rate_q), spec.rate_p,
                        abs(spec.rate_q - spec.rate_a), abs(spec.rate_a - spec.rate_d))
        b_phi = 3.0 * poly_max * (rate_span + spec.rate_q + spec.rate_p) / spec.epsilon
    b_sig = spec.rate_c * hr_max + spec.rate_b * (spec.sigma_omega + 1.0)
    return b_phi + b_sig


def velocity_source_bound(spec: SourceSpec) -> float:
    """Analytic constant A_S with |S_v| <= A_S everywhere."""
    hr_max = spec.r + 2.0
    p_max = spec.rate_p * spec.c_p
    if spec.variant == "linear":
        return (1.0 - spec.kappa) * p_max * hr_max + spec.rate_d * hr_max \
            + spec.rate_p * hr_max
    poly_max = _poly_sup(spec.r)
    rate_span = max(abs(p_max - spec.rate_q) + spec.rate_p,
                    abs(spec.rate_q - spec.rate_a), abs(spec.rate_a - spec.rate_d))
    return 3.0 * poly_max * rate_span / spec.epsilon


def _poly_sup(r: float) -> float:
    grid = np.linspace(-r - 1.0, 2.0 + r, 2001)
    return float(interface_polynomial(grid, r)[1].max()) + 1e-12


# ---------------------------------------------------------------------------
# mobilities

def mobility(p, s):
    """Diagonal phase mobilities and the nutrient mobility: all equal to one.

    The model's mobilities are the unit ones; the update operators and the
    dissipation are built on that fact, and this is its one definition.
    """
    shape = np.shape(p)
    return np.ones(shape), np.ones(shape[1:])
