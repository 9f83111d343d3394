"""Pointwise constitutive functions of the four-cell-species tumor model.

Everything in this module is closed-form algebra: the componentwise
double-well potential and its convex split, the quadratic-minus-affine
chemical free energy, the saturating proliferation law, truncations, the
phase/nutrient/velocity source terms and the mobilities.  Functions
broadcast over trailing axes, so they evaluate equally on single points
(shape ``(L,)``) and on field stacks (shape ``(L, ny, nx)``).

Component conventions: ``p[0]`` proliferating, ``p[1]`` quiescent, ``p[2]``
necrotic tumor fraction; ``s[0]`` the single nutrient density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .parameters import ModelParameters


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
    """Coefficients of ``N(p, s) = chi_sigma/2 |s|^2 - (s.B p + a.p)``.

    The paper's quadratic-minus-affine form also allows a term ``b.s``
    affine in the nutrient; this model has ``b = 0``, so there is none.
    """

    chi_sigma: float
    coupling: np.ndarray     # (M, L)
    a_vec: np.ndarray        # (L,)


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """A source variant and the model whose constants the sources read.

    ``variant`` selects the truncated linear exchange chain ("linear") or the
    interfacial form scaled by 1/epsilon ("interfacial").  The rates,
    ``kappa``, ``c_p``, ``r``, ``epsilon`` and ``sigma_Omega`` are read from
    ``model`` under their own names; no source reads the wall constants
    ``K`` and ``sigma_Gamma``, which only ``diagnostics.nutrient_bc`` turns
    into the nutrient wall.  The paper's general decomposition
    ``S = Lambda(p, s) - theta(p, s) m`` has ``theta = 0`` in this model, so
    the sources are ``Lambda`` alone.
    """

    variant: str
    model: ModelParameters

    def __post_init__(self):
        if self.variant not in ("linear", "interfacial"):
            raise ValueError(f"unknown source variant {self.variant!r}")


# ---------------------------------------------------------------------------
# potential

def double_well_gradient(p: np.ndarray) -> np.ndarray:
    """Gradient ``2 p (1 - p) (1 - 2 p)`` of ``psi(p) = sum_i p_i^2 (1 -
    p_i)^2`` alone, in the Horner form ``p (2 + p (4 p - 6))``: one new
    array, every other pass in place."""
    p = np.asarray(p, dtype=float)
    out = 4.0 * p
    out -= 6.0
    out *= p
    out += 2.0
    out *= p
    return out


def _well_root(p: np.ndarray) -> np.ndarray:
    """``p (1 - p)`` per component, whose square is its double well."""
    out = 1.0 - np.asarray(p, dtype=float)
    out *= p
    return out


def potential_value(p: np.ndarray) -> np.ndarray:
    """Value of ``psi(p) = sum_i p_i^2 (1 - p_i)^2`` alone."""
    q = _well_root(p)
    return (q * q).sum(axis=0)


def potential_sum(p: np.ndarray) -> float:
    """``potential_value(p)`` summed over the cells, with one temporary."""
    q = _well_root(p)
    return float(np.vdot(q, q))


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


def convex_gradient(p: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Gradient ``psi' + split_shift p`` of the convex part of the split.

    With ``concave_gradient`` it sums to the full gradient exactly.
    """
    p = np.asarray(p, dtype=float)
    out = double_well_gradient(p)
    out += spec.split_shift * p
    return out


def concave_gradient(p: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Gradient of the concave part ``-split_shift |p|^2 / 2`` of the split."""
    return -spec.split_shift * np.asarray(p, dtype=float)


def convex_part_diag_hessian(p: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Diagonal of the convex-part Hessian (the split keeps it diagonal)."""
    p = np.asarray(p, dtype=float)
    return 12.0 * p**2 - 12.0 * p + 2.0 + spec.split_shift


def convex_hessian_range(p: np.ndarray,
                         spec: PotentialSpec) -> tuple[float, float]:
    """Least and greatest ``convex_part_diag_hessian`` on ``[min p, max p]``.

    The Hessian is a convex parabola with its vertex at 1/2, so its least
    value on the range is at 1/2 clipped into it and its greatest at an end:
    three evaluations in place of one per cell.  The pair equals the grid's
    min and max when 1/2 lies outside the range and bounds them when it
    lies inside.
    """
    lo, hi = float(np.min(p)), float(np.max(p))
    h = convex_part_diag_hessian(np.array([lo, min(max(0.5, lo), hi), hi]),
                                 spec)
    return float(h.min()), float(h.max())


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
             - np.einsum("l,l...->...", spec.a_vec, p))
    a_col = spec.a_vec.reshape(spec.a_vec.shape + (1,) * (p.ndim - 1))
    n_phi = -np.einsum("ml,m...->l...", B, s) - a_col
    n_sigma = spec.chi_sigma * s - bp
    n_ss = spec.chi_sigma * np.eye(M)
    return n_val, n_phi, n_sigma, n_ss


# ---------------------------------------------------------------------------
# scalar model functions

def saturating_proliferation(s, rate_p: float, c_p: float):
    """Bounded nondecreasing C^1 proliferation response.

    Linear ``rate_p * s`` up to ``c_p - 1``, saturated at ``rate_p * c_p``
    beyond ``c_p``, a monotone cubic bridge in between, and ``rate_p tanh(s)``
    for negative arguments (value/slope matched at zero); ``c_p > 1``.  Each
    branch is evaluated only where it applies.
    """
    s = np.asarray(s, dtype=float)
    x = np.atleast_1d(s)
    out = rate_p * x
    neg = x < 0.0
    out[neg] = rate_p * np.tanh(x[neg])
    bridge = (x > c_p - 1.0) & (x < c_p)
    t = x[bridge] - (c_p - 1.0)
    # products, not t**3: a power is a libm call per element
    out[bridge] = rate_p * (c_p - 1.0) + rate_p * (t + t * t - t * t * t)
    out[x >= c_p] = rate_p * c_p
    return out.reshape(s.shape) if s.ndim else float(out[0])


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

def source_phase(p, s, m, spec: SourceSpec, *, with_velocity: bool = False):
    """Phase source ``Lambda_phi(p, s)``; ``m`` is unused since theta = 0.

    With ``with_velocity`` the volume source of ``source_velocity``,
    ``1 . Lambda_phi + S_healthy``, follows as a second item, from the same
    evaluation of the proliferation law and of the truncation.
    """
    c = spec.model
    p = np.asarray(p, dtype=float)
    pr = saturating_proliferation(np.asarray(s, dtype=float)[0], c.rate_p,
                                  c.c_p)
    if spec.variant == "linear":
        h1 = truncation(p[0], c.r)
        lam = np.stack([
            h1 * pr - c.rate_q * p[0],
            c.rate_q * p[0] - c.rate_a * p[1],
            c.rate_a * p[1] - c.rate_d * truncation(p[2], c.r),
        ])
        healthy = -c.kappa * pr * h1
    else:
        inv_eps = 1.0 / c.epsilon
        lam = np.stack([
            inv_eps * interface_polynomial(p[0], c.r)[1] * (pr - c.rate_q),
            inv_eps * interface_polynomial(p[1], c.r)[1] * (c.rate_q - c.rate_a),
            inv_eps * interface_polynomial(p[2], c.r)[1] * (c.rate_a - c.rate_d),
        ])
        healthy = 0.0
    return (lam, lam.sum(axis=0) + healthy) if with_velocity else lam


def source_nutrient(p, s, m, spec: SourceSpec) -> np.ndarray:
    """Nutrient source ``C h_r(p1) s - B (sigma_Omega - s)``; ``m`` is unused.

    The proliferating fraction is truncated so the consumption term keeps the
    linear growth bound; on the physical range of the phase field the
    truncation is the identity.
    """
    c = spec.model
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    return (c.rate_c * truncation(p[0], c.r) * s[0]
            - c.rate_b * (c.sigma_Omega - s[0]))[None]


def source_velocity(p, s, spec: SourceSpec) -> np.ndarray:
    """Volume source ``1 . Lambda_phi + S_healthy``; bounded for both variants."""
    return source_phase(p, s, None, spec, with_velocity=True)[1]


def source_growth_constant(spec: SourceSpec) -> float:
    """Analytic constant B_S with |S_phi| + |S_sigma| <= B_S (|p|+|s|+|m|+1)."""
    c = spec.model
    hr_max = c.r + 2.0
    p_max = c.rate_p * c.c_p
    if spec.variant == "linear":
        b_phi = hr_max * p_max + c.rate_d * hr_max + 2.0 * (c.rate_q + c.rate_a)
    else:
        poly_max = _poly_sup(c.r)
        rate_span = max(abs(p_max - c.rate_q), c.rate_p,
                        abs(c.rate_q - c.rate_a), abs(c.rate_a - c.rate_d))
        b_phi = 3.0 * poly_max * (rate_span + c.rate_q + c.rate_p) / c.epsilon
    b_sig = c.rate_c * hr_max + c.rate_b * (c.sigma_Omega + 1.0)
    return b_phi + b_sig


def velocity_source_bound(spec: SourceSpec) -> float:
    """Analytic constant A_S with |S_v| <= A_S everywhere."""
    c = spec.model
    hr_max = c.r + 2.0
    p_max = c.rate_p * c.c_p
    if spec.variant == "linear":
        return (1.0 - c.kappa) * p_max * hr_max + c.rate_d * hr_max \
            + c.rate_p * hr_max
    poly_max = _poly_sup(c.r)
    rate_span = max(abs(p_max - c.rate_q) + c.rate_p,
                    abs(c.rate_q - c.rate_a), abs(c.rate_a - c.rate_d))
    return 3.0 * poly_max * rate_span / c.epsilon


def _poly_sup(r: float) -> float:
    """``sup_s p(h_r(s)) = p(2 + r)``, approached as ``s -> +infinity``.

    ``h_r`` maps the line onto ``(-1 - r, 2 + r)``.  ``p`` is even, at most
    4/27 on [-1, 1] and increasing in ``|x|`` beyond, so its supremum on
    that interval is its value at the farther end, ``2 + r``.
    """
    q = 2.0 + r
    return q**2 * (1.0 - q**2) ** 2


# ---------------------------------------------------------------------------
# mobilities

def mobility(p, s):
    """Diagonal phase mobilities and the nutrient mobility: all equal to one.

    The model's mobilities are the unit ones; the update operators and the
    dissipation are built on that fact, and this is its one definition.
    """
    shape = np.shape(p)
    return np.ones(shape), np.ones(shape[1:])
