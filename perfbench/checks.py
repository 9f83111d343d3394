"""Correctness checks on the benchmark's workload outputs.

Each check takes plain numbers or arrays, recomputes what it needs with raw
numpy, and returns a list of problems; an empty list means the output
passed.  The checks rest on properties the scheme must have (energy decay,
volume bookkeeping, the Darcy limit, second-order MMS slopes) or on
independent recomputations, never on stored copies of earlier output.  This
module does not import mchb, so the tests can feed it deliberately wrong
outputs.
"""

from __future__ import annotations

import csv

import numpy as np

# the report header exactly as the package README documents it
CSV_HEADER = ("t,dt,E,ginzburg_landau,chemical,dissipation,boundary_term,"
              "source_work,identity_residual,mass_phi_1,mass_phi_2,mass_phi_3,"
              "mass_healthy,mass_sigma_1,div_residual,picard_iters").split(",")

# snapshot layout: phi_1..3, mu_1..3, sigma, v_x, v_y, p
SNAPSHOT_COMPONENTS = 10


def energy_non_increasing(energies, rtol: float = 1e-8) -> list[str]:
    """No step raises the energy by more than ``rtol (1 + |E0|)``."""
    e = np.asarray(energies, dtype=float)
    tol = rtol * (1.0 + abs(e[0]))
    rise = np.diff(e)
    bad = np.flatnonzero(rise > tol)
    return [f"energy rose by {rise[k]:.3e} > {tol:.3e} at step {k + 1}"
            for k in bad]


def energy_strictly_decreasing(energies) -> list[str]:
    e = np.asarray(energies, dtype=float)
    bad = np.flatnonzero(np.diff(e) >= 0.0)
    return [f"energy did not decrease at step {k + 1} "
            f"({e[k]:.17g} -> {e[k + 1]:.17g})" for k in bad]


def bookkeeping_defect(phi: np.ndarray, cell_area: float, area: float) -> float:
    """Relative volume defect of the tumor phases plus the healthy fraction.

    The healthy fraction is formed per cell as ``1 - sum_i phi_i``, so the
    defect is what the four volume fractions fail to fill of the domain.
    """
    tumor = phi.sum(axis=(1, 2)).sum() * cell_area
    healthy = (1.0 - phi.sum(axis=0)).sum() * cell_area
    return abs(tumor + healthy - area) / area


def bookkeeping(defects, limit: float = 1e-14) -> list[str]:
    d = np.asarray(defects, dtype=float)
    return [f"volume bookkeeping defect {d[k]:.3e} > {limit:.0e} at step {k + 1}"
            for k in np.flatnonzero(~(d <= limit))]


def mass_drift(masses, limit: float = 1e-9) -> list[str]:
    """Phase masses (steps x phases, first row initial) stay within ``limit``."""
    m = np.asarray(masses, dtype=float)
    drift = np.abs(m - m[0]).max()
    return [] if drift <= limit else [f"phase-mass drift {drift:.3e} > {limit:.0e}"]


def all_finite(flags) -> list[str]:
    return [f"non-finite field after step {k + 1}"
            for k, ok in enumerate(flags) if not ok]


def raw_free_energy(phi, sigma, hx: float, hy: float, *, gamma: float,
                    epsilon: float, chi_sigma: float, coupling, a_vec) -> float:
    """Discrete free energy assembled from the fields with raw numpy.

    Double well ``sum_i phi_i^2 (1 - phi_i)^2``, face differences with
    zero-flux walls, and ``chi/2 sigma^2 - sigma B.phi - a.phi`` for the
    nutrient, all by the midpoint rule.
    """
    w = hx * hy
    psi = (phi**2 * (1.0 - phi)**2).sum()
    grad2 = ((np.diff(phi, axis=2) / hx)**2).sum() \
        + ((np.diff(phi, axis=1) / hy)**2).sum()
    s = sigma[0]
    chem = 0.5 * chi_sigma * s**2 - s * np.tensordot(coupling, phi, axes=1) \
        - np.tensordot(a_vec, phi, axes=1)
    return float(gamma / epsilon * psi * w + 0.5 * gamma * epsilon * grad2 * w
                 + chem.sum() * w)


def energy_matches(reported: float, recomputed: float,
                   rtol: float = 1e-10) -> list[str]:
    gap = abs(reported - recomputed)
    if gap <= rtol * abs(recomputed):
        return []
    return [f"reported energy {reported:.17g} differs from the recomputed "
            f"{recomputed:.17g} by {gap:.3e}"]


def darcy_limit(etas, gaps, residuals, reference_norm: float,
                rel_limit: float = 1e-3) -> list[str]:
    """Gaps and Darcy residuals fall strictly as eta falls; last gap is small."""
    order = np.argsort(etas)[::-1]
    g = np.asarray(gaps, dtype=float)[order]
    r = np.asarray(residuals, dtype=float)[order]
    out = []
    if not np.all(np.diff(g) < 0.0):
        out.append(f"Brinkman-to-Darcy gap not strictly decreasing: {g.tolist()}")
    if not np.all(np.diff(r) < 0.0):
        out.append(f"Darcy residual not strictly decreasing: {r.tolist()}")
    rel = g[-1] / reference_norm
    if not rel <= rel_limit:
        out.append(f"relative gap {rel:.3e} at the smallest eta > {rel_limit:.0e}")
    return out


def fitted_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(h), h = 1/n."""
    return float(np.polyfit(-np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


def mms_slopes(studies) -> list[str]:
    """``studies``: (name, grid sizes, errors against the closed form)."""
    out = []
    for name, ns, errors in studies:
        slope = fitted_slope(ns, errors)
        if name.startswith("darcy"):
            ok = abs(slope - 2.0) <= 0.2
            window = "|slope - 2| <= 0.2"
        else:
            ok = slope >= 1.8
            window = "slope >= 1.8"
        if not ok:
            out.append(f"{name}: slope {slope:.3f} outside {window}")
    return out


def csv_report(path, steps: int, energies=None) -> list[str]:
    """The report parses back with the documented header, one row per step.

    ``energies``, when given, are the stepper's reported energies; the E
    column must hold them exactly (shortest round-trip formatting).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        return [f"report header {rows[0] if rows else None} is not the documented one"]
    data = rows[1:]
    if len(data) != steps:
        return [f"report has {len(data)} rows for {steps} steps"]
    try:
        table = np.array([[float(v) for v in row] for row in data])
    except ValueError as exc:
        return [f"report row does not parse: {exc}"]
    if table.shape[1] != len(CSV_HEADER):
        return [f"report rows have {table.shape[1]} columns"]
    if energies is not None and not np.array_equal(table[:, 2], energies):
        return ["report E column differs from the reported energies"]
    return []


def snapshot(stack: np.ndarray, shape: tuple[int, int],
             expected: np.ndarray | None = None) -> list[str]:
    """A snapshot read back has the documented layout (and content)."""
    want = (SNAPSHOT_COMPONENTS,) + tuple(shape)
    if stack.shape != want:
        return [f"snapshot shape {stack.shape} != {want}"]
    if expected is not None and not np.array_equal(stack, expected):
        return ["snapshot differs from the state it was written from"]
    return []


def self_time_sum(step_ms: float, parts_ms, rtol: float = 0.03) -> list[str]:
    """Per-layer self-times of a step add up to the step time."""
    total = float(sum(parts_ms))
    if abs(total - step_ms) <= rtol * step_ms:
        return []
    return [f"layer times sum to {total:.3f} ms, step takes {step_ms:.3f} ms"]
