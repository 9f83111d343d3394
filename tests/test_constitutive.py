"""Pointwise constitutive functions against independent oracles.

Derivative checks compare analytic expressions with central finite
differences computed here in the test; arithmetic examples are evaluated by
hand or with sympy-free expansion of the defining formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mchb.constitutive as cst
from mchb.parameters import build_specs, default_parameters

POT = cst.PotentialSpec()


def finite_diff_gradient(func, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (func(x + e) - func(x - e)) / (2 * step)
    return out


def bundle(**over):
    return build_specs(default_parameters(**over))


class TestPotential:
    def test_minimum_at_origin(self):
        val, grad, _ = cst.potential_eval(np.zeros(3))
        assert val == 0.0
        assert np.all(grad == 0.0)

    def test_minimum_at_unit_vectors(self):
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            val, grad, _ = cst.potential_eval(e)
            assert val == pytest.approx(0.0, abs=1e-15)
            assert np.abs(grad).max() == pytest.approx(0.0, abs=1e-15)

    def test_gradient_quarter_point(self):
        # central finite differences of the value, step 1e-6
        _, grad, _ = cst.potential_eval(np.array([0.25, 0.0, 0.0]))
        fd = finite_diff_gradient(lambda p: cst.potential_eval(p)[0],
                                  np.array([0.25, 0.0, 0.0]))
        assert grad == pytest.approx(fd, rel=1e-9, abs=1e-9)
        assert grad[0] == pytest.approx(0.1875, abs=1e-13)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-2.0, 3.0, size=(40, 3))
        for p in pts:
            val, grad, hess = cst.potential_eval(p)
            fd = finite_diff_gradient(lambda q: cst.potential_eval(q)[0], p)
            assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(grad).max())
            fd_h = np.stack([finite_diff_gradient(
                lambda q, i=i: cst.potential_eval(q)[1][i], p) for i in range(3)])
            assert np.abs(hess - fd_h).max() <= 1e-5 * max(1.0, np.abs(hess).max())

    def test_nonnegative_with_zeros_only_at_wells(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(-2, 3, size=(3, 500))
        val, _, _ = cst.potential_eval(p)
        assert np.all(val >= 0.0)

    @given(st.lists(st.floats(-3, 4, allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_split_sums_to_gradient(self, coords):
        p = np.array(coords)
        gc, gx = cst.convex_gradient(p, POT), cst.concave_gradient(p, POT)
        _, grad, _ = cst.potential_eval(p)
        scale = max(1.0, np.abs(grad).max(), np.abs(gc).max())
        assert np.abs((gc + gx) - grad).max() <= 4e-16 * scale

    def test_split_concave_part_at_origin(self):
        gx = cst.concave_gradient(np.zeros(3), cst.PotentialSpec(split_shift=1.0))
        assert np.all(gx == 0.0)

    def test_convex_part_hessian_psd(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 3.0, size=(3, 1000))
        diag = cst.convex_part_diag_hessian(pts, POT)
        assert diag.min() >= -1e-12

    def test_horner_gradient_matches_the_product_form(self):
        p = np.random.default_rng(11).uniform(-0.5, 1.5, size=(3, 64, 64))
        product = 2.0 * p * (1.0 - p) * (1.0 - 2.0 * p)
        assert np.abs(cst.double_well_gradient(p) - product).max() \
            <= 1e-15 * np.abs(product).max()

    @pytest.mark.parametrize("lo, hi", [(-0.4, 0.3), (0.6, 1.4), (0.51, 0.9),
                                        (-0.3, 1.2), (0.45, 0.55)])
    @pytest.mark.parametrize("shift", [1.0, 2.5])
    def test_hessian_range_of_the_value_range(self, lo, hi, shift):
        # the least value of the parabola is at 1/2 when 1/2 is in range
        pot = cst.PotentialSpec(split_shift=shift)
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = rng.uniform(lo, hi, size=(32, 32))
            h = cst.convex_part_diag_hessian(p, pot)
            h_min, h_max = cst.convex_hessian_range(p, pot)
            assert h_max == h.max()
            if lo < 0.5 < hi:
                assert h_min <= h.min()
                assert h_min == shift - 1.0
            else:
                assert h_min == h.min()


class TestChemicalEnergy:
    def test_origin_values(self):
        b = bundle()
        n, n_phi, n_sigma, _ = cst.chemical_energy(np.zeros(3), np.zeros(1), b.chem)
        assert n == 0.0
        m = b.params
        assert n_phi == pytest.approx([0.0, -m.alpha * m.c_q, -m.beta * m.c_n])
        assert np.all(n_sigma == 0.0)

    def test_second_derivative_is_chi_identity(self):
        b = bundle()
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.uniform(-2, 3, 3)
            s = rng.uniform(-1, 3, 1)
            _, _, _, n_ss = cst.chemical_energy(p, s, b.chem)
            assert np.allclose(n_ss, b.params.chi_sigma * np.eye(1))

    def test_nutrient_derivative_concrete_point(self):
        # finite-difference oracle on N in s at p = e2, s = 0.5
        b = bundle()
        p = np.array([0.0, 1.0, 0.0])
        s = np.array([0.5])
        _, _, n_sigma, _ = cst.chemical_energy(p, s, b.chem)
        fd = (cst.chemical_energy(p, s + 1e-6, b.chem)[0]
              - cst.chemical_energy(p, s - 1e-6, b.chem)[0]) / 2e-6
        assert n_sigma[0] == pytest.approx(fd, rel=1e-8)
        assert n_sigma[0] == pytest.approx(b.params.chi_sigma * 0.5 + b.params.alpha)

    def test_phase_derivative_finite_difference(self):
        b = bundle()
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.uniform(-2, 3, 3)
            s = rng.uniform(-1, 3, 1)
            _, n_phi, n_sigma, _ = cst.chemical_energy(p, s, b.chem)
            fd_p = finite_diff_gradient(
                lambda q: cst.chemical_energy(q, s, b.chem)[0], p)
            fd_s = finite_diff_gradient(
                lambda t: cst.chemical_energy(p, t, b.chem)[0], s)
            assert np.abs(n_phi - fd_p).max() <= 1e-6 * max(1, np.abs(n_phi).max())
            assert np.abs(n_sigma - fd_s).max() <= 1e-6 * max(1, np.abs(n_sigma).max())


class TestScalarLaws:
    def test_proliferation_plateaus(self):
        assert cst.saturating_proliferation(0.0, 1.0, 2.0) == 0.0
        assert cst.saturating_proliferation(10.0, 1.0, 2.0) == 2.0
        assert cst.saturating_proliferation(0.5, 1.0, 2.0) == 0.5

    @pytest.mark.parametrize("rate_p, c_p", [(1.0, 2.0), (1.3, 2.0),
                                             (0.7, 1.5), (2.0, 3.7)])
    def test_proliferation_matches_the_where_formula(self, rate_p, c_p):
        # the law as one np.where chain over the whole field, t**3 included
        junctions = [0.0, c_p - 1.0, c_p]
        s = np.concatenate([
            np.linspace(-4.0, c_p + 3.0, 20001), junctions,
            np.nextafter(junctions, -np.inf), np.nextafter(junctions, np.inf),
            [-50.0, -1e-300, 1e-300, c_p + 1e6]])
        t = s - (c_p - 1.0)
        bridge = rate_p * (c_p - 1.0) + rate_p * (t + t**2 - t**3)
        ref = np.where(s < 0.0, rate_p * np.tanh(s), rate_p * s)
        ref = np.where(s > c_p - 1.0, bridge, ref)
        ref = np.where(s >= c_p, rate_p * c_p, ref)
        got = cst.saturating_proliferation(s.reshape(-1, 1), rate_p, c_p)
        assert got.shape == (s.size, 1)
        assert (np.abs(got[:, 0] - ref) <= 2 * np.spacing(np.abs(ref))).all()
        for k in range(-13, 0):  # the scalar path at every listed point
            value = cst.saturating_proliferation(s[k], rate_p, c_p)
            assert type(value) is float and value == got[k, 0]

    def test_proliferation_monotone_bounded(self):
        s = np.linspace(-10, 10, 4001)
        p = cst.saturating_proliferation(s, 1.3, 2.0)
        assert np.all(np.diff(p) >= -1e-14)
        assert p.max() <= 1.3 * 2.0 + 1e-12
        assert p.min() >= -1.3

    @pytest.mark.parametrize("s0", [0.0, 1.0, 2.0])
    def test_proliferation_c1_junctions(self, s0):
        # one-sided difference quotients agree at every junction point
        h = 1e-6
        left = (cst.saturating_proliferation(s0, 1.0, 2.0)
                - cst.saturating_proliferation(s0 - h, 1.0, 2.0)) / h
        right = (cst.saturating_proliferation(s0 + h, 1.0, 2.0)
                 - cst.saturating_proliferation(s0, 1.0, 2.0)) / h
        assert left == pytest.approx(right, abs=1e-5)

    def test_truncation_identity_and_saturation(self):
        assert cst.truncation(0.5, 1.0) == 0.5
        assert cst.truncation(50.0, 1.0) == pytest.approx(3.0, abs=1e-12)
        assert cst.truncation(-50.0, 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_truncation_c1_at_junction(self):
        h = 1e-7
        for s0 in (2.0, -1.0):
            left = (cst.truncation(s0, 1.0) - cst.truncation(s0 - h, 1.0)) / h
            right = (cst.truncation(s0 + h, 1.0) - cst.truncation(s0, 1.0)) / h
            assert left == pytest.approx(1.0, abs=1e-5)
            assert right == pytest.approx(1.0, abs=1e-5)

    @given(st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_truncation_identity_region(self, s):
        if -1.0 <= s <= 2.0:
            assert cst.truncation(s, 1.0) == s

    def test_interface_polynomial(self):
        assert cst.interface_polynomial(0.0, 1.0) == (0.0, 0.0)
        assert cst.interface_polynomial(1.0, 1.0) == (0.0, 0.0)
        p_val, _ = cst.interface_polynomial(0.5, 1.0)
        assert p_val == pytest.approx(0.140625, abs=1e-15)

    def test_interface_polynomial_truncated_composition(self):
        s = np.linspace(-4, 5, 101)
        _, pr = cst.interface_polynomial(s, 1.0)
        hr = cst.truncation(s, 1.0)
        assert np.allclose(pr, hr**2 * (1 - hr**2)**2)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_interface_polynomial_supremum(self, r):
        # h_r maps onto (-1-r, 2+r); p is even and increasing past |x| = 1
        q = 2.0 + r
        sup = q**2 * (1.0 - q**2) ** 2
        assert cst._poly_sup(r) == sup
        vals = [cst.interface_polynomial(s, r)[1] for s in (5.0, 10.0, 20.0)]
        assert all(v <= sup for v in vals)
        assert vals[-1] == pytest.approx(sup, rel=1e-6)
        if r == 1.0:
            assert vals == pytest.approx([569.86, 575.9997, 576.0], abs=5e-3)


class TestSources:
    def test_phase_source_vanishes_at_zero(self):
        for variant in ("linear", "interfacial"):
            b = build_specs(default_parameters(), source_variant=variant)
            out = cst.source_phase(np.zeros(3), np.zeros(1), np.zeros(3), b.sources)
            assert np.abs(out).max() == pytest.approx(0.0, abs=1e-15)

    def test_linear_phase_source_example(self):
        # arithmetic oracle: h_r(1) P(1) - Q*1 = 0, Q*1 = 1, A*0 - D*h_r(0) = 0
        b = bundle()
        out = cst.source_phase(np.array([1.0, 0, 0]), np.array([1.0]),
                               np.zeros(3), b.sources)
        assert out == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)

    def test_interfacial_phase_source_pure_wells(self):
        b = build_specs(default_parameters(), source_variant="interfacial")
        out = cst.source_phase(np.ones(3), np.array([0.5]), np.zeros(3), b.sources)
        assert np.abs(out).max() == pytest.approx(0.0, abs=1e-12)

    def test_nutrient_source(self):
        b = bundle(rate_b=0.0)
        assert cst.source_nutrient(np.array([1.0, 0, 0]), np.array([1.0]),
                                   np.zeros(3), b.sources)[0] == pytest.approx(1.0)
        b = bundle(rate_b=1.0, sigma_Omega=1.0)
        assert cst.source_nutrient(np.zeros(3), np.zeros(1), np.zeros(3),
                                   b.sources)[0] == pytest.approx(-1.0)
        # equilibrium with the vasculature
        assert cst.source_nutrient(np.array([0.0, 0.3, 0.2]), np.array([1.0]),
                                   np.zeros(3), b.sources)[0] == pytest.approx(0.0)

    def test_velocity_source_expansion(self):
        # symbolic expansion oracle: S_v - sum(S_phi) is the healthy source
        # -kappa P(sigma) h_r(phi_1) of the linear variant
        b = bundle(kappa=1.0)
        sp = b.sources
        assert sp.variant == "linear"
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(-1.5, 2.5, 3)
            s = rng.uniform(-1, 3, 1)
            healthy = cst.source_velocity(p, s, sp) \
                - cst.source_phase(p, s, np.zeros(3), sp).sum()
            expect = -b.params.kappa \
                * cst.saturating_proliferation(s[0], b.params.rate_p,
                                               b.params.c_p) \
                * cst.truncation(p[0], b.params.r)
            assert healthy == pytest.approx(expect, rel=1e-13, abs=1e-13)
        assert cst.source_velocity(np.array([1.0, 0, 0]), np.array([0.5]),
                                   b.sources) == pytest.approx(0.0, abs=1e-14)

    def test_velocity_source_zero_at_origin_and_wells(self):
        for variant in ("linear", "interfacial"):
            b = build_specs(default_parameters(), source_variant=variant)
            assert cst.source_velocity(np.zeros(3), np.zeros(1), b.sources) \
                == pytest.approx(0.0, abs=1e-14)
        b = build_specs(default_parameters(), source_variant="interfacial")
        assert cst.source_velocity(np.ones(3), np.array([2.0]), b.sources) \
            == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["linear", "interfacial"])
    def test_growth_bounds_large_arguments(self, variant):
        b = build_specs(default_parameters(), source_variant=variant)
        b_s = cst.source_growth_constant(b.sources)
        a_s = cst.velocity_source_bound(b.sources)
        rng = np.random.default_rng(17)
        mag = 10.0 ** rng.uniform(0, 6, size=400)
        p = rng.uniform(-1, 1, (3, 400)) * mag
        s = rng.uniform(-1, 1, (1, 400)) * mag
        mvec = rng.uniform(-1, 1, (3, 400)) * mag
        sp = cst.source_phase(p, s, mvec, b.sources)
        ss = cst.source_nutrient(p, s, mvec, b.sources)
        lhs = np.linalg.norm(sp, axis=0) + np.linalg.norm(ss, axis=0)
        rhs = b_s * (np.linalg.norm(p, axis=0) + np.linalg.norm(s, axis=0)
                     + np.linalg.norm(mvec, axis=0) + 1)
        assert np.all(lhs <= rhs)
        assert np.all(np.abs(cst.source_velocity(p, s, b.sources)) <= a_s)


class TestMobilityAndStress:
    def test_default_mobility(self):
        phase, nut = cst.mobility(np.zeros(3), np.zeros(1))
        assert phase.shape == (3,) and np.all(phase == 1.0) and nut == 1.0
        phase, nut = cst.mobility(np.full((3, 4, 5), 2.0), np.zeros((1, 4, 5)))
        assert phase.shape == (3, 4, 5) and nut.shape == (4, 5)
        assert np.all(phase == 1.0) and np.all(nut == 1.0)
