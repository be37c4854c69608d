import math

import numpy as np
import pytest

from oscillent import (Coherent, DomainError, NumberState, OscillatorSystem,
                       Superposition, UnboundGaussian, UnsupportedStateError,
                       classical_covariance, covariance_coherent, density_grid,
                       position_covariance, purity_coherent,
                       purity_unbound_gaussian, sample_classical_covariance,
                       schmidt_analyze)
from oscillent.gaussian import arccosh_guarded
from oscillent.grid import GridSpec


class TestPurityCoherent:
    def test_g1_is_separable_for_any_mass_ratio(self):
        for mu1 in np.linspace(0.02, 0.98, 25):
            sys = OscillatorSystem.from_dimensionless(1.0, float(mu1))
            assert abs(purity_coherent(sys) - 1.0) < 1e-12

    def test_g4_equal_masses(self):
        # 0.8 first obtained from the grid-Schmidt oracle; equals 2 sqrt(g)/(g+1)
        sys = OscillatorSystem.from_dimensionless(4.0, 0.5)
        assert purity_coherent(sys) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry_on_grid(self):
        gs = np.logspace(-1.2, 1.2, 50)
        mus = np.linspace(0.02, 0.98, 50)
        for g in gs:
            for mu1 in mus:
                p = purity_coherent(OscillatorSystem.from_dimensionless(float(g), float(mu1)))
                p_ginv = purity_coherent(OscillatorSystem.from_dimensionless(float(1 / g), float(mu1)))
                p_muswap = purity_coherent(OscillatorSystem.from_dimensionless(float(g), float(1 - mu1)))
                assert abs(p - p_ginv) < 1e-12
                assert abs(p - p_muswap) < 1e-12

    @pytest.mark.parametrize("mu1", [0.5, 0.3, 0.05])
    def test_g_inverse_symmetry_at_the_float_range_edge(self, mu1):
        # at g = 1e300 the product under the root overflows and used to give 0
        p = purity_coherent(OscillatorSystem.from_dimensionless(1e300, mu1))
        p_inv = purity_coherent(OscillatorSystem.from_dimensionless(1e-300, mu1))
        assert p == pytest.approx(p_inv, rel=1e-15, abs=0)
        assert p == pytest.approx(1e-150 / math.sqrt(mu1 * (1 - mu1)), rel=1e-15, abs=0)

    def test_tiny_c(self):
        # P = c / (1 + c^2 / 4) at mu1 = 1/2; gamma = 1e100 overflows the product
        sys = OscillatorSystem.from_untrapped(0.5, c=1e-100)
        assert purity_coherent(sys) == pytest.approx(1e-100, rel=1e-15, abs=0)

    def test_underflowing_product(self):
        # hbar = 1e300 puts gamma and Gamma near 1e-150, and the product under
        # the root underflows to 0; the purity does not depend on hbar
        sys = OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0, hbar=1e300)
        ref = OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0)
        assert purity_coherent(sys) == pytest.approx(purity_coherent(ref), rel=1e-15)

    def test_finite_product_keeps_the_direct_bits(self):
        for g in (1e-150, 1e-3, 0.7, 5.0, 1e3, 1e150):
            for mu1 in (0.01, 0.3, 0.5):
                sys = OscillatorSystem.from_dimensionless(g, mu1)
                gam, Gam, mu2 = sys.gamma, sys.Gamma, sys.mu2
                assert purity_coherent(sys) == gam * Gam / math.sqrt(
                    (gam * gam + Gam * Gam * mu1 * mu1) * (gam * gam + Gam * Gam * mu2 * mu2))

    def test_displacement_independence_against_oracle(self):
        rng = np.random.default_rng(11)
        sys = OscillatorSystem.from_dimensionless(5.0, 0.35)
        ref = purity_coherent(sys)
        for _ in range(5):
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            res = schmidt_analyze(sys, Coherent(alpha, beta))
            assert res.purity == pytest.approx(ref, abs=1e-6)


class TestPurityUnbound:
    def test_tau_zero_reduces_to_coherent(self):
        sys = OscillatorSystem.from_untrapped(0.3, c=2.5)
        assert purity_unbound_gaussian(sys, 0.0) == pytest.approx(
            purity_coherent(sys), abs=1e-15)

    def test_balanced_start(self):
        mu1 = 0.4
        sys = OscillatorSystem.from_untrapped(mu1, gamma=math.sqrt(mu1 * (1 - mu1)))
        assert purity_unbound_gaussian(sys, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_abs_tau(self):
        sys = OscillatorSystem.from_untrapped(0.5, c=3.0)
        taus = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        vals = [purity_unbound_gaussian(sys, t) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # even in tau
        assert purity_unbound_gaussian(sys, -3.0) == purity_unbound_gaussian(sys, 3.0)

    def test_oracle_value_tau10(self):
        # frozen from schmidt_analyze on the sampled packet wavefunction
        sys = OscillatorSystem.from_untrapped(0.5, c=3.0)
        assert purity_unbound_gaussian(sys, 10.0) == pytest.approx(
            0.2853102206192857, abs=1e-6)

    def test_trapped_system_rejected(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.5)
        with pytest.raises(DomainError):
            purity_unbound_gaussian(sys, 1.0)

    def test_tiny_c(self):
        # gamma = 1e100: gamma ** 4 raised OverflowError before the old
        # fallback for an overflowing tau^2 was reached
        sys = OscillatorSystem.from_untrapped(0.5, c=1e-100)
        assert purity_unbound_gaussian(sys, 0.0) == pytest.approx(1e-100, rel=1e-15, abs=0)
        assert purity_unbound_gaussian(sys, 3.0) == pytest.approx(1e-100 / math.sqrt(10.0),
                                                                  rel=1e-15, abs=0)

    def test_huge_c_and_tau(self):
        # gamma = 1e-100: gamma^4 underflows to 0 and dropped a gamma^4 tau^2 of
        # 1e200, so the direct root read 4e-100
        sys = OscillatorSystem.from_untrapped(0.5, c=1e100)
        assert purity_unbound_gaussian(sys, 1e300) == pytest.approx(1e-200, rel=1e-15, abs=0)
        assert purity_unbound_gaussian(sys, 0.0) == pytest.approx(4e-100, rel=1e-15, abs=0)

    def test_tau_whose_square_overflows(self):
        # far out the purity is c/|tau|, c = Gamma/gamma = 2; tau^2 overflows
        # past |tau| ~ 1e154 and used to give 0
        sys = OscillatorSystem.from_untrapped(0.3, c=2.0)
        for tau in (1e155, 1e300, -1e300, 1.7e308):
            assert purity_unbound_gaussian(sys, tau) == pytest.approx(2.0 / abs(tau),
                                                                      rel=1e-15, abs=0)
        # a finite square keeps the closed form's bits
        gam, Gam, mu1, mu2 = sys.gamma, sys.Gamma, sys.mu1, sys.mu2
        under = (gam * gam + Gam * Gam * mu1 * mu1) * (gam * gam + Gam * Gam * mu2 * mu2)
        for tau in (0.0, 3.0, 1e150, 1e154):
            assert purity_unbound_gaussian(sys, tau) == (
                gam * Gam / math.sqrt(under + gam ** 4 * tau * tau))


class TestCovariance:
    def test_entries_vanish_at_g1(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        pack = covariance_coherent(sys)
        assert pack.V[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert pack.V[1, 3] == pytest.approx(0.0, abs=1e-15)

    def test_hyperbolic_identity(self):
        for g in (0.3, 1.0, 4.0, 40.0):
            pack = covariance_coherent(OscillatorSystem.from_dimensionless(g, 0.5))
            assert math.cosh(pack.r) ** 2 - math.sinh(pack.r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_squeezing_from_purity_chain(self):
        # P = 0.8 at g = 4 so cosh(r) = 1.25
        pack = covariance_coherent(OscillatorSystem.from_dimensionless(4.0, 0.5))
        assert pack.r == pytest.approx(math.acosh(1.25), abs=1e-12)
        assert pack.logneg == pack.r

    def test_cosh_relation_to_purity(self):
        for (g, mu1) in [(0.2, 0.3), (3.0, 0.7), (17.0, 0.45)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            pack = covariance_coherent(sys)
            assert math.cosh(pack.r) * purity_coherent(sys) == pytest.approx(1.0, abs=1e-12)

    def test_standard_form_pattern(self):
        for (g, mu1) in [(0.25, 0.5), (4.0, 0.2), (9.0, 0.65)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            pack = covariance_coherent(sys)
            Vp = pack.standard_form()
            ch, sh = math.cosh(pack.r), math.sinh(pack.r)
            assert np.allclose(np.diag(Vp), ch, atol=1e-10)
            assert abs(abs(Vp[0, 2]) - sh) < 1e-10
            assert Vp[0, 2] == pytest.approx(-Vp[1, 3], abs=1e-10)
            off_pattern = Vp.copy()
            off_pattern[np.diag_indices(4)] = 0.0
            for (i, j) in [(0, 2), (2, 0), (1, 3), (3, 1)]:
                off_pattern[i, j] = 0.0
            assert np.max(np.abs(off_pattern)) < 1e-10
            # r recovered from the standard-form diagonal
            assert arccosh_guarded(Vp[0, 0]) == pytest.approx(pack.r, abs=1e-10)

    def test_scaler_definition(self):
        sys = OscillatorSystem.from_dimensionless(6.0, 0.3)
        pack = covariance_coherent(sys)
        gam2, Gam2 = sys.gamma ** 2, sys.Gamma ** 2
        expect = (gam2 + Gam2 * sys.mu1 ** 2) / (gam2 + Gam2 * sys.mu2 ** 2)
        assert pack.scaler_s ** 4 == pytest.approx(expect, rel=1e-12)

    def test_scaling_matrix_is_symplectic(self):
        sys = OscillatorSystem.from_dimensionless(6.0, 0.3)
        S = covariance_coherent(sys).scaling_matrix()
        J = np.zeros((4, 4))
        J[0, 1] = J[2, 3] = 1.0
        J[1, 0] = J[3, 2] = -1.0
        assert np.allclose(S @ J @ S.T, J, atol=1e-12)


class TestClassicalAnalogue:
    def test_matches_quantum_covariance(self):
        for (g, mu1) in [(1.0, 0.5), (0.4, 0.2), (7.0, 0.8)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            diff = classical_covariance(sys) - covariance_coherent(sys).V
            assert np.max(np.abs(diff)) < 1e-12

    def test_g1_has_no_position_correlation(self):
        V = classical_covariance(OscillatorSystem.from_dimensionless(1.0, 0.5))
        assert V[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_monte_carlo_matches_within_three_standard_errors(self):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.3)
        n = 400_000
        V = covariance_coherent(sys).V
        V_mc = sample_classical_covariance(sys, n_samples=n, seed=123)
        se = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V ** 2) / n)
        assert np.all(np.abs(V_mc - V) <= 3.0 * se)

    def test_monte_carlo_is_reproducible(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
        a = sample_classical_covariance(sys, n_samples=1000)
        b = sample_classical_covariance(sys, n_samples=1000)
        assert np.array_equal(a, b)


class TestPositionCovariance:
    def test_coherent_vanishes_at_g1(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.3)
        assert position_covariance(sys, Coherent()) == pytest.approx(0.0, abs=1e-15)

    def test_equal_numbers_vanish_at_g1(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.7)
        for m in range(3):
            assert position_covariance(sys, NumberState(m, m)) == pytest.approx(0.0, abs=1e-14)

    def test_number_state_value(self):
        # (1/2)(3 - 1/2) = 1.25 at g = 2; cross-checked by grid quadrature of
        # x1 x2 against the sampled density
        sys = OscillatorSystem.from_dimensionless(2.0, 0.5)
        assert position_covariance(sys, NumberState(0, 1)) == pytest.approx(1.25, abs=1e-14)

    def test_quadrature_oracle(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.5)
        dg = density_grid(sys, NumberState(0, 1), GridSpec(n_points=512, extent_sigmas=10.0))
        dx1 = dg.x1[1] - dg.x1[0]
        dx2 = dg.x2[1] - dg.x2[0]
        w = dg.density * dx1 * dx2
        ex1 = float(np.sum(w * dg.x1[:, None]))
        ex2 = float(np.sum(w * dg.x2[None, :]))
        ex1x2 = float(np.sum(w * dg.x1[:, None] * dg.x2[None, :]))
        quad = ex1x2 - ex1 * ex2
        assert position_covariance(sys, NumberState(0, 1)) == pytest.approx(quad, abs=1e-6)

    def test_coherent_matches_covariance_matrix(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.4)
        pack = covariance_coherent(sys)
        assert position_covariance(sys, Coherent()) == pytest.approx(pack.V[0, 2] / 2, abs=1e-14)

    def test_unsupported_states(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.5)
        with pytest.raises(UnsupportedStateError):
            position_covariance(sys, Superposition.two_mode_mix(0.3))
        with pytest.raises(UnsupportedStateError):
            position_covariance(sys, UnboundGaussian(0, 1.0))


class TestArccoshGuard:
    def test_boundary_snaps_to_zero(self):
        assert arccosh_guarded(1.0) == 0.0
        assert arccosh_guarded(1.0 + 5e-15) == 0.0
        assert arccosh_guarded(1.0 - 1e-13) == 0.0

    def test_regular_values(self):
        assert arccosh_guarded(1.25) == pytest.approx(math.log(2), abs=1e-15)

    def test_far_below_one_rejected(self):
        with pytest.raises(DomainError):
            arccosh_guarded(0.5)
