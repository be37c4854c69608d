import math
import re

import numpy as np
import pytest

from oscillent import (Coherent, DomainError, NumberState, OscillatorSystem,
                       Superposition, UnboundGaussian, purity_coherent,
                       purity_number)


class TestFromPhysical:
    def test_equal_masses_equal_frequencies(self):
        sys = OscillatorSystem.from_physical(1, 1, 1, 1, 1)
        assert sys.mu1 == 0.5
        assert sys.mu2 == 0.5
        assert sys.g == 1.0
        assert sys.Gamma == pytest.approx(math.sqrt(2), abs=1e-15)
        assert sys.gamma == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_ratio_arithmetic(self):
        sys = OscillatorSystem.from_physical(1, 3, 10, 1, 1)
        assert sys.mu1 == pytest.approx(0.25, abs=1e-15)
        assert sys.mu2 == pytest.approx(0.75, abs=1e-15)
        assert sys.g == pytest.approx(10.0, abs=1e-14)

    def test_scale_relation(self):
        # gamma = sqrt(mu*omega/hbar) and Gamma = sqrt(M*Omega/hbar) computed
        # independently here
        sys = OscillatorSystem.from_physical(2, 2, 4, 1, 1)
        mu = 2 * 2 / 4
        assert sys.gamma == pytest.approx(math.sqrt(mu * 4 / 1), rel=1e-15)
        assert sys.Gamma == pytest.approx(math.sqrt(4 * 1 / 1), rel=1e-15)
        assert sys.gamma ** 2 / sys.Gamma ** 2 == pytest.approx(
            sys.mu1 * sys.mu2 * sys.g, rel=1e-12)

    def test_untrapped_needs_gamma(self):
        with pytest.raises(DomainError):
            OscillatorSystem.from_physical(1, 1, 1, 0, 1)
        sys = OscillatorSystem.from_physical(1, 1, 1, 0, 1, Gamma=2.0)
        assert not sys.is_trapped
        assert sys.Gamma == 2.0

    def test_trapped_rejects_explicit_gamma(self):
        with pytest.raises(DomainError):
            OscillatorSystem.from_physical(1, 1, 1, 1, 1, Gamma=2.0)

    @pytest.mark.parametrize("bad", [
        dict(m1=0, m2=1, omega=1, OmegaTrap=1),
        dict(m1=1, m2=-2, omega=1, OmegaTrap=1),
        dict(m1=1, m2=1, omega=0, OmegaTrap=1),
        dict(m1=1, m2=1, omega=1, OmegaTrap=-1),
        dict(m1=1, m2=1, omega=1, OmegaTrap=1, hbar=0),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            OscillatorSystem.from_physical(**bad)

    def test_trap_whose_g_overflows_is_refused(self):
        with pytest.raises(DomainError, match=r"omega = 1e\+300, OmegaTrap = 1e-300"):
            OscillatorSystem.from_physical(1, 1, 1e300, 1e-300)
        # g = 1e300 itself is in range, and a non-finite omega keeps its own message
        assert OscillatorSystem.from_physical(1, 1, 1e300, 1).g == 1e300
        with pytest.raises(DomainError, match="omega must be finite"):
            OscillatorSystem.from_physical(1, 1, math.inf, 1)

    @pytest.mark.parametrize("name", ["m1", "m2", "omega", "Omega", "hbar", "Gamma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        params = dict(m1=1.0, m2=2.0, omega=3.0, Omega=1.0, hbar=1.0, Gamma=1.5)
        params[name] = value
        with pytest.raises(DomainError, match=name):
            OscillatorSystem(**params)


class TestFromDimensionless:
    @pytest.mark.parametrize("g,mu1,gamma", [
        (1.0, 0.5, 0.5),
        (4.0, 0.5, 1.0),
        (10.0, 0.25, math.sqrt(1.875)),
    ])
    def test_gamma_values(self, g, mu1, gamma):
        sys = OscillatorSystem.from_dimensionless(g, mu1)
        assert sys.gamma == pytest.approx(gamma, rel=1e-15)
        assert sys.Gamma == 1.0
        assert sys.hbar == 1.0
        assert sys.M_total == 1.0

    @pytest.mark.parametrize("g,mu1", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0),
                                       (1.0, 1.0), (1.0, 1.5), (math.inf, 0.5),
                                       (math.nan, 0.5), (1.0, math.nan)])
    def test_domain_errors(self, g, mu1):
        with pytest.raises(DomainError):
            OscillatorSystem.from_dimensionless(g, mu1)


class TestFromUntrapped:
    def test_c_parameterization(self):
        assert OscillatorSystem.from_untrapped(0.5, c=1.0).gamma == pytest.approx(1.0)
        assert OscillatorSystem.from_untrapped(0.5, c=3.0).gamma == pytest.approx(1 / 3)

    def test_balanced_scale_is_separable_at_start(self):
        # gamma = Gamma*sqrt(mu1*mu2) makes the purity exactly 1
        mu1 = 0.3
        sys = OscillatorSystem.from_untrapped(mu1, gamma=math.sqrt(mu1 * (1 - mu1)))
        assert purity_coherent(sys) == pytest.approx(1.0, abs=1e-12)

    def test_exactly_one_scale_argument(self):
        with pytest.raises(DomainError):
            OscillatorSystem.from_untrapped(0.5)
        with pytest.raises(DomainError):
            OscillatorSystem.from_untrapped(0.5, c=1.0, gamma=1.0)

    @pytest.mark.parametrize("c", [1e-300, 1e-155, 1e155, 1e300, math.inf])
    def test_c_whose_omega_leaves_the_float_range_is_named(self, c):
        # omega = gamma^2 / mu overflows, or falls below the normal floats
        with pytest.raises(DomainError, match=f"^c = {re.escape(repr(c))} puts the relative"):
            OscillatorSystem.from_untrapped(0.5, c=c)

    def test_gamma_whose_omega_leaves_the_float_range_is_named(self):
        for gamma in (1e-300, 1e300):
            with pytest.raises(DomainError, match=f"^gamma = {re.escape(repr(gamma))} puts"):
                OscillatorSystem.from_untrapped(0.5, gamma=gamma)

    def test_gamma_whose_c_overflows_is_refused_naming_both(self):
        # omega = 4e-20 is in range, but c = Gamma / gamma is not
        with pytest.raises(DomainError, match=r"^c = Gamma / gamma leaves the float range at "
                                              r"Gamma = 1e\+300, gamma = 1e-10$"):
            OscillatorSystem.from_untrapped(0.5, Gamma=1e300, gamma=1e-10)
        assert OscillatorSystem.from_untrapped(0.5, Gamma=1e300, gamma=1e-8).c == 1e308

    @pytest.mark.parametrize("Gamma, hbar, names", [
        (1e300, 1.0, r"Gamma = 1e\+300, gamma = 7.071067811865476e-151"),  # c overflows
        (1.0, 1e300, r"Gamma = 1.0, gamma = 0.0"),  # gamma underflows to zero
    ])
    def test_physical_untrapped_c_that_overflows_is_refused(self, Gamma, hbar, names):
        with pytest.raises(DomainError, match=f"^c = Gamma / gamma leaves the float range at "
                                              f"{names}$"):
            OscillatorSystem.from_physical(1, 1, 1e-300, 0, hbar=hbar, Gamma=Gamma)

    @pytest.mark.parametrize("c", [1e-150, 1e150])
    def test_c_at_the_edge_of_the_range(self, c):
        sys = OscillatorSystem.from_untrapped(0.5, c=c)
        assert sys.c == pytest.approx(c, rel=1e-15)

    def test_g_undefined(self):
        sys = OscillatorSystem.from_untrapped(0.5, c=2.0)
        with pytest.raises(DomainError):
            sys.g


class TestInvariants:
    @pytest.mark.parametrize("mu1", [0.1, 0.25, 1 / 3, 0.5, 0.77, 0.9])
    def test_mass_fractions_sum_exactly(self, mu1):
        sys = OscillatorSystem.from_dimensionless(2.0, mu1)
        assert sys.mu1 + sys.mu2 == 1.0

    def test_scale_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sys = OscillatorSystem.from_physical(
                rng.uniform(0.2, 5), rng.uniform(0.2, 5),
                rng.uniform(0.2, 20), rng.uniform(0.2, 20), rng.uniform(0.2, 5))
            lhs = sys.gamma ** 2
            rhs = sys.mu1 * sys.mu2 * sys.g * sys.Gamma ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gauge_independence(self):
        # rebuilding from the derived (g, mu1) leaves purities unchanged
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys = OscillatorSystem.from_physical(
                rng.uniform(0.2, 5), rng.uniform(0.2, 5),
                rng.uniform(0.2, 20), rng.uniform(0.2, 20), rng.uniform(0.2, 5))
            rebuilt = OscillatorSystem.from_dimensionless(sys.g, sys.mu1)
            assert purity_coherent(sys) == pytest.approx(
                purity_coherent(rebuilt), abs=1e-12)
            assert purity_number(sys, 1, 1) == pytest.approx(
                purity_number(rebuilt, 1, 1), abs=1e-12)

    def test_hbar_rescaling(self):
        base = OscillatorSystem.from_physical(1.3, 2.1, 7.0, 2.0, hbar=1.0)
        ref = purity_number(base, 1, 1)
        for lam in (0.1, 10.0):
            sys = OscillatorSystem.from_physical(1.3, 2.1, 7.0, 2.0, hbar=lam)
            assert purity_number(sys, 1, 1) == pytest.approx(ref, abs=1e-12)

    def test_frozen(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        with pytest.raises(Exception):
            sys.m1 = 2.0

    def test_check_untrapped(self):
        OscillatorSystem.from_untrapped(0.3, c=2.0).check_untrapped()
        with pytest.raises(DomainError, match=r"^the spreading packet needs an untrapped "
                                              r"system \(Omega = 0\)$"):
            OscillatorSystem.from_dimensionless(5.0, 0.3).check_untrapped()


class TestStateSpecs:
    def test_number_state_validation(self):
        with pytest.raises(DomainError):
            NumberState(-1, 0)
        with pytest.raises(DomainError):
            NumberState(0, -2)

    def test_superposition_normalization(self):
        Superposition(((0, 1, 0.6), (1, 0, 0.8)))
        with pytest.raises(DomainError):
            Superposition(((0, 1, 0.6), (1, 0, 0.9)))

    def test_superposition_duplicates_rejected(self):
        with pytest.raises(DomainError):
            Superposition(((0, 1, 0.6), (0, 1, 0.8)))

    def test_two_mode_mix_is_normalized(self):
        st = Superposition.two_mode_mix(0.71)
        assert sum(abs(c) ** 2 for (_, _, c) in st.terms) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_two_mode_mix_refuses_a_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match=f"^theta must be finite, got {theta!r}$"):
            Superposition.two_mode_mix(theta)

    def test_a_zero_weight_term_is_not_part_of_the_state(self):
        st = Superposition(((0, 1, 1.0), (0, 5, 0.0)))
        assert st.terms == ((0, 1, 1 + 0j),)
        assert st.orders == (0, 1)
        assert st == Superposition(((0, 1, 1.0),))
        assert Superposition.two_mode_mix(0.0).terms == ((0, 1, 1 + 0j),)
        # the label and norm checks still see every term
        with pytest.raises(DomainError, match="duplicate"):
            Superposition(((0, 1, 1.0), (0, 1, 0.0)))
        with pytest.raises(DomainError, match="not normalized"):
            Superposition(((0, 1, 0.0),))

    @pytest.mark.parametrize("state, orders, is_real", [
        (NumberState(2, 3), (2, 3), True),
        (Coherent(0.5, 1j), (0, 0), False),
        (UnboundGaussian(4, 1.5), (4, 0), False),
        (Superposition(((0, 3, 0.6), (2, 1, 0.8))), (2, 3), True),
        (Superposition(((0, 3, 0.6), (2, 1, 0.8j))), (2, 3), False),
        (Superposition(((0, 3, 0.6j), (2, 1, 0.8j))), (2, 3), False),
    ])
    def test_orders_and_reality(self, state, orders, is_real):
        assert (state.orders, state.is_real) == (orders, is_real)

    @pytest.mark.parametrize("state, parity", [
        (NumberState(0, 0), 1),
        (NumberState(2, 3), -1),
        (NumberState(4, 2), 1),
        (Coherent(), None),
        (Coherent(0.5, 1j), None),
        (UnboundGaussian(4, 1.5), 1),
        (UnboundGaussian(3, 0.0), -1),
        (Superposition(((0, 3, 0.6), (2, 1, 0.8))), -1),
        (Superposition(((0, 0, 0.6), (1, 1, 0.8j))), 1),
        (Superposition(((0, 0, 0.6), (0, 1, 0.8))), None),
        (Superposition.two_mode_mix(0.3), -1),
        # the zero-weight |0,4> is not part of the state
        (Superposition(((0, 1, 1.0), (0, 4, 0.0))), -1),
    ])
    def test_parity(self, state, parity):
        assert state.parity == parity

    def test_numpy_integers_accepted(self):
        st = NumberState(np.int64(1), np.uint8(2))
        assert st == NumberState(1, 2)
        assert type(st.m) is int and type(st.n) is int
        ub = UnboundGaussian(np.int32(3), 0.5)
        assert ub.m == 3 and type(ub.m) is int
        with pytest.raises(DomainError):
            NumberState(1.0, 0)
        with pytest.raises(DomainError):
            UnboundGaussian(np.float64(2.0), 0.5)
        st = Superposition(((np.int64(1), np.uint8(0), 1.0),))
        assert st.terms == ((1, 0, 1 + 0j),) and type(st.terms[0][0]) is int
        for label in ((1.5, 0), (1.0, 0), (0, 2.0)):
            with pytest.raises(DomainError):
                Superposition(((*label, 1.0),))

    def test_unbound_validation(self):
        UnboundGaussian(0, -3.0)
        with pytest.raises(DomainError):
            UnboundGaussian(-1, 0.0)
        with pytest.raises(DomainError):
            UnboundGaussian(0, float("nan"))

    def test_coherent_coerces_complex(self):
        st = Coherent(1.0, 2)
        assert st.alpha == 1 + 0j and st.beta == 2 + 0j
