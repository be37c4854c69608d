import itertools
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillent
from oscillent import cli
from oscillent import (DomainError, NumberState, NumericalConsistencyError,
                       OscillatorSystem, ResourceCapError, Superposition,
                       build_M, build_M_from_A,
                       purity_coherent, purity_number,
                       purity_number_unbound, purity_superposition,
                       purity_unbound_gaussian, schmidt_analyze)
from oscillent import exact, taylor
from oscillent.exact import GaussianIntegralData
from oscillent.taylor import exp_taylor_box, taylor_coefficient


def poly_P01(mu1):
    return 1 - 2 * mu1 + 2 * mu1 ** 2


def poly_P11(mu1):
    return 1 - 8 * mu1 + 32 * mu1 ** 2 - 48 * mu1 ** 3 + 24 * mu1 ** 4


class TestTaylorEngine:
    def test_single_variable_against_series(self):
        # exp(a z^2): coefficient of z^(2k) is a^k / k!
        a = 0.37
        M = np.array([[a]])
        box = exp_taylor_box(M, (8,))
        for k in range(5):
            assert box[2 * k] == pytest.approx(a ** k / math.factorial(k), rel=1e-13)
        for k in range(4):
            assert box[2 * k + 1] == 0.0

    def test_two_variable_cross_term(self):
        # exp(2b z1 z2): coefficient of z1^k z2^k is (2b)^k / k!
        b = 0.25
        M = np.array([[0.0, b], [b, 0.0]])
        box = exp_taylor_box(M, (4, 4))
        for k in range(5):
            assert box[k, k] == pytest.approx((2 * b) ** k / math.factorial(k), rel=1e-13)

    def test_odd_total_degree_is_zero(self):
        M = np.array([[0.3, 0.1], [0.1, -0.2]])
        assert taylor_coefficient(M, (1, 2)) == 0.0

    def test_matches_numerical_differentiation(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(3, 3))
        M = 0.1 * (M + M.T)
        # coefficient of z0^2 z1 z2 via central differences of exp(z^T M z)
        h = 0.02
        pts = {}
        for i in (-2, -1, 0, 1, 2):
            for j in (-1, 1):
                for k in (-1, 1):
                    z = np.array([i * h, j * h, k * h])
                    pts[(i, j, k)] = math.exp(z @ M @ z)

        def d2_z0(j, k):
            return (pts[(2, j, k)] - 2 * pts[(0, j, k)] + pts[(-2, j, k)]) / (2 * h) ** 2

        mixed = ((d2_z0(1, 1) - d2_z0(1, -1)) - (d2_z0(-1, 1) - d2_z0(-1, -1))) / (2 * h) ** 2
        coeff = taylor_coefficient(M, (2, 1, 1))
        # derivative = 2! * 1! * 1! * coefficient
        assert mixed == pytest.approx(2 * coeff, rel=5e-3)


def chain_Lmap(sys):
    """Displacement-to-coordinate coupling in the cyclic factor order."""
    gam = sys.gamma
    Gm1 = sys.Gamma * sys.mu1
    Gm2 = sys.Gamma * sys.mu2
    L = np.zeros((4, 8))
    # rows: x1, x1', x2, x2'; slots 1..4 touch (x1,x2), (x1',x2), (x1',x2'), (x1,x2')
    L[0, 0] = gam
    L[0, 3] = gam
    L[0, 4] = Gm1
    L[0, 7] = Gm1
    L[1, 1] = gam
    L[1, 2] = gam
    L[1, 5] = Gm1
    L[1, 6] = Gm1
    L[2, 0] = -gam
    L[2, 1] = -gam
    L[2, 4] = Gm2
    L[2, 5] = Gm2
    L[3, 2] = -gam
    L[3, 3] = -gam
    L[3, 6] = Gm2
    L[3, 7] = Gm2
    return math.sqrt(2.0) * L


def build_At(sys, tau):
    """Time-dependent kernel quadratic form of the untrapped pair, the
    Gaussian integral build_M_from_A inverts: build_M's and the spreading
    packet's independent cross-check.

    The center-of-mass factor of the kernel carries the complex width
    w = Gamma^2 (1 + i tau) / (1 + tau^2) of the spreading packet (its
    conjugate in the conjugated factors), so the diagonal picks up
    mu_i^2 Gamma^2 / (1 + tau^2) and the off-diagonal entries split into a
    conjugate pair z_w = (-gamma^2 + w mu1 mu2) / 2.  At tau = 0 it is the
    real static form, diagonal gamma^2 + Gamma^2 mu_i^2 and off-diagonal
    blocks y = (-gamma^2 + Gamma^2 mu1 mu2) / 2.
    """
    sys.check_untrapped()
    T = 1.0 + tau * tau
    gam2 = sys.gamma ** 2
    w = sys.Gamma ** 2 * (1.0 + 1j * tau) / T
    W = sys.Gamma ** 2 / T
    a = gam2 + sys.mu1 ** 2 * W
    b = gam2 + sys.mu2 ** 2 * W
    zw = 0.5 * (-gam2 + w * sys.mu1 * sys.mu2)
    zs = zw.conjugate()
    A = np.array([
        [a, 0.0, zw, zs],
        [0.0, a, zs, zw],
        [zw, zs, b, 0.0],
        [zs, zw, 0.0, b],
    ], dtype=complex)
    return GaussianIntegralData(
        A=A,
        Lmap=chain_Lmap(sys),
        norm_const=(sys.gamma * sys.Gamma) ** 2 / (math.pi ** 2 * T),
    )


def static_kernel(sys):
    """The static kernel form of a trapped pair: the time-dependent form at
    tau = 0 of its untrapped twin, which has the same gamma, Gamma and mu1
    (all that build_M reads)."""
    twin = OscillatorSystem.from_untrapped(sys.mu1, Gamma=sys.Gamma, gamma=sys.gamma)
    return build_At(twin, 0.0)


class TestGeneratorConstruction:
    def test_A_is_symmetric_positive_definite(self):
        for (g, mu1) in [(0.3, 0.2), (1.0, 0.5), (12.0, 0.8)]:
            data = static_kernel(OscillatorSystem.from_dimensionless(g, mu1))
            assert np.array_equal(data.A, data.A.T)
            assert not np.any(data.A.imag)
            assert np.min(np.linalg.eigvalsh(data.A)) > 0

    def test_A_off_diagonal_value(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        data = static_kernel(sys)
        # g = 1 equal masses: y = (-gamma^2 + Gamma^2/4)/2 = 0
        assert data.A[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_At_rejects_trapped(self):
        with pytest.raises(DomainError):
            build_At(OscillatorSystem.from_dimensionless(1.0, 0.5), 1.0)

    def test_det_M_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            sys = OscillatorSystem.from_dimensionless(
                float(10 ** rng.uniform(-1, 1)), float(rng.uniform(0.05, 0.95)))
            det = np.linalg.det(build_M(sys).Mmat)
            assert det == pytest.approx(1 / 256, abs=1e-12)

    def test_equal_masses_kill_antisymmetric_coupling(self):
        # the (mu1 - mu2) factor of the s entry vanishes
        M = build_M(OscillatorSystem.from_dimensionless(5.0, 0.5)).Mmat
        assert M[0, 4] == 0.0
        assert M[2, 6] == 0.0

    def test_two_construction_routes_agree(self):
        for (g, mu1) in [(0.2, 0.15), (1.0, 0.5), (5.0, 0.3), (40.0, 0.9)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            direct = build_M(sys)
            integral = build_M_from_A(static_kernel(sys))
            assert np.max(np.abs(direct.Mmat - integral.Mmat)) < 1e-12
            assert direct.prefactor == pytest.approx(integral.prefactor, rel=1e-12)

    def test_singular_A_reports_condition_number(self):
        data = GaussianIntegralData(A=np.zeros((4, 4)), Lmap=np.zeros((4, 8)),
                                    norm_const=1.0)
        with pytest.raises(NumericalConsistencyError, match="condition number"):
            build_M_from_A(data)


SUP_PI_6 = Superposition.two_mode_mix(math.pi / 6)

# |m> for m = 1..8 at each (mu1, c, tau): the Gaussian integral of the purity
# kernel in mpmath, A inverted at 700 and at 1000 digits (the two agree in
# every stored digit) from the floats from_untrapped(mu1, c=c) holds, and
# the coefficient from the derivative recurrence at that precision
UNBOUND_REFERENCES = json.loads(
    (Path(__file__).parent / "data" / "unbound_purities.json").read_text())


def exact_purity(sys, state):
    if isinstance(state, NumberState):
        return purity_number(sys, state.m, state.n)
    return purity_superposition(sys, state)


class TestGeneratorOutsideTheDirectRange:
    """build_M takes its entries from gamma / s and Gamma / s, s = max(gamma,
    Gamma), where gamma^4 overflows or D underflows; the entries are ratios
    of degree 0, so the purities are those of the same g and mu1."""

    @pytest.mark.parametrize("hbar", [1e300, 1e-300])
    @pytest.mark.parametrize("state", [NumberState(1, 1), SUP_PI_6], ids=["1,1", "sup-pi/6"])
    def test_hbar_invariance(self, hbar, state):
        ref = exact_purity(OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0), state)
        got = exact_purity(OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0, hbar=hbar), state)
        assert got == pytest.approx(ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("mu1", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("state", [NumberState(1, 1), SUP_PI_6], ids=["1,1", "sup-pi/6"])
    def test_g_and_its_inverse_at_the_float_range(self, mu1, state):
        big = exact_purity(OscillatorSystem.from_dimensionless(1e300, mu1), state)
        small = exact_purity(OscillatorSystem.from_dimensionless(1e-300, mu1), state)
        assert 0.0 < big < 1e-140
        assert big == pytest.approx(small, rel=1e-14, abs=0)

    def test_entries_in_range_are_taken_directly(self, monkeypatch):
        # the rescaled entries differ in their last bits; inputs whose direct
        # entries are in range never take them
        calls = []
        real = exact._generator_entries
        monkeypatch.setattr(exact, "_generator_entries",
                            lambda *args: calls.append(args) or real(*args))
        for g in (1e-100, 0.2, 5.0, 1e100):
            sys = OscillatorSystem.from_dimensionless(g, 0.3)
            M = build_M(sys).Mmat
            assert calls[-1] == (sys.gamma, sys.Gamma, 0.3, sys.mu2)
            assert np.array_equal(M, build_M(sys).Mmat)
        assert len(calls) == 8
        calls.clear()
        build_M(OscillatorSystem.from_dimensionless(1e300, 0.3))
        assert len(calls) == 2 and max(calls[1][:2]) == 1.0

    def test_an_underflowed_inverse_length_is_refused(self):
        # gamma = sqrt(mu omega / hbar) is 0: no rescale recovers it
        sys = OscillatorSystem.from_physical(1.0, 1.0, 1e-300, 1.0, hbar=1e300)
        assert sys.gamma == 0.0
        with pytest.raises(NumericalConsistencyError, match="leave the float range"):
            build_M(sys)


class TestPurityNumber:
    def test_ground_state_is_coherent(self):
        for (g, mu1) in [(0.7, 0.25), (3.0, 0.5), (11.0, 0.65)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            assert purity_number(sys, 0, 0) == pytest.approx(
                purity_coherent(sys), abs=1e-13)

    def test_g1_half_values(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        assert purity_number(sys, 0, 1) == pytest.approx(0.5, abs=1e-12)
        assert purity_number(sys, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_g1_polynomials(self):
        for mu1 in np.linspace(0.05, 0.95, 19):
            sys = OscillatorSystem.from_dimensionless(1.0, float(mu1))
            assert purity_number(sys, 0, 1) == pytest.approx(poly_P01(mu1), abs=1e-10)
            assert purity_number(sys, 1, 1) == pytest.approx(poly_P11(mu1), abs=1e-10)

    def test_closed_form_value(self):
        # frozen from the explicit rational expression for P01
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        assert purity_number(sys, 0, 1) == pytest.approx(0.4790811228395662, abs=1e-12)

    def test_oracle_agreement(self):
        sys = OscillatorSystem.from_dimensionless(3.0, 0.35)
        state = NumberState(2, 2)
        assert purity_number(sys, 2, 2) == pytest.approx(
            schmidt_analyze(sys, state).purity, abs=1e-6)

    def test_oracle_agreement_at_cap_boundary(self):
        # heaviest extraction the default cap allows
        sys = OscillatorSystem.from_dimensionless(3.0, 0.4)
        assert purity_number(sys, 4, 4) == pytest.approx(
            schmidt_analyze(sys, NumberState(4, 4)).purity, abs=1e-6)

    def test_symmetries_small_grid(self):
        for g in (0.5, 2.0, 7.0):
            for mu1 in (0.2, 0.5, 0.8):
                for (m, n) in [(0, 1), (1, 2), (3, 0), (2, 2), (0, 3)]:
                    p = purity_number(OscillatorSystem.from_dimensionless(g, mu1), m, n)
                    p_swap = purity_number(OscillatorSystem.from_dimensionless(g, 1 - mu1), m, n)
                    p_inv = purity_number(OscillatorSystem.from_dimensionless(1 / g, mu1), m, n)
                    p_mn = purity_number(OscillatorSystem.from_dimensionless(g, mu1), n, m)
                    assert abs(p - p_swap) < 1e-10
                    assert abs(p - p_inv) < 1e-10
                    assert abs(p - p_mn) < 1e-10

    def test_extreme_mass_fraction_limit(self):
        for g in (1.0, 5.0):
            for mu1 in (1e-4, 1 - 1e-4):
                sys = OscillatorSystem.from_dimensionless(g, mu1)
                assert purity_number(sys, 0, 1) > 0.999
                assert purity_number(sys, 1, 0) > 0.999
        sys = OscillatorSystem.from_dimensionless(1.0, 1e-4)
        assert purity_number(sys, 1, 1) > 0.999
        # higher states approach 1 monotonically as mu1 -> 0
        vals = [purity_number(OscillatorSystem.from_dimensionless(5.0, mu), 2, 2)
                for mu in (0.1, 0.01, 1e-3, 1e-4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_entangled_below_one_away_from_g1(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        for (m, n) in [(0, 0), (0, 1), (1, 1), (2, 1)]:
            assert 0.0 < purity_number(sys, m, n) < 1.0

    def test_resource_cap(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.5)
        with pytest.raises(ResourceCapError, match="cap 8"):
            purity_number(sys, 5, 4)
        with pytest.raises(ResourceCapError, match="cap 8"):
            purity_number_unbound(OscillatorSystem.from_untrapped(0.5, c=2.0), 9, 1.0)

    def test_caps_refuse_before_the_generator_is_built(self, monkeypatch):
        built = []
        for name in ("build_M", "_packet_block"):
            monkeypatch.setattr(exact, name, lambda *a, name=name: built.append(name))
        with pytest.raises(ResourceCapError, match="order 9 exceeds the cap 8"):
            purity_number(OscillatorSystem.from_dimensionless(2.0, 0.5), 5, 4)
        with pytest.raises(ResourceCapError, match="order 9 exceeds the cap 8"):
            purity_number_unbound(OscillatorSystem.from_untrapped(0.5, c=2.0), 9, 1.0)
        assert built == []

    @pytest.mark.parametrize("m, n", [(8, 0), (0, 8), (4, 4), (7, 1)])
    def test_symmetries_at_the_cap(self, m, n):
        # the deepest orders the cap allows keep every symmetry far into the
        # regimes g >> 1 and mu1 -> 1; symmetry alone certifies no value (a
        # raised cap gives |63,0> at g = 100 a symmetric 0.2125 that no other
        # route confirms), so the (4,4) value is checked against the oracle
        for g in (10.0, 1e3, 1e6):
            for mu1 in (0.5, 0.99, 0.999):
                p = purity_number(OscillatorSystem.from_dimensionless(g, mu1), m, n)
                assert 0.0 < p <= 1.0
                for other in (purity_number(OscillatorSystem.from_dimensionless(1 / g, mu1), m, n),
                              purity_number(OscillatorSystem.from_dimensionless(g, 1 - mu1), m, n),
                              purity_number(OscillatorSystem.from_dimensionless(g, mu1), n, m)):
                    assert abs(p - other) <= 1e-12

    def test_deeper_states_more_entangled_monitored(self):
        # diagonal monotonicity is an observed regularity, not an asserted
        # invariant; record violations without failing
        violations = []
        for g in (0.5, 2.0, 5.0):
            for mu1 in np.linspace(0.15, 0.85, 5):
                sys = OscillatorSystem.from_dimensionless(g, float(mu1))
                for (m, n) in [(0, 0), (0, 1), (1, 1)]:
                    if not purity_number(sys, m + 1, n + 1) < purity_number(sys, m, n):
                        violations.append((g, mu1, m, n))
        print(f"diagonal monotonicity violations: {len(violations)}")


class TestPurityUnboundNumber:
    def test_m0_matches_closed_form(self):
        sys = OscillatorSystem.from_untrapped(0.4, c=3.0)
        for tau in (0.0, 0.7, 2.0, 9.0):
            assert purity_number_unbound(sys, 0, tau) == pytest.approx(
                purity_unbound_gaussian(sys, tau), abs=1e-10)

    def test_tau0_matches_trapped_pipeline(self):
        # same (gamma, Gamma, mu1) seen through the trapped generator
        mu1 = 0.5
        sys_u = OscillatorSystem.from_untrapped(mu1, c=2.0)
        g_equiv = sys_u.gamma ** 2 / (sys_u.Gamma ** 2 * mu1 * (1 - mu1))
        sys_t = OscillatorSystem.from_dimensionless(g_equiv, mu1)
        assert purity_number_unbound(sys_u, 1, 0.0) == pytest.approx(
            purity_number(sys_t, 1, 0), abs=1e-12)

    def test_oracle_value(self):
        # frozen from schmidt_analyze of the m = 1 spreading-packet state
        sys = OscillatorSystem.from_untrapped(0.5, c=2.0)
        assert purity_number_unbound(sys, 1, 5.0) == pytest.approx(
            0.26573643221888493, abs=1e-6)

    # 90-digit evaluations of the same Gaussian integral; these taus read
    # 1.5e-13 to 2.0e-9 off while the purity was taken from its inverse
    @pytest.mark.parametrize("tau, ref", [
        (1e2, 0.014995002099100385),
        (1e3, 0.0014999950000209999),
        (1e4, 0.00014999999500000021),
    ])
    def test_accuracy_below_the_condition_bound(self, tau, ref):
        sys = OscillatorSystem.from_untrapped(0.5, c=2.0)
        assert purity_number_unbound(sys, 1, tau) == pytest.approx(ref, rel=1e-13, abs=0)

    # taus whose kernel form has a condition number of 1e12 and 4e24: the
    # inverse read 34% off at 1e8, the closed-form block answers (mpmath,
    # 1000 digits)
    @pytest.mark.parametrize("tau, ref", [
        (1e6, "1.499999999995000000000020999999999910000000000384999999998362e-6"),
        (1e8, "1.4999999999999995000000000000002099999999999999100000000000000385e-8"),
        (1e200, "1.500000000000000045400316681234458884914081591068003642178846556e-200"),
    ], ids=["1000000.0", "100000000.0", "1e+200"])
    def test_ill_conditioned_taus_answer(self, tau, ref):
        sys = OscillatorSystem.from_untrapped(0.5, c=2.0)
        assert purity_number_unbound(sys, 1, tau) == pytest.approx(float(ref), rel=1e-13, abs=0)

    @pytest.mark.parametrize("case", UNBOUND_REFERENCES,
                             ids=[f"mu1={r['mu1']}-c={r['c']:g}-tau={r['tau']:g}"
                                  for r in UNBOUND_REFERENCES])
    def test_frozen_references(self, case):
        sys = OscillatorSystem.from_untrapped(case["mu1"], c=case["c"])
        for m, ref in enumerate(case["purity"], start=1):
            got = purity_number_unbound(sys, m, case["tau"])
            assert got == pytest.approx(float(ref), rel=1e-13, abs=0), m

    @pytest.mark.parametrize("c, mu1", [(0.1, 0.2), (2.0, 0.3), (2.0, 0.5), (40.0, 0.9),
                                        (1e-100, 0.3), (1e100, 0.7)])
    def test_block_at_tau0_is_build_Ms_block(self, c, mu1):
        sys = OscillatorSystem.from_untrapped(mu1, c=c)
        block = exact._packet_block(sys, 0.0)
        assert not np.any(block.imag)
        assert np.array_equal(block.real, build_M(sys).Mmat[:4, :4])

    @pytest.mark.parametrize("tau", [0.01, 0.3, 1.0, 5.0, 30.0])
    @pytest.mark.parametrize("c, mu1", [(0.5, 0.2), (2.0, 0.3), (2.0, 0.5), (7.0, 0.8)])
    def test_block_is_the_gaussian_integrals(self, c, mu1, tau):
        sys = OscillatorSystem.from_untrapped(mu1, c=c)
        integral = build_M_from_A(build_At(sys, tau)).Mmat[:4, :4]
        assert np.max(np.abs(exact._packet_block(sys, tau) - integral)) <= 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(log_c=st.floats(-8, 8), mu1=st.floats(0.01, 0.99),
           log_tau=st.floats(-3, 8), sign=st.sampled_from([-1.0, 1.0]))
    def test_v_plus_w_is_half_and_masses_swap(self, log_c, mu1, log_tau, sign):
        sys = OscillatorSystem.from_untrapped(mu1, c=10.0 ** log_c)
        tau = sign * 10.0 ** log_tau
        eps = np.finfo(float).eps
        u, v, w = exact._generator_entries(sys.gamma, sys.Gamma, sys.mu1, sys.mu2, tau)
        assert abs(v + w - 0.5) <= 4 * eps
        su, sv, sw = exact._generator_entries(sys.gamma, sys.Gamma, sys.mu2, sys.mu1, tau)
        assert abs(su - u) <= 4 * eps and abs(sv - w) <= 4 * eps and abs(sw - v) <= 4 * eps

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(log_c=st.floats(-3, 3), mu1=st.floats(0.05, 0.95), log_tau=st.floats(-3, 6),
           m=st.integers(1, 8))
    def test_mass_swap_keeps_the_purity(self, log_c, mu1, log_tau, m):
        c, tau = 10.0 ** log_c, 10.0 ** log_tau
        p = purity_number_unbound(OscillatorSystem.from_untrapped(mu1, c=c), m, tau)
        swapped = purity_number_unbound(OscillatorSystem.from_untrapped(1 - mu1, c=c), m, tau)
        assert swapped == pytest.approx(p, rel=1e-13, abs=0)

    def test_no_kernel_form_is_inverted(self, monkeypatch):
        def refuse(gdata):
            raise AssertionError("build_M_from_A called")

        monkeypatch.setattr(exact, "build_M_from_A", refuse)
        sys = OscillatorSystem.from_untrapped(0.3, c=2.0)
        for m, tau in [(0, 0.0), (1, 5.0), (8, 2.0), (3, 1e100)]:
            assert 0.0 < purity_number_unbound(sys, m, tau) <= 1.0

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_same_bits_under_every_blas_kernel(self):
        # the solve this route once took read ...417017 under Haswell and
        # ...417006 under SkylakeX
        code = ("from oscillent import OscillatorSystem, purity_number_unbound\n"
                "sys = OscillatorSystem.from_untrapped(0.3, c=2.0)\n"
                "print(repr(purity_number_unbound(sys, 8, 2.0)))")
        src = str(Path(oscillent.__file__).parents[1])
        outputs = set()
        for core in ("Prescott", "Sandybridge", "Haswell", "SkylakeX"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode == -signal.SIGILL:  # a kernel this host cannot run
                continue
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"0.1814389026441698\n"}

    def test_result_is_real_and_in_range(self):
        sys = OscillatorSystem.from_untrapped(0.3, c=4.0)
        for m in (0, 1, 2):
            for tau in (0.0, 1.0, 6.0):
                p = purity_number_unbound(sys, m, tau)
                assert 0.0 < p <= 1.0 + 1e-12


def box_read(M, orders, weight):
    """A purity read as weight times the corner of the whole box, the way
    the exact route read it before it read the corner's cone."""
    return weight * exp_taylor_box(M, orders)[orders]


class TestCornerRead:
    """The exact route reads each coefficient from the cells its corner
    depends on, with the bits the whole box gives."""

    @pytest.mark.parametrize("mu1", [0.3, 0.5])
    @pytest.mark.parametrize("m, n", [(4, 4), (5, 3), (3, 5), (6, 2), (0, 8), (1, 0)])
    def test_number_purities_have_the_boxs_bits(self, m, n, mu1):
        # at mu1 = 0.5 build_M's s entries vanish, so the generator couples
        # fewer pairs than at 0.3 with the same orders
        gen = build_M(OscillatorSystem.from_dimensionless(5.0, mu1))
        assert (gen.Mmat[0, 4] == 0) == (mu1 == 0.5)
        fac = float(math.factorial(m) * math.factorial(n))
        expect = float(box_read(gen.Mmat, (m,) * 4 + (n,) * 4, gen.prefactor * fac * fac))
        got = purity_number(OscillatorSystem.from_dimensionless(5.0, mu1), m, n)
        assert got.hex() == expect.hex()

    def test_reads_fill_no_box(self, monkeypatch):
        trapped = OscillatorSystem.from_dimensionless(3.0, 0.4)
        free = OscillatorSystem.from_untrapped(0.3, c=2.0)
        # one weighted term, the two-mode mix, and a complex three-term state
        # whose zero-weight term is dropped
        mixes = [Superposition.two_mode_mix(0.0), Superposition.two_mode_mix(math.pi / 3),
                 Superposition(((2, 2, 0.6), (0, 4, 0.64), (1, 0, 0.48j), (3, 1, 0.0)))]

        def purities():
            return ([purity_number(trapped, 4, 4), purity_number(trapped, 2, 1),
                     purity_number_unbound(free, 8, 2.0), purity_number_unbound(free, 1, 0.0)]
                    + [purity_superposition(trapped, st) for st in mixes])

        before = purities()

        def refuse(M, caps):
            raise AssertionError("exp_taylor_box called")

        monkeypatch.setattr(taylor, "exp_taylor_box", refuse)
        assert purities() == before

    def test_pooled_sweep_has_the_bits_of_single_reads(self, tmp_path, capsys):
        # the points run in the sweep pool's threads, which share the cached
        # schedules; mu1 = 0.5 changes the coupling pattern mid-sweep
        out = tmp_path / "s.csv"
        assert cli.run(["sweep", "--param", "mu1", "--range", "0.1:0.9:9", "--g", "5",
                        "--state", "number:4,4", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [float(mu1) for mu1, _ in rows][4] == 0.5
        for mu1, purity in rows:
            single = purity_number(OscillatorSystem.from_dimensionless(5.0, float(mu1)), 4, 4)
            assert float(purity) == single

    def test_a_first_read_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call (+20 ms, +1.4 MB)
        code = ("import sys\n"
                "from oscillent import OscillatorSystem, purity_number\n"
                "purity_number(OscillatorSystem.from_dimensionless(3.0, 0.4), 4, 4)\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(oscillent.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestPuritySuperposition:
    def test_single_term_reduces_to_number(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        st = Superposition(((1, 1, 1.0),))
        assert purity_superposition(sys, st) == pytest.approx(
            purity_number(sys, 1, 1), abs=1e-12)

    def test_disentanglement_point_at_three_quarters(self):
        st = Superposition.two_mode_mix(math.pi / 6)
        sys = OscillatorSystem.from_dimensionless(1.0, 0.75)
        assert purity_superposition(sys, st) == pytest.approx(1.0, abs=1e-12)
        # and it is not symmetric around 1/2
        sys_m = OscillatorSystem.from_dimensionless(1.0, 0.25)
        assert purity_superposition(sys_m, st) == pytest.approx(0.625, abs=1e-12)

    def test_oracle_agreement(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        st = Superposition.two_mode_mix(math.pi / 3)
        assert purity_superposition(sys, st) == pytest.approx(
            schmidt_analyze(sys, st).purity, abs=1e-6)

    def test_non_normalized_terms_rejected(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        with pytest.raises(DomainError):
            purity_superposition(sys, Superposition(((0, 1, 0.9), (1, 0, 0.9))))

    def test_complex_coefficients_stay_real(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.35)
        st = Superposition(((0, 1, 0.6), (1, 0, 0.8j)))
        p = purity_superposition(sys, st)
        assert 0.0 < p <= 1.0 + 1e-12

    def test_complex_coefficients_against_oracle(self):
        # random-phase three-term states probe the conjugated slots
        rng = np.random.default_rng(42)
        labels = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
        for _ in range(3):
            idx = rng.choice(len(labels), size=3, replace=False)
            cs = rng.normal(size=3) + 1j * rng.normal(size=3)
            cs /= np.linalg.norm(cs)
            st = Superposition(tuple(
                (labels[i][0], labels[i][1], complex(c)) for i, c in zip(idx, cs)))
            sys = OscillatorSystem.from_dimensionless(
                float(10 ** rng.uniform(-0.5, 0.8)), float(rng.uniform(0.2, 0.8)))
            assert purity_superposition(sys, st) == pytest.approx(
                schmidt_analyze(sys, st).purity, abs=1e-6)

    def test_equals_sum_of_cross_terms(self):
        # one read of every cross term gives the same terms as one read per
        # quadruple: P_coherent sqrt(prod m_i! n_i!) times the coefficient of
        # prod alpha_i^m_i beta_i^n_i
        def cross_term(sys, quadruple):
            orders = tuple(m for (m, _) in quadruple) + tuple(n for (_, n) in quadruple)
            gen = build_M(sys)
            fac = math.prod(math.factorial(t) for t in orders)
            return gen.prefactor * math.sqrt(fac) * taylor_coefficient(gen.Mmat, orders)

        rng = np.random.default_rng(7)
        labels = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 3)]
        for _ in range(3):
            idx = rng.choice(len(labels), size=3, replace=False)
            cs = rng.normal(size=3) + 1j * rng.normal(size=3)
            cs /= np.linalg.norm(cs)
            terms = tuple((labels[i][0], labels[i][1], complex(c)) for i, c in zip(idx, cs))
            sys = OscillatorSystem.from_dimensionless(
                float(10 ** rng.uniform(-0.5, 0.8)), float(rng.uniform(0.2, 0.8)))
            expect = sum(
                c1 * c2.conjugate() * c3 * c4.conjugate()
                * cross_term(sys, [(m1, n1), (m2, n2), (m3, n3), (m4, n4)])
                for (m1, n1, c1), (m2, n2, c2), (m3, n3, c3), (m4, n4, c4)
                in itertools.product(terms, repeat=4))
            assert purity_superposition(sys, Superposition(terms)) == pytest.approx(
                expect.real, rel=1e-13)

    def test_cap_counts_only_weighted_quadruples(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
        # |0,5> x 4 reaches total 20 > 16
        with pytest.raises(ResourceCapError, match="total order 20"):
            purity_superposition(sys, Superposition(((0, 0, 0.6), (0, 5, 0.8))))
        # a term with a zero coefficient is not part of the state
        st = Superposition(((0, 1, 1.0), (0, 5, 0.0)))
        assert purity_superposition(sys, st) == pytest.approx(
            purity_number(sys, 0, 1), rel=1e-13)

    @pytest.mark.parametrize("mu1", [0.3, 0.5])
    @pytest.mark.parametrize("terms", [
        ((0, 1, math.cos(math.pi / 3)), (1, 0, math.sin(math.pi / 3))),
        ((2, 2, 0.6), (0, 4, 0.64), (1, 0, 0.48j)),
    ])
    def test_has_the_bits_of_one_box_per_cross_term(self, terms, mu1):
        # at mu1 = 0.5 build_M's s entries vanish and the coupling pattern
        # changes; each cross term is read from its own box, in the order
        # and with the weights the purity sums them
        sys = OscillatorSystem.from_dimensionless(5.0, mu1)
        gen = build_M(sys)
        total = 0j
        for (m1, n1, c1), (m2, n2, c2), (m3, n3, c3), (m4, n4, c4) in itertools.product(
                terms, repeat=4):
            orders = (m1, m2, m3, m4, n1, n2, n3, n4)
            fac = math.prod(math.factorial(t) for t in orders)
            cross = (0.0 if sum(orders) % 2 else
                     float(box_read(gen.Mmat, orders, gen.prefactor * math.sqrt(fac))))
            total += c1 * c2.conjugate() * c3 * c4.conjugate() * cross
        got = purity_superposition(sys, Superposition(terms))
        assert got.hex() == float(total.real).hex()

    @pytest.fixture
    def reads(self, monkeypatch):
        real, calls = exact.taylor_coefficient, []

        def counted(M, orders):
            calls.append(orders)
            return real(M, orders)

        monkeypatch.setattr(exact, "taylor_coefficient", counted)
        return calls

    def test_one_read_of_every_cross_term(self, reads):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
        st = Superposition(((0, 3, 0.6), (2, 1, 0.48), (1, 0, 0.64j), (4, 0, 0.0)))
        purity_superposition(sys, st)
        assert len(reads) == 1 and len(reads[0]) == 3 ** 4
        assert tuple(map(max, zip(*reads[0]))) == (2,) * 4 + (3,) * 4

    def test_over_cap_builds_nothing(self, reads, monkeypatch):
        built = []
        monkeypatch.setattr(exact, "build_M", lambda sys: built.append(sys))
        sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
        # |0,3> x 4 is within the cap, |0,5> x 4 is not; the message names the
        # largest quadruple's order whatever the term order
        for terms in [((0, 3, 0.6), (0, 5, 0.8)), ((0, 5, 0.8), (0, 3, 0.6))]:
            with pytest.raises(ResourceCapError, match="total order 20 exceeds"):
                purity_superposition(sys, Superposition(terms))
        assert reads == [] and built == []

    def test_box_memory_cap(self):
        # the box of |8,0> + |0,8> at caps (8,) * 8 would hold 9^8 = 43M cells
        # (344 MB); the order cap refuses it before anything is built
        sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
        st = Superposition(((8, 0, math.sqrt(0.5)), (0, 8, math.sqrt(0.5))))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="cross-term cap 16"):
                purity_superposition(sys, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_range(self):
        sys = OscillatorSystem.from_dimensionless(3.0, 0.4)
        st = Superposition(((0, 0, math.sqrt(0.5)), (1, 1, math.sqrt(0.5))))
        p = purity_superposition(sys, st)
        assert 0.0 < p <= 1.0 + 1e-10
