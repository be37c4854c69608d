import math

import numpy as np
import pytest

from oscillent import cli, fock
from oscillent import (BasisParams, Coherent, DomainError, NumberState,
                       OscillatorSystem, ResourceCapError, Superposition,
                       coefficient_table, convergence_run, default_basis,
                       entropy_truncated, purity_number, purity_superposition,
                       purity_truncated,
                       reduced_density_truncated, schmidt_analyze)
from oscillent.errors import UnsupportedStateError
from oscillent.grid import hermite_functions
from oscillent.taylor import exp_taylor_box

SQ2 = 1 / math.sqrt(2)


class TestBasisParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            BasisParams(0.0, 1.0, 3, 3)
        with pytest.raises(DomainError):
            BasisParams(1.0, 1.0, -1, 3)

    def test_default_basis_matches_separable_widths_at_g1(self):
        # at g = 1 the heuristic returns exactly the widths that factor the
        # ground state: gamma_i = Gamma sqrt(mu_i)
        sys = OscillatorSystem.from_dimensionless(1.0, 0.3)
        b = default_basis(sys)
        assert b.gamma1 == pytest.approx(math.sqrt(0.3), rel=1e-12)
        assert b.gamma2 == pytest.approx(math.sqrt(0.7), rel=1e-12)


class TestTransformCoefficients:
    def test_matched_ground_overlap_is_one(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        basis = BasisParams(SQ2, SQ2, 2, 2)
        assert coefficient_table(sys, basis, 0, 0).values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_odd_parity_vanishes(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(0.8, 1.2, 4, 4)
        assert coefficient_table(sys, basis, 0, 0).values[1, 0] == 0.0
        assert coefficient_table(sys, basis, 1, 1).values[2, 1] == 0.0

    def test_unitarity_of_expansion(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        basis = BasisParams(SQ2, SQ2, 12, 12)
        table = coefficient_table(sys, basis, 0, 1)
        assert abs(np.sum(table.values ** 2) - 1.0) < 1e-6
        assert table.completeness_defect < 1e-6

    def test_completeness_defect_shrinks_with_truncation(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        defects = []
        for tr in (2, 6, 10, 14):
            basis = BasisParams(1.0, 1.0, tr, tr)
            defects.append(coefficient_table(sys, basis, 0, 1).completeness_defect)
        assert all(a >= b for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 1e-6

    def test_quadrature_oracle(self):
        # independent 2D quadrature of the overlap of the basis function with
        # the physical wavefunction
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(0.9, 1.1, 4, 4)
        got = coefficient_table(sys, basis, 0, 2).values[1, 1]
        from oscillent.grid import eval_wavefunction
        x = np.linspace(-12.0, 12.0, 2001)
        dx = x[1] - x[0]
        W = eval_wavefunction(sys, NumberState(0, 2), x[:, None], x[None, :]).real
        b1 = math.sqrt(0.9) * hermite_functions(0.9 * x, 1)[1]
        b2 = math.sqrt(1.1) * hermite_functions(1.1 * x, 1)[1]
        quad = float(b1 @ W @ b2) * dx * dx
        assert got == pytest.approx(quad, abs=1e-10)

    def test_unrepresentable_factorial_weight_hits_cap(self):
        # 171! overflows a float; the check fires before any box is built
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        with pytest.raises(ResourceCapError, match="171"):
            coefficient_table(sys, BasisParams(1.0, 1.0, 171, 2), 0, 1)
        with pytest.raises(ResourceCapError):
            coefficient_table(sys, BasisParams(1.0, 1.0, 2, 2), 0, 200)

    def test_factorial_weights_are_shared_and_read_only(self):
        weights = fock._sqrt_factorials(170)
        assert weights is fock._sqrt_factorials(170)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 2.0
        assert weights.tolist() == [math.sqrt(math.factorial(i)) for i in range(171)]
        with pytest.raises(ResourceCapError, match="171"):
            fock._sqrt_factorials(171)


class TestFillOrder:
    # the table fills its box (m, n, j, k); the kernel's own order for the
    # generator is (j, k, m, n).  Each order rounds once per recurrence step
    # on the way to a cell, and the far corner of the box is sum(caps) steps
    # away: against a 50-digit reference both orders are 2-50 eps * max off
    # at jmax 12 and 40, so they can agree no closer than that.
    STATES = [NumberState(0, 1), NumberState(2, 2), NumberState(4, 4), NumberState(8, 0),
              Superposition.two_mode_mix(math.pi / 6)]

    @pytest.mark.parametrize("jmax", [12, 40, 170])
    @pytest.mark.parametrize("g", [1e-3, 1.0, 5.0, 100.0, 1e4])
    def test_tables_match_the_unpermuted_box(self, g, jmax):
        sys = OscillatorSystem.from_dimensionless(g, 0.3)
        basis = default_basis(sys, jmax=jmax)
        G, pref = fock._generator(sys, basis.gamma1, basis.gamma2)
        # a coefficient does not depend on the box it is read from, so one
        # box covers every state
        box = exp_taylor_box(G, (jmax, jmax, 8, 4))
        w = np.array([math.sqrt(math.factorial(i)) for i in range(jmax + 1)])

        def plane(m, n):
            return pref * w[m] * w[n] * box[:, :, m, n] * np.outer(w, w)

        for state in self.STATES:
            if isinstance(state, NumberState):
                got = coefficient_table(sys, basis, state.m, state.n).values
                want = plane(state.m, state.n)
            else:
                got = fock._state_coefficients(sys, state, basis)
                want = sum(cf * plane(m, n) for (m, n, cf) in state.terms)
            assert got.shape == (jmax + 1, jmax + 1)
            steps = sum(state.orders) + 2 * jmax
            tol = steps * np.finfo(float).eps * np.max(np.abs(got))
            assert np.max(np.abs(got - want)) <= tol, state


class TestReducedDensity:
    def test_separable_ground_state_is_rank_one(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        basis = BasisParams(SQ2, SQ2, 6, 6)
        rho = reduced_density_truncated(sys, NumberState(0, 0), basis)
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert evals[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(evals[1]) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_trace_deficit_equals_completeness_defect(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        basis = BasisParams(1.0, 1.0, 8, 8)
        rho = reduced_density_truncated(sys, NumberState(0, 1), basis)
        defect = coefficient_table(sys, basis, 0, 1).completeness_defect
        assert abs((1.0 - np.trace(rho).real) - defect) < 1e-12

    def test_density_matrix_properties(self):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.4)
        basis = default_basis(sys, jmax=10)
        rho = reduced_density_truncated(sys, NumberState(1, 1), basis)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        evals = np.linalg.eigvalsh(rho)
        assert np.min(evals) > -1e-10
        assert np.max(evals) <= 1.0 + 1e-10
        assert np.sum(evals) <= 1.0 + 1e-10

    def test_superposition_reads_one_box(self):
        sys = OscillatorSystem.from_dimensionless(3.0, 0.35)
        basis = default_basis(sys, jmax=9, kmax=7)
        terms = ((0, 1, 0.6), (2, 0, 0.48j), (1, 3, 0.64))
        rho = reduced_density_truncated(sys, Superposition(terms), basis)
        C = sum(cf * coefficient_table(sys, basis, m, n).values for (m, n, cf) in terms)
        assert np.max(np.abs(rho - C @ C.conj().T)) < 1e-15

    def test_unsupported_state(self):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.4)
        basis = default_basis(sys)
        with pytest.raises(UnsupportedStateError):
            reduced_density_truncated(sys, Coherent(), basis)


class TestTruncatedPurity:
    def test_anchor_exact_at_second_truncation(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        basis = BasisParams(SQ2, SQ2, 1, 1)
        assert purity_truncated(sys, NumberState(0, 1), basis) == pytest.approx(
            0.5, abs=1e-10)

    def test_separable_state_purity_one_entropy_zero(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        basis = BasisParams(SQ2, SQ2, 4, 4)
        state = NumberState(0, 0)
        assert purity_truncated(sys, state, basis) == pytest.approx(1.0, abs=1e-12)
        assert entropy_truncated(sys, state, basis) == pytest.approx(0.0, abs=1e-8)

    def test_converges_to_exact(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        basis = BasisParams(1.0, 1.0, 12, 12)
        assert abs(purity_truncated(sys, NumberState(0, 1), basis)
                   - purity_number(sys, 0, 1)) < 1e-4

    def test_never_exceeds_one(self):
        for (g, mu1) in [(0.5, 0.3), (1.0, 0.5), (8.0, 0.7)]:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            for tr in (1, 4, 8):
                basis = default_basis(sys, jmax=tr)
                p = purity_truncated(sys, NumberState(0, 1), basis)
                assert p <= 1.0 + 1e-10

    def test_superposition_state(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.75)
        st = Superposition.two_mode_mix(math.pi / 6)
        basis = default_basis(sys, jmax=14)
        from oscillent import purity_superposition
        assert purity_truncated(sys, st, basis) == pytest.approx(
            purity_superposition(sys, st), abs=1e-6)


class TestEntropy:
    def test_nonnegative_and_zero_iff_pure(self):
        cases = [(1.0, 0.5, NumberState(0, 0)), (5.0, 0.5, NumberState(0, 1)),
                 (2.0, 0.3, NumberState(1, 1))]
        for (g, mu1, state) in cases:
            sys = OscillatorSystem.from_dimensionless(g, mu1)
            basis = default_basis(sys, jmax=14)
            S = entropy_truncated(sys, state, basis)
            P = purity_truncated(sys, state, basis)
            assert S >= 0.0
            if abs(P - 1.0) < 1e-8:
                assert S < 1e-6
            else:
                assert S > 1e-6

    def test_matches_grid_entropy(self):
        # natural-log convention on both routes
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        basis = default_basis(sys, jmax=16)
        S_fock = entropy_truncated(sys, NumberState(0, 1), basis)
        S_grid = schmidt_analyze(sys, NumberState(0, 1)).entropy
        assert S_fock == pytest.approx(S_grid, abs=1e-6)


class TestConvergenceRun:
    def test_error_sequences_decrease_to_zero(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        rows, = convergence_run([sys], NumberState(0, 1),
                                [(SQ2, SQ2), (1.0, 1.0)], max_truncation=16)
        for pair in [(SQ2, SQ2), (1.0, 1.0)]:
            errs = [r[5] for r in rows if (r[0], r[1]) == pair]
            assert all(e >= 0 for e in errs)
            assert errs[-1] < 1e-5
            assert errs[-1] < errs[0]

    def test_basis_independence_at_convergence(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        rows, = convergence_run([sys], NumberState(0, 1),
                                [(SQ2, SQ2), (1.0, 1.0)], max_truncation=20)
        finals = [r[4] for r in rows if r[2] == 20]
        assert abs(finals[0] - finals[1]) < 1e-6
        exact = purity_number(sys, 0, 1)
        assert all(abs(f - exact) < 1e-6 for f in finals)

    def test_small_g_prefers_small_scales(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.1)
        rows, = convergence_run([sys], NumberState(0, 1),
                                [(SQ2, SQ2), (1.0, 1.0)], max_truncation=5)
        err = {(r[0], r[1]): r[5] for r in rows if r[2] == 5}
        assert err[(SQ2, SQ2)] < err[(1.0, 1.0)]

    def test_light_first_particle_prefers_ascending_scales(self):
        for g in (1.0, 5.0):
            sys = OscillatorSystem.from_dimensionless(g, 0.1)
            rows, = convergence_run([sys], NumberState(0, 1),
                                    [(SQ2, 1.0), (1.0, SQ2)], max_truncation=5)
            err = {(r[0], r[1]): r[5] for r in rows if r[2] == 5}
            assert err[(SQ2, 1.0)] < err[(1.0, SQ2)]

    def test_superposition_is_measured_against_its_exact_purity(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        state = Superposition(((0, 1, 0.6), (2, 1, 0.8j)))
        pairs = [(SQ2, SQ2), (0.9, 1.2)]
        rows, = convergence_run([sys], state, pairs, max_truncation=10)
        assert len(rows) == 2 * 11
        exact = purity_superposition(sys, state)
        assert all(r[5] == abs(r[4] - exact) for r in rows)
        for (g1, g2) in pairs:
            final = [r[4] for r in rows if (r[0], r[1], r[2]) == (g1, g2, 10)]
            assert final == [purity_truncated(sys, state, BasisParams(g1, g2, 10, 10))]

    @pytest.mark.parametrize("state", [NumberState(1, 2),
                                       Superposition(((0, 1, 0.6), (2, 1, 0.8j)))],
                             ids=["number", "superposition"])
    def test_many_systems_match_one_system_runs_bit_for_bit(self, state):
        systems = [OscillatorSystem.from_dimensionless(g, mu1)
                   for (g, mu1) in [(1.0, 0.5), (5.0, 0.3), (0.4, 0.8)]]
        pairs = [(SQ2, SQ2), (0.9, 1.2), (1.0, SQ2)]
        runs = convergence_run(systems, state, pairs, max_truncation=7)
        assert repr(runs) == repr([convergence_run([sys], state, pairs, max_truncation=7)[0]
                                   for sys in systems])
        for sys, rows in zip(systems, runs):
            assert len(rows) == 3 * 8
            # each purity is the one its own unstacked table gives
            for (g1, g2, j, k, purity, _) in rows:
                assert purity == purity_truncated(sys, state, BasisParams(g1, g2, j, k))

    def test_no_systems_or_no_bases_give_no_rows(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        assert convergence_run([], NumberState(0, 1), [(SQ2, SQ2)], max_truncation=3) == []
        assert convergence_run([sys], NumberState(0, 1), [], max_truncation=3) == [[]]

    def test_a_state_without_an_exact_reference_is_refused(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        with pytest.raises(UnsupportedStateError, match="Coherent"):
            convergence_run([sys], Coherent(), [(SQ2, SQ2)], max_truncation=3)

    def test_csv_writer(self, tmp_path, capsys):
        assert cli.run(["figure", "fig7", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig7_g1_mu0.5.csv").read_text().splitlines()
        assert lines[0] == '# params: {"g": 1.0, "mu1": 0.5, "state": "number:0,1"}'
        assert lines[1] == "gamma1,gamma2,jmax,kmax,purity,abs_error"
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        rows, = convergence_run([sys], NumberState(0, 1), cli._FIG7_PAIRS, max_truncation=5)
        assert len(lines) == 2 + len(rows) == 2 + 4 * 6
        assert [tuple(map(float, ln.split(","))) for ln in lines[2:]] == rows
