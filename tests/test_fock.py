import math

import numpy as np
import pytest

from oscillent import cli
from oscillent import (BasisParams, DomainError, NumberState,
                       OscillatorSystem, ResourceCapError, Superposition,
                       coefficient_table, convergence_run, default_basis,
                       entropy_truncated, purity_number, purity_truncated,
                       reduced_density_truncated, schmidt_analyze,
                       transform_coefficient)
from oscillent.errors import UnsupportedStateError
from oscillent.grid import hermite_functions

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
        assert transform_coefficient(sys, basis, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_odd_parity_vanishes(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(0.8, 1.2, 4, 4)
        assert transform_coefficient(sys, basis, 1, 0, 0, 0) == 0.0
        assert transform_coefficient(sys, basis, 2, 1, 1, 1) == 0.0

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

    def test_table_matches_single_coefficients(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(0.9, 1.1, 3, 3)
        table = coefficient_table(sys, basis, 1, 1)
        for j in range(4):
            for k in range(4):
                assert table.values[j, k] == pytest.approx(
                    transform_coefficient(sys, basis, j, k, 1, 1), abs=1e-13)

    def test_quadrature_oracle(self):
        # independent 2D quadrature of the overlap of the basis function with
        # the physical wavefunction
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(0.9, 1.1, 4, 4)
        got = transform_coefficient(sys, basis, 1, 1, 0, 2)
        from oscillent.grid import eval_wavefunction
        x = np.linspace(-12.0, 12.0, 2001)
        dx = x[1] - x[0]
        W = eval_wavefunction(sys, NumberState(0, 2), x[:, None], x[None, :]).real
        b1 = math.sqrt(0.9) * hermite_functions(0.9 * x, 1)[1]
        b2 = math.sqrt(1.1) * hermite_functions(1.1 * x, 1)[1]
        quad = float(b1 @ W @ b2) * dx * dx
        assert got == pytest.approx(quad, abs=1e-10)

    def test_cap(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        basis = BasisParams(1.0, 1.0, 2, 2)
        with pytest.raises(ResourceCapError):
            transform_coefficient(sys, basis, 40, 40, 0, 0, cap=64)

    def test_unrepresentable_factorial_weight_hits_cap(self):
        # 171! overflows a float; the check fires before any box is built
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        with pytest.raises(ResourceCapError, match="171"):
            coefficient_table(sys, BasisParams(1.0, 1.0, 171, 2), 0, 1)
        with pytest.raises(ResourceCapError):
            coefficient_table(sys, BasisParams(1.0, 1.0, 2, 2), 0, 200)


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
        from oscillent import Coherent
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
        rows = convergence_run(sys, NumberState(0, 1),
                               [(SQ2, SQ2), (1.0, 1.0)], max_truncation=16)
        for pair in [(SQ2, SQ2), (1.0, 1.0)]:
            errs = [r[5] for r in rows if (r[0], r[1]) == pair]
            assert all(e >= 0 for e in errs)
            assert errs[-1] < 1e-5
            assert errs[-1] < errs[0]

    def test_basis_independence_at_convergence(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
        rows = convergence_run(sys, NumberState(0, 1),
                               [(SQ2, SQ2), (1.0, 1.0)], max_truncation=20)
        finals = [r[4] for r in rows if r[2] == 20]
        assert abs(finals[0] - finals[1]) < 1e-6
        exact = purity_number(sys, 0, 1)
        assert all(abs(f - exact) < 1e-6 for f in finals)

    def test_small_g_prefers_small_scales(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.1)
        rows = convergence_run(sys, NumberState(0, 1),
                               [(SQ2, SQ2), (1.0, 1.0)], max_truncation=5)
        err = {(r[0], r[1]): r[5] for r in rows if r[2] == 5}
        assert err[(SQ2, SQ2)] < err[(1.0, 1.0)]

    def test_light_first_particle_prefers_ascending_scales(self):
        for g in (1.0, 5.0):
            sys = OscillatorSystem.from_dimensionless(g, 0.1)
            rows = convergence_run(sys, NumberState(0, 1),
                                   [(SQ2, 1.0), (1.0, SQ2)], max_truncation=5)
            err = {(r[0], r[1]): r[5] for r in rows if r[2] == 5}
            assert err[(SQ2, 1.0)] < err[(1.0, SQ2)]

    def test_csv_writer(self, tmp_path, capsys):
        assert cli.run(["figure", "fig7", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig7_g1_mu0.5.csv").read_text().splitlines()
        assert lines[0] == '# params: {"g": 1.0, "mu1": 0.5, "state": "number:0,1"}'
        assert lines[1] == "gamma1,gamma2,jmax,kmax,purity,abs_error"
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        rows = convergence_run(sys, NumberState(0, 1), cli._FIG7_PAIRS, max_truncation=5)
        assert len(lines) == 2 + len(rows) == 2 + 4 * 6
        assert [tuple(map(float, ln.split(","))) for ln in lines[2:]] == rows
