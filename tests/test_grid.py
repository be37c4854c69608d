import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillent import (Coherent, DomainError, GridSpec, NumberState,
                       OscillatorSystem, Superposition, UnboundGaussian,
                       density_grid, eval_wavefunction, purity_number,
                       schmidt_analyze)
from oscillent import cli, fock
from oscillent.acceptance import method_purity
from oscillent.errors import (NumericalConsistencyError, ResourceCapError,
                              UnsupportedStateError)
from oscillent.grid import hermite_functions, schmidt_from_samples
import oscillent.grid as grid_mod

TRAPPED = OscillatorSystem.from_dimensionless(1.7, 0.37)
FREE = OscillatorSystem.from_untrapped(0.37, c=2.0)


def svd_reference(W):
    """Singular values, purity and entropy from the SVD of W: purity =
    sum s^4 / (sum s^2)^2, entropy weights p_k = s_k^2 / sum s^2."""
    s = np.linalg.svd(W, compute_uv=False)
    p = s ** 2 / np.sum(s ** 2)
    pos = p[p > 1e-300]
    return s, float(np.sum(p ** 2)), float(-np.sum(pos * np.log(pos)))


@st.composite
def sample_matrices(draw):
    """Random real or complex W of full rank, rank 1, or a rank below both
    dimensions, at scales from 1e-3 to 1e3."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    complex_ = draw(st.booleans())
    kind = draw(st.sampled_from(["full", "rank1", "deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gauss(shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_ else x

    if kind == "full":
        W = gauss((rows, cols))
    else:
        top = min(rows, cols) - 1
        rank = 1 if kind == "rank1" or top < 1 else draw(st.integers(1, top))
        W = gauss((rows, rank)) @ gauss((rank, cols))
    return W * 10.0 ** draw(st.integers(-3, 3))


def same_bits(a, b):
    """Whether two arrays (or numpy scalars) hold the same dtype, shape and
    bytes: signed zeros and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def hermite_expressions(u, nmax):
    """The recurrence of :func:`hermite_functions` written as whole-array
    expressions, each step one fresh array: the reference for its bits."""
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(1, nmax):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * u * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


class TestHermiteFunctions:
    @pytest.mark.parametrize("u", [
        np.array(0.37),
        np.array(-45.0),
        np.concatenate((np.linspace(-60.0, 60.0, 241), [0.0, -0.0, 1e-160, -3e-200])),
        np.linspace(-44.0, 41.0, 16 * 12).reshape(16, 12),
    ], ids=["0-d", "0-d-underflow", "1-d", "2-d"])
    def test_rows_have_the_bits_of_the_expression_form(self, u):
        # past |u| = 40 the Gaussian factor underflows and the rows with it
        for nmax in range(81):
            assert same_bits(hermite_functions(u, nmax), hermite_expressions(u, nmax))

    def test_orthonormal(self):
        x = np.linspace(-12, 12, 4001)
        dx = x[1] - x[0]
        h = hermite_functions(x, 6)
        gram = h @ h.T * dx
        assert np.max(np.abs(gram - np.eye(7))) < 1e-10

    def test_stable_at_large_order(self):
        x = np.linspace(-15, 15, 501)
        h = hermite_functions(x, 80)
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h[80])) < 1.0

    def test_parity(self):
        x = np.linspace(-3, 3, 7)
        h = hermite_functions(x, 3)
        assert np.allclose(h[2], h[2][::-1])
        assert np.allclose(h[3], -h[3][::-1])


class TestEvalWavefunction:
    def test_ground_state_peak_value(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        val = eval_wavefunction(sys, NumberState(0, 0), 0.0, 0.0)
        expect = math.sqrt(sys.gamma * sys.Gamma / math.pi)
        assert complex(val) == pytest.approx(expect, abs=1e-14)

    def test_first_excited_is_odd_in_relative_coordinate(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        a = 0.63
        # with mu1 = mu2 the swap x1 <-> x2 flips r and keeps X
        left = complex(eval_wavefunction(sys, NumberState(1, 0), a, -a))
        right = complex(eval_wavefunction(sys, NumberState(1, 0), -a, a))
        assert left == pytest.approx(-right, abs=1e-14)

    @pytest.mark.parametrize("state", [
        NumberState(0, 0),
        NumberState(2, 1),
        Coherent(0.5 + 0.2j, -0.4 + 1.0j),
        Superposition.two_mode_mix(0.9),
    ])
    def test_discrete_norm(self, state):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.3)
        spec = GridSpec(512, 8.0)
        c1, c2, half1, half2 = grid_mod._window(sys, state, spec.extent_sigmas)
        x1 = np.linspace(c1 - half1, c1 + half1, spec.n_points)
        x2 = np.linspace(c2 - half2, c2 + half2, spec.n_points)
        W = eval_wavefunction(sys, state, x1[:, None], x2[None, :])
        norm = np.sum(np.abs(W) ** 2) * (x1[1] - x1[0]) * (x2[1] - x2[0])
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_unbound_norm(self):
        sys = OscillatorSystem.from_untrapped(0.5, c=3.0)
        state = UnboundGaussian(1, 4.0)
        spec = GridSpec(512, 8.0)
        _, _, half1, half2 = grid_mod._window(sys, state, spec.extent_sigmas)
        x1 = np.linspace(-half1, half1, spec.n_points)
        x2 = np.linspace(-half2, half2, spec.n_points)
        W = eval_wavefunction(sys, state, x1[:, None], x2[None, :])
        norm = np.sum(np.abs(W) ** 2) * (x1[1] - x1[0]) * (x2[1] - x2[0])
        assert norm == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("state, dtype", [
        (NumberState(0, 0), np.float64),
        (NumberState(2, 3), np.float64),
        (Superposition.two_mode_mix(0.9), np.float64),
        (Superposition(((0, 1, 0.6), (1, 0, 0.8j))), np.complex128),
        (Coherent(0.5 + 0.2j, -0.4 + 1.0j), np.complex128),
        (Coherent(0.3, 0.0), np.complex128),
    ])
    def test_dtype_follows_the_state(self, state, dtype):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.3)
        x = np.linspace(-2, 2, 5)
        assert eval_wavefunction(sys, state, x[:, None], x[None, :]).dtype == dtype

    @pytest.mark.parametrize("sys, state", [
        (TRAPPED, NumberState(2, 3)),
        (TRAPPED, Coherent(0.5 + 0.2j, -0.4 + 1.0j)),
        (FREE, UnboundGaussian(2, 1.5)),
        (TRAPPED, Superposition(((0, 1, 0.6), (1, 0, 0.48), (2, 1, 0.64)))),
        (TRAPPED, Superposition(((0, 1, 0.6), (2, 0, 0.8j)))),
    ], ids=["number", "coherent", "unbound", "real-mix", "complex-mix"])
    @pytest.mark.parametrize("x1, x2", [
        (np.linspace(-6.0, 5.0, 23)[:, None], np.linspace(-5.5, 6.5, 19)[None, :]),
        (0.4, -1.3),
    ], ids=["grid", "point"])
    def test_out_holds_the_bits_of_a_fresh_result(self, sys, state, x1, x2):
        ref = eval_wavefunction(sys, state, x1, x2)
        # NaN to start with, so a cell read before it is written shows
        out = np.full(np.shape(ref), np.nan, dtype=ref.dtype)
        assert eval_wavefunction(sys, state, x1, x2, out=out) is out
        assert same_bits(out, ref)

    def test_unbound_needs_untrapped_system(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        with pytest.raises(DomainError):
            eval_wavefunction(sys, UnboundGaussian(0, 1.0), 0.0, 0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sample_matrices())
def test_gram_route_matches_svd(W):
    s, purity, entropy = schmidt_from_samples(W)
    s_ref, purity_ref, entropy_ref = svd_reference(W)
    assert abs(purity - purity_ref) <= 1e-14
    assert abs(entropy - entropy_ref) <= 1e-10
    assert s.shape == s_ref.shape
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    assert np.max(np.abs(s - s_ref)) <= 1e-6 * s_ref[0]


@pytest.mark.parametrize("W", [
    np.zeros((3, 3)),
    np.zeros((2, 5), complex),
    np.full((4, 2), np.nan),
], ids=["real", "complex-rectangular", "nan"])
def test_zero_or_nan_samples_rejected(W):
    with pytest.raises(DomainError):
        schmidt_from_samples(W)


@pytest.mark.parametrize("W", [
    np.array([[np.inf, 1.0], [0.0, 1.0]]),
], ids=["inf"])
def test_overflowing_samples_rejected(W):
    # tr(G) is inf: the pivoted factor would stop at once and report a product state
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="overflows"):
        schmidt_from_samples(W)


@pytest.mark.parametrize("scale, unit", [
    (1e200, np.ones((2, 2))),
    (1e160, np.full((3, 2), 1 + 1j)),
    (1e150, np.ones((2, 2))),
    (1e-170, np.ones((2, 2))),
], ids=["real", "complex", "square-overflows", "underflows"])
def test_extreme_scale_samples_answered(scale, unit):
    # tr(G) or ||G||_F^2 leaves the float range; a product state either way
    s, purity, entropy = schmidt_from_samples(scale * unit)
    s_ref = svd_reference(unit)[0]
    assert purity == 1.0 and 0.0 <= entropy <= 1e-15
    assert s == pytest.approx(scale * s_ref, rel=1e-12, abs=1e-12 * scale * s_ref[0])


@pytest.mark.parametrize("shift", [600, -600])
def test_power_of_two_rescale_moves_no_purity_bit(shift):
    rng = np.random.default_rng(5)
    W = rng.normal(size=(30, 20)) + 1j * rng.normal(size=(30, 20))
    s, purity, entropy = schmidt_from_samples(W)
    s2, purity2, entropy2 = schmidt_from_samples(np.ldexp(W.real, shift)
                                                 + 1j * np.ldexp(W.imag, shift))
    assert purity2 == purity
    assert entropy2 == pytest.approx(entropy, abs=1e-13)
    assert np.ldexp(s2, -shift) == pytest.approx(s, rel=1e-12)


class TestCheck:
    @staticmethod
    def result(norm_defect, grid_defect):
        return grid_mod.SchmidtResult(purity=0.5, norm_defect=norm_defect,
                                      grid_defect=grid_defect, n_points=48,
                                      gram=np.eye(2), trace=2.0)

    def test_defects_at_the_bounds_pass(self):
        assert self.result(6e-7, 1e-6).check() is None
        assert self.result(0.0, 0.0).check() is None

    # 6.6e-7 lies just above the bound; 1.1e-3 just above the old one of 1e-3
    @pytest.mark.parametrize("norm_defect", [6.6e-7, 1.1e-3, math.nan, math.inf])
    def test_norm_gate_alone(self, norm_defect):
        with pytest.raises(NumericalConsistencyError) as err:
            self.result(norm_defect, 0.0).check()
        assert str(err.value) == (
            f"grid norm defect {norm_defect:.3e} exceeds 6e-7; enlarge extent_sigmas if the "
            f"window is too narrow or raise n_points if the grid is too coarse")

    @pytest.mark.parametrize("grid_defect", [1.1e-6, math.nan, math.inf])
    def test_grid_gate_alone(self, grid_defect):
        with pytest.raises(NumericalConsistencyError) as err:
            self.result(0.0, grid_defect).check()
        assert str(err.value) == (
            f"grid defect {grid_defect:.3e} (purity at 48 points against every second "
            f"point) exceeds 1e-6; raise n_points, or leave it unset to size the grid "
            f"from the state")

    def test_norm_gate_comes_first(self):
        for norm_defect, grid_defect in [(1.0, 1.0), (math.nan, math.nan)]:
            with pytest.raises(NumericalConsistencyError, match="^grid norm defect"):
                self.result(norm_defect, grid_defect).check()


class TestSampleCap:
    def test_oversized_grid_raises_before_allocating(self):
        sys = OscillatorSystem.from_dimensionless(2.0, 0.3)
        tracemalloc.start()
        try:
            for call in (schmidt_analyze, density_grid):
                with pytest.raises(ResourceCapError, match="grid points"):
                    call(sys, NumberState(0, 0), GridSpec(100000, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("state", [
        NumberState(4, 4), Coherent(0.5 + 0.2j, -0.4 + 1.0j),
        Superposition(((0, 4, 0.6), (4, 0, 0.8j))), UnboundGaussian(4, 3.0),
    ])
    def test_largest_grid_in_use_passes(self, state):
        grid_mod._check_sample_cap(state, 1024)

    def test_cap_message_past_the_float_range(self):
        # need / 2 ** 20 raised OverflowError while the message was formatted
        with pytest.raises(ResourceCapError, match=r"needs about 30517578125\d* MiB"):
            grid_mod._check_sample_cap(NumberState(0, 1), 10 ** 200)

    @pytest.mark.parametrize("nbytes", [0, 2 ** 19, 3 * 2 ** 19, 5 * 2 ** 19 + 1,
                                        305188 * 2 ** 20 - 7, 2 ** 52 + 2 ** 19])
    def test_mib_prints_as_the_float_quotient(self, nbytes):
        assert str(grid_mod._mib(nbytes)) == f"{nbytes / 2 ** 20:.0f}"

    def test_cap_grows_with_the_hermite_order(self):
        # a block of a 2048^2 grid has 16384 cells; a stack of 9001 Hermite
        # rows over it alone takes 1.1 GiB
        grid_mod._check_sample_cap(NumberState(0, 0), 2048)
        grid_mod._check_sample_cap(NumberState(60, 60), 2048)
        with pytest.raises(ResourceCapError):
            grid_mod._check_sample_cap(NumberState(9000, 9000), 2048)

    @pytest.mark.parametrize("sys, state, n, entropy", [
        (TRAPPED, NumberState(0, 0), 128, False),
        (TRAPPED, NumberState(0, 0), 128, True),
        (TRAPPED, Superposition(((0, 60, 0.6), (60, 0, 0.8))), 128, True),
        (TRAPPED, Superposition(((0, 60, 0.6), (60, 0, 0.8j))), 256, True),
        (FREE, UnboundGaussian(60, 3.0), 512, False),
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), 1024, True),
        (TRAPPED, NumberState(4, 4), 2048, True),
    ], ids=["0,0-128", "0,0-128-entropy", "real-60-128-entropy", "complex-60-256-entropy",
            "unbound-60-512", "coherent-1024-entropy", "4,4-2048-entropy"])
    def test_prediction_covers_the_measured_peak(self, sys, state, n, entropy):
        tracemalloc.start()
        try:
            res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
            if entropy:
                assert res.entropy >= 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_points == n
        assert grid_mod._check_sample_cap(state, n) >= peak


class TestSchmidtAnalyze:
    def test_coherent_g4(self):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.5)
        res = schmidt_analyze(sys, Coherent())
        assert res.purity == pytest.approx(0.8, abs=1e-6)
        assert res.norm_defect < 1e-6

    def test_g1_ground_state_separable(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        res = schmidt_analyze(sys, NumberState(0, 0))
        assert abs(res.purity - 1.0) < 1e-8
        assert res.entropy < 1e-6

    def test_number_11_at_g1(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        res = schmidt_analyze(sys, NumberState(1, 1))
        assert res.purity == pytest.approx(0.5, abs=1e-6)

    def test_singular_values_descending(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        s = schmidt_analyze(sys, NumberState(1, 0)).singular_values
        assert np.all(np.diff(s) <= 0)

    def test_grid_doubling_stability(self):
        cases = [
            (OscillatorSystem.from_dimensionless(4.0, 0.5), Coherent()),
            (OscillatorSystem.from_dimensionless(5.0, 0.3), NumberState(1, 1)),
            (OscillatorSystem.from_untrapped(0.5, c=3.0), UnboundGaussian(0, 5.0)),
        ]
        for sys, state in cases:
            p1 = schmidt_analyze(sys, state, GridSpec(512, 8.0)).purity
            p2 = schmidt_analyze(sys, state, GridSpec(1024, 8.0)).purity
            assert abs(p1 - p2) < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        _, p1, e1 = schmidt_from_samples(W)
        # power-of-two scaling is a pure exponent shift, so bit-exact
        _, p2, _ = schmidt_from_samples(1024.0 * W)
        assert p1 == p2
        _, p3, e3 = schmidt_from_samples(3.7e5 * W)
        assert p1 == pytest.approx(p3, rel=1e-12)
        assert e1 == pytest.approx(e3, abs=1e-12)

    def test_norm_defect_reported_without_warning(self, monkeypatch):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.5)
        real_window = grid_mod._window

        def tiny_window(sys_, state_, extent):
            c1, c2, half1, half2 = real_window(sys_, state_, extent)
            return c1, c2, half1 / 10.0, half2 / 10.0

        monkeypatch.setattr(grid_mod, "_window", tiny_window)
        # the suite turns warnings into errors, so none is emitted
        res = schmidt_analyze(sys, Coherent(), GridSpec(64, 8.0))
        assert res.norm_defect > 1e-3
        with pytest.raises(NumericalConsistencyError, match="norm defect") as err:
            res.check()
        assert "extent_sigmas" in str(err.value) and "n_points" in str(err.value)

    def test_coarse_grid_reports_both_defects_without_warning(self):
        # the 32-point grid of the command line's norm-gate example
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        res = schmidt_analyze(sys, NumberState(2, 2), GridSpec(32, 8.0))
        assert res.norm_defect > 1e-3 and res.grid_defect > 1e-6
        with pytest.raises(NumericalConsistencyError, match="norm defect"):
            res.check()

    def test_grid_spec_validation(self):
        with pytest.raises(DomainError):
            GridSpec(n_points=8)
        with pytest.raises(DomainError, match="integer"):
            GridSpec(n_points=100.5)
        assert GridSpec(n_points=np.int64(64)).n_points == 64
        with pytest.raises(DomainError):
            GridSpec(extent_sigmas=2.0)


class TestDensityGrid:
    def test_separable_case_is_rank_one(self):
        sys = OscillatorSystem.from_dimensionless(1.0, 0.25)
        dg = density_grid(sys, NumberState(0, 0), GridSpec(256, 8.0))
        s = np.linalg.svd(dg.density, compute_uv=False)
        assert s[1] / s[0] < 1e-8

    def test_entangled_case_is_not_rank_one(self):
        sys = OscillatorSystem.from_dimensionless(10.0, 0.5)
        dg = density_grid(sys, NumberState(0, 0), GridSpec(256, 8.0))
        s = np.linalg.svd(dg.density, compute_uv=False)
        assert s[1] / s[0] > 1e-3

    def test_symmetric_masses_symmetric_density(self):
        sys = OscillatorSystem.from_dimensionless(6.0, 0.5)
        dg = density_grid(sys, NumberState(1, 1), GridSpec(128, 8.0))
        assert np.max(np.abs(dg.density - dg.density.T)) < 1e-12

    def test_total_mass_is_one(self):
        sys = OscillatorSystem.from_dimensionless(3.0, 0.3)
        dg = density_grid(sys, NumberState(0, 1), GridSpec(512, 8.0))
        mass = np.sum(dg.density) * (dg.x1[1] - dg.x1[0]) * (dg.x2[1] - dg.x2[0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_serializers(self, tmp_path, capsys):
        assert cli.run(["figure", "fig1", "--points", "16", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig1_g1_mu0.25.csv").read_text().splitlines()
        assert lines[0] == '# params: {"g": 1.0, "mu1": 0.25, "n": 16, "state": "number:0,0"}'
        assert lines[1] == "x1,x2,density"
        assert len(lines) == 2 + 16 * 16
        # axes and density as sampled, x2 running fastest
        sys = OscillatorSystem.from_dimensionless(1.0, 0.25)
        dg = density_grid(sys, NumberState(0, 0), GridSpec(16, 8.0))
        rows = np.array([list(map(float, ln.split(","))) for ln in lines[2:]])
        assert np.array_equal(rows[:, 0], np.repeat(dg.x1, 16))
        assert np.array_equal(rows[:, 1], np.tile(dg.x2, 16))
        assert np.array_equal(rows[:, 2], dg.density.ravel())


@st.composite
def oracle_inputs(draw):
    """g log-uniform in [0.05, 20], mu1 in [0.001, 0.999], and a number state
    with m + n <= 6, the one-excitation mix, or a two-term superposition
    with a complex coefficient, within the exact route's cross-term cap."""
    g = math.exp(draw(st.floats(math.log(0.05), math.log(20.0))))
    mu1 = draw(st.floats(0.001, 0.999))
    kind = draw(st.sampled_from(["number", "mix", "superposition"]))
    if kind == "number":
        m = draw(st.integers(0, 6))
        state = NumberState(m, draw(st.integers(0, 6 - m)))
    elif kind == "mix":
        state = Superposition.two_mode_mix(draw(st.floats(0.0, math.pi)))
    else:
        (m1, n1), (m2, n2) = draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=2,
            unique=True))
        phase = draw(st.floats(0.0, 2 * math.pi))
        state = Superposition(((m1, n1, 0.6), (m2, n2, 0.8 * complex(math.cos(phase),
                                                                      math.sin(phase)))))
    return OscillatorSystem.from_dimensionless(g, mu1), state


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(oracle_inputs())
def test_sized_grid_matches_exact(inputs):
    sys, state = inputs
    res = schmidt_analyze(sys, state)
    assert abs(res.purity - method_purity(sys, state)) <= 1e-10
    assert res.grid_defect <= 1e-10
    assert res.n_points % 16 == 0 and res.n_points >= 32


class TestSizedGrid:
    def test_half_widths_are_per_axis(self):
        sys = OscillatorSystem.from_dimensionless(0.2, 0.1)
        c1, c2, half1, half2 = grid_mod._window(sys, NumberState(0, 0), 8.0)
        # position spreads of the ground state: <x_a^2> = 1/(2 Gamma^2) + mu_b^2/(2 gamma^2)
        sigma1 = math.sqrt(0.5 / sys.Gamma ** 2 + 0.5 * sys.mu2 ** 2 / sys.gamma ** 2)
        sigma2 = math.sqrt(0.5 / sys.Gamma ** 2 + 0.5 * sys.mu1 ** 2 / sys.gamma ** 2)
        assert (c1, c2) == (0.0, 0.0)
        assert half1 == pytest.approx(8.0 * sigma1, rel=1e-14)
        assert half2 == pytest.approx(8.0 * sigma2, rel=1e-14)
        assert half1 > 2.5 * half2
        x1, x2, _, dx1, dx2, _ = grid_mod._sample(sys, NumberState(0, 0), GridSpec())
        assert x1[-1] == pytest.approx(half1, rel=1e-14)
        assert x2[-1] == pytest.approx(half2, rel=1e-14)
        assert dx1 > 2.5 * dx2

    def test_equal_masses_give_a_square_window(self):
        sys = OscillatorSystem.from_dimensionless(10.0, 0.5)
        _, _, half1, half2 = grid_mod._window(sys, NumberState(2, 1), 8.0)
        assert half1 == half2

    def test_explicit_points_override_the_sizing(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        sized = schmidt_analyze(sys, NumberState(1, 1))
        explicit = schmidt_analyze(sys, NumberState(1, 1), GridSpec(200, 8.0))
        assert sized.n_points == 144
        assert explicit.n_points == 200 == len(explicit.singular_values)

    def test_points_follow_the_narrowest_conditional_width(self):
        sys = OscillatorSystem.from_dimensionless(1000.0, 0.5)
        _, _, half1, half2 = grid_mod._window(sys, NumberState(1, 1), 8.0)
        width = 1.0 / math.sqrt(2.0 * (sys.gamma ** 2 + sys.Gamma ** 2 * 0.25))
        ratio = 2.0 * half1 / width
        assert grid_mod._sized_points(sys, half1, half2) == 16 * math.ceil(4 * ratio / 16)
        assert grid_mod._sized_points(OscillatorSystem.from_dimensionless(1.0, 0.5),
                                      1e-3, 1e-3) == 32

    def test_wide_anisotropy_resolved(self):
        # the ridge along x1 = x2 is the r-spread, 1/20 of the window here
        sys = OscillatorSystem.from_dimensionless(1000.0, 0.5)
        res = schmidt_analyze(sys, NumberState(1, 1))
        assert abs(res.purity - purity_number(sys, 1, 1)) <= 1e-12
        assert res.grid_defect <= 1e-10

    def test_two_grid_check_flags_a_coarse_grid(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        res = schmidt_analyze(sys, NumberState(2, 2), GridSpec(48, 8.0))
        assert res.norm_defect < 1e-6
        assert res.grid_defect > 1e-2
        assert abs(res.purity - purity_number(sys, 2, 2)) > 1e-7

    def test_a_zero_weight_term_does_not_size_the_grid(self):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        res = schmidt_analyze(sys, Superposition(((0, 1, 1.0), (0, 5, 0.0))))
        ref = schmidt_analyze(sys, NumberState(0, 1))
        assert res.n_points == ref.n_points == 144
        assert res.purity == ref.purity

    def test_a_state_that_is_no_state_kind_is_refused(self):
        with pytest.raises(UnsupportedStateError,
                           match="^cannot size a grid for state kind object$"):
            schmidt_analyze(TRAPPED, object())

    def test_sized_grid_above_the_cap_raises_before_allocating(self):
        sys = OscillatorSystem.from_dimensionless(1e6, 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="grid points"):
                schmidt_analyze(sys, NumberState(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestBlockedSampling:
    @pytest.mark.parametrize("n", [17, 33, 1000])
    @pytest.mark.parametrize("sys, state", [
        (TRAPPED, NumberState(2, 2)),
        (TRAPPED, Superposition.two_mode_mix(math.pi / 3)),
        (TRAPPED, Superposition(((0, 1, 0.6), (2, 0, 0.8j)))),
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j)),
        (OscillatorSystem.from_untrapped(0.37, c=2.0), UnboundGaussian(1, 2.0)),
    ], ids=["number", "real-mix", "complex-mix", "coherent", "unbound"])
    def test_blocks_match_one_call_over_the_grid(self, monkeypatch, sys, state, n):
        whole = grid_mod.eval_wavefunction
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return whole(*args, **kwargs)

        monkeypatch.setattr(grid_mod, "eval_wavefunction", counted)
        x1, x2, W, _, _, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0))
        ref = whole(sys, state, x1[:, None], x2[None, :])
        assert W.dtype == ref.dtype
        assert np.array_equal(W, ref)
        assert sum(calls) == n
        # every block holds at least 2^14 cells unless the grid is smaller
        assert min(calls) * n >= min(n * n, 2 ** 14)
        assert len(calls) == (1 if n * n <= 2 ** 14 else n // math.ceil(2 ** 14 / n))

    def test_numpy_buffer_size_is_the_callers_again(self):
        # the coordinates and the fold read rows in place by lowering numpy's
        # ufunc buffer size for a moment
        old = np.setbufsize(4096)
        try:
            schmidt_analyze(TRAPPED, NumberState(2, 2), GridSpec(480, 8.0)).entropy
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("x", [
        np.array([[-1.5, 0.0], [-0.0, 3e-200]]),
        np.array([[1.0 - 2.0j, -0.5j], [3e-200 + 1j, 0.0]]),
    ], ids=["real", "complex"])
    def test_abs2_has_the_bits_of_abs_squared(self, x):
        assert np.array_equal(grid_mod._abs2(x), np.abs(x) ** 2)


class TestSpectrumOnDemand:
    @pytest.fixture
    def counted(self, monkeypatch):
        """The orders of the pivoted factors taken, and the calls that read a
        spectrum off them."""
        calls = {"cholesky": [], "spectra": 0}
        cholesky, spectra = grid_mod._cholesky, grid_mod._spectra

        def counted_cholesky(column, d, total, dtype):
            calls["cholesky"].append(d.shape[0])
            return cholesky(column, d, total, dtype)

        def counted_spectra(*args):
            calls["spectra"] += 1
            return spectra(*args)

        monkeypatch.setattr(grid_mod, "_cholesky", counted_cholesky)
        monkeypatch.setattr(grid_mod, "_spectra", counted_spectra)
        return calls

    def test_computed_once_on_first_read(self, counted):
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        res = schmidt_analyze(sys, NumberState(2, 1), GridSpec(128, 8.0))
        assert counted == {"cholesky": [], "spectra": 0}
        s, entropy = res.singular_values, res.entropy
        assert res.entropy == entropy and res.singular_values is s
        # |2,1> is odd: one factor for each of the two 64 x 64 parity blocks
        assert counted == {"cholesky": [64, 64], "spectra": 1}
        _, _, W, _, _, _ = grid_mod._sample(sys, NumberState(2, 1), GridSpec(128, 8.0), fold=True)
        grams, total, purity_ref, e = grid_mod._scaled(W, fold=True)
        factors = tuple(grid_mod._gram_factor(G, total) for G in grams)
        s_ref, entropy_ref, _ = grid_mod._spectra(factors, total, 128)
        assert (res.purity, res.entropy) == (purity_ref, entropy_ref)
        assert np.array_equal(s, np.ldexp(s_ref, e))

    def test_an_oversampled_grid_factors_once_and_reads_the_spectrum_once(self, counted):
        # 512 points are 3.6 times the 144 of the sized grid: the factors of
        # both parity blocks and of the 256^2 coarse grid give the purities
        sys = OscillatorSystem.from_dimensionless(1.7, 0.37)
        res = schmidt_analyze(sys, NumberState(2, 1), GridSpec(512, 8.0))
        assert schmidt_analyze(sys, NumberState(2, 1)).n_points == 144
        assert counted == {"cholesky": [256, 256, 256], "spectra": 0}
        assert res.gram == () and len(res.factors) == 2
        s, entropy = res.singular_values, res.entropy
        assert res.entropy == entropy and res.singular_values is s
        assert counted == {"cholesky": [256, 256, 256], "spectra": 1}
        _, _, W, _, _, _ = grid_mod._sample(sys, NumberState(2, 1), GridSpec(512, 8.0), fold=True)
        factors, total, purity_ref, e = grid_mod._scaled(W, fold=True, factor=True)
        s_ref, entropy_ref, _ = grid_mod._spectra(factors, total, 512)
        assert (res.purity, res.entropy) == (purity_ref, entropy_ref)
        assert np.array_equal(s, np.ldexp(s_ref, e))

    def test_peak_memory_without_the_spectrum(self):
        # folded and factored from the samples (1024 points are 4.9 times
        # the sized 208): 4 MiB of samples, 2 MiB for each parity block, and
        # temporaries (10 MiB measured; 14 MiB with the two 2 MiB Gram
        # blocks, 24 MiB as one block); full-size Hermite rows alone would
        # add 80 MiB
        sys = OscillatorSystem.from_dimensionless(1.7, 0.37)
        tracemalloc.start()
        try:
            res = schmidt_analyze(sys, NumberState(4, 4), GridSpec(1024, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_points == 1024
        assert peak < 40 * 2 ** 20


FOLDED = [
    pytest.param(TRAPPED, NumberState(2, 2), id="number-even"),
    pytest.param(TRAPPED, NumberState(2, 1), id="number-odd"),
    pytest.param(TRAPPED, NumberState(7, 4), id="number-7,4"),
    pytest.param(TRAPPED, Superposition.two_mode_mix(0.7), id="real-mix"),
    pytest.param(TRAPPED, Superposition(((0, 0, 0.6), (1, 1, 0.8))), id="real-even-mix"),
    pytest.param(TRAPPED, Superposition(((0, 1, 0.6), (1, 0, 0.8j))), id="complex-mix"),
    pytest.param(FREE, UnboundGaussian(2, 3.0), id="unbound-even"),
    pytest.param(FREE, UnboundGaussian(1, 5.0), id="unbound-odd"),
]


def oversampled(sys, state, n):
    """Whether an n^2 grid has at least _FACTOR_RATIO times the points of
    the state's sized grid, so that it takes the factor route."""
    return n >= grid_mod._FACTOR_RATIO * schmidt_analyze(sys, state).n_points


def factors_of(blocks, total, factor):
    """The pivoted factors of the blocks ``_scaled`` returned on either
    route."""
    return blocks if factor else tuple(grid_mod._gram_factor(G, total) for G in blocks)


def mirrored_grid(sys, state, n):
    """The folded sampling of ``state`` on n^2 points and the samples of
    one call over its whole mirrored grid."""
    x1, x2, W, dx1, dx2, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0), fold=True)
    return x1, x2, W, dx1, dx2, eval_wavefunction(sys, state, x1[:, None], x2[None, :])


class TestParityFold:
    # 50 points: an odd number of rows in the half; 144: the half holds fewer
    # than 2^14 cells and the whole grid more
    @pytest.mark.parametrize("n", [50, 64, 144, 512])
    @pytest.mark.parametrize("sys, state", FOLDED)
    def test_folded_samples_are_the_whole_mirrored_grid(self, sys, state, n):
        x1, x2, W, _, _, whole = mirrored_grid(sys, state, n)
        assert np.array_equal(x1[::-1], -x1) and np.array_equal(x2[::-1], -x2)
        assert W.shape == (n // 2, n) and W.dtype == whole.dtype
        assert np.array_equal(W, whole[:n // 2])
        turned = whole[::-1, ::-1]
        assert np.array_equal(turned, whole if state.parity > 0 else -whole)
        assert np.array_equal(grid_mod._coarse(W, state.parity), whole[::2, ::2])

    def test_first_half_of_each_axis_is_linspace(self):
        x1, x2, _, dx1, dx2, _ = grid_mod._sample(TRAPPED, NumberState(2, 2), GridSpec(200, 8.0),
                                               fold=True)
        y1, y2, _, ey1, ey2, _ = grid_mod._sample(TRAPPED, NumberState(2, 2), GridSpec(200, 8.0))
        assert np.array_equal(x1[:100], y1[:100]) and np.array_equal(x2[:100], y2[:100])
        assert (dx1, dx2) == (ey1, ey2)
        assert np.max(np.abs(x1 - y1)) <= 1e-15 * x1[-1]

    @pytest.mark.parametrize("n", [50, 64, 512])
    @pytest.mark.parametrize("sys, state", FOLDED)
    def test_folded_result_matches_one_block(self, sys, state, n):
        _, _, W, dx1, dx2, whole = mirrored_grid(sys, state, n)
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        factor = oversampled(sys, state, n)
        if factor:
            assert res.gram == () and len(res.factors) == 2
        else:
            assert len(res.gram) == 2 and all(G.shape == (n // 2, n // 2) for G in res.gram)
        s_ref, purity_ref, entropy_ref = schmidt_from_samples(whole)
        assert abs(res.purity - purity_ref) <= 2e-15 * purity_ref
        assert abs(res.entropy - entropy_ref) <= 1e-12
        s = res.singular_values
        assert len(s) == n and np.all(np.diff(s) <= 0)
        # the squares are the Schmidt weights; a weight at the roundoff floor,
        # eps tr(G), has a singular value sqrt(eps) of the largest
        assert np.max(np.abs(s ** 2 - s_ref ** 2)) <= 1e-12 * s_ref[0] ** 2
        assert np.max(np.abs(s - s_ref)) <= 1e-6 * s_ref[0]
        norm_ref = float(np.sum(grid_mod._abs2(whole)) * dx1 * dx2)
        assert abs(res.norm_defect - abs(1.0 - norm_ref)) <= 1e-14
        # the coarse grid takes the route of the whole grid
        coarse_ref = grid_mod._scaled(whole[::2, ::2], factor=factor)[2]
        assert res.grid_defect == abs(res.purity - coarse_ref)

    @pytest.mark.parametrize("sys, state, n", [
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), 128),
        (TRAPPED, Coherent(), 128),
        (TRAPPED, Superposition(((0, 0, 0.6), (0, 1, 0.8))), 128),
        (TRAPPED, Superposition(((0, 1, 0.6), (2, 0, 0.8j))), 144),
        (TRAPPED, NumberState(2, 2), 129),
        (FREE, UnboundGaussian(1, 5.0), 201),
    ], ids=["coherent", "coherent-ground", "mixed-parity", "complex-mixed-parity",
            "odd-n", "unbound-odd-n"])
    def test_states_without_a_fold_keep_one_block(self, sys, state, n):
        x1, x2, W, dx1, dx2, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0), fold=True)
        y1, y2, V, _, _, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0))
        assert W.shape == (n, n)
        assert np.array_equal(W, V) and np.array_equal(x1, y1) and np.array_equal(x2, y2)
        assert np.array_equal(x1, np.linspace(x1[0], x1[-1], n))
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        assert len(res.gram) == 1
        s_ref, purity_ref, entropy_ref = schmidt_from_samples(W)
        assert (res.purity, res.entropy) == (purity_ref, entropy_ref)
        assert np.array_equal(res.singular_values, s_ref)
        assert res.norm_defect == abs(1.0 - float(np.sum(grid_mod._abs2(W)) * dx1 * dx2))
        assert res.grid_defect == abs(purity_ref - schmidt_from_samples(W[::2, ::2])[1])

    def test_density_grid_is_never_folded(self):
        dg = density_grid(TRAPPED, NumberState(2, 2), GridSpec(128, 8.0))
        x1, x2, W, _, _, _ = grid_mod._sample(TRAPPED, NumberState(2, 2), GridSpec(128, 8.0))
        assert dg.density.shape == (128, 128)
        assert np.array_equal(dg.x1, x1) and np.array_equal(dg.density, W * W)

    @pytest.mark.parametrize("shift", [600, -600])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_power_of_two_rescale_of_a_folded_grid_moves_no_purity_bit(self, shift, complex_):
        self.check_power_of_two_rescale(shift, complex_, factor=False)

    @pytest.mark.parametrize("shift", [600, -600])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_power_of_two_rescale_of_a_factored_grid_moves_no_purity_bit(self, shift, complex_):
        self.check_power_of_two_rescale(shift, complex_, factor=True)

    @staticmethod
    def check_power_of_two_rescale(shift, complex_, factor):
        rng = np.random.default_rng(6)
        W = rng.normal(size=(20, 40))
        if complex_:
            W = W + 1j * rng.normal(size=W.shape)
        blocks, total, purity, e = grid_mod._scaled(W, fold=True, factor=factor)
        shifted = np.ldexp(W.real, shift) + (1j * np.ldexp(W.imag, shift) if complex_ else 0.0)
        blocks2, total2, purity2, e2 = grid_mod._scaled(shifted, fold=True, factor=factor)
        assert e == 0 and e2 != 0 and purity2 == purity
        assert len(blocks2) == 2
        s, entropy, _ = grid_mod._spectra(factors_of(blocks, total, factor), total, 40)
        s2, entropy2, _ = grid_mod._spectra(factors_of(blocks2, total2, factor), total2, 40)
        assert entropy2 == pytest.approx(entropy, abs=1e-13)
        assert np.ldexp(s2, e2 - shift) == pytest.approx(s, rel=1e-12)

    def test_a_folded_grid_whose_trace_leaves_the_float_range(self):
        # samples near 1e100: tr(G)^2 overflows, so the sampled half is scaled
        tiny = OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0, hbar=1e-200)
        res = schmidt_analyze(tiny, NumberState(1, 1))
        assert len(res.gram) == 2 and res.scale_exp > 300
        ref = schmidt_analyze(OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0),
                              NumberState(1, 1))
        assert res.n_points == ref.n_points
        assert res.purity == pytest.approx(ref.purity, rel=1e-13)
        assert res.entropy == pytest.approx(ref.entropy, abs=1e-12)
        res.check()


# samples near 1e100 at hbar = 1e-200: tr(G)^2 overflows, so W is rescaled
RESCALED = OscillatorSystem.from_physical(1.0, 2.0, 3.0, 1.0, hbar=1e-200)


class TestFactorRoute:
    # each n is at least three times the state's sized points: 160 for |2,2>,
    # 144 for |2,1>, 240 for |7,4>, 128 for the mixes and the rescaled |1,1>,
    # 144 for the mixed-parity mix, 80 for the coherent state, 112 for the packet
    @pytest.mark.parametrize("sys, state, n", [
        (TRAPPED, NumberState(2, 2), 480),
        (TRAPPED, NumberState(2, 1), 432),
        (TRAPPED, NumberState(7, 4), 720),
        (TRAPPED, Superposition.two_mode_mix(0.7), 384),
        (TRAPPED, Superposition(((0, 1, 0.6), (1, 0, 0.8j))), 384),
        (TRAPPED, Superposition(((0, 1, 0.6), (2, 0, 0.8j))), 432),
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), 240),
        (TRAPPED, NumberState(2, 2), 481),
        (FREE, UnboundGaussian(1, 1.0), 336),
        (RESCALED, NumberState(1, 1), 384),
    ], ids=["number-even", "number-odd", "number-7,4", "real-mix", "complex-mix",
            "complex-mixed-parity", "coherent", "odd-n", "unbound", "rescaled"])
    def test_matches_the_gram_route_on_the_same_samples(self, monkeypatch, sys, state, n):
        assert oversampled(sys, state, n)
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        monkeypatch.setattr(grid_mod, "_FACTOR_RATIO", math.inf)
        ref = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        folded = state.parity is not None and n % 2 == 0
        assert res.gram == () and len(res.factors) == len(ref.gram) == (2 if folded else 1)
        assert (res.n_points, res.norm_defect) == (ref.n_points, ref.norm_defect)
        assert res.scale_exp == ref.scale_exp and (res.scale_exp > 300) == (sys is RESCALED)
        assert abs(res.purity - ref.purity) <= 2e-15 * ref.purity
        # the coarse grid's purity moves as little
        assert abs(res.grid_defect - ref.grid_defect) <= 4e-15 * ref.purity
        assert abs(res.entropy - ref.entropy) <= 1e-12
        assert 0.0 <= res.spectrum_defect <= 1e-14
        s, s_ref = res.singular_values, ref.singular_values
        assert len(s) == n and np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s ** 2 - s_ref ** 2)) <= 1e-12 * s_ref[0] ** 2
        res.check()

    @pytest.mark.parametrize("sys, state, n", [
        (TRAPPED, NumberState(2, 2), None),
        (TRAPPED, NumberState(2, 2), 478),
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), 224),
        (FREE, UnboundGaussian(1, 1.0), 200),
        (RESCALED, NumberState(1, 1), None),
    ], ids=["sized", "below-the-ratio", "coherent-below-the-ratio", "unbound-below-the-ratio",
            "rescaled-sized"])
    def test_other_grids_keep_the_gram_route(self, sys, state, n):
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        assert not oversampled(sys, state, res.n_points) and res.factors == ()
        _, _, W, _, _, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0), fold=True)
        folded = W.shape[0] < W.shape[1]
        grams, total, purity, e = grid_mod._scaled(W, folded)
        assert len(res.gram) == len(grams) == (2 if folded else 1)
        assert all(np.array_equal(G, H) for G, H in zip(res.gram, grams))
        coarse = grid_mod._scaled(grid_mod._coarse(W, state.parity) if folded else W[::2, ::2])[2]
        assert (res.purity, res.grid_defect, res.trace) == (purity, abs(purity - coarse), total)
        s, entropy, defect = grid_mod._spectra(factors_of(grams, total, False), total,
                                               res.n_points)
        assert (res.entropy, res.spectrum_defect, res.scale_exp) == (entropy, defect, e)
        assert np.array_equal(res.singular_values, np.ldexp(s, e))

    @pytest.mark.parametrize("sys, state, n", [
        (TRAPPED, NumberState(2, 2), 480),
        (TRAPPED, Superposition(((0, 1, 0.6), (1, 0, 0.8j))), 384),
        (TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), 240),
    ], ids=["number", "complex-mix", "coherent"])
    def test_no_unwritten_cell_is_read(self, monkeypatch, sys, state, n):
        """Every array grid takes from np.empty (samples, Hermite rows,
        scratch and the factor's rows) starts full of NaN: a cell read before
        it is written would change the result's bits."""
        ref = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        ref.entropy  # the spectrum is read off the factors before np.empty changes

        class NanEmpty:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                a = np.empty(*args, **kwargs)
                a.fill(np.nan)
                return a

        monkeypatch.setattr(grid_mod, "np", NanEmpty())
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        assert res.factors and ref.factors
        for name in ("purity", "norm_defect", "grid_defect", "entropy", "spectrum_defect",
                     "singular_values"):
            assert same_bits(getattr(res, name), getattr(ref, name)), name

    def test_the_ratio_is_a_point_count(self):
        sized = schmidt_analyze(TRAPPED, NumberState(2, 2)).n_points
        at = schmidt_analyze(TRAPPED, NumberState(2, 2), GridSpec(3 * sized, 8.0))
        below = schmidt_analyze(TRAPPED, NumberState(2, 2), GridSpec(3 * sized - 1, 8.0))
        assert grid_mod._FACTOR_RATIO == 3
        assert (len(at.factors), len(at.gram)) == (2, 0)
        assert (len(below.factors), len(below.gram)) == (0, 1)

    def test_a_zero_block_takes_no_pivot(self):
        # the ground state at g = 1 is a product whose odd block is 0 exactly
        sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
        res = schmidt_analyze(sys, NumberState(0, 0), GridSpec(512, 8.0))
        assert len(res.factors) == 2 and res.factors[1][0].shape == (0, 0)
        assert res.purity == pytest.approx(1.0, abs=1e-15) and 0.0 <= res.entropy <= 1e-13


def gaussian_entropy(purity):
    """Entropy of a single-mode Gaussian state from its purity P:
    S = (N+1) ln(N+1) - N ln N with N = (1/P - 1)/2 (Serafini, Illuminati and
    De Siena, J. Phys. B 37, L21, 2004).  Every pure two-mode Gaussian state
    reduces to one."""
    N = (1.0 / purity - 1.0) / 2.0
    return (N + 1.0) * math.log1p(N) - (N * math.log(N) if N > 0.0 else 0.0)


GAUSSIAN = [
    pytest.param(TRAPPED, Coherent(0.3 + 0.2j, -0.1 + 0.4j), id="coherent"),
    pytest.param(OscillatorSystem.from_dimensionless(5.0, 0.3), NumberState(0, 0), id="ground-g5"),
    pytest.param(OscillatorSystem.from_dimensionless(0.05, 0.01), NumberState(0, 0),
                 id="ground-g0.05"),
    pytest.param(OscillatorSystem.from_untrapped(0.3, c=2.0), UnboundGaussian(0, 5.0),
                 id="unbound"),
]
GRIDS = pytest.mark.parametrize("n", [None, 1024, 2048], ids=["sized", "1024", "2048"])


class TestEntropy:
    @GRIDS
    @pytest.mark.parametrize("sys, state", GAUSSIAN)
    def test_gaussian_states_match_the_closed_form(self, sys, state, n):
        res = schmidt_analyze(sys, state, GridSpec(n, 8.0))
        reference = gaussian_entropy(method_purity(sys, state, "analytic"))
        assert abs(res.entropy - reference) <= 1e-12

    @GRIDS
    def test_number_state_matches_fock(self, n):
        reference = fock.entropy_truncated(TRAPPED, NumberState(2, 2),
                                           fock.default_basis(TRAPPED, jmax=60))
        res = schmidt_analyze(TRAPPED, NumberState(2, 2), GridSpec(n, 8.0))
        assert abs(res.entropy - reference) <= 1e-12

    @pytest.mark.parametrize("sys, state", GAUSSIAN + [(TRAPPED, NumberState(2, 2))])
    def test_spectrum_defect_on_sized_grids(self, sys, state):
        assert 0.0 <= schmidt_analyze(sys, state).spectrum_defect <= 1e-14

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_full_rank_gram_matches_eigvalsh(self, complex_):
        self.check_full_rank(complex_, factor=False)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_full_rank_factor_from_the_samples_matches_eigvalsh(self, complex_):
        self.check_full_rank(complex_, factor=True)

    @staticmethod
    def check_full_rank(complex_, factor):
        # a square Gaussian matrix's eigenvalue spread (about 4 n^2) keeps
        # every pivot above the stop rule, so the factor takes all n columns
        rng = np.random.default_rng(16)
        W = rng.normal(size=(300, 300))
        if complex_:
            W = W + 1j * rng.normal(size=W.shape)
        blocks, total, _, _ = grid_mod._scaled(W, factor=factor)
        s, entropy, defect = grid_mod._spectra(factors_of(blocks, total, factor), total, 300)
        (G,) = grid_mod._scaled(W)[0]
        w = np.linalg.eigvalsh(G)
        p = w / total
        reference = float(-np.sum(p * np.log(p)))
        assert np.count_nonzero(s) == 300 and defect == 0.0
        assert abs(entropy - reference) <= 1e-12 * reference
        assert np.max(np.abs(s ** 2 - w[::-1])) <= 1e-12 * w[-1]

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_one_has_no_entropy(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 60, size=2)
        u = rng.normal(size=rows) + 1j * rng.normal(size=rows) * (seed % 2)
        W = np.outer(u, rng.normal(size=cols))
        s, _, entropy = schmidt_from_samples(W)
        assert len(s) == min(rows, cols)
        assert 0.0 <= entropy <= 1e-12
