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
from oscillent.errors import ResourceCapError
from oscillent.grid import hermite_functions, schmidt_from_samples
import oscillent.grid as grid_mod


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


class TestHermiteFunctions:
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
    np.full((2, 2), 1e200),
    np.full((3, 2), 1e160 + 1e160j),
    np.array([[np.inf, 1.0], [0.0, 1.0]]),
], ids=["real", "complex", "inf"])
def test_overflowing_samples_rejected(W):
    # tr(G) is inf: the pivoted factor would stop at once and report a product state
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="overflows"):
        schmidt_from_samples(W)


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

    def test_cap_grows_with_the_hermite_order(self):
        grid_mod._check_sample_cap(NumberState(0, 0), 2048)
        with pytest.raises(ResourceCapError):
            grid_mod._check_sample_cap(NumberState(60, 60), 2048)


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

    def test_norm_defect_warning(self, monkeypatch):
        sys = OscillatorSystem.from_dimensionless(4.0, 0.5)
        real_window = grid_mod._window

        def tiny_window(sys_, state_, extent):
            c1, c2, half1, half2 = real_window(sys_, state_, extent)
            return c1, c2, half1 / 10.0, half2 / 10.0

        monkeypatch.setattr(grid_mod, "_window", tiny_window)
        with pytest.warns(RuntimeWarning, match="norm"):
            res = schmidt_analyze(sys, Coherent(), GridSpec(64, 8.0))
        assert res.norm_defect > 1e-3

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
        x1, x2, _, dx1, dx2 = grid_mod._sample(sys, NumberState(0, 0), GridSpec())
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


TRAPPED = OscillatorSystem.from_dimensionless(1.7, 0.37)


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

        def counted(*args):
            calls.append(args[2].shape[0])
            return whole(*args)

        monkeypatch.setattr(grid_mod, "eval_wavefunction", counted)
        x1, x2, W, _, _ = grid_mod._sample(sys, state, GridSpec(n, 8.0))
        ref = whole(sys, state, x1[:, None], x2[None, :])
        assert W.dtype == ref.dtype
        assert np.array_equal(W, ref)
        assert sum(calls) == n
        # every block holds at least 2^14 cells unless the grid is smaller
        assert min(calls) * n >= min(n * n, 2 ** 14)
        assert len(calls) == (1 if n * n <= 2 ** 14 else n // math.ceil(2 ** 14 / n))

    @pytest.mark.parametrize("x", [
        np.array([[-1.5, 0.0], [-0.0, 3e-200]]),
        np.array([[1.0 - 2.0j, -0.5j], [3e-200 + 1j, 0.0]]),
    ], ids=["real", "complex"])
    def test_abs2_has_the_bits_of_abs_squared(self, x):
        assert np.array_equal(grid_mod._abs2(x), np.abs(x) ** 2)


class TestSpectrumOnDemand:
    def test_computed_once_on_first_read(self, monkeypatch):
        real = grid_mod._spectrum
        calls = []

        def counted(G, total):
            calls.append(G.shape)
            return real(G, total)

        monkeypatch.setattr(grid_mod, "_spectrum", counted)
        sys = OscillatorSystem.from_dimensionless(5.0, 0.3)
        res = schmidt_analyze(sys, NumberState(2, 1), GridSpec(128, 8.0))
        assert calls == []
        s, entropy = res.singular_values, res.entropy
        assert res.entropy == entropy and res.singular_values is s
        assert calls == [(128, 128)]
        _, _, W, _, _ = grid_mod._sample(sys, NumberState(2, 1), GridSpec(128, 8.0))
        s_ref, purity_ref, entropy_ref = schmidt_from_samples(W)
        assert (res.purity, res.entropy) == (purity_ref, entropy_ref)
        assert np.array_equal(s, s_ref)

    def test_peak_memory_without_the_spectrum(self):
        # 8 MiB of samples, the Gram matrix and one n^2 temporary; full-size
        # Hermite rows alone would add 80 MiB
        sys = OscillatorSystem.from_dimensionless(1.7, 0.37)
        tracemalloc.start()
        try:
            res = schmidt_analyze(sys, NumberState(4, 4), GridSpec(1024, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_points == 1024
        assert peak < 40 * 2 ** 20


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
        # a square Gaussian matrix's eigenvalue spread (about 4 n^2) keeps
        # every pivot above the stop rule, so the factor takes all n columns
        rng = np.random.default_rng(16)
        W = rng.normal(size=(300, 300))
        if complex_:
            W = W + 1j * rng.normal(size=W.shape)
        G, total, _ = grid_mod._gram_purity(W)
        s, entropy, defect = grid_mod._spectrum(G, total)
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
