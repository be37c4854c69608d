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
from oscillent import cli
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
