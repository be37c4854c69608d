"""Brute-force verification path: sample the two-particle wavefunction on a
position grid and read the entanglement off the spectrum of its discretized
reduced density matrix.

For a pure state the matrix of samples W[i, j] = psi(x1_i, x2_j) is a
discretized wavefunction, and its Gram matrix G = W^H W (or W W^H, whichever
is smaller) is, up to the grid measure, the reduced density matrix of one
particle.  Purity is ||G||_F^2 / tr(G)^2 and needs no decomposition at all;
the entropy -sum p_k ln p_k takes the nonzero eigenvalues w_k of G, which are
the squared singular values of W, with p_k = w_k / tr(G).  Those normalized
formulas make the result exactly invariant under scaling W, so no grid
measure needs to enter; a W whose tr(G) or ||G||_F^2 would leave the float
range is scaled by a power of two first.  This path shares no formulas with
the closed-form, generating-function and truncated-basis modules, which is
the point.

The grid is sized from the state.  Each axis spans ``extent`` position
spreads of its own particle around its center, and the points per axis
follow from the ratio R of the widest window to the narrowest conditional
width of the ground-state density, s_a = 1 / sqrt(2 (gamma^2 + Gamma^2
mu_a^2)): n = max(32, 16 ceil(4 R / 16)).  The trapezoid rule converges
exponentially on these smooth, rapidly decaying integrands (Trefethen and
Weideman, SIAM Review 56, 385, 2014); about 2 R points already reach 1e-12,
so the sized grid holds a factor of two in hand.  The same samples check
it: the purity of every second point in each direction, W[::2, ::2], is the
same window at twice the spacing, and its distance from the full purity is
reported as the grid defect; ``SchmidtResult.check`` is the one verdict on
it and on the norm defect.  An explicit number of points overrides the
sizing; a window that no finite grid resolves is refused either way.

Most states have a parity s (``state.parity``): psi(-x1, -x2) = s psi(x1,
x2).  On an even number of points n the oracle folds such a state.  It
mirrors each axis about 0, so x[n-1-i] = -x[i] exactly (the first half is
np.linspace's, the second its negation), samples only the first h = n/2
rows W = [A B], and forms the parity blocks M+- = A +- B[:, ::-1].  In the
basis of column pairs (e_j +- e_{n-1-j}) / sqrt(2) the Gram matrix of the
whole grid is block-diagonal with blocks G+- = M+-^H M+-, so the purity
is (||G+||_F^2 + ||G-||_F^2) / (tr G+ + tr G-)^2, the norm is twice the
sampled half's, the spectrum is the union of the blocks' spectra, and the
two-grid check reads W[::2, ::2] assembled from the half and its mirror.
The Gram products cost 3 (n/2)^3 multiply-adds instead of n^3 + (n/2)^3,
and half the grid is sampled.  The fold uses only that symmetry of the
sampled function and no formula of the routes it checks.  Coherent
states, superpositions that mix parities and odd n stay one block; so does
:func:`density_grid`, which returns the whole grid.

Wavefunctions are evaluated in particle coordinates via the substitution
psi(x1, x2) = Phi(x1 - x2, mu1 x1 + mu2 x2).  Hermite factors use the
orthonormal three-term recurrence with the Gaussian weight folded in at
every step, which stays bounded far beyond quantum numbers of 50.  Number
states and superpositions with real coefficients are sampled in float64,
coherent states and spreading packets in complex128.  The sample matrix is
filled in blocks of rows of at least 2^14 cells each (one block when the
grid is smaller), so the Hermite rows and temporaries of one block stay in
cache and no full-size temporary is made; every sample is computed by the
same arithmetic as one call over the whole grid, bit for bit.  Each block
is written straight into the sample matrix, and the recurrence runs in
place in the Hermite rows with one scratch row: a block of 2^14 float64
cells is below the 256 KiB from which numpy reuses temporaries, so each
step written as one expression would make four fresh block arrays.
Sampling is capped by a predicted peak memory (the whole-grid arrays of the sampling
and the Gram product, plus one block's Hermite rows), checked on the number
of points actually used, and raises ResourceCapError before allocating; a
folded grid peaks lower (14 MiB against 24 MiB at 1024^2 on |4,4>, and 10
MiB on the factor route below, which forms no G).  The prediction does not
count on either: it still counts G, so every refusal is the same on both
routes.

The Schmidt spectrum and the entropy come from a diagonal-pivoted Cholesky factor G ~ L L^H with
k columns (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 428,
2012), one factor per parity block: each step pivots on the largest
diagonal entry of the residual G - L L^H, and the factor stops once that
entry is at most 1e-2 eps tr(G), with tr(G) the whole grid's.  The spectrum
of a sampled wavefunction is numerically of low rank, so the eigenvalues of
the k x k matrix L^H L take the place of an n x n eigendecomposition of G.
Measured k at g = 1.7, mu1 = 0.37 on 1024^2: 13 + 7 for |2,2> (22 as one
block), 15 + 13 for |4,4> (31), 10 + 7 for |1,1> (19), and 13 for a
coherent state, which is one block; 184 + 185 of 880 + 880 for |1,1> at g =
1000, mu1 = 0.5 on its sized 1760^2 grid (365 of 1760 as one block).  The n
- k eigenvalues left out are returned as zeros, and the residual trace over
tr(G) is kept as the spectrum defect.  An eigendecomposition of G would also
return about n roundoff eigenvalues of size eps tr(G), each adding its -p ln
p to the entropy; the factor leaves them out, so the entropy is closer to
the closed forms, not further.  The factor costs about as much as the
eigendecomposition at k/n = 0.55 to 0.65 (n = 512 to 1696), and three times
as much at full rank (246 ms against 82 ms at n = 1024 on a 2-vCPU x86_64
machine).  Measured k/n with G factored as one block: at most 0.036 on
1024^2 and 0.078 on 512^2 grids with g <= 5; 0.16 to 0.21 on sized grids at
g = 1000 to 4000; and up to 0.43 on explicit grids that pass the two-grid
check at g = 100 to 1000.  Grids too coarse for the state reach k/n = 0.66,
where the loop is the slower one, but their grid defect is above the 1e-6
that ``SchmidtResult.check`` accepts.

The factor reads G one column at a time, so it runs on either of two
routes, with the same pivot and stop rules.  On the Gram route, every sized
grid and every explicit grid with fewer than ``_FACTOR_RATIO`` (3) times the
points the state's sized grid has, G is formed, a block-diagonal Gram
product of about (n/2)^3 multiply-adds per block; the purity is ||G||_F^2 /
tr(G)^2, and the factor is taken from G's columns only when the spectrum or
the entropy is first read, so a caller that reads only the purity never
pays for it.  On the factor route, an explicit grid with at least that many
points, no Gram matrix is formed: column p of each block's G is one
matrix-vector product M^H M[:, p] with the block M of samples, and the
diagonal is M's squared column norms, so a block costs k products of about
(n/2)^2 multiply-adds each.  The purity is then sum ||L^H L||_F^2 / tr(G)^2
over the blocks, within 2e-15 of the Gram route's on the same samples,
since the residual trace left out of each factor is below 1e-2 eps tr(G);
the coarse grid of the two-grid check takes the same route as its grid,
and the spectrum, entropy and spectrum defect are read off the same k x k
matrices.  A grid of r times the sized points holds about r times the
columns its factor needs, so k/n falls as r grows: the crossover, measured
on random states, lies between r = 2.5 and 3 for a purity alone (see
``_FACTOR_RATIO``).  A 1024^2 oracle purity with its entropy on |2,2> at g
= 1.7 (160 sized points) took 31 ms on the Gram route and 21 ms on the
factor route (in process, the median over four processes of medians of
31, on a 2-vCPU x86_64 machine), and a 1024^2 grid on |4,4> peaks at 10
MiB instead of 14 MiB (tracemalloc).

Every call is independent; nothing here mutates shared state.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (DomainError, NumericalConsistencyError, ResourceCapError,
                     UnsupportedStateError)
from .system import (Coherent, NumberState, OscillatorSystem, StateSpec, Superposition,
                     UnboundGaussian, _EXTENT_SIGMAS, _quantum_number)

__all__ = [
    "GridSpec",
    "SchmidtResult",
    "DensityGrid",
    "hermite_functions",
    "eval_wavefunction",
    "schmidt_analyze",
    "schmidt_from_samples",
    "density_grid",
]

# predicted peak bytes of one sampling; 1024^2 on |4,4> predicts 35 MiB
_SAMPLE_BYTES_CAP = 2 ** 30
# bytes per cell of a sampling block besides its Hermite rows: the
# coordinates and temporaries, at most 8 float64 cells (a coherent state) as
# measured with tracemalloc, held at 12
_BLOCK_EXTRA_BYTES = 12 * 8
# fewest cells per sampling block: a block's coordinates, Hermite rows and
# temporaries (128 KiB each in float64) fit in a core's L2 cache.  It is also
# the size (256 KiB of complex128) from which numpy's temporary elision
# evaluates ``scalar * temporary`` in place as ``temporary *= scalar``; the
# two orders round complex products differently.  The spreading packet, the
# one such product whose bits it changed, multiplies array first, so the
# half of a folded grid, which may hold fewer cells than the whole grid,
# has the bits of one call over the whole grid too.
_BLOCK_CELLS = 2 ** 14
# sized grids: points per unit of the window-to-width ratio R, the fewest
# points, and the step n is rounded up to
_POINTS_PER_RATIO = 4
_MIN_POINTS = 32
_POINTS_STEP = 16
# pivoted Cholesky stops when the largest residual pivot is at most this
# fraction of tr(G).  Against the closed-form entropy of four Gaussian states
# on sized, 1024^2 and 2048^2 grids: at eps the g=5 ground state on 2048^2 was
# off by 1.8e-12; at eps^2 the factor pivots on roundoff and the spreading
# packet on 1024^2 was off by 2.4e-12; at eps/100 all twelve stayed within
# 1e-13.
_PIVOT_STOP = 1e-2 * np.finfo(float).eps
# a grid of at least this many times the points _sized_points gives its
# state takes its pivoted factors from the samples and forms no Gram matrix.
# schmidt_analyze on 32 random states (number states with m + n <= 6,
# coherent states and one-excitation mixes; g log-uniform in [0.1, 20], mu1
# in [0.05, 0.95]), in two sets of 16, at n = r times the sized points: the
# factor route took a geometric mean of 1.08 and 1.10 of the Gram route's
# time for a purity alone at r = 2, 0.99 and 1.03 at r = 2.5, 0.88 and 0.91
# at r = 3, and 0.76 and 0.83 at r = 4; with the entropy read too, 0.93 and
# 0.94, 0.86 and 0.88, 0.83 and 0.86, 0.72 and 0.77 (2-vCPU x86_64)
_FACTOR_RATIO = 3
# smallest normal float: a Gram norm below it has lost bits to underflow
_TINY = np.finfo(float).tiny
# the largest norm defect and then grid defect SchmidtResult.check accepts.
# Scan: 7000 grids in two seeded sets of 3500, cycling through seven state
# kinds (|0,0>, number states with m + n <= 2 and 3..6, coherent states with
# displacements in [-1.5, 1.5]^2, one-excitation mixes, three-term complex
# superpositions over m + n <= 2, and the spreading packet with m <= 3 and
# tau in [0, 5] at the c of the same g); g log-uniform in [0.01, 1000], mu1
# uniform in [0.05, 0.8], extent uniform in [4, 8], every second grid sized
# and the others explicit at 0.3-0.8 of the sized points.  Of the 6202 that
# pass the grid gate, 506 read more than acceptance.ORACLE_TOL = 1e-6 off
# the exact route; the smallest norm defect among them is 6.9e-7 (and the
# purity error reached 1.6 times the norm defect).  A gate of 1e-3 accepted
# all 506 (worst 1.1e-4 off), 1e-6 accepted 19 (worst 1.5e-6), and 6e-7
# none (worst 8.5e-7).
_NORM_TOL = 6e-7
_GRID_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: points per axis and half-width of each axis in units of
    that particle's position spread.

    ``n_points=None`` (the default) sizes the grid from the state: four
    points per unit of the ratio of the widest window to the narrowest
    conditional width of the ground-state density, rounded up to a multiple
    of 16 and at least 32.  A given number overrides it.
    """

    n_points: int | None = None
    extent_sigmas: float = _EXTENT_SIGMAS

    def __post_init__(self):
        if self.n_points is not None and not (isinstance(self.n_points, numbers.Integral)
                                              and self.n_points >= 16):
            raise DomainError(f"n_points must be an integer of at least 16, got {self.n_points!r}")
        if not 4 <= self.extent_sigmas < math.inf:
            raise DomainError(
                f"extent_sigmas must be finite and at least 4, got {self.extent_sigmas}")


@dataclass(frozen=True)
class SchmidtResult:
    """Entanglement of the sampled wavefunction, from the Gram matrix G of
    its samples.

    ``purity`` is ||G||_F^2 / tr(G)^2 for the Gram matrix G of the sample
    matrix W, whose trace is ``trace``.  ``norm_defect`` is the deviation of
    the discrete normalization integral from 1 and flags a too-small window
    or too few points.  ``grid_defect`` is |P_n - P_sub|, the distance of
    the purity from the purity of every second point in each direction (the
    same window at twice the spacing); it overstates the discretization
    error of the full grid, often by orders of magnitude.  ``n_points`` is
    the number of points per axis used; :meth:`check` judges the two
    defects.

    ``singular_values`` (of W, descending: the square roots of the
    eigenvalues of L^H L for the pivoted Cholesky factor L of G, negative
    roundoff clipped to zero, padded with zeros to n_points), ``entropy``
    and ``spectrum_defect`` (the trace of G left out of the factor, over
    tr(G)) are computed on first read, from one factorization shared by all
    three, and cached.  ``scale_exp`` is the e of the power of two 2^-e that
    W was scaled by before G was taken (0 unless tr(G) would leave the float
    range); ``gram``, ``factors`` and ``trace`` are those of the scaled W,
    and the singular values are in the units of W.

    G is block-diagonal: two (n/2) x (n/2) blocks M+^H M+ and M-^H M- on a
    grid folded by parity, or G itself, n x n, on a grid sampled as one
    block (see the module docstring).  On the Gram route ``gram`` is the
    tuple of those blocks, ``factors`` is empty, and the factors are taken
    from ``gram`` on first read.  On the factor route, a grid of at least
    ``_FACTOR_RATIO`` times its state's sized points, ``gram`` is empty and
    ``factors`` holds, per block, the k x k matrix L^H L and the trace left
    out of L, which the purity was computed from.  ``trace`` is the trace of
    the whole G, and every block's factor stops against it.
    """

    purity: float
    norm_defect: float
    grid_defect: float
    n_points: int
    gram: tuple[np.ndarray, ...] = field(repr=False)
    trace: float
    scale_exp: int = 0
    factors: tuple[tuple[np.ndarray, float], ...] = field(default=(), repr=False)

    def check(self) -> None:
        """Raise NumericalConsistencyError unless the norm defect is at most
        6e-7 and then the grid defect at most 1e-6; a NaN defect fails.  The
        remedies name the :class:`GridSpec` fields."""
        if not self.norm_defect <= _NORM_TOL:
            raise NumericalConsistencyError(
                f"grid norm defect {self.norm_defect:.3e} exceeds 6e-7; enlarge extent_sigmas "
                f"if the window is too narrow or raise n_points if the grid is too coarse")
        if not self.grid_defect <= _GRID_TOL:
            raise NumericalConsistencyError(
                f"grid defect {self.grid_defect:.3e} (purity at {self.n_points} points against "
                f"every second point) exceeds 1e-6; raise n_points, or leave it unset "
                f"to size the grid from the state")

    @cached_property
    def _schmidt(self) -> tuple[np.ndarray, float, float]:
        factors = self.factors or tuple(_gram_factor(G, self.trace) for G in self.gram)
        s, entropy, defect = _spectra(factors, self.trace, self.n_points)
        return np.ldexp(s, self.scale_exp), entropy, defect

    @property
    def singular_values(self) -> np.ndarray:
        return self._schmidt[0]

    @property
    def entropy(self) -> float:
        return self._schmidt[1]

    @property
    def spectrum_defect(self) -> float:
        return self._schmidt[2]


@dataclass(frozen=True)
class DensityGrid:
    """Sampled position probability density |psi(x1, x2)|^2 on the axes
    ``x1`` and ``x2``."""

    x1: np.ndarray
    x2: np.ndarray
    density: np.ndarray


def hermite_functions(u: np.ndarray, nmax: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions h_0..h_nmax at the points u.

    h_n(u) = (2^n n! sqrt(pi))^{-1/2} H_n(u) exp(-u^2/2), generated by the
    renormalized recurrence
    h_{n+1} = sqrt(2/(n+1)) u h_n - sqrt(n/(n+1)) h_{n-1}.
    """
    nmax = _quantum_number(nmax, "nmax")
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    # each step is written into its row in place, with the products of
    # h_{n+1} = (a u) h_n - b h_{n-1} in that order (a u as u a, which
    # rounds the same); rows are taken as out[k, ...], which is a view also
    # where u is 0-d and out[k] would be a numpy scalar
    h = out[0, ...]
    np.multiply(u, -0.5, out=h)
    h *= u
    np.exp(h, out=h)
    h *= math.pi ** -0.25
    if nmax >= 1:
        np.multiply(u, math.sqrt(2.0), out=out[1, ...])
        out[1, ...] *= h
    scratch = np.empty(u.shape)
    for k in range(1, nmax):
        h = out[k + 1, ...]
        np.multiply(u, math.sqrt(2.0 / (k + 1)), out=h)
        h *= out[k, ...]
        np.multiply(out[k - 1, ...], math.sqrt(k / (k + 1)), out=scratch)
        h -= scratch
    return out


def _mode_function(n: int, x: np.ndarray, scale: float) -> np.ndarray:
    """nth oscillator eigenfunction with inverse length ``scale``."""
    # a fresh row, so the rows below it are freed before the caller samples
    # the other coordinate
    return math.sqrt(scale) * hermite_functions(scale * x, n)[n]


def _spreading_packet(x: np.ndarray, tau: float, Gamma: float) -> np.ndarray:
    """Free Gaussian packet at dimensionless time tau, unit normalized."""
    T = 1.0 + tau * tau
    pref = (1.0 + 1j * tau) ** -0.5 * (Gamma ** 2 / math.pi) ** 0.25
    # the array is the left factor: numpy evaluates a large enough
    # ``scalar * temporary`` in place as ``temporary * scalar``, which rounds
    # complex products differently, so the other order would make the bits
    # depend on the number of points in the call
    return np.exp(-Gamma ** 2 * x * x * (1.0 + 1j * tau) / (2.0 * T)) * pref


def _coherent_mode(x: np.ndarray, disp: complex, scale: float, hbar: float) -> np.ndarray:
    """Displaced Gaussian mode function with its position/momentum offsets."""
    x0 = math.sqrt(2.0) * disp.real / scale
    p0 = math.sqrt(2.0) * hbar * scale * disp.imag
    pref = (scale ** 2 / math.pi) ** 0.25
    phase = np.exp(-0.5j * x0 * p0 / hbar + 1j * p0 * x / hbar)
    return pref * phase * np.exp(-0.5 * scale ** 2 * (x - x0) ** 2)


@contextlib.contextmanager
def _rows_in_place(cols: int):
    """Let numpy's ufuncs read broadcast or strided operands whose rows
    hold ``cols`` cells in place, row by row, inside the ``with`` block.

    numpy (2.4) copies such operands through its ufunc buffer of 8192 cells
    whenever a row is shorter than the buffer: x1 - x2 on a 16 x 1024 block
    took 18.5 us, and 4.8 us with a buffer of at most one row.  An
    elementwise operation rounds the same on either path; a reduction need
    not, so none runs inside.  The size must be a multiple of 16, and rows
    shorter than 64 cells gained nothing.  numpy keeps the size per thread,
    and the old one is restored on the way out.
    """
    old = np.setbufsize(cols - cols % 16) if 64 <= cols < 8192 else None
    try:
        yield
    finally:
        if old is not None:
            np.setbufsize(old)


def eval_wavefunction(sys: OscillatorSystem, state, x1, x2, *, out=None) -> np.ndarray:
    """Two-particle wavefunction psi(x1, x2) for any supported state.

    Broadcasts over array inputs.  Number states and superpositions whose
    coefficients are all real give a float64 array; coherent states,
    spreading packets and superpositions with a complex coefficient give a
    complex128 array.  As with numpy's ufuncs, ``out`` (an array of the
    broadcast shape and that dtype) receives the samples and is returned;
    they have the same bits as without it.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    shape = np.broadcast(x1, x2).shape
    with _rows_in_place(shape[-1] if len(shape) > 1 else 0):
        r = x1 - x2
        X = sys.mu1 * x1 + sys.mu2 * x2
    if isinstance(state, NumberState):
        rel = _mode_function(state.m, r, sys.gamma)
        com = _mode_function(state.n, X, sys.Gamma)
        return np.multiply(rel, com, out=out)
    if isinstance(state, Coherent):
        rel = _coherent_mode(r, state.alpha, sys.gamma, sys.hbar)
        com = _coherent_mode(X, state.beta, sys.Gamma, sys.hbar)
        return np.multiply(rel, com, out=out)
    if isinstance(state, UnboundGaussian):
        sys.check_untrapped()
        rel = _mode_function(state.m, r, sys.gamma)
        return np.multiply(rel, _spreading_packet(X, state.tau, sys.Gamma), out=out)
    if isinstance(state, Superposition):
        mmax, nmax = state.orders
        h_rel = hermite_functions(sys.gamma * r, mmax)
        h_com = hermite_functions(sys.Gamma * X, nmax)
        amp = math.sqrt(sys.gamma * sys.Gamma)
        real = state.is_real
        dtype = float if real else complex
        if out is None:
            out = np.empty(shape, dtype=dtype)
        out[...] = 0.0
        # each term is ((c amp) h_m) h_n, the scalar first, as complex
        # products keep their operand order
        term = np.empty(shape, dtype=dtype)
        for (m, n, cf) in state.terms:
            np.multiply((cf.real if real else cf) * amp, h_rel[m, ...], out=term)
            term *= h_com[n, ...]
            out += term
        return out
    raise UnsupportedStateError(f"cannot evaluate state kind {type(state).__name__}")


def _window(sys: OscillatorSystem, state, extent_sigmas: float):
    """Sampling window: per-particle centers c1, c2 and half-widths
    extent·sigma1, extent·sigma2, with sigma_a particle a's position spread."""
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    mu1, mu2 = sys.mu1, sys.mu2
    m_eff, n_eff = state.orders
    c1 = c2 = 0.0
    spread_X = 2 * n_eff + 1
    if isinstance(state, Coherent):
        r0 = math.sqrt(2.0) * state.alpha.real / sys.gamma
        X0 = math.sqrt(2.0) * state.beta.real / sys.Gamma
        c1 = X0 + mu2 * r0
        c2 = X0 - mu1 * r0
    elif isinstance(state, UnboundGaussian):
        # tau ** 2 keeps the bits of every finite window, which tau * tau
        # would not; past 1.3e154 it raises, and the window is unbounded
        try:
            spread_X = 1.0 + state.tau ** 2
        except OverflowError:
            spread_X = math.inf
    var_X = spread_X / (2 * Gam2)
    var_r = (2 * m_eff + 1) / (2 * gam2)
    sigma1 = math.sqrt(var_X + mu2 ** 2 * var_r)
    sigma2 = math.sqrt(var_X + mu1 ** 2 * var_r)
    return c1, c2, extent_sigmas * sigma1, extent_sigmas * sigma2


def _sized_points(sys: OscillatorSystem, half1: float, half2: float) -> int:
    """Points per axis for the window (half1, half2) from R = max_a 2 h_a / s_a,
    where s_a = 1 / sqrt(2 (gamma^2 + Gamma^2 mu_a^2)) is the width of the
    ground-state density along axis a with the other coordinate held fixed."""
    ratio = max(2.0 * half * math.sqrt(2.0 * (sys.gamma ** 2 + sys.Gamma ** 2 * mu ** 2))
                for half, mu in ((half1, sys.mu1), (half2, sys.mu2)))
    if not ratio < math.inf:
        raise ResourceCapError(f"the grid for this state needs unboundedly many points "
                               f"(window-to-width ratio {ratio})")
    steps = math.ceil(_POINTS_PER_RATIO * ratio / _POINTS_STEP)
    return max(_MIN_POINTS, _POINTS_STEP * steps)


def _blocks(rows: int, cols: int) -> int:
    """Row blocks of a rows x cols sampling, each of at least _BLOCK_CELLS
    cells (one block when the sampling is smaller)."""
    return max(1, rows // math.ceil(_BLOCK_CELLS / cols))


def _mib(nbytes: int) -> int:
    """``nbytes`` in MiB, rounded half to even: what ``f"{nbytes / 2 ** 20:.0f}"``
    prints below 2^53 bytes, and no OverflowError where that quotient leaves
    the float range."""
    return round(Fraction(nbytes, 2 ** 20))


def _check_sample_cap(state, n_points: int) -> int:
    """The predicted peak bytes of sampling ``state`` on an n_points^2 grid
    and taking its Gram matrix; ResourceCapError when they exceed the byte
    budget.

    The whole grid holds, in n_points^2 cells of the sample dtype each: W,
    the copy of W that :func:`_scaled` scales when tr(G) would leave the
    float range, W's conjugate when W is complex, and G; and |G|^2 in
    float64.  One block holds the Hermite rows of both stacks (orders 0..m
    and 0..n) in float64 and its coordinates and temporaries.  The two are
    added, although a block is freed before the Gram product.  Reading the
    spectrum afterwards holds G and its factor, which is less.  A grid
    folded by parity holds half the samples and two Gram blocks of a
    quarter of G each, and a grid on the factor route forms no G at all, so
    for them the prediction overstates the peak (34.8 MiB predicted at
    1024^2 on |4,4>; 14 MiB measured folded on the Gram route, 10 MiB on
    the factor route).  It still counts G, so that every refusal is the same
    for folded and whole grids and on both routes.
    """
    m_eff, n_eff = state.orders
    itemsize, copies = (8, 3) if state.is_real else (16, 4)
    block_cells = math.ceil(n_points / _blocks(n_points, n_points)) * n_points
    need = (n_points * n_points * (copies * itemsize + 8)
            + block_cells * (8 * (m_eff + n_eff + 2) + _BLOCK_EXTRA_BYTES))
    if need > _SAMPLE_BYTES_CAP:
        raise ResourceCapError(
            f"a {n_points}^2 grid for this state needs about {_mib(need)} MiB, "
            f"above the {_SAMPLE_BYTES_CAP / 2 ** 20:.0f} MiB budget; lower the grid points"
        )
    return need


def _axis(center: float, half: float, n: int, mirror: bool) -> np.ndarray:
    """n points from center - half to center + half.  ``mirror`` (for a
    window centered at 0) keeps np.linspace's first half and negates it into
    the second, so x[n-1-i] = -x[i] exactly."""
    x = np.linspace(center - half, center + half, n)
    if mirror:
        x[n // 2:] = -x[n // 2 - 1::-1]
    return x


def _sample(sys: OscillatorSystem, state, grid: GridSpec, fold: bool = False):
    """Axes x1, x2, samples W[i, j] = psi(x1_i, x2_j), spacings dx1, dx2 and
    the points per axis :func:`_sized_points` gives the state's window.

    With ``fold``, a state of definite parity s sampled on an even number of
    points n gets mirrored axes (see :func:`_axis`; its window is centered at
    0), and W holds only the first n/2 rows: psi(-x1, -x2) = s psi(x1, x2)
    makes the other half s W[::-1, ::-1], bit for bit.
    """
    if not isinstance(state, StateSpec):
        raise UnsupportedStateError(f"cannot size a grid for state kind {type(state).__name__}")
    c1, c2, half1, half2 = _window(sys, state, grid.extent_sigmas)
    # sized even when the points are given, so an unbounded window is refused
    sized = _sized_points(sys, half1, half2)
    n = sized if grid.n_points is None else grid.n_points
    _check_sample_cap(state, n)
    mirror = fold and state.parity is not None and n % 2 == 0
    x1 = _axis(c1, half1, n, mirror)
    x2 = _axis(c2, half2, n, mirror)
    rows = n // 2 if mirror else n
    W = np.empty((rows, n), dtype=float if state.is_real else complex)
    # rows split evenly into blocks of at least _BLOCK_CELLS cells each
    blocks = _blocks(rows, n)
    for b in range(blocks):
        i, j = b * rows // blocks, (b + 1) * rows // blocks
        eval_wavefunction(sys, state, x1[i:j, None], x2[None, :], out=W[i:j])
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]
    return x1, x2, W, dx1, dx2, sized


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise.  For real x, x * x has the same bits as
    np.abs(x) ** 2 with one n^2 temporary fewer; complex x keeps
    np.abs(x) ** 2, whose bits the product with the conjugate would change."""
    return x * x if x.dtype.kind == "f" else np.abs(x) ** 2


def _column_norms(M: np.ndarray) -> np.ndarray:
    """Squared 2-norms of M's columns, the diagonal of M^H M, with no
    temporary of M's size."""
    norms = np.einsum("ij,ij->j", M.real, M.real)
    if M.dtype.kind == "c":
        norms += np.einsum("ij,ij->j", M.imag, M.imag)
    return norms


def _gram(W: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gram matrix G of W on its shorter side, tr(G) and ||G||_F^2."""
    Wh = W.conj().T
    G = Wh @ W if W.shape[0] >= W.shape[1] else W @ Wh
    # np.sum adds pairwise; a BLAS dot over the n^2 entries (np.vdot) lost up
    # to 3e-14 of the purity at 1024^2
    return G, float(np.trace(G).real), float(np.sum(_abs2(G)))


def _fold(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parity blocks M+ and M- of the n x n grid whose first h = n/2 rows
    are W = [A B] and whose other rows are s W[::-1, ::-1] for s = 1 or -1.

    M+- = A +- B[:, ::-1].  In the orthonormal basis of column pairs
    (e_j +- e_{n-1-j}) / sqrt(2), j < h, the grid's Gram matrix is
    block-diagonal with blocks M+^H M+ and M-^H M-, whatever s is.
    """
    h = W.shape[0]
    A, B = W[:, :h], W[:, ::-1][:, :h]
    with _rows_in_place(h):
        return A + B, A - B


def _grams(W: np.ndarray, fold: bool) -> tuple[tuple[np.ndarray, ...], float, float]:
    """The Gram matrices of W's two parity blocks (see :func:`_fold`) with
    ``fold``, else of W alone, and tr(G) and ||G||_F^2 summed over them."""
    grams, total, square = [], 0.0, 0.0
    for M in _fold(W) if fold else (W,):
        G, t, q = _gram(M)
        grams.append(G)
        total += t
        square += q
    return tuple(grams), total, square


def _factors(W: np.ndarray, fold: bool
             ) -> tuple[tuple[tuple[np.ndarray, float], ...], float, float]:
    """The :func:`_cholesky` factors of the Gram matrices M^H M of W's two
    parity blocks M (see :func:`_fold`) with ``fold``, else of M = W, taken
    from the samples without forming G: column p of G is one matrix-vector
    product M^H M[:, p], and the diagonal is M's squared column norms.
    Returns the factors, tr(G) and ||G||_F^2 summed over the blocks as
    ||L^H L||_F^2.  A trace whose square leaves the normal float range
    returns no factors and ||G||_F^2 = 0, for the caller to rescale.
    """
    # contiguous rows, or each matrix-vector product would copy M
    blocks = _fold(W) if fold else (np.ascontiguousarray(W),)
    diagonals = [_column_norms(M) for M in blocks]
    total = sum(float(np.sum(d)) for d in diagonals)
    if not _TINY <= total * total < math.inf:
        return (), total, 0.0
    # (M[:, p]^H M)^H is M^H M[:, p] without a conjugated copy of M
    factors = tuple(_cholesky(lambda p, M=M: (M[:, p].conj() @ M).conj(), d, total, M.dtype)
                    for M, d in zip(blocks, diagonals))
    return factors, total, sum(float(np.sum(_abs2(K))) for K, _ in factors)


def _scaled(W: np.ndarray, fold: bool = False, factor: bool = False
            ) -> tuple[tuple, float, float, int]:
    """The blocks of 2^-e W, tr(G), the purity ||G||_F^2 / tr(G)^2, and e:
    the Gram matrices of :func:`_grams`, or with ``factor`` the pivoted
    Cholesky factors of :func:`_factors`, one per parity block with ``fold``.

    e is 0 unless tr(G) or ||G||_F^2 of W itself would leave the normal
    float range; then it is the exponent of the largest entry of W, so the
    scaled entries are at most 1 and the purity, a ratio, is unchanged.  W
    is scaled before it is folded.  A W holding inf or NaN, or only zeros,
    is refused.
    """
    blocks = _factors if factor else _grams
    with np.errstate(over="ignore", invalid="ignore"):
        parts, total, square = blocks(W, fold)
    if _TINY <= square and total * total < math.inf:
        return parts, total, square / (total * total), 0
    del parts  # room for the scaled copy, as _check_sample_cap counts it
    big = float(np.maximum(np.max(np.abs(W.real)), np.max(np.abs(W.imag))))
    if not big < math.inf:
        # an infinite trace would put the pivoted factor's stop at inf, and
        # it would return a product state
        raise DomainError(f"sample matrix overflows or holds NaN: max |W| = {big}")
    if not big > 0.0:
        raise DomainError("sample matrix is identically zero")
    e = math.frexp(big)[1]
    # two steps, since 2^-e itself overflows for e below -1023
    half = -e // 2
    parts, total, square = blocks(W * 2.0 ** half * 2.0 ** (-e - half), fold)
    return parts, total, square / (total * total), e


def _cholesky(column, d: np.ndarray, total: float, dtype) -> tuple[np.ndarray, float]:
    """The k x k matrix L^H L of a diagonal-pivoted Cholesky factor G ~ L L^H
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 428, 2012), and
    the trace of G left out of it.

    ``column(p)`` is column p of G and ``d`` its diagonal, which the loop
    consumes as the residual diagonal.  Each step pivots on the largest
    residual diagonal entry d[p] and stops once ``not d[p] > _PIVOT_STOP *
    tr(G)``, which also stops on NaN and on negative roundoff.  The
    eigenvalues of L^H L are the nonzero eigenvalues of L L^H, and
    ||L^H L||_F = ||L L^H||_F.
    """
    n = d.shape[0]
    # row j holds column j of L; only the k rows written are read, so the
    # others are never filled or touched
    Lt = np.empty((n, n), dtype=dtype)
    stop = _PIVOT_STOP * total
    k = 0
    while k < n:
        p = int(np.argmax(d))
        if not d[p] > stop:
            break
        col = (column(p) - Lt[:k, p].conj() @ Lt[:k]) / math.sqrt(d[p])
        Lt[k] = col
        d -= _abs2(col)
        d[p] = 0.0
        k += 1
    L = Lt[:k]
    return L.conj() @ L.T, float(np.sum(np.maximum(d, 0.0)))


def _gram_factor(G: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """:func:`_cholesky` of a Gram matrix G, reading its columns."""
    return _cholesky(lambda p: G[:, p], G.diagonal().real.copy(), total, G.dtype)


def _spectra(factors, total: float, n: int) -> tuple[np.ndarray, float, float]:
    """Singular values of W, descending and padded with zeros to n, the
    entropy -sum p_k ln p_k with p_k = w_k / tr(G), and the spectrum defect,
    from the (L^H L, residual trace) pairs of :func:`_cholesky`, one per
    diagonal block of a block-diagonal G whose trace is ``total``.

    The eigenvalues w_k of every block's L^H L are the nonzero Schmidt
    weights of W (in units of tr(G)); the n - k left out are returned as
    zeros.  Entropies and residual traces are summed over the blocks.
    """
    w, entropy, defect = [], 0.0, 0.0
    for K, residual in factors:
        wk = np.clip(np.linalg.eigvalsh(K), 0.0, None)[::-1]
        # a weight rounded above 1 would make its term, and a rank-one
        # entropy, negative
        weights = np.minimum(wk / total, 1.0)
        pos = weights[weights > 1e-300]
        entropy += float(-np.sum(pos * np.log(pos)))
        defect += residual / total
        w.append(wk)
    s = np.zeros(n)
    s[:sum(len(wk) for wk in w)] = np.sqrt(np.sort(np.concatenate(w))[::-1])
    return s, entropy, defect


def _coarse(W: np.ndarray, parity: int) -> np.ndarray:
    """Every second sample in each direction, [::2, ::2], of the n x n grid
    whose first n/2 rows are W and whose other rows are
    parity * W[::-1, ::-1]."""
    h = W.shape[0]
    # rows h + t of the grid are row t of the turned half; h + t is even
    # when t has h's parity
    lower = W[::-1, ::-1][h % 2::2, ::2]
    return np.concatenate((W[::2, ::2], lower if parity > 0 else -lower))


def schmidt_from_samples(W: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Singular values, purity and entropy of a sample matrix, real or complex.

    Works on the Gram matrix G = W^H W, or W W^H when W has fewer rows, so G
    has min(W.shape) rows.  Purity = ||G||_F^2 / tr(G)^2.  The singular
    values are the square roots of the eigenvalues w_k of L^H L for the k
    columns of G's pivoted Cholesky factor L (see :func:`_cholesky`),
    descending and padded with zeros to min(W.shape); the entropy weights are
    p_k = w_k / tr(G).  Scale invariant by construction: when tr(G) or
    ||G||_F^2 would leave the float range, W is first scaled by a power of
    two, and the singular values are scaled back.
    """
    (G,), total, purity, e = _scaled(W)
    s, entropy, _ = _spectra((_gram_factor(G, total),), total, G.shape[0])
    return np.ldexp(s, e), purity, entropy


def schmidt_analyze(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> SchmidtResult:
    """Sample the wavefunction and take the purity from the Gram matrix of
    the samples, with the two-grid check from the same samples.  A state of
    definite parity on an even number of points is folded: half the grid is
    sampled and G is taken as two parity blocks.  On a grid of at least
    ``_FACTOR_RATIO`` times the points the state's sized grid has, no Gram
    matrix is formed: the purity, and the coarse grid's, come from pivoted
    Cholesky factors built from the samples, which also give the spectrum.
    Elsewhere the entropy and the Schmidt spectrum are computed from G when
    the result's fields are first read (see the module docstring).

    Reports the norm and grid defects and refuses neither; that is
    :meth:`SchmidtResult.check`'s verdict.
    """
    _, _, W, dx1, dx2, sized = _sample(sys, state, grid, fold=True)
    n = W.shape[1]
    # a folded sampling holds half the rows, and its mirror the same weight
    folded = W.shape[0] < n
    norm = float(np.sum(_abs2(W)) * dx1 * dx2) * (2.0 if folded else 1.0)
    factor = n >= _FACTOR_RATIO * sized
    blocks, total, purity, e = _scaled(W, folded, factor)
    coarse = _scaled(_coarse(W, state.parity) if folded else W[::2, ::2], factor=factor)[2]
    return SchmidtResult(purity=purity, norm_defect=abs(1.0 - norm),
                         grid_defect=abs(purity - coarse), n_points=n,
                         gram=() if factor else blocks, trace=total, scale_exp=e,
                         factors=blocks if factor else ())


def density_grid(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> DensityGrid:
    """Position probability density |psi(x1, x2)|^2 on the sampling grid."""
    x1, x2, W, _, _, _ = _sample(sys, state, grid)
    return DensityGrid(x1=x1, x2=x2, density=_abs2(W))
