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
measure needs to enter.  This path shares no formulas with the closed-form,
generating-function and truncated-basis modules, which is the point.

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
reported as the grid defect.  An explicit number of points overrides the
sizing; a window that no finite grid resolves is refused either way.

Wavefunctions are evaluated in particle coordinates via the substitution
psi(x1, x2) = Phi(x1 - x2, mu1 x1 + mu2 x2).  Hermite factors use the
orthonormal three-term recurrence with the Gaussian weight folded in at
every step, which stays bounded far beyond quantum numbers of 50.  Number
states and superpositions with real coefficients are sampled in float64,
coherent states and spreading packets in complex128.  The sample matrix is
filled in blocks of rows of at least 2^14 cells each (one block when the
grid is smaller), so the Hermite rows and temporaries of one block stay in
cache and no full-size temporary is made; every sample is computed by the
same arithmetic as one call over the whole grid, bit for bit.  Sampling is capped by a predicted peak memory, checked
on the number of points actually used, and raises ResourceCapError before
allocating.

Purity and the two checks need only the Gram matrix.  The Schmidt spectrum
and the entropy are computed from it when first read, so a caller that reads
only the purity never pays for them.  They come from a diagonal-pivoted
Cholesky factor G ~ L L^H with k columns (Harbrecht, Peters and Schneider,
Appl. Numer. Math. 62, 428, 2012): each step pivots on the largest diagonal
entry of the residual G - L L^H, and the factor stops once that entry is at
most 1e-2 eps tr(G).  The spectrum of a sampled wavefunction is numerically
of low rank (k = 13 to 31 at 1024^2 on a coherent state, |2,2> and |4,4> at
g = 1.7; 351 of n = 1696 for |1,1> at g = 1000), so the eigenvalues of the
k x k matrix L^H L take the place of an n x n eigendecomposition of G.  The
n - k eigenvalues left out are returned as zeros, and the residual trace
over tr(G) is kept as the spectrum defect.  An eigendecomposition of G
would also return about n roundoff eigenvalues of size eps tr(G), each
adding its -p ln p to the entropy; the factor leaves them out, so the
entropy is closer to the closed forms, not further.  The factor costs about
as much as the eigendecomposition at k/n = 0.55 to 0.65 (n = 512 to 1696),
and three times as much at full rank (246 ms against 82 ms at n = 1024 on a 2-vCPU x86_64 machine).
Measured k/n: at most 0.036 on 1024^2 and 0.078 on 512^2 grids with
g <= 5; 0.16 to 0.21 on sized grids at g = 1000 to 4000; and up to 0.43 on
explicit grids that pass the two-grid check at g = 100 to 1000.  Grids too
coarse for the state reach k/n = 0.66, where the loop is the slower one,
but their grid defect is above the 1e-6 the command line accepts.

Every call is independent; nothing here mutates shared state.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ResourceCapError, UnsupportedStateError
from .system import (Coherent, NumberState, OscillatorSystem, Superposition,
                     UnboundGaussian)

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

_NORM_WARN = 1e-3
# predicted peak bytes of one sampling; 1024^2 on |4,4> needs about 1/10 of it
_SAMPLE_BYTES_CAP = 2 ** 30
# fewest cells per sampling block: a block's coordinates, Hermite rows and
# temporaries (128 KiB each in float64) fit in a core's L2 cache.  It is also
# the size (256 KiB of complex128) from which numpy's temporary elision
# evaluates ``scalar * temporary`` in place as ``temporary *= scalar``; the
# two orders round complex products differently, so a smaller block of a
# larger grid would not reproduce the bits of one call over the whole grid.
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
    extent_sigmas: float = 8.0

    def __post_init__(self):
        if self.n_points is not None and not (isinstance(self.n_points, numbers.Integral)
                                              and self.n_points >= 16):
            raise DomainError(f"n_points must be an integer of at least 16, got {self.n_points!r}")
        if not 4 <= self.extent_sigmas < math.inf:
            raise DomainError(
                f"extent_sigmas must be finite and at least 4, got {self.extent_sigmas}")


@dataclass(frozen=True)
class SchmidtResult:
    """Entanglement of the sampled wavefunction, from the Gram matrix of
    its samples.

    ``purity`` is ||G||_F^2 / tr(G)^2 for the Gram matrix ``gram`` of the
    sample matrix W, whose trace is ``trace``.  ``norm_defect`` is the
    deviation of the discrete normalization integral from 1 and flags a
    too-small window or too few points.  ``grid_defect`` is |P_n - P_sub|,
    the distance of the purity from the purity of every second point in each
    direction (the same window at twice the spacing); it overstates the
    discretization error of the full grid, often by orders of magnitude.
    ``n_points`` is the number of points per axis used.

    ``singular_values`` (of W, descending: the square roots of the
    eigenvalues of L^H L for the pivoted Cholesky factor L of G, negative
    roundoff clipped to zero, padded with zeros to the order of G),
    ``entropy`` and ``spectrum_defect`` (the trace of G left out of the
    factor, over tr(G)) are computed on first read, by one factorization
    shared by all three, and cached.
    """

    purity: float
    norm_defect: float
    grid_defect: float
    n_points: int
    gram: np.ndarray = field(repr=False)
    trace: float

    @cached_property
    def _schmidt(self) -> tuple[np.ndarray, float, float]:
        return _spectrum(self.gram, self.trace)

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
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(1, nmax):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * u * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def _mode_function(n: int, x: np.ndarray, scale: float) -> np.ndarray:
    """nth oscillator eigenfunction with inverse length ``scale``."""
    return math.sqrt(scale) * hermite_functions(scale * x, n)[n]


def _spreading_packet(x: np.ndarray, tau: float, Gamma: float) -> np.ndarray:
    """Free Gaussian packet at dimensionless time tau, unit normalized."""
    T = 1.0 + tau * tau
    pref = (1.0 + 1j * tau) ** -0.5 * (Gamma ** 2 / math.pi) ** 0.25
    return pref * np.exp(-Gamma ** 2 * x * x * (1.0 + 1j * tau) / (2.0 * T))


def _coherent_mode(x: np.ndarray, disp: complex, scale: float, hbar: float) -> np.ndarray:
    """Displaced Gaussian mode function with its position/momentum offsets."""
    x0 = math.sqrt(2.0) * disp.real / scale
    p0 = math.sqrt(2.0) * hbar * scale * disp.imag
    pref = (scale ** 2 / math.pi) ** 0.25
    phase = np.exp(-0.5j * x0 * p0 / hbar + 1j * p0 * x / hbar)
    return pref * phase * np.exp(-0.5 * scale ** 2 * (x - x0) ** 2)


def eval_wavefunction(sys: OscillatorSystem, state, x1, x2) -> np.ndarray:
    """Two-particle wavefunction psi(x1, x2) for any supported state.

    Broadcasts over array inputs.  Number states and superpositions whose
    coefficients are all real give a float64 array; coherent states,
    spreading packets and superpositions with a complex coefficient give a
    complex128 array.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    r = x1 - x2
    X = sys.mu1 * x1 + sys.mu2 * x2
    if isinstance(state, NumberState):
        rel = _mode_function(state.m, r, sys.gamma)
        com = _mode_function(state.n, X, sys.Gamma)
        return rel * com
    if isinstance(state, Coherent):
        rel = _coherent_mode(r, state.alpha, sys.gamma, sys.hbar)
        com = _coherent_mode(X, state.beta, sys.Gamma, sys.hbar)
        return rel * com
    if isinstance(state, UnboundGaussian):
        if sys.is_trapped:
            raise DomainError("spreading-packet states need an untrapped system (Omega = 0)")
        rel = _mode_function(state.m, r, sys.gamma)
        return rel * _spreading_packet(X, state.tau, sys.Gamma)
    if isinstance(state, Superposition):
        mmax = max(m for (m, _, _) in state.terms)
        nmax = max(n for (_, n, _) in state.terms)
        h_rel = hermite_functions(sys.gamma * r, mmax)
        h_com = hermite_functions(sys.Gamma * X, nmax)
        amp = math.sqrt(sys.gamma * sys.Gamma)
        real = _is_real(state)
        out = np.zeros(np.broadcast(x1, x2).shape, dtype=float if real else complex)
        for (m, n, cf) in state.terms:
            out += (cf.real if real else cf) * amp * h_rel[m] * h_com[n]
        return out
    raise UnsupportedStateError(f"cannot evaluate state kind {type(state).__name__}")


def _is_real(state) -> bool:
    """Whether the state's wavefunction is real-valued (sampled in float64)."""
    if isinstance(state, NumberState):
        return True
    if isinstance(state, Superposition):
        return all(cf.imag == 0 for (_, _, cf) in state.terms)
    return False


def _max_orders(state) -> tuple[int, int]:
    """Largest relative and center-of-mass oscillator orders of a state."""
    if isinstance(state, NumberState):
        return state.m, state.n
    if isinstance(state, Coherent):
        return 0, 0
    if isinstance(state, UnboundGaussian):
        return state.m, 0
    if isinstance(state, Superposition):
        return (max(m for (m, _, _) in state.terms),
                max(n for (_, n, _) in state.terms))
    raise UnsupportedStateError(f"cannot size a grid for state kind {type(state).__name__}")


def _window(sys: OscillatorSystem, state, extent_sigmas: float):
    """Sampling window: per-particle centers c1, c2 and half-widths
    extent·sigma1, extent·sigma2, with sigma_a particle a's position spread."""
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    mu1, mu2 = sys.mu1, sys.mu2
    m_eff, n_eff = _max_orders(state)
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


def _check_sample_cap(state, n_points: int):
    """Raise ResourceCapError when sampling ``state`` on an n_points^2 grid
    is predicted to need more than the byte budget.

    The estimate counts n_points^2 cells for each Hermite row of both stacks
    (orders 0..m and 0..n), the coordinate arrays and temporaries around
    them (four float64 cells), and three cells of the sample dtype (the
    samples, their Gram matrix and one temporary).  Sampling allocates the
    Hermite rows and coordinates one row block at a time, so this is a
    conservative upper bound; formula and budget are kept so that the same
    grids are refused whether or not they are sampled in blocks.
    """
    m_eff, n_eff = _max_orders(state)
    itemsize = 8 if _is_real(state) else 16
    cells = n_points * n_points
    need = cells * (8 * (m_eff + n_eff + 2 + 4) + 3 * itemsize)
    if need > _SAMPLE_BYTES_CAP:
        raise ResourceCapError(
            f"a {n_points}^2 grid for this state needs about {need / 2 ** 20:.0f} MiB, "
            f"above the {_SAMPLE_BYTES_CAP / 2 ** 20:.0f} MiB budget; lower the grid points"
        )


def _sample(sys: OscillatorSystem, state, grid: GridSpec):
    c1, c2, half1, half2 = _window(sys, state, grid.extent_sigmas)
    # sized even when the points are given, so an unbounded window is refused
    sized = _sized_points(sys, half1, half2)
    n = sized if grid.n_points is None else grid.n_points
    _check_sample_cap(state, n)
    x1 = np.linspace(c1 - half1, c1 + half1, n)
    x2 = np.linspace(c2 - half2, c2 + half2, n)
    W = np.empty((n, n), dtype=float if _is_real(state) else complex)
    # rows split evenly into blocks of at least _BLOCK_CELLS cells each
    blocks = max(1, n // math.ceil(_BLOCK_CELLS / n))
    for b in range(blocks):
        i, j = b * n // blocks, (b + 1) * n // blocks
        W[i:j] = eval_wavefunction(sys, state, x1[i:j, None], x2[None, :])
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]
    return x1, x2, W, dx1, dx2


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise.  For real x, x * x has the same bits as
    np.abs(x) ** 2 with one n^2 temporary fewer; complex x keeps
    np.abs(x) ** 2, whose bits the product with the conjugate would change."""
    return x * x if x.dtype.kind == "f" else np.abs(x) ** 2


def _gram_purity(W: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gram matrix G of W on its shorter side, tr(G) and ||G||_F^2 / tr(G)^2."""
    Wh = W.conj().T
    G = Wh @ W if W.shape[0] >= W.shape[1] else W @ Wh
    total = float(np.trace(G).real)
    if not math.isfinite(total):
        # an infinite trace would put the pivoted factor's stop at inf, and
        # it would return a product state
        raise DomainError(f"sample matrix overflows or holds NaN: tr(G) = {total}")
    if not total > 0.0:
        raise DomainError("sample matrix is identically zero")
    # np.sum adds pairwise; a BLAS dot over the n^2 entries (np.vdot) lost up
    # to 3e-14 of the purity at 1024^2
    return G, total, float(np.sum(_abs2(G))) / (total * total)


def _spectrum(G: np.ndarray, total: float) -> tuple[np.ndarray, float, float]:
    """Singular values of W, descending, the entropy -sum p_k ln p_k with
    p_k = w_k / tr(G), and the spectrum defect, from a diagonal-pivoted
    Cholesky factor G ~ L L^H (Harbrecht, Peters and Schneider, Appl. Numer.
    Math. 62, 428, 2012).

    Each step pivots on the largest residual diagonal entry d[p] and stops
    once ``not d[p] > _PIVOT_STOP * tr(G)``, which also stops on NaN and on
    negative roundoff.  The eigenvalues w_k of the k x k matrix L^H L are
    the nonzero eigenvalues of L L^H; the min(W.shape) - k left out are
    returned as zeros.  The defect is the residual trace left out of the
    factor over tr(G).
    """
    n = G.shape[0]
    d = G.diagonal().real.copy()
    # row j holds column j of L; zero pages beyond the k rows written stay
    # untouched
    Lt = np.zeros((n, n), dtype=G.dtype)
    stop = _PIVOT_STOP * total
    k = 0
    while k < n:
        p = int(np.argmax(d))
        if not d[p] > stop:
            break
        col = (G[:, p] - Lt[:k, p].conj() @ Lt[:k]) / math.sqrt(d[p])
        Lt[k] = col
        d -= _abs2(col)
        d[p] = 0.0
        k += 1
    L = Lt[:k]
    w = np.zeros(n)
    w[:k] = np.clip(np.linalg.eigvalsh(L.conj() @ L.T), 0.0, None)[::-1]
    # a weight rounded above 1 would make its term, and a rank-one entropy,
    # negative
    weights = np.minimum(w[:k] / total, 1.0)
    pos = weights[weights > 1e-300]
    defect = float(np.sum(np.maximum(d, 0.0))) / total
    return np.sqrt(w), float(-np.sum(pos * np.log(pos))), defect


def schmidt_from_samples(W: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Singular values, purity and entropy of a sample matrix, real or complex.

    Works on the Gram matrix G = W^H W, or W W^H when W has fewer rows, so G
    has min(W.shape) rows.  Purity = ||G||_F^2 / tr(G)^2.  The singular
    values are the square roots of the eigenvalues w_k of L^H L for the k
    columns of G's pivoted Cholesky factor L (see ``_spectrum``), descending
    and padded with zeros to min(W.shape); the entropy weights are
    p_k = w_k / tr(G).  Scale invariant by construction.
    """
    G, total, purity = _gram_purity(W)
    s, entropy, _ = _spectrum(G, total)
    return s, purity, entropy


def schmidt_analyze(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> SchmidtResult:
    """Sample the wavefunction and take the purity from the Gram matrix of
    the samples, with the two-grid check from the same samples; the entropy
    and the Schmidt spectrum are computed when the result's fields are
    first read.

    Warns when the discrete normalization deviates from 1 by more than 1e-3,
    which signals a window too small for the state or too few points.
    """
    _, _, W, dx1, dx2 = _sample(sys, state, grid)
    norm = float(np.sum(_abs2(W)) * dx1 * dx2)
    defect = abs(1.0 - norm)
    if not defect <= _NORM_WARN:
        warnings.warn(
            f"discrete norm deviates from 1 by {defect:.3e}; enlarge the grid extent "
            f"or the number of points",
            RuntimeWarning,
            stacklevel=2,
        )
    G, total, purity = _gram_purity(W)
    coarse = _gram_purity(W[::2, ::2])[2]
    return SchmidtResult(purity=purity, norm_defect=defect, grid_defect=abs(purity - coarse),
                         n_points=W.shape[0], gram=G, trace=total)


def density_grid(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> DensityGrid:
    """Position probability density |psi(x1, x2)|^2 on the sampling grid."""
    x1, x2, W, _, _ = _sample(sys, state, grid)
    return DensityGrid(x1=x1, x2=x2, density=_abs2(W))
