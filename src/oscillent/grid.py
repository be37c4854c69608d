"""Brute-force verification path: sample the two-particle wavefunction on a
position grid and read the entanglement off the spectrum of its discretized
reduced density matrix.

For a pure state the matrix of samples W[i, j] = psi(x1_i, x2_j) is a
discretized wavefunction, and its Gram matrix G = W^H W (or W W^H, whichever
is smaller) is, up to the grid measure, the reduced density matrix of one
particle.  Purity is ||G||_F^2 / tr(G)^2 and needs no decomposition at all;
the entropy -sum p_k ln p_k takes the eigenvalues w_k of G, which are the
squared singular values of W, with p_k = w_k / tr(G).  Those normalized
formulas make the result exactly invariant under scaling W, so no grid
measure needs to enter.  This path shares no formulas with the closed-form,
generating-function and truncated-basis modules, which is the point.

Wavefunctions are evaluated in particle coordinates via the substitution
psi(x1, x2) = Phi(x1 - x2, mu1 x1 + mu2 x2).  Hermite factors use the
orthonormal three-term recurrence with the Gaussian weight folded in at
every step, which stays bounded far beyond quantum numbers of 50.  Number
states and superpositions with real coefficients are sampled in float64,
coherent states and spreading packets in complex128.  Sampling is capped by
a predicted peak memory and raises ResourceCapError before allocating.

A small direct quadrature of the quadruple purity integral is included as a
secondary self-test of the Gram route.

Every call is independent; nothing here mutates shared state.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

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
    "purity_quadrature",
    "save_density_csv",
    "save_density_binary",
]

_NORM_WARN = 1e-3
# predicted peak bytes of one sampling; 1024^2 on |4,4> needs about 1/10 of it
_SAMPLE_BYTES_CAP = 2 ** 30


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: points per axis and half-width in units of the largest
    single-particle position spread."""

    n_points: int = 512
    extent_sigmas: float = 8.0

    def __post_init__(self):
        if self.n_points < 16:
            raise DomainError(f"n_points must be at least 16, got {self.n_points}")
        if not 4 <= self.extent_sigmas < math.inf:
            raise DomainError(
                f"extent_sigmas must be finite and at least 4, got {self.extent_sigmas}")


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of the sampled wavefunction with derived
    entanglement quantities.

    ``singular_values`` are the singular values of the sample matrix W,
    descending, taken as square roots of the eigenvalues of its Gram matrix
    (negative roundoff clipped to zero).  ``norm_defect`` is the deviation
    of the discrete normalization integral from 1 and flags a too-small
    window.
    """

    singular_values: np.ndarray
    purity: float
    entropy: float
    norm_defect: float


@dataclass(frozen=True)
class DensityGrid:
    """Sampled position probability density.

    ``x1`` and ``x2`` are the raw axis coordinates; multiply by ``Gamma`` for
    the dimensionless axes used in the emitted files.
    """

    x1: np.ndarray
    x2: np.ndarray
    density: np.ndarray
    Gamma: float


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
    """Square sampling window: per-particle centers and common half-width."""
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
        spread_X = 1.0 + state.tau ** 2
    var_X = spread_X / (2 * Gam2)
    var_r = (2 * m_eff + 1) / (2 * gam2)
    sigma1 = math.sqrt(var_X + mu2 ** 2 * var_r)
    sigma2 = math.sqrt(var_X + mu1 ** 2 * var_r)
    half = extent_sigmas * max(sigma1, sigma2)
    return c1, c2, half


def _check_sample_cap(state, n_points: int):
    """Raise ResourceCapError when sampling ``state`` on an n_points^2 grid
    is predicted to need more than the byte budget.

    The estimate counts n_points^2 cells for each Hermite row of both stacks
    (orders 0..m and 0..n), the coordinate arrays and temporaries around
    them (four float64 cells), and three cells of the sample dtype (the
    samples, their Gram matrix and one temporary).
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
    _check_sample_cap(state, grid.n_points)
    c1, c2, half = _window(sys, state, grid.extent_sigmas)
    x1 = np.linspace(c1 - half, c1 + half, grid.n_points)
    x2 = np.linspace(c2 - half, c2 + half, grid.n_points)
    W = eval_wavefunction(sys, state, x1[:, None], x2[None, :])
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]
    return x1, x2, W, dx1, dx2


def schmidt_from_samples(W: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Singular values, purity and entropy of a sample matrix, real or complex.

    Works on the Gram matrix G = W^H W, or W W^H when W has fewer rows, so G
    has min(W.shape) rows.  Purity = ||G||_F^2 / tr(G)^2.  The eigenvalues
    w_k of G (negative roundoff clipped to 0, sorted descending) are the
    squared singular values; the entropy weights are p_k = w_k / tr(G).
    Scale invariant by construction.
    """
    Wh = W.conj().T
    G = Wh @ W if W.shape[0] >= W.shape[1] else W @ Wh
    total = float(np.trace(G).real)
    if not total > 0.0:
        raise DomainError("sample matrix is identically zero")
    # np.sum adds pairwise; a BLAS dot over the n^2 entries (np.vdot) lost up
    # to 3e-14 of the purity at 1024^2
    purity = float(np.sum(np.abs(G) ** 2)) / (total * total)
    w = np.clip(np.linalg.eigvalsh(G), 0.0, None)[::-1]
    p = w / total
    pos = p[p > 1e-300]
    entropy = float(-np.sum(pos * np.log(pos)))
    return np.sqrt(w), purity, entropy


def schmidt_analyze(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> SchmidtResult:
    """Sample the wavefunction and extract purity and entropy from the Gram
    matrix of the samples.

    Warns when the discrete normalization deviates from 1 by more than 1e-3,
    which signals a window too small for the state.
    """
    _, _, W, dx1, dx2 = _sample(sys, state, grid)
    norm = float(np.sum(np.abs(W) ** 2) * dx1 * dx2)
    defect = abs(1.0 - norm)
    if defect > _NORM_WARN:
        warnings.warn(
            f"discrete norm deviates from 1 by {defect:.3e}; enlarge the grid extent",
            RuntimeWarning,
            stacklevel=2,
        )
    s, purity, entropy = schmidt_from_samples(W)
    return SchmidtResult(singular_values=s, purity=purity, entropy=entropy, norm_defect=defect)


def density_grid(sys: OscillatorSystem, state, grid: GridSpec = GridSpec()) -> DensityGrid:
    """Position probability density |psi(x1, x2)|^2 on the sampling grid."""
    x1, x2, W, _, _ = _sample(sys, state, grid)
    return DensityGrid(x1=x1, x2=x2, density=np.abs(W) ** 2, Gamma=sys.Gamma)


def purity_quadrature(sys: OscillatorSystem, state, n_points: int = 32,
                      extent_sigmas: float = 8.0) -> float:
    """Direct quadrature of the quadruple purity integral.

    O(n^4) and only meant as a small-n self-test of the Gram
    route, with which it agrees in the continuum limit.
    """
    if n_points > 64:
        raise DomainError("purity_quadrature is a small-grid self-test; use schmidt_analyze")
    grid = GridSpec(n_points=n_points, extent_sigmas=extent_sigmas)
    _, _, W, dx1, dx2 = _sample(sys, state, grid)
    val = np.einsum("ij,kj,kl,il->", W, W.conj(), W, W.conj()) * (dx1 * dx2) ** 2
    return float(val.real)


def save_density_csv(result: DensityGrid, path, params: str = ""):
    """Long-form CSV (x1, x2, density) with axes in units of 1/Gamma."""
    G = result.Gamma
    with open(path, "w") as fh:
        if params:
            fh.write(f"# params: {params}\n")
        fh.write("x1,x2,density\n")
        for i, a in enumerate(result.x1):
            row = result.density[i]
            for j, b in enumerate(result.x2):
                fh.write(f"{a * G:.17g},{b * G:.17g},{row[j] / (G * G):.17g}\n")


def save_density_binary(result: DensityGrid, path_prefix):
    """Raw float64 matrix dump plus a JSON header describing the grid."""
    data_path = f"{path_prefix}.bin"
    header_path = f"{path_prefix}.json"
    result.density.astype(np.float64).tofile(data_path)
    header = {
        "n": int(result.density.shape[0]),
        "extent": [float(result.x1[0] * result.Gamma), float(result.x1[-1] * result.Gamma),
                   float(result.x2[0] * result.Gamma), float(result.x2[-1] * result.Gamma)],
        "gamma_units": float(result.Gamma),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")
