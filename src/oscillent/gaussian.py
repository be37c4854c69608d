"""Closed forms for Gaussian states: purities, covariance matrices, the
two-mode squeezed standard form, and the classical statistical analogue.

The ground state and all two-mode coherent states of the trapped pair share
one purity,

    P = gamma*Gamma / sqrt((gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2)),

independent of the displacements.  The untrapped pair with a spreading
center-of-mass packet picks up an extra gamma^4 tau^2 under the root and its
entanglement grows monotonically with |tau|.

Covariance matrices use the operator vector
(sqrt(2) x1, sqrt(2) p1 / hbar, sqrt(2) x2, sqrt(2) p2 / hbar) so that the
canonical gauge makes every entry a pure number.  A block-diagonal symplectic
rescaling brings the coherent-state matrix to the two-mode squeezed standard
form with cosh(r) on the diagonal; that squeezing parameter satisfies
cosh(r) = 1/P and equals the logarithmic negativity.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError, UnsupportedStateError
from .system import Coherent, NumberState, OscillatorSystem

__all__ = [
    "purity_coherent",
    "purity_unbound_gaussian",
    "CovariancePack",
    "covariance_coherent",
    "classical_covariance",
    "sample_classical_covariance",
    "position_covariance",
    "arccosh_guarded",
]

# Arguments within this distance above 1 are treated as exactly 1 (the P = 1
# separable boundary); anything measurably below 1 is a hard error.
_ACOSH_SNAP = 1e-14
_ACOSH_UNDERFLOW = 1e-9
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float


def arccosh_guarded(x: float) -> float:
    """arccosh via log(x + sqrt(x^2 - 1)) with a boundary guard at x = 1."""
    if x < 1.0 - _ACOSH_UNDERFLOW:
        raise DomainError(f"arccosh argument {x} below 1")
    if x <= 1.0 + _ACOSH_SNAP:
        return 0.0
    return math.log(x + math.sqrt(x * x - 1.0))


def _gaussian_purity(sys: OscillatorSystem, tau: float) -> float:
    """gamma Gamma / sqrt(U + gamma^4 tau^2), with
    U = (gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2).

    The root is taken directly while the sum under it is a positive finite
    float and gamma^4 is a normal one (or tau is 0), so those purities keep
    their bits.  Past that (g = 1e300, c = 1e-100, or c = 1e100 with
    tau = 1e300, where gamma^4 = 1e-400 underflows to 0 and drops a
    gamma^4 tau^2 of 1e200) it is a b / hypot(1, tau a gamma / h2), with
    h_i = hypot(gamma, Gamma mu_i), a = gamma / h1 and b = Gamma / h2:
    ratios of at most 1 / mu2, which leave the float range only where the
    purity does."""
    gam, Gam = sys.gamma, sys.Gamma
    mu1, mu2 = sys.mu1, sys.mu2
    try:  # gam ** 4 raises where a product would give inf
        quartic = gam ** 4
    except OverflowError:
        quartic = math.inf
    under = ((gam * gam + Gam * Gam * mu1 * mu1) * (gam * gam + Gam * Gam * mu2 * mu2)
             + quartic * tau * tau)
    if 0.0 < under < math.inf and (quartic >= _NORMAL_MIN or not tau):
        return gam * Gam / math.sqrt(under)
    h1, h2 = math.hypot(gam, Gam * mu1), math.hypot(gam, Gam * mu2)
    a = gam / h1
    return a * (Gam / h2) / math.hypot(1.0, tau * a * (gam / h2))


def purity_coherent(sys: OscillatorSystem) -> float:
    """Reduced-state purity of the ground state or of any two-mode coherent
    state, which all coincide because displacements are local unitaries.

    Valid for any (gamma, Gamma) pair, trapped or not.  Returns a value in
    (0, 1]; equals 1 exactly when gamma^2 = Gamma^2 mu1 mu2 (g = 1 for a
    trapped system).
    """
    return _gaussian_purity(sys, 0.0)


def purity_unbound_gaussian(sys: OscillatorSystem, tau: float) -> float:
    """Purity of the untrapped pair in its vibrational ground state with a
    center-of-mass packet that has spread for dimensionless time tau.

    Strictly decreasing in |tau|; the maximum sits at the minimum-uncertainty
    instant tau = 0 where it reduces to :func:`purity_coherent`.
    """
    sys.check_untrapped()
    return _gaussian_purity(sys, tau)


# ----------------------------------------------------------------------
# covariance matrices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CovariancePack:
    """Covariance matrix of a coherent/ground state plus its standard-form
    reduction.

    Attributes
    ----------
    V : (4, 4) ndarray
        Symmetric covariance matrix, ordering (x1, p1, x2, p2).
    r : float
        Squeezing parameter of the standard form, arccosh(1/P).
    logneg : float
        Logarithmic negativity; equals r for these states.
    scaler_s : float
        Diagonal symplectic scale, s^4 = (gamma^2 + Gamma^2 mu1^2) /
        (gamma^2 + Gamma^2 mu2^2).
    """

    V: np.ndarray
    r: float
    logneg: float
    scaler_s: float
    _gamma: float
    _Gamma: float

    def scaling_matrix(self) -> np.ndarray:
        """Block-diagonal symplectic S with S V S^T in standard form."""
        gG = math.sqrt(self._gamma * self._Gamma)
        s = self.scaler_s
        return np.diag([gG * s, 1.0 / (gG * s), gG / s, s / gG])

    def standard_form(self) -> np.ndarray:
        """Two-mode squeezed standard form: cosh(r) diagonal, +/- sinh(r)
        off-diagonal, zeros elsewhere."""
        S = self.scaling_matrix()
        return S @ self.V @ S.T


def covariance_coherent(sys: OscillatorSystem) -> CovariancePack:
    """Covariance matrix of the ground/coherent state in atomic coordinates.

    Entrywise:

        V[0,0] = 1/Gamma^2 + mu2^2/gamma^2       V[1,1] = gamma^2 + Gamma^2 mu1^2
        V[2,2] = 1/Gamma^2 + mu1^2/gamma^2       V[3,3] = gamma^2 + Gamma^2 mu2^2
        V[0,2] = 1/Gamma^2 - mu1 mu2/gamma^2     V[1,3] = -gamma^2 + Gamma^2 mu1 mu2

    with all other entries zero.
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    mu1, mu2 = sys.mu1, sys.mu2
    V = np.zeros((4, 4))
    V[0, 0] = 1.0 / Gam2 + mu2 * mu2 / gam2
    V[1, 1] = gam2 + Gam2 * mu1 * mu1
    V[2, 2] = 1.0 / Gam2 + mu1 * mu1 / gam2
    V[3, 3] = gam2 + Gam2 * mu2 * mu2
    V[0, 2] = V[2, 0] = 1.0 / Gam2 - mu1 * mu2 / gam2
    V[1, 3] = V[3, 1] = -gam2 + Gam2 * mu1 * mu2
    det = np.linalg.det(V)
    if not det > 0:
        raise NumericalConsistencyError(f"covariance matrix has nonpositive determinant {det}")
    purity = purity_coherent(sys)
    r = arccosh_guarded(1.0 / purity)
    s = ((gam2 + Gam2 * mu1 * mu1) / (gam2 + Gam2 * mu2 * mu2)) ** 0.25
    return CovariancePack(V=V, r=r, logneg=r, scaler_s=s, _gamma=sys.gamma, _Gamma=sys.Gamma)


def _molecular_to_atomic_map(sys: OscillatorSystem) -> np.ndarray:
    """Linear map from scaled (X, P, R, Q) to scaled (x1, p1, x2, p2)."""
    mu1, mu2 = sys.mu1, sys.mu2
    return np.array([
        [1.0, 0.0, mu2, 0.0],
        [0.0, mu1, 0.0, 1.0],
        [1.0, 0.0, -mu1, 0.0],
        [0.0, mu2, 0.0, -1.0],
    ])


def classical_covariance(sys: OscillatorSystem) -> np.ndarray:
    """Second moments of the classical statistical analogue: two masses on a
    spring, at rest, with independent Gaussian uncertainty in each molecular
    coordinate matching the ground-state spreads.

    Built by transforming the diagonal molecular moment matrix to atomic
    coordinates; agrees entrywise with :func:`covariance_coherent`.
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    V_mol = np.diag([1.0 / Gam2, Gam2, 1.0 / gam2, gam2])
    T = _molecular_to_atomic_map(sys)
    return T @ V_mol @ T.T


def sample_classical_covariance(sys: OscillatorSystem, n_samples: int = 1_000_000,
                                seed: int = 20260810) -> np.ndarray:
    """Monte Carlo estimate of the classical covariance matrix.

    Draws (x, p, r, q) from the independent Gaussians of the classical
    distribution, maps to atomic coordinates, and returns the sample
    covariance of the scaled operator vector.  Fixed default seed keeps the
    output reproducible.
    """
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    gam, Gam, hbar = sys.gamma, sys.Gamma, sys.hbar
    x = rng.normal(0.0, 1.0 / (math.sqrt(2) * Gam), n_samples)
    p = rng.normal(0.0, hbar * Gam / math.sqrt(2), n_samples)
    r = rng.normal(0.0, 1.0 / (math.sqrt(2) * gam), n_samples)
    q = rng.normal(0.0, hbar * gam / math.sqrt(2), n_samples)
    mu1, mu2 = sys.mu1, sys.mu2
    x1 = x + mu2 * r
    x2 = x - mu1 * r
    p1 = mu1 * p + q
    p2 = mu2 * p - q
    R = np.vstack([
        math.sqrt(2) * x1,
        math.sqrt(2) / hbar * p1,
        math.sqrt(2) * x2,
        math.sqrt(2) / hbar * p2,
    ])
    return np.cov(R)


def position_covariance(sys: OscillatorSystem, state) -> float:
    """Position covariance <x1 x2> - <x1><x2>.

    Coherent states give (1/(2 Gamma^2)) - mu1 mu2 / (2 gamma^2), which for a
    trapped system is (1/(2 Gamma^2)) (1 - 1/g) and vanishes at g = 1.  The
    number state |m, n> gives (2n+1)/(2 Gamma^2) - (2m+1) mu1 mu2 /
    (2 gamma^2).
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    mu1mu2 = sys.mu1 * sys.mu2
    if isinstance(state, Coherent):
        return 0.5 / Gam2 - 0.5 * mu1mu2 / gam2
    if isinstance(state, NumberState):
        return (2 * state.n + 1) * 0.5 / Gam2 - (2 * state.m + 1) * 0.5 * mu1mu2 / gam2
    raise UnsupportedStateError(
        f"position covariance is implemented for coherent and number states, not {type(state).__name__}"
    )
