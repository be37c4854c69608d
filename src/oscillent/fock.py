"""Truncated double-oscillator-basis approximation of the reduced state.

Any basis separable over the two particles can carry the partial trace.  We
use a product of harmonic-oscillator ladders |j, k} with freely chosen
inverse-length scales gamma1 (particle 1) and gamma2 (particle 2).  The
transform coefficients {j, k | m, n> between this artificial particle basis
and the physical relative/center-of-mass number basis come from one more
Gaussian generating function: a 4 x 4 quadratic form in the generating
variables (tau1, tau2, alpha, beta) built from

    F = (gamma^2 + mu2^2 Gamma^2 + gamma2^2) P^2
        + 2 (gamma^2 - mu1 mu2 Gamma^2) P Q
        + (gamma^2 + mu1^2 Gamma^2 + gamma1^2) Q^2
    P = gamma alpha + mu1 Gamma beta + gamma1 tau1
    Q = -gamma alpha + mu2 Gamma beta + gamma2 tau2
    Z = gamma^2 Gamma^2 + mu2^2 gamma1^2 Gamma^2 + mu1^2 gamma2^2 Gamma^2
        + gamma1^2 gamma2^2 + gamma^2 (gamma1^2 + gamma2^2)

as exp(-(tau1^2 + tau2^2 + alpha^2 + beta^2)/2 + F/Z) with overall prefactor
sqrt(4 gamma1 gamma2 gamma Gamma / Z).  The factorial weight multiplying the
Taylor coefficient is sqrt(j! k! m! n!); that placement is forced by
unitarity of the basis change (sum over j, k of the squared coefficients
must approach 1) and is verified by the tests.

Truncating at (jmax, kmax) gives a finite reduced density matrix whose
purity converges to the exact value from :mod:`oscillent.exact`; the free
scales (gamma1, gamma2) must and do cancel at convergence.  The default
basis matches the symplectic scales of the coherent-state standard form,
(sqrt(gamma Gamma) s, sqrt(gamma Gamma) / s), which is exact for
single-excitation states whenever the two oscillator frequencies coincide.

A coefficient table fills from a single generating-function box and is
immutable afterwards; a single coefficient is read from the table that
holds it, and a superposition reads all its terms from one box.  The box
is filled with its short (m, n) axes outermost and its long (j, k)
truncation axes innermost: the Taylor kernel's numpy calls per slab grow
with the number of later axes, so this order makes about half the calls of
the (j, k, m, n) one at the truncations the CLI uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError, UnsupportedStateError
from .exact import purity_number, purity_superposition
from .system import NumberState, OscillatorSystem, Superposition, _quantum_number
from .taylor import exp_taylor_box

__all__ = [
    "BasisParams",
    "CoeffTable",
    "default_basis",
    "coefficient_table",
    "reduced_density_truncated",
    "purity_from_density",
    "entropy_from_density",
    "purity_truncated",
    "entropy_truncated",
    "convergence_run",
]

_ENTROPY_FLOOR = 1e-14


@dataclass(frozen=True)
class BasisParams:
    """Free scales and truncation bounds of the particle-oscillator basis."""

    gamma1: float
    gamma2: float
    jmax: int
    kmax: int

    def __post_init__(self):
        if not (0 < self.gamma1 < math.inf and 0 < self.gamma2 < math.inf):
            raise DomainError("basis scales gamma1, gamma2 must be positive and finite")
        object.__setattr__(self, "jmax", _quantum_number(self.jmax, "jmax"))
        object.__setattr__(self, "kmax", _quantum_number(self.kmax, "kmax"))


def default_basis(sys: OscillatorSystem, jmax: int = 12, kmax: int | None = None) -> BasisParams:
    """Heuristic basis matched to the symplectic scales of the ground state.

    gamma1 = sqrt(gamma Gamma) * s and gamma2 = sqrt(gamma Gamma) / s with
    s^4 = (gamma^2 + Gamma^2 mu1^2) / (gamma^2 + Gamma^2 mu2^2); when the two
    mode frequencies coincide these are exactly the widths that separate the
    ground state.
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    s = ((gam2 + Gam2 * sys.mu1 ** 2) / (gam2 + Gam2 * sys.mu2 ** 2)) ** 0.25
    root = math.sqrt(sys.gamma * sys.Gamma)
    return BasisParams(gamma1=root * s, gamma2=root / s,
                       jmax=jmax, kmax=jmax if kmax is None else kmax)


def _generator(sys: OscillatorSystem, gamma1: float, gamma2: float):
    """4 x 4 quadratic form over (tau1, tau2, alpha, beta) and its prefactor."""
    gam, Gam = sys.gamma, sys.Gamma
    mu1, mu2 = sys.mu1, sys.mu2
    g1sq, g2sq = gamma1 ** 2, gamma2 ** 2
    f11 = gam ** 2 + mu2 ** 2 * Gam ** 2 + g2sq
    f12 = gam ** 2 - mu1 * mu2 * Gam ** 2
    f22 = gam ** 2 + mu1 ** 2 * Gam ** 2 + g1sq
    Z = (gam ** 2 * Gam ** 2 + mu2 ** 2 * g1sq * Gam ** 2 + mu1 ** 2 * g2sq * Gam ** 2
         + g1sq * g2sq + gam ** 2 * (g1sq + g2sq))
    f = np.array([[f11, f12], [f12, f22]])
    p = np.array([
        [gamma1, 0.0, gam, mu1 * Gam],
        [0.0, gamma2, -gam, mu2 * Gam],
    ])
    G = p.T @ f @ p / Z - 0.5 * np.eye(4)
    prefactor = math.sqrt(4.0 * gamma1 * gamma2 * gam * Gam / Z)
    return G, prefactor


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients {j, k | m, n> for fixed (m, n), j <= jmax, k <= kmax."""

    basis: BasisParams
    m: int
    n: int
    values: np.ndarray

    @property
    def completeness_defect(self) -> float:
        """|1 - sum of squared coefficients|; shrinks as truncation grows."""
        return abs(1.0 - float(np.sum(self.values ** 2)))


@functools.cache
def _sqrt_factorials(top: int) -> np.ndarray:
    """sqrt(i!) for i = 0..top, built once per ``top`` and read-only.

    Raises ResourceCapError when top! is not representable as a float
    (top > 170), before any box is allocated.
    """
    try:
        weights = np.sqrt([float(math.factorial(i)) for i in range(top + 1)])
    except OverflowError:
        raise ResourceCapError(
            f"index {top} needs {top}! as a float, which overflows above 170; "
            "lower the truncation"
        ) from None
    weights.flags.writeable = False
    return weights


# the generator's (tau1, tau2, alpha, beta) taken in the fill order (alpha, beta, tau1, tau2)
_FILL_ORDER = [2, 3, 0, 1]


def _planes(sys: OscillatorSystem, basis: BasisParams, labels) -> list[np.ndarray]:
    """Weighted (j, k) planes {j, k | m, n> for each (m, n) in ``labels``,
    all read from one (max m, max n, jmax, kmax) box.

    The box is filled truncation axes innermost: the kernel's numpy calls per
    slab grow with the number of later axes, and each plane box[m, n] is
    contiguous.
    """
    mmax = max(m for (m, _) in labels)
    nmax = max(n for (_, n) in labels)
    jw = _sqrt_factorials(basis.jmax)
    kw = _sqrt_factorials(basis.kmax)
    mw = _sqrt_factorials(mmax)
    nw = _sqrt_factorials(nmax)
    G, pref = _generator(sys, basis.gamma1, basis.gamma2)
    box = exp_taylor_box(G[np.ix_(_FILL_ORDER, _FILL_ORDER)],
                         (mmax, nmax, basis.jmax, basis.kmax))
    outer = np.outer(jw, kw)
    return [pref * mw[m] * nw[n] * box[m, n] * outer for (m, n) in labels]


def coefficient_table(sys: OscillatorSystem, basis: BasisParams,
                      m: int, n: int) -> CoeffTable:
    """All coefficients {j, k | m, n> up to the basis truncation.

    One generating-function box fills the whole table.
    """
    m, n = _quantum_number(m, "m"), _quantum_number(n, "n")
    return CoeffTable(basis=basis, m=m, n=n, values=_planes(sys, basis, [(m, n)])[0])


def _state_coefficients(sys: OscillatorSystem, state, basis: BasisParams) -> np.ndarray:
    """(jmax+1, kmax+1) matrix of {j, k | state> amplitudes."""
    if isinstance(state, NumberState):
        return coefficient_table(sys, basis, state.m, state.n).values.astype(complex)
    if isinstance(state, Superposition):
        planes = _planes(sys, basis, [(m, n) for (m, n, _) in state.terms])
        C = np.zeros((basis.jmax + 1, basis.kmax + 1), dtype=complex)
        for (_, _, cf), plane in zip(state.terms, planes):
            C += cf * plane
        return C
    raise UnsupportedStateError(
        f"truncated-basis methods support number states and superpositions, not {type(state).__name__}"
    )


def reduced_density_truncated(sys: OscillatorSystem, state, basis: BasisParams) -> np.ndarray:
    """Truncated reduced density matrix of particle 1, shape (jmax+1, jmax+1).

    Hermitian and positive semidefinite up to roundoff; its trace deficit
    1 - tr(rho) equals the completeness defect of the truncated expansion.
    """
    C = _state_coefficients(sys, state, basis)
    rho = C @ C.conj().T
    return rho


def purity_from_density(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian density matrix, as sum |rho_ij|^2."""
    return float(np.sum(np.abs(rho) ** 2))


def entropy_from_density(rho: np.ndarray) -> float:
    """Entropy -sum p ln p of a Hermitian density matrix.

    Eigenvalues are renormalized by the trace to compensate a truncation;
    values below 1e-14 are dropped before the logarithm.
    """
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > _ENTROPY_FLOOR]
    if evals.size == 0:
        raise DomainError("truncated density matrix has no usable eigenvalues")
    p = evals / evals.sum()
    return float(-np.sum(p * np.log(p)))


def purity_truncated(sys: OscillatorSystem, state, basis: BasisParams) -> float:
    """tr(rho^2) of the truncated reduced density matrix.

    Converges to the exact purity as (jmax, kmax) grow, independently of the
    basis scales.
    """
    return purity_from_density(reduced_density_truncated(sys, state, basis))


def entropy_truncated(sys: OscillatorSystem, state, basis: BasisParams) -> float:
    """Entanglement entropy of the truncated reduced state
    (see :func:`entropy_from_density`)."""
    return entropy_from_density(reduced_density_truncated(sys, state, basis))


def convergence_run(sys: OscillatorSystem, state, basis_list, max_truncation: int):
    """Purity error sequences over growing square truncations.

    For each (gamma1, gamma2) pair the full coefficient matrix is computed
    once at max_truncation and the truncated purity is read off every
    sub-block, so a run costs one expansion per basis.  Rows come back as
    (gamma1, gamma2, jmax, kmax, purity, abs_error) against the exact value
    from the generating-function method.
    """
    max_truncation = _quantum_number(max_truncation, "max_truncation")
    if isinstance(state, NumberState):
        exact = purity_number(sys, state.m, state.n)
    elif isinstance(state, Superposition):
        exact = purity_superposition(sys, state)
    else:
        raise UnsupportedStateError(
            f"no exact reference for state kind {type(state).__name__}"
        )
    rows = []
    for (g1, g2) in basis_list:
        basis = BasisParams(gamma1=g1, gamma2=g2, jmax=max_truncation, kmax=max_truncation)
        C = _state_coefficients(sys, state, basis)
        for tr in range(max_truncation + 1):
            block = C[: tr + 1, : tr + 1]
            purity = purity_from_density(block @ block.conj().T)
            rows.append((g1, g2, tr, tr, purity, abs(purity - exact)))
    return rows
