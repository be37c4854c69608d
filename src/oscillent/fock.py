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
the (j, k, m, n) one at the truncations the CLI uses.  A convergence run
fills the tables of all its (system, basis) pairs from one stacked box, the
Taylor kernel taking their generators side by side, and takes the purities
of every table's truncated blocks one truncation at a time, all tables in
one stacked product; each number is the one a table of its own gives.
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
    all read from one (max m, max n, jmax, kmax) box."""
    G, pref = _generator(sys, basis.gamma1, basis.gamma2)
    return _weighted_planes(G, pref, labels, basis.jmax, basis.kmax)


def _weighted_planes(G, pref, labels, jmax: int, kmax: int) -> list[np.ndarray]:
    """``pref * sqrt(j! k! m! n!) * box[..., m, n, :, :]`` for each (m, n) in
    ``labels``, where box is the (max m, max n, jmax, kmax) Taylor box of G.

    G is one generator, or an (S, 4, 4) stack with ``pref`` shaped (S, 1, 1);
    a stack fills one box and each plane keeps its leading member axis.  The
    box is filled truncation axes innermost: the kernel's numpy calls per
    slab grow with the number of later axes, and each plane box[m, n] is
    contiguous.
    """
    mmax = max(m for (m, _) in labels)
    nmax = max(n for (_, n) in labels)
    jw = _sqrt_factorials(jmax)
    kw = _sqrt_factorials(kmax)
    mw = _sqrt_factorials(mmax)
    nw = _sqrt_factorials(nmax)
    box = exp_taylor_box(G[..., _FILL_ORDER, :][..., _FILL_ORDER], (mmax, nmax, jmax, kmax))
    outer = np.outer(jw, kw)
    return [pref * mw[m] * nw[n] * box[..., m, n, :, :] * outer for (m, n) in labels]


def coefficient_table(sys: OscillatorSystem, basis: BasisParams,
                      m: int, n: int) -> CoeffTable:
    """All coefficients {j, k | m, n> up to the basis truncation.

    One generating-function box fills the whole table.
    """
    m, n = _quantum_number(m, "m"), _quantum_number(n, "n")
    return CoeffTable(basis=basis, m=m, n=n, values=_planes(sys, basis, [(m, n)])[0])


def _labels(state) -> list[tuple[int, int]]:
    """The (m, n) of each term of a state the truncated basis can expand."""
    if isinstance(state, NumberState):
        return [(state.m, state.n)]
    if isinstance(state, Superposition):
        return [(m, n) for (m, n, _) in state.terms]
    raise UnsupportedStateError(
        f"truncated-basis methods support number states and superpositions, not {type(state).__name__}"
    )


def _amplitudes(state, planes) -> np.ndarray:
    """{j, k | state> amplitudes from the weighted planes of ``_labels(state)``."""
    if isinstance(state, NumberState):
        return planes[0].astype(complex)
    C = np.zeros(planes[0].shape, dtype=complex)
    for (_, _, cf), plane in zip(state.terms, planes):
        C += cf * plane
    return C


def _state_coefficients(sys: OscillatorSystem, state, basis: BasisParams) -> np.ndarray:
    """(jmax+1, kmax+1) matrix of {j, k | state> amplitudes."""
    if isinstance(state, NumberState):
        return coefficient_table(sys, basis, state.m, state.n).values.astype(complex)
    return _amplitudes(state, _planes(sys, basis, _labels(state)))


def reduced_density_truncated(sys: OscillatorSystem, state, basis: BasisParams) -> np.ndarray:
    """Truncated reduced density matrix of particle 1, shape (jmax+1, jmax+1).

    Hermitian and positive semidefinite up to roundoff; its trace deficit
    1 - tr(rho) equals the completeness defect of the truncated expansion.
    """
    C = _state_coefficients(sys, state, basis)
    rho = C @ C.conj().T
    return rho


def purity_from_density(rho: np.ndarray) -> float | np.ndarray:
    """tr(rho^2) of a Hermitian density matrix, as sum |rho_ij|^2.

    For a stack of matrices on the last two axes, an array of their purities.
    """
    purity = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    return purity if purity.ndim else float(purity)


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


def convergence_run(systems, state, basis_list, max_truncation: int) -> list[list[tuple]]:
    """Purity error sequences over growing square truncations, for each system.

    Every (system, (gamma1, gamma2)) coefficient table is filled at
    max_truncation from one stacked generating-function box, and at each
    truncation the purities of every table's sub-block come from one
    stacked product, so a run costs one box however many systems and bases
    it holds.  Returns one list of rows per system, in the order given:
    (gamma1, gamma2, jmax, kmax, purity, abs_error) for each basis and each
    truncation, against that system's exact value from the
    generating-function method.
    """
    max_truncation = _quantum_number(max_truncation, "max_truncation")
    if isinstance(state, NumberState):
        exacts = [purity_number(sys, state.m, state.n) for sys in systems]
    elif isinstance(state, Superposition):
        exacts = [purity_superposition(sys, state) for sys in systems]
    else:
        raise UnsupportedStateError(
            f"no exact reference for state kind {type(state).__name__}"
        )
    bases = [BasisParams(gamma1=g1, gamma2=g2, jmax=max_truncation, kmax=max_truncation)
             for (g1, g2) in basis_list]
    if not (systems and bases):
        return [[] for _ in systems]
    gens, prefs = zip(*(_generator(sys, b.gamma1, b.gamma2) for sys in systems for b in bases))
    C = _amplitudes(state, _weighted_planes(np.stack(gens), np.array(prefs)[:, None, None],
                                            _labels(state), max_truncation, max_truncation))
    # purities[tr][i * len(bases) + j]: system i, basis j, truncation tr
    purities = [purity_from_density(block @ block.conj().transpose(0, 2, 1)).tolist()
                for block in (C[:, : tr + 1, : tr + 1] for tr in range(max_truncation + 1))]
    return [[(g1, g2, tr, tr, purities[tr][s], abs(purities[tr][s] - exact))
             for s, (g1, g2) in enumerate(basis_list, start=i * len(bases))
             for tr in range(max_truncation + 1)]
            for i, exact in enumerate(exacts)]
