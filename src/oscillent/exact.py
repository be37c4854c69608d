"""Exact purities of number states and their superpositions.

A number state is reached from a coherent state by differentiating the
coherent displacement, so the quadruple integral defining the reduced-state
purity collapses to mixed Taylor coefficients of ``exp(z^T M z)`` for an
8 x 8 symmetric matrix M.  The eight variables attach one displacement pair
(alpha_i, beta_i) to each of the four wavefunction factors in the purity
kernel, taken in the cyclic order

    psi(x1, x2) psi*(x1', x2) psi(x1', x2') psi*(x1, x2').

M comes out of a four-dimensional Gaussian integral: with A the quadratic
form of the kernel over (x1, x1', x2, x2'), L the linear coupling of the
displacements into those coordinates, and a diagonal -1/2 from the coherent
normalization,

    M = (1/4) L^T A^{-1} L - (1/2) I.

M is also assembled directly from five rational functions u, v, w, s, t over
a common denominator D; both constructions agree entrywise and satisfy
det(M) = 1/256 for every parameter choice.

The untrapped pair reuses the machinery with a complex, time-dependent A
whose center-of-mass width follows the spreading packet; the resulting
purities are real up to roundoff, which is asserted.

The coefficient box has prod(t_i + 1) cells over the eight slots, so its
time and memory grow as the eighth power of the quantum numbers; the
operations carry configurable caps and raise ResourceCapError beyond them.
All functions are pure; superposition sums iterate in a fixed order so
results are bit-stable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

# boxes are built through the module attribute, so a rebinding of
# taylor.exp_taylor_box (for tracing, say) sees every one
from . import taylor
from .errors import DomainError, NumericalConsistencyError, ResourceCapError
from .gaussian import purity_coherent
from .system import OscillatorSystem, Superposition
from .taylor import taylor_coefficient

__all__ = [
    "GaussianIntegralData",
    "QuadraticGenerator",
    "build_A",
    "build_At",
    "build_M",
    "build_M_from_A",
    "purity_number",
    "purity_number_unbound",
    "purity_cross",
    "purity_superposition",
    "DEFAULT_NUMBER_CAP",
    "DEFAULT_CROSS_CAP",
]

DEFAULT_NUMBER_CAP = 8    # m + n
DEFAULT_CROSS_CAP = 16    # sum over all four slots of m_i + n_i

_DET_M_TARGET = 1.0 / 256.0
_DET_M_TOL = 1e-10
_COND_WARN = 1e10
_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class GaussianIntegralData:
    """Ingredients of the purity kernel's Gaussian integral.

    Attributes
    ----------
    A : (4, 4) ndarray
        Symmetric quadratic form over (x1, x1', x2, x2'); real for the
        trapped kernel, complex for the spreading packet.
    Lmap : (4, 8) ndarray
        Linear coupling of (alpha_1..4, beta_1..4) into the coordinates.
    Cquad : (8, 8) ndarray
        Diagonal -1/2 from the coherent-state normalization.
    norm_const : float
        Product of the four wavefunction normalization prefactors divided
        by pi^2; multiplies sqrt(pi^4 / det A) to give the zero-order purity.
    """

    A: np.ndarray
    Lmap: np.ndarray
    Cquad: np.ndarray
    norm_const: float


@dataclass(frozen=True)
class QuadraticGenerator:
    """Symmetric matrix whose mixed Taylor coefficients yield purities.

    ``prefactor`` is the zero-order value (the coherent/ground purity for the
    trapped generator, the spreading-packet purity for the time-dependent
    one); extraction multiplies it by factorial weights and the coefficient.
    """

    Mmat: np.ndarray
    prefactor: complex


def _chain_Lmap(sys: OscillatorSystem) -> np.ndarray:
    """Displacement-to-coordinate coupling in the cyclic factor order."""
    gam = sys.gamma
    Gm1 = sys.Gamma * sys.mu1
    Gm2 = sys.Gamma * sys.mu2
    L = np.zeros((4, 8))
    # rows: x1, x1', x2, x2'; slots 1..4 touch (x1,x2), (x1',x2), (x1',x2'), (x1,x2')
    L[0, 0] = gam
    L[0, 3] = gam
    L[0, 4] = Gm1
    L[0, 7] = Gm1
    L[1, 1] = gam
    L[1, 2] = gam
    L[1, 5] = Gm1
    L[1, 6] = Gm1
    L[2, 0] = -gam
    L[2, 1] = -gam
    L[2, 4] = Gm2
    L[2, 5] = Gm2
    L[3, 2] = -gam
    L[3, 3] = -gam
    L[3, 6] = Gm2
    L[3, 7] = Gm2
    return math.sqrt(2.0) * L


def build_A(sys: OscillatorSystem) -> GaussianIntegralData:
    """Static kernel quadratic form.

    Diagonal gamma^2 + Gamma^2 mu_i^2, off-diagonal blocks filled with
    y = (-gamma^2 + Gamma^2 mu1 mu2) / 2.
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    y = 0.5 * (-gam2 + Gam2 * sys.mu1 * sys.mu2)
    a = gam2 + Gam2 * sys.mu1 ** 2
    b = gam2 + Gam2 * sys.mu2 ** 2
    A = np.array([
        [a, 0.0, y, y],
        [0.0, a, y, y],
        [y, y, b, 0.0],
        [y, y, 0.0, b],
    ])
    return GaussianIntegralData(
        A=A,
        Lmap=_chain_Lmap(sys),
        Cquad=-0.5 * np.eye(8),
        norm_const=(sys.gamma * sys.Gamma) ** 2 / math.pi ** 2,
    )


def build_At(sys: OscillatorSystem, tau: float) -> GaussianIntegralData:
    """Time-dependent kernel quadratic form for the untrapped pair.

    The center-of-mass factor of the kernel carries the complex width
    w = Gamma^2 (1 + i tau) / (1 + tau^2) of the spreading packet (its
    conjugate in the conjugated factors), so the diagonal picks up
    mu_i^2 Gamma^2 / (1 + tau^2) and the off-diagonal entries split into a
    conjugate pair z_w = (-gamma^2 + w mu1 mu2) / 2.  At tau = 0 this
    reduces entrywise to :func:`build_A`.
    """
    if sys.is_trapped:
        raise DomainError("build_At needs an untrapped system (Omega = 0)")
    T = 1.0 + tau * tau
    gam2 = sys.gamma ** 2
    w = sys.Gamma ** 2 * (1.0 + 1j * tau) / T
    W = sys.Gamma ** 2 / T
    a = gam2 + sys.mu1 ** 2 * W
    b = gam2 + sys.mu2 ** 2 * W
    zw = 0.5 * (-gam2 + w * sys.mu1 * sys.mu2)
    zs = zw.conjugate()
    A = np.array([
        [a, 0.0, zw, zs],
        [0.0, a, zs, zw],
        [zw, zs, b, 0.0],
        [zs, zw, 0.0, b],
    ], dtype=complex)
    return GaussianIntegralData(
        A=A,
        Lmap=_chain_Lmap(sys),
        Cquad=-0.5 * np.eye(8),
        norm_const=(sys.gamma * sys.Gamma) ** 2 / (math.pi ** 2 * T),
    )


def build_M(sys: OscillatorSystem) -> QuadraticGenerator:
    """Assemble the 8 x 8 generator directly from its closed-form entries.

    With D = 4 (gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2):

        u = (gamma^4 - Gamma^4 mu1^2 mu2^2) / D
        v = (gamma^4 + 2 gamma^2 Gamma^2 mu1^2 + Gamma^4 mu1^2 mu2^2) / D
        w = (gamma^4 + 2 gamma^2 Gamma^2 mu2^2 + Gamma^4 mu1^2 mu2^2) / D
        s = gamma Gamma (gamma^2 - Gamma^2 mu1 mu2)(mu1 - mu2) / D
        t = gamma Gamma (gamma^2 + Gamma^2 mu1 mu2) / D

    The construction is cross-checked against det(M) = 1/256.
    """
    gam2 = sys.gamma ** 2
    Gam2 = sys.Gamma ** 2
    mu1, mu2 = sys.mu1, sys.mu2
    D = 4.0 * (gam2 + Gam2 * mu1 * mu1) * (gam2 + Gam2 * mu2 * mu2)
    u = (gam2 * gam2 - Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    v = (gam2 * gam2 + 2 * gam2 * Gam2 * mu1 * mu1 + Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    w = (gam2 * gam2 + 2 * gam2 * Gam2 * mu2 * mu2 + Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    s = sys.gamma * sys.Gamma * (gam2 - Gam2 * mu1 * mu2) * (mu1 - mu2) / D
    t = sys.gamma * sys.Gamma * (gam2 + Gam2 * mu1 * mu2) / D
    M = np.array([
        [u,  v, -u,  w,  s, -t, -s,  t],
        [v,  u,  w, -u, -t,  s,  t, -s],
        [-u, w,  u,  v, -s,  t,  s, -t],
        [w, -u,  v,  u,  t, -s, -t,  s],
        [s, -t, -s,  t, -u,  w,  u,  v],
        [-t, s,  t, -s,  w, -u,  v,  u],
        [-s, t,  s, -t,  u,  v, -u,  w],
        [t, -s, -t,  s,  v,  u,  w, -u],
    ])
    det = np.linalg.det(M)
    if not abs(det - _DET_M_TARGET) <= _DET_M_TOL:
        raise NumericalConsistencyError(
            f"generator determinant {det!r} deviates from 1/256"
        )
    return QuadraticGenerator(Mmat=M, prefactor=purity_coherent(sys))


def build_M_from_A(gdata: GaussianIntegralData) -> QuadraticGenerator:
    """Generator via the Gaussian integral: M = (1/4) L^T A^{-1} L + Cquad.

    A is inverted with a partially pivoted solve.  A singular A raises with
    its condition number in the message; a merely ill-conditioned one
    (cond > 1e10) warns.
    """
    A = gdata.A
    cond = np.linalg.cond(A)
    if not np.isfinite(cond):
        raise NumericalConsistencyError(
            f"kernel quadratic form is singular (condition number {cond!r})"
        )
    if cond > _COND_WARN:
        warnings.warn(
            f"kernel quadratic form is ill-conditioned (condition number {cond:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        AinvL = np.linalg.solve(A, gdata.Lmap.astype(A.dtype))
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(
            f"kernel quadratic form is singular (condition number {cond!r})"
        ) from exc
    M = 0.25 * gdata.Lmap.T @ AinvL + gdata.Cquad
    M = 0.5 * (M + M.T)  # symmetrize away roundoff
    detA = np.linalg.det(A)
    if not abs(detA.imag if np.iscomplexobj(A) else 0.0) <= _IMAG_TOL * abs(detA):
        raise NumericalConsistencyError(f"det A acquired an imaginary part: {detA!r}")
    detA = detA.real if np.iscomplexobj(A) else detA
    if not detA > 0:
        raise NumericalConsistencyError(f"det A must be positive, got {detA!r}")
    prefactor = gdata.norm_const * math.pi ** 2 / math.sqrt(detA)
    return QuadraticGenerator(Mmat=M, prefactor=prefactor)


# ----------------------------------------------------------------------
# purity extraction
# ----------------------------------------------------------------------


def _check_number_cap(total: int, cap: int):
    if total > cap:
        raise ResourceCapError(
            f"quantum-number order {total} exceeds the cap {cap}; raise the cap "
            "explicitly if the run time is acceptable"
        )


def purity_number(sys: OscillatorSystem, m: int, n: int,
                  cap: int = DEFAULT_NUMBER_CAP) -> float:
    """Exact purity of the number state |m, n> of a trapped pair.

    Extracts the coefficient of prod alpha_i^m beta_i^n from the generator
    exponential; only the expansion order 2(m+n) contributes.  The factorial
    bookkeeping gives P = P_coherent * (m! n!)^2 * coefficient.
    """
    if m < 0 or n < 0:
        raise DomainError("quantum numbers must be nonnegative")
    _check_number_cap(m + n, cap)
    gen = build_M(sys)
    coeff = taylor_coefficient(gen.Mmat, (m, m, m, m, n, n, n, n))
    fac = float(math.factorial(m) * math.factorial(n))
    return float(gen.prefactor * fac * fac * coeff)


def purity_number_unbound(sys: OscillatorSystem, m: int, tau: float,
                          cap: int = DEFAULT_NUMBER_CAP) -> float:
    """Exact purity of the untrapped pair in vibrational state m with a
    center-of-mass packet spread to dimensionless time tau.

    Same pipeline as :func:`purity_number` over the complex time-dependent
    generator; the imaginary residue must stay below 1e-8.
    """
    if m < 0:
        raise DomainError("vibrational index must be nonnegative")
    _check_number_cap(m, cap)
    gen = build_M_from_A(build_At(sys, tau))
    coeff = taylor_coefficient(gen.Mmat, (m, m, m, m, 0, 0, 0, 0))
    fac = float(math.factorial(m))
    value = gen.prefactor * fac * fac * coeff
    value = complex(value)
    if not abs(value.imag) <= _IMAG_TOL:
        raise NumericalConsistencyError(
            f"unbound purity has imaginary residue {value.imag!r}"
        )
    return float(value.real)


def _cross_orders(quad, cap: int) -> tuple:
    """Box index (m_1..m_4, n_1..n_4) of a quadruple; raises beyond ``cap``."""
    total = sum(m + n for (m, n) in quad)
    if total > cap:
        raise ResourceCapError(
            f"total order {total} exceeds the cross-term cap {cap}"
        )
    return tuple(m for (m, _) in quad) + tuple(n for (_, n) in quad)


def _cross_value(gen: QuadraticGenerator, box: np.ndarray, orders) -> float:
    """Cross term at ``orders`` read from a box that covers them."""
    if sum(orders) % 2 == 1:
        return 0.0
    fac = math.prod(math.factorial(t) for t in orders)
    return float(gen.prefactor * math.sqrt(fac) * box[orders])


def purity_cross(sys: OscillatorSystem, quadruple,
                 cap: int = DEFAULT_CROSS_CAP) -> float:
    """Cross term P({m_i, n_i}) of the superposition purity sum.

    ``quadruple`` holds four (m_i, n_i) pairs, one per kernel factor in the
    cyclic order (slots 2 and 4 are the conjugated factors).  The value is
    P_coherent * sqrt(prod m_i! n_i!) * coefficient, and it vanishes exactly
    whenever sum (m_i + n_i) is odd because the generator exponential has
    only even terms.
    """
    quad = [(int(m), int(n)) for (m, n) in quadruple]
    if len(quad) != 4:
        raise DomainError("quadruple must contain exactly four (m, n) pairs")
    if any(m < 0 or n < 0 for (m, n) in quad):
        raise DomainError("quantum numbers must be nonnegative")
    orders = _cross_orders(quad, cap)
    if sum(orders) % 2 == 1:
        return 0.0
    gen = build_M(sys)
    return _cross_value(gen, taylor.exp_taylor_box(gen.Mmat, orders), orders)


def purity_superposition(sys: OscillatorSystem, state,
                         cap: int = DEFAULT_CROSS_CAP) -> float:
    """Exact purity of a finite normalized superposition of number states.

    Sums c_1 c_2* c_3 c_4* P({m_i, n_i}) over all index quadruples drawn
    from the support, in a fixed iteration order.  Every cross term is read
    from one box whose per-slot caps are the largest orders any even-total
    quadruple with nonzero weight needs.  Accepts a
    :class:`~oscillent.system.Superposition` or a raw (m, n, coefficient)
    term list, which is validated.
    """
    if not isinstance(state, Superposition):
        state = Superposition(tuple(state))
    gen = build_M(sys)
    read = []
    for (m1, n1, c1), (m2, n2, c2), (m3, n3, c3), (m4, n4, c4) in product(state.terms, repeat=4):
        weight = c1 * c2.conjugate() * c3 * c4.conjugate()
        if weight == 0:
            continue
        read.append((weight, _cross_orders(((m1, n1), (m2, n2), (m3, n3), (m4, n4)), cap)))
    even = [orders for (_, orders) in read if sum(orders) % 2 == 0]
    box = taylor.exp_taylor_box(gen.Mmat, np.max(even, axis=0)) if even else None

    total = 0j
    for weight, orders in read:
        total += weight * _cross_value(gen, box, orders)
    if not abs(total.imag) <= 1e-10:
        raise NumericalConsistencyError(
            f"superposition purity has imaginary residue {total.imag!r}"
        )
    return float(total.real)
