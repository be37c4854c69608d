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
purities are real up to roundoff, which is asserted.  Its condition number
grows as tau^2 (1e10 at tau = 1e5 for c = 2, mu1 = 0.5), and the read loses
about 0.1 cond(A) eps of its value, so a form whose condition number is not
at most 1e10 is refused with NumericalConsistencyError.  At tau = 0 that A is
the static one, and M reads only gamma, Gamma and mu1, so a trapped pair's
M is the Gaussian integral of its untrapped twin at tau = 0.

The order caps are fixed: m + n <= 8 for a number state and unbound index
m <= 8, and a total order of at most 16 over the four slots of a
superposition's cross terms, so every term of a superposition has
m + n <= 4.  They guard precision, not run time: past them the extraction
stops returning purities without any sign of it (|63,0> at g = 1000,
mu1 = 0.5 reads 4.197).  Inside them the symmetries g <-> 1/g,
mu1 <-> mu2 and (m, n) <-> (n, m) hold to about 1e-15 for g up to 1e6, and
every box has at most 5^8 cells (3 MiB).  Each cap is decided from the
state's numbers before anything is built (4 max(m + n) over a
superposition's terms) and raises ResourceCapError; number
states and the untrapped pair share one read.  All functions are pure;
superposition sums iterate in a fixed order so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# boxes are built through the module attribute, so a rebinding of
# taylor.exp_taylor_box (for tracing, say) sees every one
from . import taylor
from .errors import NumericalConsistencyError, ResourceCapError
from .gaussian import purity_coherent
from .system import OscillatorSystem, Superposition, _quantum_number
from .taylor import taylor_coefficient

__all__ = [
    "GaussianIntegralData",
    "QuadraticGenerator",
    "build_At",
    "build_M",
    "build_M_from_A",
    "purity_number",
    "purity_number_unbound",
    "purity_superposition",
]

# order caps beyond which the extracted coefficients lose their precision
_NUMBER_CAP = 8    # m + n
_CROSS_CAP = 16    # sum over all four slots of m_i + n_i

_DET_M_TARGET = 1.0 / 256.0
_DET_M_TOL = 1e-10
_COND_MAX = 1e10
_IMAG_TOL = 1e-8
_SUPERPOSITION_IMAG_TOL = 1e-10
# smallest normal float: a generator entry below it has lost bits to underflow
_TINY = np.finfo(float).tiny


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
    norm_const : float
        Product of the four wavefunction normalization prefactors divided
        by pi^2; multiplies sqrt(pi^4 / det A) to give the zero-order purity.
    """

    A: np.ndarray
    Lmap: np.ndarray
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


def build_At(sys: OscillatorSystem, tau: float) -> GaussianIntegralData:
    """Time-dependent kernel quadratic form for the untrapped pair.

    The center-of-mass factor of the kernel carries the complex width
    w = Gamma^2 (1 + i tau) / (1 + tau^2) of the spreading packet (its
    conjugate in the conjugated factors), so the diagonal picks up
    mu_i^2 Gamma^2 / (1 + tau^2) and the off-diagonal entries split into a
    conjugate pair z_w = (-gamma^2 + w mu1 mu2) / 2.  At tau = 0 it is the
    real static form, diagonal gamma^2 + Gamma^2 mu_i^2 and off-diagonal
    blocks y = (-gamma^2 + Gamma^2 mu1 mu2) / 2.
    """
    sys.check_untrapped()
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
        norm_const=(sys.gamma * sys.Gamma) ** 2 / (math.pi ** 2 * T),
    )


def _generator_entries(gamma: float, Gamma: float, mu1: float, mu2: float) -> tuple:
    """u, v, w, s, t of :func:`build_M` at the inverse lengths gamma, Gamma."""
    gam2 = gamma ** 2
    Gam2 = Gamma ** 2
    D = 4.0 * (gam2 + Gam2 * mu1 * mu1) * (gam2 + Gam2 * mu2 * mu2)
    u = (gam2 * gam2 - Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    v = (gam2 * gam2 + 2 * gam2 * Gam2 * mu1 * mu1 + Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    w = (gam2 * gam2 + 2 * gam2 * Gam2 * mu2 * mu2 + Gam2 * Gam2 * (mu1 * mu2) ** 2) / D
    s = gamma * Gamma * (gam2 - Gam2 * mu1 * mu2) * (mu1 - mu2) / D
    t = gamma * Gamma * (gam2 + Gam2 * mu1 * mu2) / D
    return u, v, w, s, t


def _normal(x: float) -> bool:
    """x is zero or a finite float of normal size."""
    return x == 0.0 or _TINY <= abs(x) < math.inf


def build_M(sys: OscillatorSystem) -> QuadraticGenerator:
    """Assemble the 8 x 8 generator directly from its closed-form entries.

    With D = 4 (gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2):

        u = (gamma^4 - Gamma^4 mu1^2 mu2^2) / D
        v = (gamma^4 + 2 gamma^2 Gamma^2 mu1^2 + Gamma^4 mu1^2 mu2^2) / D
        w = (gamma^4 + 2 gamma^2 Gamma^2 mu2^2 + Gamma^4 mu1^2 mu2^2) / D
        s = gamma Gamma (gamma^2 - Gamma^2 mu1 mu2)(mu1 - mu2) / D
        t = gamma Gamma (gamma^2 + Gamma^2 mu1 mu2) / D

    Each entry is a ratio of degree 0 in (gamma, Gamma).  Where the entries
    taken from gamma and Gamma themselves are not all zero or finite normal
    floats (gamma^4 overflows at g = 1e300, D underflows at hbar = 1e300),
    they are taken from gamma / s and Gamma / s with s = max(gamma, Gamma),
    whose powers stay in range; every other input keeps the direct entries.
    A gamma or Gamma that has itself lost bits to underflow, or rescaled
    entries that are still out of range, raise NumericalConsistencyError.
    The construction is cross-checked against det(M) = 1/256.
    """
    gamma, Gamma, mu1, mu2 = sys.gamma, sys.Gamma, sys.mu1, sys.mu2
    try:
        entries = _generator_entries(gamma, Gamma, mu1, mu2)
    except (ZeroDivisionError, OverflowError):
        entries = (math.nan,)
    if not all(map(_normal, entries)):
        scale = max(gamma, Gamma)
        # an underflowed gamma or Gamma has lost the ratio the entries read
        entries = (_generator_entries(gamma / scale, Gamma / scale, mu1, mu2)
                   if _TINY <= min(gamma, Gamma) else (math.nan,))
        if not all(map(_normal, entries)):
            raise NumericalConsistencyError(
                f"generator entries leave the float range at gamma = {gamma:.3e}, "
                f"Gamma = {Gamma:.3e}")
    u, v, w, s, t = entries
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
    """Generator via the Gaussian integral: M = (1/4) L^T A^{-1} L - (1/2) I.

    A is inverted with a partially pivoted solve.  An A whose condition
    number is not at most 1e10, singular or NaN-holding ones included, is
    refused with the condition number in the message: the spreading-packet
    purities lose about 0.1 cond(A) eps of their value, 1e-5 at cond 1e12.
    """
    A = gdata.A
    cond = np.linalg.cond(A)
    if not cond <= _COND_MAX:
        raise NumericalConsistencyError(
            f"kernel quadratic form has condition number {cond:.3e}, above {_COND_MAX:g}"
        )
    AinvL = np.linalg.solve(A, gdata.Lmap.astype(A.dtype))
    M = 0.25 * gdata.Lmap.T @ AinvL - 0.5 * np.eye(8)
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


def _check_number_cap(total: int):
    if total > _NUMBER_CAP:
        raise ResourceCapError(
            f"quantum-number order {total} exceeds the cap {_NUMBER_CAP}, beyond "
            "which the extracted purities lose their precision"
        )


def _number_read(gen: QuadraticGenerator, m: int, n: int):
    """P_0 (m! n!)^2 c, with c the coefficient of prod alpha_i^m beta_i^n of
    the exponential of ``gen`` and P_0 its prefactor."""
    coeff = taylor_coefficient(gen.Mmat, (m,) * 4 + (n,) * 4)
    fac = float(math.factorial(m) * math.factorial(n))
    return gen.prefactor * fac * fac * coeff


def purity_number(sys: OscillatorSystem, m: int, n: int) -> float:
    """Exact purity of the number state |m, n> of a trapped pair.

    Extracts the coefficient of prod alpha_i^m beta_i^n from the generator
    exponential; only the expansion order 2(m+n) contributes.  The factorial
    bookkeeping gives P = P_coherent * (m! n!)^2 * coefficient.
    """
    m, n = _quantum_number(m, "m"), _quantum_number(n, "n")
    _check_number_cap(m + n)
    return float(_number_read(build_M(sys), m, n))


def purity_number_unbound(sys: OscillatorSystem, m: int, tau: float) -> float:
    """Exact purity of the untrapped pair in vibrational state m with a
    center-of-mass packet spread to dimensionless time tau.

    Same read as :func:`purity_number` (at n = 0) over the complex
    time-dependent generator; the imaginary residue must stay below 1e-8.
    """
    m = _quantum_number(m, "m")
    _check_number_cap(m)
    value = complex(_number_read(build_M_from_A(build_At(sys, tau)), m, 0))
    if not abs(value.imag) <= _IMAG_TOL:
        raise NumericalConsistencyError(
            f"unbound purity has imaginary residue {value.imag!r}"
        )
    return float(value.real)


def _cross_value(gen: QuadraticGenerator, box: np.ndarray, orders) -> float:
    """Cross term at ``orders`` read from a box that covers them."""
    if sum(orders) % 2 == 1:
        return 0.0
    fac = math.prod(math.factorial(t) for t in orders)
    return float(gen.prefactor * math.sqrt(fac) * box[orders])


def purity_superposition(sys: OscillatorSystem, state: Superposition) -> float:
    """Exact purity of a finite normalized superposition of number states.

    Sums c_1 c_2* c_3 c_4* P({m_i, n_i}) over all index quadruples drawn
    from the terms, in ``product(terms, repeat=4)`` order.  A cross term
    P({m_i, n_i}) is P_coherent * sqrt(prod m_i! n_i!) times the coefficient
    of prod alpha_i^m_i beta_i^n_i, slots 2 and 4 being the conjugated
    factors; it vanishes whenever sum (m_i + n_i) is odd.  The largest
    quadruple repeats the term of largest m + n, so the cap is checked on
    4 max(m + n), and one box at the state's orders (m,)*4 + (n,)*4 covers
    every cross term.
    """
    order = 4 * max(m + n for (m, n, _) in state.terms)
    if order > _CROSS_CAP:
        raise ResourceCapError(f"total order {order} exceeds the cross-term cap {_CROSS_CAP}")
    gen = build_M(sys)
    mmax, nmax = state.orders
    box = taylor.exp_taylor_box(gen.Mmat, (mmax,) * 4 + (nmax,) * 4)

    total = 0j
    for (m1, n1, c1), (m2, n2, c2), (m3, n3, c3), (m4, n4, c4) in product(state.terms, repeat=4):
        orders = (m1, m2, m3, m4, n1, n2, n3, n4)
        total += c1 * c2.conjugate() * c3 * c4.conjugate() * _cross_value(gen, box, orders)
    if not abs(total.imag) <= _SUPERPOSITION_IMAG_TOL:
        raise NumericalConsistencyError(
            f"superposition purity has imaginary residue {total.imag!r}"
        )
    return float(total.real)
