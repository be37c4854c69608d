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

The untrapped pair's kernel has a complex, time-dependent A whose
center-of-mass width follows the spreading packet.  A read of
``unbound:M,TAU`` touches only the vibrational block M[:4, :4], and that
block has the closed form of the trapped one with the packet's width
W = Gamma^2 / (1 + tau^2) beside each mass fraction and a complex u (see
:func:`_generator_entries`); its prefactor is the packet's Gaussian purity.
No A is formed or inverted, so no condition number bounds the read: it
answers within about 1e-14 of 1000-digit evaluations for tau up to 1e100
and c from 1e-100 to 1e100, where inverting A refused cond(A) > 1e10
(tau = 1e5 at c = 2, mu1 = 0.5, or c = 1e-5 at tau = 1).  The purities are
real up to roundoff, which is asserted.  :func:`build_M_from_A` keeps the
Gaussian integral as an independent construction of M; at tau = 0 it agrees
with both closed forms.

The order caps are fixed: m + n <= 8 for a number state and unbound index
m <= 8, and a total order of at most 16 over the four slots of a
superposition's cross terms, so every term of a superposition has
m + n <= 4.  They guard precision, not run time: past them the extraction
stops returning purities without any sign of it (|63,0> at g = 1000,
mu1 = 0.5 reads 4.197).  Inside them the symmetries g <-> 1/g,
mu1 <-> mu2 and (m, n) <-> (n, m) hold to about 1e-15 for g up to 1e6.
Every coefficient is read from the cells its corner depends on
(:func:`taylor.taylor_coefficient`): a number state's from at most 9,369
of them (|5,3>, whose box holds 331,776), and a superposition's cross
terms in one read, from the cells their even corners depend on together,
which lie in the box at the state's orders, at most 5^8 cells.  Each cap
is decided from the state's numbers before anything is built (4 max(m +
n) over a superposition's terms) and raises ResourceCapError.  All
functions are pure; superposition sums iterate in a fixed order so
results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# the packet's purity is taken through the module attribute, so a rebinding
# of gaussian.purity_unbound_gaussian (for tracing, say) sees every call
from . import gaussian
from .errors import NumericalConsistencyError, ResourceCapError
from .gaussian import purity_coherent
from .system import OscillatorSystem, Superposition, _quantum_number
from .taylor import taylor_coefficient

__all__ = [
    "GaussianIntegralData",
    "QuadraticGenerator",
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


def _generator_entries(gamma: float, Gamma: float, mu1: float, mu2: float,
                       tau: float | None = None) -> tuple:
    """u, v, w, s, t of :func:`build_M` at the inverse lengths gamma, Gamma;
    given the packet's time tau, u, v, w of :func:`_packet_block` instead.

    The spreading packet's centre-of-mass width W = Gamma^2 / (1 + tau^2)
    takes Gamma^2's place beside each mass fraction, D gains the term
    4 (W tau mu1 mu2)^2, and u the imaginary part
    2 gamma^2 W tau mu1 mu2 / D; v + w = 1/2 at every tau.  At tau = 0,
    W = Gamma^2 exactly, so every entry keeps its bits.  Where tau^2
    overflows (|tau| > 1.3e154), W tau = Gamma^2 / tau and W = W tau / tau.
    """
    gam2 = gamma ** 2
    Gam2 = Gamma ** 2
    W, Wt = Gam2, 0.0
    if tau is not None:
        T = 1.0 + tau * tau
        W, Wt = (Gam2 / T, Gam2 / T * tau) if T < math.inf else (Gam2 / tau / tau, Gam2 / tau)
    D = 4.0 * (gam2 + W * mu1 * mu1) * (gam2 + W * mu2 * mu2) + (2.0 * Wt * mu1 * mu2) ** 2
    u = gam2 * gam2 - Gam2 * W * (mu1 * mu2) ** 2
    v = (gam2 * gam2 + 2 * gam2 * W * mu1 * mu1 + Gam2 * W * (mu1 * mu2) ** 2) / D
    w = (gam2 * gam2 + 2 * gam2 * W * mu2 * mu2 + Gam2 * W * (mu1 * mu2) ** 2) / D
    if tau is not None:
        return complex(u / D, 2 * gam2 * Wt * mu1 * mu2 / D), v, w
    s = gamma * Gamma * (gam2 - Gam2 * mu1 * mu2) * (mu1 - mu2) / D
    t = gamma * Gamma * (gam2 + Gam2 * mu1 * mu2) / D
    return u / D, v, w, s, t


def _normal(x: float) -> bool:
    """x is zero or a finite float of normal size."""
    return x == 0.0 or _TINY <= abs(x) < math.inf


def _entries_in_range(sys: OscillatorSystem, *tau: float) -> tuple:
    """:func:`_generator_entries` of ``sys`` (at the packet's time, if one is
    given) under one range rule.

    The entries are ratios of degree 0 in (gamma, Gamma).  Where those taken
    from gamma and Gamma themselves are not all zero or finite normal floats
    (gamma^4 overflows at g = 1e300, D underflows at hbar = 1e300), they are
    taken from gamma / s and Gamma / s with s = max(gamma, Gamma), whose
    powers stay in range; every other input keeps the direct entries.  A
    gamma or Gamma that has itself lost bits to underflow, or rescaled
    entries that are still out of range, raise NumericalConsistencyError.
    """
    gamma, Gamma, mu1, mu2 = sys.gamma, sys.Gamma, sys.mu1, sys.mu2
    try:
        entries = _generator_entries(gamma, Gamma, mu1, mu2, *tau)
    except (ZeroDivisionError, OverflowError):
        entries = (math.nan,)
    if not all(map(_normal, entries)):
        scale = max(gamma, Gamma)
        # an underflowed gamma or Gamma has lost the ratio the entries read
        entries = (_generator_entries(gamma / scale, Gamma / scale, mu1, mu2, *tau)
                   if _TINY <= min(gamma, Gamma) else (math.nan,))
        if not all(map(_normal, entries)):
            raise NumericalConsistencyError(
                f"generator entries leave the float range at gamma = {gamma:.3e}, "
                f"Gamma = {Gamma:.3e}")
    return entries


def build_M(sys: OscillatorSystem) -> QuadraticGenerator:
    """Assemble the 8 x 8 generator directly from its closed-form entries.

    With D = 4 (gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2):

        u = (gamma^4 - Gamma^4 mu1^2 mu2^2) / D
        v = (gamma^4 + 2 gamma^2 Gamma^2 mu1^2 + Gamma^4 mu1^2 mu2^2) / D
        w = (gamma^4 + 2 gamma^2 Gamma^2 mu2^2 + Gamma^4 mu1^2 mu2^2) / D
        s = gamma Gamma (gamma^2 - Gamma^2 mu1 mu2)(mu1 - mu2) / D
        t = gamma Gamma (gamma^2 + Gamma^2 mu1 mu2) / D

    taken under the range rule of :func:`_entries_in_range`.  The
    construction is cross-checked against det(M) = 1/256.
    """
    u, v, w, s, t = _entries_in_range(sys)
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
    refused with the condition number in the message: a spreading-packet
    purity read through this inverse loses about 0.1 cond(A) eps of its
    value, 1e-5 at cond 1e12.  No purity route calls it: it is the
    independent construction that build_M and the packet's block are
    tested against.
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


def _packet_block(sys: OscillatorSystem, tau: float) -> np.ndarray:
    """The vibrational block M[:4, :4] of the spreading packet's generator at
    time tau, the only block a read of ``unbound:M,TAU`` touches:

        [[u, v, -u, w], [v, u*, w, -u*], [-u, w, u, v], [w, -u*, v, u*]]

    with u, v, w from :func:`_generator_entries` at tau, under the range
    rule of :func:`_entries_in_range`.  At tau = 0 it is build_M's block.
    """
    u, v, w = _entries_in_range(sys, tau)
    ub = u.conjugate()
    return np.array([
        [u,  v, -u,  w],
        [v, ub,  w, -ub],
        [-u, w,  u,  v],
        [w, -ub, v,  ub],
    ])


def purity_number_unbound(sys: OscillatorSystem, m: int, tau: float) -> float:
    """Exact purity of the untrapped pair in vibrational state m with a
    center-of-mass packet spread to dimensionless time tau.

    P_tau (m!)^2 c, with P_tau the packet's Gaussian purity
    (:func:`gaussian.purity_unbound_gaussian`, which refuses a trapped
    system) and c the coefficient of prod alpha_i^m of the exponential of
    :func:`_packet_block`; the imaginary residue must stay below 1e-8.
    """
    m = _quantum_number(m, "m")
    _check_number_cap(m)
    prefactor = gaussian.purity_unbound_gaussian(sys, tau)
    fac = float(math.factorial(m))
    value = complex(prefactor * fac * fac * taylor_coefficient(_packet_block(sys, tau), (m,) * 4))
    if not abs(value.imag) <= _IMAG_TOL:
        raise NumericalConsistencyError(
            f"unbound purity has imaginary residue {value.imag!r}"
        )
    return float(value.real)


def _cross_value(gen: QuadraticGenerator, coeff, orders) -> float:
    """Cross term at ``orders`` from its coefficient ``coeff``."""
    if sum(orders) % 2 == 1:
        return 0.0
    fac = math.prod(math.factorial(t) for t in orders)
    return float(gen.prefactor * math.sqrt(fac) * coeff)


def purity_superposition(sys: OscillatorSystem, state: Superposition) -> float:
    """Exact purity of a finite normalized superposition of number states.

    Sums c_1 c_2* c_3 c_4* P({m_i, n_i}) over all index quadruples drawn
    from the terms, in ``product(terms, repeat=4)`` order.  A cross term
    P({m_i, n_i}) is P_coherent * sqrt(prod m_i! n_i!) times the coefficient
    of prod alpha_i^m_i beta_i^n_i, slots 2 and 4 being the conjugated
    factors; it vanishes whenever sum (m_i + n_i) is odd.  The largest
    quadruple repeats the term of largest m + n, so the cap is checked on
    4 max(m + n), and every coefficient is read in one call, from the cells
    the even cross terms depend on.
    """
    order = 4 * max(m + n for (m, n, _) in state.terms)
    if order > _CROSS_CAP:
        raise ResourceCapError(f"total order {order} exceeds the cross-term cap {_CROSS_CAP}")
    gen = build_M(sys)
    quadruples = list(product(state.terms, repeat=4))
    corners = [(m1, m2, m3, m4, n1, n2, n3, n4)
               for (m1, n1, _), (m2, n2, _), (m3, n3, _), (m4, n4, _) in quadruples]
    coeffs = taylor_coefficient(gen.Mmat, corners)

    total = 0j
    for ((_, _, c1), (_, _, c2), (_, _, c3), (_, _, c4)), orders, coeff in zip(
            quadruples, corners, coeffs):
        total += c1 * c2.conjugate() * c3 * c4.conjugate() * _cross_value(gen, coeff, orders)
    if not abs(total.imag) <= _SUPERPOSITION_IMAG_TOL:
        raise NumericalConsistencyError(
            f"superposition purity has imaginary residue {total.imag!r}"
        )
    return float(total.real)
