"""Taylor-coefficient extraction for exponentials of quadratic forms.

Every purity and basis-transform coefficient in this package is a mixed
Taylor coefficient of ``exp(z^T M z)`` for a small symmetric matrix M.
Differentiating the exponential once gives d/dz_a f = 2 (M z)_a f, which in
coefficients is the recurrence

    (t_a + 1) c[t + e_a] = 2 sum_b M_ab c[t - e_b]

(entries with a negative index are zero).  This is the Fock-amplitude
recurrence of Miatto & Quesada, Quantum 4, 366 (2020).  The box of all
coefficients with exponents up to caps (c_1, ..., c_d) is filled along axis
0 one slab t_0 = k at a time: slab 0 is the box of the trailing (d-1)-variable
block, built the same way, and slab k + 1 is 2 / (k + 1) times M_00 times
slab k - 1 plus one shifted copy of slab k per coupling M_0b.  Each cell
costs at most d multiply-adds, so a box costs O(d * prod(c_i + 1)) time and
one box of memory, ``prod(c_i + 1)`` coefficients of 8 bytes (16 for a
complex M), plus two slabs of scratch.  A box above 128 MiB raises
ResourceCapError before anything is allocated.

Because the form is purely quadratic the series has only even total degrees;
the coefficient of any odd-degree monomial is exactly zero.  Each cell is
computed from cells of smaller exponents only, by the same operations
whatever the caps, so a coefficient does not depend on the box it is read
from.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceCapError

__all__ = ["exp_taylor_box", "taylor_coefficient"]

_BOX_BYTES_CAP = 2 ** 27  # 128 MiB: 16.7M real or 8.4M complex coefficients


def _prepend_axis(inner: np.ndarray, row: np.ndarray, cap: int) -> np.ndarray:
    """Box over variables (a, a+1, ...) from the box ``inner`` over (a+1, ...).

    ``row`` is M[a, a:].  Slab t_a = 0 is ``inner``; slab k + 1 follows from
    the recurrence at t_a = k, each M_ab (b > a) as slab k shifted one step
    along axis b.
    """
    out = np.zeros((cap + 1,) + inner.shape, inner.dtype)
    out[0] = inner
    shifts = []
    for b, q in enumerate(row[1:]):
        if q != 0 and inner.shape[b] > 1:
            lead = (slice(None),) * b
            shifts.append((lead + (slice(1, None),), lead + (slice(None, -1),), q))
    for k in range(cap):
        nxt = out[k + 1, ...]  # a view even when the slab is 0-d
        if k:
            np.multiply(out[k - 1], row[0], out=nxt)
        for dst, src, q in shifts:
            nxt[dst] += q * out[k][src]
        nxt *= 2.0 / (k + 1)
    return out


def exp_taylor_box(M: np.ndarray, caps) -> np.ndarray:
    """Taylor coefficients of exp(z^T M z) for every exponent <= caps.

    Parameters
    ----------
    M : (d, d) array
        Symmetric matrix, real or complex.
    caps : sequence of int
        Per-variable maximum exponents.

    Returns
    -------
    ndarray of shape (caps[0]+1, ..., caps[d-1]+1)
        ``out[t]`` is the coefficient of ``prod z_i ** t_i``.

    Raises
    ------
    ResourceCapError
        When the box would exceed 128 MiB.
    """
    caps = tuple(int(c) for c in caps)
    if any(c < 0 for c in caps):
        raise ValueError(f"caps must be nonnegative, got {caps}")
    M = np.asarray(M)
    dim = M.shape[0]
    if M.shape != (dim, dim) or dim != len(caps):
        raise ValueError(f"matrix shape {M.shape} does not match caps {caps}")
    dtype = np.dtype(complex if np.iscomplexobj(M) else float)
    nbytes = math.prod(c + 1 for c in caps) * dtype.itemsize
    if nbytes > _BOX_BYTES_CAP:
        raise ResourceCapError(
            f"coefficient box at caps {caps} needs {nbytes / 2 ** 20:.0f} MiB, above the "
            f"{_BOX_BYTES_CAP / 2 ** 20:.0f} MiB budget; lower the quantum numbers or truncation"
        )

    box = np.ones((), dtype)
    for a in range(dim - 1, -1, -1):
        box = _prepend_axis(box, M[a, a:], caps[a])
    return box


def taylor_coefficient(M: np.ndarray, orders) -> complex:
    """Single mixed Taylor coefficient of exp(z^T M z) at the given orders."""
    orders = tuple(int(t) for t in orders)
    if sum(orders) % 2 == 1:
        return 0.0
    return exp_taylor_box(M, orders)[orders]
