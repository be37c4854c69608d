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

The recurrence is linear in each generator's entries, so a stack of S
generators of one size fills S boxes side by side: the stack runs along
the last axis of every slab, each member by the same operations as its own
box, and the numpy calls per slab are those of one box.  Many small boxes
then cost the calls of one.  The 128 MiB budget counts the whole stack.

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


def _prepend_axis(inner: np.ndarray, row: np.ndarray, cap: int,
                  coupled: list[bool] | None = None) -> np.ndarray:
    """Box over variables (a, a+1, ...) from the box ``inner`` over (a+1, ...).

    ``row`` is M[a, a:].  For a stack, each entry holds the members' values
    along the last axis of ``inner``, and ``coupled[b]`` says whether
    M[a, a+1+b] is nonzero in some member; one generator's own entries say
    it.  Slab t_a = 0 is ``inner``; slab k + 1 follows from the recurrence
    at t_a = k, each coupling as slab k shifted one step along axis b.
    """
    out = np.zeros((cap + 1,) + inner.shape, inner.dtype)
    out[0] = inner
    shifts = []
    for b, q in enumerate(row[1:]):
        if (q != 0 if coupled is None else coupled[b]) and inner.shape[b] > 1:
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


def _checked(M, caps) -> tuple[np.ndarray, tuple[int, ...]]:
    """M as an array of one (d, d) generator or an (S, d, d) stack, and
    caps as d ints; ValueError otherwise."""
    caps = tuple(int(c) for c in caps)
    if any(c < 0 for c in caps):
        raise ValueError(f"caps must be nonnegative, got {caps}")
    M = np.asarray(M)
    dim = len(caps)
    if M.ndim not in (2, 3) or M.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {M.shape} does not match caps {caps}: "
                         f"expected ({dim}, {dim}) or (S, {dim}, {dim})")
    return M, caps


def exp_taylor_box(M: np.ndarray, caps) -> np.ndarray:
    """Taylor coefficients of exp(z^T M z) for every exponent <= caps.

    Parameters
    ----------
    M : (d, d) or (S, d, d) array
        Symmetric matrix, real or complex, or a stack of S of them.  Each
        member of a stack gets the box its own (d, d) call would give, cell
        for cell.
    caps : sequence of int
        Per-variable maximum exponents, shared by a stack.

    Returns
    -------
    ndarray of shape (caps[0]+1, ..., caps[d-1]+1), or (S, caps[0]+1, ...)
        ``out[t]`` (``out[s, t]`` for member s) is the coefficient of
        ``prod z_i ** t_i``.

    Raises
    ------
    ValueError
        When a cap is negative or M is not (d, d) or (S, d, d) for d caps.
    ResourceCapError
        When the box, over the whole stack, would exceed 128 MiB.
    """
    M, caps = _checked(M, caps)
    dtype = np.dtype(complex if np.iscomplexobj(M) else float)
    nbytes = math.prod(M.shape[:-2]) * math.prod(c + 1 for c in caps) * dtype.itemsize
    if nbytes > _BOX_BYTES_CAP:
        raise ResourceCapError(
            f"coefficient box at caps {caps} needs {nbytes / 2 ** 20:.0f} MiB, above the "
            f"{_BOX_BYTES_CAP / 2 ** 20:.0f} MiB budget; lower the quantum numbers or truncation"
        )

    if M.ndim == 2:
        rows, coupled, box = M, None, np.ones((), dtype)
    else:  # a stack: its members on the last axis, where every slab keeps them
        rows = np.ascontiguousarray(M.transpose(1, 2, 0))
        coupled = np.any(M != 0, axis=0).tolist()
        box = np.ones(M.shape[:1], dtype)
    for a in range(len(caps) - 1, -1, -1):
        box = _prepend_axis(box, rows[a, a:], caps[a],
                            None if coupled is None else coupled[a][a + 1:])
    return box if M.ndim == 2 else np.moveaxis(box, -1, 0)


def taylor_coefficient(M: np.ndarray, orders) -> complex:
    """Single mixed Taylor coefficient of exp(z^T M z) at the given orders.

    M is one (d, d) generator; a stack is refused with ValueError, as are
    orders that are negative or do not match M.
    """
    M, orders = _checked(M, orders)
    if M.ndim != 2:
        raise ValueError(f"taylor_coefficient takes one (d, d) matrix, got shape {M.shape}")
    if sum(orders) % 2 == 1:
        return 0.0
    return exp_taylor_box(M, orders)[orders]
