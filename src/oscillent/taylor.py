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

Coefficients are read from the cone of their corners, not from a box
(:func:`taylor_coefficient`).  Cell (s, rest) of the box over variables
(a, ...) depends on (s - 2, rest) and, for each coupling M_ab != 0, on
(s - 1, rest - e_b); slab 0 is the box over (a + 1, ...).  Walking these
dependencies back from the corners, level by level, gives the cells they
need: 7,168 for the (4,4,4,4,4,4,4,4) corner whose box has 390,625 (and
whose prepend recursion fills 488,280).  Several corners, such as the
even cross terms of a superposition, are walked back together from the
sorted array of their flat indices in the box at their elementwise
largest orders, so their cone is the union of theirs: 1,221 cells for
the 16 cross terms of |2,2> + |0,4> at mu1 = 0.3, whose box has 50,625.
Every cell of the cone is then computed by the operations the box
applies to it, in the same order: M_aa times its slab s - 2 cell (zero on
slab 1), plus each coupling times its shifted slab s - 1 cell in axis
order, times 2 / s.  The coupling pattern is read from M as the box reads it (M_ab != 0), so
the same shifts are skipped, and each even corner has the box's bits,
signed zeros included (an odd one reads 0.0, where the box may hold
-0.0).  The schedule, each level's cells as sorted flat indices with the
positions of their sources, depends only on the largest orders, the
corners and the coupling pattern; it is built once, with searchsorted and
no box-sized array, and cached under a lock, so readers in several
threads build it once.

A stack of generators is read over one schedule as a stack fills boxes
(:func:`taylor_coefficients`): its members are grouped by coupling
pattern, so each runs exactly its own operations, and each group's values
lie side by side on the last axis of the cone's cells, one numpy call per
step for the whole group.  A sweep of mu1 through 0.5, where build_M's s
entries vanish, is two groups.  99 |4,4> points read in about 11 ms
stacked against 44 ms one by one, 99 |4,2> points in 3 against 28 ms, and
two |4,4> points in the time of two single reads (2-vCPU x86-64).  The
128 MiB refusal is a single read's, and a stack's values take S times one
read's cone, no more: nothing cached grows with S.

The box itself (:func:`exp_taylor_box`) has one caller, the fock route,
which reads whole (j, k) planes and fills stacks of generators (fig7's
sixteen truncations), which a cone does not take.  Reading the plane of
|2,2> at fock's caps (2, 2, 40, 40) as 1,681 corners took 1.7 ms against
0.70 ms for the box, and at (2, 2, 170, 170) 23 ms against 4.3 ms: the
call's work per corner (converting it, keying the cache on it) costs
more than the cone saves, and the cone's forward pass alone (0.56 and
4.2 ms) is no faster than the box (2-vCPU x86-64, numpy 2.4).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ResourceCapError

__all__ = ["exp_taylor_box", "taylor_coefficient", "taylor_coefficients"]

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


def _budgeted_dtype(M: np.ndarray, caps: tuple[int, ...]) -> np.dtype:
    """The box's dtype; ResourceCapError when the box at ``caps``, over the
    whole stack, would exceed 128 MiB."""
    dtype = np.dtype(complex if np.iscomplexobj(M) else float)
    nbytes = math.prod(M.shape[:-2]) * math.prod(c + 1 for c in caps) * dtype.itemsize
    if nbytes > _BOX_BYTES_CAP:
        raise ResourceCapError(
            f"coefficient box at caps {caps} needs {nbytes / 2 ** 20:.0f} MiB, above the "
            f"{_BOX_BYTES_CAP / 2 ** 20:.0f} MiB budget; lower the quantum numbers or truncation"
        )
    return dtype


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
    dtype = _budgeted_dtype(M, caps)
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


def _sorted_union(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct entries of the arrays in ``parts`` (np.unique would
    import numpy.ma on its first call)."""
    cells = np.sort(np.concatenate(parts))
    return cells[np.concatenate(([True], cells[1:] != cells[:-1]))] if cells.size else cells


def _strides(caps: tuple[int, ...]) -> list[int]:
    """Flat-index strides of the C-ordered box at ``caps``."""
    return [math.prod(c + 1 for c in caps[i + 1:]) for i in range(len(caps))]


@functools.lru_cache(maxsize=64)
def _cone(caps: tuple[int, ...], corners: tuple[int, ...], coupled: bytes) -> tuple:
    """The schedule of the cells the corners depend on.

    ``corners`` are distinct flat indices, ascending, into the box at
    ``caps``; ``coupled`` is the bytes of M != 0, whose upper triangle,
    row by row, gives the couplings.  A cell of the box over (a, ...) has t_i = 0 for i < a, so
    every level shares the box's index space.  Returns (size, levels,
    targets): ``levels`` runs from the last variable to the first, each
    entry (a, slabs), each slab (lo, hi, scale, src_aa, shifts) with shifts
    a tuple of (b, src, missing).  Values live in one array of ``size``
    cells; cell 0 is the constant term, a slab fills positions lo:hi, and
    src_aa (None on slab 1) and src index that array.  src holds one source
    per cell of the slab, cell 0 standing in for the cells with t_b = 0,
    which the boolean ``missing`` marks (None where there are none).  Each
    level's cells follow every cell of the deeper levels, whose flat
    indices are all smaller, so the array stays sorted by flat index, and
    ``targets`` holds each corner's position in it.
    """
    dim = len(caps)
    stride = _strides(caps)
    mask = np.frombuffer(coupled, bool).reshape(dim, dim)
    couplings = [[b for b in range(a + 1, dim) if mask[a, b]] for a in range(dim)]

    # backwards: each level's slabs s >= 1 (rest indices, and for each
    # coupling b the cells with t_b >= 1 and their rest indices at t_b - 1),
    # and the cells of its slab 0, which are the next level's targets
    targets = np.array(corners, np.intp)
    needed = []
    for a in range(dim):
        R = stride[a]
        bounds = np.searchsorted(targets, np.arange(caps[a] + 2) * R)
        need = [[targets[bounds[s]:bounds[s + 1]] - s * R] for s in range(caps[a] + 1)]
        slabs = []
        for s in range(caps[a], 0, -1):
            cells = _sorted_union(need[s])
            if not cells.size:
                continue
            shifts = []
            for b in couplings[a]:
                has = cells // stride[b] % (caps[b] + 1) >= 1
                if has.any():
                    shifts.append((b, has, cells[has] - stride[b]))
            slabs.append((s, cells, shifts))
            if s >= 2:
                need[s - 2].append(cells)
            need[s - 1].extend(rest for _, _, rest in shifts)
        needed.append(slabs[::-1])
        targets = _sorted_union(need[0])

    # forwards: place each slab after every cell placed before it, and find
    # its sources by searchsorted within the slab they lie in
    placed = [np.zeros(1, np.intp)]
    size = 1
    levels = []

    def position(rest, k):
        first, known = start[k]
        return first + np.searchsorted(known, rest)

    for a in range(dim - 1, -1, -1):
        R = stride[a]
        start = {0: (0, np.concatenate(placed))}  # slab -> (first position, rest indices)
        slabs = []
        for s, cells, shifts in needed[a]:
            src_aa = position(cells, s - 2) if s >= 2 else None
            terms = []
            for b, has, rest in shifts:
                src = np.zeros(cells.size, np.intp)  # the constant term where t_b = 0
                src[has] = position(rest, s - 1)
                terms.append((b, src, None if has.all() else ~has))
            slabs.append((size, size + cells.size, 2.0 / s, src_aa, tuple(terms)))
            start[s] = (size, cells)
            placed.append(cells + s * R)
            size += cells.size
        levels.append((a, tuple(slabs)))
    return size, tuple(levels), np.searchsorted(np.concatenate(placed), corners)


_CONE_LOCK = threading.Lock()


def _cone_values(Ms: np.ndarray, caps: tuple[int, ...], corners: tuple[int, ...],
                 coupled: bytes, dtype: np.dtype) -> np.ndarray:
    """Coefficients of each generator of the (S, d, d) stack Ms, all of the
    coupling pattern ``coupled``, at ``corners``, distinct ascending flat
    indices into the box at ``caps``: an (S, K) array of the box's dtype,
    computed from their cone by the box's operations.

    Values live in a (cells, S) array, the members of a cell side by side,
    as in a stacked box; one member's in a flat array, its generator entries
    multiplying as scalars, as in its own box.  Each product takes the
    coupling before the cells and the cells before M_aa and the scale, as
    the box does (complex products differ in their last bits with the
    operands' order).  A coupling's term over the cells with t_b = 0 is set
    to a zero negative in every component before it is added, which leaves
    every value, signed zeros included, as the box, which adds nothing
    there, leaves it.
    """
    with _CONE_LOCK:
        size, levels, targets = _cone(caps, corners, coupled)
    stacked = len(Ms) > 1
    v = np.empty((size, len(Ms)) if stacked else size, dtype)
    # -(0+0j) is (-0-0j); a -0.0 stored in a complex array would be (-0+0j)
    nothing = -np.zeros((), dtype)
    v[0] = 1.0
    rows = Ms.transpose(1, 2, 0) if stacked else Ms[0]
    for a, slabs in levels:
        row = rows[a]
        for lo, hi, scale, src_aa, shifts in slabs:
            acc = v[lo:hi]
            if src_aa is None:
                acc[...] = 0.0
            else:
                np.multiply(v.take(src_aa, axis=0), row[a], out=acc)
            for b, src, missing in shifts:
                term = row[b] * v.take(src, axis=0)
                if missing is not None:
                    term[missing] = nothing
                acc += term
            acc *= scale
    values = v.take(targets, axis=0)
    return values.T if stacked else values[np.newaxis]


def _stack_values(Ms: np.ndarray, caps: tuple[int, ...], corners: tuple[int, ...]) -> np.ndarray:
    """:func:`_cone_values` of each member of the stack Ms, one pass per
    coupling pattern in order of first appearance; ResourceCapError first
    where one member's box at ``caps`` would exceed 128 MiB."""
    dtype = _budgeted_dtype(Ms[0], caps)
    patterns = {}
    for i, mask in enumerate(Ms != 0):
        patterns.setdefault(mask.tobytes(), []).append(i)
    if len(patterns) == 1:
        return _cone_values(Ms, caps, corners, next(iter(patterns)), dtype)
    values = np.empty((len(Ms), len(corners)), dtype)
    for coupled, members in patterns.items():
        values[members] = _cone_values(Ms[members], caps, corners, coupled, dtype)
    return values


def taylor_coefficient(M: np.ndarray, orders):
    """Mixed Taylor coefficients of exp(z^T M z) at one corner or several.

    ``orders`` is one corner, d ints, or a (K, d) sequence of K corners.
    The corners of even total order are read together, from the cells they
    depend on, by the operations of the box at their elementwise largest
    orders, so each equals ``exp_taylor_box(M, caps)[corner]`` bit for bit
    for any caps that cover it; a corner of odd total order gives 0.0.  One
    corner returns its coefficient, several an array of K coefficients.  M
    is one (d, d) generator; a stack is refused with ValueError (it is read
    by :func:`taylor_coefficients`), as are orders that are negative or do
    not match M.  Where the box at the even corners' largest orders would
    exceed 128 MiB, ResourceCapError is raised before anything is built.

    The domain is the exact route's: at most 8 orders per axis over 8
    variables, where a schedule builds in 2-8 ms.  Any orders under the
    budget are answered, but each slab costs Python steps to build and to
    run, so a first read along long axes is slow: a dense 2 x 2 M at
    (500, 500) took 43 ms, and its cached reads 6.6 ms against 7.8 ms for
    ``exp_taylor_box``; at (1500, 1500), 177 ms, then 25.8 against 27.7 ms
    (2-vCPU x86-64).  The cache holds at most 64 schedules,
    the least recently used dropped first, and a schedule keeps a few
    8-byte indices per cell of its cone: 15 MB at (1500, 1500), so 64 such
    would keep about 1 GB.
    """
    if np.ndim(M) != 2:
        raise ValueError(f"taylor_coefficient takes one (d, d) matrix, got shape {np.shape(M)}")
    value = taylor_coefficients(np.asarray(M)[np.newaxis], orders)[0]
    # one corner of odd total order gives the Python float 0.0
    return 0.0 if np.ndim(orders) == 1 and sum(orders) % 2 else value


def taylor_coefficients(Ms: np.ndarray, orders):
    """:func:`taylor_coefficient` of each generator of the (S, d, d) stack
    Ms, at one corner (an array of S coefficients) or at a (K, d) sequence
    of corners (an (S, K) array).

    Members are grouped by coupling pattern (M_ab != 0), and each group is
    read in one pass over its cone's schedule, its members side by side, so
    each member runs exactly its own single read's operations and has its
    bits, signed zeros included; a generator whose pattern no other member
    shares is read alone.  The 128 MiB refusal is a single read's: a stack
    is refused where each of its reads would be, and its values take S
    times one read's cone.  A (d, d) M, an empty stack, or orders that are
    negative or do not match the stack, raise ValueError.
    """
    corners = np.array(orders, np.intp)
    several = corners.ndim == 2
    # the elementwise smallest orders of several corners are checked for them
    Ms, caps = _checked(Ms, corners.min(axis=0) if several else corners.tolist())
    if Ms.ndim != 3 or not len(Ms):
        raise ValueError(f"taylor_coefficients takes an (S, d, d) stack of S >= 1 "
                         f"generators, got shape {Ms.shape}")
    if not several:
        # one corner skips the array work below, which costs more than a
        # small read: |1,0>'s took 57 us as a list of one, 31 us alone
        if sum(caps) % 2 == 1:
            return np.zeros(len(Ms), complex if np.iscomplexobj(Ms) else float)
        # the corner is the last cell of its box
        return _stack_values(Ms, caps, (math.prod(t + 1 for t in caps) - 1,))[:, 0]
    even = corners.sum(axis=1) % 2 == 0
    caps = tuple(corners[even].max(axis=0, initial=0).tolist())
    flats = corners @ np.array(_strides(caps), np.intp)
    keys = _sorted_union([flats[even]])
    values = _stack_values(Ms, caps, tuple(keys.tolist()))
    coeffs = np.zeros((len(Ms), len(corners)), values.dtype)
    coeffs[:, even] = values[:, np.searchsorted(keys, flats[even])]
    return coeffs
