"""Randomized checks of the Taylor kernel against an independent expansion."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillent import taylor
from oscillent.errors import ResourceCapError
from oscillent.taylor import exp_taylor_box, taylor_coefficient

# largest per-axis cap drawn for each number of variables, keeping the
# reference expansion below a few hundred thousand cell updates
_MAX_CAP = {1: 12, 4: 5, 8: 2}


def reference_box(M, caps):
    """exp(z^T M z) expanded order by order: sum_K (z^T M z)^K / K!, each
    power formed by multiplying the previous one by every monomial
    M_ab z_a z_b and dropping exponents beyond ``caps``."""
    dim = len(caps)
    shape = tuple(c + 1 for c in caps)
    term = np.zeros(shape, complex if np.iscomplexobj(M) else float)
    term[(0,) * dim] = 1.0
    total = term.copy()
    for K in range(1, sum(caps) // 2 + 1):
        new = np.zeros_like(term)
        for a in range(dim):
            for b in range(dim):
                deg = [0] * dim
                deg[a] += 1
                deg[b] += 1
                if any(deg[i] > caps[i] for i in range(dim)):
                    continue
                src = tuple(slice(0, shape[i] - deg[i]) for i in range(dim))
                dst = tuple(slice(deg[i], shape[i]) for i in range(dim))
                new[dst] += M[a, b] * term[src]
        term = new / K
        total += term
    return total


def random_symmetric(rng, dim, complex_):
    A = rng.normal(size=(dim, dim))
    if complex_:
        A = A + 1j * rng.normal(size=(dim, dim))
    return 0.3 * (A + A.T)


def odd_mask(shape):
    return np.add.reduce(np.indices(shape), axis=0) % 2 == 1


@st.composite
def kernel_cases(draw):
    dim = draw(st.sampled_from([1, 4, 8]))
    caps = tuple(draw(st.lists(st.integers(0, _MAX_CAP[dim]), min_size=dim, max_size=dim)))
    return dim, caps, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_box_matches_reference_expansion(case):
    dim, caps, complex_, seed = case
    M = random_symmetric(np.random.default_rng(seed), dim, complex_)
    box = exp_taylor_box(M, caps)
    ref = reference_box(M, caps)
    assert box.shape == tuple(c + 1 for c in caps)
    assert box.dtype == (complex if complex_ else float)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(box - ref)) <= 1e-13 * scale
    assert np.all(box[odd_mask(box.shape)] == 0)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("caps", [(0,), (0, 0, 0, 0), (3, 0, 2, 0),
                                  (0, 0, 0, 0, 2, 2, 2, 2), (2, 0, 1, 0, 0, 1, 0, 2)])
def test_zero_caps(caps, complex_):
    rng = np.random.default_rng(len(caps) + sum(caps))
    M = random_symmetric(rng, len(caps), complex_)
    box = exp_taylor_box(M, caps)
    ref = reference_box(M, caps)
    assert box[(0,) * len(caps)] == 1.0
    assert np.max(np.abs(box - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(box[odd_mask(box.shape)] == 0)


def test_coefficient_independent_of_box():
    # every cell is computed by the same operations whatever the caps, so a
    # coefficient read from a larger box is the same number
    rng = np.random.default_rng(3)
    M = random_symmetric(rng, 8, False)
    big = exp_taylor_box(M, (3, 2, 3, 2, 1, 2, 0, 3))
    for orders in [(1, 1, 1, 1, 0, 0, 0, 0), (3, 0, 1, 2, 1, 1, 0, 2),
                   (0, 0, 0, 0, 0, 0, 0, 0), (2, 2, 2, 2, 0, 0, 0, 0)]:
        assert taylor_coefficient(M, orders) == big[orders]


def test_rejects_bad_caps():
    M = np.eye(2)
    with pytest.raises(ValueError):
        exp_taylor_box(M, (1, -1))
    with pytest.raises(ValueError):
        exp_taylor_box(M, (1, 1, 1))


@pytest.mark.parametrize("complex_, caps", [
    (False, (8,) * 8),                 # 9^8 = 43M cells, 344 MB
    (True, (3,) * 12),                 # 4^12 = 16.8M cells, 268 MB complex
    (False, (4096, 4095, 0, 0)),       # 2^24 + 2^12 cells, just over 128 MiB
])
def test_box_above_memory_budget_raises_before_allocating(complex_, caps):
    M = 0.1 * np.eye(len(caps)) * (1j if complex_ else 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="MiB budget"):
            exp_taylor_box(M, caps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_diagonal_form_factorizes():
    # exp(sum_a d_a z_a^2) = prod_a exp(d_a z_a^2)
    d = np.array([0.4, -0.7, 1.1, 0.25])
    box = exp_taylor_box(np.diag(d), (4, 4, 4, 4))
    for t in itertools.product(range(5), repeat=4):
        expect = 0.0
        if all(ti % 2 == 0 for ti in t):
            expect = math.prod(d[a] ** (t[a] // 2) / math.factorial(t[a] // 2)
                               for a in range(4))
        assert box[t] == pytest.approx(expect, rel=1e-14, abs=1e-300)


def random_stack(seed, members, dim, complex_):
    rng = np.random.default_rng(seed)
    return np.stack([random_symmetric(rng, dim, complex_) for _ in range(members)])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("caps", [(2, 0, 5, 7), (1, 1, 12, 12), (0, 0, 0, 3),
                                  (2, 1, 0, 2, 1, 2, 2, 0), (2,) * 8])
def test_each_stack_member_is_its_own_box_bit_for_bit(caps, complex_):
    Ms = random_stack(len(caps) + sum(caps), 5, len(caps), complex_)
    box = exp_taylor_box(Ms, caps)
    assert box.shape == (5,) + tuple(c + 1 for c in caps)
    assert box.dtype == (complex if complex_ else float)
    for M, member in zip(Ms, box):
        assert member.tobytes() == exp_taylor_box(M, caps).tobytes()


def test_a_coupling_zero_in_one_member_only():
    # the stack takes the coupling for every member, so the member where it
    # is zero adds 0 times a slab: the same numbers, though a zero cell may
    # change sign
    Ms = random_stack(11, 3, 4, False)
    Ms[1, 0, 2] = Ms[1, 2, 0] = 0.0
    Ms[2, 1, 3] = Ms[2, 3, 1] = 0.0
    caps = (2, 3, 6, 5)
    box = exp_taylor_box(Ms, caps)
    for M, member in zip(Ms, box):
        assert np.array_equal(member, exp_taylor_box(M, caps))


def test_a_coupling_zero_in_every_member_is_skipped_bit_for_bit():
    Ms = random_stack(12, 4, 4, True)
    Ms[:, 0, 3] = Ms[:, 3, 0] = 0.0
    Ms[:, 1, 2] = Ms[:, 2, 1] = 0.0
    box = exp_taylor_box(Ms, (3, 2, 4, 4))
    for M, member in zip(Ms, box):
        assert member.tobytes() == exp_taylor_box(M, (3, 2, 4, 4)).tobytes()


def test_a_stack_of_one_is_the_unstacked_box():
    M = random_symmetric(np.random.default_rng(13), 8, False)
    caps = (1, 2, 0, 1, 2, 1, 1, 2)
    single = exp_taylor_box(M, caps)
    stacked = exp_taylor_box(M[np.newaxis], caps)
    assert stacked.shape == (1,) + single.shape
    assert stacked[0].tobytes() == single.tobytes()


@pytest.mark.parametrize("shape, caps", [
    ((4, 4), (1, 1, 1)),            # one generator of the wrong size
    ((3, 3, 3), (1, 1, 1, 1)),      # a stack of the wrong size
    ((2, 4, 3), (1, 1, 1)),         # not square
    ((2, 2, 3, 3), (1, 1, 1)),      # more axes than a stack
    ((3,), (1, 1, 1)),
])
def test_rejects_a_matrix_that_is_not_one_generator_or_a_stack_for_the_caps(shape, caps):
    with pytest.raises(ValueError, match="does not match caps"):
        exp_taylor_box(np.zeros(shape), caps)


def test_stack_above_memory_budget_raises_before_allocating():
    # one member, 64^3 * 2 cells of 8 bytes, takes 4 MiB; 33 of them take 132
    caps = (63, 63, 63, 1)
    M = 0.1 * np.eye(4)
    exp_taylor_box(M, caps)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="132 MiB"):
            exp_taylor_box(np.stack([M] * 33), caps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("M, orders", [
    (np.eye(3), (1, 0)),            # odd order, too few variables
    (np.eye(2), (-1, 0)),           # odd order, negative
    (np.eye(2), (2, -1)),
    (np.stack([np.eye(2)] * 2), (1, 1)),   # a stack
    (np.stack([np.eye(2)] * 2), (1, 0)),
    (np.eye(2), [(1, 1), (2, -1)]),       # one corner of several negative
    (np.eye(2), [(1, 1), (1, 1, 0)]),     # corners of different lengths
    (np.eye(3), [(1, 1), (0, 2)]),        # corners that do not match M
    (np.stack([np.eye(2)] * 2), [(1, 1), (0, 2)]),
])
def test_coefficient_checks_its_input_before_answering(M, orders):
    with pytest.raises(ValueError):
        taylor_coefficient(M, orders)


# largest per-axis order drawn for a corner read, keeping its box below a
# few hundred thousand cells
_CORNER_MAX = {1: 12, 2: 10, 3: 7, 4: 6, 5: 4, 6: 3, 7: 3, 8: 3}


@st.composite
def corner_cases(draw):
    dim = draw(st.integers(1, 8))
    orders = tuple(draw(st.lists(st.integers(0, _CORNER_MAX[dim]), min_size=dim, max_size=dim)))
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    # each entry nonzero, +0.0 or -0.0, so couplings vanish in random patterns
    kinds = draw(st.lists(st.sampled_from(["x", "x", "+0", "-0"]),
                          min_size=len(pairs), max_size=len(pairs)))
    return dim, orders, pairs, kinds, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


def same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def patterned(dim, pairs, kinds, complex_, seed):
    """A random symmetric generator with entries over six decades, each
    pair (a, b) zeroed as ``kinds`` says."""
    M = random_symmetric(np.random.default_rng(seed), dim, complex_)
    M *= 10.0 ** np.random.default_rng(seed + 1).uniform(-3, 3, size=(dim, dim))
    for (a, b), kind in zip(pairs, kinds):
        if kind != "x":
            M[a, b] = M[b, a] = 0.0 if kind == "+0" else -0.0
    return M


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corner_cases())
def test_corner_read_has_the_bits_of_the_box(case):
    dim, orders, pairs, kinds, complex_, seed = case
    M = patterned(dim, pairs, kinds, complex_, seed)
    coeff = taylor_coefficient(M, orders)
    if sum(orders) % 2:
        assert coeff == 0.0 and exp_taylor_box(M, orders)[orders] == 0
    else:
        assert same_bits(coeff, exp_taylor_box(M, orders)[orders])


@st.composite
def several_corner_cases(draw):
    dim, _, pairs, kinds, complex_, seed = draw(corner_cases())
    corner = st.tuples(*[st.integers(0, _CORNER_MAX[dim])] * dim)
    corners = draw(st.lists(corner, min_size=1, max_size=5))
    # the first corner again, and a neighbour of it of the other parity
    first = corners[0]
    step = -1 if first[0] else 1
    return dim, corners + [first, (first[0] + step,) + first[1:]], pairs, kinds, complex_, seed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(several_corner_cases())
def test_several_corners_read_together_have_the_bits_of_the_box(case):
    dim, corners, pairs, kinds, complex_, seed = case
    M = patterned(dim, pairs, kinds, complex_, seed)
    coeffs = taylor_coefficient(M, corners)
    box = exp_taylor_box(M, tuple(map(max, zip(*corners))))
    assert coeffs.shape == (len(corners),)
    for corner, coeff in zip(corners, coeffs):
        if sum(corner) % 2:
            assert coeff == 0.0 and box[corner] == 0
        else:
            assert same_bits(coeff, box[corner])
            assert same_bits(coeff, taylor_coefficient(M, corner))


def test_several_corners_of_the_superposition_generator():
    # a complex generator, and a real one with zero couplings (build_M's s
    # entries at mu1 = 0.5), read at odd, repeated and unequal corners
    rng = np.random.default_rng(23)
    sparse = random_symmetric(rng, 8, False)
    zero = np.zeros((8, 8), bool)
    zero[:4, 4:] = rng.random((4, 4)) < 0.5
    sparse[zero | zero.T] = 0.0
    corners = [(2, 2, 0, 0, 2, 4, 2, 4), (0, 1, 2, 0, 4, 2, 0, 0), (1, 0, 0, 0, 2, 2, 2, 2),
               (2, 2, 0, 0, 2, 4, 2, 4), (0, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 1)]
    for M in (random_symmetric(rng, 8, True), sparse):
        box = exp_taylor_box(M, (2, 2, 2, 1, 4, 4, 2, 4))
        coeffs = taylor_coefficient(M, corners)
        assert coeffs[2] == 0.0 and same_bits(coeffs[0], coeffs[3])
        for corner, coeff in zip(corners, coeffs):
            if sum(corner) % 2 == 0:
                assert same_bits(coeff, box[corner])


def test_corner_read_of_the_constant_term():
    for M in (np.zeros((0, 0)), np.zeros((3, 3)), 0.5j * np.eye(2)):
        orders = (0,) * len(M)
        assert same_bits(taylor_coefficient(M, orders), exp_taylor_box(M, orders)[orders])


def test_orders_with_another_zero_pattern_get_their_own_schedule():
    # the second generator couples a pair the first does not; a schedule
    # shared between them would skip its shift
    rng = np.random.default_rng(21)
    orders = (2, 3, 1, 2)
    sparse = random_symmetric(rng, 4, False)
    sparse[0, 2] = sparse[2, 0] = sparse[1, 3] = sparse[3, 1] = 0.0
    dense = random_symmetric(rng, 4, False)
    for M in (sparse, dense, sparse):
        assert same_bits(taylor_coefficient(M, orders), exp_taylor_box(M, orders)[orders])


@pytest.mark.parametrize("complex_, orders", [
    (False, (8,) * 8),                 # 9^8 = 43M cells, 344 MB
    (True, (3,) * 12),                 # 4^12 = 16.8M cells, 268 MB complex
    (False, (4096, 4096, 0, 0)),       # 4097^2 cells, just over 128 MiB
    # each corner's own box is small; the box at their largest orders is not
    (False, [(4096, 0, 0, 0), (0, 4096, 0, 0), (1, 0, 0, 0)]),
])
def test_corner_read_refuses_where_the_box_does_before_building(complex_, orders):
    M = 0.1 * np.eye(np.shape(orders)[-1]) * (1j if complex_ else 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="MiB budget"):
            taylor_coefficient(M, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_concurrent_reads_build_one_schedule():
    # more threads than cores, switching often, all asking for a schedule
    # that is not yet cached: it is built once and every read has its bits
    M = random_symmetric(np.random.default_rng(22), 8, True)
    orders = (3, 1, 2, 2, 1, 3, 2, 2)
    expect = exp_taylor_box(M, orders)[orders]
    taylor._cone.cache_clear()
    start = threading.Barrier(6)
    got = []

    def read():
        start.wait(timeout=30)
        got.append(taylor_coefficient(M, orders))

    threads = [threading.Thread(target=read) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6 and all(same_bits(c, expect) for c in got)
    assert taylor._cone.cache_info().misses == 1


@pytest.mark.parametrize("seed", range(40))
def test_each_stack_member_reads_its_single_bits(seed):
    # members of a few coupling patterns, interleaved, real or complex, read
    # at one corner or at several; each member's read has its single read's
    # bits and the box's, signed zeros included
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    complex_ = bool(seed % 2)
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    patterns = [[rng.choice(["x", "x", "+0", "-0"]) for _ in pairs]
                for _ in range(int(rng.integers(1, 4)))]
    members = int(rng.integers(1, 7))
    Ms = np.stack([patterned(dim, pairs, patterns[k % len(patterns)], complex_, seed * 10 + k)
                   for k in range(members)])
    top = _CORNER_MAX[dim]
    if seed % 3:
        orders = tuple(int(t) for t in rng.integers(0, top + 1, dim))
        got = taylor.taylor_coefficients(Ms, orders)
        assert got.shape == (members,) and got.dtype == Ms.dtype
        for M, coeff in zip(Ms, got):
            if sum(orders) % 2:  # a single read gives the Python float 0.0
                assert coeff == 0 and same_bits(taylor_coefficient(M, orders), 0.0)
            else:
                assert same_bits(coeff, taylor_coefficient(M, orders))
                assert same_bits(coeff, exp_taylor_box(M, orders)[orders])
    else:
        corners = [tuple(int(t) for t in rng.integers(0, top + 1, dim)) for _ in range(4)]
        got = taylor.taylor_coefficients(Ms, corners)
        assert got.shape == (members, len(corners))
        for M, coeffs in zip(Ms, got):
            assert coeffs.tobytes() == taylor_coefficient(M, corners).tobytes()


def test_stacked_read_of_one_cell_wide_slabs():
    # slabs of one cell, where numpy multiplies complex values in place by
    # another loop than out of place
    M = patterned(3, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)], ["x"] * 6, True,
                  12742428)
    for orders in [(3, 0, 1), (2, 1, 1), (1, 0, 1)]:
        stacked = taylor.taylor_coefficients(np.stack([M, 2 * M]), orders)
        for member, coeff in zip((M, 2 * M), stacked):
            box = exp_taylor_box(member, orders)[orders]
            assert same_bits(coeff, box) or sum(orders) % 2


def test_a_stack_is_refused_where_each_single_read_would_be():
    # 99 members each under the budget are read; a member over it refuses
    # the stack before anything is built
    M = 0.1 * np.eye(8)
    assert taylor.taylor_coefficients(np.stack([M] * 99), (4,) * 8).shape == (99,)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="MiB budget"):
            taylor.taylor_coefficients(np.stack([M] * 2), (8,) * 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("Ms, orders", [
    (np.eye(2), (1, 1)),                      # one generator, not a stack
    (np.zeros((0, 2, 2)), (1, 1)),            # an empty stack
    (np.zeros((0, 2, 2)), [(1, 1), (2, 0)]),
    (np.stack([np.eye(2)] * 2), (1, 1, 0)),   # orders that do not match
    (np.stack([np.eye(2)] * 2), (2, -1)),
    (np.stack([np.eye(2)] * 2), [(1, 1), (2, -1)]),
])
def test_stacked_read_checks_its_input(Ms, orders):
    with pytest.raises(ValueError):
        taylor.taylor_coefficients(Ms, orders)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_other_generator_dtypes_read_as_the_box(dtype):
    # a generator of ints or of float32 is read in the box's dtype, float64
    M = np.array([[2, -1, 0], [-1, 3, 1], [0, 1, -2]], dtype)
    for orders in [(2, 2, 2), (3, 1, 0), (1, 0, 0)]:
        box = exp_taylor_box(M, orders)[orders]
        assert same_bits(taylor_coefficient(M, orders), box if sum(orders) % 2 == 0 else 0.0)
        stacked = taylor.taylor_coefficients(np.stack([M, 2 * M]), orders)
        assert stacked.dtype == np.float64
        for member, coeff in zip((M, 2 * M), stacked):
            assert same_bits(coeff, exp_taylor_box(member, orders)[orders])
    corners = [(2, 2, 2), (3, 1, 0), (0, 2, 0)]
    box = exp_taylor_box(M, (3, 2, 2))
    assert taylor_coefficient(M, corners).tobytes() == np.array([box[c] for c in corners]).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_complex_generators_with_zero_imaginary_parts(seed):
    # real entries held as complex with imaginary parts of +0.0 or -0.0, as
    # a packet's generator at tau = 0 has: every even cell of a stacked read
    # keeps the box's signed zeros
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    caps = tuple(int(t) for t in rng.integers(1, 5, dim))
    Ms = np.empty((3, dim, dim), complex)
    for M in Ms:
        re = rng.choice([-2.0, -1.0, 0.5, 1.0], size=(dim, dim))
        im = rng.choice([0.0, -0.0], size=(dim, dim))
        re[rng.random((dim, dim)) < 0.4] = 0.0
        lower = np.tril_indices(dim, -1)
        re[lower], im[lower] = re.T[lower], im.T[lower]
        M.real, M.imag = re, im
    corners = [c for c in itertools.product(*(range(t + 1) for t in caps)) if sum(c) % 2 == 0]
    for M, coeffs in zip(Ms, taylor.taylor_coefficients(Ms, corners)):
        box = exp_taylor_box(M, caps)
        assert coeffs.tobytes() == np.array([box[c] for c in corners]).tobytes()
