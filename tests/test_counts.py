"""Every count the package takes (quantum numbers, truncations, orders) is
checked by one rule: a nonnegative integer, a numpy integer included, or a
DomainError that names the quantity."""

import numpy as np
import pytest

from oscillent import (DomainError, NumberState, OscillatorSystem, Superposition,
                       UnboundGaussian, exact, fock, grid)

TRAPPED = OscillatorSystem.from_dimensionless(1.7, 0.37)
FREE = OscillatorSystem.from_untrapped(0.37, c=2.0)
BASIS = fock.default_basis(TRAPPED, jmax=3)

# (quantity, entry point taking the count); each is valid at count 1
SITES = [
    ("m", lambda v: NumberState(v, 0)),
    ("n", lambda v: NumberState(0, v)),
    ("m", lambda v: Superposition(((v, 0, 1.0),))),
    ("n", lambda v: Superposition(((0, v, 1.0),))),
    ("m", lambda v: UnboundGaussian(v, 0.5)),
    ("m", lambda v: exact.purity_number(TRAPPED, v, 0)),
    ("n", lambda v: exact.purity_number(TRAPPED, 0, v)),
    ("m", lambda v: exact.purity_number_unbound(FREE, v, 0.5)),
    ("m", lambda v: exact.purity_cross(TRAPPED, [(v, 0)] + [(1, 0)] * 3)),
    ("n", lambda v: exact.purity_cross(TRAPPED, [(0, v)] + [(0, 1)] * 3)),
    ("jmax", lambda v: fock.BasisParams(1.0, 1.0, v, 2)),
    ("kmax", lambda v: fock.BasisParams(1.0, 1.0, 2, v)),
    ("m", lambda v: fock.coefficient_table(TRAPPED, BASIS, v, 0).values),
    ("n", lambda v: fock.coefficient_table(TRAPPED, BASIS, 0, v).values),
    ("max_truncation",
     lambda v: fock.convergence_run(TRAPPED, NumberState(0, 1), [(1.0, 1.0)], v)),
    ("nmax", lambda v: grid.hermite_functions(np.linspace(-1.0, 1.0, 5), v)),
]
IDS = [f"{i}-{name}" for i, (name, _) in enumerate(SITES)]


@pytest.mark.parametrize("bad", [1.5, -1])
@pytest.mark.parametrize("name, site", SITES, ids=IDS)
def test_a_count_that_is_not_a_nonnegative_integer_is_refused(name, site, bad):
    with pytest.raises(DomainError) as err:
        site(bad)
    assert str(err.value) == f"{name} must be a nonnegative integer, got {bad!r}"


@pytest.mark.parametrize("name, site", SITES, ids=IDS)
def test_numpy_integers_are_counts(name, site):
    np.testing.assert_equal(site(np.int64(1)), site(1))


def test_a_fractional_cross_term_order_is_not_truncated():
    # 1.5 used to be read as 1, which gave the (1, 0) cross term
    with pytest.raises(DomainError, match="^m must be a nonnegative integer, got 1.5$"):
        exact.purity_cross(TRAPPED, [(1.5, 0)] + [(1, 0)] * 3)


def test_a_normalized_count_is_a_python_int():
    basis = fock.BasisParams(1.0, 1.0, np.int64(2), np.int32(3))
    assert (type(basis.jmax), type(basis.kmax)) == (int, int)
