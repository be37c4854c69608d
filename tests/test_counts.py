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
    pytest.param("m", lambda v: NumberState(v, 0), id="0-m"),
    pytest.param("n", lambda v: NumberState(0, v), id="1-n"),
    pytest.param("m", lambda v: Superposition(((v, 0, 1.0),)), id="2-m"),
    pytest.param("n", lambda v: Superposition(((0, v, 1.0),)), id="3-n"),
    pytest.param("m", lambda v: UnboundGaussian(v, 0.5), id="4-m"),
    pytest.param("m", lambda v: exact.purity_number(TRAPPED, v, 0), id="5-m"),
    pytest.param("n", lambda v: exact.purity_number(TRAPPED, 0, v), id="6-n"),
    pytest.param("m", lambda v: exact.purity_number_unbound(FREE, v, 0.5), id="7-m"),
    pytest.param("jmax", lambda v: fock.BasisParams(1.0, 1.0, v, 2), id="10-jmax"),
    pytest.param("kmax", lambda v: fock.BasisParams(1.0, 1.0, 2, v), id="11-kmax"),
    pytest.param("m", lambda v: fock.coefficient_table(TRAPPED, BASIS, v, 0).values,
                 id="12-m"),
    pytest.param("n", lambda v: fock.coefficient_table(TRAPPED, BASIS, 0, v).values,
                 id="13-n"),
    pytest.param("max_truncation",
                 lambda v: fock.convergence_run([TRAPPED], NumberState(0, 1), [(1.0, 1.0)], v),
                 id="14-max_truncation"),
    pytest.param("nmax", lambda v: grid.hermite_functions(np.linspace(-1.0, 1.0, 5), v),
                 id="15-nmax"),
]


@pytest.mark.parametrize("bad", [1.5, -1])
@pytest.mark.parametrize("name, site", SITES)
def test_a_count_that_is_not_a_nonnegative_integer_is_refused(name, site, bad):
    with pytest.raises(DomainError) as err:
        site(bad)
    assert str(err.value) == f"{name} must be a nonnegative integer, got {bad!r}"


@pytest.mark.parametrize("name, site", SITES)
def test_numpy_integers_are_counts(name, site):
    np.testing.assert_equal(site(np.int64(1)), site(1))


def test_a_normalized_count_is_a_python_int():
    basis = fock.BasisParams(1.0, 1.0, np.int64(2), np.int32(3))
    assert (type(basis.jmax), type(basis.kmax)) == (int, int)
