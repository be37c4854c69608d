"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the same checks back ``oscillent selftest``.
"""

import pytest

from oscillent import NumberState, OscillatorSystem
from oscillent.acceptance import CRITERIA, method_purity
from oscillent.errors import UnsupportedStateError


@pytest.mark.parametrize("num,title,func", CRITERIA,
                         ids=[f"criterion_{num:02d}" for (num, _, _) in CRITERIA])
def test_criterion(num, title, func):
    ok, detail = func()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {title} -- {detail}")
    assert ok, f"criterion {num} ({title}) failed: {detail}"


@pytest.mark.parametrize("method", ["exact", "analytic"])
def test_method_purity_refuses_an_unknown_state_kind(method):
    sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
    with pytest.raises(UnsupportedStateError):
        method_purity(sys, object(), method)


def test_analytic_refuses_an_unknown_state_kind_as_no_route():
    sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
    with pytest.raises(UnsupportedStateError, match="^no method route for object$"):
        method_purity(sys, object(), "analytic")


def test_analytic_refusal_names_no_command_line_flag():
    sys = OscillatorSystem.from_dimensionless(2.0, 0.4)
    with pytest.raises(UnsupportedStateError, match="^analytic closed forms") as err:
        method_purity(sys, NumberState(1, 1), "analytic")
    assert "--" not in str(err.value)
