"""Output checks: every value is compared against a route other than the one
that produced it.

* exact values: closed forms where they exist; otherwise the fock route at a
  converged truncation (number states, superpositions) or the grid oracle
  (the spreading packet with m >= 1, which fock does not cover);
* oracle values: the closed-form or exact value, within 1e-6;
* fock values: |P - P_exact| <= 4 sqrt(d) + 2 d + 1e-10 with d = 1 - tr(rho)
  the completeness defect at the command's own truncation.

Every value must also be finite and lie in (0, 1].  A command fails if it
raises, exits non-zero, or emits a value that fails its check.  Figures are
checked in full against closed forms and on a seeded sample of rows against
the fock route, which keeps the reference cost per run bounded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from oscillent import acceptance, exact, fock, grid
from oscillent.errors import OscillentError
from oscillent.system import (Coherent, NumberState, OscillatorSystem,
                              Superposition, UnboundGaussian)

__all__ = ["Outcome", "Verdict", "check", "fock_bound", "in_known_defect", "ORACLE_TOL"]

ORACLE_TOL = 1e-6
CLOSED_TOL = 1e-10
FIGURE_SAMPLE_ROWS = 6

_FIG6_THETA = {"0": 0.0, "pi_6": math.pi / 6, "pi_3": math.pi / 3}


@dataclass
class Outcome:
    """What one command did: exit code, captured output, raised exception."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class Verdict:
    ok: bool
    results: int = 0
    reason: str = ""
    known_defect: bool = False


class CheckFailure(Exception):
    """A value failed its check; the message names the value and the bound."""


def fock_bound(d: float) -> float:
    """Largest |P_trunc - P| allowed at completeness defect d."""
    d = abs(d)
    return 4.0 * math.sqrt(d) + 2.0 * d + 1e-10


def in_known_defect(method: str, g, mu1) -> bool:
    """The 512^2 and 1024^2 grid oracle at this commit cannot resolve g < 1
    with a mass fraction within 0.05 of 0 or 1: its window is too narrow, so
    it exits 2 or misses the exact value (the measured table is in README.md).
    Failures there are counted; they do not mark the run incorrect.
    """
    return (method == "oracle" and g is not None and g < 1.0
            and mu1 is not None and min(mu1, 1.0 - mu1) <= 0.05)


# ----------------------------------------------------------------------
# inputs rebuilt from a command spec
# ----------------------------------------------------------------------


def make_state(state, value=None, param=None):
    kind = state[0]
    if param == "theta":
        return Superposition.two_mode_mix(value)
    if kind == "number":
        return NumberState(state[1], state[2])
    if kind == "sup":
        return Superposition.two_mode_mix(state[1])
    if kind == "unbound":
        return UnboundGaussian(state[1], value if param == "tau" else state[2])
    raise ValueError(f"unknown state kind {kind!r}")


def make_system(spec: dict, value=None):
    param = spec.get("param")
    if "c" in spec:
        mu1 = value if param == "mu1" else spec["mu1"]
        return OscillatorSystem.from_untrapped(mu1, c=spec["c"])
    g = value if param == "g" else spec["g"]
    mu1 = value if param == "mu1" else spec["mu1"]
    return OscillatorSystem.from_dimensionless(g, mu1)


def sweep_values(spec: dict) -> np.ndarray:
    if spec["scale"] == "log":
        return np.geomspace(spec["start"], spec["stop"], spec["count"])
    return np.linspace(spec["start"], spec["stop"], spec["count"])


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _p00(sys) -> float:
    g2, G2 = sys.gamma ** 2, sys.Gamma ** 2
    return sys.gamma * sys.Gamma / math.sqrt((g2 + G2 * sys.mu1 ** 2) * (g2 + G2 * sys.mu2 ** 2))


def _p01(sys) -> float:
    g2, G2 = sys.gamma ** 2, sys.Gamma ** 2
    a, b = sys.mu1 ** 2, sys.mu2 ** 2
    num = (3 * g2 ** 4 + 4 * g2 ** 3 * G2 * (a + b)
           + 2 * g2 ** 2 * G2 ** 2 * (2 * a ** 2 + a * b + 2 * b ** 2)
           + 4 * g2 * G2 ** 3 * a * b * (a + b) + 3 * G2 ** 4 * a ** 2 * b ** 2)
    return sys.gamma * sys.Gamma * num / (4 * ((g2 + a * G2) * (g2 + b * G2)) ** 2.5)


def _p11(sys) -> float:
    g2, G2 = sys.gamma ** 2, sys.Gamma ** 2
    a, b = sys.mu1 ** 2, sys.mu2 ** 2
    num = (9 * g2 ** 8 + 16 * g2 ** 7 * G2 * (a + b)
           + 12 * g2 ** 6 * G2 ** 2 * (8 * a ** 2 - 3 * a * b + 8 * b ** 2)
           + 240 * g2 ** 5 * G2 ** 3 * a * b * (a + b)
           + 2 * g2 ** 4 * G2 ** 4 * (8 * a ** 4 - 64 * a ** 3 * b + 459 * a ** 2 * b ** 2
                                      - 64 * a * b ** 3 + 8 * b ** 4)
           + 240 * g2 ** 3 * G2 ** 5 * a ** 2 * b ** 2 * (a + b)
           + 12 * g2 ** 2 * G2 ** 6 * a ** 2 * b ** 2 * (8 * a ** 2 - 3 * a * b + 8 * b ** 2)
           + 16 * g2 * G2 ** 7 * a ** 3 * b ** 3 * (a + b) + 9 * G2 ** 8 * a ** 4 * b ** 4)
    return sys.gamma * sys.Gamma * num / (16 * ((g2 + a * G2) * (g2 + b * G2)) ** 4.5)


def closed_form(sys, state) -> float | None:
    """Closed-form purity, or None where the state has none."""
    if isinstance(state, Coherent):
        return _p00(sys)
    if isinstance(state, NumberState):
        return {(0, 0): _p00, (0, 1): _p01, (1, 0): _p01, (1, 1): _p11}.get(
            (state.m, state.n), lambda s: None)(sys)
    if isinstance(state, UnboundGaussian) and state.m == 0:
        g2, G2 = sys.gamma ** 2, sys.Gamma ** 2
        under = (g2 + G2 * sys.mu1 ** 2) * (g2 + G2 * sys.mu2 ** 2)
        return sys.gamma * sys.Gamma / math.sqrt(under + g2 * g2 * state.tau ** 2)
    return None


def fock_coefficients(sys, state, basis) -> np.ndarray:
    """{j, k | state> amplitudes at the basis truncation."""
    if isinstance(state, NumberState):
        return fock.coefficient_table(sys, basis, state.m, state.n).values
    C = np.zeros((basis.jmax + 1, basis.kmax + 1), dtype=complex)
    for (m, n, cf) in state.terms:
        C += cf * fock.coefficient_table(sys, basis, m, n).values
    return C


def _fock_purity(C: np.ndarray) -> tuple[float, float]:
    """(truncated purity, completeness defect) of an amplitude matrix."""
    rho = C @ C.conj().T
    return float(np.sum(np.abs(rho) ** 2)), 1.0 - float(np.sum(np.abs(C) ** 2))


def fock_reference(sys, state) -> tuple[float, float]:
    """Fock purity at the first of jmax 24, 40, 60 whose defect is below
    1e-13, and the tolerance that defect allows."""
    for jmax in (24, 40, 60):
        P, d = _fock_purity(fock_coefficients(sys, state, fock.default_basis(sys, jmax=jmax)))
        if abs(d) < 1e-13:
            break
    return P, fock_bound(d)


def oracle_reference(sys, state) -> tuple[float, float]:
    res = grid.schmidt_analyze(sys, state, grid.GridSpec(512, 8.0))
    if not res.norm_defect <= 1e-3:
        raise CheckFailure(f"oracle reference unusable: norm defect {res.norm_defect:.2e}")
    return res.purity, ORACLE_TOL


def exact_reference(sys, state) -> float:
    """Closed form, else the generating-function (exact) route."""
    ref = closed_form(sys, state)
    if ref is not None:
        return ref
    if isinstance(state, NumberState):
        return exact.purity_number(sys, state.m, state.n)
    if isinstance(state, Superposition):
        return exact.purity_superposition(sys, state)
    return exact.purity_number_unbound(sys, state.m, state.tau)


def reference_for_exact(sys, state) -> tuple[float, float]:
    ref = closed_form(sys, state)
    if ref is not None:
        return ref, CLOSED_TOL
    if isinstance(state, UnboundGaussian):
        return oracle_reference(sys, state)
    return fock_reference(sys, state)


# ----------------------------------------------------------------------
# value checks
# ----------------------------------------------------------------------


def _plausible(value: float, label: str, empty_truncation: bool = False):
    """Finite and in (0, 1]; a truncation that keeps none of the state
    (every amplitude zero, tr rho = 0) has purity exactly 0."""
    if empty_truncation and value == 0.0:
        return
    if not (math.isfinite(value) and 0.0 < value <= 1.0 + 1e-12):
        raise CheckFailure(f"{label}: purity {value!r} is not a finite value in (0, 1]")


def _compare(value: float, ref: float, tol: float, label: str, empty_truncation=False):
    _plausible(value, label, empty_truncation)
    if not abs(value - ref) <= tol:
        raise CheckFailure(f"{label}: purity {value:.15g} vs reference {ref:.15g} "
                           f"(|diff| {abs(value - ref):.2e} > {tol:.2e})")


def check_value(spec: dict, sys, state, value: float, label: str, record=None):
    method = spec["method"]
    if method == "exact":
        ref, tol = reference_for_exact(sys, state)
        _compare(value, ref, tol, label)
    elif method == "oracle":
        _compare(value, exact_reference(sys, state), ORACLE_TOL, label)
    elif method == "fock":
        jmax = spec["jmax"]
        _, d = _fock_purity(fock_coefficients(sys, state, fock.default_basis(sys, jmax=jmax)))
        _compare(value, exact_reference(sys, state), fock_bound(d), label)
        if record is not None:
            entropy = record.get("entropy")
            if not (isinstance(entropy, float) and math.isfinite(entropy) and entropy >= 0.0):
                raise CheckFailure(f"{label}: entropy {entropy!r} is not finite and >= 0")
    else:
        raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# command checks
# ----------------------------------------------------------------------


def _read_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    params = {}
    if lines and lines[0].startswith("# params: "):
        params = json.loads(lines[0][len("# params: "):])
        lines = lines[1:]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        raise CheckFailure("empty CSV output")
    return params, rows[0], rows[1:]


def _check_purity(spec, out: Outcome, rng) -> int:
    record = json.loads(out.stdout)
    sys = make_system(spec)
    state = make_state(spec["state"])
    check_value(spec, sys, state, record["purity"], "purity", record)
    return 1


def _check_sweep(spec, out: Outcome, rng) -> int:
    _, header, rows = _read_csv(out.stdout)
    if header != [spec["param"], "purity"]:
        raise CheckFailure(f"sweep header {header}")
    expected = sweep_values(spec)
    if len(rows) != len(expected):
        raise CheckFailure(f"sweep emitted {len(rows)} rows, expected {len(expected)}")
    for (x_text, p_text), x in zip(rows, expected):
        xv = float(x_text)
        if not abs(xv - x) <= 1e-12 * max(1.0, abs(x)):
            raise CheckFailure(f"sweep point {xv!r} differs from {x!r}")
        sys = make_system(spec, xv)
        state = make_state(spec["state"], xv, spec["param"])
        check_value(spec, sys, state, float(p_text), f"{spec['param']}={xv:.6g}")
    return len(rows)


def _sample_rows(n: int, rng: random.Random) -> set[int]:
    return set(rng.sample(range(n), min(n, FIGURE_SAMPLE_ROWS)))


def _check_fig5(params, header, rows, rng):
    g = float(params["g"])
    sampled = _sample_rows(len(rows), rng)
    for i, row in enumerate(rows):
        mu1 = float(row[0])
        sys = OscillatorSystem.from_dimensionless(g, mu1)
        for name, text in zip(header[1:], row[1:]):
            state = NumberState(int(name[1]), int(name[2]))
            if closed_form(sys, state) is not None or i in sampled:
                check_value({"method": "exact"}, sys, state, float(text),
                            f"g={g:g} mu1={mu1:g} {name}")
            else:
                _plausible(float(text), f"g={g:g} mu1={mu1:g} {name}")
    return len(rows) * (len(header) - 1)


def _check_fig6(params, header, rows, rng):
    g = float(params["g"])
    sampled = _sample_rows(len(rows), rng)
    for i, row in enumerate(rows):
        mu1 = float(row[0])
        sys = OscillatorSystem.from_dimensionless(g, mu1)
        for name, text in zip(header[1:], row[1:]):
            label = f"g={g:g} mu1={mu1:g} {name}"
            if i in sampled:
                theta = _FIG6_THETA[name[len("P_theta_"):]]
                check_value({"method": "exact"}, sys, Superposition.two_mode_mix(theta),
                            float(text), label)
            else:
                _plausible(float(text), label)
    return len(rows) * (len(header) - 1)


def _check_fig7(params, header, rows, rng):
    sys = OscillatorSystem.from_dimensionless(float(params["g"]), float(params["mu1"]))
    exact_p01 = _p01(sys)
    tables = {}
    for row in rows:
        g1, g2, jm, km, p, err = row
        key = (float(g1), float(g2))
        if key not in tables:
            basis = fock.BasisParams(key[0], key[1], 5, 5)
            tables[key] = fock.coefficient_table(sys, basis, 0, 1).values
        C = tables[key][: int(jm) + 1, : int(km) + 1]
        _, d = _fock_purity(C)
        label = f"fig7 g={params['g']} gamma=({g1},{g2}) jmax={jm}"
        _compare(float(p), exact_p01, fock_bound(d), label, empty_truncation=not C.any())
        if not abs(float(err) - abs(float(p) - exact_p01)) <= 1e-9:
            raise CheckFailure(f"{label}: abs_error column {err} is not |P - P01|")
    return len(rows)


_FIGURES = {"fig5": _check_fig5, "fig6": _check_fig6, "fig7": _check_fig7}


def _check_figure(spec, out: Outcome, rng: random.Random) -> int:
    paths = out.stdout.split()
    if not paths:
        raise CheckFailure("figure listed no files")
    total = 0
    for path in paths:
        with open(path) as fh:
            params, header, rows = _read_csv(fh.read())
        total += _FIGURES[spec["which"]](params, header, rows, rng)
    return total


def _check_oracle_compare(spec, out: Outcome, rng) -> int:
    # case labels such as "number (0,1) g=5" are written unquoted, so the
    # three numeric columns are split off the right
    lines = out.stdout.splitlines()[2:]
    cases = {label: (sys, state) for (label, sys, state) in acceptance.oracle_cases()}
    if len(lines) != len(cases):
        raise CheckFailure(f"oracle-compare emitted {len(lines)} rows, expected {len(cases)}")
    for line in lines:
        label, method_p, oracle_p, _ = line.rsplit(",", 3)
        sys, state = cases[label]
        ref, tol = reference_for_exact(sys, state)
        _compare(float(method_p), ref, tol, f"{label} method")
        _compare(float(oracle_p), exact_reference(sys, state), ORACLE_TOL, f"{label} oracle")
    return 2 * len(lines)


_CHECKS = {"purity": _check_purity, "sweep": _check_sweep, "figure": _check_figure,
           "oracle-compare": _check_oracle_compare}


def _touches_known_defect(spec: dict) -> bool:
    if spec["kind"] == "purity":
        return in_known_defect(spec["method"], spec.get("g"), spec.get("mu1"))
    if spec["kind"] == "sweep" and spec["param"] == "mu1":
        return any(in_known_defect(spec["method"], spec.get("g"), float(v))
                   for v in sweep_values(spec))
    return False


def check(spec: dict, out: Outcome, rng: random.Random) -> Verdict:
    """Judge one command's outcome; ``rng`` picks the sampled figure rows."""
    verdict = Verdict(ok=True)
    if out.error is not None:
        verdict.ok, verdict.reason = False, f"raised {out.error}"
    elif out.rc != 0:
        last = out.stderr.strip().splitlines()[-1:] or [""]
        verdict.ok, verdict.reason = False, f"exit {out.rc}: {last[0]}"
    else:
        try:
            verdict.results = _CHECKS[spec["kind"]](spec, out, rng)
        except (CheckFailure, OscillentError, ValueError, TypeError, KeyError, IndexError,
                OSError) as exc:
            verdict.ok, verdict.reason = False, f"{type(exc).__name__}: {exc}"
    if not verdict.ok:
        verdict.known_defect = _touches_known_defect(spec)
    return verdict
