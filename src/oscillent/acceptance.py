"""Acceptance criteria: the quantitative exit checks for this package.

Each criterion is an independent callable returning (passed, detail).  They
are consumed both by ``oscillent selftest`` and by the pytest suite, so the
tolerances live here, once.  Reference values that have closed forms are
spelled out locally instead of calling the code under test, so every check
crosses two implementation routes.  The oracle agrees with a purity within
``ORACLE_TOL``: criterion 5 and ``oscillent oracle-compare`` gate on the
worst residual :func:`oracle_residuals` returns, and criterion 11 on its one
oracle purity.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import exact, fock, gaussian, grid
from .system import (Coherent, NumberState, OscillatorSystem, Superposition,
                     UnboundGaussian)

__all__ = ["CRITERIA", "run_all", "print_line", "oracle_cases", "method_purity"]


# ----------------------------------------------------------------------
# closed-form references
# ----------------------------------------------------------------------


def _closed_P01(sys) -> float:
    """Explicit rational closed form of the |0,1> purity."""
    g2 = sys.gamma ** 2
    G2 = sys.Gamma ** 2
    m1, m2 = sys.mu1, sys.mu2
    num = (3 * g2 ** 4
           + 4 * g2 ** 3 * G2 * (m1 ** 2 + m2 ** 2)
           + 2 * g2 ** 2 * G2 ** 2 * (2 * m1 ** 4 + m1 ** 2 * m2 ** 2 + 2 * m2 ** 4)
           + 4 * g2 * G2 ** 3 * m1 ** 2 * m2 ** 2 * (m1 ** 2 + m2 ** 2)
           + 3 * G2 ** 4 * m1 ** 4 * m2 ** 4)
    den = 4 * ((g2 + m1 ** 2 * G2) * (g2 + m2 ** 2 * G2)) ** 2.5
    return sys.gamma * sys.Gamma * num / den


def _closed_P11(sys) -> float:
    """Explicit rational closed form of the |1,1> purity."""
    g2 = sys.gamma ** 2
    G2 = sys.Gamma ** 2
    m1, m2 = sys.mu1, sys.mu2
    a, b = m1 ** 2, m2 ** 2
    num = (9 * g2 ** 8
           + 16 * g2 ** 7 * G2 * (a + b)
           + 12 * g2 ** 6 * G2 ** 2 * (8 * a ** 2 - 3 * a * b + 8 * b ** 2)
           + 240 * g2 ** 5 * G2 ** 3 * a * b * (a + b)
           + 2 * g2 ** 4 * G2 ** 4 * (8 * a ** 4 - 64 * a ** 3 * b + 459 * a ** 2 * b ** 2
                                      - 64 * a * b ** 3 + 8 * b ** 4)
           + 240 * g2 ** 3 * G2 ** 5 * a ** 2 * b ** 2 * (a + b)
           + 12 * g2 ** 2 * G2 ** 6 * a ** 2 * b ** 2 * (8 * a ** 2 - 3 * a * b + 8 * b ** 2)
           + 16 * g2 * G2 ** 7 * a ** 3 * b ** 3 * (a + b)
           + 9 * G2 ** 8 * a ** 4 * b ** 4)
    den = 16 * ((g2 + a * G2) * (g2 + b * G2)) ** 4.5
    return sys.gamma * sys.Gamma * num / den


def _poly_P01_g1(mu1: float) -> float:
    return 1 - 2 * mu1 + 2 * mu1 ** 2


def _poly_P11_g1(mu1: float) -> float:
    return 1 - 8 * mu1 + 32 * mu1 ** 2 - 48 * mu1 ** 3 + 24 * mu1 ** 4


# ----------------------------------------------------------------------
# shared oracle test set
# ----------------------------------------------------------------------


def oracle_cases():
    """The shared set of cases every purity route must agree on."""
    D = OscillatorSystem.from_dimensionless
    U = OscillatorSystem.from_untrapped
    return [
        ("coherent g=1",        D(1.0, 0.3),  Coherent()),
        ("coherent g=4",        D(4.0, 0.5),  Coherent()),
        ("coherent g=10",       D(10.0, 0.25), Coherent()),
        ("coherent displaced",  D(5.0, 0.4),  Coherent(0.7 + 0.4j, -0.3 + 1.1j)),
        ("number (0,1) g=5",    D(5.0, 0.3),  NumberState(0, 1)),
        ("number (1,1) g=1",    D(1.0, 0.5),  NumberState(1, 1)),
        ("number (2,1) g=5",    D(5.0, 0.5),  NumberState(2, 1)),
        ("number (2,2) g=3",    D(3.0, 0.35), NumberState(2, 2)),
        ("unbound tau=0",       U(0.5, c=3.0), UnboundGaussian(0, 0.0)),
        ("unbound tau=5",       U(0.5, c=3.0), UnboundGaussian(0, 5.0)),
        ("unbound m=1 tau=5",   U(0.5, c=2.0), UnboundGaussian(1, 5.0)),
        ("mix theta=pi/6 g=1",  D(1.0, 0.4),  Superposition.two_mode_mix(math.pi / 6)),
        ("mix theta=pi/3 g=5",  D(5.0, 0.5),  Superposition.two_mode_mix(math.pi / 3)),
    ]


def method_purity(sys, state, method: str = "exact") -> float:
    """Best non-oracle purity for a state: its closed form, else the exact
    extraction, which ``method="analytic"`` refuses (:func:`exact.purities`
    for one point).  A state kind neither route takes is refused first,
    whatever the method."""
    return exact.purities([(sys, state)], method)[0]


# the bound of criterion 5 and oracle-compare on |method - oracle| purity
ORACLE_TOL = 1e-6


def oracle_residuals(spec: grid.GridSpec) -> tuple[list[tuple[str, float, float, float]], float]:
    """(label, method purity, oracle purity, |difference|) of every case of
    :func:`oracle_cases`, the oracle sampled on ``spec``, and the worst
    difference, NaN if any difference is; the oracle agrees when
    ``worst <= ORACLE_TOL``."""
    rows = []
    for (label, sys, state) in oracle_cases():
        ref = method_purity(sys, state)
        got = grid.schmidt_analyze(sys, state, spec).purity
        rows.append((label, float(ref), float(got), float(abs(got - ref))))
    return rows, float(np.max([diff for (*_, diff) in rows]))


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def criterion_1_coherent_identity():
    """g = 1 coherent purity is exactly 1 across mass fractions."""
    worst = 0.0
    for mu1 in np.linspace(0.01, 0.99, 99):
        sys = OscillatorSystem.from_dimensionless(1.0, float(mu1))
        worst = max(worst, abs(gaussian.purity_coherent(sys) - 1.0))
    return worst < 1e-12, f"max |P-1| = {worst:.3e} over 99 mass fractions (tol 1e-12)"


def criterion_2_g1_polynomials():
    """Extracted P01 and P11 match their g = 1 polynomials."""
    worst = 0.0
    for mu1 in np.linspace(0.01, 0.99, 99):
        sys = OscillatorSystem.from_dimensionless(1.0, float(mu1))
        worst = max(worst, abs(exact.purity_number(sys, 0, 1) - _poly_P01_g1(mu1)))
        worst = max(worst, abs(exact.purity_number(sys, 1, 1) - _poly_P11_g1(mu1)))
    return worst < 1e-10, f"max |Delta| = {worst:.3e} over 99 mass fractions (tol 1e-10)"


def criterion_3_closed_forms_general_g():
    """Extraction matches the explicit P01/P11 rational expressions."""
    worst = 0.0
    for g in np.logspace(-1, 1, 20):
        for mu1 in np.linspace(0.05, 0.95, 20):
            sys = OscillatorSystem.from_dimensionless(float(g), float(mu1))
            for (m, n, ref) in ((0, 1, _closed_P01(sys)), (1, 1, _closed_P11(sys))):
                got = exact.purity_number(sys, m, n)
                worst = max(worst, abs(got - ref) / ref)
    return worst < 1e-10, f"max rel error = {worst:.3e} on a 20x20 (g, mu1) grid (tol 1e-10)"


def criterion_4_determinant_identity():
    """det(M) = 1/256 at random parameter points.

    The shared denominator of the generator entries uses squared mass
    fractions, (gamma^2 + Gamma^2 mu1^2)(gamma^2 + Gamma^2 mu2^2); the
    determinant identity is what pins that resolution down.
    """
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        g = float(10.0 ** rng.uniform(-1, 1))
        mu1 = float(rng.uniform(0.05, 0.95))
        sys = OscillatorSystem.from_dimensionless(g, mu1)
        det = np.linalg.det(exact.build_M(sys).Mmat)
        worst = max(worst, abs(det - 1.0 / 256.0))
    return worst < 1e-12, f"max |det M - 1/256| = {worst:.3e} at 100 random points (tol 1e-12)"


def criterion_5_oracle_equivalence():
    """Grid-Schmidt oracle agrees with every closed-form/exact purity."""
    rows, worst = oracle_residuals(grid.GridSpec())
    return worst <= ORACLE_TOL, (
        f"max |DeltaP| = {worst:.3e} over {len(rows)} cases (tol {ORACLE_TOL:g}); "
        + "; ".join(f"{label}: {diff:.2e}" for (label, _, _, diff) in rows))


def criterion_6_truncation_anchor():
    """Matched basis reproduces P01 = 1/2 exactly at truncation 1."""
    sys = OscillatorSystem.from_dimensionless(1.0, 0.5)
    basis = fock.BasisParams(gamma1=1 / math.sqrt(2), gamma2=1 / math.sqrt(2), jmax=1, kmax=1)
    got = fock.purity_truncated(sys, NumberState(0, 1), basis)
    diff = abs(got - 0.5)
    return diff < 1e-10, f"|P_trunc(jmax=kmax=1) - 0.5| = {diff:.3e} (tol 1e-10)"


def criterion_7_convergence_basis_independence():
    """Two bases converge to one P01 value; errors shrink overall."""
    sys = OscillatorSystem.from_dimensionless(5.0, 0.5)
    state = NumberState(0, 1)
    pairs = [(1 / math.sqrt(2), 1 / math.sqrt(2)), (1.0, 1.0)]
    rows, = fock.convergence_run([sys], state, pairs, max_truncation=20)
    finals = {}
    decreasing = True
    for (g1, g2) in pairs:
        errs = [r[5] for r in rows if (r[0], r[1]) == (g1, g2)]
        purities = [r[4] for r in rows if (r[0], r[1]) == (g1, g2)]
        finals[(g1, g2)] = purities[-1]
        if not (errs[-1] <= errs[0] and errs[-1] == min(errs)):
            decreasing = False
    vals = list(finals.values())
    spread = abs(vals[0] - vals[1])
    ok = spread < 1e-6 and decreasing
    return ok, (f"converged-purity spread between bases = {spread:.3e} (tol 1e-6); "
                f"error sequences decrease overall: {decreasing}")


def criterion_8_number_state_symmetries():
    """P_mn invariant under mu1 <-> mu2, g <-> 1/g, and (m, n) exchange."""
    cache: dict[tuple, float] = {}

    def P(g, mu1, m, n):
        key = (round(g, 14), round(mu1, 14), m, n)
        if key not in cache:
            cache[key] = exact.purity_number(
                OscillatorSystem.from_dimensionless(g, mu1), m, n)
        return cache[key]

    worst = 0.0
    for g in np.logspace(0.05, 1, 10):
        for mu1 in np.linspace(0.08, 0.92, 10):
            g, mu1 = float(g), float(mu1)
            for m in range(3):
                for n in range(3):
                    base = P(g, mu1, m, n)
                    worst = max(worst, abs(base - P(g, 1.0 - mu1, m, n)))
                    worst = max(worst, abs(base - P(1.0 / g, mu1, m, n)))
                    worst = max(worst, abs(base - P(g, mu1, n, m)))
    return worst < 1e-10, (f"max symmetry violation = {worst:.3e} for (m, n) up to (2, 2) "
                           "on a 10x10 grid (tol 1e-10)")


def criterion_9_unbound_dynamics():
    """Spreading strictly lowers the purity; the balanced pair starts at 1."""
    sys = OscillatorSystem.from_untrapped(0.4, c=3.0)
    vals = [gaussian.purity_unbound_gaussian(sys, t) for t in (0.0, 1.0, 2.0, 4.0, 8.0)]
    strictly_decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    mu1 = 0.3
    balanced = OscillatorSystem.from_untrapped(mu1, gamma=math.sqrt(mu1 * (1 - mu1)))
    start = gaussian.purity_unbound_gaussian(balanced, 0.0)
    ok = strictly_decreasing and abs(start - 1.0) < 1e-12
    return ok, (f"P over tau=(0,1,2,4,8): {['%.6f' % v for v in vals]}, strictly decreasing: "
                f"{strictly_decreasing}; balanced-start |P-1| = {abs(start - 1.0):.3e} (tol 1e-12)")


def criterion_10_covariance_pipeline():
    """Covariance matrix, standard form, squeezing, and the classical twin."""
    rng = np.random.default_rng(7)
    worst_entry = 0.0
    worst_pattern = 0.0
    worst_r = 0.0
    for _ in range(10):
        g = float(10.0 ** rng.uniform(-1, 1))
        mu1 = float(rng.uniform(0.1, 0.9))
        sys = OscillatorSystem.from_dimensionless(g, mu1)
        pack = gaussian.covariance_coherent(sys)
        # independent route: the classical twin composes the diagonal mode
        # moments through the (x, p, r, q) -> (x1, p1, x2, p2) linear map
        worst_entry = max(worst_entry, float(np.max(np.abs(gaussian.classical_covariance(sys) - pack.V))))
        Vp = pack.standard_form()
        ch, sh = math.cosh(pack.r), math.sinh(pack.r)
        sign = 1.0 if Vp[0, 2] >= 0 else -1.0
        pattern = np.array([
            [ch, 0, sign * sh, 0],
            [0, ch, 0, -sign * sh],
            [sign * sh, 0, ch, 0],
            [0, -sign * sh, 0, ch],
        ])
        worst_pattern = max(worst_pattern, float(np.max(np.abs(Vp - pattern))))
        worst_r = max(worst_r, abs(gaussian.arccosh_guarded(1.0 / gaussian.purity_coherent(sys)) - pack.r))
    # Monte Carlo check of the classical distribution
    sys = OscillatorSystem.from_dimensionless(4.0, 0.3)
    n = 1_000_000
    V = gaussian.covariance_coherent(sys).V
    V_mc = gaussian.sample_classical_covariance(sys, n_samples=n)
    se = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V ** 2) / n)
    mc_ok = bool(np.all(np.abs(V_mc - V) <= 3.0 * se))
    ok = worst_entry < 1e-12 and worst_pattern < 1e-10 and worst_r < 1e-12 and mc_ok
    return ok, (f"max |V - V_ref| = {worst_entry:.3e} (tol 1e-12); max standard-form "
                f"deviation = {worst_pattern:.3e} (tol 1e-10); max |arccosh(1/P) - r| = "
                f"{worst_r:.3e}; Monte Carlo within 3 standard errors: {mc_ok}")


def criterion_11_disentanglement_point():
    """A mass fraction exists where the theta = pi/6 mixture is separable."""
    from scipy import optimize  # slow to import, and needed only here

    theta = math.pi / 6
    state = Superposition.two_mode_mix(theta)

    def purity(mu1: float) -> float:
        return exact.purity_superposition(
            OscillatorSystem.from_dimensionless(1.0, mu1), state)

    scan = np.linspace(0.02, 0.98, 97)
    best = max(scan, key=lambda v: purity(float(v)))
    step = scan[1] - scan[0]
    res = optimize.minimize_scalar(
        lambda v: -purity(float(v)),
        bounds=(max(best - step, 0.01), min(best + step, 0.99)),
        method="bounded", options={"xatol": 1e-12})
    mu_star = float(res.x)
    p_star = purity(mu_star)
    sys = OscillatorSystem.from_dimensionless(1.0, mu_star)
    p_oracle = grid.schmidt_analyze(sys, state).purity
    ok = abs(p_star - 1.0) < 1e-8 and abs(p_oracle - 1.0) < ORACLE_TOL
    return ok, (f"mu1* = {mu_star:.10f}, |P-1| = {abs(p_star - 1.0):.3e} (tol 1e-8), "
                f"oracle |P-1| = {abs(p_oracle - 1.0):.3e} (tol 1e-6)")


def criterion_12_hbar_invariance():
    """Purities are unchanged under hbar -> 0.1 hbar and 10 hbar."""
    worst = 0.0

    def trapped(lam):
        return OscillatorSystem.from_physical(1.3, 2.1, 7.0, 2.0, hbar=lam)

    def untrapped(lam):
        # the preparation is specified dimensionlessly: c = Gamma/gamma fixed
        base = OscillatorSystem.from_physical(1.3, 2.1, 7.0, 0.0, hbar=lam,
                                              Gamma=1.0)
        return OscillatorSystem.from_physical(1.3, 2.1, 7.0, 0.0, hbar=lam,
                                              Gamma=2.5 * base.gamma)

    probes = [
        lambda s: gaussian.purity_coherent(s),
        lambda s: exact.purity_number(s, 0, 1),
        lambda s: exact.purity_number(s, 1, 1),
        lambda s: exact.purity_superposition(s, Superposition.two_mode_mix(math.pi / 6)),
    ]
    base_vals = [p(trapped(1.0)) for p in probes]
    for lam in (0.1, 10.0):
        for p, ref in zip(probes, base_vals):
            worst = max(worst, abs(p(trapped(lam)) - ref))
    u_probes = [
        lambda s: gaussian.purity_unbound_gaussian(s, 0.0),
        lambda s: gaussian.purity_unbound_gaussian(s, 5.0),
        lambda s: exact.purity_number_unbound(s, 1, 5.0),
    ]
    u_base = [p(untrapped(1.0)) for p in u_probes]
    for lam in (0.1, 10.0):
        for p, ref in zip(u_probes, u_base):
            worst = max(worst, abs(p(untrapped(lam)) - ref))
    return worst < 1e-12, f"max purity shift under hbar rescaling = {worst:.3e} (tol 1e-12)"


CRITERIA = [
    (1, "g = 1 coherent purity equals 1", criterion_1_coherent_identity),
    (2, "g = 1 polynomials for P01 and P11", criterion_2_g1_polynomials),
    (3, "closed-form P01/P11 at general g", criterion_3_closed_forms_general_g),
    (4, "generator determinant identity 1/256", criterion_4_determinant_identity),
    (5, "grid-Schmidt oracle equivalence", criterion_5_oracle_equivalence),
    (6, "truncated-basis anchor P01 = 1/2", criterion_6_truncation_anchor),
    (7, "truncation convergence and basis independence", criterion_7_convergence_basis_independence),
    (8, "number-state symmetries", criterion_8_number_state_symmetries),
    (9, "unbound dynamics", criterion_9_unbound_dynamics),
    (10, "covariance pipeline and classical twin", criterion_10_covariance_pipeline),
    (11, "disentanglement point of the one-excitation mixture", criterion_11_disentanglement_point),
    (12, "hbar invariance", criterion_12_hbar_invariance),
]


def print_line(num: int, title: str, ok: bool, seconds: float, detail: str):
    """One criterion's result as a pass/fail line on stdout."""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({seconds:6.2f} s): {title} -- {detail}")


def run_all(selection=None, report=print_line) -> bool:
    """Run the criteria, passing each one's number, title, verdict, wall
    seconds and detail to ``report``; True if all pass."""
    wanted = set(selection) if selection else None
    all_ok = True
    for (num, title, func) in CRITERIA:
        if wanted is not None and num not in wanted:
            continue
        t0 = time.perf_counter()
        ok, detail = func()
        dt = time.perf_counter() - t0
        all_ok &= ok
        report(num, title, ok, dt, detail)
    return all_ok
