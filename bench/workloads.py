"""Seeded command lists for the three benchmark workloads.

A run of a workload is a fixed list of commands: a preamble of commands run
once, then a number of *rounds*.  Every round holds one command of the
workload's heavy slot and ``reps`` blocks of lighter slots.  The seed draws
each command's continuous parameters (g, mu1, ranges, theta, c); the route,
state, box size, point count and truncation of every position in the list
are fixed, so the list costs about the same for every seed, and the commands
attempted (and any that fail) depend only on the seed and ``--seconds``.

The shape is chosen so that the order statistics the metrics read fall in
the middle of a group of commands of one kind, not on the edge between two:

* the tail latency is the 11th slowest command (``stats.tail``).  The
  preamble holds ``above`` commands slower than the heavy slot, and there
  are ``21 - 2 * above`` rounds, so the 11th slowest command is the median
  command of the heavy slot;
* the median latency falls inside the light blocks (the comments at each
  workload say where).

``reps`` is sized from ``--seconds`` with the nominal costs below (seconds
on a 2-vCPU x86-64 machine); the number of rounds is fixed by the tail rule.
Each command carries a ``spec`` from which the checker rebuilds its inputs
without parsing the command line back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from stats import TAIL_BEYOND

__all__ = ["Command", "WORKLOADS", "PLANS", "commands", "reps_for", "state_literal"]

WORKLOADS = ("exact_sweeps", "oracle_grid", "fock_basis")

# mass fractions on the grid the figure commands use
_MU_GRID = [round(0.01 * k, 2) for k in range(1, 100)]
_MU_LOW = [mu for mu in _MU_GRID if mu <= 0.45]
_MU_HIGH = [mu for mu in _MU_GRID if mu >= 0.55]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``slot`` names its kind within the workload."""

    slot: str
    argv: tuple
    spec: dict
    preamble: bool = False


@dataclass(frozen=True)
class Plan:
    """Shape of one workload's command list.

    ``heavy``: the slot names of the heavy commands, one per round;
    ``above``: preamble commands slower than the heavy slot;
    ``preamble_s``, ``heavy_s``, ``block_s``: nominal seconds of the
    preamble, of one round's fixed part and of one light block.
    """

    heavy: tuple
    above: int
    preamble_s: float
    heavy_s: float
    block_s: float

    @property
    def rounds(self) -> int:
        return 2 * (TAIL_BEYOND - self.above) + 1


PLANS = {
    "exact_sweeps": Plan(heavy=("deep44",), above=4,
                         preamble_s=12.8, heavy_s=0.70, block_s=0.41),
    "oracle_grid": Plan(heavy=("grid1024",), above=1,
                        preamble_s=1.8, heavy_s=0.75, block_s=0.5),
    "fock_basis": Plan(heavy=("jmax40_22",), above=0,
                       preamble_s=0.0, heavy_s=0.085, block_s=0.135),
}


def reps_for(workload: str, seconds: float) -> int:
    """Light blocks per round, so the list takes about ``seconds`` nominally."""
    p = PLANS[workload]
    spare = seconds - p.preamble_s - p.rounds * p.heavy_s
    return max(1, round(spare / (p.rounds * p.block_s)))


def state_literal(state) -> str:
    """("number", m, n) | ("sup", theta) | ("unbound", m, tau) -> CLI literal."""
    kind = state[0]
    if kind == "number":
        return f"number:{state[1]},{state[2]}"
    if kind == "sup":
        return f"sup:{state[1]!r}"
    if kind == "unbound":
        return f"unbound:{state[1]},{state[2]!r}"
    raise ValueError(f"unknown state kind {kind!r}")


def _r(x: float) -> float:
    """Six significant digits, so command lines stay readable."""
    return float(f"{x:.6g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _r(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _mu(rng: random.Random) -> float:
    return _r(rng.uniform(0.01, 0.99))


def _mu_range(rng: random.Random) -> tuple[float, float]:
    """Sweep ends on the figure grid, one in each half, edges included."""
    return rng.choice(_MU_LOW), rng.choice(_MU_HIGH)


def _theta(rng: random.Random) -> float:
    return _r(rng.uniform(0.0, math.pi))


def _flags(values: dict) -> list[str]:
    return [tok for k, v in values.items() for tok in (f"--{k.replace('_', '-')}", repr(v))]


def _purity(slot, method, state, sys_args: dict, **opts) -> Command:
    argv = ["purity", "--method", method, "--state", state_literal(state),
            *_flags({**sys_args, **opts})]
    spec = {"kind": "purity", "method": method, "state": state, **sys_args, **opts}
    return Command(slot, tuple(argv), spec)


def _sweep(slot, method, param, start, stop, count, state, sys_args: dict,
           scale="linear", **opts) -> Command:
    rng_text = f"{start!r}:{stop!r}:{count}"
    argv = ["sweep", "--method", method, "--param", param, "--range", rng_text,
            "--scale", scale, "--state", state_literal(state), *_flags({**sys_args, **opts})]
    spec = {"kind": "sweep", "method": method, "param": param, "start": start,
            "stop": stop, "count": count, "scale": scale, "state": state,
            **sys_args, **opts}
    return Command(slot, tuple(argv), spec)


def _figure(which: str, outdir: str) -> Command:
    return Command(which, ("figure", which, "--outdir", outdir),
                   {"kind": "figure", "which": which, "outdir": outdir})


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _exact(rng: random.Random, outdir: str, reps: int) -> list[Command]:
    """8-variable Taylor boxes.

    Preamble: fig5, fig6 and two 4-point mu1 sweeps on the (5,3) and (3,5)
    boxes (390,625 cells each), all slower than the heavy slot, a 2-point
    mu1 sweep on (4,4).  Light block: 4-point sweeps on (3,3) over g and
    (4,2) over mu1, a 9-point theta sweep of the one-excitation mix and a
    3-point tau sweep of the spreading packet |M> (the complex generator from
    ``build_M_from_A``).  The median command is a (3,3) or (4,2) sweep.
    """
    def g():
        return _log_uniform(rng, 0.2, 5.0)

    out = [_figure("fig5", f"{outdir}/p"), _figure("fig6", f"{outdir}/p")]
    for m, n in ((5, 3), (3, 5)):
        a, b = _mu_range(rng)
        out.append(_sweep(f"deep{m}{n}", "exact", "mu1", a, b, 4, ("number", m, n), {"g": g()}))
    out = [replace(c, preamble=True) for c in out]
    for r in range(PLANS["exact_sweeps"].rounds):
        a, b = _mu_range(rng)
        out.append(_sweep("deep44", "exact", "mu1", a, b, 2, ("number", 4, 4), {"g": g()}))
        for k in range(reps):
            lo, hi = sorted((g(), g()))
            if hi / lo < 1.5:
                lo, hi = _r(lo / 1.5), _r(hi * 1.5)
            out.append(_sweep("mid_g", "exact", "g", lo, hi, 4, ("number", 3, 3),
                              {"mu1": _mu(rng)}, scale="log"))
            a, b = _mu_range(rng)
            out.append(_sweep("mid_mu1", "exact", "mu1", a, b, 4, ("number", 4, 2),
                              {"g": g()}))
            out.append(_sweep("theta", "exact", "theta", 0.0, _r(rng.uniform(1.0, math.pi)), 9,
                              ("sup", 0.0), {"g": g(), "mu1": _mu(rng)}))
            out.append(_sweep("tau", "exact", "tau", 0.0, _r(rng.uniform(1.0, 8.0)), 3,
                              ("unbound", 1 + (r * reps + k) % 4, 0.0),
                              {"c": _log_uniform(rng, 0.5, 3.0),
                               "mu1": _r(rng.uniform(0.05, 0.95))}))
    return out


_ORACLE_NUMBER = [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (1, 0)]


def _away_from_defect(choices: list[float], g: float) -> list[float]:
    """``choices`` without, below g = 1, the mass fractions within 0.05 of 0
    or 1, where ``checks.in_known_defect`` says the grid oracle fails."""
    if g < 1.0:
        choices = [mu for mu in choices if 0.05 < mu < 0.95]
    return choices


# The two known-defect inputs every oracle_grid run holds, at fixed rounds:
# the 512^2 oracle exits 2 on |2,2> at g = 0.2, mu1 = 0.01 (grid norm defect
# 1.2e-2) and misses the exact value by 1.0e-5 on the theta = pi/3 mix there.
_DEFECT_G, _DEFECT_MU = 0.2, 0.01
_DEFECT_ROUNDS = {0: ("sweep_number", ("number", 2, 2)),
                  9: ("sweep_mix", ("sup", math.pi / 3))}


def _oracle(rng: random.Random, outdir: str, reps: int) -> list[Command]:
    """Grid sampling plus SVD.

    Preamble: ``oracle-compare`` (512^2).  Heavy slot: ``purity --method
    oracle`` at 1024^2, on the number states with m + n <= 4 in turn and on
    every fifth round a mix.  Light block: a purity at 512^2 and a 2-point
    mu1 sweep at 512^2 (one pool round), on a number state and on a mix in
    turn.  The median command is one of the sweeps.

    g is log-uniform in [0.2, 5].  The oracle's known defect (g < 1, mu1
    within 0.05 of 0 or 1) is entered at two fixed places per run, so every
    run attempts the same two failing inputs whatever its seed; the seeded
    inputs stay outside it.
    """
    def g():
        return _log_uniform(rng, 0.2, 5.0)

    def sweep(slot, state, r, k):
        gv = g()
        a = rng.choice(_away_from_defect(_MU_LOW, gv))
        b = rng.choice(_away_from_defect(_MU_HIGH, gv))
        if k == 0 and _DEFECT_ROUNDS.get(r, ("",))[0] == slot:
            state, gv, a = _DEFECT_ROUNDS[r][1], _DEFECT_G, _DEFECT_MU
        return _sweep(slot, "oracle", "mu1", a, b, 2, state, {"g": gv})

    out = [Command("oracle-compare", ("oracle-compare",), {"kind": "oracle-compare"},
                   preamble=True)]
    for r in range(PLANS["oracle_grid"].rounds):
        state = ("sup", _theta(rng)) if r % 5 == 4 else ("number",) + _ORACLE_NUMBER[r % 8]
        gv = g()
        out.append(_purity("grid1024", "oracle", state,
                           {"g": gv, "mu1": rng.choice(_away_from_defect(_MU_GRID, gv))},
                           n_points=1024))
        for k in range(reps):
            i = r * reps + k
            gv = g()
            out.append(_purity("grid512", "oracle", ("number",) + _ORACLE_NUMBER[(i + 3) % 8],
                               {"g": gv, "mu1": rng.choice(_away_from_defect(_MU_GRID, gv))},
                               n_points=512))
            if i % 2 == 0:
                out.append(sweep("sweep_number", ("number",) + _ORACLE_NUMBER[i // 2 % 8], r, k))
            else:
                out.append(sweep("sweep_mix", ("sup", _theta(rng)), r, k))
    return out


_FOCK_LIGHT = [("number", 0, 1), ("number", 2, 1), ("number", 1, 2), ("number", 2, 2),
               ("number", 1, 0), None]


def _fock(rng: random.Random, outdir: str, reps: int) -> list[Command]:
    """4-variable Taylor boxes with long (j, k) axes, g from 1 to 100.

    Heavy slot: ``purity --method fock`` (purity and entropy) at jmax 40 on
    |2,2>, at g = 100 (unconverged) on every other round, plus ``figure
    fig7``.  Light block: purities at jmax 40 on |1,1>, the one-excitation
    mix and |3,1> (at g = 100 on every other block), at jmax 24 on |2,2>, at
    jmax 12 on small states in turn, and a 2-point log g sweep at jmax 24 on
    |1,1> or the mix.  The median command is one of the jmax 24 |2,2>,
    jmax 40 |1,1> purities or the sweeps, which cost about the same.
    """
    def g():
        return _log_uniform(rng, 1.0, 100.0)

    out = []
    for r in range(PLANS["fock_basis"].rounds):
        out.append(_purity("jmax40_22", "fock", ("number", 2, 2),
                           {"g": 100.0 if r % 2 == 0 else g(), "mu1": _mu(rng)}, jmax=40))
        out.append(_figure("fig7", f"{outdir}/r{r}"))
        for k in range(reps):
            i = r * reps + k
            small = _FOCK_LIGHT[i % len(_FOCK_LIGHT)] or ("sup", _theta(rng))
            lo, hi = sorted((g(), g()))
            out += [
                _purity("jmax40_11", "fock", ("number", 1, 1), {"g": g(), "mu1": _mu(rng)},
                        jmax=40),
                _purity("jmax40_mix", "fock", ("sup", _theta(rng)), {"g": g(), "mu1": _mu(rng)},
                        jmax=40),
                _purity("jmax40_31", "fock", ("number", 3, 1),
                        {"g": 100.0 if i % 2 == 0 else g(), "mu1": _mu(rng)}, jmax=40),
                _purity("jmax24_22", "fock", ("number", 2, 2), {"g": g(), "mu1": _mu(rng)},
                        jmax=24),
                _purity("jmax12", "fock", small, {"g": g(), "mu1": _mu(rng)}, jmax=12),
                _sweep("g_sweep", "fock", "g", lo, hi, 2,
                       ("number", 1, 1) if i % 2 == 0 else ("sup", _theta(rng)),
                       {"mu1": _mu(rng)}, scale="log", jmax=24),
            ]
    return out


_MAKERS = {"exact_sweeps": _exact, "oracle_grid": _oracle, "fock_basis": _fock}


def commands(workload: str, seed: int, seconds: float, outdir: str) -> list[Command]:
    """The run's whole command list; the same seed and seconds repeat it."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, outdir, reps_for(workload, seconds))
