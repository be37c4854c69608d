"""Machine-speed probes timed between a run's commands.

The machine the benchmark runs on is shared, and its speed drifts by tens
of percent over seconds to minutes, in CPU time as much as in wall time.  A
probe is a fixed computation of the same kind as the workload's main layer,
written here and not imported from the package, so no change to the package
changes it.  The run times a probe about twice a second between commands;
``run.py`` scales each command's time by the nominal probe seconds over the
median of the probes nearest to it in time (``local_scale``).

The ``exact_sweeps`` workload mixes deep boxes, whose arrays (3 MB each)
outgrow the per-core caches, with small boxes that stay in them, and the
machine's slow spells slow the two kinds by different amounts; its probe
times one of each and takes the geometric mean.  Over ten runs this kept
the spreads of its timing metrics at 0.05 to 0.08 (IQR / median), where the
unscaled times spread 0.07 to 0.10 and either probe alone up to 0.09.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "PROBES", "local_scale", "probe_seconds"]


def _box(M: np.ndarray, caps) -> np.ndarray:
    """exp(z^T M z) Taylor box by shifted array additions, as the package's
    ``taylor.exp_taylor_box`` computes it at the commit this was written."""
    dim = len(caps)
    shape = tuple(c + 1 for c in caps)
    term = np.zeros(shape)
    term[(0,) * dim] = 1.0
    total = term.copy()
    mono = []
    for a in range(dim):
        for b in range(a, dim):
            deg = [0] * dim
            deg[a] += 1
            deg[b] += 1
            if any(deg[i] > caps[i] for i in range(dim)):
                continue
            q = M[a, a] if a == b else 2.0 * M[a, b]
            mono.append((tuple(slice(0, shape[i] - deg[i]) for i in range(dim)),
                         tuple(slice(deg[i], shape[i]) for i in range(dim)), q))
    for k in range(1, sum(caps) // 2 + 1):
        new = np.zeros(shape)
        for src, dst, q in mono:
            new[dst] += q * term[src]
        new /= k
        total += new
        term = new
    return total


def _step(M: np.ndarray, caps) -> np.ndarray:
    """One expansion step of ``_box`` on a full array."""
    dim = len(caps)
    shape = tuple(c + 1 for c in caps)
    term = np.ones(shape)
    new = np.zeros(shape)
    for a in range(dim):
        for b in range(a, dim):
            deg = [0] * dim
            deg[a] += 1
            deg[b] += 1
            new[tuple(slice(deg[i], shape[i]) for i in range(dim))] += (
                M[a, b] * term[tuple(slice(0, shape[i] - deg[i]) for i in range(dim))])
    return new


def _matrix(dim: int) -> np.ndarray:
    a = np.random.default_rng(dim).uniform(-0.3, 0.3, (dim, dim))
    return a + a.T


_M4, _M8 = _matrix(4), _matrix(8)
_SVD = np.random.default_rng(0).standard_normal((384, 384))

# workload -> the parts of its probe, each some milliseconds to tens of them;
# a probe's time is the geometric mean of its parts' times
PROBES = {
    "exact_sweeps": (lambda: _step(_M8, (4,) * 8), lambda: _box(_M4, (40, 40, 1, 1))),
    "fock_basis": (lambda: _box(_M4, (40, 40, 1, 1)),),
    "oracle_grid": (lambda: np.linalg.svd(_SVD),),
}


# median probe seconds inside a run on a 2-vCPU x86-64 machine; a command's
# time is scaled by NOMINAL_S / (median of the probes nearest to it)
NOMINAL_S = {"exact_sweeps": 0.0225, "fock_basis": 0.0093, "oracle_grid": 0.048}


def probe_seconds(workload: str) -> float:
    logs = []
    for part in PROBES[workload]:
        t0 = time.perf_counter()
        part()
        logs.append(math.log(time.perf_counter() - t0))
    return math.exp(statistics.fmean(logs))


LOCAL_PROBES = 7


def local_scale(workload: str, probes, t: float) -> float:
    """NOMINAL_S over the median of the probes nearest in time to ``t``;
    ``probes`` holds (time, seconds)."""
    near = sorted(probes, key=lambda p: abs(p[0] - t))[:LOCAL_PROBES]
    return NOMINAL_S[workload] / statistics.median(s for _, s in near)
