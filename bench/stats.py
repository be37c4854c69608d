"""Summary statistics of one run's command samples."""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = ["tail", "round_rate"]

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (percentile, value): the value is the 11th largest sample and the
    percentile is the share of samples at or below it, 100 (n - 10) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    ordered = sorted(samples)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def round_rate(samples) -> float:
    """Results per second of one round of the workload: every slot once.

    ``samples`` holds (slot, results, seconds) per command.  Each slot
    contributes its mean results and its median seconds, so the rate does
    not depend on how many commands of a slot the run held, and a command
    slowed by the machine moves it only through its slot's median.
    """
    by_slot = defaultdict(list)
    for slot, results, seconds in samples:
        by_slot[slot].append((results, seconds))
    results = sum(statistics.fmean(r for r, _ in v) for v in by_slot.values())
    seconds = sum(statistics.median(s for _, s in v) for v in by_slot.values())
    return results / seconds
