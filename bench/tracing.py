"""In-memory spans around the package's layer boundaries.

The package itself carries no instrumentation.  :func:`instrument` rebinds
each public function at the name its caller looks it up under (for example
``exact.taylor_coefficient`` for the call inside ``exact.purity_number``, or
``fock.exp_taylor_box`` for the call inside ``fock.coefficient_table``) with
a wrapper that records a span.  The returned callable restores the originals.

A span is (id, name, start, end, parent).  Each thread keeps a stack of open
spans; a span opened on a thread with an empty stack (a sweep pool worker)
is parented to the innermost span open on the client thread, which is
unique because the benchmark drives the CLI from one client.  Self time is a
span's duration minus the part of it covered by the union of its children's
intervals, so overlapping children in pool threads are not counted twice.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "instrument", "self_times", "layer_metrics", "LAYERS"]

LAYERS = ("taylor", "exact", "fock", "grid", "cli", "acceptance", "gaussian", "system")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from pool threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list[Span] = []
        self._client_thread = threading.get_ident()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._client_stack:
            parent = self._client_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, self.clock(), parent, attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counts[key] += amount

    def parent_name(self) -> str | None:
        stack = self._stack()
        if stack:
            return stack[-1].name
        return self._client_stack[-1].name if self._client_stack else None


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.id: s.duration - _union_length(children[s.id]) for s in spans}


# ----------------------------------------------------------------------
# instrumentation of the package
# ----------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(tracer, args, kwargs) if before is not None else {}
        span = tracer.open(name, **attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _count_box(tracer: Tracer, args, kwargs):
    """Work of one exp_taylor_box call, computed from its caps.

    cells = prod(caps + 1), bytes = cells * itemsize of the coefficient array,
    steps = sum(caps) // 2 expansion orders.  The coefficients the caller
    reads: the whole (j, k) plane for fock.coefficient_table, one entry for
    every other caller.
    """
    M, caps = args[0], tuple(int(c) for c in args[1])
    cells = math.prod(c + 1 for c in caps)
    itemsize = 16 if getattr(M, "dtype", None) is not None and M.dtype.kind == "c" else 8
    used = (caps[0] + 1) * (caps[1] + 1) if tracer.parent_name() == "fock.coefficient_table" else 1
    tracer.count("taylor.cells", cells)
    tracer.count("taylor.bytes", cells * itemsize)
    tracer.count("taylor.steps", sum(caps) // 2)
    tracer.count("taylor.used", used)
    return {"dim": len(caps)}


def _count_samples(tracer: Tracer, args, kwargs):
    import numpy as np

    x1, x2 = args[2], args[3]
    tracer.count("grid.samples", int(np.broadcast(np.asarray(x1), np.asarray(x2)).size))
    return {}


def _sweep_workers(tracer: Tracer, args, kwargs):
    """Threads the sweep pool will run: the pool cap, or fewer points."""
    from oscillent import cli

    try:
        points = int(args[0].range.split(":")[2])
    except (AttributeError, IndexError, ValueError):
        points = 1
    try:
        cap = cli._threads()
    except ValueError:  # a bad OSCILLENT_THREADS fails the command itself
        cap = 1
    return {"workers": max(1, min(cap, points))}


def instrument(tracer: Tracer):
    """Rebind the package's layer entry points with span wrappers.

    Returns a callable that restores every original binding.
    """
    from oscillent import acceptance, cli, exact, fock, gaussian, grid, taylor
    from oscillent.system import OscillatorSystem, Superposition

    # (owner, attribute, span name, pre-call counter hook)
    sites = [
        (taylor, "exp_taylor_box", "taylor.exp_taylor_box", _count_box),
        (fock, "exp_taylor_box", "taylor.exp_taylor_box", _count_box),
        (exact, "taylor_coefficient", "taylor.taylor_coefficient", None),
        (exact, "build_M", "exact.build_M", None),
        (exact, "build_M_from_A", "exact.build_M_from_A", None),
        (exact, "purity_number", "exact.purity_number", None),
        (fock, "purity_number", "exact.purity_number", None),
        (exact, "purity_number_unbound", "exact.purity_number_unbound", None),
        (exact, "purity_superposition", "exact.purity_superposition", None),
        (fock, "purity_superposition", "exact.purity_superposition", None),
        (exact, "purity_coherent", "gaussian.purity_coherent", None),
        (gaussian, "purity_coherent", "gaussian.purity_coherent", None),
        (gaussian, "purity_unbound_gaussian", "gaussian.purity_unbound_gaussian", None),
        (fock, "coefficient_table", "fock.coefficient_table", None),
        (fock, "purity_truncated", "fock.purity_truncated", None),
        (fock, "entropy_truncated", "fock.entropy_truncated", None),
        (fock, "convergence_run", "fock.convergence_run", None),
        (grid, "eval_wavefunction", "grid.eval_wavefunction", _count_samples),
        (grid, "schmidt_from_samples", "grid.schmidt_from_samples", None),
        (grid, "schmidt_analyze", "grid.schmidt_analyze", None),
        (acceptance, "method_purity", "acceptance.method_purity", None),
        (cli, "compute_purity", "cli.compute_purity", None),
        (cli, "_cmd_sweep", "cli.sweep", _sweep_workers),
        (cli, "_sweep_point", "cli.sweep_point", None),
    ]
    saved = []
    for owner, attr, name, hook in sites:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, hook))

    # alternate constructors are classmethods: wrap the underlying function
    for cls, attr in ((OscillatorSystem, "from_dimensionless"),
                      (OscillatorSystem, "from_untrapped"),
                      (Superposition, "two_mode_mix")):
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, classmethod(_wrap(tracer, f"system.{attr}", original.__func__)))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# per-layer metrics from a finished trace
# ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer, results: int) -> dict[str, float]:
    """Reduce spans and counters to the per-layer metrics.

    ``results`` is the number of purity values the traced commands emitted.
    """
    spans = [s for s in tracer.spans if not math.isnan(s.end)]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    box_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += selfs[s.id]
        if s.name == "taylor.exp_taylor_box":
            box_s[s.attrs.get("dim")] += s.duration
    c = tracer.counts
    wall = total["cli.run"]

    def ratio(a, b):
        return a / b if b else 0.0

    box = total["taylor.exp_taylor_box"]
    m = {
        "taylor.exp_taylor_box.calls": calls["taylor.exp_taylor_box"],
        "taylor.exp_taylor_box.s": box,
        "taylor.box8.s": box_s[8],
        "taylor.box4.s": box_s[4],
        "taylor.cells": c["taylor.cells"],
        "taylor.bytes": c["taylor.bytes"],
        "taylor.steps": c["taylor.steps"],
        "taylor.cells_per_s": ratio(c["taylor.cells"], box),
        "taylor.used_ratio": ratio(c["taylor.used"], c["taylor.cells"]),
        "exact.build_M.calls": calls["exact.build_M"],
        "exact.build_M.s": total["exact.build_M"],
        "exact.build_M_from_A.calls": calls["exact.build_M_from_A"],
        "exact.build_M_from_A.s": total["exact.build_M_from_A"],
        "exact.purity_number.self_s": self_s["exact.purity_number"],
        "exact.purity_number_unbound.self_s": self_s["exact.purity_number_unbound"],
        "exact.purity_superposition.self_s": self_s["exact.purity_superposition"],
        "exact.taylor_calls_per_result": ratio(calls["taylor.taylor_coefficient"], results),
        "fock.coefficient_table.calls": calls["fock.coefficient_table"],
        "fock.coefficient_table.self_s": self_s["fock.coefficient_table"],
        "fock.purity_truncated.self_s": self_s["fock.purity_truncated"],
        "fock.entropy_truncated.self_s": self_s["fock.entropy_truncated"],
        "fock.convergence_run.s": total["fock.convergence_run"],
        "fock.tables_per_result": ratio(calls["fock.coefficient_table"], results),
        "grid.eval_wavefunction.s": total["grid.eval_wavefunction"],
        "grid.samples": c["grid.samples"],
        "grid.samples_per_s": ratio(c["grid.samples"], total["grid.eval_wavefunction"]),
        "grid.schmidt_from_samples.s": total["grid.schmidt_from_samples"],
        "grid.schmidt_analyze.self_s": self_s["grid.schmidt_analyze"],
        "grid.schmidt_share": ratio(total["grid.schmidt_from_samples"],
                                    total["grid.schmidt_analyze"]),
        "cli.run.calls": calls["cli.run"],
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.compute_purity.calls": calls["cli.compute_purity"],
        "cli.compute_purity.s": total["cli.compute_purity"],
        "acceptance.method_purity.calls": calls["acceptance.method_purity"],
        "acceptance.method_purity.s": total["acceptance.method_purity"],
        "gaussian.s": sum(v for k, v in total.items() if k.startswith("gaussian.")),
        "system.s": sum(v for k, v in total.items() if k.startswith("system.")),
    }
    by_id = {s.id: s for s in spans}
    point_s = sweep_cap = 0.0
    for s in spans:
        if s.name == "cli.sweep_point" and s.parent in by_id:
            point_s += s.duration
        elif s.name == "cli.sweep":
            sweep_cap += s.duration * s.attrs["workers"]
    m["cli.pool_busy_ratio"] = ratio(point_s, sweep_cap)
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(
            sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer), wall)
    return m
