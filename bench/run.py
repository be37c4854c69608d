#!/usr/bin/env python3
"""oscillent benchmark: closed-loop CLI workloads with output checks.

    python3 bench/run.py --workload exact_sweeps --seed 1 --seconds 20 --trace 0

One client in this process calls ``oscillent.cli.run(argv)`` and sends the
next command only when the previous one has returned.  Commands come from
``workloads.py``: a fixed list made from ``--seed`` and sized from
``--seconds``, so the commands attempted depend on nothing else.  Outputs
are checked after the timed loop (``checks.py``), so reference values count
toward no metric.  Command times are scaled to the nominal machine speed of
a probe timed between commands (``calibrate.py``); the unscaled figures are
printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with spans around the package's layers (``tracing.py``) and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The package is imported from
``src/`` next to this directory; without it the benchmark exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from stats import round_rate, tail  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SETUP_REPEATS = 5
PROBE_EVERY_S = 0.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# one small command per workload that touches its routes before timing
WARMUP = {
    "exact_sweeps": ["sweep", "--method", "exact", "--param", "mu1", "--range", "0.2:0.8:2",
                     "--g", "2", "--state", "number:2,2"],
    "oracle_grid": ["purity", "--method", "oracle", "--n-points", "256", "--g", "2",
                    "--mu1", "0.4", "--state", "number:1,1"],
    "fock_basis": ["purity", "--method", "fock", "--jmax", "24", "--g", "2",
                   "--mu1", "0.4", "--state", "number:1,1"],
}


END_TO_END_UNITS = {"results_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer units by the last part of the name; taylor work sizes are
# computed from the caps, not measured, and their units say so
_COMPUTED_UNITS = {"cells": "cell.computed", "bytes": "B.computed", "steps": "step.computed"}
_SUFFIX_UNITS = {"calls": "count", "s": "s", "self_s": "s", "samples": "count",
                 "samples_per_s": "1/s", "cells_per_s": "cell/s", "bytes_out": "B",
                 "results_per_s": "1/s"}


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if name.startswith("taylor.") and last in _COMPUTED_UNITS:
        return _COMPUTED_UNITS[last]
    return _SUFFIX_UNITS.get(last, "ratio")


def use_checkout_source():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "oscillent" / "cli.py").is_file():
        raise SystemExit(f"error: no oscillent package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_once(workload: str) -> float:
    """Seconds to import oscillent.cli and run the warm-up command."""
    t0 = time.perf_counter()
    from oscillent import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(WARMUP[workload]))
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"error: warm-up command exited {rc}")
    return elapsed


def setup_in_fresh_process(workload: str) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", workload],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from oscillent import cli

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OSCILLENT_THREADS": os.environ.get("OSCILLENT_THREADS"),
        "sweep_pool_workers": cli._threads(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def execute(cli, argv, tracer=None):
    """Run one command; returns (Outcome, seconds)."""
    from checks import Outcome  # checks imports numpy, so not before set-up is timed

    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.run") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, error = cli.run(list(argv)), None
    except Exception as exc:  # an uncaught error is a failed command, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    return Outcome(rc, out.getvalue(), err.getvalue(), error), elapsed


def closed_loop(cli, workload: str, seed: int, seconds: float, outdir: str, tracer=None):
    """The run's commands in order, each sent when the previous returned,
    with a machine-speed probe between two commands about twice a second.
    Returns (done, probes as (time, seconds), each command's mid time,
    loop wall seconds); times are from the start of the loop."""
    import calibrate  # imports numpy, so not before the first set-up is timed

    done, probes, mids = [], [], []
    start = time.perf_counter()

    def probe():
        probes.append((time.perf_counter() - start, calibrate.probe_seconds(workload)))

    probe()
    last_probe = 0.0
    for cmd in commands(workload, seed, seconds, outdir):
        t0 = time.perf_counter() - start
        outcome, elapsed = execute(cli, cmd.argv, tracer)
        done.append((cmd, outcome, elapsed))
        mids.append(t0 + elapsed / 2)
        if time.perf_counter() - start - last_probe >= PROBE_EVERY_S:
            probe()
            last_probe = time.perf_counter() - start
    return done, probes, mids, time.perf_counter() - start


def bytes_out(cmd, outcome) -> int:
    total = len(outcome.stdout.encode())
    if cmd.spec["kind"] == "figure" and outcome.rc == 0:
        total += sum(os.path.getsize(p) for p in outcome.stdout.split() if os.path.isfile(p))
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_checkout_source()
    if args.setup_probe:
        print(repr(setup_once(args.setup_probe)))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    setups = [setup_once(args.workload)]
    from oscillent import cli

    import calibrate
    import checks
    import tracing

    if not args.trace:
        setups += [setup_in_fresh_process(args.workload) for _ in range(SETUP_REPEATS - 1)]
    env = environment(args.workload, args.seed)

    outdir = BENCH / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = restore = None
    try:
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
        try:
            done, probes, mids, wall = closed_loop(cli, args.workload, args.seed,
                                                   args.seconds, str(outdir), tracer)
        finally:
            if restore is not None:
                restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rng = random.Random(f"check:{args.workload}:{args.seed}")
        verdicts = [checks.check(cmd.spec, outcome, rng) for (cmd, outcome, _) in done]
        nbytes = sum(bytes_out(cmd, outcome) for (cmd, outcome, _) in done)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            outdir.parent.rmdir()

    # command times at the probe's nominal machine speed (calibrate.py)
    probe_s = [s for _, s in probes]
    speed = [calibrate.local_scale(args.workload, probes, t) for t in mids]
    samples = [(cmd.slot, v.results, t * f)
               for (cmd, _, t), v, f in zip(done, verdicts, speed)]
    latencies_ms = [t * 1e3 for (_, _, t) in samples]
    raw_ms = [t * 1e3 for (_, _, t) in done]
    results = sum(v.results for v in verdicts)
    failures = [(cmd, v) for (cmd, _, _), v in zip(done, verdicts) if not v.ok]
    # one round of the workload: its preamble runs once and is left out
    rate = round_rate([s for s, (cmd, _, _) in zip(samples, done) if not cmd.preamble])
    pct, tail_ms = tail(latencies_ms)

    print(f"# oscillent benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    per_slot = defaultdict(list)
    for (slot, _, t), raw in zip(samples, raw_ms):
        per_slot[slot].append((t * 1e3, raw))
    for slot, times in per_slot.items():
        scaled, unscaled = (statistics.median(x) for x in zip(*times))
        print(f"slot {slot:<16} n={len(times):<3} median {scaled:9.1f} ms "
              f"(unscaled {unscaled:9.1f} ms)")
    print(f"commands {len(done)}  results {results}  loop wall {wall:.2f} s")
    print(f"probe n={len(probes)} median {statistics.median(probe_s) * 1e3:.3f} ms "
          f"(min {min(probe_s) * 1e3:.3f}, max {max(probe_s) * 1e3:.3f}); times scaled by "
          f"{min(speed):.4f} to {max(speed):.4f}; unscaled op_ms_p50 "
          f"{statistics.median(raw_ms):.4f} op_ms_tail {tail(raw_ms)[1]:.4f}")
    print(f"failed_frac {len(failures) / len(done):.4f} ratio "
          f"({len(failures)} of {len(done)} commands)")
    for cmd, v in failures:
        tag = "known defect" if v.known_defect else "FAILED"
        print(f"  {tag}: oscillent {' '.join(cmd.argv)}  -- {v.reason}")
    print(f"op_ms_tail is p{pct:.1f} of n={len(latencies_ms)} command latencies "
          f"(10 samples beyond it)")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, results)
        metrics["cli.bytes_out"] = nbytes
        metrics["trace.results_per_s"] = rate
    else:
        metrics = {
            "results_per_s": rate,
            "op_ms_p50": statistics.median(latencies_ms),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        print("setup samples s " + " ".join(f"{s:.4f}" for s in setups))
    units = {name: metric_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = all(v.ok or v.known_defect for v in verdicts)
    print(json.dumps({
        "correct": correct,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
