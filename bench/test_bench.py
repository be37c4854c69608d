"""Tests of the benchmark's own code: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from stats import TAIL_BEYOND, round_rate, tail  # noqa: E402
from workloads import PLANS, WORKLOADS, commands, reps_for  # noqa: E402

from oscillent import cli  # noqa: E402


# ----------------------------------------------------------------------
# command generation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_commands(workload):
    assert commands(workload, 5, 20, "out") == commands(workload, 5, 20, "out")
    assert ([c.argv for c in commands(workload, 5, 20, "out")]
            != [c.argv for c in commands(workload, 6, 20, "out")])


def _shape(c):
    state = c.spec.get("state")
    if state is not None and state[0] != "number":
        state = state[:1] if state[0] == "sup" else state[:2]
    return (c.slot, c.spec.get("method"), state, c.spec.get("count"), c.spec.get("jmax"),
            c.spec.get("n_points"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shape_does_not_depend_on_seed(workload):
    def shape(seed):
        return [_shape(c) for c in commands(workload, seed, 20, "out")]

    assert shape(1) == shape(2) == shape(99)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seconds_size_the_light_blocks_not_the_rounds(workload):
    plan = PLANS[workload]
    assert reps_for(workload, 1) == 1
    assert reps_for(workload, 120) > reps_for(workload, 30)
    for seconds in (1, 20, 120):
        cmds = commands(workload, 1, seconds, "out")
        assert sum(c.preamble for c in cmds) == plan.above
        assert sum(c.slot in plan.heavy for c in cmds) == plan.rounds


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tail_is_the_median_heavy_command(workload):
    """Preamble commands slowest, then the heavy slot, then the rest: the
    11th slowest command is the median command of the heavy slot."""
    plan = PLANS[workload]
    cmds = commands(workload, 3, 20, "out")
    heavy = iter(range(plan.rounds))
    cost = [3000.0 if c.preamble else 2000.0 + next(heavy) if c.slot in plan.heavy else 1.0
            for c in cmds]
    assert tail(cost)[1] == 2000.0 + plan.rounds // 2


@pytest.mark.parametrize("seed", range(1, 11))
def test_every_oracle_run_holds_the_same_two_known_defect_inputs(seed):
    cmds = commands("oracle_grid", seed, 20, "out")
    defect = [c for c in cmds if checks._touches_known_defect(c.spec)]
    assert [(c.slot, c.spec["g"], c.spec["start"]) for c in defect] == [
        ("sweep_number", 0.2, 0.01), ("sweep_mix", 0.2, 0.01)]
    assert [c.spec["state"] for c in defect] == [("number", 2, 2), ("sup", math.pi / 3)]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    pct, value = tail(samples)
    assert value == 90 and pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_smallest_sample_count():
    pct, value = tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_round_rate_ignores_round_count():
    one = [("fig", 100, 1.0), ("a", 1, 0.5), ("b", 2, 0.5)]
    many = [("fig", 100, 1.0)] + [("a", 1, 0.5), ("b", 2, 0.5)] * 7
    assert round_rate(one) == round_rate(many) == pytest.approx(103 / 2.0)


def test_round_rate_uses_each_slot_median_time():
    samples = [("a", 2, 0.5)] * 4 + [("a", 2, 5.0)] + [("b", 1, 1.0)] * 3
    assert round_rate(samples) == pytest.approx(3 / 1.5)


def test_local_scale_uses_the_nearest_probes():
    nominal = calibrate.NOMINAL_S["fock_basis"]
    # slow (2x nominal) for the first ten probes, nominal after
    probes = [(t, 2 * nominal if t < 10 else nominal) for t in range(30)]
    assert calibrate.local_scale("fock_basis", probes, 2.0) == 0.5
    assert calibrate.local_scale("fock_basis", probes, 25.0) == 1.0
    # one outlier among the nearest seven moves nothing
    probes[25] = (25, 50 * nominal)
    assert calibrate.local_scale("fock_basis", probes, 25.0) == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_is_independent_of_the_package(workload):
    assert "oscillent" not in sys.modules["calibrate"].__dict__
    t = calibrate.probe_seconds(workload)
    assert 0.0 < t < 5.0
    assert set(calibrate.NOMINAL_S) == set(calibrate.PROBES) == set(WORKLOADS)


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    root = tr.open("cli.run")
    clock.now = 1.0
    child = tr.open("exact.purity_number")
    clock.now = 2.0
    grandchild = tr.open("taylor.exp_taylor_box")
    clock.now = 5.0
    tr.close(grandchild)
    clock.now = 6.0
    tr.close(child)
    clock.now = 10.0
    tr.close(root)
    selfs = tracing.self_times(tr.spans)
    assert child.parent == root.id and grandchild.parent == child.id
    assert selfs[root.id] == 5.0        # 10 - [1, 6]
    assert selfs[child.id] == 2.0       # 5 - [2, 5]
    assert selfs[grandchild.id] == 3.0


def test_pool_thread_spans_parent_to_open_client_span_and_overlap_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    root = tr.open("cli.run")
    sweep = tr.open("cli.sweep")
    opened = []

    def worker(start, end):
        clock.now = start
        span = tr.open("cli.sweep_point")
        opened.append(span)
        clock.now = end
        tr.close(span)

    # two pool points overlapping on [2, 4] within the sweep's [0, 10]
    for start, end in ((1.0, 4.0), (2.0, 7.0)):
        t = threading.Thread(target=worker, args=(start, end))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    clock.now = 10.0
    tr.close(sweep)
    clock.now = 12.0
    tr.close(root)
    assert all(s.parent == sweep.id for s in opened)
    selfs = tracing.self_times(tr.spans)
    assert selfs[sweep.id] == 10.0 - 6.0    # union of [1, 4] and [2, 7]
    assert selfs[root.id] == 2.0


def test_instrument_restores_originals():
    from oscillent import exact, fock, taylor
    from oscillent.system import OscillatorSystem

    before = (taylor.exp_taylor_box, fock.exp_taylor_box, exact.build_M,
              OscillatorSystem.__dict__["from_dimensionless"])
    tr = tracing.Tracer()
    restore = tracing.instrument(tr)
    try:
        assert taylor.exp_taylor_box is not before[0]
        with contextlib.redirect_stdout(io.StringIO()):
            span = tr.open("cli.run")
            assert cli.run(["purity", "--g", "2", "--mu1", "0.3", "--state", "number:1,1"]) == 0
            tr.close(span)
    finally:
        restore()
    assert (taylor.exp_taylor_box, fock.exp_taylor_box, exact.build_M,
            OscillatorSystem.__dict__["from_dimensionless"]) == before
    names = {s.name for s in tr.spans}
    assert {"cli.compute_purity", "acceptance.method_purity", "exact.purity_number",
            "exact.build_M", "taylor.exp_taylor_box"} <= names
    m = tracing.layer_metrics(tr, results=1)
    assert m["taylor.exp_taylor_box.calls"] == 1
    assert m["taylor.cells"] == 2 ** 8 and m["taylor.used_ratio"] == 1 / 2 ** 8


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    emitted = set(tracing.layer_metrics(tracing.Tracer(), results=1))
    emitted |= {"cli.bytes_out", "trace.results_per_s"}
    assert set(layer) == emitted
    assert all(run.metric_unit(name) == unit for name, unit in layer.items())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return checks.Outcome(rc, out.getvalue(), err.getvalue())


CASES = {
    "exact": (["sweep", "--method", "exact", "--param", "mu1", "--range", "0.2:0.7:2",
               "--scale", "linear", "--state", "number:2,1", "--g", "2.0"],
              {"kind": "sweep", "method": "exact", "param": "mu1", "start": 0.2, "stop": 0.7,
               "count": 2, "scale": "linear", "state": ("number", 2, 1), "g": 2.0}),
    "oracle": (["purity", "--method", "oracle", "--state", "number:1,1", "--g", "2.0",
                "--mu1", "0.4", "--n-points", "256"],
               {"kind": "purity", "method": "oracle", "state": ("number", 1, 1), "g": 2.0,
                "mu1": 0.4, "n_points": 256}),
    "fock": (["purity", "--method", "fock", "--state", "sup:0.7", "--g", "2.0",
              "--mu1", "0.3", "--jmax", "24"],
             {"kind": "purity", "method": "fock", "state": ("sup", 0.7), "g": 2.0,
              "mu1": 0.3, "jmax": 24}),
}


def _last_purity(text: str) -> str:
    if text.lstrip().startswith("{"):
        return repr(json.loads(text)["purity"])
    return text.strip().splitlines()[-1].split(",")[1]


@pytest.mark.parametrize("route", sorted(CASES))
def test_checker_accepts_correct_output(route):
    argv, spec = CASES[route]
    verdict = checks.check(spec, _run(argv), random.Random(0))
    assert verdict.ok, verdict.reason
    assert verdict.results >= 1


@pytest.mark.parametrize("route", sorted(CASES))
@pytest.mark.parametrize("bad", ["perturbed", "nan"])
def test_checker_rejects_bad_value(route, bad):
    argv, spec = CASES[route]
    out = _run(argv)
    value = _last_purity(out.stdout)
    new = "nan" if bad == "nan" else repr(float(value) * (1 - 1e-4))
    if route == "exact":
        head, _, last = out.stdout.rstrip("\n").rpartition("\n")
        out.stdout = head + "\n" + last.replace(value, new) + "\n"
    else:
        record = json.loads(out.stdout)
        record["purity"] = float(new)
        out.stdout = json.dumps(record)
    verdict = checks.check(spec, out, random.Random(0))
    assert not verdict.ok
    assert not verdict.known_defect


@pytest.mark.parametrize("route", sorted(CASES))
def test_checker_rejects_exit_2(route):
    argv, spec = CASES[route]
    out = checks.Outcome(2, "", "error: grid norm defect 1.2e-02 exceeds 1e-3\n")
    verdict = checks.check(spec, out, random.Random(0))
    assert not verdict.ok and verdict.reason.startswith("exit 2")


@pytest.mark.filterwarnings("ignore:discrete norm deviates:RuntimeWarning")
def test_oracle_failure_in_known_defect_region_is_labelled():
    spec = {"kind": "purity", "method": "oracle", "state": ("number", 2, 2), "g": 0.2,
            "mu1": 0.01, "n_points": 512}
    argv = ["purity", "--method", "oracle", "--state", "number:2,2", "--g", "0.2",
            "--mu1", "0.01"]
    verdict = checks.check(spec, _run(argv), random.Random(0))
    assert not verdict.ok and verdict.known_defect
    assert verdict.reason.startswith("exit 2")


def test_fock_bound_covers_unconverged_truncation():
    # g = 100 at jmax 12 is far from converged; the defect bound still holds
    argv = ["purity", "--method", "fock", "--state", "number:1,1", "--g", "100.0",
            "--mu1", "0.3", "--jmax", "12"]
    spec = {"kind": "purity", "method": "fock", "state": ("number", 1, 1), "g": 100.0,
            "mu1": 0.3, "jmax": 12}
    out = _run(argv)
    assert checks.check(spec, out, random.Random(0)).ok
    assert math.isfinite(json.loads(out.stdout)["purity"])
