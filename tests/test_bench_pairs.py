"""tools/bench_pairs.py against a stand-in bench/run.py that prints canned
lines, so nothing here is timed."""

import argparse
import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "results_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# per side, metric values as functions of the seed: the change doubles the
# rate, doubles the tail and leaves the memory's wide spread as it was
STAND_IN = textwrap.dedent("""\
    import argparse, json
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--trace"):
        ap.add_argument(flag)
    a = ap.parse_args()
    seed = int(a.seed)
    with open({log!r}, "a") as f:
        f.write(f"{side} {{a.workload}} {{seed}} {{a.trace}}\\n")
    if seed == {fail_seed}:
        raise SystemExit("synthetic failure")
    values = {{"results_per_s": {rate} + seed % 3, "op_ms_tail": {tail},
              "peak_rss_mb": 10.0 if seed % 2 else 100.0}}
    print("# stand-in")
    print("env " + json.dumps({{"git_commit": {commit!r}, "seed": seed}}))
    print("metric lines are not read")
    print(json.dumps({{"correct": True, "attempted": 5, "failed": {failed},
                      "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in values.items()}}}}))
""")


def make_tree(root: Path, side: str, log: Path, fail_seed: int = -1) -> Path:
    tree = root / side
    (tree / "bench").mkdir(parents=True)
    rate, tail, failed = (30.0, 100.0, 0) if side == "parent" else (60.0, 200.0, 1)
    (tree / "bench" / "run.py").write_text(STAND_IN.format(
        log=str(log), side=side, fail_seed=fail_seed, rate=rate, tail=tail, failed=failed,
        commit=f"{side}-sha"))
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return tree


def test_pairs_alternate_and_the_file_keeps_every_run(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent, change = (make_tree(tmp_path, side, log) for side in ("parent", "change"))
    rc = bench_pairs.main([str(parent), str(change), "--workload", "w1", "--workload", "w2",
                           "--seeds", "1-4", "--label", "t",
                           "--change", "doubles the rate", "--out", str(tmp_path)])
    assert rc == 0
    order = [ln.split()[:3] for ln in log.read_text().splitlines()]
    first = ["parent", "change"]
    expected = [[side, w, str(seed)] for w in ("w1", "w2") for seed in (1, 2, 3, 4)
                for side in (first if seed % 2 else first[::-1])]
    assert order == expected
    assert {ln.split()[3] for ln in log.read_text().splitlines()} == {"0"}

    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(record) == ["about", "change", "change_commit", "command", "parent_commit",
                            "seeds", "runs"]
    assert record["change"] == "doubles the rate"
    assert (record["parent_commit"], record["change_commit"]) == ("parent-sha", "change-sha")
    assert record["command"] == ("python3 bench/run.py --workload WORKLOAD --seed SEED "
                                 "--trace 0")
    assert record["seeds"] == {"w1": [1, 2, 3, 4], "w2": [1, 2, 3, 4]}
    assert [[r["side"], r["workload"], str(r["seed"])] for r in record["runs"]] == expected
    run = record["runs"][0]
    assert set(run) == {"env", "final", "seed", "side", "workload"}
    assert run["env"] == {"git_commit": "parent-sha", "seed": 1}
    assert run["final"]["metrics"]["results_per_s"]["value"] == 31.0

    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("w1: parent failed 0 of 20, correct 4 of 4 runs; "
                      "change failed 4 of 20, correct 4 of 4 runs")
    rows = {ln.split()[0]: ln.split() for ln in out[2:5]}
    # parent rates 31 32 30 31: median 31, quartiles 30.75 and 31.25
    assert rows["results_per_s"][1:] == ["31", "61", "0.016", "4/4", "gain"]
    assert rows["op_ms_tail"][1:] == ["100", "200", "0.000", "0/4", "worse"]
    assert rows["peak_rss_mb"][1:4] == ["55", "55", "1.636"]
    assert rows["peak_rss_mb"][-1] == "unresolved"
    assert out[5].startswith("w2: ") and out[-1] == f"wrote {tmp_path / 'BENCH_t.json'}"


def canned(pairs):
    return [{"workload": "w", "seed": seed, "side": side,
             "final": {"metrics": {"results_per_s": {"value": value}}}}
            for seed, values in enumerate(pairs)
            for side, value in zip(("parent", "change"), values)]


def test_within_bound_when_no_pair_decides():
    row = bench_pairs.compare(canned([(10.0, 10.5), (10.2, 10.1), (10.1, 10.1)]), "w",
                              METRICS[0])
    assert (row["pairs"], row["change_won"], row["verdict"]) == (3, 1, "within bound")


# each parent has IQR/median above the 0.25 bound
@pytest.mark.parametrize("pairs, verdict", [
    # the change wins every pair by more than the parent's IQR (20 of median 30)
    ([(10, 35), (20, 45), (30, 55), (40, 65), (50, 75)], "gain"),
    # every change run beats every parent run, by less than the IQR (20)
    ([(10, 31), (10, 31), (30, 31), (30, 31)], "within bound"),
    # every change run reads worse, or the sides overlap
    ([(10, 9), (10, 9), (30, 9), (30, 9)], "unresolved"),
    ([(10, 9), (10, 31), (30, 9), (30, 31)], "unresolved"),
], ids=["gain", "apart-better", "apart-worse", "overlapping"])
def test_a_wide_parent_spread_is_resolved_only_when_every_change_run_is_better(pairs, verdict):
    row = bench_pairs.compare(canned(pairs), "w", METRICS[0])
    assert row["parent_iqr_over_median"] > 0.25 and row["verdict"] == verdict


def test_a_failing_run_exits_one_and_keeps_the_pairs_before_it(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = make_tree(tmp_path, "parent", log)
    change = make_tree(tmp_path, "change", log, fail_seed=2)
    rc = bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-3",
                           "--label", "t", "--out", str(tmp_path)])
    assert rc == 1
    assert "synthetic failure" in capsys.readouterr().err
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["side"], r["seed"]) for r in record["runs"]] == [("parent", 1), ("change", 1)]


@pytest.mark.parametrize("text", ["5", "5-4", "a-b", "1-"])
def test_malformed_seed_ranges_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="FIRST-LAST"):
        bench_pairs.seed_range(text)
