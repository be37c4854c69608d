"""Run the benchmark on two source trees in alternating pairs, record every
run in a BENCH file and print each end-to-end metric's comparison.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload oracle_grid \\
        --seeds 1601-1610 --label pr16 --change "what the change does"

Each tree is a checkout of this repository.  For every workload (the flag
repeats) and every seed in the inclusive range, both trees run
``bench/run.py --workload W --seed S --trace 0`` as a fresh subprocess, for
the run length ``bench/run.py`` sets: the first seed runs the parent first,
the next the change first, and so on.  From each run the env line, the
``slot`` lines (each slot's median command time), the ``probe`` line (the
machine-speed probes and the scale they gave) and the final JSON line are
kept, so a BENCH file shows which slot moved and whether the probe moved it.
After every pair the runs so far are written to ``BENCH_<label>.json`` in
the directory given by ``--out`` (default: the current one), in the layout
of the BENCH files committed beside this tool.

For each metric named under ``end_to_end`` in the parent tree's
``BENCHMARK.json`` it prints both medians, each side's interquartile range
over its median, in how many pairs the change read better (ties count for
neither side), and each side's median number of machine-speed probes per
run (from the probe lines), so that an "unresolved" verdict shows whether
the parent's spread, the change's spread or a loop too short for its probes
caused it.  The verdict is "gain" when the change won at least nine
pairs in ten and the medians differ by more than the parent's interquartile
range.  Otherwise it is "unresolved" when the parent's spread exceeds the
metric's bound, unless every run of the change reads better than every run
of the parent; "worse" when the change's median is worse than the
parent's by more than the bound; and "within bound" else.  Exits 1 when a
run fails.  Standard library only; imports nothing from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ABOUT = ("Benchmark runs of the parent commit and of the change, in alternating pairs "
         "(per workload, the first seed runs the parent first, the next seed the change "
         "first, and so on; runs are listed in the order they ran). Each run holds the env "
         "line, the slot lines, the probe line and the final JSON line printed by the "
         "command below, from a fresh subprocess in each tree.")


def seed_range(text: str) -> list[int]:
    """Seeds of an inclusive range ``FIRST-LAST``."""
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1)) if sep else []
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST with FIRST <= LAST, got {text!r}")
    return seeds


def bench_argv(workload: str, seed) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The env line, slot lines, probe line and final JSON line of one
    benchmark run in ``tree``."""
    proc = subprocess.run([sys.executable, *bench_argv(workload, seed)], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.splitlines()
    env = [json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env ")]
    probe = [ln for ln in lines if ln.startswith("probe ")]
    if len(env) != 1 or len(probe) != 1 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: expected one env line, one probe line and a final "
                           "JSON line")
    return {"env": env[0], "slots": [ln for ln in lines if ln.startswith("slot ")],
            "probe": probe[0], "final": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(runs: list[dict], workload: str, metric: dict) -> dict:
    """One metric on one workload: both medians, the parent's spread, pairs
    the change won and the verdict."""
    name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
    by_seed: dict[int, dict] = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = \
                run["final"]["metrics"][name]["value"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = spread_over_median(parent)
    won = sum(c > p if higher else c < p for p, c in zip(parent, change))
    gain = med_c - med_p if higher else med_p - med_c
    apart = min(change) > max(parent) if higher else max(change) < min(parent)
    if won >= 0.9 * len(pairs) and gain > q3 - q1:
        verdict = "gain"
    elif not spread <= bound and not apart:
        verdict = "unresolved"
    elif -gain > bound * abs(med_p):
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"name": name, "pairs": len(pairs), "parent_median": med_p, "change_median": med_c,
            "parent_iqr_over_median": spread,
            "change_iqr_over_median": spread_over_median(change), "change_won": won,
            "verdict": verdict}


def spread_over_median(values: list[float]) -> float:
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def median_probes(runs: list[dict], workload: str) -> dict[str, float]:
    """Per side, the median number of machine-speed probes of a run, read
    from the ``n=`` field of each run's probe line."""
    return {side: statistics.median(int(r["probe"].split()[1].removeprefix("n="))
                                    for r in runs
                                    if r["workload"] == workload and r["side"] == side)
            for side in SIDES}


def summary(runs: list[dict], workload: str, metrics: list[dict]) -> list[str]:
    mine = [r for r in runs if r["workload"] == workload]
    counts = {side: [r["final"] for r in mine if r["side"] == side] for side in SIDES}
    lines = [f"{workload}: " + "; ".join(
        f"{side} failed {sum(f['failed'] for f in finals)} of "
        f"{sum(f['attempted'] for f in finals)}, correct {sum(f['correct'] for f in finals)} "
        f"of {len(finals)} runs" for side, finals in counts.items())]
    probes = median_probes(runs, workload)
    lines.append(f"  {'metric':<14} {'parent':>12} {'change':>12} {'IQR/median':>10} "
                 f"{'(change)':>10} {'won':>7} {'probes':>7}  verdict")
    for metric in metrics:
        row = compare(runs, workload, metric)
        lines.append(f"  {row['name']:<14} {row['parent_median']:>12.6g} "
                     f"{row['change_median']:>12.6g} {row['parent_iqr_over_median']:>10.3f} "
                     f"{row['change_iqr_over_median']:>10.3f} "
                     f"{row['change_won']:>3}/{row['pairs']:<3} "
                     f"{probes['parent']:>3g}/{probes['change']:<3g}  {row['verdict']}")
    return lines


def dumps(record: dict) -> str:
    """The record as JSON, indented one space, with one line per run."""
    head = json.dumps({k: v for k, v in record.items() if k != "runs"}, indent=1)
    runs = ",\n  ".join(json.dumps(run, sort_keys=True) for run in record["runs"])
    return f'{head[:-2]},\n "runs": [\n  {runs}\n ]\n}}\n'


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent commit's tree")
    ap.add_argument("change", type=Path, help="the change's tree")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of bench/run.py; repeat for more")
    ap.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST, inclusive")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--change", dest="description", default="",
                    help="one line on what the change does")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    path = args.out / f"BENCH_{args.label}.json"
    record = {"about": ABOUT, "change": args.description, "change_commit": None,
              "command": " ".join(["python3", *bench_argv("WORKLOAD", "SEED")]),
              "parent_commit": None, "seeds": {w: args.seeds for w in args.workload},
              "runs": []}
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                try:
                    run = run_once(trees[side], workload, seed)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                record["runs"].append({**run, "seed": seed, "side": side, "workload": workload})
                # null for a tree without .git, such as one made by git archive
                record[f"{side}_commit"] = run["env"].get("git_commit")
            path.write_text(dumps(record))
        print("\n".join(summary(record["runs"], workload, metrics)), flush=True)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
