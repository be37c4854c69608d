"""Run a fixed list of CLI commands in two source trees and name every
difference in exit code, stdout, stderr or emitted files.

    python3 tools/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its package is imported from
TREE/src.  Every command runs as ``python -m oscillent.cli ...`` in a fresh
empty directory, so the files it writes are compared by their names
relative to that directory.  The list covers purity on every route and
state kind, sweeps in every gauge and on every route (exact sweeps in
chunks of block reads, the others point by point), covariance,
oracle-compare, fig1-fig7 and the commands that exit 1, 2 or 3, among them
a 10^5-point sweep whose flags name two gauges, a sweep whose second point
fails, a 3-point sweep whose last two points fail differently, a 99-point
sweep whose first failing point lies in its second chunk, a negative
truncation, an angle that divides by zero, an empty
``--criteria`` and the oracle gate's failing path.  It also holds inputs at
the edges of the float range: grid caps whose byte count overflows a float,
closed forms whose direct root overflows or drops an underflowed term, exact
purities whose generator entries are rescaled (g = 1e300, hbar = 1e300), an
oracle Gram matrix that is rescaled, and the failures that exit 2 with one
error line (an overflow or invalid value in numpy and in Python arithmetic,
and a generator out of the float range, also in an exact sweep), so a
warning, a traceback or a NaN that comes back shows as a difference.
Spreading packets at extreme tau and c, whose kernel forms are
ill-conditioned, pin down the packet's closed-form block; oracle grids whose
norm defect lies between 6e-7 and 1e-3 pin down the norm gate; and a trap
whose g overflows and a c whose omega leaves the float range pin down the
refusals that keep every record valid JSON.  The line number
in a warning's ``<tree>/...py:LINE`` is masked, so moving code does not
count as a difference.  Oracle purities on an odd number of points, on a
superposition that mixes parities, on an even superposition and on a
spreading packet with even m pin down which inputs the oracle folds by
parity, and two at 1024^2, a folded number state and a coherent state
sampled as one block, pin down the factor route of an oversampled grid.
Exact number states at the order cap and off the diagonal (|5,3>, |3,5>,
|6,2>, |8,0>, |0,8>), |4,4> at mu1 = 0.5, where the generator's s entries
vanish and so change its coupling pattern, an exact mu1 sweep through 0.5
and ``unbound:8,2`` pin down the corner read of a single coefficient.  A
complex three-term superposition at mu1 = 0.3 and at 0.5, and an exact
sweep of the one-excitation mix through mu1 = 0.5, pin down the one read
of all a superposition's cross terms.  Exact sweeps read in chunks of
stacked points pin down the block reads: 99 |4,4> points through
mu1 = 0.5 (two chunks, two coupling patterns), a log g sweep of |3,3>,
tau sweeps of ``unbound:3,0`` and ``unbound:8,0`` (complex generators), a
40-point theta sweep (one generator, one union cone) and a three-term
superposition over 40 mass fractions.
Every stdout line and file line that is a JSON record (it starts with
``{``) or a ``# params:`` line must parse as strict JSON, without NaN or
infinities; one that does not counts as a difference, even when both trees
print it.  Prints one line per command and exits 1 if any command differs.
Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

G5 = ["--g", "5", "--mu1", "0.3"]
FREE = ["--c", "2", "--mu1", "0.3"]
SUP = "superposition:0,1,0.6;1,0,0.8j"
PHYSICAL = ["--m1", "1.3", "--m2", "2.1", "--omega", "7", "--Omega", "2"]

COMMANDS = [
    # purity on every route and state kind
    ["purity", "--g", "1", "--mu1", "0.5", "--state", "number:0,1"],
    ["purity", *G5, "--state", "number:2,1"],
    ["purity", "--g", "3", "--mu1", "0.4", "--state", "number:4,4"],
    ["purity", *G5, "--state", "number:8,0"],
    # the corner read's edges: orders off the diagonal and at the cap, and a
    # coupling pattern with the s entries zero (mu1 = 0.5), also in a sweep
    ["purity", *G5, "--state", "number:5,3"],
    ["purity", *G5, "--state", "number:3,5"],
    ["purity", *G5, "--state", "number:6,2"],
    ["purity", *G5, "--state", "number:0,8"],
    ["purity", "--g", "3", "--mu1", "0.5", "--state", "number:4,4"],
    ["sweep", "--param", "mu1", "--range", "0.1:0.9:9", "--g", "5", "--state", "number:4,4"],
    # a superposition's one read of all its cross terms: a complex three-term
    # state at both coupling patterns, and an exact mix sweep through 0.5
    ["purity", *G5, "--state", "superposition:2,2,0.6;0,4,0.64;1,0,0.48j"],
    ["purity", "--g", "5", "--mu1", "0.5", "--state", "superposition:2,2,0.6;0,4,0.64;1,0,0.48j"],
    ["sweep", "--param", "mu1", "--range", "0.1:0.9:9", "--g", "5", "--state", "sup:pi/3"],
    ["purity", *G5, "--state", "coherent:0.7+0.4j,-0.3+1.1j"],
    ["purity", *G5, "--state", "sup:pi/6"],
    ["purity", *G5, "--state", SUP],
    ["purity", *G5, "--state", "superposition:0,0,0.6;2,2,0.8"],
    # the zero coefficient's |0,5> is not part of the state: it counts toward
    # neither the cross-term cap nor the oracle grid nor the fock box
    ["purity", *G5, "--state", "superposition:0,1,1;0,5,0"],
    ["purity", *G5, "--state", "superposition:0,1,1;0,5,0", "--method", "oracle"],
    ["purity", *G5, "--state", "superposition:0,1,1;0,5,0", "--method", "fock"],
    ["purity", *G5, "--state", "sup:2*pi/3"],
    ["purity", *FREE, "--state", "unbound:1,5"],
    ["purity", *FREE, "--state", "unbound:8,2"],
    ["purity", *G5, "--state", "coherent:", "--method", "analytic"],
    ["purity", *G5, "--state", "number:0,0", "--method", "analytic"],
    ["purity", *FREE, "--state", "unbound:0,5", "--method", "analytic"],
    ["purity", *G5, "--state", "number:1,2", "--method", "fock"],
    ["purity", *G5, "--state", SUP, "--method", "fock", "--jmax", "20"],
    ["purity", *G5, "--state", "number:0,1", "--method", "fock", "--jmax", "6",
     "--kmax", "8", "--gamma1", "0.8", "--gamma2", "1.2"],
    ["purity", "--g", "100", "--mu1", "0.3", "--state", "number:2,2", "--method", "fock",
     "--jmax", "40"],
    ["purity", *G5, "--state", "sup:1.0", "--method", "fock", "--jmax", "40"],
    ["purity", "--g", "3", "--mu1", "0.35", "--state", "number:2,2", "--method", "oracle"],
    ["purity", *G5, "--state", "coherent:0.7+0.4j,-0.3+1.1j", "--method", "oracle"],
    ["purity", *G5, "--state", SUP, "--method", "oracle"],
    ["purity", *FREE, "--state", "unbound:1,5", "--method", "oracle"],
    ["purity", *G5, "--state", "sup:pi/3", "--method", "oracle", "--n-points", "256"],
    ["purity", "--m1", "1.3", "--m2", "2.1", "--omega", "7", "--Omega", "2",
     "--state", "number:1,1", "-o", "rec.json"],
    ["covariance", "--g", "4", "--mu1", "0.3"],
    # sweeps
    ["sweep", "--param", "mu1", "--range", "0.01:0.99:25", "--g", "5",
     "--state", "number:4,4", "-o", "s.csv"],
    # a 2-point exact sweep of a heavy box and a 9-point theta sweep, each one chunk
    ["sweep", "--param", "mu1", "--range", "0.2:0.8:2", "--g", "5", "--state", "number:4,4"],
    ["sweep", "--param", "theta", "--range", "0:3:9", *G5],
    # block reads: 99 points through mu1 = 0.5 in two chunks, a log g sweep, a
    # packet's complex tau sweep, a long theta sweep and a three-term state
    # over mu1, each chunk stacked by coupling pattern
    ["sweep", "--param", "mu1", "--range", "0.01:0.99:99", "--g", "5", "--state", "number:4,4"],
    ["sweep", "--param", "g", "--range", "0.2:5:4", "--scale", "log", "--mu1", "0.3",
     "--state", "number:3,3"],
    ["sweep", "--param", "tau", "--range", "0:8:9", *FREE, "--state", "unbound:3,0"],
    ["sweep", "--param", "tau", "--range", "0:8:40", "--c", "0.7", "--mu1", "0.5",
     "--state", "unbound:8,0"],
    ["sweep", "--param", "theta", "--range", "0:3.14:40", "--g", "5", "--mu1", "0.5"],
    ["sweep", "--param", "mu1", "--range", "0.01:0.99:40", "--g", "5",
     "--state", "superposition:2,2,0.6;0,4,0.64;1,0,0.48j"],
    ["sweep", "--param", "g", "--range", "0.1:100:20", "--scale", "log", "--mu1", "0.3",
     "--state", "number:1,1"],
    ["sweep", "--param", "tau", "--range", "0:10:20", "--c", "2", "--mu1", "0.3",
     "--state", "unbound:2,0"],
    ["sweep", "--param", "theta", "--range", "0:3.14:20", "--g", "1", "--mu1", "0.4"],
    ["sweep", "--param", "c", "--range", "0.5:5:10", "--mu1", "0.3",
     "--state", "unbound:0,1", "--method", "analytic"],
    ["sweep", "--param", "mu1", "--range", "0.1:0.9:9", "--g", "2",
     "--state", "number:1,1", "--method", "oracle"],
    ["sweep", "--param", "g", "--range", "1:10:10", "--mu1", "0.3",
     "--state", "number:0,1", "--method", "fock"],
    ["sweep", "--param", "theta", "--range", "0:3.14:7", *PHYSICAL],
    ["sweep", "--param", "g", "--range", "1:10:4", "--mu1", "0.3",
     "--state", "number:1,1", "--method", "fock", "--jmax", "24"],
    ["sweep", "--param", "mu1", "--range", "0.2:0.8:4", "--g", "3",
     "--state", "number:2,2", "--method", "oracle", "--n-points", "256"],
    ["purity", *FREE, "--state", "unbound:0,1e300", "--method", "analytic"],
    ["oracle-compare", "-o", "oc.csv"],
    *[["figure", f"fig{i}", "--outdir", "out"] for i in range(1, 8)],
    ["figure", "fig4", "--outdir", "out", "--c-convention", "gamma-over-Gamma"],
    # exit 1: usage errors, non-finite and overflowing literals
    ["purity", "--g", "0", "--mu1", "0.5", "--state", "number:0,1"],
    ["purity", *G5, "--state", "nonsense:1"],
    ["purity", *G5, "--state", "number:1,1", "--method", "analytic"],
    ["purity", *G5, "--state", "coherent:", "--method", "fock"],
    ["purity", "--g", "nan", "--mu1", "0.3", "--state", "number:0,1"],
    ["purity", *G5, "--state", "coherent:nan,0"],
    ["purity", *G5, "--state", "coherent:inf,0", "--method", "oracle"],
    ["purity", *G5, "--state", "sup:nan"],
    ["purity", *G5, "--state", "sup:inf", "--method", "fock"],
    ["purity", *G5, "--state", "sup:pi/0"],
    ["purity", *G5, "--state", "superposition:0,1,0.6;1,0,nan"],
    ["purity", *G5, "--state", "superposition:0,1,0.6;1,0,-inf", "--method", "oracle"],
    ["purity", *G5, "--state", "superposition:0,0,1e200;1,0,0"],
    ["purity", *G5, "--state", "superposition:0,1,0.9;1,0,0.9"],
    ["purity", *G5, "--state", "number:1,1", "--method", "fock", "--jmax", "-1"],
    ["sweep", "--param", "theta", "--range", "0:nan:3", "--g", "2", "--mu1", "0.3"],
    # flags of two gauges, or --mu1 beside the physical gauge
    ["purity", "--g", "5", "--c", "2", "--mu1", "0.2", "--state", "number:1,1"],
    ["purity", *PHYSICAL, "--mu1", "0.3", "--state", "number:1,1"],
    ["sweep", "--param", "mu1", "--range", "0.2:0.8:3", "--g", "5", "--c", "2",
     "--state", "number:1,1"],
    ["sweep", "--param", "c", "--range", "0.5:5:3", "--gamma", "2", "--mu1", "0.3",
     "--state", "unbound:0,1"],
    ["sweep", "--param", "g", "--range", "1:10:3", "--c", "2", "--mu1", "0.3",
     "--state", "number:1,1"],
    ["sweep", "--param", "g", "--range", "1:2:100000", "--c", "2", "--mu1", "0.3"],
    # --Gamma or --hbar beside a gauge that does not read them
    ["purity", *G5, "--Gamma", "7", "--hbar", "3", "--state", "number:1,1"],
    ["purity", *FREE, "--hbar", "3", "--state", "unbound:1,1"],
    ["purity", "--m1", "1", "--m2", "2", "--omega", "3", "--Omega", "1", "--Gamma", "5",
     "--state", "number:1,1"],
    ["sweep", "--param", "mu1", "--range", "0.2:0.8:3", "--g", "5", "--hbar", "3"],
    # inputs a command cannot use, the spreading packet on a trapped system among them
    ["purity", *G5, "--state", "unbound:1,2"],
    ["purity", *G5, "--state", "unbound:1,2", "--method", "oracle"],
    ["selftest", "--criteria", "99"],
    ["sweep", "--param", "tau", "--range", "0:1:2", *FREE, "--state", "number:1,1"],
    # a point that fails mid-sweep: the second, mu1 = 1, is outside (0, 1);
    # the middle g of three, then the last, is not positive; and the first
    # failing point of a 99-point sweep lies in its second chunk
    ["sweep", "--param", "mu1", "--range", "0.5:1.5:3", "--g", "2", "--state", "number:1,1"],
    ["sweep", "--param", "g", "--range", "1:-1:3", "--mu1", "0.3", "--state", "number:2,2"],
    ["sweep", "--param", "mu1", "--range", "0.01:1.5:99", "--g", "5", "--state", "number:2,2"],
    # exit 2: numerical consistency
    ["purity", *G5, "--state", "number:2,2", "--method", "oracle", "--n-points", "48"],
    ["purity", *G5, "--state", "number:2,2", "--method", "oracle", "--n-points", "32"],
    ["oracle-compare", "--n-points", "32"],
    # exit 3: resource caps
    ["purity", "--g", "2", "--mu1", "0.5", "--state", "number:9,9"],
    ["purity", "--g", "2", "--mu1", "0.5", "--state", "number:5,4"],
    ["purity", *FREE, "--state", "unbound:9,1"],
    ["purity", *G5, "--state", "superposition:0,0,0.6;0,5,0.8"],
    ["purity", *G5, "--state", "number:1,1", "--method", "fock", "--jmax", "180"],
    ["purity", *G5, "--state", "number:1,1", "--method", "oracle", "--n-points", "100000"],
    ["purity", *FREE, "--state", "unbound:1,1e200", "--method", "oracle"],
    ["purity", *FREE, "--state", "unbound:1,1e200", "--method", "oracle", "--n-points", "64"],
    ["sweep", "--param", "g", "--range", "1:2:2000000", "--mu1", "0.3"],
    # a cap whose byte count would overflow a float: exit 3 with the budget message
    ["purity", *G5, "--state", "number:0,1", "--method", "oracle", "--extent", "1e300"],
    ["purity", *G5, "--state", "number:0,1", "--method", "oracle", "--n-points", "1" + "0" * 200],
    # an empty selection is a usage error, as --criteria , is
    ["selftest", "--criteria", ""],
    # closed forms whose direct root leaves the float range, or drops a
    # gamma^4 tau^2 whose gamma^4 underflows: the scaled form
    ["purity", "--g", "1e300", "--mu1", "0.5", "--state", "coherent:"],
    ["purity", "--c", "1e-100", "--mu1", "0.5", "--state", "coherent:"],
    ["purity", "--c", "1e-100", "--mu1", "0.5", "--state", "unbound:0,0"],
    ["purity", "--c", "1e100", "--mu1", "0.5", "--state", "unbound:0,1e300",
     "--method", "analytic"],
    # the oracle's Gram matrix leaves the float range and is rescaled
    ["purity", "--m1", "1", "--m2", "2", "--omega", "3", "--Omega", "1", "--hbar", "1e-200",
     "--state", "number:1,1", "--method", "oracle"],
    # which oracle inputs are folded by parity: an odd number of points and a
    # superposition mixing parities stay one block; an even superposition and
    # a spreading packet with even m are folded
    ["purity", *G5, "--state", "number:2,2", "--method", "oracle", "--n-points", "201"],
    ["purity", *G5, "--state", "superposition:0,0,0.6;0,1,0.8", "--method", "oracle"],
    ["purity", *G5, "--state", "superposition:0,0,0.6;1,1,0.8", "--method", "oracle"],
    ["purity", *FREE, "--state", "unbound:2,3", "--method", "oracle"],
    # oversampled grids, at least three times the sized points, form no Gram
    # matrix: a folded number state and a coherent state sampled as one block
    ["purity", *G5, "--state", "number:2,2", "--method", "oracle", "--n-points", "1024"],
    ["purity", *G5, "--state", "coherent:0.7+0.4j,-0.3+1.1j", "--method", "oracle",
     "--n-points", "1024"],
    # exact purities whose generator entries are taken from gamma / s and
    # Gamma / s, s = max(gamma, Gamma), also in an exact sweep
    ["purity", "--m1", "1", "--m2", "1", "--omega", "1", "--Omega", "1", "--hbar", "1e300",
     "--state", "number:1,1"],
    ["purity", "--g", "1e300", "--mu1", "0.5", "--state", "number:1,1"],
    ["sweep", "--param", "g", "--range", "1e299:1e300:2", "--mu1", "0.5",
     "--state", "number:1,1"],
    # a sweep whose middle generator leaves the float range: exit 2
    ["sweep", "--param", "g", "--range", "1:1e-300:3", "--scale", "log", "--mu1", "1e-300",
     "--state", "number:1,1"],
    # spreading packets whose kernel forms are ill-conditioned: the
    # closed-form block answers where inverting the form was refused
    ["purity", "--c", "2", "--mu1", "0.5", "--state", "unbound:1,1e8"],
    ["purity", "--c", "2", "--mu1", "0.5", "--state", "unbound:1,1e200"],
    ["purity", "--c", "1e-8", "--mu1", "0.5", "--state", "unbound:1,1"],
    ["purity", "--c", "1e8", "--mu1", "0.5", "--state", "unbound:1,1"],
    ["purity", *FREE, "--state", "unbound:3,1e100"],
    # oracle grids whose norm defect (8.4e-5, 5.0e-4) is above 6e-7: exit 2
    ["purity", "--method", "oracle", *G5, "--state", "coherent:", "--extent", "4"],
    ["purity", "--method", "oracle", "--g", "1", "--mu1", "0.5", "--state", "number:2,2",
     "--n-points", "36"],
    # a g or an omega out of the float range: exit 1, so no record holds an infinity
    ["purity", "--m1", "1", "--m2", "1", "--omega", "1e300", "--Omega", "1e-300",
     "--state", "number:0,0", "--method", "analytic"],
    ["purity", "--c", "1e-300", "--mu1", "0.5", "--state", "unbound:1,1"],
    ["purity", "--c", "1e300", "--mu1", "0.5", "--state", "unbound:1,1"],
    # a c = Gamma / gamma that overflows, in the c/gamma and physical gauges
    ["purity", "--gamma", "1e-10", "--Gamma", "1e300", "--mu1", "0.5", "--state", "unbound:0,1"],
    ["purity", "--m1", "1", "--m2", "1", "--omega", "1e-300", "--Omega", "0", "--Gamma", "1e300",
     "--state", "unbound:0,1"],
    # exit 2 with one error line: floating-point failures, in numpy and in
    # Python arithmetic, and a generator whose gamma underflowed, also in an
    # exact sweep
    ["sweep", "--method", "fock", "--param", "g", "--range", "1e199:1e200:2", "--mu1", "0.5",
     "--state", "number:1,1"],
    ["purity", "--method", "fock", "--g", "1e200", "--mu1", "0.5", "--state", "number:1,1"],
    ["purity", "--m1", "1", "--m2", "1", "--omega", "1e-300", "--Omega", "1", "--hbar", "1e300",
     "--state", "number:1,1"],
    ["purity", "--method", "fock", *G5, "--state", "number:0,1", "--gamma1", "1e300",
     "--gamma2", "1"],
    ["purity", "--g", "1e-300", "--mu1", "1e-300", "--state", "number:1,1"],
    ["sweep", "--param", "g", "--range", "1e-300:1e-299:2", "--mu1", "1e-300",
     "--state", "number:1,1"],
]


def run(tree: Path, argv: list[str]):
    """Exit code, stdout, stderr and {relative name: bytes} of one command,
    with the tree's path in stdout and stderr replaced by ``<tree>`` and the
    line number after a ``<tree>/...py:`` by ``<line>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        proc = subprocess.run([sys.executable, "-m", "oscillent.cli", *argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
    # warnings name the file and line they come from, which lie in the tree
    tree_path = str(tree).encode()

    def masked(text: bytes) -> bytes:
        return re.sub(rb"(<tree>/\S*?\.py:)\d+", rb"\1<line>",
                      text.replace(tree_path, b"<tree>"))

    return proc.returncode, masked(proc.stdout), masked(proc.stderr), files


def first_difference(a: bytes, b: bytes) -> str:
    """The first line where two outputs differ, from each side."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else b"<end>"
        y = lb[i] if i < len(lb) else b"<end>"
        if x != y:
            return f"line {i + 1}: {x[:160]!r} | {y[:160]!r}"
    return "line endings differ"


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def non_strict_records(text: bytes) -> list[str]:
    """The JSON records (lines starting with ``{``) and ``# params:`` lines
    of ``text`` that do not parse as strict JSON, NaN and infinities
    refused, each with the parser's reason."""
    found = []
    for line in text.splitlines():
        if line.startswith(b"{"):
            body = line
        elif line.startswith(b"# params: "):
            body = line[len(b"# params: "):]
        else:
            continue
        try:
            json.loads(body, parse_constant=_refuse_constant)
        except ValueError as exc:
            found.append(f"not strict JSON ({exc}): {line[:160]!r}")
    return found


def differences(old, new) -> list[str]:
    found = []
    if old[0] != new[0]:
        found.append(f"exit {old[0]} | {new[0]}")
    for side, result in (("old", old), ("new", new)):
        outputs = [("stdout", result[1])] + [(f"file {n}", b) for n, b in sorted(result[3].items())]
        found += [f"{side} {name} {problem}" for name, text in outputs
                  for problem in non_strict_records(text)]
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            found.append(f"{name} {first_difference(a, b)}")
    for name in sorted(old[3].keys() | new[3].keys()):
        if name not in new[3]:
            found.append(f"file {name} only in the old tree")
        elif name not in old[3]:
            found.append(f"file {name} only in the new tree")
        elif old[3][name] != new[3][name]:
            found.append(f"file {name} {first_difference(old[3][name], new[3][name])}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(a).resolve() for a in argv)
    differing = 0
    for command in COMMANDS:
        old, new = run(old_tree, command), run(new_tree, command)
        found = differences(old, new)
        differing += bool(found)
        print(f"{'DIFF' if found else 'same'} exit {old[0]}: {' '.join(command)}")
        for line in found:
            print(f"    {line}")
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
