"""Cold-process A/B timing of ``hv`` command lines on two source trees.

Each run starts a fresh interpreter that imports ``historyvalue`` from one
tree's ``src/``, then times its command lines through ``historyvalue.cli.main``
in sequence, in one process, with output captured.  Only the commands are
timed, not the interpreter's start or the import.  Runs come in pairs, one per
tree, and the tree that goes first alternates from pair to pair.  Each tree's
times are summarized by their median and quartiles, with the count of pairs
that tree B won, and the two trees' outputs are compared byte for byte.

Usage::

    python tools/ab.py TREE_A TREE_B --runs 30 \\
        --command "verify --config verify.json --seed 0" [--command ...]

``TREE_A`` and ``TREE_B`` are checkout roots, each holding ``src/historyvalue``.
Relative paths in a command are read from the current directory.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

#: The child: import from one tree, run the command lines, report one JSON line.
CHILD = """
import contextlib, hashlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from historyvalue.cli import main
out, codes = io.StringIO(), []
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    for argv in json.loads(sys.argv[2]):
        codes.append(main(argv))
seconds = time.perf_counter() - start
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"seconds": seconds, "codes": codes, "digest": digest}))
"""


def summary(samples) -> tuple:
    """``(median, q1, q3)`` of ``samples``, quartiles by the inclusive method."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q1, q3


def run_once(tree: Path, commands: list) -> dict:
    """One fresh interpreter running ``commands`` on ``tree``'s sources."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree / "src"), json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def report(labels, times, wins: int, same: bool) -> str:
    """The printed summary: each tree's median and quartiles in ms, the pairs
    tree B won, and whether the outputs agree."""
    lines = []
    for label, samples in zip(labels, times):
        median, q1, q3 = (1000 * x for x in summary(samples))
        lines.append(f"{label}: median {median:.2f} ms  q1 {q1:.2f}  q3 {q3:.2f}"
                     f"  ({len(samples)} runs)")
    lines.append(f"B faster in {wins} of {len(times[0])} pairs; "
                 f"outputs {'identical' if same else 'DIFFER'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--runs", type=int, default=30, help="pairs of runs (default 30)")
    parser.add_argument("--command", action="append", required=True,
                        help="one hv command line, without 'hv'; repeat for several")
    args = parser.parse_args(argv)
    commands = [shlex.split(c) for c in args.command]
    trees = (args.tree_a, args.tree_b)
    times, digests, wins = ([], []), set(), 0
    for pair in range(args.runs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        seconds = [0.0, 0.0]
        for side in order:
            result = run_once(trees[side], commands)
            if any(result["codes"]):
                print(f"{trees[side]}: exit codes {result['codes']}", file=sys.stderr)
                return 1
            seconds[side] = result["seconds"]
            times[side].append(result["seconds"])
            digests.add(result["digest"])
        wins += seconds[1] < seconds[0]
    labels = (f"A {args.tree_a}", f"B {args.tree_b}")
    print(report(labels, times, wins, len(digests) == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
