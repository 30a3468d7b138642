"""Record the SHA-256 digest of each benchmarked command's stdout.

Usage: ``python3 bench/record_digests.py``

Runs every input that seeds ``SHIPPED_SEEDS`` give each workload, one
cycle of passes, and rewrites ``digests.json``.  Run it only at a commit
whose outputs are known to be right: a command that fails or breaks an
invariant stops the recording and writes nothing.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from checks import DIGESTS_PATH, check, sha256  # noqa: E402
from run import WORK_ROOT, Bench  # noqa: E402
from workloads import CYCLE, WORKLOADS  # noqa: E402

SHIPPED_SEEDS = range(5)


def shipped_inputs() -> list:
    """Distinct commands over every workload, shipped seed and pass of a cycle."""
    commands = {}
    for make in WORKLOADS.values():
        for seed in SHIPPED_SEEDS:
            for k in range(CYCLE):
                for command in make(seed, k):
                    commands.setdefault(command.key(), command)
    return list(commands.values())


def main() -> int:
    digests = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        bench = Bench(workdir)
        for command in shipped_inputs():
            result = bench.worker([command], False, bench.config_path(command))["commands"][0]
            problems = check(command, result["code"], result["output"], {})
            if problems:
                print(f"{command.name} {command.args}: {problems}", file=sys.stderr)
                return 1
            digests[sha256(command.key())] = sha256(result["output"])
            print(f"{command.name:<7} {sha256(command.key())[:16]} {digests[sha256(command.key())][:16]}")
    with open(DIGESTS_PATH, "w") as fh:
        json.dump({"seeds": list(SHIPPED_SEEDS), "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
