"""Output checks for every benchmarked command.

An input whose output was recorded in ``digests.json`` must reproduce
those stdout bytes exactly.  Every output, recorded or not, must also
meet the invariants of its command.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
MONOTONE_LINE = "# eps_star_seller strictly increasing in delta: True"
QUARTER = Fraction(1, 4)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests(path: str = DIGESTS_PATH) -> dict:
    """Recorded ``sha256(input key) -> sha256(stdout)``."""
    with open(path) as fh:
        return json.load(fh)["digests"]


def _value(payload, command) -> list:
    problems = []
    for agent in payload["agents"]:
        v = Fraction(agent["with_history"]["rational"])
        bench = Fraction(agent["benchmark"]["rational"])
        gain = Fraction(agent["history_value"]["rational"])
        if v > bench:
            problems.append(f"agent {agent['i']}: with_history {v} > benchmark {bench}")
        if not 0 <= gain <= QUARTER:
            problems.append(f"agent {agent['i']}: history_value {gain} outside [0, 1/4]")
    return problems


def _design(payload, command) -> list:
    return [] if payload["dominance"]["verdict"] is True else ["dominance verdict is not true"]


def _market(payload, command) -> list:
    return [
        f"price {p['i']} = {p['rational']} outside [0, 1/4]"
        for p in payload["prices"]
        if not 0 <= Fraction(p["rational"]) <= QUARTER
    ]


def _verify(payload, command) -> list:
    problems = [] if payload["all_pass"] is True else ["verify.all_pass is not true"]
    if len(payload["results"]) != command.config["corpus"]["count"]:
        problems.append(f"{len(payload['results'])} results for a corpus of "
                        f"{command.config['corpus']['count']}")
    return problems


def _sweep(text, command) -> list:
    lines = text.splitlines()
    grid = command.config["sweep"]
    points = len(grid["delta_grid"]) * len(grid["alpha_grid"]) * len(grid["t_grid"])
    problems = [] if lines and lines[-1] == MONOTONE_LINE else [
        f"monotonicity line reads {lines[-1] if lines else None!r}"
    ]
    if len(lines) != points + 2:
        problems.append(f"{len(lines) - 2} rows for {points} grid points")
    return problems


JSON_INVARIANTS = {"value": _value, "design": _design, "market": _market, "verify": _verify}


def check(command, code: int, text: str, digests: dict) -> list:
    """Problems with one command's result; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    expected = digests.get(sha256(command.key()))
    problems = []
    if expected is not None and expected != sha256(text):
        problems.append("stdout differs from the recorded digest")
    try:
        if command.name == "sweep":
            return problems + _sweep(text, command)
        return problems + JSON_INVARIANTS[command.name](json.loads(text), command)
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        return problems + [f"malformed output: {exc!r}"]
