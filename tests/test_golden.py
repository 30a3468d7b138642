"""``hv`` stdout on fixed configs matches recorded files byte for byte.

The cases cover the market surplus paths (dynamic and sticky, on a
non-ternary and a ternary structure), ``hv value`` and ``hv market``
where they relax the tolerance to the cap, ``hv value`` on a ternary
structure (the closed form),
``hv design`` on the benchmark's tie-search fixture and on a ternary
structure, ``hv sweep`` (CSV) at the default and a
tight tolerance, and ``hv verify`` on the benchmark's 200-structure
corpus at two seeds and at a shorter horizon.  The demos' stdout is recorded in the same
directory and compared by ``tests/test_demos.py``.

Re-record every file with ``PYTHONPATH=src python tests/test_golden.py``;
do so only for an intended change of output.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from historyvalue.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

FIXTURE = {
    "signals": [
        {"id": "a", "pH": "1/2", "pL": "1/6"},
        {"id": "b", "pH": "1/3", "pL": "1/3"},
        {"id": "c", "pH": "1/6", "pL": "1/2"},
    ]
}
FIXTURE_MARKET = {"structure": FIXTURE, "delta": "1/4", "tolerance": "1/1000"}
TIE_SEARCH = {"structure": FIXTURE, "delta": "1/4", "alpha": "1/3", "stickiness": 2,
              "tolerance": "1/1000", "horizon": 7}
CORPUS_VERIFY = {"horizon": 6, "corpus": {"count": 200, "max_signals": 4, "max_denominator": 12}}

#: Golden file stem -> (``hv`` subcommand, config[, extra arguments]).
CASES = {
    "market_fixture_t1": ("market", {**FIXTURE_MARKET, "stickiness": 1}),
    "market_fixture_t3": ("market", {**FIXTURE_MARKET, "stickiness": 3}),
    "market_ternary_t1": ("market", {"ternary_eps": "1/3", "stickiness": 1}),
    "market_fixture_relaxed": ("market", {"structure": FIXTURE}),
    "value_fixture_relaxed": ("value", {"structure": FIXTURE}),
    "value_ternary": ("value", {"ternary_eps": "1/3"}),
    "design_fixture_tie_search": ("design", TIE_SEARCH),
    "design_ternary": ("design", {"ternary_eps": "1/3"}),
    "sweep_grid": ("sweep", {"sweep": {
        "delta_grid": ["1/12", "1/3", "1/2", "3/4", "11/12"],
        "alpha_grid": ["1/5", "5/12", "3/5"],
        "t_grid": [1, 2, 3, 5, 8],
    }}),
    "sweep_tight_tolerance": ("sweep", {"tolerance": "1/1000000000000", "sweep": {
        "delta_grid": ["1/12", "1/2", "11/12"],
        "alpha_grid": ["1/4", "9/20"],
        "t_grid": [2, 5, 8],
    }}),
    "verify_corpus_seed0": ("verify", CORPUS_VERIFY, ("--seed", "0")),
    "verify_corpus_seed5": ("verify", CORPUS_VERIFY, ("--seed", "5")),
    "verify_corpus_seed3_h4": ("verify", CORPUS_VERIFY, ("--seed", "3", "--horizon", "4")),
}


def golden_path(name: str) -> Path:
    """Recorded stdout of one case: CSV for ``hv sweep``, JSON otherwise."""
    suffix = ".csv" if CASES[name][0] == "sweep" else ".json"
    return GOLDEN / f"{name}{suffix}"


def hv_stdout(command: str, config: dict, args=()) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), *args])
    assert code == EXIT_OK
    return out.getvalue()


def demo_stdout(demo: Path) -> str:
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert hv_stdout(*CASES[name]) == golden_path(name).read_text()


def test_value_case_relaxes():
    # the fixture at the default tolerance is past the lexicographic cap
    golden = json.loads(golden_path("value_fixture_relaxed").read_text())
    assert golden["tolerance_relaxed"] is True


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        golden_path(name).write_text(hv_stdout(*case))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        (GOLDEN / f"{demo.stem}.txt").write_text(demo_stdout(demo))
