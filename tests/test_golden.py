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
from fractions import Fraction as F
from pathlib import Path

import pytest

from historyvalue import learning
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
    # the fixture at the default tolerance is past the horizon cap
    golden = json.loads(golden_path("value_fixture_relaxed").read_text())
    assert golden["tolerance_relaxed"] is True


#: The truncated series of the two relaxed cases as recorded when the
#: horizon cap was 8, each ``(value, error_bound)``: ``hv value``'s
#: ``social_value`` is ``hv market``'s seller surplus, and the market's
#: social surplus has half its bound.
CAP_8_RECORD = {
    "social_value": ("160103/7962624", "0.0009765625"),
    "seller": ("160103/7962624", "0.0009765625"),
    "social": ("823655/15925248", "0.00048828125"),
}


def relaxed_series() -> dict:
    """Each truncated series of the two relaxed cases, as printed."""
    value = json.loads(hv_stdout(*CASES["value_fixture_relaxed"]))["social_value"]
    surpluses = json.loads(hv_stdout(*CASES["market_fixture_relaxed"]))["surpluses"]
    out = {"social_value": (value["rational"], value["error_bound"])}
    for key in ("seller", "social"):
        out[key] = surpluses[key]["value"], surpluses[key]["error_bound"]
    return out


def test_relaxed_cases_at_cap_8_print_the_old_record(monkeypatch):
    monkeypatch.setattr(learning, "HORIZON_CAP", 8)
    assert relaxed_series() == CAP_8_RECORD


def test_relaxed_cases_lie_inside_the_old_record():
    # each bound is a power of 1/2, printed exactly; [v, v + e] narrows as
    # the cap deepens, never leaving the interval certified at cap 8
    got = relaxed_series()
    assert got.keys() == CAP_8_RECORD.keys()
    for key, (old_value, old_bound) in CAP_8_RECORD.items():
        value, bound = map(F, got[key])
        assert F(old_value) <= value and value + bound <= F(old_value) + F(old_bound), key
        assert bound < F(old_bound), key


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        golden_path(name).write_text(hv_stdout(*case))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        (GOLDEN / f"{demo.stem}.txt").write_text(demo_stdout(demo))
