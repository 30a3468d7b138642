"""Generated malformed configs never crash ``hv``.

Each case writes one generated config (a well-formed config with up to
three fields drawn anew, malformed or removed, any other JSON value, or
text that is not JSON) and runs one ``hv`` subcommand on it, sometimes
with ``--seed``, ``--horizon`` or ``--tol``.  Whatever the input, ``hv`` must end with a
documented exit code, 0, 2 (parse), 3 (validation) or 4 (cap), and write
no traceback.

Numbers are kept small (integers in [-3, 9], floats in [-10, 10], and
free text without digits) so that the configs that do run stay cheap:
a well-formed ``corpus.count`` may be as large as ``design.CORPUS_CAP``
and would run for about a second.  ``stickiness`` also draws from
[10, 5000], where ``d^t`` underflows as a float and a value past
``market.STICKINESS_CAP`` exits 4; it stays cheap there for every
subcommand but ``sweep``, whose ``t_grid`` keeps to small values: its
search takes about a second per grid point at ``t`` near the cap.
"""

import contextlib
import io
import json
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from historyvalue.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main

COMMANDS = ("value", "design", "market", "verify", "sweep")
DOCUMENTED = {EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_CAP}

RATIONAL_TEXT = ["1/2", "1/3", "2/3", "0", "1", "0/1", "1/1", "-1/3", "3/2", "1/0",
                 "0.25", "1e-3", "nan", "inf", "", " 1/2", "1//2"]
#: A generated field value that removes the field.
DELETE = object()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(-10, 10),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.5, 1.0, 0.0]),
    st.sampled_from(RATIONAL_TEXT),
    st.text(alphabet="ab/.-e ", max_size=5),
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "pH", "pL", "signals", "x"]), inner, max_size=3),
    max_leaves=6,
)
rationals = st.sampled_from(RATIONAL_TEXT) | junk
integers = st.integers(-3, 9) | junk


def mutated(base: dict, changes: dict) -> dict:
    """``base`` with each changed field replaced, or removed for ``DELETE``."""
    out = {key: value for key, value in base.items() if changes.get(key) is not DELETE}
    out.update((key, value) for key, value in changes.items() if value is not DELETE)
    return out


def mutations(base: dict, fields: dict, max_size: int = 2):
    """``base`` with one of ``fields`` drawn from its own strategy or removed,
    or with up to ``max_size`` of them replaced by junk or removed."""
    return st.one_of(*(
        st.fixed_dictionaries({key: strategy | st.just(DELETE)}) for key, strategy in fields.items()
    )).map(lambda change: mutated(base, change)) | st.dictionaries(
        st.sampled_from(sorted(fields)), junk | st.just(DELETE), max_size=max_size,
    ).map(lambda changes: mutated(base, changes))


SIGNALS = [{"id": "a", "pH": "1/2", "pL": "1/6"}, {"id": "b", "pH": "1/3", "pL": "1/3"},
           {"id": "c", "pH": "1/6", "pL": "1/2"}]
signal = st.sampled_from(SIGNALS).flatmap(
    lambda base: mutations(base, {"id": st.sampled_from(["a", "b", "c"]) | junk,
                                  "pH": rationals, "pL": rationals}, max_size=1)
)
structure = st.one_of(
    st.lists(st.sampled_from(SIGNALS) | signal, max_size=4).map(lambda s: {"signals": s}),
    st.fixed_dictionaries({"signals": junk}),
    junk,
)
corpus = mutations({"count": 3, "max_signals": 3, "max_denominator": 6},
                   {"count": integers, "max_signals": integers, "max_denominator": integers})
sweep = mutations(
    {"delta_grid": ["1/2"], "alpha_grid": ["1/3"], "t_grid": [1, 2]},
    {"delta_grid": st.lists(rationals, max_size=3) | junk,
     "alpha_grid": st.lists(rationals, max_size=3) | junk,
     "t_grid": st.lists(integers, max_size=3) | junk},
)
#: A well-formed config for every subcommand, before mutation.
BASE = {"ternary_eps": "1/3", "horizon": 3, "delta": "1/2", "alpha": "1/3", "stickiness": 2,
        "tolerance": "1/1000", "corpus": {"count": 3}, "sweep": {"delta_grid": ["1/2"]}}
configs = mutations(
    BASE,
    {"structure": structure,
     "structure_file": st.sampled_from([".", "missing.json", ""]) | junk,
     "ternary_eps": rationals, "horizon": integers, "tolerance": rationals, "seed": integers,
     "delta": rationals, "alpha": rationals, "stickiness": integers | st.integers(10, 5000),
     "corpus": corpus | junk, "sweep": sweep | junk},
    max_size=3,
)
config_texts = st.one_of(
    configs.map(json.dumps),
    junk.map(json.dumps),
    st.sampled_from(["", "{", "not json", "[1, 2", '{"horizon": }']),
)
flags = st.lists(
    st.tuples(st.sampled_from(["--seed", "--horizon", "--tol"]),
              st.sampled_from(["0", "1", "3", "-1", "9", "x", "1/2", "1/1000", "", "2.5"])),
    max_size=2,
    unique_by=lambda flag: flag[0],
)


def run_hv(command: str, text: str, extra) -> tuple:
    """Exit code and stderr of ``hv command --config <text> extra...``; an
    exception out of ``main`` is a crash, reported with its traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        err = io.StringIO()
        argv = [command, "--config", str(path), *(part for flag in extra for part in flag)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag's value
                code = exc.code
            except Exception:
                pytest.fail(f"hv {' '.join(argv)} on {text!r} crashed:\n{traceback.format_exc()}")
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=config_texts, extra=flags)
def test_malformed_config_ends_in_a_documented_code(command, text, extra):
    code, err = run_hv(command, text, extra)
    assert code in DOCUMENTED, (code, err)
    assert "Traceback" not in err
