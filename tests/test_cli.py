import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from historyvalue import beliefs, cli, design, learning, market
from historyvalue.beliefs import structure_from_json, structure_from_payload
from historyvalue.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    _increasing,
    main,
)
from historyvalue.errors import InvariantViolation
from test_golden import CASES, FIXTURE, ROOT, golden_path
from test_search import bench_workloads


#: File contents that ``json`` rejects with an error other than JSONDecodeError.
MALFORMED_BYTES = {
    "long-integer": b'{"horizon": ' + b"1" * 5000 + b"}",  # past the 4300-digit limit
    "deep-array": b"[" * 100000 + b"]" * 100000,  # RecursionError
    "byte-0xff": b"\xff{}",  # not UTF-8
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValue:
    def test_ternary_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"ternary_eps": "1/2", "delta": "1/2", "horizon": 4, "tolerance": "1/1048576"},
        )
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["social_value"]["rational"] == "1/24"
        assert payload["agents"][3]["history_value"]["rational"] == "7/64"

    def test_full_information_zero_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "0", "horizon": 3})
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(a["history_value"]["rational"] == "0/1" for a in payload["agents"])

    def test_inline_structure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "structure": {
                    "signals": [
                        {"id": "s1", "pH": "2/3", "pL": "1/3"},
                        {"id": "s2", "pH": "1/3", "pL": "2/3"},
                    ]
                },
                "horizon": 3,
            },
        )
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["single_payoff"]["rational"] == "1/12"

    def test_structure_file(self, tmp_path, capsys):
        sfile = tmp_path / "structure.json"
        sfile.write_text(
            json.dumps(
                {"signals": [{"id": "a", "pH": "1/1", "pL": "0/1"},
                             {"id": "b", "pH": "0/1", "pL": "1/1"}]}
            )
        )
        cfg = write_config(tmp_path, {"structure_file": str(sfile), "horizon": 2})
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["single_payoff"]["rational"] == "1/4"


class TestErrorCodes:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "value", "--config", str(path))
        assert code == EXIT_PARSE and "parse" in err

    @pytest.mark.parametrize("where", ["config", "structure_file"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_BYTES))
    def test_malformed_bytes(self, tmp_path, capsys, name, where):
        path = tmp_path / "bad.json"
        path.write_bytes(MALFORMED_BYTES[name])
        if where == "structure_file":
            path = write_config(tmp_path, {"structure_file": str(path)})
        code, out, err = run(capsys, "value", "--config", str(path))
        assert code == EXIT_PARSE and out == "" and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "value", "--config", str(tmp_path / "missing.json"))
        assert code == EXIT_PARSE and out == "" and "cannot read config" in err

    def test_invariant_violation_is_internal_error(self, tmp_path, capsys, empty_memo, monkeypatch):
        def failing(node, children, scale):
            raise InvariantViolation("injected")

        monkeypatch.setattr(learning, "_check_node", failing)
        cfg = write_config(tmp_path, {"structure": {"signals": [
            {"id": "s1", "pH": "2/3", "pL": "1/3"}, {"id": "s2", "pH": "1/3", "pL": "2/3"}]}})
        code, out, err = run(capsys, "value", "--config", cfg)
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal error: injected\n"

    def test_missing_structure_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"delta": "1/2"})
        code, _, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_PARSE

    def test_two_structure_sources(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"ternary_eps": "1/2", "structure": {"signals": []}}
        )
        code, _, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_PARSE

    def test_invalid_structure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"structure": {"signals": [{"id": "s", "pH": "1/2", "pL": "1/3"}]}},
        )
        code, _, err = run(capsys, "value", "--config", cfg)
        assert code == EXIT_VALIDATION and "validation" in err

    def test_cap_exceeded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "1/2", "horizon": 30})
        code, _, err = run(capsys, "value", "--config", cfg)
        assert code == EXIT_CAP and "cap" in err

    def test_degenerate_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "1/2", "delta": "1"})
        code, _, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "flag, value, expected",
        [("--horizon", "0", EXIT_VALIDATION), ("--horizon", "-1", EXIT_VALIDATION),
         ("--tol", "", EXIT_PARSE)],
    )
    def test_flag_is_not_ignored(self, tmp_path, capsys, flag, value, expected):
        # a given flag is used even when falsy, never replaced by the config's value
        cfg = write_config(tmp_path, {"ternary_eps": "1/2", "horizon": 3})
        code, out, _ = run(capsys, "value", "--config", cfg, flag, value)
        assert code == expected and out == ""

    @pytest.mark.parametrize(
        "command, payload, expected",
        [
            ("value", {"ternary_eps": "1/2", "horizon": "abc"}, EXIT_PARSE),
            ("value", {"ternary_eps": "1/2", "seed": [1]}, EXIT_PARSE),
            ("market", {"ternary_eps": "1/2", "stickiness": "x"}, EXIT_PARSE),
            ("verify", {"corpus": {"count": "x"}}, EXIT_PARSE),
            ("verify", {"corpus": [1]}, EXIT_PARSE),
            ("verify", {"corpus": {"count": 2, "max_signals": 0}}, EXIT_VALIDATION),
            ("verify", {"corpus": {"count": 2, "max_denominator": 0}}, EXIT_VALIDATION),
            ("sweep", {"sweep": [1]}, EXIT_PARSE),
            ("sweep", {"sweep": {"t_grid": ["two"]}}, EXIT_PARSE),
            ("sweep", {"sweep": {"delta_grid": 5}}, EXIT_PARSE),
            ("sweep", {"sweep": {"delta_grid": "1/2"}}, EXIT_PARSE),
            ("value", {"ternary_eps": "1/2", "horizon": 2.7}, EXIT_PARSE),
            ("value", {"ternary_eps": "1/2", "horizon": True}, EXIT_PARSE),
            ("sweep", {"sweep": {"t_grid": [1.5]}}, EXIT_PARSE),
            ("verify", {"corpus": {"count": -5}}, EXIT_VALIDATION),
            # open() takes an int as a file descriptor: 0 (or false) is stdin, 1 stdout
            ("value", {"structure_file": 0}, EXIT_PARSE),
            ("value", {"structure_file": False}, EXIT_PARSE),
            ("value", {"structure_file": 1}, EXIT_PARSE),
            ("value", {"structure_file": None}, EXIT_PARSE),
            ("value", {"structure_file": ["a.json"]}, EXIT_PARSE),
            # a bool is not a rational
            ("value", {"ternary_eps": True}, EXIT_PARSE),
            ("value", {"ternary_eps": "1/2", "tolerance": True}, EXIT_PARSE),
            ("value", {"ternary_eps": "1/2", "delta": True}, EXIT_PARSE),
            ("value", {"structure": {"signals": [{"id": "s", "pH": True, "pL": 1}]}},
             EXIT_PARSE),
            # a dominance check over no structures would pass vacuously
            ("verify", {"corpus": {"count": 0}}, EXIT_VALIDATION),
        ],
    )
    def test_bad_field_exits_cleanly(self, tmp_path, capsys, command, payload, expected):
        cfg = write_config(tmp_path, payload)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == expected and out == ""
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [0, False, 1, None, ["a.json"]])
    def test_structure_file_must_be_string(self, tmp_path, capsys, value):
        # rejected before open(), so no file descriptor is read or closed
        cfg = write_config(tmp_path, {"structure_file": value})
        code, out, err = run(capsys, "value", "--config", cfg)
        assert code == EXIT_PARSE and out == ""
        assert "structure_file must be a string" in err

    def test_unwritable_out_is_parse_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "1/2", "horizon": 2})
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "value", "--config", cfg, "--out", str(out_path))
        assert code == EXIT_PARSE and out == ""
        assert "cannot write output" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value", [("delta_grid", "1/2"), ("alpha_grid", {"a": "1/2"}), ("t_grid", 2)]
    )
    def test_sweep_grid_must_be_list(self, tmp_path, capsys, key, value):
        # a string or an object is not walked entry by entry
        cfg = write_config(tmp_path, {"sweep": {key: value}})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_PARSE and out == ""
        assert f"sweep.{key} must be a JSON list" in err

    @pytest.mark.parametrize("key", ["delta_grid", "alpha_grid", "t_grid"])
    def test_sweep_grid_must_not_be_empty(self, tmp_path, capsys, key):
        # a sweep over no rows would print a vacuous monotonicity line
        cfg = write_config(tmp_path, {"sweep": {key: []}})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_PARSE and out == ""
        assert f"sweep.{key} must not be empty" in err

    @pytest.mark.parametrize("horizon", [3, "3"])
    def test_integer_field_accepts_int_and_integer_string(self, tmp_path, capsys, horizon):
        cfg = write_config(tmp_path, {"ternary_eps": "1/2", "horizon": horizon})
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["horizon"] == 3 and len(payload["agents"]) == 3


class TestDesign:
    def test_dominance_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "structure": {
                    "signals": [
                        {"id": "s1", "pH": "2/3", "pL": "1/3"},
                        {"id": "s2", "pH": "1/3", "pL": "2/3"},
                    ]
                },
                "horizon": 3,
            },
        )
        code, out, _ = run(capsys, "design", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dominance"]["verdict"] is True
        assert payload["dominance"]["eps"] == "2/3"

    def test_social_optimum_where_one_minus_delta_rounds_to_one(self, tmp_path, capsys):
        # 1 - sqrt(1 - d) is 0.0 in floats here; this printed "0" for both
        cfg = write_config(tmp_path, {"ternary_eps": "1/3", "delta": f"1/{10**17}",
                                      "horizon": 2})
        code, out, _ = run(capsys, "design", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["social_optimal_eps"] == "0.5"
        assert float(payload["max_social_value"]) == pytest.approx(1e-17 / 16, rel=1e-12)


class TestMarket:
    def test_sticky_market(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"ternary_eps": "1/2", "delta": "1/2", "alpha": "1/2",
             "stickiness": 2, "horizon": 4},
        )
        code, out, _ = run(capsys, "market", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["surpluses"]["seller"]["value"] == "1/40"
        assert [p["rational"] for p in payload["prices"]] == ["0/1", "0/1", "3/32", "3/32"]

    def test_relaxes_like_value(self, tmp_path, capsys):
        # at delta = 1/2 the default tolerance needs more agents than HORIZON_CAP;
        # both commands report at the cap's tolerance, (1/2)^12 / 4, and say so
        fixture = {"signals": [{"id": "a", "pH": "1/2", "pL": "1/6"},
                               {"id": "b", "pH": "1/3", "pL": "1/3"},
                               {"id": "c", "pH": "1/6", "pL": "1/2"}]}
        cfg = write_config(tmp_path, {"structure": fixture})
        value_code, value_out, value_err = run(capsys, "value", "--config", cfg)
        market_code, market_out, market_err = run(capsys, "market", "--config", cfg)
        assert value_code == market_code == EXIT_OK
        assert value_err == market_err == (
            "note: tolerance 1/1000000000 is not reached within cap 12; the cap "
            "reaches tolerance 1/16384; reporting at that tolerance\n"
        )
        value, seller = json.loads(value_out), json.loads(market_out)["surpluses"]["seller"]
        assert value["tolerance_relaxed"] is True
        assert seller["error_bound"] == value["social_value"]["error_bound"] == "6.103515625e-05"
        assert seller["value"] == value["social_value"]["rational"]

    def test_stickiness_where_delta_power_underflows(self, tmp_path, capsys):
        # (1/2)^1100 underflows as a float; this exited 1 with a traceback
        cfg = write_config(
            tmp_path,
            {"ternary_eps": "1/2", "delta": "1/2", "stickiness": 1100, "horizon": 2,
             "tolerance": "1/1000"},
        )
        code, out, err = run(capsys, "market", "--config", cfg)
        assert code == EXIT_OK and err == ""
        assert float(json.loads(out)["optimal_eps"]["seller"]) == pytest.approx(
            (1 / 1101) ** (1 / 1100), rel=1e-12
        )


class TestVerify:
    def test_corpus_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"corpus": {"count": 20}, "horizon": 4, "seed": 9}
        )
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["results"]) == 20

    def test_searches_each_structure_once_and_builds_no_split(self, tmp_path, capsys,
                                                               monkeypatch):
        # the split's values are closed forms: one report and one search per
        # corpus structure, and no split is built
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for module, name in ((design, "best_equilibrium_payoffs"),
                             (learning, "best_equilibrium_payoffs"),
                             (design, "split_to_ternary"),
                             (design, "verify_dominance")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        count = 40
        cfg = write_config(tmp_path, {"corpus": {"count": count}, "horizon": 6, "seed": 0})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK and json.loads(out)["all_pass"] is True
        assert calls == ["verify_dominance", "best_equilibrium_payoffs"] * count

    def test_failure_entries(self, tmp_path, capsys, monkeypatch):
        # a base whose agent 1 earns more with history than the split
        # fails; the verdict and the failure's report read the same profile
        real = design.best_equilibrium_payoffs

        def raised(structure, horizon):
            p = real(structure, horizon)
            return p._replace(with_history=(p.with_history[0] + 1,) + p.with_history[1:])

        monkeypatch.setattr(design, "best_equilibrium_payoffs", raised)
        cfg = write_config(tmp_path, {"corpus": {"count": 3}, "horizon": 3, "seed": 9})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"] is False
        assert [r["pass"] for r in payload["results"]] == [False] * 3
        structures = design.corpus(9, 3)
        assert [f["index"] for f in payload["failures"]] == [0, 1, 2]
        for entry, structure in zip(payload["failures"], structures):
            assert structure_from_json(json.dumps(entry["structure"])) == structure
            report = design.verify_dominance(structure, 3)
            assert not report.verdict
            assert entry["dominance"] == report.to_json_dict()


class TestSweep:
    def test_csv_and_monotonicity(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": {"delta_grid": ["1/10", "3/10", "1/2", "7/10", "9/10"],
                       "alpha_grid": ["1/4"], "t_grid": [1]}},
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("delta,alpha,t,")
        assert lines[-1] == "# eps_star_seller strictly increasing in delta: True"
        sellers = [float(line.split(",")[4]) for line in lines[1:-1]]
        assert sellers == sorted(sellers)

    @pytest.mark.parametrize("grid", [["3/4", "1/4"], ["1/4", "1/4"], ["1/2", "1/4", "2/4"]])
    def test_monotonicity_judged_over_sorted_distinct_deltas(self, tmp_path, capsys, grid):
        cfg = write_config(
            tmp_path, {"sweep": {"delta_grid": grid, "alpha_grid": ["1/4"], "t_grid": [1, 2]}}
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1] == "# eps_star_seller strictly increasing in delta: True"
        # rows keep the config's order
        rows = [line.split(",") for line in lines[1:-1]]
        assert [(F(r[0]), int(r[2])) for r in rows] == [
            (F(d), t) for d in grid for t in (1, 2)
        ]

    def test_increasing_sorts_deltas(self):
        assert _increasing({F(3, 4): 0.8, F(1, 4): 0.6})
        assert _increasing({F(1, 4): 0.6})
        assert not _increasing({F(3, 4): 0.6, F(1, 4): 0.8})
        assert not _increasing({F(1, 4): 0.6, F(1, 2): 0.6})

    def test_weighted_threshold(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"sweep": {"delta_grid": ["3/10", "7/20"], "alpha_grid": ["1/4"],
                       "t_grid": [1]}},
        )
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:-1]
        eps_w = [float(r.split(",")[5]) for r in rows]
        assert eps_w[0] == 0.0 and eps_w[1] > 0.0


class TestCaps:
    """Each cap on the work a config asks for: exit 4 just past it, 0 at it."""

    def test_corpus_count(self, tmp_path, capsys):
        cap = design.CORPUS_CAP
        cfg = write_config(tmp_path, {"corpus": {"count": cap + 1}, "horizon": 1})
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == f"cap exceeded: corpus count {cap + 1} exceeds cap {cap}\n"
        cfg = write_config(tmp_path, {"corpus": {"count": cap}, "horizon": 1})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK and len(json.loads(out)["results"]) == cap

    def test_market_stickiness(self, tmp_path, capsys):
        cap = market.STICKINESS_CAP
        base = {"ternary_eps": "1/3", "delta": "1/2", "alpha": "1/2", "horizon": 2}
        cfg = write_config(tmp_path, {**base, "stickiness": cap + 1})
        code, out, err = run(capsys, "market", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == f"cap exceeded: stickiness {cap + 1} exceeds cap {cap}\n"
        cfg = write_config(tmp_path, {**base, "stickiness": cap})
        code, out, _ = run(capsys, "market", "--config", cfg)
        assert code == EXIT_OK and json.loads(out)["regime"] == f"sticky({cap})"

    def test_market_digits_of_an_exact_result(self, tmp_path, capsys):
        # the surpluses' digits grow with t times the digits of delta; past
        # the interpreter's int-to-str limit this exited 1 with a traceback
        limit = sys.get_int_max_str_digits()
        base = {"ternary_eps": "1/3", "stickiness": market.STICKINESS_CAP, "alpha": "1/4"}
        cfg = write_config(tmp_path, {**base, "delta": "123457/1000000"})
        code, out, err = run(capsys, "market", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err.startswith("cap exceeded: ") and f" {limit} digits" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        cfg = write_config(tmp_path, {**base, "delta": "999/1000"})
        code, out, _ = run(capsys, "market", "--config", cfg)
        assert code == EXIT_OK and json.loads(out)["regime"] == f"sticky({market.STICKINESS_CAP})"

    def test_sweep_t_grid(self, tmp_path, capsys):
        cap = market.STICKINESS_CAP
        sweep = {"delta_grid": ["1/2"], "alpha_grid": ["1/2"]}
        cfg = write_config(tmp_path, {"sweep": {**sweep, "t_grid": [1, cap + 1]}})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == f"cap exceeded: stickiness {cap + 1} exceeds cap {cap}\n"
        # past a float's range too: the cap is checked before any float root
        cfg = write_config(tmp_path, {"sweep": {**sweep, "t_grid": [10**400]}})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == f"cap exceeded: stickiness {10**400} exceeds cap {cap}\n"
        cfg = write_config(tmp_path, {"sweep": {**sweep, "t_grid": [1, cap]}})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK and out.splitlines()[2].startswith(f"0.5,0.5,{cap},")

    def test_search_states(self, tmp_path, capsys, empty_memo, monkeypatch):
        # the fixture's search at horizon 7 stores 54 states, its cascade
        # nodes not among them; its social value needs 4 agents, a smaller
        # search
        cfg = write_config(tmp_path, {"horizon": 7, "delta": "1/4", "tolerance": "1/1000",
                                      "structure": {"signals": [
            {"id": "a", "pH": "1/2", "pL": "1/6"}, {"id": "b", "pH": "1/3", "pL": "1/3"},
            {"id": "c", "pH": "1/6", "pL": "1/2"}]}})
        monkeypatch.setattr(learning, "MAX_STATES", 53)
        code, out, err = run(capsys, "value", "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == "cap exceeded: 54 public-belief states exceed 53\n"
        monkeypatch.setattr(learning, "MAX_STATES", 54)
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK and len(json.loads(out)["agents"]) == 7

    @pytest.mark.parametrize("command, source", [
        ("value", {"structure": FIXTURE}),
        ("design", {"structure": FIXTURE}),
        ("market", {"structure": FIXTURE}),
        ("verify", {"corpus": {"count": 20}}),
    ], ids=["value", "design", "market", "verify"])
    def test_horizon(self, tmp_path, capsys, command, source):
        # one cap for every command that takes a horizon, the fixed rules'
        # and the search's alike, with the library's one message
        cap = learning.HORIZON_CAP
        cfg = write_config(tmp_path, {**source, "horizon": cap + 1})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_CAP and out == ""
        assert err == f"cap exceeded: horizon {cap + 1} exceeds cap {cap}\n"
        cfg = write_config(tmp_path, {**source, "horizon": cap})
        code, out, _ = run(capsys, command, "--config", cfg)
        assert code == EXIT_OK

    def test_value_benchmark_at_the_horizon_cap(self, tmp_path, capsys):
        # hv value prints each agent's benchmark: at the horizon cap that is
        # HORIZON_CAP i.i.d. draws, within the i.i.d. cap
        cap = learning.HORIZON_CAP
        assert cap <= beliefs.IID_CAP
        cfg = write_config(tmp_path, {"structure": FIXTURE, "horizon": cap})
        code, out, _ = run(capsys, "value", "--config", cfg)
        assert code == EXIT_OK
        agents = json.loads(out)["agents"]
        assert [a["i"] for a in agents] == list(range(1, cap + 1))
        last = F(agents[-1]["benchmark"]["rational"])
        assert last == learning.full_observation_payoff(structure_from_payload(FIXTURE), cap)


COMMANDS = ("value", "design", "market", "verify", "sweep")
SHARED_OPTIONS = ("--config", "--out", "--seed", "--horizon", "--tol")


class TestParser:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: hv [-h] {" + ",".join(COMMANDS) + "} ...")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_lists_the_shared_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        usage, _, options = out.partition("\n\n")
        assert usage.startswith(f"usage: hv {command} [-h] --config CONFIG ")
        assert "[--config" not in usage  # required: no brackets
        for option in SHARED_OPTIONS:
            assert option in usage and f"\n  {option}" in options, option

    def test_built_once_and_reused(self, tmp_path, capsys):
        # plain command lines never build the parser; help and errors build
        # it once and then reuse it
        cli._parser.cache_clear()
        cfg = write_config(tmp_path, {"ternary_eps": "1/3", "horizon": 2})
        outputs = [run(capsys, "value", "--config", cfg) for _ in range(2)]
        assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK
        code, _, _ = run(capsys, "design", "--config", cfg, "--horizon", "3")
        assert code == EXIT_OK
        assert cli._parser.cache_info().misses == 0
        for argv in (["-h"], ["value", "--config", cfg, "--seed", "x"], ["design", "-h"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("argv, message", [
        ([], "hv: error: the following arguments are required: command"),
        (["value"], "hv value: error: the following arguments are required: --config"),
        (["nope"], "hv: error: argument command: invalid choice: 'nope' "
                   "(choose from 'value', 'design', 'market', 'verify', 'sweep')"),
        (["value", "--config", "c.json", "--seed", "x"],
         "hv value: error: argument --seed: invalid int value: 'x'"),
        # a library caller's non-str token is a usage error, not a TypeError
        (["value", "--config", Path("c.json")],
         "hv: error: command-line tokens must be strings, got PosixPath('c.json')"),
        (["value", "--config", "c.json", "--seed", 3],
         "hv: error: command-line tokens must be strings, got 3"),
        ([b"value"], "hv: error: command-line tokens must be strings, got b'value'"),
    ])
    def test_bad_arguments_exit_2_every_time(self, capsys, argv, message):
        for _ in range(2):  # the kept parser answers a second call the same way
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("usage: hv") and err.endswith(message + "\n")


COMMAND_TOKENS = (*COMMANDS, "nope")
ODD_OPTIONS = ("--conf", "--hor", "--config=x", "--seed=3", "-h", "--")
PLAIN_VALUES = ("c.json", "3", "", " 7", "+5", "1_0", "\u0663", " -x", "design")
ODD_VALUES = ("-1", "0x10", "1" * 5000)
NOT_STR = Path("c.json")
TOKENS = st.sampled_from(
    (*COMMAND_TOKENS, *SHARED_OPTIONS, *ODD_OPTIONS, *PLAIN_VALUES, *ODD_VALUES, NOT_STR))


def near_plain(command, options, insert):
    """``command`` and the ``options`` pairs, with ``insert``, when given, an
    ``(index, token)`` to put in."""
    argv = [command, *(token for pair in options.items() for token in pair)]
    if insert is not None:
        argv.insert(*insert)
    return argv


#: Any token list, and command lines one token or value away from the plain
#: form, which the reader accepts often enough to compare what it reads.
ARGVS = st.one_of(
    st.lists(TOKENS, max_size=7),
    st.builds(
        near_plain,
        st.sampled_from(COMMAND_TOKENS),
        st.dictionaries(st.sampled_from(SHARED_OPTIONS),
                        st.sampled_from((*PLAIN_VALUES, *ODD_VALUES, NOT_STR)), min_size=1),
        st.one_of(st.none(), st.tuples(st.integers(0, 10), TOKENS)),
    ),
)


def argparse_args(argv):
    """``_parser``'s namespace for ``argv``, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser(COMMANDS).parse_args(argv)
        except SystemExit as exc:
            return exc
        except TypeError as exc:  # argparse indexes each token; a Path has no [0]
            return exc


def assert_read_as_argparse_reads(argv):
    plain = cli._plain(argv, COMMANDS)
    assert plain is not None and vars(plain) == vars(argparse_args(argv)), argv


class TestPlainReader:
    @given(argv=ARGVS)
    @settings(max_examples=1500, deadline=None)
    def test_agrees_with_argparse(self, argv):
        plain = cli._plain(argv, COMMANDS)
        parsed = argparse_args(argv)
        if isinstance(parsed, BaseException):
            assert plain is None
        else:
            assert plain is None or vars(plain) == vars(parsed)

    @pytest.mark.parametrize("argv, expected", [
        (["value", "--config", "c.json"],
         {"config": "c.json", "out": None, "seed": None, "horizon": None, "tol": None}),
        (["sweep", "--tol", "1/8", "--seed", " 7", "--out", "", "--horizon", "1_0",
          "--config", "design"],
         {"config": "design", "out": "", "seed": 7, "horizon": 10, "tol": "1/8"}),
    ])
    def test_plain_form_read(self, argv, expected):
        assert vars(cli._plain(argv, COMMANDS)) == {"command": argv[0], **expected}
        assert vars(argparse_args(argv)) == vars(cli._plain(argv, COMMANDS))

    @pytest.mark.parametrize("argv", [
        [], ["value"], ["-h"], ["value", "-h"], ["nope", "--config", "c.json"],
        ["value", "--out", "o.json"],  # no --config
        ["value", "--conf", "c.json"],  # abbreviation
        ["value", "--config=c.json"],
        ["value", "--config", "a", "--config", "b"],  # repeated
        ["value", "--config", "c.json", "--seed", "-1"],
        ["value", "--config", "c.json", "--seed", "0x10"],
        ["value", "--config", "c.json", "--horizon", "1" * 5000],
        ["value", "--config", "c.json", "--"],
        ["value", "--config", Path("c.json")],
    ], ids=str)
    def test_other_forms_left_to_argparse(self, argv):
        assert cli._plain(argv, COMMANDS) is None

    def test_iterator_argv_read_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "1/3", "horizon": 2})
        assert main(iter(["value", "--config", cfg])) == EXIT_OK
        with pytest.raises(SystemExit) as exc:  # argparse sees the same tokens
            main(iter(["value", "--config", cfg, "--seed", "x"]))
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().err.endswith("invalid int value: 'x'\n")

    def test_golden_cases_are_plain(self):
        for command, _, *extra in CASES.values():
            assert_read_as_argparse_reads(
                [command, "--config", "config.json", *(extra[0] if extra else ())])

    def test_benchmark_commands_are_plain(self):
        workloads = bench_workloads()
        for make in workloads.WORKLOADS.values():
            for seed in range(4):
                for k in range(workloads.CYCLE):
                    for command in make(seed, k):
                        assert_read_as_argparse_reads(
                            [command.name, "--config", "config.json", *command.args])

    def test_sys_argv_path(self, tmp_path):
        # main() with no argument reads sys.argv[1:]; a plain run there
        # leaves argparse unloaded, and help still goes through argparse
        script = ("import sys\n"
                  "from historyvalue.cli import main\n"
                  "code = main()\n"
                  "print(code, 'argparse' in sys.modules, file=sys.stderr)\n")
        command, config = CASES["value_ternary"]
        cfg = write_config(tmp_path, config)
        env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def hv(*argv):
            return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                  text=True, timeout=60, env=env)

        proc = hv(command, "--config", cfg)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == golden_path("value_ternary").read_text()
        assert proc.stderr.splitlines()[-1] == f"{EXIT_OK} False"
        proc = hv("-h")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("usage: hv [-h] {" + ",".join(COMMANDS) + "} ...")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"corpus": {"count": 10}, "horizon": 4, "seed": 123}
        )
        _, out1, _ = run(capsys, "verify", "--config", cfg)
        _, out2, _ = run(capsys, "verify", "--config", cfg)
        assert out1 == out2

    def test_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ternary_eps": "1/3", "horizon": 3})
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "value", "--config", cfg, "--out", str(out_path))
        assert code == EXIT_OK and out == ""
        assert json.loads(out_path.read_text())["command"] == "value"
