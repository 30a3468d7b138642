"""Tests of the benchmark's own code: span arithmetic, inputs, tracing, checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import os
from fractions import Fraction

import pytest

from checks import MONOTONE_LINE, check, sha256
from run import END_TO_END, PROBE_REF_S, ROOT, Bench, normalised_s
from tracing import COUNT_UNITS, LAYER_METRICS, layer_metrics, layer_stats, self_times
from workloads import CYCLE, DEFAULT_SEED, WORKLOADS, Command, mirror_structure, tie_pairs

FIXTURE_STRUCTURE = {
    "signals": [
        {"id": "a", "pH": "1/2", "pL": "1/6"},
        {"id": "b", "pH": "1/3", "pL": "1/3"},
        {"id": "c", "pH": "1/6", "pL": "1/2"},
    ]
}


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


class TestSpanArithmetic:
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7].
    SPANS = [span("a", 0.0, 10.0, -1), span("b", 1.0, 4.0, 0), span("c", 5.0, 9.0, 0),
             span("d", 6.0, 7.0, 2)]

    def test_self_time_subtracts_children(self):
        assert self_times(self.SPANS) == [3.0, 3.0, 3.0, 1.0]

    def test_self_times_add_up_to_root_duration(self):
        assert sum(self_times(self.SPANS)) == 10.0

    def test_recursive_span_counted_once_in_total(self):
        spans = [span("x", 0.0, 5.0, -1), span("x", 1.0, 2.0, 0), span("y", 2.0, 4.0, 0)]
        stats = layer_stats(spans)
        assert stats["x"]["calls"] == 2
        assert stats["x"]["total_s"] == 5.0
        assert stats["x"]["self_s"] == 2.0 + 1.0
        assert stats["y"]["self_s"] == 2.0

    def test_counts_and_absent_layers(self):
        spans = [span("beliefs.compose_distributions", 0.0, 1.0, -1),
                 span("beliefs.compose_distributions", 1.0, 3.0, -1)]
        spans[0][5], spans[1][5] = 4, 7
        metrics = layer_metrics(spans, output_bytes=12)
        assert metrics["beliefs.compose_distributions.calls"] == 2
        assert metrics["beliefs.compose_distributions.atoms_out"] == 11
        assert metrics["beliefs.compose_distributions.self_s"] == 3.0
        assert metrics["design.verify_dominance.calls"] == 0
        assert metrics["design.verify_dominance.p95_ms"] == 0.0
        assert metrics["cli.output_bytes"] == 12


class TestInputs:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_same_seed_same_inputs(self, workload):
        make = WORKLOADS[workload]
        for seed in (DEFAULT_SEED, 5, 123456789):
            first = [c.key() for k in range(CYCLE) for c in make(seed, k)]
            assert first == [c.key() for k in range(CYCLE) for c in make(seed, k)]

    @pytest.mark.parametrize("workload", ["corpus-verify", "price-sweep"])
    def test_seeds_differ(self, workload):
        make = WORKLOADS[workload]
        assert make(1, 0)[0].key() != make(2, 0)[0].key()
        assert make(1, 0)[0].key() != make(1, 1)[0].key()

    def test_default_seed_is_the_fixture(self):
        for k in range(CYCLE):
            commands = WORKLOADS["tie-search"](DEFAULT_SEED, k)
            assert [c.name for c in commands] == ["value", "design", "market"]
            for c in commands:
                assert c.config == {"structure": FIXTURE_STRUCTURE, "horizon": 7, "delta": "1/4",
                                    "alpha": "1/3", "stickiness": 2, "tolerance": "1/1000"}
                assert c.args == ()

    def test_other_seeds_visit_every_tie_pair(self):
        structures = {c.config_text() for k in range(len(tie_pairs()))
                      for c in WORKLOADS["tie-search"](3, k)}
        assert len(structures) == len(tie_pairs()) == 4
        for p, q in tie_pairs():
            signals = mirror_structure(p, q)["signals"]
            assert signals[1]["pH"] == signals[1]["pL"] == "1/3"
            assert signals[0]["pH"] == signals[2]["pL"] and signals[0]["pL"] == signals[2]["pH"]

    def test_sweep_grid(self):
        grid = WORKLOADS["price-sweep"](9, 0)[0].config["sweep"]
        assert len(grid["delta_grid"]) * len(grid["alpha_grid"]) * len(grid["t_grid"]) == 180
        assert sum(Fraction(a) < Fraction(1, 2) for a in grid["alpha_grid"]) == 4


SMALL = {"structure": FIXTURE_STRUCTURE, "horizon": 3, "delta": "1/4", "alpha": "1/3",
         "stickiness": 2, "tolerance": "1/1000"}
SMALL_COMMANDS = [
    Command("value", SMALL),
    Command("design", SMALL),
    Command("market", SMALL),
    Command("verify", {"horizon": 3, "corpus": {"count": 5, "max_signals": 3,
                                                 "max_denominator": 6}}, ("--seed", "4")),
    Command("sweep", {"sweep": {"delta_grid": ["1/3", "1/2"], "alpha_grid": ["1/4", "3/4"],
                                "t_grid": [1, 2]}}),
]


@pytest.fixture
def bench(tmp_path):
    b = Bench(str(tmp_path))
    b.setup_config = b.config_path(SMALL_COMMANDS[0])
    return b


def outputs(result):
    return [c["output"] for c in result["commands"]]


class TestTracedPass:
    def test_traced_pass_prints_same_bytes(self, bench):
        plain = bench.worker(SMALL_COMMANDS, False, bench.setup_config)
        traced = bench.worker(SMALL_COMMANDS, True, bench.setup_config)
        assert [c["code"] for c in plain["commands"]] == [0] * len(SMALL_COMMANDS)
        assert outputs(plain) == outputs(traced)
        assert plain["spans"] is None and traced["spans"]

    def test_cross_module_calls_nest(self, bench):
        spans = bench.worker(SMALL_COMMANDS[1:2], True, bench.setup_config)["spans"]
        parents = {spans[s[3]][0] for s in spans
                   if s[0] == "learning.best_equilibrium_payoffs" and s[3] >= 0}
        assert {"design.verify_dominance", "design.check_equivalence"} <= parents
        assert spans[0][0] == "cli.design" and spans[0][3] == -1

    def test_count_metrics_repeat_exactly(self, bench):
        counts = []
        for _ in range(2):
            result = bench.worker(SMALL_COMMANDS, True, bench.setup_config)
            size = sum(len(c["output"].encode()) for c in result["commands"])
            metrics = layer_metrics(result["spans"], size)
            counts.append({name: metrics[name] for name, unit in LAYER_METRICS
                           if unit in COUNT_UNITS})
        assert counts[0] == counts[1]
        assert counts[0]["learning.best_equilibrium_payoffs.calls"] > 0
        assert counts[0]["beliefs.compose_distributions.atoms_out"] > 0
        assert counts[0]["market.ternary_weighted_surplus_sticky.calls"] > 0


class TestNormalisedTime:
    def test_idle_probes_leave_the_time_alone(self):
        command = {"seconds": 2.0, "probes": [PROBE_REF_S] * 5}
        assert normalised_s(command) == pytest.approx(2.0)

    def test_slow_share_is_taken_out(self):
        # Half the probes ran at half speed: the host's mean speed was 3/4.
        command = {"seconds": 2.0, "probes": [PROBE_REF_S, 2 * PROBE_REF_S] * 50}
        assert normalised_s(command) == pytest.approx(1.5)

    def test_set_up_and_every_command_are_probed(self, bench):
        for trace in (False, True):
            result = bench.worker(SMALL_COMMANDS[:1], trace, bench.setup_config)
            assert result["setup"]["probes"] and result["commands"][0]["probes"]
            assert all(t > 0 for t in result["commands"][0]["probes"])


class TestChecks:
    def test_recorded_digest_must_match(self):
        command = SMALL_COMMANDS[4]
        text = "delta\n" + MONOTONE_LINE + "\n"
        digests = {sha256(command.key()): sha256("something else")}
        problems = check(command, 0, text, digests)
        assert "stdout differs from the recorded digest" in problems

    def test_sweep_invariants(self, bench):
        command = SMALL_COMMANDS[4]
        text = bench.worker([command], False, bench.setup_config)["commands"][0]["output"]
        assert check(command, 0, text, {}) == []
        broken = text.replace(MONOTONE_LINE, MONOTONE_LINE.replace("True", "False"))
        assert check(command, 0, broken, {}) != []

    def test_value_invariants(self, bench):
        command = SMALL_COMMANDS[0]
        text = bench.worker([command], False, bench.setup_config)["commands"][0]["output"]
        assert check(command, 0, text, {}) == []
        broken = text.replace('"history_value": {\n        "decimal": "0",\n        "rational": "0/1"',
                              '"history_value": {\n        "decimal": "-1",\n        "rational": "-1/1"')
        assert broken != text and check(command, 0, broken, {}) != []

    def test_nonzero_exit_fails(self):
        assert check(SMALL_COMMANDS[0], 3, "", {}) == ["exit code 3"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        *LAYER_METRICS, ("trace.overhead_ratio", "ratio")]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
