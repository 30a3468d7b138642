"""Span tracing of ``historyvalue``'s public functions, from outside the package.

``Tracer.install`` replaces each traced function, in every ``historyvalue``
module namespace that binds it, with a wrapper that records a span; since
callers look functions up in their own module's namespace, a call from
``design`` into ``learning.best_equilibrium_payoffs`` nests under the
``design`` span.  Spans stay in memory; ``layer_metrics`` turns the spans
of one pass into per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced functions by defining module.  Each span is named
#: ``<module>.<function>``.
LAYERS = {
    "beliefs": ("compose_distributions", "iid_belief_distribution", "induced_belief_distribution"),
    "learning": ("best_equilibrium_payoffs", "full_observation_payoff", "social_value",
                 "single_signal_payoff"),
    "design": ("verify_dominance", "check_equivalence", "split_to_ternary",
               "argmax_unit_interval", "maximize_concave"),
    "market": ("ternary_weighted_surplus_sticky", "ternary_sticky_seller_surplus",
               "ternary_sticky_buyer_surplus", "optimal_eps_weighted_sticky",
               "sticky_price_path", "sticky_surpluses"),
}

COMMANDS = ("value", "design", "market", "verify", "sweep")


def _max_den_bits(profile) -> int:
    return max(
        (q.denominator.bit_length()
         for q in (*profile.with_history, *profile.benchmark, *profile.history_value)),
        default=0,
    )


#: Span name -> the count taken from the function's result: atoms returned
#: (``atoms_out``), largest denominator's bit length (``max_den_bits``).
COUNTERS = {
    "beliefs.compose_distributions": lambda dist: len(dist.atoms),
    "learning.best_equilibrium_payoffs": _max_den_bits,
}

# Span record fields.
NAME, START, END, PARENT, COMMAND, COUNT = range(6)


class Tracer:
    """Records spans ``[name, start, end, parent index, command id, count]``."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command, 0]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            record[START] = start
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            record[COUNT] = counter(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> int:
        """Wrap every traced function wherever a ``historyvalue`` module binds
        it.  Returns the number of bindings replaced."""
        targets = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"historyvalue.{module}"]
            for name in names:
                fn = getattr(mod, name)
                targets[id(fn)] = (fn, self.wrap(f"{module}.{name}", fn))
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "historyvalue" or modname.startswith("historyvalue.")):
                continue
            for attr, value in list(vars(mod).items()):
                target = targets.get(id(value))
                if target is not None and target[0] is value:
                    setattr(mod, attr, target[1])
                    replaced += 1
        return replaced


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _percentile(sorted_values, pct) -> float:
    """Nearest-rank percentile of a sorted list; 0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


def layer_stats(spans) -> dict:
    """Per span name: calls, total_s (outermost spans only, so recursion is
    not counted twice), self_s, durations (s) and summed/maximal counts."""
    selfs = self_times(spans)
    stats = {}
    for idx, span in enumerate(spans):
        name = span[NAME]
        entry = stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "count_sum": 0,
                   "count_max": 0}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += selfs[idx]
        entry["durations"].append(duration)
        entry["count_sum"] += span[COUNT]
        entry["count_max"] = max(entry["count_max"], span[COUNT])
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["total_s"] += duration
    return stats


#: The per-layer metrics reported from a traced pass: (metric name, unit).
#: Counts are exact and repeat across runs of one seed; times are seconds.
LAYER_METRICS = (
    ("learning.best_equilibrium_payoffs.calls", "count"),
    ("learning.best_equilibrium_payoffs.self_s", "s"),
    ("learning.best_equilibrium_payoffs.p50_ms", "ms"),
    ("learning.best_equilibrium_payoffs.max_den_bits", "bits"),
    ("learning.full_observation_payoff.calls", "count"),
    ("learning.full_observation_payoff.total_s", "s"),
    ("learning.social_value.calls", "count"),
    ("learning.social_value.total_s", "s"),
    ("learning.single_signal_payoff.calls", "count"),
    ("learning.single_signal_payoff.self_s", "s"),
    ("beliefs.compose_distributions.calls", "count"),
    ("beliefs.compose_distributions.self_s", "s"),
    ("beliefs.compose_distributions.atoms_out", "count"),
    ("beliefs.iid_belief_distribution.calls", "count"),
    ("beliefs.iid_belief_distribution.total_s", "s"),
    ("beliefs.induced_belief_distribution.calls", "count"),
    ("beliefs.induced_belief_distribution.self_s", "s"),
    ("design.verify_dominance.calls", "count"),
    ("design.verify_dominance.total_s", "s"),
    ("design.verify_dominance.p50_ms", "ms"),
    ("design.verify_dominance.p95_ms", "ms"),
    ("design.check_equivalence.calls", "count"),
    ("design.check_equivalence.total_s", "s"),
    ("design.split_to_ternary.calls", "count"),
    ("design.split_to_ternary.self_s", "s"),
    ("design.argmax_unit_interval.calls", "count"),
    ("design.argmax_unit_interval.self_s", "s"),
    ("design.maximize_concave.calls", "count"),
    ("design.maximize_concave.self_s", "s"),
    ("market.ternary_weighted_surplus_sticky.calls", "count"),
    ("market.ternary_sticky_seller_surplus.calls", "count"),
    ("market.ternary_sticky_seller_surplus.self_s", "s"),
    ("market.ternary_sticky_buyer_surplus.calls", "count"),
    ("market.ternary_sticky_buyer_surplus.self_s", "s"),
    ("market.optimal_eps_weighted_sticky.calls", "count"),
    ("market.optimal_eps_weighted_sticky.total_s", "s"),
    ("market.optimal_eps_weighted_sticky.p50_ms", "ms"),
    ("market.sticky_price_path.calls", "count"),
    ("market.sticky_price_path.total_s", "s"),
    ("market.sticky_surpluses.calls", "count"),
    ("market.sticky_surpluses.total_s", "s"),
    *((f"cli.{command}.self_s", "s") for command in COMMANDS),
    ("cli.output_bytes", "bytes"),
)

COUNT_UNITS = ("count", "bits", "bytes")


def layer_metrics(spans, output_bytes: int) -> dict:
    """The ``LAYER_METRICS`` of one traced pass, as plain numbers."""
    stats = layer_stats(spans)
    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric == "cli.output_bytes":
            out[metric] = output_bytes
            continue
        name, field = metric.rsplit(".", 1)
        entry = stats.get(name)
        if entry is None:
            out[metric] = 0 if field in ("calls", "atoms_out", "max_den_bits") else 0.0
        elif field in ("calls", "total_s", "self_s"):
            out[metric] = entry[field]
        elif field == "atoms_out":
            out[metric] = entry["count_sum"]
        elif field == "max_den_bits":
            out[metric] = entry["count_max"]
        else:
            pct = {"p50_ms": 50, "p95_ms": 95}[field]
            out[metric] = 1000 * _percentile(sorted(entry["durations"]), pct)
    return out
