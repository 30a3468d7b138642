"""The integer kernel of the public-belief tree, a recursion over its public
nodes, against a frozen copy of the ``Fraction`` engine that came before it,
a frontier of whole levels; and guards on the arithmetic of the integer
kernels: the tree's, the golden-section search's and the market objective's."""

import ast
import functools
import gc
import itertools
import math
import pathlib
from fractions import Fraction as F

import pytest

from historyvalue import (
    ACTION0,
    ACTION1,
    FOLLOW_SIGNAL,
    best_equilibrium_payoffs,
    simulate_equilibrium,
    validate_structure,
)
from historyvalue import beliefs, design, learning, market, rationals
from historyvalue.beliefs import induced_belief_distribution
from historyvalue.design import corpus, split_to_ternary

HALF = F(1, 2)
BOTH = lambda private: (1, 0)  # noqa: E731  (the search: either action at a tie)


# The oracle: the tree engine as it was before the integer kernel, frozen
# apart from the library.  Levels are sorted tuples of ``(public,
# like_high, like_low)`` in reduced ``Fraction``s, and equal public beliefs
# merge under a ``Fraction`` key.
def fraction_merge_beliefs(pairs):
    merged = {}
    for wh, wl in pairs:
        if wh or wl:
            belief = wh / (wh + wl)
            h, l = merged.get(belief, (0, 0))
            merged[belief] = (h + wh, l + wl)
    return merged


def fraction_advance(level, atoms):
    payoff = F(0)
    nodes = []
    for _, lh, ll in level:
        h1 = l1 = h0 = l0 = F(0)
        ties = []
        for private, wh, wl in atoms:
            ph = lh * wh
            pl = ll * wl
            if ph > pl:
                h1 += ph
                l1 += pl
            elif ph < pl:
                h0 += ph
                l0 += pl
            elif ph:
                ties.append((private, ph, pl))
        payoff += (h1 - l1) / 4
        nodes.append(((h1, l1), (h0, l0), ties))
    return payoff, nodes


def fraction_children(nodes, actions):
    actions = iter(actions)
    pairs = []
    for strict1, strict0, ties in nodes:
        sums = {1: list(strict1), 0: list(strict0)}
        for _, ph, pl in ties:
            side = sums[next(actions)]
            side[0] += ph
            side[1] += pl
        pairs += sums.values()
    return tuple(sorted((q, ch, cl) for q, (ch, cl) in fraction_merge_beliefs(pairs).items()))


def fraction_walk(signal, choices):
    """Yields ``(best payoff, assignments tried)`` per depth: a frontier of
    whole public-belief levels, kept where the depth's agent does best."""
    frontier = {((HALF, F(1), F(1)),)}
    while True:
        for level in frontier:
            assert sum(lh for _, lh, _ in level) == 1 and sum(ll for _, _, ll in level) == 1
        passes = [fraction_advance(level, signal.atoms) for level in frontier]
        best = max(payoff for payoff, _ in passes)
        kept = [(nodes, [choices(x) for *_, ties in nodes for x, _, _ in ties])
                for payoff, nodes in passes if payoff == best]
        yield best, sum(math.prod(map(len, options)) for _, options in kept)
        frontier = {
            fraction_children(nodes, actions)
            for nodes, options in kept
            for actions in itertools.product(*options)
        }


def oracle(structure, horizon, choices=BOTH):
    """The first ``horizon`` depths of the oracle's walk: ``(best, count)`` pairs."""
    walk = fraction_walk(induced_belief_distribution(structure), choices)
    return list(itertools.islice(walk, horizon))


@functools.lru_cache(maxsize=None)
def oracle_best(structure, horizon) -> tuple:
    """The oracle's search to ``horizon``: each depth's best payoff."""
    return tuple(best for best, _ in oracle(structure, horizon))


# The oracle's own rules, on the tied agent's private ``Fraction`` belief,
# apart from the library's, which are data on the integer form.
RULES = {
    ACTION1: lambda private: (1,),
    ACTION0: lambda private: (0,),
    FOLLOW_SIGNAL: lambda private: (1,) if private >= HALF else (0,),
}


def mirror(p, q):
    m = 1 - p - q
    return validate_structure({"a": (p, q), "b": (m, m), "c": (q, p)})


# corpus(202, 2000, 6, 12)[589]: the one known input where the search
# beats every fixed rule, so a wrong maximum would show there.
COUNTEREXAMPLE = validate_structure({"s0": (F(2, 7), F(5, 7)), "s1": (F(4, 7), F(1, 7)),
                                     "s2": (F(1, 7), F(1, 7)), "s3": (F(0), F(0))})


def mirror_structures():
    """``{a:(p,q), b:(m,m), c:(q,p)}`` with ``m = 1/3``, ``p > q > 0`` and both
    denominators at most 12: the fixture ``(1/2, 1/6)`` and four others."""
    pairs = {(F(n, d), F(2, 3) - F(n, d)) for d in range(1, 13) for n in range(1, d)}
    return [mirror(p, q) for p, q in sorted(pairs)
            if 0 < q < p and q.denominator <= 12]


def assert_matches_oracle(structure, horizon):
    """The search and the three fixed rules equal the oracle at every
    horizon up to ``horizon``."""
    expected = [best for best, _ in oracle(structure, horizon)]
    for h in range(horizon + 1):
        assert best_equilibrium_payoffs(structure, h).with_history == tuple(expected[:h])
    for rule, choices in RULES.items():
        expected = [best for best, _ in oracle(structure, horizon, choices)]
        for h in range(horizon + 1):
            got = simulate_equilibrium(structure, h, rule).with_history
            assert got == tuple(expected[:h]), (structure, rule, h)


class TestKernelMatchesFractionEngine:
    def test_corpus_and_splits(self, empty_memo):
        for base in corpus(7, 60):
            for structure in (base, split_to_ternary(base)):
                assert_matches_oracle(structure, learning.HORIZON_CAP)

    def test_mirror_structures_to_depth_14(self, empty_memo, monkeypatch):
        structures = mirror_structures()
        assert len(structures) == 5
        assert mirror(HALF, F(1, 6)) in structures
        monkeypatch.setattr(learning, "HORIZON_CAP", 14)
        for structure in [*structures, COUNTEREXAMPLE]:
            assert best_equilibrium_payoffs(structure, 14).with_history == oracle_best(structure, 14)

    @pytest.mark.parametrize("structure", [mirror(HALF, F(1, 6)), COUNTEREXAMPLE],
                             ids=["fixture", "counterexample"])
    def test_depth_20_extends_the_oracle_at_14(self, empty_memo, monkeypatch, structure):
        # agent k's payoff does not depend on how many agents follow, so the
        # engine's 20-vector starts with the oracle's 14
        monkeypatch.setattr(learning, "HORIZON_CAP", 20)
        got = best_equilibrium_payoffs(structure, 20).with_history
        assert len(got) == 20 and got[:14] == oracle_best(structure, 14)

    def test_ties_at_non_root_nodes(self, empty_memo):
        # the composed belief is exactly 1/2 below the root: agent 2 holding
        # the 1/3 signal after action 1, and deeper
        structure = validate_structure({"s1": (F(2, 3), F(1, 3)), "s2": (F(1, 3), F(2, 3))})
        counts = [count for _, count in oracle(structure, learning.HORIZON_CAP)]
        assert counts[0] == 1 and max(counts[1:]) > 1
        assert_matches_oracle(structure, learning.HORIZON_CAP)

    @pytest.mark.parametrize("table", [
        {"s0": (F(0), F(1, 4)), "s1": (F(1, 6), F(1, 4)), "s2": (HALF, HALF), "s3": (F(1, 3), F(0))},
        {"s1": (F(1), F(0)), "s2": (F(0), F(1))},
    ], ids=["conclusive-both-sides", "full-information"])
    def test_conclusive_signals(self, empty_memo, table):
        # zero reach weights: a conclusive signal zeroes one state's weight
        structure = validate_structure(table)
        assert any(0 in (wh, wl) for _, wh, wl in induced_belief_distribution(structure).atoms)
        assert_matches_oracle(structure, learning.HORIZON_CAP)


@pytest.mark.parametrize("choices, states",
                         [(learning._BOTH, 54), (learning._RULES[ACTION1], 19)],
                         ids=["search", "action1"])
def test_finished_call_holds_no_state_table(state_tables, choices, states):
    # the table lives as long as the call: once the payoffs are returned,
    # only this test's record refers to it
    learning._payoffs(induced_belief_distribution(mirror(HALF, F(1, 6))), 7, choices)
    (table,) = state_tables
    assert len(table) == states and gc.get_referrers(table) == [state_tables]


def kernel_functions():
    """Function nodes of the integer kernels: the tree, the builder of belief
    distributions and its exact belief order, the golden-section search, the ternary sticky closed
    forms, the dominance report's integer decision and the equivalence condition, and the
    market's weighted objective."""
    for module, names in ((learning, {"_best", "_check_node", "_payoffs", "_sticky_kernel",
                                      "_payoff_form"}),
                          (beliefs, {"merge_beliefs", "integer_weights", "_merged_distribution",
                                     "_by_belief", "_column_sums", "_check_columns"}),
                          (rationals, {"best_approximation"}),
                          (design, {"golden_section", "unit_search", "_decision", "_split_mass",
                                    "_below", "_above", "_two_sided", "_mass_at",
                                    "_ternary_gain"}),
                          (market, {"weighted_objective"})):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        found = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in names]
        assert {fn.name for fn in found} == names
        yield from found


def float_sources(fn) -> list:
    """Line numbers in ``fn`` of a true division or a ``float(...)`` call."""
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"]


def test_no_float_in_the_kernel():
    # an int / int would silently bring a float into the exact core
    for fn in kernel_functions():
        assert float_sources(fn) == [], fn.name


def test_float_scan_flags_division_and_float():
    source = "def f(a, b):\n    c = a // b\n    c /= 2\n    return float(a) + a / b\n"
    assert sorted(float_sources(ast.parse(source).body[0])) == [3, 4, 4]
