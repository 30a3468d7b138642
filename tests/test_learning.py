import ast
import gc
import itertools
import json
import math
import pathlib
import subprocess
import sys
import threading
from fractions import Fraction as F

import pytest

from historyvalue import (
    ACTION0,
    ACTION1,
    FOLLOW_SIGNAL,
    best_equilibrium_payoffs,
    full_observation_payoff,
    simulate_equilibrium,
    single_signal_payoff,
    social_value,
    ternary_structure,
    validate_structure,
)
from historyvalue.beliefs import induced_belief_distribution, structure_from_json, structure_to_json
from historyvalue.cli import EXIT_OK, main
from historyvalue.design import CORPUS_CAP, corpus, split_to_ternary
from historyvalue.errors import (
    HistoryValueError,
    HorizonCapExceeded,
    InvariantViolation,
    TooManyIndifferenceNodes,
    ValidationError,
)
from historyvalue import beliefs, learning
from historyvalue.learning import _check_node, truncation_horizon

HALF = F(1, 2)


def sym_binary():
    return validate_structure({"s1": (F(2, 3), F(1, 3)), "s2": (F(1, 3), F(2, 3))})


def full_info():
    return validate_structure({"s1": (F(1), F(0)), "s2": (F(0), F(1))})


def no_info():
    return validate_structure({"s1": (HALF, HALF), "s2": (HALF, HALF)})


def fixture():
    return validate_structure(
        {"a": (F(1, 2), F(1, 6)), "b": (F(1, 3), F(1, 3)), "c": (F(1, 6), F(1, 2))}
    )


CORPUS = [s for base in corpus(7, 60) for s in (base, split_to_ternary(base))]


# The oracles' own engine, frozen apart from the library's: one generation
# of the public-belief tree with every tie settled by ``choose(public,
# private)``.  A level maps public belief -> [like_high, like_low].
def frozen_advance(level, atoms, choose):
    payoff = F(0)
    nxt = {}
    indifference = []
    for public, (lh, ll) in level.items():
        sums = {1: [F(0), F(0)], 0: [F(0), F(0)]}
        for private, wh, wl in atoms:
            ph = lh * wh
            pl = ll * wl
            if ph == 0 and pl == 0:
                continue
            if ph > pl:
                action = 1
                payoff += (ph - pl) / 4
            elif ph < pl:
                action = 0
            else:
                indifference.append((public, private))
                action = choose(public, private)
            sums[action][0] += wh
            sums[action][1] += wl
        for action in (1, 0):
            ch = lh * sums[action][0]
            cl = ll * sums[action][1]
            if ch == 0 and cl == 0:
                continue
            node = nxt.setdefault(ch / (ch + cl), [F(0), F(0)])
            node[0] += ch
            node[1] += cl
    return payoff, nxt, indifference


FROZEN_ROOT = {HALF: [F(1), F(1)]}

FROZEN_RULES = {
    ACTION1: lambda q, x: 1,
    ACTION0: lambda q, x: 0,
    FOLLOW_SIGNAL: lambda q, x: 1 if x >= HALF else 0,
}


def table_chooser(table):
    """Settle each tie by looking up ``(public, private)`` in ``table``."""
    return lambda q, x: table[(q, x)]


def frozen_simulate(structure, horizon, rule):
    """Oracle: per-agent payoffs under a fixed rule on the frozen engine."""
    atoms = induced_belief_distribution(structure).atoms
    level, values = FROZEN_ROOT, []
    for _ in range(horizon):
        payoff, level, _ = frozen_advance(level, atoms, FROZEN_RULES[rule])
        values.append(payoff)
    return tuple(values)


def raw_history_payoffs(structure, horizon, rule):
    """Oracle: per-agent payoffs under a fixed rule, walking every raw action
    history over the structure's own signals.  A history is kept as its
    probability in each state; no public belief is formed or merged."""
    signals = [(ph, pl) for _, ph, pl in structure.items()]
    histories, values = [(F(1), F(1))], []
    for _ in range(horizon):
        payoff, longer = F(0), []
        for hh, hl in histories:
            reach = {1: [F(0), F(0)], 0: [F(0), F(0)]}
            for ph, pl in signals:
                high, low = hh * ph, hl * pl
                if high == low == 0:
                    continue
                if high > low:
                    action = 1
                    payoff += (high - low) / 4
                elif high < low:
                    action = 0
                else:
                    action = FROZEN_RULES[rule](None, ph / (ph + pl))
                reach[action][0] += ph
                reach[action][1] += pl
            longer += [(hh * ah, hl * al) for ah, al in reach.values()]
        histories = longer
        values.append(payoff)
    return tuple(values)


def exhaustive_best(structure, horizon):
    """Oracle: the lexicographic maximum over the payoff vectors of every
    tie-break table, enumerated to the leaves without pruning or merging
    equal levels."""
    atoms = induced_belief_distribution(structure).atoms
    vectors = []

    def explore(level, depth, acc):
        if depth == horizon:
            vectors.append(tuple(acc))
            return
        _, _, points = frozen_advance(level, atoms, FROZEN_RULES[ACTION1])
        for assignment in itertools.product((1, 0), repeat=len(points)):
            choose = table_chooser(dict(zip(points, assignment)))
            payoff, nxt, _ = frozen_advance(level, atoms, choose)
            explore(nxt, depth + 1, acc + [payoff])

    explore(FROZEN_ROOT, 0, [])
    return max(vectors)


def frozen_states(structure, horizon):
    """Oracle: the ``(public belief, agents left)`` pairs the search reaches
    and stores on the frozen engine, from the root with ``horizon`` agents
    left, every tie taking either action.  A cascade, a pair with more than
    one agent left, no tie point and one child, is neither counted nor
    visited below, and a pair with one agent left is counted only at the
    root: below it, the last agent is summed in its parent."""
    atoms = induced_belief_distribution(structure).atoms
    seen = set()

    def visit(public, reach, left):
        if (public, left) in seen:
            return
        if left == 1:
            if horizon == 1:
                seen.add((public, left))
            return
        _, nxt, points = frozen_advance({public: reach}, atoms, FROZEN_RULES[ACTION1])
        if not points and len(nxt) == 1:
            return
        seen.add((public, left))
        for assignment in itertools.product((1, 0), repeat=len(points)):
            choose = table_chooser(dict(zip(points, assignment)))
            _, nxt, _ = frozen_advance({public: reach}, atoms, choose)
            for child, child_reach in nxt.items():
                visit(child, child_reach, left - 1)

    if horizon:
        visit(HALF, FROZEN_ROOT[HALF], horizon)
    return seen


class TestSingleSignalPayoff:
    @pytest.mark.parametrize("eps", [F(0), F(1, 4), F(1, 2), F(1)])
    def test_ternary(self, eps):
        assert single_signal_payoff(ternary_structure(eps)) == (1 - eps) / 4

    def test_full_information(self):
        assert single_signal_payoff(full_info()) == F(1, 4)

    def test_symmetric_binary(self):
        assert single_signal_payoff(sym_binary()) == F(1, 12)


class TestFullObservationPayoff:
    @pytest.mark.parametrize("i", [1, 2, 3, 6])
    def test_ternary(self, i):
        eps = F(1, 3)
        assert full_observation_payoff(ternary_structure(eps), i) == (1 - eps**i) / 4

    def test_base_case(self):
        s = sym_binary()
        assert full_observation_payoff(s, 1) == single_signal_payoff(s)

    def test_symmetric_binary_two(self):
        # only the belief-4/5 atom clears the cutoff: (5/18) * (3/10)
        assert full_observation_payoff(sym_binary(), 2) == F(1, 12)


class TestSimulateEquilibrium:
    def test_ternary_action1(self):
        p = simulate_equilibrium(ternary_structure(HALF), 3, ACTION1)
        assert p.with_history == (F(1, 8), F(3, 16), F(7, 32))

    def test_full_information_history_worthless(self):
        p = simulate_equilibrium(full_info(), 5)
        assert set(p.with_history) == {F(1, 4)}
        assert set(p.history_value) == {F(0)}

    @pytest.mark.parametrize("rule", [ACTION1, ACTION0, FOLLOW_SIGNAL])
    def test_symmetric_binary_any_rule(self, rule):
        p = simulate_equilibrium(sym_binary(), 2, rule)
        assert p.with_history[1] == F(1, 12)

    def test_symmetric_rules_agree(self):
        # state-relabeling symmetry: both fixed rules give identical payoffs
        a = simulate_equilibrium(sym_binary(), 5, ACTION1)
        b = simulate_equilibrium(sym_binary(), 5, ACTION0)
        assert a.with_history == b.with_history

    def test_horizon_cap(self):
        simulate_equilibrium(sym_binary(), learning.HORIZON_CAP)
        with pytest.raises(HorizonCapExceeded, match="^horizon 13 exceeds cap 12$"):
            simulate_equilibrium(sym_binary(), learning.HORIZON_CAP + 1)

    @pytest.mark.parametrize("rule", [{}, None, "nope", {(0, HALF, HALF): 1}])
    def test_unknown_rule_rejected(self, rule):
        with pytest.raises(ValidationError) as err:
            simulate_equilibrium(ternary_structure(HALF), 3, rule=rule)
        assert "tie-break rule" in str(err.value) and repr(rule) in str(err.value)

    @pytest.mark.parametrize("rule", [ACTION1, ACTION0, FOLLOW_SIGNAL])
    def test_matches_frozen_engine(self, rule):
        for structure in CORPUS:
            got = simulate_equilibrium(structure, 6, rule).with_history
            assert got == frozen_simulate(structure, 6, rule), structure
        horizon = learning.HORIZON_CAP
        got = simulate_equilibrium(fixture(), horizon, rule).with_history
        assert got == frozen_simulate(fixture(), horizon, rule)

    @pytest.mark.parametrize("rule", [ACTION1, ACTION0, FOLLOW_SIGNAL])
    def test_matches_raw_history_oracle(self, rule):
        for structure in [*CORPUS, fixture()]:
            got = simulate_equilibrium(structure, 5, rule).with_history
            assert got == raw_history_payoffs(structure, 5, rule), structure


class TestBestEquilibrium:
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 2), F(5, 6)])
    def test_ternary_closed_form(self, eps):
        p = best_equilibrium_payoffs(ternary_structure(eps), 4)
        assert p.history_value == tuple((eps - eps**i) / 4 for i in range(1, 5))

    def test_no_information(self):
        p = best_equilibrium_payoffs(no_info(), 4)
        assert set(p.history_value) == {F(0)}

    def test_symmetric_binary_agent2_blocked(self):
        # benchmark pins agent 2 to the signal-only payoff
        p = best_equilibrium_payoffs(sym_binary(), 3)
        assert p.history_value[1] == F(0)

    def test_sandwich(self):
        p = best_equilibrium_payoffs(sym_binary(), 5)
        for i in range(5):
            assert p.single <= p.with_history[i] <= p.benchmark[i]

    def test_monotone_ternary(self):
        p = best_equilibrium_payoffs(ternary_structure(F(2, 3)), 6)
        assert list(p.with_history) == sorted(p.with_history)

    def test_horizon_cap(self):
        # the search has the fixed rules' cap and message
        best_equilibrium_payoffs(sym_binary(), learning.HORIZON_CAP)
        with pytest.raises(HorizonCapExceeded, match="^horizon 13 exceeds cap 12$"):
            best_equilibrium_payoffs(sym_binary(), learning.HORIZON_CAP + 1)

    @pytest.mark.parametrize("rule", [ACTION1, ACTION0, FOLLOW_SIGNAL])
    def test_at_least_every_fixed_rule(self, rule):
        # a fixed rule is one of the tie-break tables the search ranges over
        cases = [(s, 6) for s in CORPUS] + [(fixture(), learning.HORIZON_CAP)]
        for structure, horizon in cases:
            best = best_equilibrium_payoffs(structure, horizon).with_history
            assert best >= simulate_equilibrium(structure, horizon, rule).with_history, structure

    def test_at_least_every_raw_history_rule(self):
        for structure in [*CORPUS, fixture()]:
            best = best_equilibrium_payoffs(structure, 5).with_history
            for rule in (ACTION1, ACTION0, FOLLOW_SIGNAL):
                assert best >= raw_history_payoffs(structure, 5, rule), (structure, rule)

    def test_equals_a_fixed_rule_on_seeded_corpora(self):
        # An observation, not a property the engine relies on: on these
        # corpora the lexicographic best is always one of the fixed rules.
        # It is false in general; see test_beats_every_fixed_rule.
        for seed in (100, 101, 102):
            for structure in corpus(seed, 200, 4, 6):
                best = best_equilibrium_payoffs(structure, 7).with_history
                rules = [simulate_equilibrium(structure, 7, rule).with_history
                         for rule in (ACTION1, ACTION0, FOLLOW_SIGNAL)]
                assert best in rules, structure

    def test_beats_every_fixed_rule(self):
        # corpus(202, 2000, 6, 12)[589], beliefs {2/7, 1/2, 4/5}: no fixed
        # rule reaches the lexicographic best
        structure = validate_structure({"s0": (F(2, 7), F(5, 7)), "s1": (F(4, 7), F(1, 7)),
                                        "s2": (F(1, 7), F(1, 7)), "s3": (F(0), F(0))})
        for horizon in (4, 5, 6):
            best = best_equilibrium_payoffs(structure, horizon).with_history
            assert best == exhaustive_best(structure, horizon)
        assert best[1] == F(27, 196) and best[3] == F(1539, 9604)
        rules = {rule: simulate_equilibrium(structure, 6, rule).with_history
                 for rule in (ACTION1, ACTION0, FOLLOW_SIGNAL)}
        assert rules[ACTION1][1] == rules[FOLLOW_SIGNAL][1] == F(6, 49)
        assert rules[ACTION0][:3] == best[:3] and rules[ACTION0][3] == F(1431, 9604)
        assert all(best[3] > payoffs[3] for payoffs in rules.values())


class TestOneWalk:
    def test_children_built_only_by_the_recursion(self):
        # the fixed rules and the search share one engine: only the
        # recursion splits a node into children, checks them and reduces
        # them, and only the engine's entry point starts it
        tree = ast.parse(pathlib.Path(learning.__file__).read_text())
        callers = {"_best": set(), "_check_node": set(), "gcd": set(), "_payoffs": set()}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    name = isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add(fn.name)
        assert callers == {"_best": {"_best", "_payoffs"}, "_check_node": {"_best"},
                           "gcd": {"_best"}, "_payoffs": {"simulate_equilibrium", "_search"}}
        defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
        assert defined.isdisjoint({"_walk", "_advance", "_children", "_check_level"})

    def test_truncation_horizon_called_only_from_truncated_payoffs(self):
        # the depth and the tail d^N / 4 of every truncated series are
        # chosen in one place
        callers = set()
        for path in pathlib.Path(learning.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call) and "truncation_horizon" in (
                                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                            callers.add((path.name, fn.name))
        assert callers == {("learning.py", "truncated_payoffs")}

    def test_only_beliefs_reads_atoms_and_rules_are_data(self):
        # outside beliefs, a distribution and a structure are read through
        # their integer forms, not their Fraction views, and a tie rule is a
        # table of actions, not a function of a belief
        views = {"atoms", "like_high", "like_low"}
        readers = [path.name for path in pathlib.Path(learning.__file__).parent.glob("*.py")
                   if path.name != "beliefs.py" and any(
                       isinstance(node, ast.Attribute) and node.attr in views
                       for node in ast.walk(ast.parse(path.read_text())))]
        assert readers == []
        for choices in (*learning._RULES.values(), learning._BOTH):
            assert not callable(choices) and not any(map(callable, choices)), choices


class TestPrefixPruning:
    @pytest.mark.parametrize("horizon", [4, 6])
    def test_matches_exhaustive_on_corpus(self, horizon):
        for structure in CORPUS:
            got = best_equilibrium_payoffs(structure, horizon).with_history
            assert got == exhaustive_best(structure, horizon), structure

    @pytest.mark.parametrize("horizon", range(1, 7))
    def test_matches_exhaustive_on_fixture(self, horizon):
        assert best_equilibrium_payoffs(fixture(), horizon).with_history == exhaustive_best(
            fixture(), horizon
        )

    def test_later_agent_does_not_outrank_earlier(self):
        # Some tie-break gives agent 4 a payoff of 127/1728, but only after a
        # depth-2 level on which agent 3 earns less than its best, 61/864.
        structure = validate_structure(
            {"s0": (F(1, 3), F(1, 2)), "s1": (F(1, 3), F(1, 6)), "s2": (F(1, 3), F(1, 3))}
        )
        got = best_equilibrium_payoffs(structure, 4).with_history
        assert got == exhaustive_best(structure, 4)
        assert got[2:] == (F(61, 864), F(95, 1296))

    @pytest.mark.parametrize("structure", [fixture(), sym_binary(), ternary_structure(F(1, 3))])
    def test_prefix_of_longer_horizon(self, structure):
        # agent k's payoff does not depend on how many agents follow
        full = best_equilibrium_payoffs(structure, 7).with_history
        for k in range(7):
            assert full[:k] == best_equilibrium_payoffs(structure, k).with_history

    @pytest.mark.parametrize("structure, horizon", [(fixture(), 7), (sym_binary(), 6)],
                             ids=["fixture-7", "sym-binary-6"])
    def test_cap_reports_real_count(self, empty_memo, monkeypatch, structure, horizon):
        # the search needs exactly the states the frozen engine reaches: a
        # cap of that many passes, one fewer raises with the count
        count = len(frozen_states(structure, horizon))
        assert count == {7: 39, 6: 12}[horizon]
        monkeypatch.setattr(learning, "MAX_STATES", count)
        got = best_equilibrium_payoffs(structure, horizon).integer_payoffs
        assert got == fresh_search(structure, horizon)
        empty_memo.cache_clear()
        monkeypatch.setattr(learning, "MAX_STATES", count - 1)
        with pytest.raises(TooManyIndifferenceNodes) as err:
            best_equilibrium_payoffs(structure, horizon)
        assert err.value.count == count
        assert str(err.value) == f"{count} public-belief states exceed {count - 1}"

    def test_cap_checked_as_each_state_is_added(self, empty_memo, monkeypatch, state_tables):
        # under a cap of 10 the table holds 10 states when the 11th raises;
        # past them, only the raising state's path from the root was begun
        best, begun = learning._best, []

        def counting(a, b, r, game, states):
            begun.append((a, b, r) not in states)
            return best(a, b, r, game, states)

        monkeypatch.setattr(learning, "_best", counting)
        monkeypatch.setattr(learning, "MAX_STATES", 10)
        with pytest.raises(TooManyIndifferenceNodes) as err:
            best_equilibrium_payoffs(fixture(), 7)
        (table,) = state_tables
        assert err.value.count == 11 and len(table) == 10
        assert 11 <= sum(begun) <= 10 + 7
        # the engine itself raises the same error, outside the memo
        with pytest.raises(TooManyIndifferenceNodes) as direct:
            fresh_search(fixture(), 7)
        assert str(direct.value) == str(err.value) == "11 public-belief states exceed 10"

    def test_cap_checked_only_when_the_memo_computes(self, empty_memo, monkeypatch):
        # the entry is stored under the default cap; served under a cap of 2
        # it computes nothing, so the cap has no work to bound
        stored = best_equilibrium_payoffs(fixture(), 4).with_history
        monkeypatch.setattr(learning, "MAX_STATES", 2)

        def no_search(*_args):
            raise AssertionError("the memo should serve this search")

        with monkeypatch.context() as patch:
            patch.setattr(learning, "_best", no_search)
            assert best_equilibrium_payoffs(fixture(), 4).with_history == stored
        assert empty_memo.cache_info()[:2] == (1, 1)  # served: one hit
        empty_memo.cache_clear()
        with pytest.raises(TooManyIndifferenceNodes) as fresh:
            best_equilibrium_payoffs(fixture(), 4)
        assert empty_memo.cache_info()[:2] == (0, 1)  # computed: one miss
        assert fresh.value.count == 3
        assert str(fresh.value) == "3 public-belief states exceed 2"
        # at horizon 1 no state is stored: agent 1 acts on its signal alone
        assert best_equilibrium_payoffs(fixture(), 1).integer_payoffs == fresh_search(fixture(), 1)


def unshortcut_best(a, b, r, game, states):
    """The engine's ``_best`` as it was before the cascade shortcut: it
    recurses below, and stores, every node."""
    key = a, b, r
    found = states.get(key)
    if found is not None:
        return found
    weights, scale, choices = game
    h1 = l1 = h0 = l0 = 0
    tied = th = tl = 0
    for wh, wl in weights:
        ph = a * wh
        pl = b * wl
        if ph > pl:
            h1 += ph
            l1 += pl
        elif ph < pl:
            h0 += ph
            l0 += pl
        elif ph:
            tied, th, tl = wh >= wl, ph, pl
    rest = ()
    if r > 1:
        for action in choices[tied] if th else (1,):
            sides = ((h1 + th, l1 + tl), (h0, l0)) if action else ((h1, l1), (h0 + th, l0 + tl))
            total = [0] * (r - 1)
            for ch, cl in _check_node((a, b), sides, scale):
                if ch or cl:
                    g = math.gcd(ch, cl)
                    for i, v in enumerate(unshortcut_best(ch // g, cl // g, r - 1, game, states)):
                        total[i] += g * v
            rest = max(rest, tuple(total))
    states[key] = found = (h1 - l1, *rest)
    return found


def is_cascade(a, b, weights):
    """Whether no signal ties at the node ``(a, b)`` and every signal it
    reaches takes one action."""
    sides = {(a * wh > b * wl) - (a * wh < b * wl) for wh, wl in weights if a * wh or b * wl}
    return len(sides) == 1 and 0 not in sides


class TestCascade:
    @pytest.mark.parametrize("choices", [learning._BOTH, *learning._RULES.values()],
                             ids=["search", *learning._RULES])
    def test_payoffs_match_the_engine_without_the_shortcut(self, choices):
        horizon = learning.HORIZON_CAP
        for structure in corpus(7, 300):
            signal = induced_belief_distribution(structure)
            scale, weights = signal.integer_form
            root = unshortcut_best(1, 1, horizon, (weights, scale, choices), {})
            assert learning._payoffs(signal, horizon, choices) == root, structure

    def test_no_cascade_is_stored_above_the_last_agent(self, state_tables, monkeypatch):
        check, checked = learning._check_node, []

        def recording(node, children, scale):
            checked.append(node)
            return check(node, children, scale)

        monkeypatch.setattr(learning, "_check_node", recording)
        reached = 0
        for structure in corpus(7, 100):
            signal = induced_belief_distribution(structure)
            del checked[:]
            learning._payoffs(signal, 8, learning._BOTH)
            _, weights = signal.integer_form
            keys = state_tables[-1]
            assert not [k for k in keys if k[2] > 1 and is_cascade(*k[:2], weights)], structure
            # nor the last agent's nodes: each is summed in its parent
            assert all(r > 1 for _, _, r in keys), structure
            reached += sum(is_cascade(a, b, weights) for a, b in checked)
        # cascades are reached: the node check meets them
        assert len(state_tables) == 100 and reached > 0

    @pytest.mark.parametrize("horizon", range(3, learning.HORIZON_CAP + 1))
    def test_full_information_stores_only_its_root(self, state_tables, horizon):
        # the first action reveals the state, and every node below cascades
        signal = induced_belief_distribution(ternary_structure(0))
        payoffs = learning._payoffs(signal, horizon, learning._BOTH)
        assert payoffs == (1,) * horizon  # 1/4 each, over 4 * D^i with D = 1
        assert learning.PayoffProfile(signal, payoffs).with_history == (F(1, 4),) * horizon
        (table,) = state_tables
        assert list(table) == [(1, 1, horizon)]


def fresh_search(structure, horizon):
    """The first ``horizon`` best payoffs of a new engine call, outside the
    memo, in the integers that ``PayoffProfile.integer_payoffs`` stores."""
    return learning._payoffs(induced_belief_distribution(structure), horizon, learning._BOTH)


def held_tables(tables) -> list:
    """The recorded state tables that anything but the record refers to."""
    return [table for table in tables if gc.get_referrers(table) != [tables]]


class TestSearchMemo:
    @pytest.mark.parametrize("order", [1, -1], ids=["short-then-long", "long-then-short"])
    def test_matches_fresh_search(self, empty_memo, order):
        for structure in CORPUS:
            expected = fresh_search(structure, learning.HORIZON_CAP)
            for horizon in range(learning.HORIZON_CAP + 1)[::order]:
                got = best_equilibrium_payoffs(structure, horizon).integer_payoffs
                assert got == expected[:horizon], (structure, horizon)

    def test_stays_within_bound(self, empty_memo):
        bound = learning.SEARCH_MEMO_SIZE
        structures = [ternary_structure(F(1, 10007 + k)) for k in range(bound + 3)]
        keys = [induced_belief_distribution(s) for s in structures]
        entries = []
        for structure, key in zip(structures, keys):
            best_equilibrium_payoffs(structure, 2)
            entries.append(empty_memo(key, 2))
            assert empty_memo.cache_info().currsize <= bound
        info = empty_memo.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (bound, bound, bound + 3)
        # the last ``bound`` entries are served; the first three were evicted
        assert all(empty_memo(k, 2) is e for k, e in zip(keys[3:], entries[3:]))
        assert empty_memo.cache_info().misses == bound + 3
        assert all(empty_memo(k, 2) is not e for k, e in zip(keys[:3], entries[:3]))

    def test_holds_a_whole_corpus(self):
        assert learning._search.cache_info().maxsize == learning.SEARCH_MEMO_SIZE >= CORPUS_CAP

    def test_verify_searches_each_distribution_once(self, empty_memo, tmp_path, capsys):
        # a corpus of 1000 structures repeats distributions; each is searched
        # once, and every repeat is served
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"horizon": 6, "seed": 0, "corpus": {"count": 1000}}))
        assert main(["verify", "--config", str(config)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["all_pass"]
        distinct = set(map(induced_belief_distribution, corpus(0, 1000)))
        info = empty_memo.cache_info()
        assert len(distinct) < 1000
        assert (info.misses, info.hits) == (len(distinct), 1000 - len(distinct))

    def test_equal_and_relabelled_structures_share_an_entry(self, empty_memo, monkeypatch):
        text = ('{"signals": [{"id": "a", "pH": "1/2", "pL": "1/6"}, '
                '{"id": "b", "pH": "1/3", "pL": "1/3"}, {"id": "c", "pH": "1/6", "pL": "1/2"}]}')
        relabelled = validate_structure(
            {"z": (F(1, 6), F(1, 2)), "x": (F(2, 4), F(1, 6)), "y": (F(1, 3), F(1, 3))}
        )
        first = best_equilibrium_payoffs(structure_from_json(text), 5)
        entry = empty_memo(first.signal, 5)
        info = empty_memo.cache_info()

        def no_search(*_args):
            raise AssertionError("the memo should serve this search")

        monkeypatch.setattr(learning, "_best", no_search)
        for structure in (structure_from_json(text), relabelled):
            profile = best_equilibrium_payoffs(structure, 5)
            assert profile.with_history == first.with_history
            assert empty_memo(profile.signal, 5) is entry
        after = empty_memo.cache_info()
        assert (after.misses, after.currsize) == (info.misses, info.currsize) == (1, 1)

    def test_fixed_rule_never_served_to_search(self):
        # action 1 at every tie is not the lexicographic best here
        structure = validate_structure({"s0": (F(0), F(1, 4)), "s1": (F(1, 6), F(1, 4)),
                                        "s2": (F(1, 2), F(1, 2)), "s3": (F(1, 3), F(0))})
        before = learning._search.cache_info()
        rule = simulate_equilibrium(structure, 4, ACTION1).integer_payoffs
        assert learning._search.cache_info() == before
        best = best_equilibrium_payoffs(structure, 4).integer_payoffs
        assert best == fresh_search(structure, 4) != rule
        # and the search is never served to the fixed rule
        info = learning._search.cache_info()
        served = simulate_equilibrium(structure, 4, ACTION1)
        assert served.integer_payoffs == rule
        assert learning._search.cache_info() == info
        assert served.with_history == frozen_simulate(structure, 4, ACTION1)

    def test_failed_search_is_not_reused(self, empty_memo, monkeypatch):
        # every node past the root fails its check, on every search
        def failing(node, children, scale):
            if node != (1, 1):
                raise InvariantViolation("injected")
            return children

        best_equilibrium_payoffs(fixture(), 1)
        monkeypatch.setattr(learning, "_check_node", failing)
        for misses in (2, 3):
            with pytest.raises(InvariantViolation, match="injected"):
                best_equilibrium_payoffs(fixture(), 3)
            # each failing call searches anew and stores nothing
            info = empty_memo.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, misses, 1)
        monkeypatch.undo()
        assert best_equilibrium_payoffs(fixture(), 3).integer_payoffs == fresh_search(fixture(), 3)
        entry = empty_memo(induced_belief_distribution(fixture()), 3)
        info = empty_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 4, 2)
        assert entry.integer_payoffs == fresh_search(fixture(), 3)

    def test_search_failing_once_is_recomputed(self, empty_memo, monkeypatch):
        check = learning._check_node
        failures = []

        def fails_once(node, children, scale):
            if node != (1, 1) and not failures:
                failures.append(node)
                raise InvariantViolation("injected")
            return check(node, children, scale)

        best_equilibrium_payoffs(fixture(), 1)
        monkeypatch.setattr(learning, "_check_node", fails_once)
        with pytest.raises(InvariantViolation, match="injected"):
            best_equilibrium_payoffs(fixture(), 3)
        assert empty_memo.cache_info().currsize == 1  # the failure is not stored
        got = best_equilibrium_payoffs(fixture(), 3).integer_payoffs
        assert got == fresh_search(fixture(), 3) and len(failures) == 1
        assert empty_memo.cache_info().currsize == 2

    def test_no_state_table_outlives_its_call(self, empty_memo, tmp_path, capsys, monkeypatch,
                                              state_tables):
        # an entry is a finished tuple: no call's state table stays behind,
        # after ``hv design`` in-process or once a failed call's error is
        # dropped, and none waits for a collection to be freed
        config = tmp_path / "design.json"
        config.write_text(json.dumps({"horizon": 7, "structure": json.loads(structure_to_json(fixture()))}))
        assert main(["design", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert empty_memo.cache_info().currsize > 0
        assert len(state_tables) > 1 and held_tables(state_tables) == []
        del state_tables[:]
        monkeypatch.setattr(learning, "MAX_STATES", 2)
        with pytest.raises(TooManyIndifferenceNodes):
            best_equilibrium_payoffs(sym_binary(), 6)
        assert len(state_tables) == 1 and held_tables(state_tables) == []

    def test_concurrent_callers(self, empty_memo):
        # 4 threads (more than this suite's 2-core host) switching often,
        # each extending and serving the same entries in its own order
        structures = [fixture(), sym_binary(), *CORPUS[:4]]
        cases = [(s, h) for s in structures for h in (7, 2, learning.HORIZON_CAP, 4, 1, 5)]
        # profiles built outside the memo, their derived values read before
        # the threads start
        expected = {}
        for s, h in cases:
            fresh = learning.PayoffProfile(induced_belief_distribution(s), fresh_search(s, h))
            expected[s, h] = fresh.with_history, fresh.single, fresh.history_value, fresh.benchmark
        start = threading.Barrier(4, timeout=60)
        results, errors = [], []

        def run(offset):
            try:
                start.wait()
                for structure, horizon in cases[offset:] + cases[:offset]:
                    p = best_equilibrium_payoffs(structure, horizon)
                    got = p.with_history, p.single, p.history_value, p.benchmark
                    results.append((structure, horizon, got))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k * 5,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * len(cases)
        for structure, horizon, got in results:
            assert got == expected[structure, horizon]


class TestSocialValue:
    def test_ternary_exact(self):
        got = social_value(ternary_structure(HALF), HALF, F(1, 2**20))
        assert got.value == F(1, 24) and got.exact

    def test_full_information(self):
        got = social_value(full_info(), F(3, 4), F(1, 10**6))
        assert got.value == 0

    def test_no_information(self):
        got = social_value(no_info(), F(3, 4), F(1, 10**6))
        assert got.value == 0

    def test_truncated_general(self):
        got = social_value(sym_binary(), F(1, 4), F(1, 10**4))
        assert not got.exact
        assert got.error_bound <= F(1, 10**4)
        # positive: agent 3 onward gains from history
        assert got.value > 0

    def test_cap_error_names_cap_not_a_horizon(self):
        # 1/10^9 needs 28 agents at d = 1/2; the message must not claim 13
        with pytest.raises(HorizonCapExceeded) as err:
            social_value(sym_binary(), HALF, F(1, 10**9))
        assert err.value.achievable_tolerance == F(1, 16384)
        message = str(err.value)
        assert "cap 12" in message and "1/16384" in message
        assert "horizon 13" not in message

    def test_unreachable_tolerance(self):
        with pytest.raises(HorizonCapExceeded) as err:
            social_value(sym_binary(), F(9, 10), F(1, 10**12))
        assert err.value.achievable_tolerance == F(1, 4) * F(9, 10) ** 12


class TestCertifiedBounds:
    @pytest.mark.parametrize("delta", [HALF, F(3, 4)])
    def test_deeper_truncations_nest(self, delta):
        # at tolerance d^N / 4 each series sums exactly N agents and certifies
        # [v_N, v_N + e_N]; every deeper interval lies inside every shallower
        # one, so each bound holds of the values that a deeper cap computes
        cap = learning.HORIZON_CAP
        truncated = 0
        for structure in [fixture(), *corpus(7, 30)]:
            series = {}
            for n in range(1, cap + 1):
                tolerance = F(1, 4) * delta**n
                assert truncation_horizon(delta, tolerance) == n
                series[n] = [social_value(structure, delta, tolerance)]
                for t in (2, 3):
                    series[n] += learning.discounted_surpluses(structure, delta, t, tolerance)
            for n, m in itertools.combinations(range(1, cap + 1), 2):
                for shallow, deep in zip(series[n], series[m]):
                    assert shallow.value <= deep.value, (structure, n, m)
                    assert (deep.value + deep.error_bound
                            <= shallow.value + shallow.error_bound), (structure, n, m)
            truncated += not series[cap][0].exact
        assert truncated > 10


class TestCsvExport:
    def test_columns_and_roundtrip(self):
        p = best_equilibrium_payoffs(ternary_structure(HALF), 3)
        text = p.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("i,V_i,Vbar_i,hist_value_i")
        row = lines[2].split(",")
        assert row[0] == "2"
        assert F(row[1]) == p.with_history[1]
        assert F(row[3]) == p.history_value[1]


class TestHorizonEdges:
    @pytest.mark.parametrize("solve", [simulate_equilibrium, best_equilibrium_payoffs])
    def test_negative_horizon_rejected(self, solve):
        with pytest.raises(ValidationError):
            solve(sym_binary(), -1)

    @pytest.mark.parametrize("solve", [simulate_equilibrium, best_equilibrium_payoffs])
    def test_zero_horizon_is_empty_profile(self, solve):
        p = solve(sym_binary(), 0)
        assert p.horizon == 0
        assert p.with_history == p.benchmark == p.history_value == ()
        assert p.single == single_signal_payoff(sym_binary())

    @pytest.mark.parametrize(
        "structure", [sym_binary(), ternary_structure(F(1, 3)), full_info(), no_info()]
    )
    def test_benchmark_matches_full_observation(self, structure):
        expected = tuple(full_observation_payoff(structure, i) for i in range(1, 7))
        assert simulate_equilibrium(structure, 6).benchmark == expected
        assert best_equilibrium_payoffs(structure, 6).benchmark == expected


class TestTruncationHorizon:
    def test_smallest_depth(self):
        # (1/2)^N / 4 <= 1/100 first holds at N = 5
        assert truncation_horizon(HALF, F(1, 100)) == 5
        assert truncation_horizon(HALF, F(1, 4)) == 1

    def test_cap(self, monkeypatch):
        # (1/2)^12 / 4 = 1/16384 is reached at the cap, and nothing below it
        assert truncation_horizon(HALF, F(1, 16384)) == learning.HORIZON_CAP
        with pytest.raises(HorizonCapExceeded, match="not reached within cap 12;") as err:
            truncation_horizon(HALF, F(1, 16385))
        assert err.value.achievable_tolerance == F(1, 16384)
        monkeypatch.setattr(learning, "HORIZON_CAP", 4)
        with pytest.raises(HorizonCapExceeded, match="not reached within cap 4;") as err:
            truncation_horizon(HALF, F(1, 10**6))
        assert err.value.achievable_tolerance == F(1, 4) * HALF**4


# The fixture's root, its signals integers over D = 6: (3, 1) prefers
# action 1, (1, 3) action 0 and (2, 2) ties.  Action 1 at the tie gives
# the children (5, 3) and (1, 3), which sum to the root's reach (1, 1)
# times 6 in each state.
ROOT_CHILDREN = ((5, 3), (1, 3))


class TestNodeInvariant:
    def test_consistent_node_passes(self):
        assert _check_node((1, 1), ROOT_CHILDREN, 6) is ROOT_CHILDREN
        # a node of reach (1, 0) over D = 6 sends all its weight one way
        _check_node((1, 0), ((6, 0), (0, 0)), 6)

    def test_cascade_node_is_checked(self):
        # the node (1, 0) sends every signal to action 1, a cascade, but its
        # weights sum to 3, not D = 4: it raises, and nothing is stored
        states = {}
        game = (((2, 1), (1, 2)), 4, learning._BOTH, *learning._layout(4, 3))
        with pytest.raises(InvariantViolation):
            learning._best(1, 0, 3, game, states)
        assert states == {}

    @pytest.mark.parametrize("children", [((3, 1), (1, 3)), ((5, 3), (1, 4)), ((5, 3), (0, 3))],
                             ids=["tie-dropped", "low-over", "high-short"])
    def test_unbalanced_node_raises(self, children):
        with pytest.raises(InvariantViolation) as err:
            _check_node((1, 1), children, 6)
        # an internal fault: not an input error, so the CLI maps it to exit 5
        assert isinstance(err.value, HistoryValueError)
        assert not isinstance(err.value, ValidationError)


def fraction_views(signal, integers) -> tuple:
    """``(with_history, single, history_value)`` as ``PayoffProfile`` built
    them when it stored ``Fraction``s: agent ``j + 1``'s payoff one
    ``Fraction(v, 4 * D^(j+1))`` of the engine's integers, and the gains
    ``with_history - single``."""
    scale = signal.integer_form[0]
    with_history = tuple(F(v, 4 * scale ** (j + 1)) for j, v in enumerate(integers))
    single = learning._expected_payoff(signal)
    return with_history, single, tuple(v - single for v in with_history)


class TestPayoffProfile:
    @pytest.mark.parametrize("rule", [None, *learning._RULES], ids=["search", *learning._RULES])
    def test_views_match_the_fraction_builder(self, empty_memo, rule):
        choices = learning._RULES.get(rule, learning._BOTH)
        for structure in [*corpus(7, 60), fixture(), full_info(), no_info()]:
            signal = induced_belief_distribution(structure)
            for horizon in range(learning.HORIZON_CAP + 1):
                if rule is None:
                    p = best_equilibrium_payoffs(structure, horizon)
                else:
                    p = simulate_equilibrium(structure, horizon, rule)
                got = p.with_history, p.single, p.history_value
                expected = fraction_views(signal, learning._payoffs(signal, horizon, choices))
                assert got == expected, (structure, horizon)
                assert all(type(q) is F for q in (p.single, *p.with_history, *p.history_value))

    def test_benchmark_composed_on_first_read_only(self, empty_memo, monkeypatch):
        calls, payoffs = [], []
        compose = beliefs.compose_distributions
        expected_payoff = learning._expected_payoff

        def counting(a, b):
            calls.append(1)
            return compose(a, b)

        def counting_payoffs(dist):
            payoffs.append(1)
            return expected_payoff(dist)

        monkeypatch.setattr(beliefs, "compose_distributions", counting)
        monkeypatch.setattr(learning, "_expected_payoff", counting_payoffs)
        p = best_equilibrium_payoffs(fixture(), 5)
        p.with_history, p.single, p.history_value
        assert calls == [] and len(payoffs) == 1
        first = p.benchmark
        assert len(calls) == 4 and len(payoffs) == 1 + 5
        assert p.benchmark is first and len(calls) == 4
        # a second caller, with an equal structure built anew, is served the
        # profile whose derived values are already there
        q = best_equilibrium_payoffs(fixture(), 5)
        assert q.single is p.single and q.history_value is p.history_value
        assert q.benchmark is first
        assert len(calls) == 4 and len(payoffs) == 1 + 5

    @pytest.mark.parametrize("solve", [simulate_equilibrium, best_equilibrium_payoffs])
    def test_single_is_first_agent_payoff(self, solve):
        for structure in corpus(7, 30):
            p = solve(structure, 4)
            assert p.single == p.with_history[0], structure

    def test_fields_are_signal_and_payoffs(self):
        assert learning.PayoffProfile._fields == ("signal", "integer_payoffs")


def test_no_assert_statements_in_library():
    # invariants must still be checked under python -O
    package = pathlib.Path(learning.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert at lines {found}"


def test_node_check_runs_under_python_O():
    # python -O strips assert statements: the node check raises there too,
    # called alone and from inside a search whose children it checks
    script = (
        "from fractions import Fraction\n"
        "from historyvalue import learning, ternary_structure\n"
        "from historyvalue.errors import InvariantViolation\n"
        "assert False, 'asserts are on'\n"
        "check = learning._check_node\n"
        "learning._check_node = lambda node, children, scale: check(node, children, scale + 1)\n"
        "third = ternary_structure(Fraction(1, 3))\n"
        "for run in (lambda: check((1, 1), ((3, 1), (1, 3)), 6),\n"
        "            lambda: learning.best_equilibrium_payoffs(third, 2)):\n"
        "    try:\n"
        "        run()\n"
        "    except InvariantViolation as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(pathlib.Path(learning.__file__).parent.parent)}, check=True,
    )
    assert proc.stdout.split() == ["InvariantViolation"] * 2
