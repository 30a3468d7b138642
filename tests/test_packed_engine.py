"""The tree engine on packed payoff vectors, with the last agent summed in
its parent, against the tuple engine that came before it (``frozen_engine``),
and the bound that keeps each packed entry inside its slot."""

from fractions import Fraction as F

import pytest

from historyvalue import best_equilibrium_payoffs, simulate_equilibrium, validate_structure
from historyvalue import learning
from historyvalue.beliefs import induced_belief_distribution
from historyvalue.design import corpus

from frozen_engine import tuple_payoffs

HALF = F(1, 2)
CHOICES = [learning._BOTH, *learning._RULES.values()]
CHOICE_IDS = ["search", *learning._RULES]


def mirror_fixture():
    return validate_structure({"a": (HALF, F(1, 6)), "b": (F(1, 3), F(1, 3)), "c": (F(1, 6), HALF)})


def full_info():
    return validate_structure({"s1": (F(1), F(0)), "s2": (F(0), F(1))})


def no_info():
    return validate_structure({"s1": (HALF, HALF), "s2": (HALF, HALF)})


SHALLOW = [*corpus(7, 300), *corpus(101, 300, 6, 12), mirror_fixture(), full_info(), no_info()]
# ten structures of corpus(303, 200, 6, 30), six signals over denominators up
# to 30: the search of the first stores the most states at horizon 28, and
# the rest rank from 6th to 14th
DEEP = [corpus(303, 200, 6, 30)[k] for k in (16, 13, 178, 24, 127, 98, 66, 100, 191, 91)]


def unpacked_states(table, width) -> dict:
    """Each stored state ``(a, b, r)`` of one engine call with its ``r``
    entries read out of their ``width``-bit slots, the first agent's on top."""
    mask = (1 << width) - 1
    return {(a, b, r): tuple((v >> width * j) & mask for j in range(r - 1, -1, -1))
            for (a, b, r), v in table.items()}


@pytest.mark.parametrize("choices", CHOICES, ids=CHOICE_IDS)
def test_matches_the_tuple_engine_at_every_horizon(choices):
    distributions = dict.fromkeys(map(induced_belief_distribution, SHALLOW))
    for signal in distributions:
        for horizon in range(learning.HORIZON_CAP + 1):
            expected = tuple_payoffs(signal, horizon, choices)
            assert learning._payoffs(signal, horizon, choices) == expected, (signal, horizon)


@pytest.mark.parametrize("horizon", [20, 28])
def test_matches_the_tuple_engine_deep(empty_memo, monkeypatch, horizon):
    # the search at both depths, the fixed rules at the shallower one
    monkeypatch.setattr(learning, "HORIZON_CAP", horizon)
    for structure in DEEP:
        signal = induced_belief_distribution(structure)
        got = best_equilibrium_payoffs(structure, horizon).integer_payoffs
        assert got == tuple_payoffs(signal, horizon, learning._BOTH), structure
        for rule, choices in learning._RULES.items() if horizon == 20 else ():
            got = simulate_equilibrium(structure, horizon, rule).integer_payoffs
            assert got == tuple_payoffs(signal, horizon, choices), (structure, rule)


def test_every_stored_entry_fits_its_slot(state_tables):
    # the three deep structures of largest D, at the deepest horizon tested:
    # a node at depth k = h - r has reach a, b <= D^k, entry i of its vector
    # is at most a * D^(i+1), so every entry is at most D^h < 2^W; and each
    # stored state, read out of its slots, is the tuple engine's
    horizon, stored = 28, 0
    widest = sorted(map(induced_belief_distribution, DEEP), key=lambda d: d.integer_form[0])[-3:]
    assert [d.integer_form[0] for d in widest] == [368, 374, 575]
    for signal in widest:
        scale = signal.integer_form[0]
        width, _ = learning._layout(scale, horizon)
        assert width == (scale**horizon).bit_length()
        learning._payoffs(signal, horizon, learning._BOTH)
        frozen = {}
        tuple_payoffs(signal, horizon, learning._BOTH, frozen)
        states = unpacked_states(state_tables[-1], width)
        stored += len(states)
        for (a, b, r), entries in states.items():
            assert max(a, b) <= scale ** (horizon - r)
            assert all(v <= a * scale ** (i + 1) <= scale**horizon
                       for i, v in enumerate(entries)), (a, b, r)
            assert entries == frozen[a, b, r]
    assert stored > 5000


def test_slot_width_is_reached():
    # under full information every agent earns 1/4, entry D^h over 4 D^h
    # with D = 1: the one-bit slots are full, and no narrower slot holds it
    signal = induced_belief_distribution(full_info())
    assert signal.integer_form[0] == 1
    for horizon in range(1, learning.HORIZON_CAP + 1):
        assert learning._layout(1, horizon)[0] == 1
        assert learning._payoffs(signal, horizon, learning._BOTH) == (1,) * horizon


def test_cascade_vectors_are_one_product():
    # cascades[r] packs (1, D, ..., D^(r-1)), so x * cascades[r] packs
    # (x, x D, ..., x D^(r-1))
    for scale, horizon in ((1, 1), (6, 7), (30, 28)):
        width, cascades = learning._layout(scale, horizon)
        for r in range(1, horizon + 1):
            x = scale ** (horizon - r + 1)  # the largest entry 0 at depth h - r
            packed = unpacked_states({(x, 1, r): x * cascades[r]}, width)[x, 1, r]
            assert packed == tuple(x * scale**i for i in range(r))


def test_layout_is_computed_once_per_scale_and_horizon(empty_memo):
    learning._layout.cache_clear()
    for structure in corpus(0, 50):
        best_equilibrium_payoffs(structure, 6)
        simulate_equilibrium(structure, 6)
    scales = {induced_belief_distribution(s).integer_form[0] for s in corpus(0, 50)}
    info = learning._layout.cache_info()
    assert info.misses == len(scales) and info.hits > 0
