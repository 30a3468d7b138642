import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import historyvalue
from historyvalue import (
    BeliefDistribution,
    compose_beliefs,
    iid_belief_distribution,
    induced_belief_distribution,
    posterior,
    structure_from_integers,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from historyvalue.errors import (
    CapExceeded,
    ContradictoryConclusiveBeliefs,
    EmptyAlphabet,
    NegativeLikelihood,
    NonStochastic,
    ParseError,
    ValidationError,
    ZeroProbabilitySignal,
)

HALF = F(1, 2)


def sym_binary():
    return validate_structure({"s1": (F(2, 3), F(1, 3)), "s2": (F(1, 3), F(2, 3))})


def full_info():
    return validate_structure({"s1": (F(1), F(0)), "s2": (F(0), F(1))})


def no_info():
    return validate_structure({"s1": (HALF, HALF), "s2": (HALF, HALF)})


class TestValidate:
    def test_symmetric_binary_ok(self):
        s = sym_binary()
        assert sum(s.like_high) == 1 and sum(s.like_low) == 1

    def test_full_information_ok(self):
        full_info()

    def test_non_stochastic(self):
        with pytest.raises(NonStochastic):
            validate_structure({"s1": (HALF, F(1, 3))})

    def test_negative(self):
        with pytest.raises(NegativeLikelihood):
            validate_structure({"s1": (F(3, 2), F(1)), "s2": (F(-1, 2), F(0))})

    def test_empty(self):
        with pytest.raises(EmptyAlphabet):
            validate_structure({})

    @pytest.mark.parametrize(
        "build, table",
        [
            (validate_structure, {"a": (float("nan"), 1)}),
            (validate_structure, {"a": ("x", 1)}),
            (validate_structure, {"a": (None, 1)}),
            (validate_structure, {"a": (float("inf"), 1)}),
            (validate_structure, {"a": 5}),
            (validate_structure, {"a": (HALF,)}),
            (validate_structure, {"a": (1, 1, 1)}),
            (validate_structure, {"a": (True, True)}),
            (BeliefDistribution.from_weights, {HALF: (1, -1)}),
            (BeliefDistribution.from_weights, {2: (2, -1), -1: (-1, 2)}),
            (BeliefDistribution.from_weights, {HALF: (1, 1, 1)}),
            (BeliefDistribution.from_weights, {HALF: 3}),
            (BeliefDistribution.from_weights, [(1, 1)]),
            (BeliefDistribution.from_weights, None),
            (validate_structure, 5),
        ],
        ids=repr,
    )
    def test_malformed_input_is_validation_error(self, build, table):
        with pytest.raises(ValidationError) as err:
            build(table)
        assert not isinstance(err.value, NegativeLikelihood)

    def test_malformed_container_message(self):
        assert raised(validate_structure, 5) == (
            ValidationError, "a structure needs a {signal: (p_high, p_low)} mapping, not int")
        assert raised(BeliefDistribution.from_weights, [(1, 1)]) == (
            ValidationError, "a distribution needs a {belief: (w_high, w_low)} mapping, not list")


#: (integer builder arguments, the same structure as a table of rationals)
#: whose two builders raise the same error.
BAD_COLUMNS = [
    ((("a", "b"), 2, ((3, 2), (-1, 0))), {"a": (F(3, 2), F(1)), "b": (-HALF, F(0))}),
    ((("a", "b"), 2, ((1, 2), (1, -1))), {"a": (HALF, F(1)), "b": (HALF, -HALF)}),
    ((("s1",), 6, ((3, 2),)), {"s1": (HALF, F(1, 3))}),
    ((("a", "b"), 4, ((1, 1), (2, 2))), {"a": (F(1, 4), F(1, 4)), "b": (HALF, HALF)}),
    (((), 1, ()), {}),
]


def raised(build, *args):
    with pytest.raises(ValidationError) as err:
        build(*args)
    return type(err.value), str(err.value)


class TestIntegerBuilder:
    def test_reduces_to_the_canonical_form(self):
        s = structure_from_integers(("a", "b"), 6, ((4, 2), (2, 4)))
        assert s == sym_binary()._replace(signals=("a", "b"))
        assert s.integer_likelihoods == (3, ((2, 1), (1, 2)))

    @pytest.mark.parametrize("args, table", BAD_COLUMNS, ids=repr)
    def test_errors_match_validate_structure(self, args, table):
        error = raised(structure_from_integers, *args)
        assert error == raised(validate_structure, table)
        assert error[0] in (NegativeLikelihood, NonStochastic, EmptyAlphabet)

    def test_messages(self):
        assert raised(structure_from_integers, *BAD_COLUMNS[0][0]) == (
            NegativeLikelihood, "signal 'b' has a negative likelihood")
        assert raised(structure_from_integers, *BAD_COLUMNS[2][0]) == (
            NonStochastic, "columns sum to 1/2 (high) and 1/3 (low), expected 1")
        for pair in ((1, 1, 0), (1,), 5):
            assert raised(structure_from_integers, ("a",), 1, (pair,)) == (
                ValidationError, "signal 'a' needs a (w_high, w_low) pair")
            assert raised(BeliefDistribution.from_weights, {HALF: pair}) == (
                ValidationError, "atom 1/2 needs a (w_high, w_low) pair")

    @pytest.mark.parametrize("args", [
        (("a",), 1, ((F(1), 1),)),
        (("a",), 1, ((1, 1.0),)),
        (("a",), 1, ((True, 1),)),
        (("a",), 0, ((0, 0),)),
        (("a",), F(1), ((1, 1),)),
        (("a",), True, ((1, 1),)),
        (("a", "b"), 1, ((1, 1),)),
        (("a",), 1, ((1, 1, 0),)),
        (("a",), 1, ((1,),)),
        (("a",), 1, (5,)),
    ], ids=repr)
    def test_malformed_input_is_validation_error(self, args):
        error_type, _ = raised(structure_from_integers, *args)
        assert error_type is ValidationError

    @given(
        scale=st.integers(1, 60),
        cuts=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_validate_structure(self, scale, cuts):
        # columns cut at sorted points: non-negative, each summing to scale
        high = sorted(min(h, scale) for h, _ in cuts)
        low = sorted(min(lo, scale) for _, lo in cuts)
        weights = [(b - a, d - c) for a, b, c, d in
                   zip([0, *high], [*high, scale], [0, *low], [*low, scale])]
        signals = [f"s{j}" for j in range(len(weights))]
        table = {s: (F(wh, scale), F(wl, scale)) for s, (wh, wl) in zip(signals, weights)}
        assert structure_from_integers(signals, scale, weights) == validate_structure(table)

    def test_checks_run_under_python_O(self):
        # python -O strips assert statements: the builder's checks are real
        # raises and give the same errors there
        script = (
            "from historyvalue import structure_from_integers\n"
            "from historyvalue.errors import ValidationError\n"
            "assert False, 'asserts are on'\n"
            f"for args in {[args for args, _ in BAD_COLUMNS[:3]]!r}:\n"
            "    try:\n"
            "        structure_from_integers(*args)\n"
            "    except ValidationError as exc:\n"
            "        print(type(exc).__name__, exc, sep=': ')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(pathlib.Path(historyvalue.__file__).parent.parent)}, check=True,
        )
        assert proc.stdout.splitlines() == [
            "NegativeLikelihood: signal 'b' has a negative likelihood",
            "NegativeLikelihood: signal 'b' has a negative likelihood",
            "NonStochastic: columns sum to 1/2 (high) and 1/3 (low), expected 1",
        ]


class TestPosterior:
    def test_uniform_prior(self):
        assert posterior(HALF, "s1", sym_binary()) == F(2, 3)

    def test_conclusive(self):
        assert posterior(HALF, "s1", full_info()) == 1

    def test_nonuniform_prior(self):
        # hand Bayes: (2/3 * 1/3) / (2/3 * 1/3 + 1/3 * 2/3)
        assert posterior(F(2, 3), "s2", sym_binary()) == HALF

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilitySignal):
            posterior(F(1), "s2", full_info())

    def test_unknown_signal(self):
        with pytest.raises(ValidationError, match="unknown signal: 'zz'"):
            posterior(HALF, "zz", sym_binary())


class TestCompose:
    def test_reinforcing(self):
        assert compose_beliefs(F(2, 3), F(2, 3)) == F(4, 5)

    def test_identity(self):
        assert compose_beliefs(F(3, 7), HALF) == F(3, 7)

    def test_cancellation(self):
        assert compose_beliefs(F(1, 3), F(2, 3)) == HALF

    def test_contradiction(self):
        with pytest.raises(ContradictoryConclusiveBeliefs):
            compose_beliefs(F(0), F(1))


class TestInducedDistribution:
    def test_symmetric_binary(self):
        d = induced_belief_distribution(sym_binary())
        assert d.atoms == (
            (F(1, 3), F(1, 3), F(2, 3)),
            (F(2, 3), F(2, 3), F(1, 3)),
        )

    def test_ternary(self):
        from historyvalue import ternary_structure

        eps = F(1, 3)
        d = induced_belief_distribution(ternary_structure(eps))
        assert d.atoms == (
            (F(0), F(0), 1 - eps),
            (HALF, eps, eps),
            (F(1), 1 - eps, F(0)),
        )

    def test_no_information_merges(self):
        d = induced_belief_distribution(no_info())
        assert d.atoms == ((HALF, F(1), F(1)),)

    def test_merge_idempotent(self):
        # Re-deriving from the merged atoms yields identical atoms.
        d = induced_belief_distribution(no_info())
        table = {i: (wh, wl) for i, (_b, wh, wl) in enumerate(d.atoms)}
        again = induced_belief_distribution(validate_structure(table))
        assert again.atoms == d.atoms


class TestIidDistribution:
    def test_two_draws_symmetric_binary(self):
        d = iid_belief_distribution(sym_binary(), 2)
        uncond = {b: d.unconditional(b) for b in d.beliefs()}
        assert uncond == {F(1, 5): F(5, 18), HALF: F(4, 9), F(4, 5): F(5, 18)}

    @pytest.mark.parametrize("i", [1, 2, 3, 5])
    def test_ternary_uninformative_mass(self, i):
        from historyvalue import ternary_structure

        eps = F(2, 5)
        d = iid_belief_distribution(ternary_structure(eps), i)
        assert d.unconditional(HALF) == eps**i
        assert d.unconditional("1/2") == d.unconditional("0.5") == eps**i
        with pytest.raises(ValidationError, match="belief outside"):
            d.unconditional("3/2")

    def test_base_case(self):
        s = sym_binary()
        assert iid_belief_distribution(s, 1) == induced_belief_distribution(s)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            iid_belief_distribution(sym_binary(), 17)


def frozen_uninformative_mass(structure):
    """``uninformative_mass`` as it was decided on the induced ``Fraction``
    beliefs."""
    atoms = induced_belief_distribution(structure).atoms
    if any(belief not in (0, HALF, 1) for belief, _wh, _wl in atoms):
        return None
    return next((wh for belief, wh, _wl in atoms if belief == HALF), F(0))


class TestUninformativeMass:
    def test_matches_frozen_on_corpora_splits_and_ternary(self):
        from historyvalue import corpus, split_to_ternary, ternary_structure

        structures = [s for seed in (0, 7, 101) for s in corpus(seed, 1000, 6, 12)]
        structures += [split_to_ternary(s) for s in structures]
        structures += [ternary_structure(F(k, m)) for m in range(1, 25) for k in range(m + 1)]
        assert len(structures) == 6324
        found = {True: 0, False: 0}
        for s in structures:
            got, expected = historyvalue.uninformative_mass(s), frozen_uninformative_mass(s)
            assert got == expected and type(got) is type(expected), s
            found[got is None] += 1
        assert min(found.values()) > 0  # both ternary and non-ternary inputs


class TestJsonRoundTrip:
    def test_bit_exact(self):
        s = validate_structure(
            {"a": (F(7, 12), F(1, 12)), "b": (F(5, 12), F(11, 12))}
        )
        again = structure_from_json(structure_to_json(s))
        assert again == s
        assert structure_to_json(again) == structure_to_json(s)

    def test_malformed(self):
        with pytest.raises(ParseError):
            structure_from_json("{not json")
        with pytest.raises(ParseError):
            structure_from_json('{"wrong": []}')
        # an integer past the 4300-digit limit and a nesting past the recursion limit
        for text in ('{"signals": ' + "1" * 5000 + "}", "[" * 100000 + "]" * 100000):
            with pytest.raises(ParseError):
                structure_from_json(text)
