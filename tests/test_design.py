import collections
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from historyvalue import (
    best_equilibrium_payoffs,
    check_equivalence,
    corpus,
    induced_belief_distribution,
    maximize_concave,
    argmax_unit_interval,
    max_social_value,
    optimal_eps_agent,
    optimal_eps_social,
    random_structure,
    single_signal_payoff,
    split_to_ternary,
    structure_from_integers,
    ternary_social_value,
    ternary_structure,
    ternary_value_i,
    uninformative_mass,
    validate_structure,
    verify_dominance,
)
from historyvalue import beliefs, design
from historyvalue.design import DominanceReport
from historyvalue.errors import HorizonCapExceeded, NonFiniteEvaluation, ValidationError
from historyvalue.learning import HORIZON_CAP

HALF = F(1, 2)


def sym_binary():
    return validate_structure({"s1": (F(2, 3), F(1, 3)), "s2": (F(1, 3), F(2, 3))})


def one_sided_quarter():
    # beliefs {1/4, 1}: conclusive-high mass 2/3, interior belief 1/4
    return validate_structure({"hi": (F(2, 3), F(0)), "int": (F(1, 3), F(1))})


class TestSplit:
    def test_symmetric_binary(self):
        split = split_to_ternary(sym_binary())
        assert uninformative_mass(split) == F(2, 3)
        d = induced_belief_distribution(split)
        assert d.atoms == (
            (F(0), F(0), F(1, 3)),
            (HALF, F(2, 3), F(2, 3)),
            (F(1), F(1, 3), F(0)),
        )

    def test_ternary_fixed_point(self):
        pi = ternary_structure(F(2, 5))
        split = split_to_ternary(pi)
        assert induced_belief_distribution(split) == induced_belief_distribution(pi)

    def test_full_information_passthrough(self):
        pi = validate_structure({"a": (F(1), F(0)), "b": (F(0), F(1))})
        split = split_to_ternary(pi)
        assert induced_belief_distribution(split) == induced_belief_distribution(pi)

    def test_preserves_single_signal_payoff(self):
        for s in corpus(7, 40):
            assert single_signal_payoff(split_to_ternary(s)) == single_signal_payoff(s)

    def test_output_beliefs_ternary(self):
        for s in corpus(11, 40):
            assert uninformative_mass(split_to_ternary(s)) is not None

    def test_bayes_plausible_per_signal(self):
        # conditional mean of the post-split belief given the original
        # signal equals the original belief
        for s in corpus(13, 30):
            for _sig, ph, pl in s.items():
                if ph == 0 and pl == 0:
                    continue
                belief = ph / (ph + pl)
                mid = min(ph, pl)
                hi = max(F(0), ph - pl)
                lo = max(F(0), pl - ph)
                total = 2 * mid + hi + lo  # unconditional mass, scaled by 2
                mean = (2 * mid * HALF + hi * 1 + lo * 0) / total
                assert mean == belief


class TestEquivalence:
    def test_one_sided_matches_ternary(self):
        report = check_equivalence(one_sided_quarter(), ternary_structure(F(1, 3)))
        assert report.equivalent and report.condition == "low-side"
        assert report.values_match

    @pytest.mark.parametrize("table, condition", [
        ({"x": (F(1), HALF), "y": (F(0), HALF)}, "high-side"),
        ({"x": (HALF, F(1)), "y": (HALF, F(0))}, "low-side"),
    ])
    def test_one_sided_matches_its_split(self, table, condition):
        structure = validate_structure(table)
        report = check_equivalence(structure, split_to_ternary(structure))
        assert report.equivalent and report.condition == condition
        assert report.values_match

    def test_different_eps_not_equivalent(self):
        report = check_equivalence(ternary_structure(F(1, 3)), ternary_structure(F(1, 2)))
        assert not report.equivalent
        assert report.single_a != report.single_b

    def test_reflexive(self):
        report = check_equivalence(sym_binary(), sym_binary())
        assert report.equivalent and report.condition == "identical"
        assert report.values_match


class TestTernaryClosedForms:
    def test_value_i(self):
        assert ternary_value_i(HALF, 2) == F(1, 16)
        assert ternary_value_i(F(0), 5) == 0
        assert ternary_value_i(F(1), 5) == 0

    def test_value_i_matches_engine(self):
        # every reduced mass n/m with m <= 30, 0 and 1 included, at every
        # horizon the search takes: the forms verify_dominance's views read,
        # and the payoffs with history (1 - e^i)/4 its decision compares with
        masses = [F(n, m) for m in range(1, 31) for n in range(m + 1) if math.gcd(n, m) == 1]
        assert masses[:2] == [0, 1]
        for eps in masses:
            structure = ternary_structure(eps)
            for horizon in range(HORIZON_CAP + 1):
                p = best_equilibrium_payoffs(structure, horizon)
                assert p.single == (1 - eps) / 4, (eps, horizon)
                assert p.with_history == tuple(
                    (1 - eps**i) / 4 for i in range(1, horizon + 1)
                ), (eps, horizon)
                assert p.history_value == tuple(
                    (eps - eps**i) / 4 for i in range(1, horizon + 1)
                ), (eps, horizon)
                assert p.history_value == tuple(
                    ternary_value_i(eps, i) for i in range(1, horizon + 1)
                ), (eps, horizon)

    def test_social_value(self):
        assert ternary_social_value(HALF, HALF) == F(1, 24)
        assert ternary_social_value(F(0), F(3, 4)) == 0
        # maximum at delta = 3/4 is attained at eps = 2/3 with value 1/12
        assert ternary_social_value(F(2, 3), F(3, 4)) == F(1, 12)


class TestOptima:
    def test_agent_two(self):
        assert optimal_eps_agent(2).eps == 0.5

    def test_agent_one_degenerate(self):
        opt = optimal_eps_agent(1)
        assert opt.degenerate and opt.eps == 1.0

    @pytest.mark.parametrize("i", range(2, 9))
    def test_agent_matches_numeric_argmax(self, i):
        got = argmax_unit_interval(lambda e: ternary_value_i(e, i), F(1, 10**10))
        assert abs(float(got.argmax) - optimal_eps_agent(i).eps) < 1e-8

    def test_social_closed_form(self):
        assert optimal_eps_social(F(3, 4)) == pytest.approx(2 / 3, abs=1e-12)
        assert optimal_eps_social(HALF) == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert optimal_eps_social(F(1, 10**6)) == pytest.approx(0.5, abs=1e-6)

    def test_social_monotone_in_delta(self):
        grid = [F(k, 100) for k in range(5, 100, 5)]
        values = [optimal_eps_social(d) for d in grid]
        assert values == sorted(values)
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_max_social_value(self):
        assert max_social_value(F(3, 4)) == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("delta", [F(0), F(1), F(2), F(-1, 2)])
    def test_max_social_value_rejects_bad_delta(self, delta):
        with pytest.raises(ValidationError, match="discount factor"):
            max_social_value(delta)


class TestMaximizeConcave:
    def test_social_objective(self):
        got = maximize_concave(lambda e: ternary_social_value(e, F(3, 4)), F(1, 10**9))
        assert abs(float(got.argmax) - 2 / 3) < 1e-9

    def test_agent_two_objective(self):
        got = maximize_concave(lambda e: ternary_value_i(e, 2), F(1, 10**9))
        assert abs(float(got.argmax) - 0.5) < 1e-9

    def test_flat_objective(self):
        got = maximize_concave(lambda e: F(1, 7), F(1, 10**6))
        assert got.flat
        assert 0 <= got.argmax <= 1

    def test_non_finite(self):
        with pytest.raises(NonFiniteEvaluation):
            maximize_concave(lambda e: float("nan"), F(1, 100))

    @pytest.mark.parametrize("lo, hi, message", [
        (1, 0, "bracket reversed"),
        (F(1, 2), F(1, 3), "bracket reversed"),
        (F(-1, 10**40), F(-1, 10**39), "bracket reversed"),
        (float("nan"), 1, "bracket end lo is not a rational"),
        (0, float("nan"), "bracket end hi is not a rational"),
        (float("-inf"), 1, "bracket end lo is not a rational"),
        (0, float("inf"), "bracket end hi is not a rational"),
        ("x", 1, "bracket end lo is not a rational"),
        (0, "x", "bracket end hi is not a rational"),
        ("2/3", "1/3", "bracket reversed"),
    ])
    def test_bad_bracket_raises(self, lo, hi, message):
        with pytest.raises(ValidationError, match=message):
            maximize_concave(lambda e: ternary_value_i(e, 2), F(1, 10**6), lo, hi)

    def test_bracket_ends_may_be_text(self):
        text = maximize_concave(lambda e: ternary_value_i(e, 2), F(1, 10**6), "1/3", "2/3")
        assert text == maximize_concave(lambda e: ternary_value_i(e, 2), F(1, 10**6),
                                        F(1, 3), F(2, 3))

    def test_point_bracket_is_the_point(self):
        got = maximize_concave(lambda e: ternary_value_i(e, 2), F(1, 10**6), F(1, 3), F(1, 3))
        assert got.argmax == F(1, 3) and got.flat


class TestDominance:
    def test_symmetric_binary_strict(self):
        report = verify_dominance(sym_binary(), 3)
        assert report.base_values[1] == 0
        assert report.split_values[1] == F(1, 18)
        assert report.two_sided and report.strict and report.verdict

    def test_ternary_identity(self):
        report = verify_dominance(ternary_structure(F(1, 3)), 4)
        assert report.base_values == report.split_values
        assert report.verdict

    def test_one_sided_equalities(self):
        report = verify_dominance(one_sided_quarter(), 4)
        assert not report.two_sided
        assert report.base_values == report.split_values
        assert report.verdict

    def test_induced_distribution_once_per_structure(self, empty_memo, monkeypatch):
        # the search reads the base's distribution, built once; the split's
        # values are closed forms and the two-sided test reads the integer
        # likelihoods, so no other distribution is built
        calls = []
        build = beliefs._merged_distribution

        def counting(scale, pairs):
            calls.append(scale)
            return build(scale, pairs)

        monkeypatch.setattr(beliefs, "_merged_distribution", counting)
        verify_dominance(sym_binary(), 3)
        assert len(calls) == 1
        # an equal structure built anew builds its own distribution
        verify_dominance(sym_binary(), 3)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_old_path_on_corpus(self, seed):
        for structure in corpus(seed, 200):
            assert_same_report(structure, 6)

    def test_equals_old_path_at_every_horizon(self):
        for structure in corpus(7, 60):
            for horizon in range(1, HORIZON_CAP + 1):
                assert_same_report(structure, horizon)

    @pytest.mark.parametrize("structure", [
        validate_structure({"h": (F(1), F(0)), "l": (F(0), F(1))}),
        validate_structure({"a": (F(1, 3), F(1, 3)), "b": (F(2, 3), F(2, 3))}),
        validate_structure({"x": (F(1, 5), F(0)), "y": (F(4, 5), F(1))}),
    ], ids=["full-information", "uninformative", "one-sided"])
    @pytest.mark.parametrize("horizon", [0, 1, HORIZON_CAP])
    def test_equals_old_path_at_the_ends(self, structure, horizon):
        assert_same_report(structure, horizon)

    @pytest.mark.parametrize("horizon", [HORIZON_CAP + 1, -1, 2.0, True, "3"])
    def test_bad_horizon_raises_as_old_path(self, horizon):
        with pytest.raises(Exception) as old:
            old_path_report(sym_binary(), horizon)
        with pytest.raises(Exception) as new:
            verify_dominance(sym_binary(), horizon)
        assert type(new.value) is type(old.value)
        assert isinstance(new.value, (HorizonCapExceeded, ValidationError))
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("structure, perturb, kept, strict, verdict", [
        (sym_binary(), "full-information", False, True, False),
        (sym_binary(), "uninformative", False, False, False),
        (sym_binary(), (1, F(1, 1000)), True, True, False),
        (sym_binary(), (2, F(1, 1000)), True, False, False),
        (one_sided_quarter(), (3, F(1, 1000)), True, False, False),
        (sym_binary(), (2, F(0)), True, False, False),
        (one_sided_quarter(), (3, F(0)), True, False, True),
        (sym_binary(), (2, F(-1, 1000)), True, True, True),
    ], ids=["single-lost-strict", "single-lost-not-strict", "agent1-above", "agent2-above",
            "one-sided-agent3-above", "two-sided-agent2-equal", "one-sided-agent3-equal",
            "two-sided-agent2-below"])
    def test_integer_verdict_on_failing_branches(self, monkeypatch, structure, perturb, kept,
                                                 strict, verdict):
        # no corpus structure fails: perturb the base's profile, which the
        # report's views and its decision both read, to reach each failing
        # branch.  A signal name swaps in that signal, which loses the
        # signal-only payoff; (i, d) sets agent i's payoff with history to
        # the split's (1 - e^i)/4 plus d
        real = design.best_equilibrium_payoffs
        horizon = 3
        signals = {
            "full-information": {"h": (F(1), F(0)), "l": (F(0), F(1))},
            "uninformative": {"u": (F(1), F(1))},
        }

        def perturbed(s, h):
            p = real(s, h)
            if perturb in signals:
                swapped = validate_structure(signals[perturb])
                return p._replace(signal=induced_belief_distribution(swapped))
            i, d = perturb
            e = F(*design._split_mass(s))
            w = list(p.with_history)
            w[i - 1] = (1 - e**i) / 4 + d
            return p._replace(with_history=tuple(w))

        monkeypatch.setattr(design, "best_equilibrium_payoffs", perturbed)
        report = verify_dominance(structure, horizon)
        frozen = frozen_report(*(getattr(report, name) for name in OLD_FIELDS))
        for name in DECISIONS:
            assert getattr(report, name) is getattr(frozen, name), name
        assert (report.single_preserved, report.strict, report.verdict) == (kept, strict, verdict)

    def test_report_serialization(self):
        report = verify_dominance(sym_binary(), 3)
        payload = report.to_json_dict()
        assert payload["verdict"] is True
        assert payload["history_values"][1]["split"] == "1/18"
        assert report.to_csv().splitlines()[2].startswith("2,0/1,1/18")


#: ``DominanceReport``'s fields before they became views, and its decisions.
OLD_FIELDS = ("eps", "single_base", "single_split", "base_values", "split_values", "two_sided")
DECISIONS = ("single_preserved", "dominates", "strict", "verdict")
OldReport = collections.namedtuple("OldReport", OLD_FIELDS + DECISIONS)


def frozen_report(eps, single_base, single_split, base_values, split_values, two_sided):
    """The six old fields with the four decisions as ``DominanceReport``'s
    properties computed them, by comparing ``Fraction``s."""
    single_preserved = single_base == single_split
    dominates = single_preserved and all(s >= b for b, s in zip(base_values, split_values))
    strict = all(s > b for b, s in zip(base_values[1:], split_values[1:]))
    verdict = dominates and (strict or not two_sided)
    return OldReport(eps, single_base, single_split, base_values, split_values, two_sided,
                     single_preserved, dominates, strict, verdict)


def old_path_report(structure, horizon):
    """``verify_dominance`` as it was before the split's values were read in
    closed form: the split built and searched like the base, and the
    decisions taken on ``Fraction``s (:func:`frozen_report`)."""
    split = split_to_ternary(structure)
    base = best_equilibrium_payoffs(structure, horizon)
    after = best_equilibrium_payoffs(split, horizon)
    return frozen_report(
        eps=uninformative_mass(split),
        single_base=base.single,
        single_split=after.single,
        base_values=base.history_value,
        split_values=after.history_value,
        two_sided=design._two_sided(structure.integer_likelihoods[1]),
    )


def assert_same_report(structure, horizon):
    """``verify_dominance``'s views equal :func:`old_path_report`'s fields by
    name, each value of the same type, and its decisions equal the old
    ones."""
    new, old = verify_dominance(structure, horizon), old_path_report(structure, horizon)
    assert DominanceReport._fields == ("split_mass", "base", "two_sided")
    for name in OldReport._fields:
        a, b = getattr(new, name), getattr(old, name)
        assert a == b and type(a) is type(b), (name, horizon)
        if isinstance(a, tuple):
            assert all(type(x) is F for x in a + b), (name, horizon)


class TestRandomCorpus:
    def test_deterministic(self):
        a = corpus(42, 10)
        b = corpus(42, 10)
        assert a == b

    def test_valid_structures(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            s = random_structure(rng)
            assert len(s.signals) <= 4
            assert all(q.denominator <= 12 for q in s.like_high + s.like_low)


# -- the ternary family has one builder ----------------------------------------


def frozen_split(structure):
    """The split as it was built before it delegated to ``ternary_structure``:
    per-signal sums of min(pH, pL) and of the residuals on each side."""
    mid = hi = lo = F(0)
    for _s, ph, pl in structure.items():
        mid += min(ph, pl)
        hi += max(F(0), ph - pl)
        lo += max(F(0), pl - ph)
    table = {"hi": (hi, F(0)), "mid": (mid, mid), "lo": (F(0), lo)}
    return validate_structure({s: p for s, p in table.items() if any(p)})


class TestTernaryBuilder:
    @pytest.mark.parametrize(
        "structures", [lambda: corpus(7, 300), lambda: corpus(101, 300, 4, 6)]
    )
    def test_split_matches_frozen_split(self, structures):
        for s in structures():
            assert split_to_ternary(s) == frozen_split(s)

    def test_split_is_ternary_structure_of_its_mass(self):
        for s in corpus(7, 300):
            split = split_to_ternary(s)
            assert split == ternary_structure(uninformative_mass(split))

    @pytest.mark.parametrize(
        "eps, signals", [(0, ("hi", "lo")), (1, ("mid",)), (F(1, 3), ("hi", "mid", "lo"))]
    )
    def test_zero_rows_left_out(self, eps, signals):
        s = ternary_structure(eps)
        assert s.signals == signals
        assert uninformative_mass(s) == eps


def uncached_ternary(n, m):
    """An independent copy of ``_ternary`` that builds over ``m`` as given,
    without reducing ``n/m`` first."""
    rows = {"hi": (m - n, 0), "mid": (n, n), "lo": (0, m - n)}
    rows = {s: w for s, w in rows.items() if any(w)}
    return structure_from_integers(rows, m, rows.values())


def unreduced_split_mass(structure):
    """A split's uninformative mass as ``(n, m)`` over the structure's own scale."""
    scale, weights = structure.integer_likelihoods
    return sum(map(min, weights)), scale


class TestTernaryIntegerBuilder:
    @pytest.mark.parametrize("pairs", [
        lambda: (unreduced_split_mass(s) for s in corpus(7, 1000)),
        lambda: ((n, m) for m in range(1, 31) for n in range(m + 1)),
    ], ids=["corpus-splits", "small-masses"])
    def test_equals_uncached_builder(self, pairs):
        for n, m in pairs():
            built, fresh = design._ternary(n, m), uncached_ternary(n, m)
            for name in built._fields:
                assert getattr(built, name) == getattr(fresh, name), (n, m, name)
            assert built.belief_distribution.atoms == fresh.belief_distribution.atoms
            assert built.belief_distribution == fresh.belief_distribution


# -- the integer builders against the Fraction builders they replaced ----------


def frozen_random_structure(rng, max_signals=4, max_denominator=12):
    """``random_structure`` as it was built before it handed its integer cuts
    to ``structure_from_integers``: ``Fraction`` likelihoods, read back into
    integers by ``validate_structure``."""
    k = rng.randint(1, max_signals)

    def column():
        den = rng.randint(1, max_denominator)
        cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
        bounds = [0] + cuts + [den]
        return [F(b - a, den) for a, b in zip(bounds, bounds[1:])]

    high = column()
    low = column()
    return validate_structure({f"s{j}": (high[j], low[j]) for j in range(k)})


def frozen_ternary_structure(e):
    """``ternary_structure`` as it was built before it went through integers."""
    table = {"hi": (1 - e, F(0)), "mid": (e, e), "lo": (F(0), 1 - e)}
    return validate_structure({s: p for s, p in table.items() if any(p)})


def frozen_two_sided(structure):
    """The two-sided test as it was decided on the induced ``Fraction`` beliefs."""
    beliefs = induced_belief_distribution(structure).beliefs()
    return any(0 < b < HALF for b in beliefs) and any(HALF < b < 1 for b in beliefs)


FROZEN_CORPORA = [(0, 1000), (7, 1000), (101, 1000, 6, 12), (303, 1000, 6, 30)]


#: Hand-made tables, and whether each is two-sided.
TWO_SIDED_HAND_CASES = [
    # conclusive atoms only, and with the atom at exactly 1/2
    ({"hi": (F(1), F(0)), "lo": (F(0), F(1))}, False),
    ({"hi": (F(2, 3), F(0)), "mid": (F(1, 3), F(1, 3)), "lo": (F(0), F(2, 3))}, False),
    # beliefs 1/2 alone, and 0 with a null signal
    ({"a": (HALF, HALF), "b": (HALF, HALF)}, False),
    ({"z": (F(0), F(0)), "hi": (F(1), F(0)), "lo": (F(0), F(1))}, False),
    # an interior belief on one side only, next to 0, 1/2 or 1
    ({"hi": (HALF, F(0)), "mid": (F(1, 4), F(1, 4)), "a": (F(1, 4), F(3, 4))}, False),
    ({"lo": (F(0), HALF), "a": (F(1), HALF)}, False),
    ({"a": (F(1, 3), F(1, 3)), "b": (F(2, 3), F(1, 3)), "lo": (F(0), F(1, 3))}, False),
    # interior beliefs on both sides, with and without 1/2, 0 and 1
    ({"a": (F(2, 3), F(1, 3)), "b": (F(1, 3), F(2, 3))}, True),
    ({"a": (HALF, F(1, 6)), "b": (F(1, 3), F(1, 3)), "c": (F(1, 6), HALF)}, True),
    ({"hi": (F(1, 4), F(0)), "lo": (F(0), F(1, 4)), "a": (HALF, F(1, 4)),
      "b": (F(1, 4), HALF)}, True),
]


def frozen_condition(a, b) -> tuple:
    """``check_equivalence``'s condition as it was decided on the induced
    ``Fraction`` atoms, and whether the interior beliefs of both sit weakly on
    one side of 1/2, whatever the conclusive masses."""
    da, db = induced_belief_distribution(a), induced_belief_distribution(b)

    def conclusive_high_mass(dist):
        return sum(wh for bel, wh, _ in dist.atoms if bel == 1)

    def conclusive_low_mass(dist):
        return sum(wl for bel, _, wl in dist.atoms if bel == 0)

    interior = [bel for dist in (da, db) for bel in dist.beliefs() if 0 < bel < 1]
    low = all(x <= HALF for x in interior)
    high = all(x >= HALF for x in interior)
    if da.atoms == db.atoms:
        return "identical", low or high
    if low and conclusive_high_mass(da) == conclusive_high_mass(db):
        return "low-side", True
    if high and conclusive_low_mass(da) == conclusive_low_mass(db):
        return "high-side", True
    return "none", low or high


def mirrored(table):
    """``table`` with the two states swapped: each belief ``b`` becomes ``1 - b``."""
    return {s: (pl, ph) for s, (ph, pl) in table.items()}


def assert_same_structure(new, old):
    # an InformationStructure is a namedtuple: == compares field by field
    assert new == old
    assert all(type(q) is F for q in new.like_high + new.like_low)


class TestIntegerBuilders:
    @pytest.mark.parametrize("args", FROZEN_CORPORA, ids=str)
    def test_random_structure_matches_frozen(self, args):
        seed, count, *bounds = args
        rng = random.Random(seed)
        frozen = [frozen_random_structure(rng, *bounds) for _ in range(count)]
        built = corpus(*args)
        assert len(built) == len(frozen) == count
        for new, old in zip(built, frozen):
            assert_same_structure(new, old)

    def test_random_structure_draws_as_before(self):
        new_rng, old_rng = random.Random(5), random.Random(5)
        for _ in range(200):
            random_structure(new_rng, 6, 30)
            frozen_random_structure(old_rng, 6, 30)
        assert new_rng.getstate() == old_rng.getstate()

    def test_ternary_structure_matches_frozen(self):
        for m in range(1, 31):
            for n in range(m + 1):
                assert_same_structure(ternary_structure(F(n, m)),
                                      frozen_ternary_structure(F(n, m)))

    @pytest.mark.parametrize("args", FROZEN_CORPORA, ids=str)
    def test_two_sided_matches_frozen(self, args):
        found = {True: 0, False: 0}
        for s in corpus(*args):
            expected = frozen_two_sided(s)
            assert design._two_sided(s.integer_likelihoods[1]) is expected
            found[expected] += 1
        assert min(found.values()) > 0  # the corpus has both kinds

    @pytest.mark.parametrize("table, expected", TWO_SIDED_HAND_CASES, ids=repr)
    def test_two_sided_hand_cases(self, table, expected):
        s = validate_structure(table)
        assert frozen_two_sided(s) is expected
        assert verify_dominance(s, 2).two_sided is expected

    def test_equivalence_condition_matches_frozen(self):
        # each corpus structure with its split and its next neighbour, and
        # every pair of the hand-made tables and their mirror images; the
        # condition does not read the horizon, so horizon 0 keeps this cheap
        pairs = []
        for args in FROZEN_CORPORA:
            structures = corpus(*args)
            pairs += [(s, split_to_ternary(s)) for s in structures]
            pairs += zip(structures, structures[1:])
        hand = [validate_structure(t) for table, _ in TWO_SIDED_HAND_CASES
                for t in (table, mirrored(table))]
        pairs += itertools.product(hand, repeat=2)
        found = collections.Counter()
        for a, b in pairs:
            expected, one_sided = frozen_condition(a, b)
            assert check_equivalence(a, b, 0).condition == expected, (a, b)
            found[expected] += 1
            found["masses differ"] += expected == "none" and one_sided
        assert all(found[k] for k in ("identical", "low-side", "high-side", "none",
                                      "masses differ")), found
