"""The integer form of a belief distribution: its builder and its eq/hash.

``beliefs._merged_distribution`` builds a distribution straight from
integer pairs.  Its oracle is the validated constructor,
``BeliefDistribution.from_weights``, on the same weights as
``Fraction``s; the two must agree atom for atom and in the integer form.
Equality and hashing read the integer form, so they must agree with
equality of the atoms.  The builder orders the beliefs on an integer key,
which must give the ``Fraction`` order, and builds no ``Fraction``.
"""

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from historyvalue import beliefs, design, learning
from historyvalue.beliefs import (
    BeliefDistribution,
    compose_distributions,
    iid_chain,
    induced_belief_distribution,
    merge_beliefs,
    structure_from_json,
    validate_structure,
)
from historyvalue.cli import EXIT_OK, main
from historyvalue.design import corpus, split_to_ternary
from historyvalue.errors import NonStochastic, ValidationError
from historyvalue.learning import best_equilibrium_payoffs

SRC = Path(__file__).resolve().parent.parent / "src"


def from_fractions(scale, pairs) -> BeliefDistribution:
    """The distribution of the merged integer pairs over ``scale``, built as
    ``Fraction`` weights through ``from_weights``."""
    return BeliefDistribution.from_weights({
        F(h, h + l): (F(wh, scale), F(wl, scale))
        for (h, l), (wh, wl) in merge_beliefs(pairs).items()
    })


def corpus_distributions():
    """Induced distributions of ``corpus(7, 200)``, of each structure's
    split, and of two and three i.i.d. draws of each."""
    for structure in corpus(7, 200):
        for s in (structure, split_to_ternary(structure)):
            yield from iid_chain(induced_belief_distribution(s), 3)


class TestBuilder:
    def test_equals_from_weights_on_corpus_splits_and_chains(self, monkeypatch):
        build = beliefs._merged_distribution
        built = []

        def checked(scale, pairs):
            pairs = list(pairs)
            dist = build(scale, pairs)
            oracle = from_fractions(scale, pairs)
            assert dist.atoms == oracle.atoms
            assert dist.integer_form == oracle.integer_form
            assert all(type(x) is F for atom in dist.atoms for x in atom)
            built.append(dist)
            return dist

        monkeypatch.setattr(beliefs, "_merged_distribution", checked)
        structures = corpus(7, 200)
        for structure in structures:
            for s in (structure, split_to_ternary(structure)):
                assert len(tuple(iid_chain(induced_belief_distribution(s), 4))) == 4
        # one induced distribution and three compositions per structure and
        # per split, each split a structure of its own
        assert len(built) == 200 * 4 * 2

    def test_form_is_over_the_lcm_of_the_denominators(self):
        for dist in itertools.islice(corpus_distributions(), 300):
            scale, pairs = dist.integer_form
            assert scale == math.lcm(*(w.denominator for _, *ws in dist.atoms for w in ws))
            assert pairs == tuple((wh * scale, wl * scale) for _, wh, wl in dist.atoms)

    def test_unreduced_scale_is_reduced(self):
        # halves given over 4: the form is over 2
        dist = beliefs._merged_distribution(4, [(2, 0), (1, 1), (1, 1), (0, 2), (0, 0)])
        assert dist.integer_form == (2, ((0, 1), (1, 1), (1, 0)))
        assert dist == BeliefDistribution.from_weights(
            {0: (0, F(1, 2)), F(1, 2): (F(1, 2), F(1, 2)), 1: (F(1, 2), 0)}
        )
        # already over the lcm of the denominators, 6
        dist = beliefs._merged_distribution(6, [(3, 1), (3, 5)])
        assert dist.integer_form == (6, ((3, 5), (3, 1)))

    @pytest.mark.parametrize("scale, pairs", [
        (4, [(1, 2), (2, 2)]),        # high column sums to 3
        (4, [(2, 2), (2, 1)]),        # low column sums to 3
        (3, [(1, 1), (1, 1)]),        # both short
        (2, [(1, 1), (1, 1), (1, 1)]),  # both over
        (2, [(0, 0)]),                # nothing reached
        (1, []),
    ])
    def test_columns_off_scale_raise(self, scale, pairs):
        with pytest.raises(ValidationError, match="do not sum to one"):
            beliefs._merged_distribution(scale, pairs)

    def test_checks_run_without_asserts(self):
        # python -O strips assert statements; the checks must not be ones
        script = (
            "from fractions import Fraction as F\n"
            "from historyvalue import beliefs\n"
            "from historyvalue.errors import NonStochastic, ValidationError\n"
            "assert False, 'asserts are on'\n"
            "checks = [\n"
            "    lambda: beliefs._merged_distribution(4, [(1, 2), (2, 2)]),\n"
            "    lambda: beliefs._merged_distribution(2, [(0, 0)]),\n"
            "    lambda: beliefs.BeliefDistribution.from_weights({F(1, 2): (F(1, 2), F(1, 2))}),\n"
            "    lambda: beliefs.BeliefDistribution.from_weights({F(1, 3): (F(1, 2), F(1, 2))}),\n"
            "    lambda: beliefs.validate_structure({'a': (F(1, 2), 1), 'b': (F(1, 3), 0)}),\n"
            "]\n"
            "for check in checks:\n"
            "    try:\n"
            "        check()\n"
            "    except ValidationError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(SRC)}, check=True,
        )
        assert proc.stdout.split() == ["ValidationError"] * 4 + ["NonStochastic"]


def fraction_order(merged) -> list:
    """``merged``'s values in the order of their ``Fraction`` beliefs."""
    return [merged[h, l] for h, l in sorted(merged, key=lambda hl: F(hl[0], sum(hl)))]


def farey_neighbours(q: int):
    """Reduced ``(h, l)`` pairs of the beliefs ``a/b < c/d`` next to each
    other among denominators up to ``q``: they differ by ``1/(b d)``."""
    a, b, c, d = 0, 1, 1, q
    while c <= q:
        yield (a, b - a), (c, d - c)
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


class TestBeliefOrder:
    def test_integer_key_gives_the_fraction_order_on_long_chains(self, monkeypatch):
        # i.i.d. chains of twelve draws, one with denominators near 10**6,
        # whose weights reach hundreds of bits
        merge = beliefs.merge_beliefs
        seen = []

        def recording(pairs):
            seen.append(merge(pairs))
            return seen[-1]

        monkeypatch.setattr(beliefs, "merge_beliefs", recording)
        wide = validate_structure({"a": (F(1, 1000003), F(999, 1000033)),
                                   "b": (F(700001, 1000003), F(1, 1000033)),
                                   "c": (F(300001, 1000003), F(999033, 1000033))})
        for s in corpus(303, 1000, 6, 30)[771:774] + [wide]:
            assert len(tuple(iid_chain(induced_belief_distribution(s), 12))) == 12
        assert max(h + l for merged in seen for h, l in merged).bit_length() > 400
        for merged in seen:
            assert beliefs._by_belief(merged) == fraction_order(merged)

    @pytest.mark.parametrize("q", [2, 3, 12, 97, 2**64 + 13, 10**80 + 7], ids=repr)
    def test_integer_key_separates_the_closest_beliefs(self, q):
        # neighbours among denominators up to q, next to 0 and mirrored next
        # to 1, differ by about 1/q**2, the least gap the key must resolve;
        # ratios of Fibonacci numbers are neighbours too
        pairs = list(itertools.islice(farey_neighbours(q), 100))
        pairs += [((l2, h2), (l1, h1)) for (h1, l1), (h2, l2) in pairs]
        fib = [1, 1]
        while len(fib) < 300:
            fib.append(fib[-1] + fib[-2])
        pairs += [((fib[k], fib[k + 1] - fib[k]), (fib[k + 1], fib[k + 2] - fib[k + 1]))
                  for k in range(1, len(fib) - 2)]
        for pair in pairs:
            for merged in ({hl: hl for hl in pair}, {hl: hl for hl in reversed(pair)}):
                assert beliefs._by_belief(merged) == fraction_order(merged)


def test_verify_path_builds_no_fraction(monkeypatch, empty_memo, tmp_path, capsys):
    # hv verify on a passing corpus, and the corpus's induced and composed
    # distributions, searches and dominance reports and verdicts, are decided
    # in integers in beliefs, learning and design; a read of a view is what
    # builds the Fractions
    built = []

    class Counting(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (beliefs, learning, design):
        monkeypatch.setattr(module, "Fraction", Counting)
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"corpus": {"count": 200}, "horizon": 6, "seed": 0}))
    assert main(["verify", "--config", str(config)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert built == []
    empty_memo.cache_clear()
    structures = design.corpus(0, 200)
    reports = []
    for structure in structures:
        dist = induced_belief_distribution(structure)
        compose_distributions(dist, dist)
        reports.append(design.verify_dominance(structure, 6))
        assert reports[-1].verdict
    assert built == []
    assert len(structures[0].like_high) == len(built) > 0  # the counter sees a view's read
    assert reports[0].eps and built[-1] == reports[0].split_mass  # and a report's view
    before = len(built)
    assert len(reports[0].base.with_history) == len(built) - before == 6  # and a profile's


class TestEqualityAndHash:
    def test_equal_exactly_when_atoms_equal(self):
        dists = [(dist, dist.atoms) for dist in itertools.islice(corpus_distributions(), 240)]
        equal_pairs = 0
        for (a, atoms_a), (b, atoms_b) in itertools.product(dists, repeat=2):
            assert (a == b) is (atoms_a == atoms_b)
            assert (a != b) is (atoms_a != atoms_b)
            if a == b:
                assert hash(a) == hash(b)
                equal_pairs += a is not b
        assert equal_pairs > 0  # equal splits recur across the corpus

    def test_rebuilt_distribution_is_equal_with_equal_hash(self):
        rebuilt = [
            (BeliefDistribution.from_weights({b: (wh, wl) for b, wh, wl in dist.atoms}), dist)
            for dist in itertools.islice(corpus_distributions(), 300)
        ]
        # two keys that name one belief build one atom
        rebuilt.append((
            BeliefDistribution.from_weights({"1/2": ("1/2", "1/2"), "0.5": ("1/2", "1/2")}),
            BeliefDistribution.from_weights({"1/2": (1, 1)}),
        ))
        for again, dist in rebuilt:
            assert again is not dist
            assert again == dist and hash(again) == hash(dist)
            assert {dist: 1}[again] == 1

    @pytest.mark.parametrize("other", [None, 0, 1, "x", (), F(1, 2)], ids=repr)
    def test_not_equal_to_a_non_distribution(self, other):
        dist = induced_belief_distribution(corpus(7, 1)[0])
        assert (dist == other) is False
        assert (dist != other) is True

    def test_not_equal_to_its_own_parts(self):
        dist = induced_belief_distribution(corpus(7, 1)[0])
        assert dist != dist.atoms
        assert dist != dist.integer_form

    def test_relabelled_structures_share_one_search(self, empty_memo):
        first = structure_from_json(
            '{"signals": [{"id": "a", "pH": "1/2", "pL": "1/6"}, '
            '{"id": "b", "pH": "1/3", "pL": "1/3"}, {"id": "c", "pH": "1/6", "pL": "1/2"}]}'
        )
        second = structure_from_json(
            '{"signals": [{"id": "z", "pH": "2/12", "pL": "3/6"}, '
            '{"id": "x", "pH": "3/6", "pL": "2/12"}, {"id": "y", "pH": "4/12", "pL": "1/3"}]}'
        )
        assert first != second
        signal = induced_belief_distribution(first)
        assert induced_belief_distribution(second) is not signal
        assert induced_belief_distribution(second) == signal
        a = best_equilibrium_payoffs(first, 4)
        entry = empty_memo(signal, 4)
        b = best_equilibrium_payoffs(second, 4)
        info = empty_memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert empty_memo(induced_belief_distribution(second), 4) is entry
        # the second call is served the entry itself, which carries the first
        # structure's distribution: equal to the second's, not the same object
        assert b is entry
        assert b.signal == induced_belief_distribution(second)
        assert b.signal is not induced_belief_distribution(second)
        assert b.with_history == a.with_history


@pytest.mark.parametrize("table, sums", [
    ({"a": (F(1, 2), F(1)), "b": (F(1, 3), F(0))}, "5/6 (high) and 1 (low)"),
    ({"a": (F(1, 2), F(1, 2)), "b": (F(1, 2), F(1, 3))}, "1 (high) and 5/6 (low)"),
    ({"a": (F(2, 3), F(3, 4)), "b": (F(2, 3), F(3, 4))}, "4/3 (high) and 3/2 (low)"),
])
def test_validate_structure_checks_both_columns(table, sums):
    with pytest.raises(NonStochastic) as err:
        validate_structure(table)
    assert str(err.value) == f"columns sum to {sums}, expected 1"


@pytest.mark.parametrize("weights", [
    {F(1, 2): (True, True)},
    {F(1, 2): (float("nan"), 1)},
    {F(1, 2): (None, 1)},
    {None: (F(1, 2), F(1, 2)), 0: (0, F(1, 2)), 1: (F(1, 2), 0)},
    {"x": (1, 1)},
], ids=repr)
def test_from_weights_rejects_a_non_rational(weights):
    with pytest.raises(ValidationError, match="not a rational"):
        BeliefDistribution.from_weights(weights)
