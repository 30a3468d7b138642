"""The library's records are immutable namedtuples: fields that reject
assignment, a ``Name(field=value, ...)`` repr, equality and hashing by
value, ``MarketParams`` checked however it is built, and
``BeliefDistribution`` compared by its integer form alone.  The belief
records store only integers; their ``Fraction`` views equal what the eager
builders gave, and ``DominanceReport`` stores the split's integer mass
and the base's profile, its ``Fraction`` fields views too.  Importing the
CLI loads neither ``dataclasses`` nor ``inspect``."""

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from historyvalue import beliefs, design, learning, market
from historyvalue.beliefs import (
    BeliefDistribution,
    InformationStructure,
    iid_chain,
    induced_belief_distribution,
    validate_structure,
)
from historyvalue.errors import CapExceeded, DegenerateParameter, ValidationError
from historyvalue.learning import BoundedValue
from historyvalue.market import MarketParams
from test_design import FROZEN_CORPORA, TWO_SIDED_HAND_CASES

SRC = Path(__file__).resolve().parent.parent / "src"
HALF = F(1, 2)

RECORDS = {
    beliefs.InformationStructure, beliefs.BeliefDistribution, learning.PayoffProfile,
    learning.BoundedValue, design.EquivalenceReport, design.AgentOptimum,
    design.SearchResult, design.DominanceReport, market.MarketParams,
    market.PriceSchedule, market.SurplusReport,
}
#: The records whose cached properties live in an instance dict.
WITH_DICT = {beliefs.InformationStructure, learning.PayoffProfile}


def make_records() -> list:
    """One record of each class, each built from scratch."""
    structure = validate_structure({"a": (HALF, F(1, 6)), "b": (F(1, 3), F(1, 3)),
                                    "c": (F(1, 6), HALF)})
    params = MarketParams(HALF, F(1, 3), 2)
    return [
        structure,
        beliefs.induced_belief_distribution(structure),
        learning.best_equilibrium_payoffs(structure, 3),
        BoundedValue(F(1, 3), F(0)),
        design.check_equivalence(structure, design.split_to_ternary(structure), horizon=3),
        design.optimal_eps_agent(3),
        design.maximize_concave(lambda e: e * (1 - e), F(1, 1000)),
        design.verify_dominance(structure, 3),
        params,
        market.sticky_price_path(structure, 2, 4),
        market.sticky_surpluses(structure, params, F(1, 1000)),
    ]


@pytest.fixture(params=range(len(RECORDS)), ids=lambda k: sorted(c.__name__ for c in RECORDS)[k])
def pair(request, empty_memo):
    """Two equal records of one class, built separately: the search memo is
    emptied between them, so the second ``PayoffProfile`` is not served the
    first."""
    name = sorted(c.__name__ for c in RECORDS)[request.param]
    first = {type(r).__name__: r for r in make_records()}[name]
    empty_memo.cache_clear()
    second = {type(r).__name__: r for r in make_records()}[name]
    return first, second


def test_one_record_per_class():
    assert {type(r) for r in make_records()} == RECORDS


def test_fields_reject_assignment(pair):
    record, _ = pair
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


def test_instance_dict_only_where_cached(pair):
    record, _ = pair
    assert hasattr(record, "__dict__") is (type(record) in WITH_DICT)
    if type(record) not in WITH_DICT:
        with pytest.raises(AttributeError):
            record.extra = 1


def test_repr_names_the_fields(pair):
    record, _ = pair
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_equal_records_hash_alike(pair):
    first, second = pair
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1


def test_records_equal_tuples_of_their_values():
    # all but BeliefDistribution, whose equality reads its integer form
    assert BoundedValue(HALF, F(0)) == (HALF, F(0))
    assert tuple(MarketParams(HALF, HALF)) == (HALF, HALF, 1)


def test_replace_keeps_the_class(pair):
    record, _ = pair
    copy = record._replace()
    assert type(copy) is type(record) and copy == record


class TestMarketParams:
    GOOD = (HALF, F(1, 3), 2)
    BAD = [
        ({"delta": F(0)}, DegenerateParameter, "delta"),
        ({"delta": F(1)}, DegenerateParameter, "delta"),
        ({"alpha": F(3, 2)}, DegenerateParameter, "alpha"),
        ({"alpha": 0}, DegenerateParameter, "alpha"),
        ({"stickiness": 0}, ValidationError, "stickiness"),
        ({"stickiness": 1.5}, ValidationError, "stickiness"),
        ({"stickiness": True}, ValidationError, "stickiness"),
        ({"stickiness": market.STICKINESS_CAP + 1}, CapExceeded, "stickiness"),
    ]
    BUILDERS = {
        "position": lambda v: MarketParams(*v.values()),
        "keyword": lambda v: MarketParams(**v),
        "replace": lambda v: MarketParams(*TestMarketParams.GOOD)._replace(**v),
        "make": lambda v: MarketParams._make(v.values()),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("change, error, message", BAD)
    def test_rejects_bad_values_however_built(self, build, change, error, message):
        values = {**dict(zip(MarketParams._fields, self.GOOD)), **change}
        with pytest.raises(error, match=message):
            build(values)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_good_values_however_built(self, build):
        values = dict(zip(MarketParams._fields, self.GOOD))
        assert build(values) == MarketParams(*self.GOOD)

    def test_stickiness_defaults_to_one(self):
        assert MarketParams(HALF, HALF).stickiness == 1
        assert MarketParams(HALF, HALF, market.STICKINESS_CAP).stickiness == market.STICKINESS_CAP


class TestBeliefDistribution:
    FORM = (3, ((2, 1), (1, 2)))

    def test_equality_and_hash_read_the_integer_form_alone(self):
        # two records built apart from equal forms, out of belief order: the
        # comparison neither checks the form nor reads the atoms view
        a = BeliefDistribution(self.FORM)
        b = BeliefDistribution((3, ((2, 1), (1, 2))))
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(self.FORM) != hash((self.FORM,))
        assert a != BeliefDistribution((3, ((1, 2), (2, 1))))
        assert a != (self.FORM,) and (self.FORM,) != a

    def test_never_equal_to_a_tuple(self):
        dist = beliefs.induced_belief_distribution(design.ternary_structure(F(1, 3)))
        for other in (tuple(dist), (dist.atoms, dist.integer_form), dist.integer_form):
            assert dist != other and other != dist
            assert not dist == other and not other == dist


# -- the Fraction views against the eager builders they replaced --------------


def frozen_likelihoods(scale, weights) -> tuple:
    """``like_high`` and ``like_low`` as ``structure_from_integers`` built
    them eagerly, before they became views."""
    g = math.gcd(scale, *itertools.chain.from_iterable(weights))
    scale //= g
    weights = tuple((wh // g, wl // g) for wh, wl in weights)
    return tuple(F(wh, scale) for wh, _ in weights), tuple(F(wl, scale) for _, wl in weights)


def frozen_atoms(scale, pairs) -> tuple:
    """``atoms`` as ``_merged_distribution`` built them eagerly, sorted on
    their ``Fraction`` beliefs, before they became a view."""
    merged = {}
    for wh, wl in pairs:
        if wh or wl:
            g = math.gcd(wh, wl)
            h, l = merged.get((wh // g, wl // g), (0, 0))
            merged[wh // g, wl // g] = (h + wh, l + wl)
    g = math.gcd(scale, *(w for pair in merged.values() for w in pair))
    scale //= g
    entries = sorted((F(h, h + l), wh // g, wl // g) for (h, l), (wh, wl) in merged.items())
    return tuple((belief, F(wh, scale), F(wl, scale)) for belief, wh, wl in entries)


@pytest.fixture
def pinned(monkeypatch):
    """``(view, frozen)`` for each structure and distribution built in the
    test: its views as read, and what the eager builder gave on its input."""
    seen = []
    build_structure, build_distribution = beliefs.structure_from_integers, beliefs._merged_distribution

    def structure(signals, scale, weights):
        weights = tuple(weights)
        built = build_structure(signals, scale, weights)
        seen.append(((built.like_high, built.like_low), frozen_likelihoods(scale, weights)))
        return built

    def distribution(scale, pairs):
        pairs = tuple(pairs)
        built = build_distribution(scale, pairs)
        seen.append((built.atoms, frozen_atoms(scale, pairs)))
        return built

    for module in (beliefs, design):
        monkeypatch.setattr(module, "structure_from_integers", structure)
    monkeypatch.setattr(beliefs, "_merged_distribution", distribution)
    return seen


class TestViews:
    def test_records_store_only_integers(self):
        assert InformationStructure._fields == ("signals", "integer_likelihoods")
        assert BeliefDistribution._fields == ("integer_form",)
        assert BeliefDistribution.__slots__ == ()
        assert design.DominanceReport._fields == ("split_mass", "base", "two_sided")

    def test_views_equal_the_eager_builders(self, pinned):
        # every corpus structure and hand table with its induced distribution,
        # and i.i.d. chains of eight draws on the tables and a corpus sample
        structures = [s for args in FROZEN_CORPORA for s in design.corpus(*args)]
        hand = [validate_structure(table) for table, _ in TWO_SIDED_HAND_CASES]
        for s in structures + hand:
            induced_belief_distribution(s)
        for s in structures[::100] + hand:
            assert len(tuple(iid_chain(induced_belief_distribution(s), 8))) == 8
        count = len(structures) + len(hand)
        assert len(pinned) == 2 * count + 7 * (len(structures[::100]) + len(hand))
        for view, frozen in pinned:
            assert view == frozen
            assert all(type(q) is F for q in itertools.chain.from_iterable(view))

    def test_views_reject_assignment(self):
        structure, distribution, *_ = make_records()
        report = design.verify_dominance(structure, 3)
        views = [(structure, "like_high"), (structure, "like_low"), (distribution, "atoms")]
        views += [(report, name) for name in ("eps", "single_base", "single_split",
                                              "base_values", "split_values")]
        for record, name in views:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) == before


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor argparse and what it imports: a plain ``hv`` command line never needs them
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import historyvalue.cli\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print(json.dumps([added, historyvalue.cli._parser.cache_info().currsize]))\n"
    )
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    added, parsers = json.loads(proc.stdout)
    assert "historyvalue.cli" in added
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(added)
    assert parsers == 0  # the parser is built by the first main() call, not the import


def test_only_a_corpus_imports_random():
    # without ``site`` (-S), which may load ``random`` itself, the library
    # imports it on the first corpus only
    script = (
        "import sys\n"
        "import historyvalue.cli\n"
        "loaded = 'random' in sys.modules\n"
        "historyvalue.design.corpus(0, 1)\n"
        "print(loaded, 'random' in sys.modules)\n"
    )
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    assert proc.stdout.split() == ["False", "True"]
