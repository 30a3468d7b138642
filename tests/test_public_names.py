"""Every public name of the package and of ``learning``, ``design`` and
``market`` still resolves.

The lists are the names these modules offered when the dynamic-pricing
quantities were given one implementation each: the package's ``__all__``
and each module's own top-level definitions, plus ``design``'s
re-export of ``ternary_social_value``.  A move between modules must
re-bind the name where it was, and a deletion must show up here as a
deliberate edit of this list.

Every function and method the package defines also resolves its
annotations, and every cap it defines is listed in README "Caps" with
its current value.
"""

import functools
import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import historyvalue

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "historyvalue": (
        "ACTION0", "ACTION1", "BeliefDistribution", "BoundedValue", "DominanceReport",
        "EquivalenceReport", "FOLLOW_SIGNAL", "InformationStructure", "MarketParams",
        "PayoffProfile", "PriceSchedule", "SurplusReport", "argmax_unit_interval",
        "best_equilibrium_payoffs", "check_equivalence", "compose_beliefs",
        "compose_distributions", "corpus", "dynamic_price_path", "full_observation_payoff",
        "iid_belief_distribution", "induced_belief_distribution", "max_social_value",
        "maximize_concave", "optimal_eps_agent", "optimal_eps_buyer", "optimal_eps_seller",
        "optimal_eps_seller_sticky", "optimal_eps_social", "optimal_eps_weighted",
        "optimal_eps_weighted_sticky", "posterior", "random_structure",
        "simulate_equilibrium", "single_signal_payoff", "social_value", "split_to_ternary",
        "sticky_price_path", "sticky_surpluses", "structure_from_integers",
        "structure_from_json", "structure_to_json",
        "surpluses", "ternary_social_value", "ternary_sticky_buyer_surplus",
        "ternary_sticky_seller_surplus", "ternary_sticky_surpluses", "ternary_structure",
        "ternary_value_i", "ternary_weighted_surplus", "ternary_weighted_surplus_sticky",
        "uninformative_mass", "validate_structure", "verify_dominance",
    ),
    "historyvalue.learning": (
        "ACTION0", "ACTION1", "BoundedValue", "FOLLOW_SIGNAL", "HORIZON_CAP",
        "MAX_STATES", "PayoffProfile", "SEARCH_MEMO_SIZE", "best_equilibrium_payoffs",
        "discounted", "full_observation_payoff", "simulate_equilibrium",
        "single_signal_payoff", "social_value", "ternary_social_value", "truncated_payoffs",
        "truncation_horizon",
    ),
    "historyvalue.design": (
        "AgentOptimum", "CORPUS_CAP", "DominanceReport", "EquivalenceReport", "HI_ID", "LO_ID",
        "MID_ID", "SearchResult", "argmax_unit_interval",
        "check_equivalence", "corpus", "golden_section", "max_social_value",
        "maximize_concave", "optimal_eps_agent", "optimal_eps_social", "random_structure",
        "split_to_ternary", "ternary_social_value", "ternary_structure", "ternary_value_i",
        "unit_search", "verify_dominance",
    ),
    "historyvalue.market": (
        "MarketParams", "PriceSchedule", "STICKINESS_CAP", "SurplusReport",
        "dynamic_price_path", "optimal_eps_buyer", "optimal_eps_seller",
        "optimal_eps_seller_sticky", "optimal_eps_weighted", "optimal_eps_weighted_sticky",
        "sticky_price_path", "sticky_surpluses", "surpluses", "ternary_sticky_buyer_surplus",
        "ternary_sticky_seller_surplus", "ternary_sticky_surpluses", "ternary_weighted_surplus",
        "ternary_weighted_surplus_sticky", "weighted_objective",
    ),
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in PUBLIC[module] if not hasattr(mod, name)] == []


def test_package_exports_the_recorded_names():
    import historyvalue

    assert set(PUBLIC["historyvalue"]) <= set(historyvalue.__all__)


def package_modules() -> list:
    return [importlib.import_module(f"historyvalue.{info.name}")
            for info in pkgutil.iter_modules(historyvalue.__path__)]


def defined_functions():
    """``(qualified name, function)`` for every top-level function and every
    method, property and cached property that a package module defines."""
    for module in package_modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(obj):
                if callable(obj):
                    yield f"{module.__name__}.{name}", obj
                continue
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    functions = dict(defined_functions())
    assert "historyvalue.design.random_structure" in functions
    assert "historyvalue.learning.PayoffProfile.benchmark" in functions
    unresolved = []
    for name, function in functions.items():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append((name, str(exc)))
    assert unresolved == []


def is_cap(name: str) -> bool:
    """``*_CAP`` and ``MAX_STATES`` name caps; ``cli.EXIT_CAP`` is an exit code."""
    return (name.endswith("_CAP") or name == "MAX_STATES") and not name.startswith("EXIT_")


def defined_caps() -> set:
    """``(module, name, value)`` of every cap the package defines."""
    return {(module.__name__.rpartition(".")[2], name, value)
            for module in package_modules() for name, value in vars(module).items()
            if is_cap(name)}


def readme_caps() -> set:
    """``(module, name, value)`` of each cap written ```module.NAME` (value)``
    in README "Caps", up to the next top-level section."""
    text = README.read_text()
    section = text.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    found = re.findall(r"`(\w+)\.([A-Z_]+)` \((\d+)\)", section)
    return {(module, name, int(value)) for module, name, value in found if is_cap(name)}


def test_readme_lists_every_cap_with_its_value():
    caps = defined_caps()
    assert ("learning", "HORIZON_CAP", 12) in caps and len(caps) == 5
    assert readme_caps() == caps
