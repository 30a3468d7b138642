"""Every public name of the package and of ``learning``, ``design`` and
``market`` still resolves.

The lists are the names these modules offered when the dynamic-pricing
quantities were given one implementation each: the package's ``__all__``
and each module's own top-level definitions, plus ``design``'s
re-export of ``ternary_social_value``.  A move between modules must
re-bind the name where it was, and a deletion must show up here as a
deliberate edit of this list.
"""

import importlib

import pytest

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
        "ACTION0", "ACTION1", "BoundedValue", "FOLLOW_SIGNAL", "HORIZON_CAP", "LEX_CAP",
        "MAX_STATES", "PayoffProfile", "SEARCH_MEMO_SIZE", "best_equilibrium_payoffs",
        "discounted", "full_observation_payoff", "simulate_equilibrium",
        "single_signal_payoff", "social_value", "ternary_social_value", "truncated_payoffs",
        "truncation_horizon",
    ),
    "historyvalue.design": (
        "AgentOptimum", "CORPUS_CAP", "DominanceReport", "EquivalenceReport", "HI_ID", "LO_ID",
        "MID_ID", "PROBE_MEMO_SIZE", "SearchResult", "argmax_unit_interval",
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
