"""Exact computation of the value of history in sequential social learning,
with belief splitting, dominance verification, and monopoly pricing of
access to the action record."""

from .beliefs import (
    BeliefDistribution,
    InformationStructure,
    compose_beliefs,
    compose_distributions,
    iid_belief_distribution,
    induced_belief_distribution,
    posterior,
    structure_from_integers,
    structure_from_json,
    structure_to_json,
    uninformative_mass,
    validate_structure,
)
from .design import (
    DominanceReport,
    EquivalenceReport,
    argmax_unit_interval,
    check_equivalence,
    corpus,
    maximize_concave,
    optimal_eps_agent,
    optimal_eps_social,
    max_social_value,
    random_structure,
    split_to_ternary,
    ternary_structure,
    ternary_value_i,
    verify_dominance,
)
from .learning import (
    ACTION0,
    ACTION1,
    FOLLOW_SIGNAL,
    BoundedValue,
    PayoffProfile,
    best_equilibrium_payoffs,
    full_observation_payoff,
    simulate_equilibrium,
    single_signal_payoff,
    social_value,
    ternary_social_value,
)
from .market import (
    MarketParams,
    PriceSchedule,
    SurplusReport,
    dynamic_price_path,
    optimal_eps_buyer,
    optimal_eps_seller,
    optimal_eps_seller_sticky,
    optimal_eps_weighted,
    optimal_eps_weighted_sticky,
    sticky_price_path,
    sticky_surpluses,
    surpluses,
    ternary_sticky_buyer_surplus,
    ternary_sticky_seller_surplus,
    ternary_sticky_surpluses,
    ternary_weighted_surplus,
    ternary_weighted_surplus_sticky,
)

from types import ModuleType as _ModuleType

# The imports above are the public API; submodules are not re-exported.
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)]
__version__ = "0.1.0"
