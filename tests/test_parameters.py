"""Range and type checks on the model parameters, at every entry point.

The discount factor and the welfare weight must lie in (0, 1), the
uninformative mass in [0, 1] and a tolerance above 0; horizons,
stickiness, agent indices and counts must be ints.  A bad value of any kind, NaN, infinity and a bool included, raises
a ``ValidationError`` (exit 3 in the CLI), never a bare ``ValueError``,
``OverflowError``, ``TypeError`` or ``ZeroDivisionError``.
"""

import random
from fractions import Fraction as F

import pytest

from historyvalue import (
    MarketParams,
    best_equilibrium_payoffs,
    check_equivalence,
    corpus,
    full_observation_payoff,
    iid_belief_distribution,
    maximize_concave,
    max_social_value,
    optimal_eps_agent,
    optimal_eps_seller,
    optimal_eps_seller_sticky,
    optimal_eps_social,
    optimal_eps_weighted,
    optimal_eps_weighted_sticky,
    random_structure,
    simulate_equilibrium,
    social_value,
    sticky_price_path,
    sticky_surpluses,
    ternary_social_value,
    ternary_sticky_buyer_surplus,
    ternary_sticky_seller_surplus,
    ternary_sticky_surpluses,
    ternary_structure,
    ternary_value_i,
    ternary_weighted_surplus,
    ternary_weighted_surplus_sticky,
    validate_structure,
)
from historyvalue.beliefs import as_belief, compose_beliefs, posterior
from historyvalue.learning import discounted, truncated_payoffs, truncation_horizon
from historyvalue.errors import DegenerateParameter, ParseError, ValidationError
from historyvalue.rationals import parse_rational

HALF = F(1, 2)
NAN = float("nan")
INF = float("inf")

OPEN_BAD = [0, 1, F(-1, 2), 2, NAN, INF, -INF]
# True and False are not the mass or belief 1 and 0
CLOSED_BAD = [F(-1, 2), F(3, 2), NAN, INF, True, False]


def sym_binary():
    return validate_structure({"s1": (F(2, 3), F(1, 3)), "s2": (F(1, 3), F(2, 3))})


DELTA_CALLS = {
    "social_value": lambda d: social_value(sym_binary(), d, F(1, 100)),
    "social_value_ternary": lambda d: social_value(ternary_structure(HALF), d, F(1, 100)),
    "ternary_social_value": lambda d: ternary_social_value(HALF, d),
    "optimal_eps_social": optimal_eps_social,
    "max_social_value": max_social_value,
    "MarketParams": lambda d: MarketParams(d, HALF),
    "seller": lambda d: ternary_sticky_seller_surplus(HALF, d, 2),
    "buyer": lambda d: ternary_sticky_buyer_surplus(HALF, d, 2),
    "surpluses": lambda d: ternary_sticky_surpluses(HALF, d, 2),
    "weighted_sticky": lambda d: ternary_weighted_surplus_sticky(HALF, d, F(1, 3), 2),
    "weighted": lambda d: ternary_weighted_surplus(HALF, d, F(1, 3)),
    "optimal_seller": optimal_eps_seller,
    "optimal_seller_sticky": lambda d: optimal_eps_seller_sticky(d, 2),
    "optimal_weighted": lambda d: optimal_eps_weighted(d, F(1, 3)),
    "optimal_weighted_sticky": lambda d: optimal_eps_weighted_sticky(d, F(1, 3), 2),
    "truncation_horizon": lambda d: truncation_horizon(d, F(1, 100)),
    "truncated_payoffs": lambda d: truncated_payoffs(sym_binary(), d, F(1, 100)),
    "discounted": lambda d: discounted([F(1, 8), F(1, 4)], d),
}

ALPHA_CALLS = {
    "MarketParams": lambda a: MarketParams(HALF, a),
    "weighted_sticky": lambda a: ternary_weighted_surplus_sticky(HALF, HALF, a, 2),
    "weighted": lambda a: ternary_weighted_surplus(HALF, HALF, a),
    "optimal_weighted": lambda a: optimal_eps_weighted(HALF, a),
    "optimal_weighted_sticky": lambda a: optimal_eps_weighted_sticky(HALF, a, 2),
}

EPS_CALLS = {
    "ternary_structure": ternary_structure,
    "ternary_value_i": lambda e: ternary_value_i(e, 2),
    "ternary_social_value": lambda e: ternary_social_value(e, HALF),
    "seller": lambda e: ternary_sticky_seller_surplus(e, HALF, 2),
    "buyer": lambda e: ternary_sticky_buyer_surplus(e, HALF, 2),
    "surpluses": lambda e: ternary_sticky_surpluses(e, HALF, 2),
    "weighted_sticky": lambda e: ternary_weighted_surplus_sticky(e, HALF, F(1, 3), 2),
    "weighted": lambda e: ternary_weighted_surplus(e, HALF, F(1, 3)),
}


class TestOpenUnitParameters:
    @pytest.mark.parametrize("name", sorted(DELTA_CALLS))
    @pytest.mark.parametrize("delta", OPEN_BAD, ids=repr)
    def test_delta_rejected(self, name, delta):
        with pytest.raises(DegenerateParameter) as info:
            DELTA_CALLS[name](delta)
        assert "discount factor" in str(info.value) and "delta" in str(info.value)

    @pytest.mark.parametrize("name", sorted(ALPHA_CALLS))
    @pytest.mark.parametrize("alpha", OPEN_BAD, ids=repr)
    def test_alpha_rejected(self, name, alpha):
        with pytest.raises(DegenerateParameter, match="alpha"):
            ALPHA_CALLS[name](alpha)

    @pytest.mark.parametrize("name", sorted(DELTA_CALLS))
    def test_inner_delta_accepted(self, name):
        DELTA_CALLS[name](F(2, 5))

    @pytest.mark.parametrize("name", sorted(ALPHA_CALLS))
    def test_inner_alpha_accepted(self, name):
        ALPHA_CALLS[name](F(1, 4))


TOLERANCE_CALLS = {
    "social_value": lambda tol: social_value(sym_binary(), HALF, tol),
    "maximize_concave": lambda tol: maximize_concave(lambda e: e * (1 - e), tol),
    "optimal_weighted_sticky": lambda tol: optimal_eps_weighted_sticky(HALF, F(1, 3), 2, tol),
    "sticky_surpluses": lambda tol: sticky_surpluses(
        sym_binary(), MarketParams(HALF, F(1, 3), 2), tol
    ),
    # the ternary closed form does not use the tolerance, but still checks it
    "sticky_surpluses_ternary": lambda tol: sticky_surpluses(
        ternary_structure(HALF), MarketParams(HALF, F(1, 3), 2), tol
    ),
    "truncation_horizon": lambda tol: truncation_horizon(HALF, tol),
    "truncated_payoffs": lambda tol: truncated_payoffs(sym_binary(), HALF, tol),
}


class TestTolerance:
    @pytest.mark.parametrize("name", sorted(TOLERANCE_CALLS))
    @pytest.mark.parametrize("tol", [0, F(-1, 100), NAN, INF, True, False], ids=repr)
    def test_rejected(self, name, tol):
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            TOLERANCE_CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(TOLERANCE_CALLS))
    def test_accepted(self, name):
        TOLERANCE_CALLS[name](F(1, 100))


BELIEF_CALLS = {
    "as_belief": as_belief,
    "posterior": lambda b: posterior(b, "s1", sym_binary()),
    "compose_beliefs": lambda b: compose_beliefs(b, HALF),
    "unconditional": lambda b: iid_belief_distribution(sym_binary(), 1).unconditional(b),
}


class TestClosedUnitParameters:
    @pytest.mark.parametrize("name", sorted(EPS_CALLS))
    @pytest.mark.parametrize("eps", CLOSED_BAD, ids=repr)
    def test_eps_rejected(self, name, eps):
        with pytest.raises(ValidationError, match=r"eps outside \[0, 1\]"):
            EPS_CALLS[name](eps)

    @pytest.mark.parametrize("name", sorted(EPS_CALLS))
    @pytest.mark.parametrize("eps", [0, 1, F(1, 3), "2/5"], ids=repr)
    def test_eps_accepted(self, name, eps):
        EPS_CALLS[name](eps)

    @pytest.mark.parametrize("name", sorted(BELIEF_CALLS))
    @pytest.mark.parametrize("belief", CLOSED_BAD, ids=repr)
    def test_belief_rejected(self, name, belief):
        with pytest.raises(ValidationError, match=r"belief outside \[0, 1\]"):
            BELIEF_CALLS[name](belief)

    @pytest.mark.parametrize("name", sorted(BELIEF_CALLS))
    @pytest.mark.parametrize("belief", [0, 1, HALF, "2/5"], ids=repr)
    def test_belief_accepted(self, name, belief):
        BELIEF_CALLS[name](belief)


class TestIntegerParameters:
    CALLS = {
        "ternary_value_i": lambda i: ternary_value_i(HALF, i),
        "optimal_eps_agent": optimal_eps_agent,
        "best_equilibrium_payoffs": lambda h: best_equilibrium_payoffs(sym_binary(), h),
        "simulate_equilibrium": lambda h: simulate_equilibrium(sym_binary(), h),
        "sticky_price_path": lambda h: sticky_price_path(sym_binary(), 2, h),
        "check_equivalence": lambda h: check_equivalence(
            sym_binary(), ternary_structure(F(2, 3)), h
        ),
        "iid_belief_distribution": lambda n: iid_belief_distribution(sym_binary(), n),
        "full_observation_payoff": lambda n: full_observation_payoff(sym_binary(), n),
        "corpus_count": lambda n: corpus(7, n),
        "corpus_max_signals": lambda n: corpus(7, 3, n),
        "corpus_max_denominator": lambda n: corpus(7, 3, 4, n),
        "random_structure_max_signals": lambda n: random_structure(random.Random(7), n),
        "random_structure_max_denominator": lambda n: random_structure(random.Random(7), 3, n),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", F(2)], ids=repr)
    def test_non_int_rejected(self, name, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            self.CALLS[name](value)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_int_accepted(self, name):
        self.CALLS[name](2)

    def test_agent_value_is_exact(self):
        assert ternary_value_i(HALF, 3) == F(3, 32)
        assert type(ternary_value_i(HALF, 3)) is F

    @pytest.mark.parametrize("name", [
        "corpus_max_signals", "corpus_max_denominator",
        "random_structure_max_signals", "random_structure_max_denominator",
    ])
    def test_size_below_one(self, name):
        with pytest.raises(ValidationError, match="must be >= 1"):
            self.CALLS[name](0)

    def test_corpus_checks_sizes_at_count_zero(self):
        for sizes in [(0, 12), (4, 0)]:
            with pytest.raises(ValidationError, match="must be >= 1"):
                corpus(7, 0, *sizes)

    @pytest.mark.parametrize("name", ["ternary_value_i", "optimal_eps_agent"])
    def test_agent_index_below_one(self, name):
        with pytest.raises(ValidationError, match="agent index must be >= 1"):
            self.CALLS[name](0)


class TestParseRational:
    def test_bool_rejected(self):
        for value in (True, False):
            with pytest.raises(ParseError):
                parse_rational(value)

    def test_numbers_accepted(self):
        assert parse_rational(3) == 3
        assert parse_rational("2/6") == F(1, 3)
        assert parse_rational(0.25) == F(1, 4)
