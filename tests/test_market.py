import ast
import decimal
import json
import math
import pathlib
import random
from fractions import Fraction as F

import pytest

from frozen_search import frozen_argmax_unit_interval
from historyvalue import cli, market
from historyvalue import (
    MarketParams,
    dynamic_price_path,
    optimal_eps_buyer,
    optimal_eps_seller,
    optimal_eps_seller_sticky,
    optimal_eps_weighted,
    optimal_eps_weighted_sticky,
    argmax_unit_interval,
    sticky_price_path,
    sticky_surpluses,
    surpluses,
    ternary_sticky_buyer_surplus,
    ternary_sticky_seller_surplus,
    ternary_sticky_surpluses,
    ternary_social_value,
    ternary_structure,
    ternary_value_i,
    ternary_weighted_surplus,
    ternary_weighted_surplus_sticky,
    validate_structure,
)
from historyvalue import optimal_eps_social, social_value
from historyvalue.beliefs import uninformative_mass
from historyvalue.design import corpus
from historyvalue.errors import DegenerateParameter, ValidationError
from historyvalue.learning import (
    BoundedValue,
    best_equilibrium_payoffs,
    single_signal_payoff,
    truncation_horizon,
)
from historyvalue.market import SurplusReport
from historyvalue.rationals import positive

HALF = F(1, 2)


def full_info():
    return validate_structure({"s1": (F(1), F(0)), "s2": (F(0), F(1))})


class TestParams:
    @pytest.mark.parametrize("delta", [F(0), F(1), F(-1, 2)])
    def test_degenerate_delta(self, delta):
        with pytest.raises(DegenerateParameter):
            MarketParams(delta, HALF)

    @pytest.mark.parametrize("alpha", [F(0), F(1)])
    def test_degenerate_alpha(self, alpha):
        with pytest.raises(DegenerateParameter):
            MarketParams(HALF, alpha)


class TestDynamicPrices:
    def test_ternary_path(self):
        path = dynamic_price_path(ternary_structure(HALF), 4)
        assert path.prices == (F(0), F(1, 16), F(3, 32), F(7, 64))

    def test_full_information_free(self):
        path = dynamic_price_path(full_info(), 4)
        assert set(path.prices) == {F(0)}

    def test_second_buyer_two_thirds(self):
        path = dynamic_price_path(ternary_structure(F(2, 3)), 2)
        assert path.prices[1] == F(1, 18)

    def test_csv(self):
        path = dynamic_price_path(ternary_structure(HALF), 2)
        assert path.to_csv().splitlines()[2].startswith("2,1/16,")


class TestStickyPrices:
    def test_block_constant(self):
        path = sticky_price_path(ternary_structure(HALF), 2, 4)
        assert path.prices == (F(0), F(0), F(3, 32), F(3, 32))

    def test_t1_equals_dynamic(self):
        pi = ternary_structure(F(2, 3))
        assert sticky_price_path(pi, 1, 5).prices == dynamic_price_path(pi, 5).prices

    def test_full_information(self):
        path = sticky_price_path(full_info(), 3, 6)
        assert set(path.prices) == {F(0)}


class TestSurpluses:
    def test_ternary_closed_forms(self):
        report = surpluses(ternary_structure(HALF), MarketParams(HALF, HALF), F(1, 10**9))
        assert report.seller.value == F(1, 24) and report.seller.exact
        assert report.buyer.value == F(1, 8)
        assert report.social.value == F(1, 12)

    def test_full_information(self):
        report = surpluses(full_info(), MarketParams(F(3, 4), F(1, 4)), F(1, 10**6))
        assert report.seller.value == 0
        assert report.buyer.value == F(1, 4)

    def test_no_information(self):
        report = surpluses(ternary_structure(F(1)), MarketParams(HALF, HALF), F(1, 10**6))
        assert report.seller.value == 0 and report.buyer.value == 0

    def test_seller_is_discounted_price_sum(self):
        # identity: pricing path aggregates to the social value of history
        pi = ternary_structure(F(1, 3))
        d = F(2, 5)
        horizon = 8
        prices = dynamic_price_path(pi, horizon).prices
        partial = (1 - d) * sum(d**i * p for i, p in enumerate(prices))
        direct = surpluses(pi, MarketParams(d, HALF), F(1, 10**9)).seller.value
        assert abs(direct - partial) <= F(1, 4) * d**horizon


class TestStickySurpluses:
    def test_ternary_seller_closed_form(self):
        assert ternary_sticky_seller_surplus(HALF, HALF, 2) == F(1, 40)

    def test_t1_reduces_to_dynamic(self):
        assert ternary_sticky_seller_surplus(F(1, 3), F(2, 5), 1) == ternary_social_value(
            F(1, 3), F(2, 5)
        )
        pi = ternary_structure(F(1, 3))
        dyn = surpluses(pi, MarketParams(F(2, 5), F(1, 3)), F(1, 10**9))
        sticky = sticky_surpluses(pi, MarketParams(F(2, 5), F(1, 3), 1), F(1, 10**9))
        assert (sticky.seller, sticky.buyer, sticky.social) == (
            dyn.seller,
            dyn.buyer,
            dyn.social,
        )

    def test_closed_form_matches_series(self):
        eps, d, t = F(1, 2), F(3, 5), 3
        horizon = 60
        terms = (1 - d**t) * sum(
            d ** (k * t) * ternary_value_i(eps, k * t + 1)
            for k in range(horizon // t + 1)
        )
        closed = ternary_sticky_seller_surplus(eps, d, t)
        assert abs(closed - terms) <= F(1, 4) * d ** (horizon + t)

    def test_buyers_keep_block_rents(self):
        pi = ternary_structure(HALF)
        report = sticky_surpluses(pi, MarketParams(HALF, HALF, 3), F(1, 10**9))
        assert report.buyer.value > F(1, 8)  # more than the signal-only payoff

    def test_buyer_bound(self):
        # per-buyer payoff net of price never exceeds 1/4; strict unless
        # the structure is full information
        for eps in (F(0), F(1, 3), F(2, 3)):
            pi = ternary_structure(eps)
            t = 2
            from historyvalue import best_equilibrium_payoffs

            p = best_equilibrium_payoffs(pi, 6)
            prices = sticky_price_path(pi, t, 6).prices
            for i in range(6):
                net = p.single + p.history_value[i] - prices[i]
                if eps == 0:
                    assert net == F(1, 4)
                else:
                    assert net < F(1, 4)

    def test_participation(self):
        # willingness to pay covers the posted price for every buyer
        for eps in (F(1, 4), F(2, 3)):
            pi = ternary_structure(eps)
            for t in (1, 2, 3):
                prices = sticky_price_path(pi, t, 6).prices
                gains = dynamic_price_path(pi, 6).prices
                assert all(p <= g for p, g in zip(prices, gains))


class TestOptima:
    def test_seller_matches_social(self):
        assert optimal_eps_seller(F(3, 4)) == pytest.approx(2 / 3, abs=1e-12)

    def test_buyer_zero(self):
        assert optimal_eps_buyer() == 0

    def test_seller_sticky_t1_reduction(self):
        for d in (0.3, 0.6, 0.9):
            assert optimal_eps_seller_sticky(d, 1) == pytest.approx(
                optimal_eps_seller(d), abs=1e-12
            )

    def test_seller_sticky_value(self):
        assert optimal_eps_seller_sticky(0.5, 2) == pytest.approx(0.61362, abs=1e-4)

    def test_seller_sticky_matches_numeric(self):
        for t in (2, 3):
            d = F(1, 2)
            got = argmax_unit_interval(
                lambda e: ternary_sticky_seller_surplus(e, d, t), F(1, 10**9)
            )
            assert abs(float(got.argmax) - optimal_eps_seller_sticky(d, t)) < 1e-6

    def test_seller_limit_patient(self):
        assert optimal_eps_seller(1 - 1e-6) > 0.998

    @pytest.mark.parametrize("delta, t", [
        (HALF, 60), (HALF, 1074), (HALF, 1075), (HALF, 5000), (F(1, 12), 320), (F(11, 12), 9000),
    ])
    def test_seller_sticky_where_the_difference_vanishes(self, delta, t):
        # 4 d^t is below the rounding of b^2, or d^t underflows to 0: the
        # smaller root 2 / (b + sqrt(b^2 - 4 d^t)) is 1/b to double precision
        # (these printed 0 or raised ZeroDivisionError)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            dt = decimal.Decimal(delta.numerator) ** t / decimal.Decimal(delta.denominator) ** t
            b = t + 1 - (t - 1) * dt
            root = 2 / (b + (b * b - 4 * dt).sqrt())
            expected = float(root ** (decimal.Decimal(1) / t))
        assert optimal_eps_seller_sticky(delta, t) == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def frozen_seller_sticky(delta, t):
        """``optimal_eps_seller_sticky`` as it was before a huge ``t``
        returned its limit."""
        d = float(delta)
        dt = d**t
        b = t + 1 - (t - 1) * dt
        gap = b - math.sqrt(b * b - 4 * dt)
        root = gap / (2 * dt) if gap else 1 / b
        return root ** (1.0 / t)

    def test_seller_sticky_bits_match_frozen(self):
        # every delta with denominator at most 12 and every t up to 1200,
        # underflowing d^t included: the sweep's and market's bytes stay
        deltas = sorted({F(n, m) for m in range(2, 13) for n in range(1, m)})
        for delta in deltas:
            got = [optimal_eps_seller_sticky(delta, t).hex() for t in range(1, 1201)]
            assert got == [self.frozen_seller_sticky(delta, t).hex() for t in range(1, 1201)]

    @pytest.mark.parametrize("t", [2**60, 2**100, 13 * 10**153, 14 * 10**153, 2**1024, 2**1100],
                             ids=["2^60", "2^100", "13e153", "14e153", "2^1024", "2^1100"])
    @pytest.mark.parametrize("delta", [F(1, 12), HALF, F(11, 12), 1 - F(1, 2**53)], ids=str)
    def test_seller_sticky_huge_t_is_its_limit(self, delta, t):
        # b^2 overflowed to inf from 14e153 on (ZeroDivisionError), and t
        # itself no longer converted to a float past 2^1024 (OverflowError);
        # the limit (1/b)^(1/t) rounds to 1, as the old formula gave below
        assert optimal_eps_seller_sticky(delta, t) == 1.0
        if t <= 13 * 10**153:
            assert self.frozen_seller_sticky(delta, t) == 1.0
        assert self.frozen_seller_sticky(delta, 2**59) < 1.0

    def test_weighted_interior(self):
        assert optimal_eps_weighted(HALF, F(1, 4)) == pytest.approx(
            2 - math.sqrt(3), abs=1e-12
        )

    def test_weighted_boundary(self):
        assert optimal_eps_weighted(F(1, 4), F(1, 4)) == 0.0
        assert optimal_eps_weighted(F(9, 10), HALF) == 0.0
        assert optimal_eps_weighted(F(9, 10), F(3, 4)) == 0.0

    @pytest.mark.parametrize("delta, alpha", [(HALF, F(1, 4)), (F(9, 10), F(1, 3)), (HALF, F(3, 5))])
    def test_weighted_sticky_one_is_dynamic(self, delta, alpha):
        assert optimal_eps_weighted_sticky(delta, alpha, 1) == optimal_eps_weighted(delta, alpha)

    def test_weighted_sticky_alpha_high(self):
        assert optimal_eps_weighted_sticky(HALF, F(3, 5), 2) == 0

    @pytest.mark.parametrize(
        "delta, t, message", [(F(5), 2, "delta"), (F(0), 3, "delta"), (HALF, 0, "stickiness")]
    )
    def test_weighted_sticky_checks_before_alpha_shortcut(self, delta, t, message):
        with pytest.raises(ValidationError, match=message):
            optimal_eps_weighted_sticky(delta, F(7, 10), t)

    @pytest.mark.parametrize("alpha, t", [(F(1, 3), 1), (F(3, 4), 2), (F(1, 3), 2), (F(1, 24), 8)],
                             ids=["dynamic", "alpha-high", "search", "falling"])
    @pytest.mark.parametrize("tolerance", [-1, 0, F(-1, 10**9), "one"])
    def test_weighted_sticky_checks_tolerance_before_any_shortcut(self, alpha, t, tolerance):
        # t = 1 and alpha >= 1/2 return without a search; the tolerance is checked there too
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            optimal_eps_weighted_sticky(HALF, alpha, t, tolerance)

    def test_weighted_sticky_numeric(self):
        got = optimal_eps_weighted_sticky(F(3, 4), F(1, 4), 2, F(1, 10**8))
        # numeric-only optimum: verify first-order dominance over neighbors
        from historyvalue import ternary_weighted_surplus_sticky

        star = F(got).limit_denominator(10**9)
        best = ternary_weighted_surplus_sticky(star, F(3, 4), F(1, 4), 2)
        for probe in (star - F(1, 100), star + F(1, 100)):
            assert ternary_weighted_surplus_sticky(probe, F(3, 4), F(1, 4), 2) < best


# -- integer kernel against the Fraction formulas ------------------------------
#
# Frozen copy of the closed forms as Fraction arithmetic, before they were
# evaluated through market's integer kernel.  Kept only as the oracle.


def oracle_seller(eps, delta, t):
    e, d = F(eps), F(delta)
    return (d**t / 4) * e * (1 - e**t) / (1 - d**t * e**t)


def oracle_with_history(eps, delta):
    e, d = F(eps), F(delta)
    return F(1, 4) - (1 - d) * e / (4 * (1 - d * e))


def oracle_buyer(eps, delta, t):
    return oracle_with_history(eps, delta) - oracle_seller(eps, delta, t)


def oracle_weighted(eps, delta, alpha, t):
    a = F(alpha)
    seller = oracle_seller(eps, delta, t)
    return a * (oracle_with_history(eps, delta) - seller) + (1 - a) * seller


def oracle_points(count=300, seed=20240607):
    rng = random.Random(seed)
    special = [F(0), F(1)] + [F(k, 64) for k in range(65)]
    points = []
    for k in range(count):
        if k < len(special):
            e = special[k]
        else:
            den = rng.randint(1, 10**40)
            e = F(rng.randint(0, den), den)
        d = F(rng.randint(1, 999), 1000)
        a = F(rng.randint(1, 99), 100)
        points.append((e, d, a, (1, 2, 3, 5, 8)[k % 5]))
    return points


class TestIntegerKernel:
    def test_closed_forms_match_oracle(self):
        for e, d, a, t in oracle_points():
            seller, buyer = ternary_sticky_surpluses(e, d, t)
            assert seller == oracle_seller(e, d, t)
            assert buyer == oracle_buyer(e, d, t)
            assert seller + buyer == oracle_with_history(e, d)
            assert ternary_sticky_seller_surplus(e, d, t) == seller
            assert ternary_sticky_buyer_surplus(e, d, t) == buyer
            assert ternary_weighted_surplus_sticky(e, d, a, t) == oracle_weighted(e, d, a, t)

    def test_results_are_exact_fractions(self):
        e, d, a, t = F(3, 7), F(2, 3), F(1, 5), 3
        results = (*ternary_sticky_surpluses(e, d, t), ternary_sticky_seller_surplus(e, d, t),
                   ternary_sticky_buyer_surplus(e, d, t),
                   ternary_weighted_surplus_sticky(e, d, a, t))
        assert all(type(x) is F for x in results)

    @pytest.mark.parametrize("delta", [F(1, 3), F(3, 4)])
    @pytest.mark.parametrize("alpha", [F(1, 5), F(2, 5)])
    @pytest.mark.parametrize("t", [2, 5])
    def test_weighted_argmax_matches_oracle(self, delta, alpha, t):
        expected = argmax_unit_interval(
            lambda e: oracle_weighted(e, delta, alpha, t), F(1, 10**9)
        ).argmax
        assert optimal_eps_weighted_sticky(delta, alpha, t) == expected

    def test_sweep_csv_matches_oracle(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": {
            "delta_grid": ["1/3", "9/10"], "alpha_grid": ["1/5", "3/5"], "t_grid": [1, 2, 3],
        }}))

        def sweep():
            assert cli.main(["sweep", "--config", str(config)]) == cli.EXIT_OK
            return capsys.readouterr().out

        def frozen_optimal_weighted(d, a, t, tolerance):
            # the search as it was, on the oracle objective (t = 1 and alpha >= 1/2
            # are the library's shortcuts, which need no search)
            if t == 1 or a >= F(1, 2):
                return optimal_eps_weighted_sticky(d, a, t, tolerance)
            return frozen_argmax_unit_interval(
                lambda e: oracle_weighted(e, d, a, t), tolerance
            ).argmax

        kernel = sweep()
        monkeypatch.setattr(market, "optimal_eps_weighted_sticky", frozen_optimal_weighted)
        monkeypatch.setattr(market, "ternary_weighted_surplus_sticky", oracle_weighted)
        monkeypatch.setattr(
            market, "ternary_sticky_surpluses",
            lambda e, d, t: (oracle_seller(e, d, t), oracle_buyer(e, d, t)),
        )
        assert sweep() == kernel
        assert len(kernel.splitlines()) == 2 + 2 * 2 * 3


class TestStickinessIsInteger:
    CALLS = {
        "seller": lambda t: ternary_sticky_seller_surplus(HALF, HALF, t),
        "buyer": lambda t: ternary_sticky_buyer_surplus(HALF, HALF, t),
        "surpluses": lambda t: ternary_sticky_surpluses(HALF, HALF, t),
        "weighted": lambda t: ternary_weighted_surplus_sticky(HALF, HALF, F(1, 3), t),
        "optimal_weighted": lambda t: optimal_eps_weighted_sticky(HALF, F(1, 3), t),
        "optimal_seller": lambda t: optimal_eps_seller_sticky(HALF, t),
        "params": lambda t: MarketParams(HALF, F(1, 3), t),
        "price_path": lambda t: sticky_price_path(ternary_structure(HALF), t, 4),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("t", [1.5, 2.5, 2.0, True, "2", F(2)])
    def test_non_int_rejected(self, name, t):
        with pytest.raises(ValidationError, match="stickiness must be an integer"):
            self.CALLS[name](t)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_int_accepted(self, name):
        self.CALLS[name](2)


class TestWeightedAlpha:
    @pytest.mark.parametrize("alpha", [F(0), F(1), F(2), F(-3), 2, -3, 1.5])
    def test_sticky_rejects(self, alpha):
        with pytest.raises(DegenerateParameter, match="alpha"):
            ternary_weighted_surplus_sticky(HALF, HALF, alpha, 5)

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(2), F(-3), 2, -3, 1.5])
    def test_dynamic_rejects(self, alpha):
        with pytest.raises(DegenerateParameter, match="alpha"):
            ternary_weighted_surplus(HALF, HALF, alpha)

    def test_inner_alpha_accepted(self):
        assert ternary_weighted_surplus(HALF, HALF, F(1, 4)) == (
            F(1, 4) * F(1, 8) + F(3, 4) * ternary_social_value(HALF, HALF)
        )
        assert ternary_weighted_surplus_sticky(HALF, HALF, F(1, 4), 2) == oracle_weighted(
            HALF, HALF, F(1, 4), 2
        )


class TestDynamicIsStickyAtOne:
    def test_kernel_at_one_is_dynamic(self):
        # at t = 1 the seller gets the aggregate history gain and each
        # buyer keeps the payoff of a conclusive signal, 1/4, times 1 - e
        for e, d, a, _ in oracle_points():
            seller, buyer = ternary_sticky_surpluses(e, d, 1)
            assert seller == ternary_social_value(e, d)
            assert buyer == (1 - e) / 4

    def test_weighted_is_sticky_at_one(self):
        for e, d, a, _ in oracle_points():
            expected = a * (1 - e) / 4 + (1 - a) * ternary_social_value(e, d)
            assert ternary_weighted_surplus(e, d, a) == expected
            assert ternary_weighted_surplus_sticky(e, d, a, 1) == expected

    @pytest.mark.parametrize("delta", [F(1, 4), F(2, 3)])
    def test_social_value_is_dynamic_seller_surplus(self, delta):
        # the seller extracts each buyer's history gain; at 2/3 the
        # tolerance is past the cap and both raise the same error
        params = MarketParams(delta, F(1, 3), 1)
        for structure in [*corpus(7, 30), ternary_structure(F(1, 3))]:
            try:
                expected = social_value(structure, delta, F(1, 1000))
            except Exception as exc:
                with pytest.raises(type(exc)) as got:
                    sticky_surpluses(structure, params, F(1, 1000))
                assert str(got.value) == str(exc)
            else:
                assert sticky_surpluses(structure, params, F(1, 1000)).seller == expected

    @pytest.mark.parametrize("delta", [F(k, 12) for k in range(1, 12)]
                             + [F(1, 10**k) for k in range(1, 21)])
    def test_social_optimum_is_dynamic_seller_optimum(self, delta):
        assert optimal_eps_social(delta) == optimal_eps_seller_sticky(delta, 1)


# Frozen copy of the two surplus paths as they were when dynamic pricing
# had its own path (``social_value`` plus the signal-only payoff) and the
# sticky path wrote its own truncated series; the oracle for the one path.
def oracle_report(alpha, seller, buyer, regime):
    a = F(alpha)
    social = BoundedValue(a * buyer.value + (1 - a) * seller.value,
                          a * buyer.error_bound + (1 - a) * seller.error_bound)
    return SurplusReport(seller=seller, buyer=buyer, social=social, regime=regime)


def oracle_social_value(structure, delta, tolerance):
    eps = uninformative_mass(structure)
    if eps is not None:
        return BoundedValue(ternary_social_value(eps, delta), F(0))
    depth = truncation_horizon(delta, tolerance)
    profile = best_equilibrium_payoffs(structure, depth)
    partial = (1 - delta) * sum(delta**i * g for i, g in enumerate(profile.history_value))
    return BoundedValue(partial, F(1, 4) * delta**depth)


def oracle_surpluses(structure, params, tolerance):
    if params.stickiness != 1:
        raise ValidationError("use sticky_surpluses for stickiness > 1")
    seller = oracle_social_value(structure, F(params.delta), positive(tolerance, "tolerance"))
    buyer = BoundedValue(single_signal_payoff(structure), F(0))
    return oracle_report(params.alpha, seller, buyer, "dynamic")


def oracle_sticky_surpluses(structure, params, tolerance):
    tolerance = positive(tolerance, "tolerance")
    t = params.stickiness
    if t == 1:
        return oracle_surpluses(structure, params, tolerance)
    d = F(params.delta)
    regime = f"sticky({t})"
    eps = uninformative_mass(structure)
    if eps is not None:
        seller, buyer = (BoundedValue(v, F(0)) for v in ternary_sticky_surpluses(eps, d, t))
        return oracle_report(params.alpha, seller, buyer, regime)
    horizon = truncation_horizon(d, tolerance)
    profile = best_equilibrium_payoffs(structure, horizon)
    gains = profile.history_value
    prices = tuple(gains[(i // t) * t] for i in range(len(gains)))
    tail = F(1, 4) * d**horizon
    seller_sum = (1 - d) * sum(d**i * p for i, p in enumerate(prices))
    buyer_sum = (1 - d) * sum(
        d**i * (profile.single + gains[i] - prices[i]) for i in range(horizon)
    )
    return oracle_report(params.alpha, BoundedValue(seller_sum, tail),
                         BoundedValue(buyer_sum, tail), regime)


def outcome(fn, *args):
    """``fn``'s report, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestOneSurplusPath:
    STRUCTURES = [*corpus(7, 30), ternary_structure(F(1, 3))]

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("delta", [F(1, 4), F(2, 3)])
    def test_matches_frozen_paths(self, t, delta):
        params, tol = MarketParams(delta, F(1, 3), t), F(1, 100)
        for structure in self.STRUCTURES:
            for new, old in ((surpluses, oracle_surpluses),
                             (sticky_surpluses, oracle_sticky_surpluses)):
                got = outcome(new, structure, params, tol)
                assert got == outcome(old, structure, params, tol), structure
                assert isinstance(got, SurplusReport) or new is surpluses

    def test_market_has_no_second_surplus_path(self):
        # dynamic surpluses come from the sticky path, and the truncated
        # series from learning.truncated_payoffs
        tree = ast.parse(pathlib.Path(market.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not imported & {"social_value", "single_signal_payoff",
                                "truncation_horizon", "QUARTER"}
