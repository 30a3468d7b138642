"""Monopoly pricing of access to the action history.

A data seller records purchasers' actions and sells access to the
record.  Buyer ``i``'s willingness to pay is exactly their gain from
history, so under per-period (dynamic) pricing the seller extracts it
fully: the seller's discounted surplus equals the aggregate history
gain and each buyer keeps the signal-only payoff.  Under sticky pricing
the price can only reset every ``t`` periods, at the block leader's
willingness to pay, leaving later buyers in a block a rent.

Because the dynamic seller's revenue is the value of history, each side
of that identity is computed once, below this module: the discounted
series and its tail (``learning.discounted_surpluses``), the ternary
closed forms on their integer kernel (``learning.ternary_sticky_surpluses``
and ``learning._sticky_kernel``) and the float seller root
(``design.optimal_eps_seller_sticky``).  ``social_value``,
``ternary_social_value`` and ``optimal_eps_social`` are those at ``t = 1``.
This module prices and weighs them, and re-exports the moved names.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .beliefs import InformationStructure
# optimal_eps_seller_sticky lives in design, next to optimal_eps_social; market re-exports it.
from .design import optimal_eps_seller_sticky, optimal_eps_social, unit_search  # noqa: F401
from .errors import CapExceeded, ValidationError
from .learning import BoundedValue, best_equilibrium_payoffs, discounted_surpluses
from .learning import _block_prices, _sticky_kernel, ternary_sticky_surpluses
from .rationals import format_decimal, format_rational
from .rationals import DISCOUNT, WEIGHT, closed_unit, int_at_least, open_unit, positive


#: Cap on ``MarketParams.stickiness``: the exact closed forms raise integers to that power.
STICKINESS_CAP = 1200


class MarketParams(namedtuple("MarketParams", "delta alpha stickiness")):
    """Discount factor, welfare weight on buyers and price stickiness, checked when built."""

    __slots__ = ()

    def __new__(cls, delta, alpha, stickiness=1):
        open_unit(delta, DISCOUNT)
        open_unit(alpha, WEIGHT)
        if int_at_least(stickiness, 1, "stickiness") > STICKINESS_CAP:
            raise CapExceeded(f"stickiness {stickiness} exceeds cap {STICKINESS_CAP}")
        return super().__new__(cls, delta, alpha, stickiness)

    @classmethod
    def _make(cls, iterable):  # the base's skips __new__, and _replace calls _make
        return cls(*iterable)


class PriceSchedule(namedtuple("PriceSchedule", "prices regime")):
    """Posted price per buyer index, and the regime: "dynamic" or "sticky(t)"."""

    __slots__ = ()

    def to_csv(self) -> str:
        lines = ["i,price,price_dec"]
        for i, p in enumerate(self.prices):
            lines.append(f"{i + 1},{format_rational(p)},{format_decimal(p)}")
        return "\n".join(lines) + "\n"


class SurplusReport(namedtuple("SurplusReport", "seller buyer social regime")):
    """Seller, buyer, and weighted social surplus for one regime."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        def entry(v: BoundedValue):
            return {
                "value": format_rational(v.value),
                "value_dec": format_decimal(v.value),
                "error_bound": format_decimal(v.error_bound),
            }

        return {
            "regime": self.regime,
            "seller": entry(self.seller),
            "buyer": entry(self.buyer),
            "social": entry(self.social),
        }


def _regime(t: int) -> str:
    return "dynamic" if t == 1 else f"sticky({t})"


def dynamic_price_path(structure: InformationStructure, horizon: int) -> PriceSchedule:
    """Per-buyer prices under dynamic pricing: each buyer's history gain."""
    return sticky_price_path(structure, 1, horizon)


def sticky_price_path(structure: InformationStructure, t: int, horizon: int) -> PriceSchedule:
    """Block-constant prices: block ``k`` is priced at buyer ``k*t + 1``'s gain."""
    int_at_least(t, 1, "stickiness")
    profile = best_equilibrium_payoffs(structure, horizon)
    return PriceSchedule(prices=_block_prices(profile.history_value, t), regime=_regime(t))


def _report(alpha, seller, buyer, regime: str) -> SurplusReport:
    """Report whose social surplus weights buyers by ``alpha``, sellers by ``1 - alpha``."""
    a = Fraction(alpha)
    social = BoundedValue(
        a * buyer.value + (1 - a) * seller.value,
        a * buyer.error_bound + (1 - a) * seller.error_bound,
    )
    return SurplusReport(seller=seller, buyer=buyer, social=social, regime=regime)


def surpluses(structure: InformationStructure, params: MarketParams, tolerance) -> SurplusReport:
    """Dynamic-regime surpluses: :func:`sticky_surpluses` at ``t = 1``."""
    if params.stickiness != 1:
        raise ValidationError("use sticky_surpluses for stickiness > 1")
    return sticky_surpluses(structure, params, tolerance)


def ternary_sticky_seller_surplus(eps, delta, t: int) -> Fraction:
    """Closed-form sticky seller surplus for the ternary family:
    (d^t / 4) * e * (1 - e^t) / (1 - d^t * e^t).

    With ``e = n/m`` and ``d = p/q`` this is
    ``p^t*n*(m^t - n^t) / (4*m*(q^t*m^t - p^t*n^t))``.
    """
    return ternary_sticky_surpluses(eps, delta, t)[0]


def ternary_sticky_buyer_surplus(eps, delta, t: int) -> Fraction:
    """Closed-form sticky buyer surplus for the ternary family:
    ``1/4 - (1-d)*e / (4*(1-d*e)) - seller`` (see
    :func:`~historyvalue.learning._sticky_kernel` for the integer form)."""
    return ternary_sticky_surpluses(eps, delta, t)[1]


def sticky_surpluses(structure: InformationStructure, params: MarketParams, tolerance) -> SurplusReport:
    """Surpluses when the price resets every ``t`` buyers; ``t = 1`` is dynamic.

    The seller's and the buyers' surplus are
    :func:`~historyvalue.learning.discounted_surpluses`, exact for ternary
    structures and otherwise truncated with a certified tail; at ``t = 1``
    the seller's is the social value of history.
    """
    t = params.stickiness
    seller, buyer = discounted_surpluses(structure, params.delta, t, tolerance)
    return _report(params.alpha, seller, buyer, _regime(t))


# -- surplus-optimal mixing probabilities --------------------------------------


def optimal_eps_seller(delta) -> float:
    """Seller-optimal uninformative mass under dynamic pricing."""
    return optimal_eps_social(delta)


def optimal_eps_buyer() -> Fraction:
    """Buyers are best served by full information: mass 0, exactly."""
    return Fraction(0)


def optimal_eps_weighted(delta, alpha) -> float:
    """Mass maximizing the weighted surplus under dynamic pricing.

    Zero when ``delta <= alpha / (1 - alpha)`` (the buyer side dominates),
    otherwise ``(1 - sqrt((1-alpha)(1-delta)/(1-2*alpha))) / delta``.  The
    interior branch only arises for ``alpha < 1/2``.
    """
    d = float(open_unit(delta, DISCOUNT))
    a = float(open_unit(alpha, WEIGHT))
    if a >= 0.5 or d <= a / (1 - a):
        return 0.0
    return (1.0 - math.sqrt((1 - a) * (1 - d) / (1 - 2 * a))) / d


def ternary_weighted_surplus(eps, delta, alpha) -> Fraction:
    """Exact weighted surplus on the ternary family, dynamic regime: the
    sticky form at ``t = 1``, where the seller gets the aggregate history
    gain and each buyer keeps ``(1 - e)/4``."""
    return ternary_weighted_surplus_sticky(eps, delta, alpha, 1)


def weighted_objective(delta, alpha, t: int):
    """The weighted sticky surplus on the ternary family as an integer
    objective for :func:`~historyvalue.design.golden_section`, with
    ``delta``, ``t`` and ``alpha`` checked here once.

    ``alpha*buyer + (1-alpha)*seller = alpha*W + (1-2*alpha)*S``; with
    ``alpha = r/s`` and the kernel's ``W = wn/(4*wd)``, ``S = sn/(4*sd)``,
    ``objective(n, m)`` returns it at ``e = n/m`` as the unreduced pair
    ``(r*wn*sd + (s-2*r)*sn*wd, 4*s*wd*sd)``.
    """
    parts = _sticky_kernel(delta, t)
    a = open_unit(alpha, WEIGHT)
    r, s = a.numerator, a.denominator
    s2r, s4 = s - 2 * r, 4 * s

    def objective(n, m):
        wn, wd, sn, sd = parts(n, m)
        return r * wn * sd + s2r * sn * wd, s4 * wd * sd

    return objective


def ternary_weighted_surplus_sticky(eps, delta, alpha, t: int) -> Fraction:
    """Exact weighted surplus on the ternary family, sticky regime:
    ``alpha*buyer + (1-alpha)*seller`` (see :func:`weighted_objective`)."""
    e = closed_unit(eps, "eps")
    return Fraction(*weighted_objective(delta, alpha, t)(e.numerator, e.denominator))


def optimal_eps_weighted_sticky(delta, alpha, t: int, tolerance=Fraction(1, 10**9)):
    """Mass maximizing the weighted sticky surplus.

    At ``t == 1`` this is :func:`optimal_eps_weighted`.  Otherwise it is
    exactly 0 for ``alpha >= 1/2``, and for ``alpha < 1/2`` the point that
    the grid scan and golden section of
    :func:`~historyvalue.design.unit_search` return on
    :func:`weighted_objective`, within ``tolerance`` of the argmax.

    Where ``(1 - 2*alpha)*d^t <= alpha*(1 - d)`` the surplus
    ``f = alpha*W + (1 - 2*alpha)*S`` is strictly decreasing on [0, 1]:

    - ``W' = -(1-d)/(4*(1-d*e)^2) <= -(1-d)/4``, strictly for ``e > 0``;
    - ``S = (d^t/4)*e*h(e^t)`` with ``h(u) = (1-u)/(1-d^t*u)``, and
      ``h' < 0``, so ``(e*h(e^t))' = h(u) + t*u*h'(u) <= h(0) = 1``;
    - so ``f' <= ((1-2*alpha)*d^t - alpha*(1-d))/4 <= 0``, strictly for
      ``e > 0``.

    The search's result depends on its objective only through strict
    comparisons and equality of values, so every strictly decreasing
    objective gives the same result as ``(-n, m)``: there the result is
    :func:`_falling`'s, one search on that objective per tolerance per
    process, and :func:`weighted_objective` is never evaluated.
    The test is exact, in
    integers: with ``d = p/q`` and ``alpha = r/s`` it is
    ``(s - 2*r)*p^t*q <= r*(q - p)*q^t``.  At ``t == 1`` it is the
    ``delta <= alpha/(1 - alpha)`` of :func:`optimal_eps_weighted`.

    Each search gets a bound on ``|f'|`` over [0, 1], which lets its golden
    section round one probe per step and never changes its result: 1 for
    ``(-n, m)``, and ``(t + 1)/(4*(1 - d))`` for :func:`weighted_objective`:

    - ``|W'| = (1-d)/(4*(1-d*e)^2) <= 1/(4*(1-d))``, as ``1 - d*e >= 1 - d``;
    - with ``D = d^t``, ``S' = (D/4)*(h(u) + t*u*h'(u))``, ``0 <= h(u) <= 1``
      and ``|h'(u)| = (1-D)/(1-D*u)^2 <= 1/(1-D)``, so ``|S'| <=
      (D/4)*(1 + t/(1-D)) <= (1 + t)/(4*(1-d))``, as ``D <= 1`` and
      ``1 - D >= 1 - d``;
    - so ``|f'| <= (alpha + (1 - 2*alpha)*(1 + t))/(4*(1-d)) <= (1 +
      t)/(4*(1-d))`` for ``0 < alpha < 1/2``.
    """
    MarketParams(delta, alpha, t)  # checks delta, alpha and t before any shortcut
    tol = positive(tolerance, "tolerance")
    if t == 1:
        return optimal_eps_weighted(delta, alpha)
    d, a = Fraction(delta), Fraction(alpha)
    if a >= Fraction(1, 2):
        return Fraction(0)
    p, q, r, s = d.numerator, d.denominator, a.numerator, a.denominator
    if (s - 2 * r) * p**t * q <= r * (q - p) * q**t:
        return _falling(tol)
    return unit_search(weighted_objective(d, a, t), tol, Fraction(t + 1, 4) / (1 - d))[0]


@functools.lru_cache
def _falling(tol: Fraction) -> Fraction:
    """The argmax that :func:`~historyvalue.design.unit_search` returns to
    ``tol`` on ``(-n, m)``, searched with slope bound 1.  The search reads
    values only through comparisons and equality, so every strictly
    decreasing objective gives this result, which depends on ``tol`` alone:
    the cache, keyed by ``tol``, is exact."""
    return unit_search(lambda n, m: (-n, m), tol, 1)[0]
