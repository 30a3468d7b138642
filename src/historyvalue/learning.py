"""Equilibrium play over the public-belief tree and payoff accounting.

Agents act in sequence.  Each sees the full action history (summarized
by a public likelihood pair), receives a private signal, and takes the
action that is myopically optimal for the combined posterior: action 1
when the posterior exceeds 1/2, action 0 below, with a tie-break rule at
exactly 1/2.  Because payoffs depend only on an agent's own action,
myopic play is a Bayes-Nash equilibrium; the only strategic freedom is
how ties are broken, which changes what successors can infer.

Computed quantities, all exact rationals:

* ``single_signal_payoff`` -- expected payoff from the private signal alone;
* ``full_observation_payoff`` -- benchmark payoff of an agent who sees
  ``i`` i.i.d. signals directly (an upper bound on equilibrium payoffs);
* ``simulate_equilibrium`` -- per-agent payoffs under a fixed tie rule,
  one of ``ACTION1``, ``ACTION0`` and ``FOLLOW_SIGNAL``;
* ``best_equilibrium_payoffs`` -- lexicographically best payoffs over
  all deterministic per-node tie-break tables, computed node by node
  and drawn from a process-wide memo of finished searches (see below);
* ``discounted_surpluses`` -- the one discounted series of the market for
  history: the seller's and the buyers' surplus when the price resets
  every ``t`` agents at the block leader's history gain, truncated with a
  certified tail, or in closed form (``ternary_sticky_surpluses``, on the
  integer kernel ``_sticky_kernel``) on the ternary family;
* ``social_value`` -- discounted aggregate of the per-agent history gains:
  under dynamic pricing the seller charges each agent their gain, so this
  is the seller's surplus at ``t = 1`` (``ternary_social_value`` likewise).

The tree is one recursion, :func:`_best`, over the public nodes, each
its reach in the two states reduced by their gcd.  At most one signal
ties at a node, tie-break tables are per node, and the lexicographic
order is kept by sums and positive scaling, so the best payoffs below a
node are the best, over the tied signal's allowed actions, of its
children's summed: no table is enumerated whole.  A fixed rule allows
one action, so the same recursion gives ``simulate_equilibrium``.  Each
call keeps its own table of finished states, dropped when it returns,
and raises :class:`TooManyIndifferenceNodes` past ``MAX_STATES`` of them.
A node where no signal ties and every signal takes one action is an
information cascade: history stops moving, its one child is the node
itself, and its payoffs are a closed form that is neither recursed
below nor stored.

``best_equilibrium_payoffs`` draws its results from :func:`_search`, a
``functools.lru_cache`` of finished searches: an entry is the finished
:class:`PayoffProfile` of one search at one horizon, keyed by the
induced :class:`~historyvalue.beliefs.BeliefDistribution` (all that the
search depends on: equal structures parsed separately, and structures
that differ only in their labels, share one entry) and the horizon.
The key's class defines its equality and hash on its integer form alone,
its weights as integers over their common denominator.  Every caller is
served the entry itself, so its derived values are computed once; its
``signal`` is the first caller's distribution, equal to each later
caller's but not the same object.  A call that raised stores nothing,
so only a call within ``MAX_STATES`` stores an entry, and a served
entry, which computes nothing, is not checked again.  An entry's fields
are immutable and its derived values deterministic, so callers on
several threads that fill one in at once write equal values.  The memo
keeps the ``SEARCH_MEMO_SIZE`` most recently used entries; it is shared
by the whole process and has no setting.

The tree itself is computed in integers.  With ``D`` the lcm of the
denominators of the signal's weights (the ``D`` of its integer form),
a node's children are integers over ``D`` in the node's own units: ties
are decided by exact integer equality, and equal public beliefs share one
state under their reduced integer ratio.  The root's vector is what
:class:`PayoffProfile` stores, agent ``i``'s payoff in integers over
``4 * D^i``; a ``Fraction`` is built only when one of the record's views
is read.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .beliefs import (
    BeliefDistribution,
    InformationStructure,
    iid_belief_distribution,
    iid_chain,
    induced_belief_distribution,
    uninformative_mass,
)
from .errors import (
    HorizonCapExceeded,
    InvariantViolation,
    TooManyIndifferenceNodes,
    ValidationError,
)
from .rationals import QUARTER, format_decimal, format_rational
from .rationals import DISCOUNT, closed_unit, int_at_least, open_unit, positive

#: Horizon cap of the tree engine: the fixed rules, the tie-break search
#: and the truncated series.
HORIZON_CAP = 12
#: Bound on the public-belief states one call of the tree engine stores.
MAX_STATES = 100_000
#: Signal distributions whose search ``best_equilibrium_payoffs`` keeps.
SEARCH_MEMO_SIZE = 64

# Fixed tie-break rules.
ACTION1 = "action1"
ACTION0 = "action0"
FOLLOW_SIGNAL = "follow-signal"

# The actions each rule allows a tied agent, indexed by whether its private
# belief is at least 1/2 (``w_high >= w_low``): one action for a fixed rule.
# Following the signal sends an exactly uninformative one to 1.
_RULES = {
    ACTION1: ((1,), (1,)),
    ACTION0: ((0,), (0,)),
    FOLLOW_SIGNAL: ((0,), (1,)),
}
# The search allows both.
_BOTH = ((1, 0), (1, 0))


class PayoffProfile(namedtuple("PayoffProfile", "signal integer_payoffs")):
    """Per-agent value accounting for one structure and horizon.

    The record stores the engine's integers: ``signal`` is the belief
    distribution of one private signal, and ``integer_payoffs[i-1]`` agent
    ``i``'s equilibrium payoff in integers over ``4 D^i``, ``D`` the scale
    of ``signal``'s integer form, as :func:`_payoffs` returns them.  The
    rest are ``Fraction`` views, each built on its first read and kept:
    ``with_history[i-1]`` the payoff, ``single`` the signal-only payoff,
    ``history_value[i-1]`` the gain from history, ``with_history - single``,
    and ``benchmark[i-1]`` the payoff from observing ``i`` signals directly.
    """

    @property
    def horizon(self) -> int:
        return len(self.integer_payoffs)

    @functools.cached_property
    def with_history(self) -> tuple:
        scale = self.signal.integer_form[0]
        return tuple(Fraction(v, 4 * scale**i) for i, v in enumerate(self.integer_payoffs, 1))

    @functools.cached_property
    def single(self) -> Fraction:
        return _expected_payoff(self.signal)

    @functools.cached_property
    def history_value(self) -> tuple:
        """Agent ``i``'s gain ``(v - S D^(i-1)) / (4 D^i)``, on the payoff
        ``v`` and the signal-only ``S / (4 D)`` of :func:`_payoff_form`."""
        total, scale = _payoff_form(self.signal)
        return tuple(Fraction(v - total * scale ** (i - 1), 4 * scale**i)
                     for i, v in enumerate(self.integer_payoffs, 1))

    @functools.cached_property
    def benchmark(self) -> tuple:
        """Agent ``i``'s benchmark composes one more i.i.d. signal onto agent
        ``i-1``'s: one :func:`~historyvalue.beliefs.iid_chain` of them."""
        return tuple(map(_expected_payoff, iid_chain(self.signal, self.horizon)))

    def to_csv(self) -> str:
        """Export: columns i, V_i, Vbar_i, hist_value_i (exact + decimal)."""
        lines = ["i,V_i,Vbar_i,hist_value_i,V_i_dec,Vbar_i_dec,hist_value_i_dec"]
        for i, (v, vb, h) in enumerate(zip(self.with_history, self.benchmark, self.history_value)):
            lines.append(
                f"{i + 1},{format_rational(v)},{format_rational(vb)},{format_rational(h)},"
                f"{format_decimal(v)},{format_decimal(vb)},{format_decimal(h)}"
            )
        return "\n".join(lines) + "\n"


def _payoff_form(dist) -> tuple:
    """``(S, D)``, the payoff ``S / (4 D)`` of acting on a belief drawn from
    ``dist``: each belief above 1/2 earns ``(b - 1/2) * (w_high + w_low) / 2
    = (w_high - w_low) / 4``, summed to ``S`` on the integer form over ``D``,
    where ``b > 1/2`` is ``w_high > w_low``."""
    scale, weights = dist.integer_form
    return sum(wh - wl for wh, wl in weights if wh > wl), scale


def _expected_payoff(dist) -> Fraction:
    """:func:`_payoff_form` as a ``Fraction``."""
    total, scale = _payoff_form(dist)
    return Fraction(total, 4 * scale)


def single_signal_payoff(structure: InformationStructure) -> Fraction:
    """Expected payoff of an agent acting on one private signal only.

    Equals the mass of beliefs strictly above 1/2 weighted by their edge
    over the cutoff; 1/4 for conclusive signals, 0 for uninformative ones.
    """
    return _expected_payoff(induced_belief_distribution(structure))


def full_observation_payoff(structure: InformationStructure, i: int) -> Fraction:
    """Payoff of an agent who directly observes ``i`` i.i.d. signals."""
    return _expected_payoff(iid_belief_distribution(structure, i))


def _check_horizon(horizon: int):
    int_at_least(horizon, 0, "horizon")
    if horizon > HORIZON_CAP:
        raise HorizonCapExceeded(f"horizon {horizon} exceeds cap {HORIZON_CAP}")


def _check_node(node, children, scale: int):
    """``children``, checked: the action-1 and action-0 children of the
    public node ``node = (a, b)`` sum to its reach times ``D``, in each
    state."""
    (h1, l1), (h0, l0) = children
    a, b = node
    if h1 + h0 != a * scale or l1 + l0 != b * scale:
        raise InvariantViolation("public-belief children do not sum to their node's reach")
    return children


def _best(a: int, b: int, r: int, game, states: dict) -> tuple:
    """``V(a, b, r)``: the lexicographically best payoffs of the next ``r``
    agents below the public node of reduced reach ``(a, b)``, entry ``i``
    in integers over ``4 * D^(i+1)``, in the node's own units.

    ``game`` is ``(weights, D, choices)``: the signal's integer form, its
    ``(w_high, w_low)`` pairs over ``D``, and the rule's actions, where
    ``choices[w_high >= w_low]`` are those a tied agent whose private belief
    is below 1/2 (index 0) or at least 1/2 (index 1) may take.  A signal
    reaches ``(ph, pl) = (a * w_high, b * w_low)``; entry 0 sums ``ph - pl``
    over ``ph > pl``.
    Each allowed action gives an action-1 and an action-0 child ``(ch,
    cl)``, ``g`` times the reduced node ``(ch / g, cl / g)``: the rest is
    the largest, over the actions, of the children's ``g * V(ch / g, cl /
    g, r - 1)`` summed.  ``states`` is the call's table of finished
    vectors; past ``MAX_STATES`` it raises :class:`TooManyIndifferenceNodes`.
    A cascade, a node with ``r > 1``, no tie and one side empty, has the
    one child ``(a * D, b * D)``, so ``V = (x, x * D, ..., x * D^(r-1))``
    with ``x = h1 - l1``: returned after the node check, and not stored.
    """
    key = a, b, r
    found = states.get(key)
    if found is not None:
        return found
    weights, scale, choices = game
    h1 = l1 = h0 = l0 = 0
    tied = th = tl = 0
    for wh, wl in weights:
        ph = a * wh
        pl = b * wl
        # The composed belief ph / (ph + pl) against 1/2, without dividing.
        if ph > pl:
            h1 += ph
            l1 += pl
        elif ph < pl:
            h0 += ph
            l0 += pl
        elif ph:  # ph = pl = 0: a signal the node never sees
            # at most one signal ties, as distinct signals have distinct
            # w_high / w_low; a second would drop the first's reach, which
            # the node check catches
            tied, th, tl = wh >= wl, ph, pl
    if r > 1 and not th and not (h1 and l0):
        # a cascade: one side is empty, so the one child is the node times D
        _check_node((a, b), ((h1, l1), (h0, l0)), scale)
        found = [h1 - l1]
        for _ in range(1, r):
            found.append(found[-1] * scale)
        return tuple(found)
    rest = ()
    if r > 1:
        for action in choices[tied] if th else (1,):
            sides = ((h1 + th, l1 + tl), (h0, l0)) if action else ((h1, l1), (h0 + th, l0 + tl))
            total = [0] * (r - 1)
            for ch, cl in _check_node((a, b), sides, scale):
                if ch or cl:
                    g = math.gcd(ch, cl)
                    for i, v in enumerate(_best(ch // g, cl // g, r - 1, game, states)):
                        total[i] += g * v
            rest = max(rest, tuple(total))
    if len(states) >= MAX_STATES:
        count = len(states) + 1
        raise TooManyIndifferenceNodes(
            f"{count} public-belief states exceed {MAX_STATES}", count=count
        )
    states[key] = found = (h1 - l1, *rest)
    return found


def _payoffs(signal: BeliefDistribution, horizon: int, choices) -> tuple:
    """The first ``horizon`` agents' payoffs, lexicographically best over the
    actions ``choices`` allows each tied agent (a value of ``_RULES``, or
    ``_BOTH``): :func:`_best` at the root on the signal's integer form, with
    a state table of its own that goes when the call returns.  Agent ``j +
    1``'s payoff is an integer over ``4 * D^(j+1)``, the form
    :class:`PayoffProfile` stores."""
    if not horizon:
        return ()
    scale, weights = signal.integer_form
    return _best(1, 1, horizon, (weights, scale, choices), {})


def simulate_equilibrium(structure: InformationStructure, horizon: int, rule=ACTION1) -> PayoffProfile:
    """Per-agent equilibrium payoffs under a fixed tie-break rule.

    Builds the public-belief tree forward, merging histories with equal
    public beliefs.  Every non-tie action is the strict best response by
    construction; ties are resolved by ``rule``, one of ``ACTION1``,
    ``ACTION0`` and ``FOLLOW_SIGNAL``: :func:`_payoffs` with one action at
    every tie, so no maximum is taken.
    """
    _check_horizon(horizon)
    # a dict rule is unhashable, so test the type before the membership
    if not (isinstance(rule, str) and rule in _RULES):
        raise ValidationError(f"unknown tie-break rule: {rule!r}")
    signal = induced_belief_distribution(structure)
    return PayoffProfile(signal, _payoffs(signal, horizon, _RULES[rule]))


@functools.lru_cache(maxsize=SEARCH_MEMO_SIZE)
def _search(signal: BeliefDistribution, horizon: int) -> PayoffProfile:
    """The process-wide memo of finished profiles: :func:`_payoffs` at
    ``horizon`` with both actions at every tie, as the
    :class:`PayoffProfile` of the first caller's ``signal``, whose derived
    values are then computed once for every caller."""
    return PayoffProfile(signal, _payoffs(signal, horizon, _BOTH))


def best_equilibrium_payoffs(structure: InformationStructure, horizon: int) -> PayoffProfile:
    """Lexicographically best per-agent payoffs over tie-break tables.

    The maximum is over every deterministic assignment of actions to
    reachable indifference points, in lexicographic order of the payoff
    vector (earlier agents first): :func:`_payoffs` with both actions
    allowed at every tie, node by node.

    The result is drawn from :func:`_search`, the process-wide memo that the
    module docstring describes.  ``MAX_STATES`` bounds the work of a call:
    a computed call raises past it and stores nothing, and a served call,
    which computes nothing, is not checked again.
    """
    _check_horizon(horizon)
    return _search(induced_belief_distribution(structure), horizon)


class BoundedValue(namedtuple("BoundedValue", "value error_bound")):
    """A value together with a certified absolute error bound (0 = exact)."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.error_bound == 0

    def __float__(self) -> float:
        return float(self.value)


def truncation_horizon(delta: Fraction, tolerance: Fraction) -> int:
    """Fewest agents ``N >= 1`` whose discounted tail bound ``d^N / 4`` is
    within ``tolerance`` (each per-agent gain lies in [0, 1/4]), up to
    ``HORIZON_CAP``, the cap of the search that sums them.  ``delta`` must
    lie in (0, 1) and ``tolerance`` above 0."""
    delta = open_unit(delta, DISCOUNT)
    tolerance = positive(tolerance, "tolerance")
    depth = 1
    while QUARTER * delta**depth > tolerance:
        depth += 1
        if depth > HORIZON_CAP:
            achievable = QUARTER * delta**HORIZON_CAP
            raise HorizonCapExceeded(
                f"tolerance {tolerance} is not reached within cap {HORIZON_CAP}; "
                f"the cap reaches tolerance {achievable}",
                achievable_tolerance=achievable,
            )
    return depth


def truncated_payoffs(structure: InformationStructure, delta: Fraction, tolerance: Fraction) -> tuple:
    """Best equilibrium payoffs of the first ``N = truncation_horizon(delta,
    tolerance)`` agents, and ``d^N / 4``, the tail of a series of terms in
    [0, 1/4], an exact ``Fraction``."""
    d = open_unit(delta, DISCOUNT)
    depth = truncation_horizon(d, tolerance)
    return best_equilibrium_payoffs(structure, depth), QUARTER * d**depth


def discounted(terms, delta: Fraction) -> Fraction:
    """``(1-d) * sum d^(i-1) * term_i``, the discounted average of ``terms``,
    for ``d`` in (0, 1)."""
    d = open_unit(delta, DISCOUNT)
    return (1 - d) * sum(d**i * x for i, x in enumerate(terms))


def _block_prices(gains, t: int) -> tuple:
    """Block ``k`` of ``t`` buyers is priced at buyer ``k*t + 1``'s gain."""
    return tuple(gains[(i // t) * t] for i in range(len(gains)))


def _sticky_kernel(delta, t: int):
    """Integer parts of the ternary sticky closed forms at ``delta`` and ``t``,
    both checked here once.

    Returns ``parts(n, m)``: with ``e = n/m`` (``0 <= n <= m``, ``m > 0``,
    not necessarily reduced) and ``d = p/q`` in lowest terms, it gives
    ``(wn, wd, sn, sd)`` with payoff-with-history ``W = wn / (4*wd)`` and
    seller surplus ``S = sn / (4*sd)``, where

        wd = q*m - p*n,         wn = wd - (q-p)*n,
        sd = m*(q^t*m^t - p^t*n^t),   sn = p^t * n * (m^t - n^t).

    ``0 <= n <= m`` and ``0 < p < q`` make both denominators positive.
    Callers build each Fraction once from these integers, which is exact
    and avoids a gcd per intermediate Fraction operation.
    """
    d = open_unit(delta, DISCOUNT)
    int_at_least(t, 1, "stickiness")
    p, q = d.numerator, d.denominator
    pt, qt, qp = p**t, q**t, q - p

    def parts(n, m):
        wd = q * m - p * n
        mt = m**t
        nt = n**t
        return wd - qp * n, wd, pt * n * (mt - nt), m * (qt * mt - pt * nt)

    return parts


def ternary_sticky_surpluses(eps, delta, t: int) -> tuple:
    """Closed-form sticky ``(seller, buyer)`` surplus for the ternary family,
    from one evaluation of :func:`_sticky_kernel`.

    Seller is ``(d^t / 4) * e * (1 - e^t) / (1 - d^t * e^t)``.  Buyer is
    the discounted average of payoff-with-history minus price, ``W - S``
    with ``W = 1/4 - (1-d)*e / (4*(1-d*e))``.
    """
    e = closed_unit(eps, "eps")
    wn, wd, sn, sd = _sticky_kernel(delta, t)(e.numerator, e.denominator)
    return Fraction(sn, 4 * sd), Fraction(wn * sd - sn * wd, 4 * wd * sd)


def ternary_social_value(eps, delta) -> Fraction:
    """Discounted aggregate history gain of the ternary structure with
    uninformative mass ``eps``, d*e*(1-e) / (4*(1-d*e)): the dynamic
    seller's surplus."""
    return ternary_sticky_surpluses(eps, delta, 1)[0]


def discounted_surpluses(structure: InformationStructure, delta, t: int, tolerance) -> tuple:
    """Discounted ``(seller, buyer)`` surplus when the price resets every
    ``t`` buyers, each a :class:`BoundedValue`; ``t = 1`` is dynamic pricing.

    Exact for ternary structures (:func:`ternary_sticky_surpluses`).
    Otherwise each series is truncated by :func:`truncated_payoffs`: the
    seller sums the block prices, and the buyers their rents, the
    payoff-with-history minus the price.  At ``t = 1`` the seller sums the
    history gains and each buyer keeps the signal-only payoff, exactly.
    """
    d = open_unit(delta, DISCOUNT)
    tolerance = positive(tolerance, "tolerance")
    int_at_least(t, 1, "stickiness")
    eps = uninformative_mass(structure)
    if eps is not None:
        return tuple(BoundedValue(v, Fraction(0)) for v in ternary_sticky_surpluses(eps, d, t))

    profile, tail = truncated_payoffs(structure, d, tolerance)
    prices = _block_prices(profile.history_value, t)
    seller = BoundedValue(discounted(prices, d), tail)
    if t == 1:
        return seller, BoundedValue(profile.single, Fraction(0))
    rents = (v - p for v, p in zip(profile.with_history, prices))
    return seller, BoundedValue(discounted(rents, d), tail)


def social_value(structure: InformationStructure, delta: Fraction, tolerance) -> BoundedValue:
    """Discounted aggregate history gain, ``(1-d) * sum d^(i-1) * gain_i``:
    the dynamic seller's surplus, ``discounted_surpluses`` at ``t = 1``.

    Structures whose beliefs live on {0, 1/2, 1} admit an exact closed
    form, :func:`ternary_social_value`, and return error bound 0.  Otherwise
    the series is truncated by :func:`truncated_payoffs`.
    """
    return discounted_surpluses(structure, delta, 1, tolerance)[0]
