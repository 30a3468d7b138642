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
  all deterministic per-node tie-break tables;
* ``social_value`` -- discounted aggregate of the per-agent history gains,
  in closed form (``ternary_social_value``) on the ternary family.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .beliefs import (
    IID_CAP,
    BeliefDistribution,
    InformationStructure,
    compose_distributions,
    iid_belief_distribution,
    induced_belief_distribution,
    uninformative_mass,
)
from .errors import (
    CapExceeded,
    HorizonCapExceeded,
    InvariantViolation,
    TooManyIndifferenceNodes,
    ValidationError,
)
from .rationals import HALF, QUARTER, format_decimal, format_rational
from .rationals import DISCOUNT, closed_unit, int_at_least, open_unit, positive

#: Horizon cap for fixed-rule simulation.
HORIZON_CAP = 12
#: Horizon cap for the lexicographic tie-break search.
LEX_CAP = 8
#: Bound on tie-break assignments tried at one depth of that search.
MAX_TIE_PROFILES = 20000

# Fixed tie-break rules.
ACTION1 = "action1"
ACTION0 = "action0"
FOLLOW_SIGNAL = "follow-signal"

# Each rule's action at a tie, given the tied agent's private belief.
# Following the signal sends an exactly uninformative one to action 1.
_RULES = {
    ACTION1: lambda private: 1,
    ACTION0: lambda private: 0,
    FOLLOW_SIGNAL: lambda private: 1 if private >= HALF else 0,
}


@dataclass(frozen=True)
class PayoffProfile:
    """Per-agent value accounting for one structure and horizon.

    ``signal`` is the belief distribution of one private signal and
    ``with_history[i-1]`` the equilibrium payoff of agent ``i``; the rest
    is derived.  ``single`` is the signal-only payoff,
    ``history_value[i-1]`` the gain from history, ``with_history - single``,
    and ``benchmark[i-1]`` the payoff from observing ``i`` signals
    directly, composed the first time it is read.
    """

    signal: BeliefDistribution
    with_history: tuple

    @property
    def horizon(self) -> int:
        return len(self.with_history)

    @functools.cached_property
    def single(self) -> Fraction:
        return _expected_payoff(self.signal)

    @functools.cached_property
    def history_value(self) -> tuple:
        return tuple(v - self.single for v in self.with_history)

    @functools.cached_property
    def benchmark(self) -> tuple:
        """Agent ``i``'s benchmark composes one more i.i.d. signal onto agent
        ``i-1``'s, as :func:`iid_belief_distribution` does."""
        if self.horizon > IID_CAP:
            raise CapExceeded(f"{self.horizon} i.i.d. draws exceeds cap {IID_CAP}")
        draws = itertools.repeat(self.signal, self.horizon)
        dists = itertools.accumulate(draws, compose_distributions)
        return tuple(map(_expected_payoff, dists))

    def to_csv(self) -> str:
        """Export: columns i, V_i, Vbar_i, hist_value_i (exact + decimal)."""
        lines = ["i,V_i,Vbar_i,hist_value_i,V_i_dec,Vbar_i_dec,hist_value_i_dec"]
        for i, (v, vb, h) in enumerate(zip(self.with_history, self.benchmark, self.history_value)):
            lines.append(
                f"{i + 1},{format_rational(v)},{format_rational(vb)},{format_rational(h)},"
                f"{format_decimal(v)},{format_decimal(vb)},{format_decimal(h)}"
            )
        return "\n".join(lines) + "\n"


def _expected_payoff(dist) -> Fraction:
    """Payoff of acting on a belief drawn from ``dist``: each belief above
    1/2 earns ``(b - 1/2) * (w_high + w_low) / 2 = (w_high - w_low) / 4``."""
    return sum(((wh - wl) / 4 for b, wh, wl in dist.atoms if b > HALF), Fraction(0))


def single_signal_payoff(structure: InformationStructure) -> Fraction:
    """Expected payoff of an agent acting on one private signal only.

    Equals the mass of beliefs strictly above 1/2 weighted by their edge
    over the cutoff; 1/4 for conclusive signals, 0 for uninformative ones.
    """
    return _expected_payoff(induced_belief_distribution(structure))


def full_observation_payoff(structure: InformationStructure, i: int) -> Fraction:
    """Payoff of an agent who directly observes ``i`` i.i.d. signals."""
    return _expected_payoff(iid_belief_distribution(structure, i))


def _advance(level, atoms):
    """Play one generation up to its ties.

    ``level`` is a sorted tuple of ``(public, like_high, like_low)``: each
    public belief with its probability of being reached in each state of
    the world.  Returns the agent's ex-ante payoff and, per public node,
    ``(like_high, like_low, strict1, strict0, ties)``: the summed
    ``(w_high, w_low)`` of the signals that strictly prefer action 1 and
    action 0, and the tied signals' ``(private, w_high, w_low)``.
    """
    payoff = Fraction(0)
    nodes = []
    for _, lh, ll in level:
        h1 = l1 = h0 = l0 = Fraction(0)
        ties = []
        for private, wh, wl in atoms:
            ph = lh * wh
            pl = ll * wl
            if ph == 0 and pl == 0:
                continue
            # The composed belief ph / (ph + pl) against 1/2, without dividing.
            if ph > pl:
                payoff += (ph - pl) / 4
                h1 += wh
                l1 += wl
            elif ph < pl:
                h0 += wh
                l0 += wl
            else:
                # a tie earns (ph - pl) / 4 = 0 whichever action is chosen
                ties.append((private, wh, wl))
        nodes.append((lh, ll, (h1, l1), (h0, l0), ties))
    return payoff, nodes


def _children(nodes, actions):
    """The next level when the ties of ``nodes``, taken node by node in
    order, choose ``actions``; equal public beliefs merge."""
    actions = iter(actions)
    nxt = {}
    for lh, ll, strict1, strict0, ties in nodes:
        sums = {1: list(strict1), 0: list(strict0)}
        for _, wh, wl in ties:
            side = sums[next(actions)]
            side[0] += wh
            side[1] += wl
        for wh, wl in sums.values():
            ch = lh * wh
            cl = ll * wl
            if ch == 0 and cl == 0:
                continue
            node = nxt.setdefault(ch / (ch + cl), [Fraction(0), Fraction(0)])
            node[0] += ch
            node[1] += cl
    return tuple(sorted((q, ch, cl) for q, (ch, cl) in nxt.items()))


def _check_level(level):
    """Tree consistency: reach probabilities sum to one in each state."""
    if sum(lh for _, lh, _ in level) != 1 or sum(ll for _, _, ll in level) != 1:
        raise InvariantViolation("public-belief level reach probabilities do not sum to one")


def _check_horizon(horizon: int, limit: int, limit_name: str):
    int_at_least(horizon, 0, "horizon")
    if horizon > limit:
        raise HorizonCapExceeded(f"horizon {horizon} exceeds {limit_name} {limit}")


_ROOT = ((HALF, Fraction(1), Fraction(1)),)


def simulate_equilibrium(structure: InformationStructure, horizon: int, rule=ACTION1) -> PayoffProfile:
    """Per-agent equilibrium payoffs under a fixed tie-break rule.

    Builds the public-belief tree forward, merging histories with equal
    public beliefs.  Every non-tie action is the strict best response by
    construction; ties are resolved by ``rule``, one of ``ACTION1``,
    ``ACTION0`` and ``FOLLOW_SIGNAL``.
    """
    _check_horizon(horizon, HORIZON_CAP, "cap")
    # a dict rule is unhashable, so test the type before the membership
    if not (isinstance(rule, str) and rule in _RULES):
        raise ValidationError(f"unknown tie-break rule: {rule!r}")
    act = _RULES[rule]
    signal = induced_belief_distribution(structure)
    level = _ROOT
    values = []
    for _ in range(horizon):
        _check_level(level)
        payoff, nodes = _advance(level, signal.atoms)
        level = _children(nodes, (act(x) for *_, ties in nodes for x, _, _ in ties))
        values.append(payoff)
    return PayoffProfile(signal, tuple(values))


def best_equilibrium_payoffs(structure: InformationStructure, horizon: int) -> PayoffProfile:
    """Lexicographically best per-agent payoffs over tie-break tables.

    The maximum is over every deterministic assignment of actions to
    reachable indifference points, in lexicographic order of the payoff
    vector (earlier agents first).  At a tie the agent's payoff term
    ``(ph - pl)/4`` is zero, so agent ``d``'s payoff depends only on the
    public level that the tie-breaks before depth ``d`` produced, never
    on its own.  The lexicographic maximum is therefore a running
    maximum over prefixes: at each depth only the levels whose agent
    reaches the best payoff are kept, equal levels are merged, and only
    the kept levels are expanded over their tie-break assignments.

    ``MAX_TIE_PROFILES`` bounds the assignments tried at one depth, summed
    over the kept levels; past it :class:`TooManyIndifferenceNodes`
    carries that sum as ``count``.
    """
    _check_horizon(horizon, LEX_CAP, "lexicographic cap")
    signal = induced_belief_distribution(structure)
    frontier = {_ROOT}
    values = []
    for depth in range(horizon):
        passes = []
        for level in frontier:
            _check_level(level)
            passes.append(_advance(level, signal.atoms))
        best = max(payoff for payoff, _ in passes)
        values.append(best)
        if depth == horizon - 1:
            break
        kept = [(nodes, sum(len(ties) for *_, ties in nodes))
                for payoff, nodes in passes if payoff == best]
        count = sum(2**n for _, n in kept)
        if count > MAX_TIE_PROFILES:
            raise TooManyIndifferenceNodes(
                f"{count} tie-break assignments at depth {depth} exceed {MAX_TIE_PROFILES}",
                count=count,
            )
        frontier = {
            _children(nodes, actions)
            for nodes, n in kept
            for actions in itertools.product((1, 0), repeat=n)
        }
    return PayoffProfile(signal, tuple(values))


@dataclass(frozen=True)
class BoundedValue:
    """A value together with a certified absolute error bound (0 = exact)."""

    value: Fraction
    error_bound: Fraction

    @property
    def exact(self) -> bool:
        return self.error_bound == 0

    def __float__(self) -> float:
        return float(self.value)


def truncation_horizon(delta: Fraction, tolerance: Fraction) -> int:
    """Fewest agents ``N >= 1`` whose discounted tail bound ``d^N / 4`` is
    within ``tolerance`` (each per-agent gain lies in [0, 1/4]), up to
    ``LEX_CAP``."""
    depth = 1
    while QUARTER * delta**depth > tolerance:
        depth += 1
        if depth > LEX_CAP:
            achievable = QUARTER * delta**LEX_CAP
            raise HorizonCapExceeded(
                f"tolerance {tolerance} is not reached within cap {LEX_CAP}; "
                f"the cap reaches tolerance {achievable}",
                achievable_tolerance=achievable,
            )
    return depth


def ternary_social_value(eps, delta) -> Fraction:
    """Discounted aggregate history gain of the ternary structure with
    uninformative mass ``eps``: d*e*(1-e) / (4*(1-d*e))."""
    e = closed_unit(eps, "eps")
    d = open_unit(delta, DISCOUNT)
    return d * e * (1 - e) / (4 * (1 - d * e))


def social_value(structure: InformationStructure, delta: Fraction, tolerance) -> BoundedValue:
    """Discounted aggregate history gain, ``(1-d) * sum d^(i-1) * gain_i``.

    Structures whose beliefs live on {0, 1/2, 1} admit an exact closed
    form, :func:`ternary_social_value`, and return error bound 0.  Otherwise
    the series is truncated at a depth whose tail bound ``d^N / 4`` (each
    per-agent gain lies in [0, 1/4]) is below ``tolerance``.
    """
    delta = open_unit(delta, DISCOUNT)
    tolerance = positive(tolerance, "tolerance")

    eps = uninformative_mass(structure)
    if eps is not None:
        return BoundedValue(ternary_social_value(eps, delta), Fraction(0))

    depth = truncation_horizon(delta, tolerance)
    profile = best_equilibrium_payoffs(structure, depth)
    partial = (1 - delta) * sum(
        delta**i * g for i, g in enumerate(profile.history_value)
    )
    return BoundedValue(partial, QUARTER * delta**depth)
