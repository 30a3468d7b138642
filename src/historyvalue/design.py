"""Ternary structures, belief splitting, equivalence, and optimal mixing.

A *ternary* structure induces beliefs only in {0, 1/2, 1}: it reveals
the state with probability ``1 - eps`` and says nothing with probability
``eps``, identically in both states.  Any structure can be *split* into
a ternary one that keeps the signal-only payoff unchanged while weakly
raising every agent's gain from history; this module builds that split,
verifies the dominance by exact computation, and locates the mixing
probabilities that maximize individual and discounted aggregate gains.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .beliefs import (
    InformationStructure,
    induced_belief_distribution,
    structure_from_integers,
)
from .errors import CapExceeded, NonFiniteEvaluation, ValidationError
# ternary_social_value lives in learning, next to social_value; design re-exports it.
from .learning import best_equilibrium_payoffs, ternary_social_value  # noqa: F401
from .learning import _payoff_form
from .rationals import best_approximation, format_decimal, format_rational
from .rationals import DISCOUNT, closed_unit, int_at_least, open_unit, positive, rational

LO_ID, MID_ID, HI_ID = "lo", "mid", "hi"

#: Cap on the structures in one :func:`corpus`.
CORPUS_CAP = 1000


def ternary_structure(eps) -> InformationStructure:
    """The ternary structure with uninformative mass ``eps``: signal ``hi``
    (``lo``) reveals the high (low) state with probability ``1 - eps``, and
    ``mid`` has probability ``eps`` in both states.  Zero-probability
    signals are left out."""
    e = closed_unit(eps, "eps")
    return _ternary(e.numerator, e.denominator)


def _ternary(n: int, m: int) -> InformationStructure:
    """:func:`ternary_structure` of ``n/m``, ``0 <= n <= m``, built in
    integers over ``m`` once ``n/m`` is reduced by its gcd: weights
    ``(m - n, 0)``, ``(n, n)`` and ``(0, m - n)``."""
    g = math.gcd(n, m)
    n, m = n // g, m // g
    rows = {HI_ID: (m - n, 0), MID_ID: (n, n), LO_ID: (0, m - n)}
    rows = {s: w for s, w in rows.items() if any(w)}
    return structure_from_integers(rows, m, rows.values())


def _split_mass(structure: InformationStructure) -> tuple:
    """The split's uninformative mass as ``(n, m)``, unreduced: ``sum
    min(w_high, w_low)`` over the structure's ``integer_likelihoods`` and
    their scale."""
    scale, weights = structure.integer_likelihoods
    return sum(min(wh, wl) for wh, wl in weights), scale


def split_to_ternary(structure: InformationStructure) -> InformationStructure:
    """Split interior beliefs onto {0, 1/2, 1}, preserving the signal-only payoff.

    Signal by signal, likelihood mass ``min(pH, pL)`` moves to the
    uninformative signal in both states and the residual to the
    conclusive signal on the majority side; the conditional mean of the
    post-split belief equals the original belief.  The residuals sum to
    ``1 - sum min(pH, pL)`` in each state, so the split is the ternary
    structure with uninformative mass ``sum min(pH, pL)``
    (:func:`_split_mass`), built in integers.
    """
    return _ternary(*_split_mass(structure))


# -- equivalence ---------------------------------------------------------------


class EquivalenceReport(namedtuple("EquivalenceReport", "equivalent condition single_a single_b "
                                                        "history_values_a history_values_b")):
    """Outcome of the one-sided-support equivalence test plus cross-check;
    ``condition`` is "identical", "low-side", "high-side", or "none"."""

    __slots__ = ()

    @property
    def values_match(self) -> bool:
        return (
            self.single_a == self.single_b
            and self.history_values_a == self.history_values_b
        )


def check_equivalence(
    a: InformationStructure, b: InformationStructure, horizon: int = 4
) -> EquivalenceReport:
    """Decide equivalence via the one-sided-support conditions.

    Two structures are equivalent when all interior beliefs of both sit
    on the same side of 1/2 (weakly) and the conclusive mass on the
    opposite side matches.  The condition is decided on the two induced
    distributions' integer forms: "identical" is their equality, an
    interior belief lies above 1/2 when ``w_high > w_low > 0``
    (:func:`_above`) and below it when ``0 < w_high < w_low``
    (:func:`_below`), and the conclusive masses are :func:`_mass_at`.  The
    verdict is cross-validated by comparing the signal-only payoff and
    per-agent history gains up to ``horizon``.
    """
    da = induced_belief_distribution(a)
    db = induced_belief_distribution(b)
    fa, fb = da.integer_form, db.integer_form
    condition = "none"
    if da == db:
        condition = "identical"
    elif not _above(fa[1] + fb[1]) and _mass_at(fa, 1) == _mass_at(fb, 1):
        condition = "low-side"
    elif not _below(fa[1] + fb[1]) and _mass_at(fa, 0) == _mass_at(fb, 0):
        condition = "high-side"

    pa = best_equilibrium_payoffs(a, horizon)
    pb = best_equilibrium_payoffs(b, horizon)
    return EquivalenceReport(
        equivalent=condition != "none",
        condition=condition,
        single_a=pa.single,
        single_b=pb.single,
        history_values_a=pa.history_value,
        history_values_b=pb.history_value,
    )


# -- closed forms for the ternary family ---------------------------------------


def ternary_value_i(eps, i: int) -> Fraction:
    """History gain of agent ``i`` under the ternary structure: (e - e^i)/4."""
    e = closed_unit(eps, "eps")
    return _ternary_gain(e.numerator, e.denominator, int_at_least(i, 1, "agent index"))


def _ternary_gain(n: int, m: int, i: int) -> Fraction:
    """Agent ``i``'s history gain ``(e - e^i)/4`` at ``e = n/m``, as one
    quotient of integers over ``4 m^i``."""
    return Fraction(n * m ** (i - 1) - n**i, 4 * m**i)


class AgentOptimum(namedtuple("AgentOptimum", "eps degenerate")):
    """Maximizing uninformative mass for one agent's history gain;
    ``degenerate`` for agent 1, who gains nothing from history at any eps."""

    __slots__ = ()


def optimal_eps_agent(i: int) -> AgentOptimum:
    """Uninformative mass maximizing agent ``i``'s history gain.

    The gain ``(e - e^i)/4`` is stationary where ``i * e^(i-1) = 1``,
    i.e. at ``(1/i)^(1/(i-1))``; for ``i = 1`` the gain is identically
    zero and the result is flagged degenerate.
    """
    if int_at_least(i, 1, "agent index") == 1:
        return AgentOptimum(eps=1.0, degenerate=True)
    return AgentOptimum(eps=(1.0 / i) ** (1.0 / (i - 1)), degenerate=False)


def optimal_eps_seller_sticky(delta, t: int) -> float:
    """Seller-optimal uninformative mass with price resets every ``t`` periods.

    Root of a quadratic in ``e^t``; reduces to the dynamic formula at t=1.
    Where ``4 * d^t`` is below the rounding of ``b^2`` (``d^t`` may even
    underflow to 0), the difference ``b - sqrt(b^2 - 4 d^t)`` is 0 and the
    root is its limit ``1/b`` to double precision.  From ``t = 2^60`` on,
    where ``b^2`` or ``t`` may overflow a float, it is 1.0: with ``2 <= b <=
    t + 1`` the result lies in ``[(t+1)^(-1/t), 1]``, above ``1 - 2^-54``.
    """
    d = float(open_unit(delta, DISCOUNT))
    if int_at_least(t, 1, "stickiness") >= 2**60:
        return 1.0
    dt = d**t
    b = t + 1 - (t - 1) * dt
    gap = b - math.sqrt(b * b - 4 * dt)
    root = gap / (2 * dt) if gap else 1 / b
    return root ** (1.0 / t)


def optimal_eps_social(delta) -> float:
    """Uninformative mass maximizing the aggregate gain, (1 - sqrt(1-d))/d:
    the dynamic seller's optimum, :func:`optimal_eps_seller_sticky` at
    ``t = 1``, whose limit where ``1 - d`` rounds to 1 is 1/2."""
    return optimal_eps_seller_sticky(delta, 1)


def max_social_value(delta) -> float:
    """Aggregate gain at the maximizing mass: (1 - sqrt(1-d))^2 / (4*d).
    Where ``1 - sqrt(1-d)`` rounds to 0 this is its limit ``d/16``."""
    d = float(open_unit(delta, DISCOUNT))
    gap = 1.0 - math.sqrt(1.0 - d)
    return gap**2 / (4.0 * d) if gap else d / 16


# -- numeric search ------------------------------------------------------------

_LIMIT = 10**40  # denominator cap for interior probe points
_GRID = 64  # coarse-scan intervals before golden-section refinement
_INVPHI = (Fraction(math.sqrt(5.0) - 1.0) / 2).as_integer_ratio()  # 1/phi as (num, den)


class SearchResult(namedtuple("SearchResult", "argmax value flat")):
    __slots__ = ()

    def __float__(self) -> float:
        return float(self.argmax)


_BITS = _LIMIT.bit_length()  # 2**-_BITS < 1/_LIMIT


def golden_section(f, tol: Fraction, lo: tuple, hi: tuple, slope=None) -> tuple:
    """Golden-section search in integers: ``(argmax, flat)`` on ``[lo, hi]``.

    ``f(n, m)`` returns the objective at ``n/m`` as an integer pair
    ``(num, den)`` with ``den > 0``; ``lo`` and ``hi`` are such pairs too.
    A bracket's probes ``c = lo + (1 - 1/phi)*(hi - lo)`` and ``d = lo +
    (hi - lo)/phi`` are formed as unreduced quotients over one denominator
    and rounded by :func:`~historyvalue.rationals.best_approximation` to a
    denominator of at most ``_LIMIT``; the search stops early when the cap
    leaves no ``lo < c < d < hi``.  The search keeps no state between
    calls.  Every comparison is cross-multiplied.  ``flat`` says that every
    probe gave the same value.

    ``slope``, when given, is a rational bound ``L`` on ``|f'|`` over
    ``[lo, hi]`` (``L = 0`` takes only exact steps).  Where the exact
    probes lie more than ``4/_LIMIT`` apart, a step then truncates both to
    ``_BITS`` binary digits.  Where the value test below can pass there,
    it evaluates ``f`` at both; if the two values differ by more than
    ``4*L/_LIMIT``, it decides from them and rounds only the probe it
    keeps.  Otherwise it takes the exact step.  The result is the same as
    without ``slope``: each rounded probe lies within ``1/(2*_LIMIT)`` of
    its exact point, so the gap keeps ``lo < c < d < hi``, and each
    truncated probe lies within ``2/_LIMIT`` of the rounded one, so the two
    differences of values differ by less than ``4*L/_LIMIT`` and have the
    same sign.  That step compares unequal values, so it clears ``flat`` as
    the exact step would.  The value test compares bit lengths, so it forms
    no product of the values: as ``x >= 2**(k-1)`` for an ``x`` of ``k``
    bits and ``y <= 2**bit_length(y - 1)``, it passes only where the values
    differ by at least ``2**-(margin+1) > 4*L/_LIMIT``.  Truncated probes
    ``dq - cq`` units of ``2**-_BITS`` apart give values at most ``L*(dq -
    cq)*2**-_BITS`` apart, so the test cannot pass unless ``dq - cq`` is at
    least ``least = ceil(2**(_BITS-margin-1)/L)``, and below that the step
    evaluates nothing before the exact step.
    """
    g, big = _INVPHI
    tn, td = tol.numerator, tol.denominator
    ln, ld = lo
    hn, hd = hi
    first = None
    flat = True
    least = None
    if slope:  # |diff|*_LIMIT*Ld > 4*Ln*ycd*ydd once |diff| has this many more bits
        margin = (_LIMIT * slope.denominator).bit_length() - (4 * slope.numerator).bit_length() - 2
        shift = _BITS - margin - 1
        least = -(-(slope.denominator << max(shift, 0)) // (slope.numerator << max(-shift, 0)))
    while (width := hn * ld - ln * hd) * td > tn * ld * hd:
        base, den = ln * hd * big, ld * hd * big
        c, d = base + (big - g) * width, base + g * width  # the exact probes, over den
        if least is not None and (2 * g - big) * width * _LIMIT > 4 * den:
            cq, dq = (c << _BITS) // den, (d << _BITS) // den
            if dq - cq >= least:
                yc, ycd = f(cq, 1 << _BITS)
                yd, ydd = f(dq, 1 << _BITS)
                diff = yc * ydd - yd * ycd
                bits = (ycd - 1).bit_length() + (ydd - 1).bit_length()
                if diff and diff.bit_length() + margin >= bits:
                    flat = False
                    if diff > 0:
                        hn, hd = best_approximation(d, den, _LIMIT)
                    else:
                        ln, ld = best_approximation(c, den, _LIMIT)
                    continue
        cn, cd = best_approximation(c, den, _LIMIT)
        dn, dd = best_approximation(d, den, _LIMIT)
        if not (ln * cd < cn * ld and cn * dd < dn * cd and dn * hd < hn * dd):
            break  # interval too narrow for the denominator cap
        (yc, ycd), (yd, ydd) = f(cn, cd), f(dn, dd)
        if first is None:
            first = yc, ycd
        flat = flat and yc * first[1] == first[0] * ycd and yd * first[1] == first[0] * ydd
        if yc * ydd > yd * ycd:
            hn, hd = dn, dd
        else:
            ln, ld = cn, cd
    return Fraction(ln * hd + hn * ld, 2 * ld * hd), flat


def unit_search(f, tolerance, slope=None) -> tuple:
    """``(argmax, flat)`` of the integer objective ``f`` (as for
    :func:`golden_section`) on [0, 1]: a scan of ``_GRID + 1`` points, then
    golden section between the best point's neighbours.  The first of
    equal best points wins, as with ``max``.  ``slope``, a bound on
    ``|f'|`` over [0, 1], lets the golden section round one probe per step
    where it can; it never changes the result.

    The result depends on ``f``'s values only through strict comparisons
    and equality, so a strictly increasing transform of ``f`` gives the
    same result, and every strictly decreasing ``f`` gives that of ``(-n,
    m)``, each searched with or without a bound on its own slope: for
    every strictly decreasing ``f`` the result depends on the tolerance
    alone."""
    values = [f(k, _GRID) for k in range(_GRID + 1)]
    best = 0
    for k, (n, m) in enumerate(values):
        if n * values[best][1] > values[best][0] * m:
            best = k
    lo = (max(best - 1, 0), _GRID)
    hi = (min(best + 1, _GRID), _GRID)
    argmax, flat = golden_section(f, positive(tolerance, "tolerance"), lo, hi, slope)
    n0, m0 = values[0]
    return argmax, flat and all(n * m0 == n0 * m for n, m in values)


def _finite(f, x):
    """``f(x)``, or :class:`NonFiniteEvaluation` for a NaN or infinite float."""
    y = f(x)
    if isinstance(y, float) and not math.isfinite(y):
        raise NonFiniteEvaluation(f"objective not finite at {float(x)}")
    return y


def _exact(f):
    """``f`` over rationals as an integer objective; a finite float converts
    exactly, so comparisons are those of the values themselves."""
    return lambda n, m: _finite(f, Fraction(n, m)).as_integer_ratio()


def maximize_concave(f, tolerance, lo=0, hi=1) -> SearchResult:
    """Golden-section search for the argmax of a unimodal ``f`` on [lo, hi].

    The search runs in integers (:func:`golden_section`) on the probe
    points that ``Fraction.limit_denominator(10**40)`` gives, so when ``f``
    returns exact values the bracket shrinks without any floating-point
    noise; the returned point is within ``tolerance`` of the true argmax
    for unimodal ``f``.  A bracket end that is not a rational (NaN,
    infinity, a bool, text that does not parse) and a reversed bracket,
    ``lo > hi``, raise :class:`ValidationError`.
    """
    lo = rational(lo, "bracket end lo")
    hi = rational(hi, "bracket end hi")
    tol = positive(tolerance, "tolerance")
    if lo > hi:
        raise ValidationError(f"bracket reversed: lo {lo} > hi {hi}")
    argmax, flat = golden_section(_exact(f), tol, lo.as_integer_ratio(), hi.as_integer_ratio())
    return SearchResult(argmax=argmax, value=_finite(f, argmax), flat=flat)


def argmax_unit_interval(f, tolerance) -> SearchResult:
    """Coarse grid scan followed by golden-section refinement on [0, 1]
    (:func:`unit_search` on ``f`` over rationals)."""
    argmax, flat = unit_search(_exact(f), tolerance)
    return SearchResult(argmax=argmax, value=_finite(f, argmax), flat=flat)


# -- dominance verification ----------------------------------------------------


class DominanceReport(namedtuple("DominanceReport", "split_mass base two_sided")):
    """Exact comparison of a structure against its ternary split.

    The record stores integers and the base's search: ``split_mass`` is the
    split's uninformative mass ``e = n/m`` as ``(n, m)``, ``base`` the
    structure's :class:`~historyvalue.learning.PayoffProfile`, and
    ``two_sided`` says that the structure has beliefs strictly on both sides
    of 1/2.  ``eps``, the signal-only payoffs ``single_base`` and
    ``single_split``, and the per-agent history gains ``base_values`` and
    ``split_values`` are read-only ``Fraction`` views, built on each read;
    the split's are the closed forms ``(1 - e)/4`` and ``(e - e^i)/4``.
    ``single_preserved``, ``dominates``, ``strict`` and ``verdict`` are
    decided in integers by :meth:`_decision` and build no ``Fraction``.
    """

    __slots__ = ()

    @property
    def eps(self) -> Fraction:
        return Fraction(*self.split_mass)

    @property
    def single_base(self) -> Fraction:
        return self.base.single

    @property
    def single_split(self) -> Fraction:
        n, m = self.split_mass
        return Fraction(m - n, 4 * m)

    @property
    def base_values(self) -> tuple:
        return self.base.history_value

    @property
    def split_values(self) -> tuple:
        n, m = self.split_mass
        return tuple(_ternary_gain(n, m, i) for i in range(1, self.base.horizon + 1))

    def _decision(self) -> tuple:
        """``(single_preserved, dominates, strict)``, in integers.

        With the base's signal-only payoff ``S / (4 D)``
        (:func:`~historyvalue.learning._payoff_form`, the sum that gives
        ``base.single``), the split's ``(m - n) / (4 m)`` exceeds it by
        ``lost / (4 m D)``, ``lost = (m - n) D - S m``: the split keeps the
        payoff exactly when ``lost == 0``.  With agent ``i``'s payoff with
        history ``p/q``, the split's gain ``(n m^(i-1) - n^i) / (4 m^i)``
        minus the base's ``p/q - S / (4 D)`` has the sign of

            gap_i = (n m^(i-1) - n^i) D q - (4 p D - S q) m^i
                  = ((m^i - n^i) D - lost m^(i-1)) q - 4 m^i p D,

        whether or not the payoff is kept; where it is, ``gap_i = D ((m^i -
        n^i) q - 4 m^i p)`` compares the split's payoff with history ``(1 -
        e^i)/4`` with the base's.  The powers are kept agent by agent.  The
        split dominates when it keeps the payoff and no gap is negative; it
        is strict when every gap from agent 2 on is positive.
        """
        n, m = self.split_mass
        total, scale = _payoff_form(self.base.signal)
        lost = (m - n) * scale - total * m
        gaps = []
        m_prev, n_i = 1, 1  # m^(i-1) and n^i
        for w in self.base.with_history:
            p, q = w.as_integer_ratio()
            m_i, n_i = m_prev * m, n_i * n
            gaps.append(((m_i - n_i) * scale - lost * m_prev) * q - 4 * m_i * p * scale)
            m_prev = m_i
        return not lost, not lost and all(g >= 0 for g in gaps), all(g > 0 for g in gaps[1:])

    @property
    def single_preserved(self) -> bool:
        return self._decision()[0]

    @property
    def dominates(self) -> bool:
        return self._decision()[1]

    @property
    def strict(self) -> bool:
        """Strict improvement for every agent i >= 2."""
        return self._decision()[2]

    @property
    def verdict(self) -> bool:
        _, dominates, strict = self._decision()
        return dominates and (strict or not self.two_sided)

    def to_json_dict(self) -> dict:
        return {
            "eps": format_rational(self.eps),
            "single_payoff": {
                "base": format_rational(self.single_base),
                "split": format_rational(self.single_split),
            },
            "history_values": [
                {
                    "i": i + 1,
                    "base": format_rational(b),
                    "split": format_rational(s),
                }
                for i, (b, s) in enumerate(zip(self.base_values, self.split_values))
            ],
            "two_sided": self.two_sided,
            "dominates": self.dominates,
            "strict": self.strict,
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        lines = ["i,hist_value_base,hist_value_split,hist_value_base_dec,hist_value_split_dec"]
        for i, (b, s) in enumerate(zip(self.base_values, self.split_values)):
            lines.append(
                f"{i + 1},{format_rational(b)},{format_rational(s)},"
                f"{format_decimal(b)},{format_decimal(s)}"
            )
        return "\n".join(lines) + "\n"


def verify_dominance(structure: InformationStructure, horizon: int) -> DominanceReport:
    """Compare ``structure`` with its split, agent by agent, exactly.

    Only ``structure`` is searched.  The split is the ternary structure of
    mass ``n/m`` (:func:`_split_mass`), whose values are closed forms in
    integers, equal to the engine's, so the report holds the base's
    profile and the split's ``(n, m)`` and builds no ``Fraction``: its
    verdict is decided in integers, and its views are built on read.
    """
    base = best_equilibrium_payoffs(structure, horizon)
    return DominanceReport(_split_mass(structure), base,
                           _two_sided(structure.integer_likelihoods[1]))


def _below(weights) -> bool:
    """Whether some integer ``(w_high, w_low)`` pair induces a belief
    ``w_high / (w_high + w_low)`` inside (0, 1/2): ``0 < w_high < w_low``."""
    return any(0 < wh < wl for wh, wl in weights)


def _above(weights) -> bool:
    """Whether some integer ``(w_high, w_low)`` pair induces a belief
    inside (1/2, 1): ``w_high > w_low > 0``."""
    return any(wh > wl > 0 for wh, wl in weights)


def _two_sided(weights) -> bool:
    """Whether the integer ``(w_high, w_low)`` pairs induce beliefs strictly
    inside (0, 1/2) and inside (1/2, 1)."""
    return _below(weights) and _above(weights)


def _mass_at(form, belief: int) -> Fraction:
    """The conclusive mass on ``belief``, 1 or 0, of the integer form ``(D,
    pairs)``: the sum of ``w_high`` over the pairs with ``w_low == 0``, or
    of ``w_low`` over those with ``w_high == 0``, over ``D``."""
    scale, pairs = form
    if belief:
        return Fraction(sum(wh for wh, wl in pairs if not wl), scale)
    return Fraction(sum(wl for wh, wl in pairs if not wh), scale)


# -- random corpus -------------------------------------------------------------


def random_structure(rng, max_signals: int = 4, max_denominator: int = 12) -> InformationStructure:
    """Random structure with small-denominator rational likelihoods, drawn
    by ``rng.randint``: ``rng`` is a :class:`random.Random`, left out of the
    annotations because ``random`` is imported only by :func:`corpus`.

    Each column cuts a random denominator ``den`` at ``k - 1`` random
    integer points; the pieces, rescaled to the lcm of the two columns'
    denominators, are the weights handed to
    :func:`~historyvalue.beliefs.structure_from_integers`."""
    int_at_least(max_signals, 1, "max_signals")
    int_at_least(max_denominator, 1, "max_denominator")
    k = rng.randint(1, max_signals)

    def column():
        den = rng.randint(1, max_denominator)
        cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
        bounds = [0] + cuts + [den]
        return den, [b - a for a, b in zip(bounds, bounds[1:])]

    den_h, high = column()
    den_l, low = column()
    scale = math.lcm(den_h, den_l)
    uh, ul = scale // den_h, scale // den_l
    return structure_from_integers(
        [f"s{j}" for j in range(k)], scale, [(h * uh, l * ul) for h, l in zip(high, low)]
    )


def corpus(seed: int, count: int, max_signals: int = 4, max_denominator: int = 12):
    """Deterministic list of random structures for dominance sweeps, at
    most ``CORPUS_CAP`` of them."""
    if int_at_least(count, 0, "corpus count") > CORPUS_CAP:
        raise CapExceeded(f"corpus count {count} exceeds cap {CORPUS_CAP}")
    int_at_least(max_signals, 1, "max_signals")
    int_at_least(max_denominator, 1, "max_denominator")
    import random  # here, not at module level: nothing else in the library draws

    rng = random.Random(seed)
    return [random_structure(rng, max_signals, max_denominator) for _ in range(count)]
