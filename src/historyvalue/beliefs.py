"""Exact-rational information structures and Bayesian updating.

The world has two states, low and high, with a uniform prior.  An
information structure is a finite signal alphabet together with the
likelihood of each signal in each state.  Beliefs are probabilities of
the high state.  The records store integers over a common scale; their
``Fraction`` fields are read-only views, built on each read.

Every operation here is pure and introduces no rounding.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .errors import (
    CapExceeded,
    ContradictoryConclusiveBeliefs,
    EmptyAlphabet,
    NegativeLikelihood,
    NonStochastic,
    ParseError,
    ValidationError,
    ZeroProbabilitySignal,
)
from .rationals import format_rational, parse_rational
from .rationals import closed_unit, int_at_least, rational

#: Cap on the number of composed i.i.d. draws.
IID_CAP = 16


def as_belief(value) -> Fraction:
    """Validate and return a belief (probability of the high state)."""
    return closed_unit(value, "belief")


class InformationStructure(namedtuple("InformationStructure", "signals integer_likelihoods")):
    """Finite signal alphabet with per-state exact likelihoods.

    ``integer_likelihoods`` is ``(D, ((w_high, w_low), ...))``: signal
    ``signals[k]`` has probability ``w_high / D`` in the high state and
    ``w_low / D`` in the low one, over ``D`` the lcm of the denominators.
    Each column sums to ``D``; ``like_high`` and ``like_low`` are its
    ``Fraction`` views.  Construct via :func:`structure_from_integers`, or
    via :func:`validate_structure` from a table of rationals.
    """

    @property
    def like_high(self) -> tuple:
        scale, weights = self.integer_likelihoods
        return tuple(Fraction(wh, scale) for wh, _ in weights)

    @property
    def like_low(self) -> tuple:
        scale, weights = self.integer_likelihoods
        return tuple(Fraction(wl, scale) for _, wl in weights)

    def likelihoods(self, signal):
        try:
            k = self.signals.index(signal)
        except ValueError:
            raise ValidationError(f"unknown signal: {signal!r}") from None
        return self.like_high[k], self.like_low[k]

    def items(self):
        return zip(self.signals, self.like_high, self.like_low)

    @functools.cached_property
    def belief_distribution(self) -> "BeliefDistribution":
        """The induced distribution of the posterior, computed once per
        structure: see :func:`induced_belief_distribution`."""
        return _merged_distribution(*self.integer_likelihoods)


def structure_from_integers(signals, scale: int, weights) -> InformationStructure:
    """The structure whose signal ``signals[k]`` has likelihoods
    ``weights[k][0] / scale`` (high) and ``weights[k][1] / scale`` (low).

    Raises ``EmptyAlphabet`` for no signals, ``NegativeLikelihood`` for a
    negative weight and ``NonStochastic`` unless both weight columns sum to
    ``scale``; a ``scale`` below 1, an entry that is not a pair, a weight
    that is not an ``int`` and a count of weight pairs other than that of
    signals are a ``ValidationError``.  ``scale`` and the weights are
    divided by their gcd, which gives the canonical ``integer_likelihoods``:
    the weights over the lcm of the likelihoods' denominators.
    """
    signals, weights = tuple(signals), tuple(weights)
    if not signals:
        raise EmptyAlphabet("at least one signal is required")
    if len(weights) != len(signals):
        raise ValidationError(f"{len(signals)} signals but {len(weights)} weight pairs")
    int_at_least(scale, 1, "scale")
    high = low = 0
    for s, pair in zip(signals, weights):
        # each message, the signal's label included, is built only to raise
        try:
            wh, wl = pair
        except (TypeError, ValueError):
            raise ValidationError(f"signal {s!r} needs a (w_high, w_low) pair") from None
        if type(wh) is not int or type(wl) is not int:  # nor a bool nor a Fraction
            raise ValidationError(f"signal {s!r} weights are not integers: {wh!r}, {wl!r}")
        if wh < 0 or wl < 0:
            raise NegativeLikelihood(f"signal {s!r} has a negative likelihood")
        high += wh
        low += wl
    if high != scale or low != scale:
        raise NonStochastic(
            f"columns sum to {Fraction(high, scale)} (high) and {Fraction(low, scale)} (low), "
            "expected 1"
        )
    g = math.gcd(scale, *itertools.chain.from_iterable(weights))
    return InformationStructure(
        signals, (scale // g, tuple((wh // g, wl // g) for wh, wl in weights))
    )


def validate_structure(table) -> InformationStructure:
    """Check a raw ``{signal: (p_high, p_low)}`` table and canonicalize it.

    Raises ``EmptyAlphabet``, ``NegativeLikelihood`` or ``NonStochastic``
    when the table is not a valid pair of probability columns, and a
    ``ValidationError`` when an entry is not a pair of rationals.  The
    structure is built by :func:`structure_from_integers` from the
    likelihoods as integers over the lcm of their denominators.
    """
    signals = tuple(_mapping(table or {}, "a structure", "{signal: (p_high, p_low)}"))
    pairs = []
    for s in signals:
        try:
            ph, pl = table[s]
        except (TypeError, ValueError):
            raise ValidationError(f"signal {s!r} needs a (p_high, p_low) pair") from None
        ph, pl = (rational(p, f"signal {s!r} likelihood") for p in (ph, pl))
        # checked as each entry is read, so a negative entry is named before a
        # later entry that does not parse
        if ph < 0 or pl < 0:
            raise NegativeLikelihood(f"signal {s!r} has a negative likelihood")
        pairs.append((ph, pl))
    return structure_from_integers(signals, *integer_weights(pairs))


def posterior(prior, signal, structure: InformationStructure) -> Fraction:
    """Bayes update of ``prior`` on observing ``signal`` under ``structure``."""
    p = as_belief(prior)
    ph, pl = structure.likelihoods(signal)
    num = p * ph
    den = num + (1 - p) * pl
    if den == 0:
        raise ZeroProbabilitySignal(f"signal {signal!r} has probability zero under prior {p}")
    return num / den


def compose_beliefs(a, b) -> Fraction:
    """Combine two independent beliefs about the same state.

    Returns ``ab / (ab + (1-a)(1-b))``; a belief of exactly 1/2 acts as
    the identity.  Combining certainty in opposite states is undefined.
    """
    y, z = as_belief(a), as_belief(b)
    num = y * z
    den = num + (1 - y) * (1 - z)
    if den == 0:
        raise ContradictoryConclusiveBeliefs(f"cannot combine beliefs {y} and {z}")
    return num / den


class BeliefDistribution(namedtuple("BeliefDistribution", "integer_form")):
    """Distribution of a posterior belief, with per-state signal weights.

    ``integer_form`` is ``(D, ((w_high, w_low), ...))``, one pair per atom
    in increasing order of its belief ``w_high / (w_high + w_low)``
    (uniform prior): the atom's probabilities in each state as integers
    over ``D``, the lcm of their denominators.  ``atoms`` is its view as
    ``(belief, weight_high, weight_low)`` ``Fraction``s.  The form is
    canonical, so equality and the hash read it alone, and a distribution
    never equals a plain tuple.  Construct via :meth:`from_weights`.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, BeliefDistribution) and self.integer_form == other.integer_form

    def __ne__(self, other):  # tuple's own != would find ``(form,)`` equal
        return not self == other

    def __hash__(self):
        return hash(self.integer_form)

    @property
    def atoms(self) -> tuple:
        scale, pairs = self.integer_form
        return tuple((Fraction(wh, wh + wl), Fraction(wh, scale), Fraction(wl, scale))
                     for wh, wl in pairs)

    @classmethod
    def from_weights(cls, weights) -> "BeliefDistribution":
        """Build from ``{belief: (w_high, w_low)}`` with rational weights >= 0,
        dropping null atoms and summing the weights of keys that name one
        belief (``"1/2"`` and ``"0.5"``); anything else is a
        :class:`ValidationError`."""
        sums = {}
        for belief, pair in _mapping(weights, "a distribution", "{belief: (w_high, w_low)}").items():
            wh, wl = (rational(w, f"atom {belief} weight") for w in _pair(pair, f"atom {belief}"))
            if wh == 0 and wl == 0:
                continue
            belief = rational(belief, "atom belief")
            if wh < 0 or wl < 0:
                raise ValidationError(f"atom {belief} has a negative weight ({wh}, {wl})")
            if belief * (wh + wl) != wh:  # belief = wh / (wh + wl), even if wh + wl = 0
                raise ValidationError(f"atom {belief} inconsistent with weights ({wh}, {wl})")
            old_h, old_l = sums.get(belief, (0, 0))
            sums[belief] = (old_h + wh, old_l + wl)
        scale, pairs = form = integer_weights(pair for _, pair in sorted(sums.items()))
        _check_columns(scale, *_column_sums(pairs))
        return cls(form)

    def beliefs(self):
        return tuple(a[0] for a in self.atoms)

    def unconditional(self, belief) -> Fraction:
        """Probability of the atom at ``belief`` under the uniform prior, 0
        where there is none; ``belief`` is read by :func:`as_belief`."""
        belief = as_belief(belief)
        for b, wh, wl in self.atoms:
            if b == belief:
                return (wh + wl) / 2
        return Fraction(0)

    def mean(self) -> Fraction:
        """Unconditional expected belief; always 1/2 by Bayes plausibility."""
        return sum(((wh + wl) / 2) * b for b, wh, wl in self.atoms)


def _mapping(table, name: str, form: str):
    """``table`` if it is a mapping, else :class:`ValidationError`."""
    if not isinstance(table, Mapping):
        raise ValidationError(f"{name} needs a {form} mapping, not {type(table).__name__}")
    return table


def _pair(pair, name: str) -> tuple:
    """``pair`` as ``(w_high, w_low)``, else :class:`ValidationError`."""
    try:
        wh, wl = pair
    except (TypeError, ValueError):
        raise ValidationError(f"{name} needs a (w_high, w_low) pair") from None
    return wh, wl


def integer_weights(pairs) -> tuple:
    """``(D, ((D * w_high, D * w_low), ...))``: the rational pairs as
    integers over ``D``, the lcm of their denominators."""
    pairs = tuple(pairs)
    scale = math.lcm(*(w.denominator for pair in pairs for w in pair))
    return scale, tuple(
        tuple(w.numerator * (scale // w.denominator) for w in pair) for pair in pairs
    )


def _column_sums(pairs) -> tuple:
    """The sums of the ``w_high`` and of the ``w_low`` column of ``pairs``."""
    return sum(wh for wh, _ in pairs), sum(wl for _, wl in pairs)


def _check_columns(scale: int, high: int, low: int):
    """Raise :class:`ValidationError` unless both column sums ``high`` and
    ``low`` of integer pairs are ``scale``, that is the weights sum to one."""
    if high != scale or low != scale:
        raise ValidationError("belief-distribution weights do not sum to one")


def merge_beliefs(pairs) -> dict:
    """``{(h, l): (w_high, w_low)}`` from integer ``(w_high, w_low)`` pairs:
    the pairs that give the same belief ``w_high / (w_high + w_low)``, that
    is the same reduced pair ``(h, l)``, are summed, and null pairs,
    reached in neither state, are dropped."""
    merged = {}
    for wh, wl in pairs:
        if wh or wl:
            g = math.gcd(wh, wl)
            key = (wh // g, wl // g)
            h, l = merged.get(key, (0, 0))
            merged[key] = (h + wh, l + wl)
    return merged


def _merged_distribution(scale: int, pairs) -> BeliefDistribution:
    """The distribution of ``(w_high, w_low)`` pairs, integers ``>= 0`` over
    ``scale``, with equal beliefs merged.

    Built in integers: both merged columns must sum to ``scale`` (else
    :class:`ValidationError`), and dividing them and ``scale`` by their gcd
    gives the canonical integer form, in the order of :func:`_by_belief`.
    """
    merged = merge_beliefs(pairs)
    # one flat copy of the merged weights, each w_high at an even place,
    # gives both column sums and the gcd
    flat = list(itertools.chain.from_iterable(merged.values()))
    _check_columns(scale, sum(flat[::2]), sum(flat[1::2]))
    g = math.gcd(scale, *flat)
    return BeliefDistribution(
        (scale // g, tuple((wh // g, wl // g) for wh, wl in _by_belief(merged)))
    )


def _by_belief(merged: dict) -> list:
    """:func:`merge_beliefs`'s values in increasing order of their beliefs
    ``h / (h + l)``.  Distinct reduced beliefs over at most ``N`` differ by
    at least ``1/N**2``, so with ``2**B > N**2`` the key ``h * 2**B // (h +
    l)`` orders them exactly."""
    bits = 2 * max(h + l for h, l in merged).bit_length()
    return [pair for _, pair in sorted(((h << bits) // (h + l), pair)
                                       for (h, l), pair in merged.items())]


def induced_belief_distribution(structure: InformationStructure) -> BeliefDistribution:
    """Distribution of the posterior after one signal, uniform prior.

    Signals inducing the same posterior are merged into a single atom;
    the signal labels carry no further payoff-relevant content.  Each
    structure computes it once and keeps it.
    """
    return structure.belief_distribution


def compose_distributions(a: BeliefDistribution, b: BeliefDistribution) -> BeliefDistribution:
    """Distribution of the combined belief from two independent draws; jointly
    impossible pairs (conclusive-low with conclusive-high) drop out."""
    da, wa = a.integer_form
    db, wb = b.integer_form
    return _merged_distribution(
        da * db, ((wha * whb, wla * wlb) for wha, wla in wa for whb, wlb in wb)
    )


def iid_chain(base: BeliefDistribution, n: int):
    """The distributions of the belief combined from 1, 2, ..., ``n``
    i.i.d. draws of ``base``, each composed onto the one before."""
    if n > IID_CAP:
        raise CapExceeded(f"{n} i.i.d. draws exceeds cap {IID_CAP}")
    return itertools.accumulate(itertools.repeat(base, n), compose_distributions)


def iid_belief_distribution(structure: InformationStructure, n: int) -> BeliefDistribution:
    """Exact distribution of the belief combined from ``n`` i.i.d. signals."""
    int_at_least(n, 1, "draw count")
    return tuple(iid_chain(induced_belief_distribution(structure), n))[-1]


def uninformative_mass(structure: InformationStructure):
    """The probability of the belief-1/2 signal if ``structure`` is ternary
    (induces beliefs only in {0, 1/2, 1}), else None.

    Read on the integer form: an atom is interior exactly when both its
    weights are nonzero and differ, and the belief-1/2 atom is the one
    whose weights are equal."""
    scale, weights = induced_belief_distribution(structure).integer_form
    if any(wh and wl and wh != wl for wh, wl in weights):
        return None
    return next((Fraction(wh, scale) for wh, wl in weights if wh == wl), Fraction(0))


# -- JSON structure-file format ------------------------------------------------
#
# {"signals": [{"id": "s1", "pH": "2/3", "pL": "1/3"}, ...]}
# Rationals are "num/den" strings; round-trips are bit-exact.


def structure_to_json(structure: InformationStructure) -> str:
    payload = {
        "signals": [
            {"id": s, "pH": format_rational(ph), "pL": format_rational(pl)}
            for s, ph, pl in structure.items()
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def structure_from_json(text: str) -> InformationStructure:
    # ValueError covers a JSONDecodeError and an integer literal past
    # Python's digit limit; a deep enough nesting raises RecursionError
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad structure file: {exc}") from exc
    return structure_from_payload(payload)


def structure_from_payload(payload) -> InformationStructure:
    """The structure of a structure file's parsed JSON value."""
    try:
        entries = payload["signals"]
        table = {
            e["id"]: (parse_rational(e["pH"]), parse_rational(e["pL"]))
            for e in entries
        }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad structure file: {exc}") from exc
    if len(table) != len(entries):
        raise ParseError("duplicate signal id in structure file")
    return validate_structure(table)
