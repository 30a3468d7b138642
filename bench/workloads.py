"""Inputs of the benchmark's workloads, made from the benchmark seed alone.

A workload turns ``(seed, k)`` into the commands of pass ``k``: a list of
``Command``s, each an ``hv`` subcommand, its JSON config and any extra
arguments.  Inputs cycle with period ``CYCLE`` so that a run of any
length draws from a fixed, seed-determined set, and so that recorded
output digests cover every pass of a recorded seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0
#: Passes cycle through this many seed-drawn inputs.
CYCLE = 12

# tie-search: the ROADMAP fixture {a:(1/2,1/6), b:(1/3,1/3), c:(1/6,1/2)}.
# The uninformative mass m of a mirror structure sets the size of the
# public-belief tree (20k to 33k node visits at h=7 as m goes from 1/6 to
# 2/3), so seeded draws keep the fixture's m = 1/3 and the seed moves the
# numbers, not the amount of work.  The fixture's smaller denominators make
# it about 10% cheaper than the other four, so seeded draws leave it out.
FIXTURE = (Fraction(1, 2), Fraction(1, 6))
TIE_MID = Fraction(1, 3)
TIE_MAX_DEN = 12
TIE_HORIZON = 7
TIE_PARAMS = {"delta": "1/4", "alpha": "1/3", "stickiness": 2, "tolerance": "1/1000"}

# corpus-verify
CORPUS = {"count": 200, "max_signals": 4, "max_denominator": 12}
CORPUS_HORIZON = 6

# price-sweep: 9 deltas x 5 alphas (4 below 1/2) x 4 stickiness values.
SWEEP_DELTAS = 9
SWEEP_ALPHAS_LOW = 4
SWEEP_ALPHAS_HIGH = 1
SWEEP_T = [1, 2, 3, 5]
SWEEP_MAX_DEN = 12


@dataclass(frozen=True)
class Command:
    """One ``hv`` invocation: subcommand, config object, extra arguments."""

    name: str
    config: dict
    args: tuple = ()

    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True)

    def key(self) -> str:
        """Canonical text of the whole input, for digest lookup."""
        return "\0".join((self.name, self.config_text(), *self.args))


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def mirror_structure(p: Fraction, q: Fraction) -> dict:
    """``{a:(p,q), b:(m,m), c:(q,p)}`` in the CLI's structure format."""
    m = 1 - p - q
    return {
        "signals": [
            {"id": "a", "pH": _rat(p), "pL": _rat(q)},
            {"id": "b", "pH": _rat(m), "pL": _rat(m)},
            {"id": "c", "pH": _rat(q), "pL": _rat(p)},
        ]
    }


def tie_pairs() -> list:
    """Every ``(p, q)`` other than the fixture's with ``p > q > 0``,
    ``p + q = 1 - TIE_MID`` and both denominators at most ``TIE_MAX_DEN``."""
    total = 1 - TIE_MID
    pairs = set()
    for den in range(1, TIE_MAX_DEN + 1):
        for num in range(1, den):
            p = Fraction(num, den)
            q = total - p
            if 0 < q < p and q.denominator <= TIE_MAX_DEN and (p, q) != FIXTURE:
                pairs.add((p, q))
    return sorted(pairs)


def tie_search(seed: int, k: int) -> list:
    """``hv value``, ``design`` and ``market`` on one mirror-symmetric structure.

    The default seed uses the fixture on every pass; any other seed visits
    the ``tie_pairs()`` structures in a seed-drawn order, one per pass.
    """
    if seed == DEFAULT_SEED:
        p, q = FIXTURE
    else:
        order = tie_pairs()
        random.Random(f"tie-search:{seed}").shuffle(order)
        p, q = order[k % len(order)]
    config = {"structure": mirror_structure(p, q), "horizon": TIE_HORIZON, **TIE_PARAMS}
    return [Command(name, config) for name in ("value", "design", "market")]


def corpus_verify(seed: int, k: int) -> list:
    """``hv verify`` on a 200-structure corpus; pass ``k`` uses corpus seed
    ``seed * CYCLE + k % CYCLE``."""
    config = {"horizon": CORPUS_HORIZON, "corpus": dict(CORPUS)}
    return [Command("verify", config, ("--seed", str(seed * CYCLE + k % CYCLE)))]


def _draw_rationals(rng: random.Random, count: int, lo: Fraction, hi: Fraction) -> list:
    """``count`` distinct rationals in ``(lo, hi)`` with denominator <= 12, sorted."""
    pool = sorted(
        {Fraction(n, d) for d in range(2, SWEEP_MAX_DEN + 1) for n in range(1, d)
         if lo < Fraction(n, d) < hi}
    )
    return sorted(rng.sample(pool, count))


def price_sweep(seed: int, k: int) -> list:
    """``hv sweep`` on a 180-point (delta, alpha, t) grid drawn from the seed."""
    rng = random.Random(f"price-sweep:{seed}:{k % CYCLE}")
    half = Fraction(1, 2)
    deltas = _draw_rationals(rng, SWEEP_DELTAS, Fraction(0), Fraction(1))
    alphas = _draw_rationals(rng, SWEEP_ALPHAS_LOW, Fraction(0), half) + _draw_rationals(
        rng, SWEEP_ALPHAS_HIGH, half - Fraction(1, 100), Fraction(1)
    )
    config = {
        "sweep": {
            "delta_grid": [_rat(d) for d in deltas],
            "alpha_grid": [_rat(a) for a in alphas],
            "t_grid": list(SWEEP_T),
        }
    }
    return [Command("sweep", config)]


#: Workload name -> ``(seed, k) -> [Command]``.
WORKLOADS = {
    "tie-search": tie_search,
    "corpus-verify": corpus_verify,
    "price-sweep": price_sweep,
}

#: Work items one pass completes, for the throughput figures.
WORK_ITEMS = {
    "corpus-verify": CORPUS["count"],
    "price-sweep": SWEEP_DELTAS * (SWEEP_ALPHAS_LOW + SWEEP_ALPHAS_HIGH) * len(SWEEP_T),
}
