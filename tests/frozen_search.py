"""The golden-section search as it was before the integer search core, frozen
apart from the library: a ``Fraction`` loop that rounds every probe point
with ``limit_denominator(10**40)``.  Test oracle only."""

import math
from fractions import Fraction

from historyvalue.design import SearchResult
from historyvalue.errors import NonFiniteEvaluation
from historyvalue.rationals import positive

_LIMIT = 10**40
_GRID = 64


def frozen_maximize_concave(f, tolerance, lo=0, hi=1) -> SearchResult:
    lo = Fraction(lo)
    hi = Fraction(hi)
    tol = positive(tolerance, "tolerance")
    invphi = Fraction(math.sqrt(5.0) - 1.0) / 2

    def ev(x):
        y = f(x)
        if isinstance(y, float) and not math.isfinite(y):
            raise NonFiniteEvaluation(f"objective not finite at {float(x)}")
        return y

    seen_min = seen_max = None
    while hi - lo > tol:
        h = hi - lo
        c = (lo + (1 - invphi) * h).limit_denominator(_LIMIT)
        d = (lo + invphi * h).limit_denominator(_LIMIT)
        if not lo < c < d < hi:  # interval too narrow for the denominator cap
            break
        yc, yd = ev(c), ev(d)
        for y in (yc, yd):
            seen_min = y if seen_min is None else min(seen_min, y)
            seen_max = y if seen_max is None else max(seen_max, y)
        if yc > yd:
            hi = d
        else:
            lo = c
    mid = (lo + hi) / 2
    return SearchResult(argmax=mid, value=ev(mid), flat=seen_min == seen_max)


def frozen_argmax_unit_interval(f, tolerance) -> SearchResult:
    values = [f(Fraction(k, _GRID)) for k in range(_GRID + 1)]
    best = max(range(_GRID + 1), key=lambda k: values[k])
    lo = Fraction(max(best - 1, 0), _GRID)
    hi = Fraction(min(best + 1, _GRID), _GRID)
    result = frozen_maximize_concave(f, tolerance, lo, hi)
    flat = result.flat and len(set(values)) == 1
    return SearchResult(argmax=result.argmax, value=result.value, flat=flat)
