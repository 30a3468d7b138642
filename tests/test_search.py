"""The integer golden-section search against a frozen copy of the ``Fraction``
search it replaced (``frozen_search.py``), with the market's cache of the
falling search cold and warm, the searches one seed-0 sweep runs,
``best_approximation`` against ``Fraction.limit_denominator``, the search's
unimodality assumption on the benchmark's sweep inputs, the certificate
under which the weighted objective falls and the search skips it, the slope
bound under which a step rounds only the probe it keeps, and the paper's
claim that the seller discloses less."""

import functools
import importlib.util
import math
import pathlib
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frozen_search import frozen_argmax_unit_interval, frozen_maximize_concave
from historyvalue import (
    argmax_unit_interval,
    design,
    market,
    maximize_concave,
    optimal_eps_seller_sticky,
    optimal_eps_weighted_sticky,
    ternary_social_value,
    ternary_sticky_seller_surplus,
    ternary_value_i,
    ternary_weighted_surplus_sticky,
)
from historyvalue.cli import main
from historyvalue.design import _GRID, _INVPHI, _LIMIT, _exact
from historyvalue.design import golden_section, unit_search
from historyvalue.errors import NonFiniteEvaluation
from historyvalue.market import _falling, weighted_objective
from historyvalue.rationals import best_approximation
from test_golden import CASES, golden_path, hv_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
HALF = F(1, 2)
TOLERANCES = [F(1, 10**3), F(1, 10**9), F(1, 10**12)]


class TestWeightedOptimum:
    POINTS = [(F(i, 12), F(j, 12), t) for i in range(1, 12) for j in range(1, 6)
              for t in (2, 3, 5, 8)]

    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    def test_matches_frozen_search(self, tol):
        # each search twice: with the falling search's cache cleared, then
        # with its result for tol in the cache
        for d, a, t in self.POINTS:
            expected = frozen_argmax_unit_interval(
                lambda e: ternary_weighted_surplus_sticky(e, d, a, t), tol
            ).argmax
            _falling.cache_clear()
            cold = optimal_eps_weighted_sticky(d, a, t, tol)
            warm = optimal_eps_weighted_sticky(d, a, t, tol)
            assert type(cold) is F and cold == warm == expected, (d, a, t)


class TestFallingCache:
    def test_sweep_twice_same_bytes(self):
        _falling.cache_clear()
        first = hv_stdout(*CASES["sweep_grid"])
        assert hv_stdout(*CASES["sweep_grid"]) == first == golden_path("sweep_grid").read_text()

    def test_second_falling_call_is_served_from_falling(self, monkeypatch):
        # the objective falls from e = 0 at both alphas, so the second call
        # takes the first one's result for the same tolerance, with no search
        searches = count_searches(monkeypatch)
        _falling.cache_clear()
        first = optimal_eps_weighted_sticky(HALF, F(5, 12), 2)
        assert len(searches) == 1
        assert optimal_eps_weighted_sticky(HALF, F(9, 20), 2) == first
        assert len(searches) == 1
        assert _falling.cache_info().hits == 1

    def test_seed0_sweep_searches_each_point_once(self, tmp_path, capsys, monkeypatch):
        # pass 0 of the benchmark's seed-0 sweep, from a cleared cache: one
        # falling search in all, and one weighted search per row with t >= 2
        # and alpha < 1/2 whose objective is not proven to fall
        (command,) = bench_workloads().price_sweep(0, 0)
        config = tmp_path / "sweep.json"
        config.write_text(command.config_text())
        rows = [(d, a, t) for d, a, t in sweep_rows(command) if t >= 2 and a < HALF]
        searches = count_searches(monkeypatch)
        _falling.cache_clear()
        assert main([command.name, "--config", str(config), *command.args]) == 0
        capsys.readouterr()
        weighted = [p for p in rows if not certified(*p)]
        assert 0 < len(weighted) < len(rows)
        assert searches.count("falling") == 1
        assert searches.count("weighted") == len(weighted) == len(searches) - 1


def count_searches(monkeypatch) -> list:
    """Patch ``market.unit_search`` to record each search it runs, as
    "falling" for ``(-n, m)`` and "weighted" for any other objective."""
    searches = []

    def counting(f, tol, slope=None):
        searches.append("falling" if f(1, 1) == (-1, 1) else "weighted")
        return unit_search(f, tol, slope)

    monkeypatch.setattr(market, "unit_search", counting)
    return searches


OBJECTIVES = {
    **{f"value_i{i}": (lambda i: lambda e: ternary_value_i(e, i))(i) for i in (2, 3, 5, 8)},
    **{f"social_{d}": (lambda d: lambda e: ternary_social_value(e, d))(d)
       for d in (F(1, 12), HALF, F(11, 12))},
    **{f"seller_t{t}": (lambda t: lambda e: ternary_sticky_seller_surplus(e, F(3, 4), t))(t)
       for t in (2, 5)},
    "constant": lambda e: F(1, 7),
    "constant_int": lambda e: 3,
    "float": lambda e: math.sin(3 * float(e)) - float(e) ** 2,
    "float_plateau": lambda e: -abs(float(e) - 0.3) if e > HALF else 0.0,
}


def same_result(got, expected):
    assert got == expected
    assert type(got.argmax) is F and type(got.value) is type(expected.value)


class TestAdapters:
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("tol", [F(1, 10**3), F(1, 10**10)], ids=str)
    def test_argmax_unit_interval(self, name, tol):
        f = OBJECTIVES[name]
        same_result(argmax_unit_interval(f, tol), frozen_argmax_unit_interval(f, tol))

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("bracket", [(0, 1), (F(1, 5), F(9, 10)), (F(2, 64), F(4, 64))],
                             ids=str)
    def test_maximize_concave(self, name, bracket):
        f = OBJECTIVES[name]
        tol = F(1, 10**9)
        same_result(maximize_concave(f, tol, *bracket), frozen_maximize_concave(f, tol, *bracket))

    def test_flat_flags(self):
        assert maximize_concave(OBJECTIVES["constant"], F(1, 10**6)).flat
        assert argmax_unit_interval(OBJECTIVES["constant_int"], F(1, 10**6)).flat
        assert not argmax_unit_interval(OBJECTIVES["float_plateau"], F(1, 10**6)).flat

    def test_bracket_within_tolerance(self):
        # no probe at all: the midpoint of the bracket, flat vacuously
        result = maximize_concave(OBJECTIVES["value_i2"], F(1))
        assert result == frozen_maximize_concave(OBJECTIVES["value_i2"], F(1))
        assert result.argmax == HALF and result.flat

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, bad):
        with pytest.raises(NonFiniteEvaluation):
            maximize_concave(lambda e: bad, F(1, 100))
        with pytest.raises(NonFiniteEvaluation):
            argmax_unit_interval(lambda e: bad, F(1, 100))


CAPS = st.sampled_from([1, 2, 10, 10**12, 10**40])


def limited(n, d, cap):
    x = F(n, d).limit_denominator(cap)
    return x.numerator, x.denominator


class TestBestApproximation:
    @given(n=st.integers(-(2**500), 2**500), d=st.integers(1, 2**500),
           g=st.integers(1, 2**64), cap=CAPS)
    @example(n=1, d=2, g=1, cap=1)  # the midpoint tie: 0/1 and 1/1 are equally far
    @example(n=-1, d=2, g=1, cap=1)
    @example(n=3, d=2, g=4, cap=1)
    @example(n=1, d=4, g=3, cap=2)  # 0/1 and 1/2 tie at 1/4
    @example(n=3, d=4, g=1, cap=2)  # 1/2 and 1/1 tie at 3/4
    @example(n=-314159, d=100000, g=1, cap=100)  # 3 steps, then -311/99
    @example(n=-314159, d=100000, g=1, cap=1000)  # 5 steps, then -355/113
    @example(n=314159, d=100000, g=1, cap=100)  # 2 steps, then 311/99
    @example(n=314159, d=100000, g=1, cap=1000)  # 4 steps, then 355/113
    @example(n=1, d=3, g=5, cap=10)  # 3 fits the cap, 15 does not
    @example(n=-1, d=3, g=5, cap=10)
    @example(n=22, d=7, g=3, cap=1)
    @settings(max_examples=400, deadline=None)
    def test_matches_limit_denominator(self, n, d, g, cap):
        assert best_approximation(n * g, d * g, cap) == limited(n, d, cap)

    @given(n=st.integers(-(10**6), 10**6), d=st.integers(1, 10), g=st.integers(1, 2**200),
           cap=st.sampled_from([10, 10**12, 10**40]))
    def test_value_itself_when_denominator_fits(self, n, d, g, cap):
        x = F(n, d)
        assert best_approximation(n * g, d * g, cap) == (x.numerator, x.denominator)

    def test_cap_below_one(self):
        with pytest.raises(ValueError):
            best_approximation(1, 3, 0)


def bench_workloads():
    """``bench/workloads.py``, the benchmark's input generator, as a module."""
    spec = importlib.util.spec_from_file_location("_price_sweep_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def price_sweep_points(seed: int = 0) -> list:
    """The distinct ``(delta, alpha, t)`` with ``t >= 2`` and ``alpha < 1/2`` of
    the benchmark's ``price-sweep`` inputs for ``seed``, from ``bench/workloads.py``."""
    workloads = bench_workloads()
    points = set()
    for k in range(workloads.CYCLE):
        (command,) = workloads.price_sweep(seed, k)
        points.update((d, a, t) for d, a, t in sweep_rows(command) if t >= 2 and a < HALF)
    return sorted(points)


def sweep_rows(command) -> list:
    """The ``(delta, alpha, t)`` rows of an ``hv sweep`` command, in the
    order it prints them."""
    grid = command.config["sweep"]
    return [(F(d), F(a), t) for d in grid["delta_grid"] for a in grid["alpha_grid"]
            for t in grid["t_grid"]]


def test_sweep_social_column_is_the_weighted_surplus():
    # the weighted surplus a*W + (1 - 2a)*S that hv sweep prints as social
    # is a*B + (1 - a)*S of the row's (seller, buyer) pair, as B = W - S.
    # Every row of the seed-0 sweep at fixed masses, and pass 0's rows at
    # the mass it prints.
    workloads = bench_workloads()
    passes = [sweep_rows(*workloads.price_sweep(0, k)) for k in range(workloads.CYCLE)]
    rows = {row for rows in passes for row in rows}
    pass0 = passes[0]
    checks = [(e, *row) for row in sorted(rows) for e in (F(0), F(1, 3), F(987654321, 10**12), F(1))]
    checks += [(F(float(optimal_eps_weighted_sticky(*row))).limit_denominator(10**12), *row)
               for row in pass0]
    assert len(rows) > 1000 and len(pass0) == 180
    for e, d, a, t in checks:
        seller, buyer = market.ternary_sticky_surpluses(e, d, t)
        assert a * buyer + (1 - a) * seller == ternary_weighted_surplus_sticky(e, d, a, t)


def rises_after_falling(values) -> bool:
    """Whether integer-pair values ``(num, den)`` rise again after a fall."""
    fallen = False
    for (n0, m0), (n1, m1) in zip(values, values[1:]):
        step = n1 * m0 - n0 * m1
        if step < 0:
            fallen = True
        elif step > 0 and fallen:
            return True
    return False


def test_rise_after_fall_detected():
    assert rises_after_falling([(1, 1), (2, 1), (2, 1), (1, 1), (3, 2)])
    assert not rises_after_falling([(1, 1), (4, 2), (3, 1), (3, 1), (1, 2)])


def test_weighted_objective_unimodal_on_sweep_inputs():
    # golden section is right only for unimodal objectives; check it exactly
    points = price_sweep_points()
    assert len(points) > 1000
    grid = 256
    bad = [(d, a, t) for d, a, t in points
           if rises_after_falling([weighted_objective(d, a, t)(k, grid) for k in range(grid + 1)])]
    assert bad == []


# -- the certified fall: where the weighted objective is strictly decreasing ----


def certified(d, a, t) -> bool:
    """``(1 - 2a)*d^t <= a*(1 - d)``, in exact rationals."""
    return (1 - 2 * a) * d**t <= a * (1 - d)


def falling_chain(tol) -> list:
    """The probe points, in the order visited, of a golden section that
    falls from ``e = 0``: the bracket ``[0, 1/64]`` always keeps its left
    part.  Its probes are ``lo + (1 - 1/phi)*(hi - lo)`` and ``lo + (hi -
    lo)/phi``, rounded by ``best_approximation`` to a denominator of at
    most ``_LIMIT``, while they still separate the bracket."""
    g, big = _INVPHI
    ln, ld, hn, hd = 0, _GRID, 1, _GRID
    points = []
    while (hn * ld - ln * hd) * tol.denominator > tol.numerator * ld * hd:
        width, den = hn * ld - ln * hd, ld * hd * big
        (cn, cd), (dn, dd) = (best_approximation(ln * hd * big + k * width, den, _LIMIT)
                              for k in (big - g, g))
        if not F(ln, ld) < F(cn, cd) < F(dn, dd) < F(hn, hd):
            break
        points += [F(cn, cd), F(dn, dd)]
        hn, hd = dn, dd
    return points


FALLING_POINTS = sorted({F(k, _GRID) for k in range(_GRID + 1)} | set(falling_chain(TOLERANCES[-1])))


@st.composite
def certified_points(draw):
    """``(delta, alpha, t)`` with ``t`` in 2..12 and ``alpha`` in
    ``[alpha_min, 1/2)``, where ``alpha_min = d^t/(1 - d + 2*d^t)`` makes the
    certificate an equality."""
    d = draw(st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000))
    t = draw(st.integers(2, 12))
    low = d**t / (1 - d + 2 * d**t)
    u = draw(st.fractions(min_value=0, max_value=F(99, 100), max_denominator=100))
    return d, low + u * (HALF - low), t


def strictly_falling(d, a, t) -> bool:
    f = weighted_objective(d, a, t)
    values = [f(x.numerator, x.denominator) for x in FALLING_POINTS]
    return all(n1 * m0 < n0 * m1 for (n0, m0), (n1, m1) in zip(values, values[1:]))


class TestCertifiedFall:
    EQUALITY = (HALF, F(1, 4), 2)  # (1 - 2a)*d^t == a*(1 - d): the slope at e = 0 is 0

    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    def test_chain_is_the_searchs(self, tol):
        # a falling search visits the 65 grid points, then exactly this chain,
        # a prefix of the 1e-12 one that FALLING_POINTS holds
        seen = []

        def falling(n, m):
            seen.append(F(n, m))
            return -n, m

        unit_search(falling, tol)
        chain = falling_chain(tol)
        assert seen == [F(k, _GRID) for k in range(_GRID + 1)] + chain
        assert chain == falling_chain(TOLERANCES[-1])[:len(chain)]

    def test_falls_on_sweep_points(self):
        points = [p for p in price_sweep_points() if certified(*p)]
        assert len(points) > 500
        assert [p for p in points if not strictly_falling(*p)] == []

    def test_equality_case(self):
        d, a, t = self.EQUALITY
        assert (1 - 2 * a) * d**t == a * (1 - d)
        assert strictly_falling(d, a, t)

    @given(point=certified_points())
    @settings(max_examples=60, deadline=None)
    def test_falls_on_drawn_points(self, point):
        assert certified(*point) and strictly_falling(*point)


class TestCertifiedBranch:
    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    def test_matches_full_search_on_sweep_points(self, tol, monkeypatch):
        # every reference search walks the all-left chain from [0, 1/64]; a
        # memo of the pure best_approximation rounds its probes once
        points = [p for p in price_sweep_points() if certified(*p)]
        got = {p: optimal_eps_weighted_sticky(*p, tol) for p in points}
        monkeypatch.setattr(design, "best_approximation", functools.cache(best_approximation))
        for point, argmax in got.items():
            assert type(argmax) is F and argmax == unit_search(weighted_objective(*point), tol)[0]

    @given(point=certified_points(), tol=st.sampled_from(TOLERANCES))
    @example(point=TestCertifiedFall.EQUALITY, tol=TOLERANCES[-1])
    @settings(max_examples=60, deadline=None)
    def test_matches_full_search_on_drawn_points(self, point, tol):
        got = optimal_eps_weighted_sticky(*point, tol)
        assert type(got) is F and got == unit_search(weighted_objective(*point), tol)[0]

    def test_certified_calls_skip_the_objective(self, monkeypatch):
        def boom(*args):
            raise AssertionError("weighted_objective evaluated")

        monkeypatch.setattr(market, "weighted_objective", boom)
        for point in [TestCertifiedFall.EQUALITY, (HALF, F(5, 12), 2), (F(1, 12), F(1, 24), 8)]:
            assert certified(*point)
            assert optimal_eps_weighted_sticky(*point) == unit_search(lambda n, m: (-n, m),
                                                                      F(1, 10**9))[0]
        assert not certified(F(10, 11), F(1, 12), 2)
        with pytest.raises(AssertionError, match="evaluated"):
            optimal_eps_weighted_sticky(F(10, 11), F(1, 12), 2)


# -- the slope bound: a certified step rounds only the probe it keeps -----------


def slope_bound(d, t) -> F:
    """The bound on the slope of :func:`weighted_objective` over [0, 1] that
    ``optimal_eps_weighted_sticky`` hands its search: ``(t + 1)/(4*(1 - d))``."""
    return F(t + 1, 4) / (1 - d)


@st.composite
def slope_points(draw):
    """``(delta, alpha, t, x, y)`` with ``alpha < 1/2``, ``t`` in 2..12 and
    ``x``, ``y`` in [0, 1]."""
    d = draw(st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000))
    a = draw(st.fractions(min_value=F(1, 1000), max_value=F(499, 1000), max_denominator=1000))
    t = draw(st.integers(2, 12))
    x, y = (draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6)) for _ in "xy")
    return d, a, t, x, y


class TestSlopeBound:
    @given(point=slope_points())
    @example(point=(HALF, F(1, 1000), 12, 1 - F(1, 10**12), F(1)))  # e -> 1
    @example(point=(1 - F(1, 10**9), F(1, 1000), 2, F(0), F(1, 10**6)))  # delta -> 1
    @example(point=(1 - F(1, 10**9), F(1, 1000), 12, 1 - F(1, 10**15), F(1)))  # both
    @example(point=(1 - F(1, 10**9), F(499, 1000), 2, 1 - F(1, 10**15), F(1)))
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_weighted_objective(self, point):
        d, a, t, x, y = point
        f = weighted_objective(d, a, t)
        fx, fy = F(*f(x.numerator, x.denominator)), F(*f(y.numerator, y.denominator))
        assert abs(fy - fx) <= slope_bound(d, t) * abs(y - x)

    @pytest.mark.parametrize("tol, stride", [(tol, 1) for tol in TOLERANCES] + [(F(1, 10**45), 3)],
                             ids=str)
    def test_search_unchanged_on_sweep_points(self, tol, stride):
        # the search that optimal_eps_weighted_sticky runs at each point: on
        # (-n, m) with slope 1 where the objective provably falls, else on
        # weighted_objective.  At 1e-45 the bracket narrows past what a
        # certified step can separate, so each search ends in exact steps;
        # such a search takes about 30 ms, so that case takes every third point.
        falling = lambda n, m: (-n, m)  # noqa: E731
        assert unit_search(falling, tol, 1) == unit_search(falling, tol)
        points = [p for p in price_sweep_points() if not certified(*p)]
        assert len(points) > 300
        for d, a, t in points[::stride]:
            f = weighted_objective(d, a, t)
            assert unit_search(f, tol, slope_bound(d, t)) == unit_search(f, tol), (d, a, t)

    def test_market_passes_the_bound(self, monkeypatch):
        slopes = []

        def recording(f, tol, slope=None):
            slopes.append(slope)
            return unit_search(f, tol, slope)

        monkeypatch.setattr(market, "unit_search", recording)
        _falling.cache_clear()
        optimal_eps_weighted_sticky(F(10, 11), F(1, 12), 3)
        optimal_eps_weighted_sticky(*TestCertifiedFall.EQUALITY)
        assert slopes == [slope_bound(F(10, 11), 3), 1]

    def test_seed0_sweep_rounds_about_half_the_points(self, tmp_path, capsys, monkeypatch):
        # pass 0 of the benchmark's seed-0 sweep from a cleared cache, with the
        # market's slope bounds and with none: the same bytes from at most
        # 55% of the roundings
        (command,) = bench_workloads().price_sweep(0, 0)
        config = tmp_path / "sweep.json"
        config.write_text(command.config_text())
        calls = []

        def counting(n, d, cap):
            calls.append(n)
            return best_approximation(n, d, cap)

        def sweep():
            _falling.cache_clear()
            calls.clear()
            assert main([command.name, "--config", str(config), *command.args]) == 0
            _falling.cache_clear()
            return capsys.readouterr().out, len(calls)

        monkeypatch.setattr(design, "best_approximation", counting)
        bounded, bounded_calls = sweep()
        monkeypatch.setattr(market, "unit_search", lambda f, tol, slope=None: unit_search(f, tol))
        exact, exact_calls = sweep()
        assert bounded == exact and 20 * bounded_calls <= 11 * exact_calls

    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    def test_falling_search_rounds_one_probe_per_step(self, tol, monkeypatch):
        # each step keeps its right probe, the chain's odd entries, rounds
        # only it, and evaluates the objective twice
        chain = falling_chain(tol)
        assert falling_search(tol, 1, monkeypatch) == (chain[1::2], len(chain))

    @pytest.mark.parametrize("j", [0, 3, 60, -2, -70])
    def test_narrow_brackets_round_both_probes(self, monkeypatch, j):
        # at 1e-45 the first k steps are certified; the rest round both probes,
        # as every step does without a slope bound, and so does the step the
        # denominator cap stops.  No step evaluates both the truncated and the
        # exact probes: on -L*e with L = 2**j, margin = 133 - 3 - 2 - j and
        # the value test cannot pass unless the truncated probes lie at least
        # ceil(2**(133 - margin - 1) / L) = 16 units of 2**-133 apart, and
        # with power-of-two denominators it passes wherever they do.
        tol = F(1, 10**45)
        chain = falling_chain(tol)
        exact, exact_evaluations = falling_search(tol, None, monkeypatch)
        rounded, evaluations = falling_search(tol, F(2)**j, monkeypatch, F(2)**j)
        assert exact[:-2] == chain and exact_evaluations == len(chain)
        assert evaluations == len(chain)
        k = len(exact) - len(rounded)
        assert 0 < k < len(chain) // 2
        assert rounded == chain[1:2 * k:2] + exact[2 * k:]
        g, big = _INVPHI

        def truncated(x):
            return x.numerator * 2**133 // x.denominator

        his = [F(1, _GRID), *chain[1::2]]  # each step's bracket is [0, hi]
        assert k == sum(truncated(F(g, big) * hi) - truncated(F(big - g, big) * hi) >= 16
                        for hi in his)

    def test_tie_of_rounded_probes_is_not_decided_by_truncation(self):
        # f = -|e - x0| with x0 midway between the rounded probes of [0, hi]:
        # the exact step sees a tie and keeps the right part, while the
        # truncated probes' values differ, by less than 4/_LIMIT, so they must
        # not decide the step; the one step leaves flat set.  Each hi is a
        # rounded point of the falling chain.
        g, big = _INVPHI
        for hi in falling_chain(F(1, 10**9))[1::2]:
            hn, hd = hi.as_integer_ratio()
            c, d = (F(*best_approximation(k * hn, hd * big, _LIMIT)) for k in (big - g, g))
            x0 = (c + d) / 2

            def vee(n, m):
                return -abs(n * x0.denominator - x0.numerator * m), m * x0.denominator

            one_step = 2 * hi / 3  # the step leaves [c, hi], about 0.618*hi wide
            exact = golden_section(vee, one_step, (0, 1), (hn, hd))
            assert exact == ((c + hi) / 2, True)
            assert golden_section(vee, one_step, (0, 1), (hn, hd), 1) == exact

    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    def test_certified_step_clears_flat(self, tol):
        falling = lambda n, m: (-n, m)  # noqa: E731
        got = golden_section(falling, tol, (0, 1), (1, 1), 1)
        assert got == golden_section(falling, tol, (0, 1), (1, 1)) and not got[1]

    @pytest.mark.parametrize("slope", [0, 1, F(1, 10**50)], ids=str)
    def test_constant_objective_stays_flat(self, slope):
        # equal values are never a certified step, whatever the bound
        constant = lambda n, m: (3, 1)  # noqa: E731
        tol = F(1, 10**9)
        got = golden_section(constant, tol, (0, 1), (1, 1), slope)
        assert got == golden_section(constant, tol, (0, 1), (1, 1)) and got[1]


def falling_search(tol, slope, monkeypatch, rate=1) -> tuple:
    """For a golden section on ``-rate * e``, which falls from ``e = 0``,
    searched with ``slope``: the points ``best_approximation`` returns, in
    order, and how many times the golden section evaluates the objective."""
    rounded = []
    evaluations = []
    rate = F(rate)

    def counting(n, d, cap):
        point = best_approximation(n, d, cap)
        rounded.append(F(*point))
        return point

    def falling(n, m):
        evaluations.append(n)
        return -n * rate.numerator, m * rate.denominator

    with monkeypatch.context() as patch:
        patch.setattr(design, "best_approximation", counting)
        unit_search(falling, tol, slope)
    return rounded, len(evaluations) - (_GRID + 1)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_unit_search_reads_only_the_order_of_values(name):
    f = _exact(OBJECTIVES[name])

    def rising(n, m):  # y -> (y^3 - 5)/7, strictly increasing
        return n**3 - 5 * m**3, 7 * m**3

    tol = F(1, 10**9)
    assert unit_search(lambda n, m: rising(*f(n, m)), tol) == unit_search(f, tol)


def test_seller_discloses_less():
    # the paper's market result: the seller's optimal uninformative mass is
    # above the weighted optimum, by far more than the search's 1e-9 tolerance
    grid = [(F(i, 12), F(j, 24), t) for i in range(1, 12) for j in range(1, 12)
            for t in (1, 2, 3, 5, 8)]
    margins = [optimal_eps_seller_sticky(d, t) - float(optimal_eps_weighted_sticky(d, a, t))
               for d, a, t in price_sweep_points() + grid]
    assert min(margins) > 1e-3
