"""Command-line front end: ``hv value|design|market|verify|sweep``.

Single runs emit JSON reports; sweeps emit plot-ready CSV.  Every exact
number is rendered as ``num/den`` plus a 12-significant-digit decimal,
and every truncated series carries its certified error bound.  Identical
config and seed produce byte-identical output.

A plain command line, ``COMMAND`` followed by distinct ``--OPTION VALUE``
pairs with ``--config`` among them, is read directly (``_plain``); argparse
is imported and its parser built only for help, errors and every other form.

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 cap exceeded,
5 internal error.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from fractions import Fraction

from . import design, market
from .beliefs import structure_from_json, structure_from_payload, structure_to_json
from .errors import (
    CapExceeded,
    HistoryValueError,
    HorizonCapExceeded,
    ParseError,
    ValidationError,
)
from .learning import best_equilibrium_payoffs, social_value
from .rationals import format_decimal, format_rational, parse_rational
from .rationals import int_at_least, positive

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    # ValueError covers a JSONDecodeError, an integer literal past Python's
    # digit limit and bytes that are not UTF-8
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config must be a JSON object")
    return cfg


_SOURCES = ("structure", "structure_file", "ternary_eps")


def _load_structure(cfg: dict):
    sources = [k for k in _SOURCES if k in cfg]
    if len(sources) != 1:
        raise ParseError(
            f"config must name exactly one structure source, got {sources or 'none'}"
        )
    if "ternary_eps" in cfg:
        return design.ternary_structure(parse_rational(cfg["ternary_eps"]))
    if "structure_file" in cfg:
        path = cfg["structure_file"]
        # open() would take an int as a file descriptor (0 is stdin)
        if not isinstance(path, str):
            raise ParseError(f"structure_file must be a string, got {path!r}")
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read structure file: {exc}") from exc
        return structure_from_json(text)
    return structure_from_payload(cfg["structure"])


def _int(value, name: str) -> int:
    """An integer config field: a JSON integer or an integer string, never
    a bool or a number with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name} must be an integer, got {value!r}") from exc


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"{key} must be a JSON object")
    return value


def _grid(sweep: dict, key: str, default: list) -> list:
    value = sweep.get(key, default)
    if not isinstance(value, list):
        raise ParseError(f"sweep.{key} must be a JSON list")
    if not value:
        raise ParseError(f"sweep.{key} must not be empty")
    return value


def _increasing(by_delta: dict) -> bool:
    """Whether the values strictly increase over the distinct deltas in order."""
    values = [by_delta[d] for d in sorted(by_delta)]
    return all(x < y for x, y in zip(values, values[1:]))


def _common(cfg: dict, args) -> dict:
    horizon = args.horizon if args.horizon is not None else cfg.get("horizon", 6)
    tol = args.tol if args.tol is not None else cfg.get("tolerance", "1/1000000000")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = {
        "horizon": _int(horizon, "horizon"),
        "tolerance": parse_rational(tol),
        "seed": _int(seed, "seed"),
        "delta": parse_rational(cfg.get("delta", "1/2")),
        "alpha": parse_rational(cfg.get("alpha", "1/2")),
        "stickiness": _int(cfg.get("stickiness", 1), "stickiness"),
    }
    int_at_least(out["horizon"], 1, "horizon")
    positive(out["tolerance"], "tolerance")
    return out


def _rat_entry(q) -> dict:
    return {"rational": format_rational(q), "decimal": format_decimal(q)}


def _bounded_entry(v) -> dict:
    return {**_rat_entry(v.value), "error_bound": format_decimal(v.error_bound)}


def _relaxed(series, tolerance):
    """``series(tolerance)``, a truncated series certified to the config
    tolerance, and whether the tolerance was relaxed.  Where ``HORIZON_CAP``
    agents cannot reach it, the run stays useful: the series is reported at the
    best tolerance the cap reaches, with one note on stderr."""
    try:
        return series(tolerance), False
    except HorizonCapExceeded as exc:
        print(f"note: {exc}; reporting at that tolerance", file=sys.stderr)
        return series(exc.achievable_tolerance), True


def run_value(cfg: dict, args) -> dict:
    params = _common(cfg, args)
    structure = _load_structure(cfg)
    profile = best_equilibrium_payoffs(structure, params["horizon"])
    aggregate, tolerance_relaxed = _relaxed(
        functools.partial(social_value, structure, params["delta"]), params["tolerance"]
    )
    return {
        "command": "value",
        "config": _echo(cfg, params),
        "tolerance_relaxed": tolerance_relaxed,
        "single_payoff": _rat_entry(profile.single),
        "agents": [
            {
                "i": i + 1,
                "with_history": _rat_entry(profile.with_history[i]),
                "benchmark": _rat_entry(profile.benchmark[i]),
                "history_value": _rat_entry(profile.history_value[i]),
            }
            for i in range(profile.horizon)
        ],
        "social_value": _bounded_entry(aggregate),
    }


def run_design(cfg: dict, args) -> dict:
    params = _common(cfg, args)
    structure = _load_structure(cfg)
    report = design.verify_dominance(structure, params["horizon"])
    equivalence = design.check_equivalence(
        structure, design.split_to_ternary(structure), horizon=params["horizon"]
    )
    agent_optima = []
    for i in range(2, params["horizon"] + 1):
        opt = design.optimal_eps_agent(i)
        agent_optima.append({"i": i, "eps": format_decimal(opt.eps), "degenerate": opt.degenerate})
    return {
        "command": "design",
        "config": _echo(cfg, params),
        "dominance": report.to_json_dict(),
        "equivalence_to_split": {
            "equivalent": equivalence.equivalent,
            "condition": equivalence.condition,
            "values_match": equivalence.values_match,
        },
        "agent_optimal_eps": agent_optima,
        "social_optimal_eps": format_decimal(design.optimal_eps_social(params["delta"])),
        "max_social_value": format_decimal(design.max_social_value(params["delta"])),
    }


def run_market(cfg: dict, args) -> dict:
    params = _common(cfg, args)
    structure = _load_structure(cfg)
    mp = market.MarketParams(params["delta"], params["alpha"], params["stickiness"])
    t = params["stickiness"]
    path = market.sticky_price_path(structure, t, params["horizon"])
    # no stdout key says the tolerance was relaxed: each error_bound shows it
    report, _ = _relaxed(
        functools.partial(market.sticky_surpluses, structure, mp), params["tolerance"]
    )
    return {
        "command": "market",
        "config": _echo(cfg, params),
        "prices": [
            {"i": i + 1, **_rat_entry(p)} for i, p in enumerate(path.prices)
        ],
        "regime": path.regime,
        "surpluses": report.to_json_dict(),
        "optimal_eps": {
            "buyer": format_decimal(market.optimal_eps_buyer()),
            "seller": format_decimal(market.optimal_eps_seller_sticky(params["delta"], t)),
            "weighted": format_decimal(
                market.optimal_eps_weighted_sticky(
                    params["delta"], params["alpha"], t, params["tolerance"]
                )
            ),
        },
    }


def run_verify(cfg: dict, args) -> dict:
    params = _common(cfg, args)
    corpus_cfg = _section(cfg, "corpus")
    count = int_at_least(_int(corpus_cfg.get("count", 100), "corpus.count"), 1, "corpus.count")
    max_signals = _int(corpus_cfg.get("max_signals", 4), "corpus.max_signals")
    max_den = _int(corpus_cfg.get("max_denominator", 12), "corpus.max_denominator")
    structures = design.corpus(params["seed"], count, max_signals, max_den)
    results = []
    failures = []
    for idx, structure in enumerate(structures):
        report = design.verify_dominance(structure, params["horizon"])
        entry = {"index": idx, "two_sided": report.two_sided, "pass": report.verdict}
        if not entry["pass"]:
            entry["structure"] = json.loads(structure_to_json(structure))
            entry["dominance"] = report.to_json_dict()
            failures.append(entry)
        results.append(entry)
    return {
        "command": "verify",
        "config": _echo(cfg, params),
        "corpus": {"seed": params["seed"], "count": count,
                   "max_signals": max_signals, "max_denominator": max_den},
        "results": results,
        "failures": failures,
        "all_pass": not failures,
    }


def run_sweep(cfg: dict, args):
    params = _common(cfg, args)
    sweep = _section(cfg, "sweep")
    deltas = [parse_rational(d) for d in _grid(sweep, "delta_grid", ["1/2"])]
    alphas = [parse_rational(a) for a in _grid(sweep, "alpha_grid", ["1/2"])]
    ts = [_int(t, "t_grid entry") for t in _grid(sweep, "t_grid", [1])]
    rows = ["delta,alpha,t,eps_star_buyer,eps_star_seller,eps_star_weighted,"
            "seller,buyer,social"]
    seller_track = {}
    eps_b = market.optimal_eps_buyer()
    for d in deltas:
        for a in alphas:
            for t in ts:
                # the weighted optimum builds MarketParams, which checks t's cap
                eps_w = float(market.optimal_eps_weighted_sticky(d, a, t, params["tolerance"]))
                eps_s = market.optimal_eps_seller_sticky(d, t)
                eps_w_frac = Fraction(eps_w).limit_denominator(10**12)
                seller, buyer = market.ternary_sticky_surpluses(eps_w_frac, d, t)
                social = market.ternary_weighted_surplus_sticky(eps_w_frac, d, a, t)
                rows.append(
                    f"{format_decimal(d)},{format_decimal(a)},{t},"
                    f"{format_decimal(eps_b)},{format_decimal(eps_s)},{format_decimal(eps_w)},"
                    f"{format_decimal(seller)},{format_decimal(buyer)},{format_decimal(social)}"
                )
                seller_track.setdefault((a, t), {})[d] = eps_s
    # Monotonicity summaries as trailing comments (plot tools skip '#').
    increasing = all(_increasing(v) for v in seller_track.values())
    rows.append(f"# eps_star_seller strictly increasing in delta: {increasing}")
    return "\n".join(rows) + "\n"


def _echo(cfg: dict, params: dict) -> dict:
    echo = {k: (format_rational(v) if isinstance(v, Fraction) else v) for k, v in params.items()}
    echo["source"] = {k: cfg[k] for k in _SOURCES if k in cfg}
    return echo


#: The options every command shares, declared once for ``_plain`` and
#: ``_parser``: name -> (type, required, help).
_OPTIONS = {
    "--config": (None, True, "JSON config file"),
    "--out": (None, False, "output path (default: stdout)"),
    "--seed": (int, False, None),
    "--horizon": (int, False, None),
    "--tol": (None, False, None),
}


def _plain(argv: list, commands: tuple):
    """The attributes ``_parser(commands).parse_args(argv)`` gives, read
    without argparse when ``argv`` is a command followed by pairs of distinct
    full option names from ``_OPTIONS`` and string values that do not start
    with ``-``, ``--config`` among them; ``None`` for any other ``argv``."""
    if not (argv and isinstance(argv[0], str) and argv[0] in commands and len(argv) % 2):
        return None
    args = {"command": argv[0], **{name[2:]: None for name in _OPTIONS}}
    seen = set()
    for name, value in zip(argv[1::2], argv[2::2]):
        if (not isinstance(name, str) or name not in _OPTIONS or name in seen
                or not isinstance(value, str) or value.startswith("-")):
            return None
        seen.add(name)
        kind = _OPTIONS[name][0]
        try:
            args[name[2:]] = value if kind is None else kind(value)
        except ValueError:
            return None
    return types.SimpleNamespace(**args) if "--config" in seen else None


@functools.lru_cache(maxsize=1)
def _parser(commands: tuple):
    """The ``hv`` ``argparse`` parser, for the command lines ``_plain`` leaves:
    built on first use, then reused, as parsing leaves it unchanged.  The
    options every command shares are declared on a parent parser."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for name, (kind, required, text) in _OPTIONS.items():
        common.add_argument(name, type=kind, required=required, help=text)
    parser = argparse.ArgumentParser(
        prog="hv",
        description="Value of history: exact social-learning payoffs, belief "
        "splitting, and monopoly pricing of the action record.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    runners = {"value": run_value, "design": run_design, "market": run_market,
               "verify": run_verify, "sweep": run_sweep}
    commands = tuple(runners)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv, commands)
    if args is None:
        parser = _parser(commands)
        # argparse indexes each token and would raise TypeError on a non-str
        odd = next((token for token in argv if not isinstance(token, str)), None)
        if odd is not None:
            parser.error(f"command-line tokens must be strings, got {odd!r}")
        args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        result = runners[args.command](cfg, args)
        text = result if isinstance(result, str) else json.dumps(result, indent=2, sort_keys=True) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except HistoryValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
