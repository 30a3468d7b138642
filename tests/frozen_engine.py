"""The tree engine as it was before packed payoff vectors, frozen apart from
the library: ``_best`` returns a tuple per node, adds its children's
vectors slot by slot, takes the lexicographic ``max`` of tuples and stores
every node but a cascade, the last agent's included.  Test oracle only."""

import math

from historyvalue.learning import _check_node


def tuple_best(a, b, r, game, states):
    """``V(a, b, r)`` as a tuple; ``game`` is ``(weights, D, choices)``."""
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
        if ph > pl:
            h1 += ph
            l1 += pl
        elif ph < pl:
            h0 += ph
            l0 += pl
        elif ph:
            tied, th, tl = wh >= wl, ph, pl
    if r > 1 and not th and not (h1 and l0):
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
                    for i, v in enumerate(tuple_best(ch // g, cl // g, r - 1, game, states)):
                        total[i] += g * v
            rest = max(rest, tuple(total))
    states[key] = found = (h1 - l1, *rest)
    return found


def tuple_payoffs(signal, horizon, choices, states=None):
    """The root vector of :func:`tuple_best` on ``signal``'s integer form;
    ``states``, if given, is the table the search fills."""
    if not horizon:
        return ()
    scale, weights = signal.integer_form
    return tuple_best(1, 1, horizon, (weights, scale, choices), {} if states is None else states)
