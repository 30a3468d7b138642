"""Exception hierarchy shared by all modules.

Errors are partitioned into four classes so the CLI can map them to
distinct exit codes: parse, validation, cap, internal.
"""


class HistoryValueError(Exception):
    """Base class for all library errors."""


class ParseError(HistoryValueError):
    """Malformed config or structure file."""


class ValidationError(HistoryValueError):
    """Input violates a model invariant."""


class NonStochastic(ValidationError):
    """A likelihood column does not sum to one."""


class NegativeLikelihood(ValidationError):
    """A likelihood is negative."""


class EmptyAlphabet(ValidationError):
    """No signals supplied."""


class ZeroProbabilitySignal(ValidationError):
    """Conditioning on a signal that has probability zero under the prior."""


class ContradictoryConclusiveBeliefs(ValidationError):
    """Attempt to combine a certainly-low belief with a certainly-high one."""


class DegenerateParameter(ValidationError):
    """Discount factor or welfare weight outside the open unit interval."""


class CapExceeded(HistoryValueError):
    """A configured size or depth cap would be exceeded."""


class HorizonCapExceeded(CapExceeded):
    """Requested horizon (or required truncation depth) exceeds the cap."""

    def __init__(self, message, achievable_tolerance=None):
        super().__init__(message)
        self.achievable_tolerance = achievable_tolerance


class TooManyIndifferenceNodes(CapExceeded):
    """The public-belief tree would need more states than ``learning.MAX_STATES``.

    A state is a reduced public node and the number of agents left below
    it; ``count`` is the number of states the call would have stored.
    Every stored state has at least two agents left, and a cascade node is
    never stored.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class InvariantViolation(HistoryValueError):
    """An internal consistency check failed: a fault in the library, not the input."""


class NonFiniteEvaluation(HistoryValueError):
    """Objective returned NaN or infinity during a numeric search."""
