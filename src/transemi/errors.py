"""Exception types shared across the package."""


class TransemiError(Exception):
    """Base class for errors raised by this package."""


class CarrierMismatchError(TransemiError, ValueError):
    """Two maps live on carriers of different sizes."""


class CapExceededError(TransemiError, RuntimeError):
    """Closure generation grew past the user-supplied element budget."""


class MalformedSystemError(TransemiError, ValueError):
    """A table or relation matrix has the wrong shape or out-of-range entries."""


class OracleBudgetError(TransemiError, RuntimeError):
    """The brute-force oracle was asked for a carrier above its budget."""


class HypothesesViolatedError(TransemiError, RuntimeError):
    """A construction that needs the verifier hypotheses met an input violating them.

    Carries a witness describing the first violation found.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(TransemiError, RuntimeError):
    """An invariant that should follow from validated inputs failed anyway."""


class InstanceFormatError(TransemiError, ValueError):
    """An instance file failed to parse; message carries a position tag."""
