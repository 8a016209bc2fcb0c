"""Exception hierarchy.

Two CLI-visible families: usage errors (bad arguments, malformed files,
mismatched inputs) exit with code 2, numeric-precondition failures
(truncation regime violated, rank deficiency, unresolved kernels) exit with
code 3. Everything derives from QtomoError so callers can catch broadly.
"""


class QtomoError(Exception):
    """Base class for all qtomo errors."""


class UsageError(QtomoError):
    """Invalid arguments, specs, or mismatched inputs. CLI exit code 2."""


class DimensionMismatchError(UsageError):
    """Operands live on different Hilbert spaces."""


class InvalidSpecError(UsageError):
    """Operator/state/quorum specification is malformed."""


class NumericPreconditionError(QtomoError):
    """Numeric contract cannot be met. CLI exit code 3."""


class TruncationError(NumericPreconditionError):
    """Requested parameters exceed the faithful truncation regime."""


class RankDeficientError(NumericPreconditionError):
    """A spanning set or transform lacks the rank the operation needs."""


class GridError(NumericPreconditionError):
    """A phase grid or proposal disk does not resolve the kernel it integrates."""
