"""Exception hierarchy shared across the package.

Errors are split by how a front end should react: malformed input
(ParseError), a well-formed object violating a mathematical precondition
(PreconditionError and friends), and resource refusals (BudgetError).
"""


class AgreeboxError(Exception):
    """Base class for all package errors."""


class ParseError(AgreeboxError):
    """Input could not be parsed (bad JSON, bad rational literal, bad grammar)."""


class ShapeError(AgreeboxError):
    """Operation requested on a box or model of an unsupported shape."""


class StructuralError(AgreeboxError):
    """An object is missing required entries (distinct from a constraint violation)."""


class PreconditionError(AgreeboxError):
    """A documented mathematical precondition does not hold for the input."""


class BudgetError(AgreeboxError):
    """Requested computation exceeds a fixed size limit (e.g. bridge.MAX_STATES)."""


class ReductionRefused(PreconditionError):
    """Reduction requested on a box without the required disagreement.

    Carries the disagreement report so the caller can inspect why the
    hypothesis failed.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
