"""Exception types shared across the package."""


class GroupoidError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(GroupoidError):
    """Structurally broken input: dangling ids, non-total tables, bad ids."""


class BaseMismatch(GroupoidError):
    """Two measures that were expected to live on the same base set do not."""


class NotMeasureClassPreserving(GroupoidError):
    """A map fails support equality of pushforward and target measure.

    `witness` is a point where exactly one of the two measures vanishes.
    """

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class NotQuasiInvariant(GroupoidError):
    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class InvalidCospan(GroupoidError):
    """Cospan validation failed; `report` holds the failing sub-report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotADisintegration(GroupoidError):
    pass


class ImageMismatch(GroupoidError):
    pass


class NotEquivariant(GroupoidError):
    pass


class EmptySpace(GroupoidError):
    pass


class GenerationExhausted(GroupoidError):
    pass


class PrecomputedConditionFailed(GroupoidError):
    """The membership algebra of a weak pullback did not have the expected
    canonical form; signals an upstream construction bug, not bad user input."""


class ParseError(GroupoidError):
    pass


class UnsupportedVersion(ParseError):
    pass


class DanglingReference(ParseError):
    pass
