"""Exception types shared across the package."""


class OrdalgError(Exception):
    """Base class for every error raised by this library."""


class DuplicateLabel(OrdalgError):
    pass


class UnknownLabel(OrdalgError):
    pass


class CycleDetected(OrdalgError):
    pass


class NotAPartialOrder(OrdalgError):
    pass


class NoBottom(OrdalgError):
    pass


class UnboundVariable(OrdalgError):
    pass


class UnknownSymbol(OrdalgError):
    pass


class ArityMismatch(OrdalgError):
    pass


class MissingSymbol(OrdalgError):
    pass


class BudgetExceeded(OrdalgError):
    pass


class NotDirected(OrdalgError):
    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class MissingStructure(OrdalgError):
    pass


class InvalidChoice(OrdalgError):
    pass


class BadPartition(OrdalgError):
    pass


class NotACongruence(OrdalgError):
    pass


class SizeGuardExceeded(OrdalgError):
    pass


class SignatureMismatch(OrdalgError):
    pass


class ParseError(OrdalgError):
    """Syntax or semantic error in DSL text, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
