"""Error hierarchy shared by all sharpq modules.

Each error class carries the process exit code the CLI maps it to, so library
users and the CLI agree on failure classification.
"""


class SharpqError(Exception):
    """Base class for all sharpq errors."""

    exit_code = 1


class ParseError(SharpqError):
    """Malformed input text (.rel/.epq/.shq) or a well-formedness violation.

    Carries optional line/column info for the CLI to render.
    """

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class CapExceeded(SharpqError):
    """A configurable resource guard refused to continue (correctness over completeness)."""

    exit_code = 3


class EngineDisagreement(SharpqError):
    """The compiled engine and the brute-force oracle returned different counts."""

    exit_code = 4


class InternalInvariant(SharpqError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""

    exit_code = 5
