"""Shared exception types.

Exit-code mapping used by the CLI: parse/config errors -> 2, cap errors -> 3,
solver non-convergence -> 4.  InternalError is not a VcspError and has no
exit code of its own: it signals a bug, not bad input.
"""


class VcspError(Exception):
    """Base class for package errors."""


class ParseError(VcspError):
    """Malformed input file; message carries a 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CapExceeded(VcspError):
    """A configured enumeration or model-size cap would be exceeded."""


class ArityError(VcspError):
    """Relaxation level below the maximum constraint arity."""


class NonConvergence(VcspError):
    """Iterative solver stopped without reaching the target residual."""


class InternalError(RuntimeError):
    """A result failed its own re-verification."""
