"""Structured validation errors.

Every rejection carries a stable ``code`` (machine-checkable) and a human
readable message naming the violated condition, plus the first witness found
under the fixed scan order.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input failed a structural or axiomatic check."""

    def __init__(self, code: str, message: str, witness=None):
        self.code = code
        self.witness = witness
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(f"{code}: {message}")
