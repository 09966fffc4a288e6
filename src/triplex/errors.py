"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "TriplexError",
    "ConfigurationError",
    "TransportError",
    "ExtractionError",
    "BankValidationError",
    "GoldValidationError",
]


class TriplexError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TriplexError):
    """Invalid or missing configuration. Fatal: the CLI exits with code 2."""


class TransportError(TriplexError):
    """Endpoint unreachable after all retries. Recorded per chunk, non-fatal."""


class ExtractionError(TriplexError):
    """Raised when every chunk of an extraction run failed."""


class BankValidationError(TriplexError):
    """An example bank lacks ingredients required by the requested prompt variant."""

    def __init__(self, deficiencies: list[str]) -> None:
        self.deficiencies = list(deficiencies)
        super().__init__("example bank is incomplete: " + "; ".join(self.deficiencies))


class GoldValidationError(TriplexError):
    """A gold benchmark file is malformed beyond repair."""
