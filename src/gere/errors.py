"""Exception types shared across the package."""


class GereError(Exception):
    """Base class for all package errors."""


class DataError(GereError):
    """Malformed or inconsistent input data (files, records, checksums)."""


class TrainingError(GereError):
    """A training update produced a non-finite loss or gradient norm."""


class DecodingError(GereError):
    """Inference-time failure; carries partial state where useful."""

    def __init__(self, message, partial_beams=None):
        super().__init__(message)
        self.partial_beams = partial_beams
