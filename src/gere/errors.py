"""Exception types shared across the package."""


class GereError(Exception):
    """Base class for all package errors."""


class DataError(GereError):
    """Malformed or inconsistent input data (files, records, checksums)."""


class TrainingError(GereError):
    """A training update produced a non-finite loss or gradient norm."""


class DecodingError(GereError):
    """Inference-time failure: an empty trie, or a beam in which no
    hypothesis could finish."""
