"""Exception hierarchy shared across the package."""


class PermaframeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PermaframeError, ValueError):
    """Malformed input: bad permutation, shape mismatch, unparsable file."""


class ResourceLimitError(PermaframeError, RuntimeError):
    """A requested computation exceeds a configured size or memory budget."""


class CacheFormatError(PermaframeError, RuntimeError):
    """A setup cache on disk is missing, truncated, or inconsistent."""


class NumericalError(PermaframeError, RuntimeError):
    """A numerical invariant failed (e.g. an eigenbasis failed its residual check)."""
