"""Exception types shared across the package.

The split mirrors how failures are handled: validation problems
(:class:`ConfigError` and the data errors) are caller mistakes and map to
CLI exit code 2, while :class:`EstimationError` covers runtime failures of
an otherwise valid estimation run and maps to exit code 1.
"""


class PseudolearnError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(PseudolearnError, ValueError):
    """A file or table does not have the required columns/shape."""


class ParseError(PseudolearnError, ValueError):
    """A cell could not be parsed; message carries row/column location."""


class DomainError(PseudolearnError, ValueError):
    """A value outside its domain: ``data.all_numbers``, ``all_finite``,
    ``all_probabilities`` and ``all_binary`` name the first row not a number,
    finite, inside (0, 1) or 0 or 1; clip floors and non-finite CSV cells too."""


class ConfigError(PseudolearnError, ValueError):
    """An invalid configuration object (fold counts, hyperparameters,
    method lists, incompatible target/dataset combinations)."""


class EstimationError(PseudolearnError, RuntimeError):
    """A valid run could not be completed (degenerate treatment arm,
    empty group, insufficient data, all replications discarded)."""
