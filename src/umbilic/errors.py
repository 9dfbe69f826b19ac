"""Shared exception types."""


class InputError(ValueError):
    """Malformed input: dimension mismatch, asymmetric matrix, bad parameter."""


class DomainError(ValueError):
    """Evaluation outside the open domain of a chart's coordinate function."""


class DegenerateMetricError(RuntimeError):
    """An operation requiring a non-degenerate induced metric met a degenerate one."""
