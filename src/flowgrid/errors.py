"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FlowgridError",
    "DomainError",
    "NonFiniteState",
    "ParseError",
    "NoRootError",
]


class FlowgridError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FlowgridError, ValueError):
    """An argument is outside the domain an operation is defined on.

    Raised for structural problems (odd step counts, times outside [0, 1],
    non-positive variances, schedules whose betas reach 1, ...) rather than
    numerical failures.
    """


class NonFiniteState(FlowgridError, FloatingPointError):
    """A sampler produced NaN or infinity; the whole batch is aborted."""


class ParseError(FlowgridError, ValueError):
    """A config/target file could not be parsed.

    The message always carries the file location (line number) and, when
    applicable, the offending key, e.g. ``config.txt:7: unknown key 'fop'``.
    """


class NoRootError(FlowgridError, ValueError):
    """A scalar equation had no root in the search bracket.

    Raised by :func:`~flowgrid.localization.interpolant_time_change` when
    the interpolant's ratio b/a is not strictly decreasing on (0, 1).
    """
