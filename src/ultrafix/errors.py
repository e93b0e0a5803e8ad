"""Exception hierarchy shared by all solver modules.

Every error carries a stable ``kind`` string (the class name) and an optional
``details`` dict so the CLI can serialize failures without guessing.
"""

from __future__ import annotations


class UltrafixError(Exception):
    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details

    @property
    def kind(self) -> str:
        return type(self).__name__


class SchemaError(UltrafixError):
    """Malformed request or JSON payload."""


class DivisionByZero(UltrafixError):
    """Division by an exactly-zero field element."""


class PrecisionExhausted(UltrafixError):
    """An operation needed digits that the tracked precision no longer has."""


class BudgetExceeded(UltrafixError):
    """A request asks for more than a documented budget allows."""


class SingularMatrix(UltrafixError):
    """No nonzero pivot at tracked precision."""


class NotAContraction(UltrafixError):
    """Operator norm at least 1 where a norm < 1 was required."""


class DimensionMismatch(UltrafixError):
    pass


class DomainViolation(UltrafixError):
    """Point or ball outside the map's declared domain."""


class NotAdmissible(UltrafixError):
    """The iteration is not guaranteed to stay inside its domain ball."""


class DomainEscape(UltrafixError):
    """An iterate left the domain ball or violated its step bound."""


class NotAFixedPoint(UltrafixError):
    pass


class SingularA(UltrafixError):
    """The anchor operator of a certificate is not invertible."""


class NotCertifiable(UltrafixError):
    """Strictness modulus too large for the anchor operator."""

    def __init__(self, sigma, threshold):
        from .field import num_str  # field imports this module

        super().__init__(
            f"strictness bound {num_str(sigma)} is not below 1/|A^-1| = {num_str(threshold)}",
            sigma=num_str(sigma),
            threshold=num_str(threshold),
        )
        self.sigma = sigma
        self.threshold = threshold


class InconsistentCertificate(UltrafixError):
    """The constants of an inversion certificate contradict each other."""

    def __init__(self, failed, constants):
        from .field import num_str  # field imports this module

        super().__init__(
            "inversion certificate constants are inconsistent: " + "; ".join(failed),
            failed=list(failed),
            **{name: num_str(value) for name, value in constants.items()},
        )


class TargetOutsideGuarantee(UltrafixError):
    """Requested target lies outside the certified image."""


class OutsideWindow(UltrafixError):
    """Parameter or target outside a certified window."""


class WindowNotFound(UltrafixError):
    """Radius search exhausted without certifying a window."""
