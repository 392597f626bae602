"""Exception types shared across the package."""

from __future__ import annotations


class QPerturbError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QPerturbError):
    """Operands have incompatible shapes or an index is out of range."""


class ZeroVector(QPerturbError):
    """An operation that needs a nonzero vector received the zero vector."""


class NoConvergence(QPerturbError):
    """The eigensolver's basis did not meet its off-diagonal tolerance:
    ``off_norm`` is the off-diagonal norm of W left after ``sweeps``
    restarts from W."""

    def __init__(self, sweeps: int, off_norm: float):
        self.sweeps = sweeps
        self.off_norm = off_norm
        super().__init__(
            f"off-diagonal norm still above tolerance after {sweeps} restarts"
            f" (remaining {off_norm:.3e})"
        )


class AttemptsExhausted(QPerturbError, RuntimeError):
    """Seeded rejection sampling used up its attempts without a nondegenerate draw.

    Also a ``RuntimeError``, so callers that caught the untyped error still do.
    """

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no nondegenerate instance found in {attempts} attempts")


class DegenerateDenominator(QPerturbError):
    """A level denominator vanished with a non-negligible numerator.

    First-order theory with 1/(E - E_m) weights does not apply to
    degenerate levels; the offending basis index is stored in ``level``.
    """

    def __init__(self, level: int, denominator: float, numerator: float):
        self.level = level
        self.denominator = denominator
        self.numerator = numerator
        super().__init__(
            f"level {level}: |E - E_{level}| = {denominator:.3e} is below tolerance "
            f"while the numerator magnitude {numerator:.3e} is not negligible"
        )


class InsufficientData(QPerturbError):
    """Too few grid points to fit a convergence order."""


class ParseError(QPerturbError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        msg = reason if line is None else f"line {line}: {reason}"
        super().__init__(msg)


class NonHermitianInput(QPerturbError):
    """Raw entries violate hermiticity beyond tolerance."""

    def __init__(self, max_violation: float):
        self.max_violation = max_violation
        super().__init__(
            f"matrix is not Hermitian (max |A[i,j] - conj(A[j,i])| = {max_violation:.3e})"
        )


class NotNormalized(QPerturbError):
    """State coefficients are too far from unit norm."""

    def __init__(self, norm: float):
        self.norm = norm
        super().__init__(f"state vector has norm {norm!r}, expected 1")
