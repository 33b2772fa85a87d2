"""Exception hierarchy shared by all hkq modules.

Every error raised by the library derives from HkqError so callers (and the
CLI, which maps them to exit code 2) can catch library failures in one clause.
"""

from __future__ import annotations


class HkqError(Exception):
    """Base class for all hkq errors."""


class ShapeMismatch(HkqError):
    """Operands have incompatible shapes."""


class NotHermitian(HkqError):
    """Matrix fails the Hermitian pre-check."""


class NotUnitary(HkqError):
    """Matrix fails the unitarity pre-check."""


class NotSkew(HkqError):
    """Matrix fails the skew-Hermitian pre-check."""


class NotPositiveDefinite(HkqError):
    """Operand that must be positive definite has an eigenvalue at or below
    zero."""


class NoConvergence(HkqError):
    """Underlying eigen/SVD iteration failed to converge."""


class DomainViolation(HkqError):
    """Scalar function applied outside its domain; carries the offenders."""

    def __init__(self, message: str, offending=None):
        super().__init__(message)
        self.offending = offending


class Singular(HkqError):
    """Group element (or operator required invertible) is singular."""


class BadIndex(HkqError):
    """Complex-structure index outside {1, 2, 3}."""


class NotOnLevelSet(HkqError):
    """Point fails the level-set membership tolerance."""


class NotInStable1(HkqError):
    """Point is not in the stable set of the first complex structure."""


class NotInStable3(HkqError):
    """Point is not in the stable set of the third complex structure."""


class NotTransversal(HkqError):
    """Subspace pair is not transversal (P and Q intersect numerically)."""


class BadCotangent(HkqError):
    """Cotangent data violates its structural invariants."""


class DegenerateSample(HkqError):
    """Sampler failed to produce a well-conditioned point within retries."""


class FileFormatError(HkqError):
    """JSON input file violates the documented schema."""
