"""Exception hierarchy shared by all hkq modules.

The library raises two classes of error.  A failure judged on the
mathematical input (a shape, a membership rule, a structure index, a file's
schema, a sampler that gives up) raises a subclass of HkqError, so callers
can catch those in one clause.  A bad argument of another kind (an unknown
name or tag, an out-of-range count or parameter: Truncation's p, q and k,
evaluate_routes' potential tag, K3_hat_cotangent's route, moment's tag,
run_suite's suite and trials, sample_point's space) raises the builtin
ValueError, as numpy does for a write into a read-only array.  The CLI
maps both to exit code 2, in separate clauses.
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
