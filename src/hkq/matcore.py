"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition and the functional calculus of a factored
Hermitian matrix.  All scalars are complex128; the acceptance tolerances
(1e-9 .. 1e-12) need full double precision.

Preconditions are checked at the public entry points only.  herm_eig given
a matrix M runs the Hermitian pre-check (NotHermitian) on top of the
finite-entry check of as_matrix (ShapeMismatch).  Operands that the
library builds Hermitian (V*V, M = x*x + X*X, any hermitian_part) go
straight to the private _eigh, which keeps the finite-entry check (a
product that overflowed is still refused) and the symmetrization, and
skips the Hermitian test; _eigvals is its eigenvalue-only form, for a
caller that reads no eigenvectors.

Everything here is a pure function of immutable inputs: no cache, no
module state and no warning, so it is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import HERMITIAN_TOL
from .errors import (
    DomainViolation,
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
)

__all__ = [
    "HermitianSpectrum",
    "as_matrix",
    "dagger",
    "fnorm",
    "herm_eig",
    "hermitian_part",
    "skew_part",
    "is_hermitian",
    "psd_sqrt",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a stack (..., r, c) is transposed matrix by matrix."""
    return m.conj().swapaxes(-1, -2)


def fnorm(m) -> float:
    """Frobenius norm: the flat 2-norm of the entries.

    Where the plain sum of squares is a finite normal float, the same
    operations as np.linalg.norm(m) (ravel, real.real + imag.imag, square
    root), bit for bit, without its Python-level argument handling.  Where
    it overflows (entries past about 1e154) or falls below the normal
    range (a zero matrix, or entries below about 1e-154), the sum is taken
    again on the entries divided by the largest modulus, as LAPACK's
    scaled norms do, so the norm stays finite and keeps its digits.  The
    sums are np.vdot, which rounds as ndarray.dot does and raises no
    floating-point warning on overflow."""
    a = np.asarray(m)
    if not issubclass(a.dtype.type, np.inexact):
        a = a.astype(float)
    a = a.ravel(order="K")
    total = _sum_squares(a)
    if _TINY <= total < math.inf:  # false for nan too
        return math.sqrt(total)
    scale = float(np.max(np.abs(a), initial=0.0))
    if not 0.0 < scale < math.inf:
        return scale  # 0 for a zero or empty matrix; inf or nan propagate
    return scale * math.sqrt(_sum_squares(a / scale))


# the smallest positive normal float64
_TINY = float(np.finfo(np.float64).tiny)


def _sum_squares(a: np.ndarray) -> float:
    """Sum of the squared moduli of a flat array, real and imaginary parts
    summed separately, as np.linalg.norm sums them; added as Python floats,
    which overflow to inf without a warning."""
    if a.dtype.kind == "c":
        re, im = a.real, a.imag
        return float(np.vdot(re, re)) + float(np.vdot(im, im))
    return float(np.vdot(a, a))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def skew_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - dagger(m))


def is_hermitian(m: np.ndarray) -> bool:
    """||M - M*||_F <= HERMITIAN_TOL ||M||_F for a square M: the verdict
    does not change when M is scaled."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        return False
    return fnorm(m - dagger(m)) <= HERMITIAN_TOL * fnorm(m)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the corresponding
    unitary matrix of column eigenvectors, so that
    U diag(lam) U* reconstructs the input to 1e-12 (1 + ||input||_F).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def fun(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Functional calculus on this spectrum: hermitian_part(U diag(f(lam)) U*).

        Several functions of one matrix (g and g^-1, cosh h and sinh h)
        share one factorization by calling fun on the same spectrum.
        """
        u = self.eigenvectors
        out = (u * np.asarray(f(self.eigenvalues), dtype=np.float64)) @ dagger(u)
        return hermitian_part(out)


def psd_sqrt(lam: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a positive semi-definite matrix.

    Round-off negatives down to -HERMITIAN_TOL (1 + max|lam|) are clipped to
    zero; anything below raises DomainViolation.
    """
    bad = lam[~(lam >= -HERMITIAN_TOL * (1.0 + np.max(np.abs(lam))))]
    if bad.size:
        raise DomainViolation(
            f"eigenvalues outside the domain of the scalar map: {bad}", offending=bad)
    return np.sqrt(np.clip(lam, 0.0, None))


def herm_eig(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is checked against the Hermitian tolerance and then symmetrized
    as (M + M*)/2 before factorization; round-off from products like x*x is
    absorbed here rather than propagated.

    Raises NotHermitian if the pre-check fails, NoConvergence if LAPACK does.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"herm_eig needs a square matrix, got {m.shape}")
    if not is_hermitian(m):
        raise NotHermitian(
            f"matrix is not Hermitian within {HERMITIAN_TOL:g} ||M||: "
            f"||M - M*|| = {fnorm(m - dagger(m)):.3e}"
        )
    return _factor(m)


def _eigh(m) -> HermitianSpectrum:
    """herm_eig without the Hermitian pre-check, for square operands that
    are Hermitian by construction (up to round-off).  The finite-entry
    check stays: a product that overflowed raises ShapeMismatch here."""
    return _factor(as_matrix(m))


def _eigvals(m) -> np.ndarray:
    """Eigenvalues only, ascending, of a square operand Hermitian by
    construction: _eigh without the eigenvectors, for a caller that reads
    nothing else.  The same finite-entry check (ShapeMismatch) and
    symmetrization; a LAPACK failure raises NoConvergence."""
    try:
        return np.linalg.eigvalsh(hermitian_part(as_matrix(m)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def _factor(m: np.ndarray) -> HermitianSpectrum:
    """Symmetrize and factor a checked square complex128 matrix."""
    try:
        lam, u = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return HermitianSpectrum(eigenvalues=lam, eigenvectors=u)
