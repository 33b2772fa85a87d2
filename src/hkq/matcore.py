"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition, functional calculus of Hermitian matrices,
SVD, and the symmetric (anticommutator) Sylvester solver, with stacked
right-hand sides.  All scalars are
complex128; the acceptance tolerances (1e-9 .. 1e-12) need full double
precision.

Preconditions are checked at the public entry points only.  herm_eig,
herm_fun and sym_sylvester_solve given a matrix M run the Hermitian
pre-check (NotHermitian) on top of the finite-entry check of as_matrix
(ShapeMismatch).  Operands that the library builds Hermitian (x*x,
Id + w*w, M = x*x + X*X, any hermitian_part) go straight to the private
_eigh, which keeps the finite-entry check (a product that overflowed is
still refused) and the symmetrization, and skips the Hermitian test;
_eigvals is its eigenvalue-only form, for a caller that reads no
eigenvectors.  sym_sylvester_solve is the check (shapes, finite S, M
positive definite) plus the private body _sylvester.  The tangent
projectors of quotient.SliceBasis solve the same equation in M's
eigenbasis themselves, on the positive-definite check of the private
_check_positive_definite, taken once when the basis is built.

Everything here is a pure function of immutable inputs: no cache, no
module state and no warning, so it is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import HERMITIAN_TOL, PD_TOL
from .errors import (
    DomainViolation,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
)

__all__ = [
    "HermitianSpectrum",
    "as_matrix",
    "dagger",
    "fnorm",
    "herm_eig",
    "herm_fun",
    "hermitian_part",
    "skew_part",
    "is_hermitian",
    "psd_sqrt",
    "svd",
    "sym_sylvester_solve",
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

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ dagger(u)

    def fun(
        self,
        f: Callable[[np.ndarray], np.ndarray],
        domain_check: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Functional calculus on this spectrum: hermitian_part(U diag(f(lam)) U*).

        `domain_check` is a vectorized predicate on the eigenvalues (e.g.
        lam > 0 for log); offenders raise DomainViolation.  Several functions
        of one matrix (g and g^-1, h and m^{1/4}) share one
        factorization by calling fun on the same spectrum.
        """
        lam = self.eigenvalues
        if domain_check is not None:
            _check_domain(lam, domain_check(lam))
        u = self.eigenvectors
        out = (u * np.asarray(f(lam), dtype=np.float64)) @ dagger(u)
        return hermitian_part(out)


def _check_domain(lam: np.ndarray, ok) -> None:
    ok = np.asarray(ok, dtype=bool)
    if not np.all(ok):
        bad = lam[~ok]
        raise DomainViolation(
            f"eigenvalues outside the domain of the scalar map: {bad}",
            offending=bad,
        )


def psd_sqrt(lam: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a positive semi-definite matrix.

    Round-off negatives down to -HERMITIAN_TOL (1 + max|lam|) are clipped to
    zero; anything below raises DomainViolation.
    """
    _check_domain(lam, lam >= -HERMITIAN_TOL * (1.0 + np.max(np.abs(lam))))
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


def herm_fun(
    m,
    f: Callable[[np.ndarray], np.ndarray],
    domain_check: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix spectrally.

    Returns U diag(f(lam)) U*, exactly Hermitian by construction:
    herm_eig(m).fun(f, domain_check), see HermitianSpectrum.fun.  Public
    as the checked entry for a caller that holds the matrix, not its
    spectrum; inside hkq every operand is factored once and reused.
    """
    return herm_eig(m).fun(f, domain_check)


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition M = U diag(sigma) W*.

    Returns (U, sigma, W) with sigma non-negative descending and U, W having
    orthonormal columns (thin factors).
    """
    m = as_matrix(m)
    try:
        u, s, wh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return u, s, dagger(wh)


def sym_sylvester_solve(m, s) -> np.ndarray:
    """Solve (M a + a M)/2 = S for skew-Hermitian a.

    M is Hermitian positive definite, given as a matrix or as its
    HermitianSpectrum (so that several solves against one M share one
    eigendecomposition).  S is skew-Hermitian: one p x p matrix, or a stack
    (..., p, p) of right-hand sides solved against the same M, in which case
    the solutions come back stacked the same way.  The solution is computed in
    the eigenbasis of M via a_ij = 2 S_ij / (lam_i + lam_j) and is unique
    there since all lam_i + lam_j > 0.  M counts as positive definite when
    lam_min > PD_TOL * lam_max, a test that does not depend on the scale of
    M (k^2 Id at a base point is accepted for every k).
    """
    given = isinstance(m, HermitianSpectrum)
    shape = m.eigenvectors.shape if given else as_matrix(m, "M").shape
    s = np.asarray(s, dtype=np.complex128)
    if shape[0] != shape[1] or s.ndim < 2 or s.shape[-2:] != shape:
        raise ShapeMismatch(f"M {shape} must be square and S {s.shape} must end in it")
    if not np.all(np.isfinite(s)):
        raise ShapeMismatch("S contains non-finite entries")
    spec = m if given else herm_eig(m)
    _check_positive_definite(spec.eigenvalues)
    return _sylvester(spec, s)


def _check_positive_definite(lam: np.ndarray) -> None:
    """sym_sylvester_solve's rule on ascending eigenvalues: lam_min >
    PD_TOL * lam_max, else NotPositiveDefinite."""
    if lam.size and lam[0] <= PD_TOL * lam[-1]:
        raise NotPositiveDefinite(
            f"M must be positive definite, min eigenvalue {lam.min():.3e}"
        )


def _sylvester(spec: HermitianSpectrum, s: np.ndarray) -> np.ndarray:
    """The body of sym_sylvester_solve, unchecked: spec has passed
    _check_positive_definite and s is a complex128 stack (..., p, p) that
    ends in spec's shape.  A non-finite s gives a non-finite solution."""
    lam, u = spec.eigenvalues, spec.eigenvectors
    s_eig = dagger(u) @ s @ u
    denom = 0.5 * (lam[:, None] + lam[None, :])
    a_eig = s_eig / denom
    a = u @ a_eig @ dagger(u)
    return skew_part(a)
