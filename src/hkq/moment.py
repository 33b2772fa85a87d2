"""Moment maps of the two group actions and the level-set residual.

Values are returned as p x p trace-pairing representatives: the functional
is a |-> Tr(value . a) on skew-Hermitian a.  moment(which, pt) returns
the plain matrix of the tag `which`, one of MOMENT_TAGS (ValueError for
any other):

    muC : X*x                          (complex moment map, unconstrained)
    mu1 : -(i/2) (x*x - X*X)           (skew-Hermitian)
    mu2 :  (1/2) (X*x - x*X)           (skew-Hermitian, Re muC)
    mu3 : -(i/2) (X*x + x*X)           (skew-Hermitian, Im muC)

muC = mu2 + i mu3 holds exactly at the matrix level.  The level set is
{X*x = 0, x*x - X*X = k^2 Id}; on it mu1 equals -(i/2) k^2 Id, the invariant
level value.

A stable set does not depend on a tolerance; only a verdict does.  So
the numbers a rule reads (||X*x||_F and x's factors, the certificate's
residuals, x +/- X and its thin QRs) are memoized on the point, read-only
(hkspace._memo), and the rule is applied at the caller's tol on every
call: in_stable1, psi1, project1 and the k1 routes, or in_stable3, psi3,
project3 and the k3 routes, on one point at any tols, factor it once.
x +/- X is formed once, by _plus_minus, for the third-stable verdict, its
thin QRs (_pm_factors), the spectral route and psi3's z.  The verdict
factors nothing where the equations' residuals certify the rank, so
in_stable3 and K3_spectral take no QR; the QRs are taken for the frames
of psi3's pair, or for a verdict that the certificate does not decide.

The first structure stands on one thin QR x = F R (_x_factors): F frames
Ran x, and R = F* x is |x| up to a unitary, which is all that psi1,
project1 and the k1 routes read of x.  A thin SVD of x would be that QR
followed by an SVD of the p x p factor R (Chan, ACM TOMS 8, 1982), so the
rank rule reads the values-only SVD of R and no n x p SVD is taken.
sampling._draw_stable1, which takes the factors for its rejection rule,
stores them on the point it returns.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_MEMBERSHIP_TOL
from .errors import BadIndex, NotInStable1, NotInStable3, NotSkew, ShapeMismatch
from .hkspace import ConfigPoint, TangentPair, _memo, _read_only, omega
from .matcore import as_matrix, dagger, fnorm, hermitian_part, skew_part

__all__ = [
    "MOMENT_TAGS",
    "in_stable1",
    "in_stable3",
    "infinitesimal_action",
    "level_residual",
    "moment",
    "moment_pairing_check",
    "on_level_set",
]

MOMENT_TAGS = ("mu1", "mu2", "mu3", "muC")


def moment(which: str, pt: ConfigPoint) -> np.ndarray:
    """Evaluate the moment map `which` at pt as a p x p matrix."""
    x, X = pt.x, pt.X
    if which == "muC":
        return dagger(X) @ x
    if which == "mu1":
        return -0.5j * (dagger(x) @ x - dagger(X) @ X)
    if which == "mu2":
        return 0.5 * (dagger(X) @ x - dagger(x) @ X)
    if which == "mu3":
        return -0.5j * (dagger(X) @ x + dagger(x) @ X)
    raise ValueError(f"unknown moment tag {which!r}, expected one of {MOMENT_TAGS}")


def level_residual(pt: ConfigPoint) -> tuple[float, float]:
    """Frobenius residuals of the level-set equations.

    Returns (||X*x||, ||x*x - X*X - k^2 Id||); both scale like k^2, so
    membership is judged against tol * k^2.
    """
    x, X = pt.x, pt.X
    return _level_residual(dagger(x) @ x, dagger(X) @ X, dagger(X) @ x, pt.trunc.k2)


def _level_residual(xx: np.ndarray, XX: np.ndarray, Xx: np.ndarray,
                    k2: float) -> tuple[float, float]:
    """level_residual from the products x*x, X*X and X*x, for a caller that
    uses them again (the tangent projectors build M = x*x + X*X from them)."""
    return fnorm(Xx), fnorm(xx - XX - k2 * np.eye(xx.shape[0]))


def _within_tol(residual: float, t: float, k2: float) -> bool:
    """The membership bound, the one place it is written: a residual of the
    degree-2 level and stable-set equations passes when it is at most
    t * k^2."""
    return bool(residual <= t * k2)


def on_level_set(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    return _within_tol(max(level_residual(pt)), tol, pt.trunc.k2)


def _full_rank(s: np.ndarray, tol: float) -> bool:
    """True when the descending singular values s have
    sigma_min > tol * sigma_max (full numerical rank)."""
    return bool(s.size and s[-1] > tol * s[0])


def in_stable1(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Membership in the stable set of the first structure:
    X*x = 0 (to tol * k^2) and x one-to-one.  The verdict of _stable1_qr,
    the one computation of this rule."""
    try:
        _stable1_qr(pt, tol, "")
    except NotInStable1:
        return False
    return True


def _stable1_qr(pt: ConfigPoint, tol: float,
                refusal: str) -> tuple[np.ndarray, np.ndarray]:
    """First-stable membership at tol, for every entry that needs it:
    X*x = 0 to tol * k^2 first, so nothing is factored for a point off the
    equation, then the rank half, sigma_min > tol * sigma_max, on the
    singular values of R from _x_factors; both on memoized numbers.
    Returns the thin QR factors (F, R) of x that the caller reads (psi1's
    frame, project1's level section, the k1 routes' R), or raises
    NotInStable1(refusal)."""
    xx = _memo(pt, "X*x norm", lambda: fnorm(dagger(pt.X) @ pt.x))
    if not _within_tol(xx, tol, pt.trunc.k2):
        raise NotInStable1(refusal)
    f, r, s = _x_factors(pt)
    if not _full_rank(s, tol):
        raise NotInStable1(refusal)
    return f, r


def _x_factors(pt: ConfigPoint,
               taken: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, R, s): the thin QR x = F R and the descending singular values s
    of the p x p factor R, which are those of x; read-only and memoized on
    pt.  taken is _factor_x(pt.x) when the caller has already computed it
    (a sampler's draw): it is stored as it is, the same bits as a fresh
    computation, since it is the same function of the same array."""
    return _memo(pt, "x factors", lambda: _factor_x(pt.x) if taken is None else taken)


def _factor_x(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_x_factors of an n x p matrix x: one thin QR and the singular values
    of its R."""
    f, r = np.linalg.qr(x)
    return _read_only(f), _read_only(r), _read_only(np.linalg.svd(r, compute_uv=False))


def in_stable3(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Membership in the stable set of the third structure:
    x*x - X*X = k^2 Id, X*x Hermitian (both to tol * k^2), and both x + X
    and x - X of full numerical rank.  The verdict of _stable3_verdict,
    the one computation of this rule, which factors nothing where the
    equations' residuals certify the rank."""
    try:
        _stable3_verdict(pt, tol, "")
    except NotInStable3:
        return False
    return True


def _stable3_verdict(pt: ConfigPoint, tol: float, refusal: str) -> None:
    """Third-stable membership at tol, for every entry that needs it, by
    the rule of _stable1_qr: the equations x*x - X*X = k^2 Id and X*x
    Hermitian to tol * k^2 first, then the rank half, sigma_min >
    tol * sigma_max for both A = x + X and C = x - X; else
    NotInStable3(refusal).

    Both halves read the one product E = C*A - k^2 Id.  Expanding,

        E = (x*x - X*X - k^2 Id) + (x*X - X*x),

    the Hermitian part of E is the first equation's residual and its skew
    part the second's, so r1 = ||herm E||_F = ||x*x - X*X - k^2 Id||_F and
    r2 = ||skew E||_F = ||X*x - x*X||_F, and ||E||_2 <= r1 + r2.  For a
    unit vector v, ||C*A v|| >= k^2 - r1 - r2, and
    ||C*A v|| <= sigma_max(C) ||A v||, so
    sigma_min(A) sigma_max(C) >= k^2 - r1 - r2; A*C = (C*A)* gives the same
    with A and C swapped.  With sigma_max <= ||.||_F, both ratios
    sigma_min / sigma_max are at least (k^2 - r1 - r2) / (||A||_F ||C||_F).
    So where 2 tol ||A||_F ||C||_F < k^2 - r1 - r2, the rule holds for
    both with a factor-2 margin over the round-off of computed singular
    values, and nothing is factored.  Elsewhere the rule is applied to the
    values-only singular values of the p x p factors R_A and R_C of the
    thin QRs of _pm_factors, which are those of A and C.  The certificate
    is homogeneous of degree 2 in (x, X, k), as the rule is.  r1, r2 and
    ||A||_F ||C||_F are memoized on pt."""
    def residuals():
        a, c = _plus_minus(pt)
        e = dagger(c) @ a - pt.trunc.k2 * np.eye(pt.trunc.p)
        return fnorm(hermitian_part(e)), fnorm(skew_part(e)), fnorm(a) * fnorm(c)

    r1, r2, ac = _memo(pt, "stable3 residuals", residuals)
    k2 = pt.trunc.k2
    if not (_within_tol(r1, tol, k2) and _within_tol(r2, tol, k2)):
        raise NotInStable3(refusal)
    if not (2.0 * tol * ac < k2 - r1 - r2
            or all(_full_rank(np.linalg.svd(r, compute_uv=False), tol)
                   for r in _pm_factors(pt)[1::2])):
        raise NotInStable3(refusal)


def _plus_minus(pt: ConfigPoint) -> tuple[np.ndarray, np.ndarray]:
    """(x + X, x - X), read-only and memoized on pt."""
    return _memo(pt, "x +/- X", lambda: (_read_only(pt.x + pt.X), _read_only(pt.x - pt.X)))


def _pm_factors(pt: ConfigPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Q_A, R_A, Q_C, R_C): the thin QRs A = Q_A R_A and C = Q_C R_C of
    _plus_minus, read-only and memoized on pt, so a verdict that read
    the R factors leaves the frames of psi3's pair factored."""
    def factor():
        a, c = _plus_minus(pt)
        qa, ra = np.linalg.qr(a)
        qc, rc = np.linalg.qr(c)
        return _read_only(qa), _read_only(ra), _read_only(qc), _read_only(rc)

    return _memo(pt, "x +/- X factors", factor)


def _check_skew(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"a must be square, got {a.shape}")
    err = fnorm(a + dagger(a))
    if err > 1e-10 * fnorm(a):  # relative: the verdict does not change with scale
        raise NotSkew(f"a must be skew-Hermitian, ||a + a*|| = {err:.3e}")
    return a


def infinitesimal_action(j: int, a: np.ndarray, pt: ConfigPoint) -> TangentPair:
    """Vector field (-x a, -X a) of a skew-Hermitian a at pt, the same for
    every structure pairing j.

    For omega_1 the compact group acts on both slots by -a; for omega_2/3
    the complexified action contributes (-x a, X a*), and a* = -a for a
    skew-Hermitian a, the only kind moment_pairing_check admits.  The j
    pairings differ in omega_j alone.  A j outside {1, 2, 3} raises
    BadIndex, as apply_I and omega do.
    """
    if j not in (1, 2, 3):
        raise BadIndex(f"complex-structure index must be 1, 2 or 3, got {j}")
    return TangentPair(-pt.x @ a, -pt.X @ a)


def _pairing_derivative(j: int, pt: ConfigPoint, a: np.ndarray, v: TangentPair) -> float:
    """Exact directional derivative of Tr(moment_j . a) along v.

    Each moment matrix is quadratic in (x, X), so the derivative is the
    closed-form polarization, no differencing involved.
    """
    x, X, Z, T = pt.x, pt.X, v.Z, v.T
    if j == 1:
        d = -0.5j * (dagger(Z) @ x + dagger(x) @ Z - dagger(T) @ X - dagger(X) @ T)
    elif j == 2:
        d = 0.5 * (dagger(X) @ Z + dagger(T) @ x - dagger(Z) @ X - dagger(x) @ T)
    elif j == 3:
        d = -0.5j * (dagger(X) @ Z + dagger(T) @ x + dagger(Z) @ X + dagger(x) @ T)
    else:
        raise BadIndex(f"complex-structure index must be 1, 2 or 3, got {j}")
    return float(np.trace(d @ a).real)


def moment_pairing_check(
    pt: ConfigPoint, a: np.ndarray, v: TangentPair, j: int
) -> tuple[float, float]:
    """Both sides of the defining equation of the j-th moment map.

    lhs is the closed-form derivative of the a-pairing along v; rhs is
    omega_j evaluated on (generated vector field, v).  They agree to
    1e-11 (1 + |lhs|); this identity is the module's oracle.  A j outside
    {1, 2, 3} raises BadIndex.
    """
    a = _check_skew(a)
    lhs = _pairing_derivative(j, pt, a, v)
    rhs = omega(j, infinitesimal_action(j, a, pt), v)
    return lhs, rhs
