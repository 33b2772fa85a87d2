"""Kahler-potential formulas and their cross-checkable routes.

The first-structure potential comes in three forms that must agree:

  closed     (k^2/4) log det(x*x/k^2) + (k^2/2) Tr(gamma gamma*/k^2 - Id)
             - (k^2/4) Tr log(gamma gamma*/k^2)
  fiber      (k^2/4) log det(x*x/k^2) + (k^2/4) Tr((Id + 4V*V)^{1/2} - Id)
             - (k^2/4) Tr log (1/2)(Id + (Id + 4V*V)^{1/2})
  curvature  (k^2/4) log det(x*x/k^2) + k^2 g_Gr(f(Op) V, V),
             f(u) = (1/u)(sqrt(1+u) - 1 - log((1 + sqrt(1+u))/2)), f(0) = 1/4

with V the fiber coordinate of the cotangent image, psi1(pt).V.  The
third-structure potential likewise:

  spectral   (1/4) Tr(D^{1/2} - k^2 Id) on its commuting locus,
             D = k^4 Id + 4 x*x X*X - 4 (x*X)^2
  level      flat potential of the orbit's level-set representative
  angles     (k^2/4) sum_i (1/cos(theta_i) - 1) over the characteristic
             angles of the subspace pair, evaluated as
             (k^2/4) sum_i a_i^2 / (sqrt(1 + a_i^2) + 1), a_i = tan(theta_i)

and the cotangent form of the third potential

  (k^2/4) Tr((Id + 4V*V)^{1/2} - Id) = k^2 g_Gr(h(Op) V, V),
  h(u) = (1/u)(sqrt(1+u) - 1), h(0) = 1/2.

K3 vanishes on the zero section with zero gradient, so a route that forms
it as sqrt(1 + u) - 1 loses it to cancellation at small u: a value of size
a^2 k^2 would carry an error of size eps k^2.  The angles and cotangent
routes write sqrt(1 + u) - 1 as u / (sqrt(1 + u) + 1) instead, and keep
relative accuracy down to the error eps / a of the graph singular values
a themselves.

The D shown for the spectral route is the commuting-locus collapse of the
ordered operand (x+X)*(x+X)(x-X)*(x-X); see _spectral_operand_eigs.

The generic quotient-potential formula assembles the flat potential at the
projected point with the determinant character term (k^2/2) log |det g|.

Sharing rule.  Routes share no route-specific formula: each route is one
private body.  evaluate_routes runs every body of a potential; K1_closed,
K3_spectral, quotient_potential and the K3_hat functions are single routes
with their own check (membership, and the IntegralityWarning for K1)
followed by the body.  An input that every route would compute
bit-identically from the same point is computed once instead:
evaluate_routes checks membership and warns once per call, and hands the
bodies what they share: for k1 the one thin QR x = F R on which
moment._stable1_qr judges first-stable membership, with the log-det term
and the fiber operand formed on R (_x_factor); for k3 and k3hat psi3's pair
without its orbit operator z (grassmann._orbit_pair), P and Q^perp from
the Q factors of the two thin QRs of moment._stable3_frames, taken after
moment._stable3_verdict judges third-stable membership, the one rule that
in_stable3, K3_spectral and psi3 apply too (its rank half certified by the
equations' own residuals), and its one graph w.  For k1 the QR gives
the curvature route psi1's frame of P, F itself; the level route reads
project1's result, which project1 builds on the same factors, and none of
the k1 inputs.
R = (unitary) |x|, so log det(x*x) = 2 sum log |R_ii| and (X R*)*(X R*)
is unitarily similar to |x| X*X |x|: x*x, whose eigendecomposition would
square cond(x), is not formed.  K1_closed forms the
log-det term and the fiber operand the same way.  The curvature route
reads V through psi1's grassmann._fiber (psi1 is no route).

"Computed once" also spans calls on one value: the membership factors,
psi3's pair, its graph w and the results of project1 and project3 are
memoized on the immutable point or pair per tol (hkspace._memo).  So
project1 followed by evaluate_routes(pt, "k1") projects once, and
project3, evaluate_routes(pt, "k3"), psi3 and characteristic_angles on
one point judge membership and build w once.  A deterministic function
of the same input returns the same bits on each call, so each route
value, and each cross-check residual between routes, is the same as from
the single-route functions and as on a fresh copy of the point; a fault
in such a shared input reaches every route that reads it either way, and
no cross-check compares two evaluations of one function on one input.

Each body factors only what it reads: a route that reads eigenvalues
alone takes them from matcore._eigvals, and the spectral route reduces its
non-Hermitian operand by a Cholesky factor, not a matrix square root.
"""

from __future__ import annotations

import warnings
import numpy as np

from .config import DEFAULT_MEMBERSHIP_TOL
from .errors import NotInStable1, NotPositiveDefinite
from .grassmann import (
    OrbitPair,
    _angles,
    _fiber,
    _graph,
    _orbit_pair,
    characteristic_angles,
    curvature_fun_apply,
)
from .hkspace import ConfigPoint, _half_k2_integral, flat_potential_K
from .matcore import (
    _eigvals,
    as_matrix,
    dagger,
    hermitian_part,
    is_hermitian,
    psd_sqrt,
)
from .moment import _stable1_qr, _stable3_verdict, _x_factors
from .quotient import ProjectionResult, project1, project3

__all__ = [
    "IntegralityWarning",
    "K1_closed",
    "K3_hat_angles",
    "K3_hat_cotangent",
    "K3_spectral",
    "character_log_term",
    "curvature_weight_k1",
    "curvature_weight_k3hat",
    "evaluate_routes",
    "quotient_potential",
]


class IntegralityWarning(UserWarning):
    """k^2/2 is not a positive integer, so the circle character behind the
    quotient-potential formula does not strictly exist; the real-valued
    expressions remain well defined and are still evaluated."""


def _warn_integrality(k: float) -> None:
    """Emit IntegralityWarning, attributed to the caller of the public
    function that calls this directly, unless k^2/2 is a positive
    integer."""
    if not _half_k2_integral(k):
        warnings.warn(
            IntegralityWarning(f"k^2/2 = {k * k / 2.0:g} is not a positive integer"),
            stacklevel=3,
        )


def curvature_weight_k1(u: float) -> float:
    """f(u) = (1/u)(sqrt(1+u) - 1 - log((1 + sqrt(1+u))/2)), extended by
    f(0) = 1/4 (the singularity is removable: f(u) = 1/4 - u/32 + ...)."""
    if u < 1e-8:
        return 0.25 - u / 32.0 + u * u / 96.0
    s = np.expm1(0.5 * np.log1p(u))  # sqrt(1+u) - 1, stable for small u
    return float((s - np.log1p(0.5 * s)) / u)


def curvature_weight_k3hat(u: float) -> float:
    """h(u) = (1/u)(sqrt(1+u) - 1), extended by h(0) = 1/2."""
    if u < 1e-12:
        return 0.5 - u / 8.0
    return float(np.expm1(0.5 * np.log1p(u)) / u)


def _x_factor(pt: ConfigPoint) -> np.ndarray:
    """R of the thin QR x = F R, a unitary times |x|, as memoized on pt
    (moment._x_factors): the k1 routes' log-det term and fiber operand are
    formed on it."""
    return _x_factors(pt)[1]


def _logdet_term(pt: ConfigPoint, r: np.ndarray) -> float:
    """(k^2/4) log det(x*x / k^2) = (k^2/2) sum_i log(|R_ii| / |k|), from
    the factor r = _x_factor(pt)."""
    k = pt.trunc.k
    d = np.abs(np.diagonal(r))
    if not np.all(d > 0):
        raise NotInStable1("x is not injective")
    return float(0.5 * k * k * np.sum(np.log(d / abs(k))))


def _fiber_operand(pt: ConfigPoint, r: np.ndarray) -> np.ndarray:
    """(4/k^4) (X R*)*(X R*), unitarily similar to (4/k^4) |x| X*X |x|:
    its spectrum is that of 4 V*V for the fiber coordinate V."""
    y = (2.0 / pt.trunc.k2) * (pt.X @ dagger(r))
    return dagger(y) @ y


def K1_closed(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> float:
    """First-structure potential in the closed form of the level projection.
    Membership is checked (NotInStable1) before any IntegralityWarning."""
    _stable1_qr(pt, tol, "K1 requires X*x = 0 and injective x")
    _warn_integrality(pt.trunc.k)
    r = _x_factor(pt)
    return _k1_closed(pt, _logdet_term(pt, r), _fiber_operand(pt, r))


def _k1_closed(pt: ConfigPoint, logdet: float, fiber: np.ndarray) -> float:
    k2 = pt.trunc.k2
    # gamma gamma*/k^2 = (1/2)(Id + mu^{1/2}), mu = Id + (4/k^4)|x| X*X |x|
    mu = _eigvals(np.eye(pt.trunc.p) + fiber)
    lam = 0.5 * (1.0 + psd_sqrt(mu))
    term2 = 0.5 * k2 * float(np.sum(lam - 1.0))
    term3 = -0.25 * k2 * float(np.sum(np.log(lam)))
    return logdet + term2 + term3


def _k1_fiber(pt: ConfigPoint, logdet: float, fiber: np.ndarray) -> float:
    k2 = pt.trunc.k2
    u = np.clip(_eigvals(fiber), 0.0, None)  # 4 V*V, round-off negatives clipped
    root = np.sqrt(1.0 + u)
    term2 = 0.25 * k2 * float(np.sum(root - 1.0))
    term3 = -0.25 * k2 * float(np.sum(np.log(0.5 * (1.0 + root))))
    return logdet + term2 + term3


def _k1_curvature(pt: ConfigPoint, logdet: float, fp: np.ndarray) -> float:
    """V's singular values are read off its ambient form _fiber(pt, F_P)
    (n x p), psi1(pt).V, which has those of the frame coordinate
    F_Pperp* V F_P, so no frame of P^perp is built."""
    v = _fiber(pt, fp)
    return logdet + pt.trunc.k2 * curvature_fun_apply(curvature_weight_k1, v)


def _spectral_operand_eigs(pt: ConfigPoint) -> np.ndarray:
    """Spectrum of the constraint-set operand of the third potential.

    The operand is the ordered product

        H G = (x + X)*(x + X) . (x - X)*(x - X),

    whose spectrum is positive on the whole stable set: moving the point to
    the level set conjugates the product into the square of x*x + X*X
    there.  When X*X and x*X commute (the level set, every canonical
    section point, and all of p = 1) it collapses to the symmetric form
    k^4 Id + 4 x*x X*X - 4 (x*X)^2; in general that symmetric matrix is
    off by the commutator 4 [X*X, x*X] and can fail to be positive, so the
    product form is the one evaluated.  The non-Hermitian product is never
    factored directly: its spectrum is that of the Cholesky Hermitization
    L* H L with G = L L* (the reduction of LAPACK's zhegst for the pencil
    A B x = lam x), which is similar to H G.  A Cholesky factorization
    that fails (G not numerically positive definite) raises
    NotPositiveDefinite, as does a non-positive eigenvalue.
    """
    h = dagger(pt.x + pt.X) @ (pt.x + pt.X)
    g = dagger(pt.x - pt.X) @ (pt.x - pt.X)
    try:
        low = np.linalg.cholesky(hermitian_part(g))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"spectral operand factor is not positive definite ({exc})"
        ) from exc
    lam = _eigvals(dagger(low) @ h @ low)
    if np.any(lam <= 0):
        raise NotPositiveDefinite(
            f"spectral operand has a non-positive eigenvalue ({lam.min():.3e})"
        )
    return lam


def K3_spectral(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> float:
    """Third-structure potential from the constraint-set operand:

        (1/4) Tr( ((x+X)*(x+X) (x-X)*(x-X))^{1/2} - k^2 Id ),

    which reduces to (1/4) Tr(D^{1/2} - k^2 Id) with
    D = k^4 Id + 4 x*x X*X - 4 (x*X)^2 wherever X*X and x*X commute."""
    _stable3_verdict(pt, tol, "K3 requires the third-structure stability conditions")
    return _k3_spectral(pt)


def _k3_spectral(pt: ConfigPoint) -> float:
    lam = _spectral_operand_eigs(pt)
    return float(0.25 * np.sum(np.sqrt(lam) - pt.trunc.k2))


def _k3_level(res: ProjectionResult) -> float:
    """Third-structure potential as the flat potential of project3's
    level-set representative res.point (exact by compact invariance)."""
    return flat_potential_K(res.point)


def K3_hat_cotangent(V, k: float, route: str = "direct") -> float:
    """Cotangent-fiber form of the third potential.

    route 'direct':    (k^2/4) Tr((Id + 4 V*V)^{1/2} - Id)
    route 'curvature': k^2 g_Gr(h(Op) V, V) with h(u) = (1/u)(sqrt(1+u)-1).

    The two agree to 1e-11 on any input; both are exposed so the agreement
    is testable.  Both read V only through its singular values, so V may be
    given as the (n-p) x p frame coordinate matrix or in the n x p ambient
    form F_Pperp V (orthonormal F_Pperp), which has the same ones: psi1's
    fiber psi1(pt).V, or half the graph w of psi3's pair.  V is
    validated once, by as_matrix, for both routes: a non-finite entry
    raises ShapeMismatch, and a 1-d V is read as one column.
    """
    coords = as_matrix(V, "V")
    k2 = k * k
    if route == "direct":
        s = np.linalg.svd(coords, compute_uv=False)
        u = 4.0 * s * s  # sqrt(1 + u) - 1 = u / (sqrt(1 + u) + 1)
        return float(0.25 * k2 * np.sum(u / (np.sqrt(1.0 + u) + 1.0)))
    if route == "curvature":
        return k2 * curvature_fun_apply(curvature_weight_k3hat, coords)
    raise ValueError(f"unknown route {route!r}")


def K3_hat_angles(pair: OrbitPair, k: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> float:
    """Third potential of a transversal pair through its characteristic
    angles: (k^2/4) sum_i (1/cos(theta_i) - 1).

    The (k^2/4) normalization is pinned by agreement with the spectral and
    level-projection routes (the pure-angle statement drops the factor 4).
    """
    return _k3_hat_angles(characteristic_angles(pair, tol), k)


def _k3_hat_angles(theta: np.ndarray, k: float) -> float:
    a = np.tan(theta)  # sec(theta) - 1 = a^2 / (sqrt(1 + a^2) + 1)
    return float(0.25 * k * k * np.sum(a * a / (np.sqrt(1.0 + a * a) + 1.0)))


def character_log_term(g, k: float) -> float:
    """Logarithmic character term (k^2/2) log |det g| for a positive p x p
    matrix g.

    This is where positivity of g is checked (Hermitian, then a positive
    spectrum), raising NotPositiveDefinite.  Emits
    IntegralityWarning when k^2/2 is not a positive integer (the character
    then fails to be a circle homomorphism, but the real value is still
    defined)."""
    g = as_matrix(g, "g")
    if not is_hermitian(g):
        raise NotPositiveDefinite("character term needs a positive element")
    value = _character_term(_eigvals(g), k)
    _warn_integrality(k)
    return value


def _character_term(lam: np.ndarray, k: float) -> float:
    """(k^2/2) sum log lam for the spectrum lam of a Hermitian g, with the
    check that g is positive (NotPositiveDefinite).  The caller warns."""
    if np.any(lam <= 0):
        raise NotPositiveDefinite(
            f"character term needs a positive element, min eigenvalue {lam.min():.3e}"
        )
    return float(0.5 * k * k * np.sum(np.log(lam)))


def quotient_potential(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> float:
    """Generic quotient-potential formula for the first structure: the flat
    potential K at project1's point plus the character term
    (k^2/2) log det g of project1's group element g.

    No other route is evaluated here.  Membership is checked once, by
    project1 (NotInStable1).  log det g is summed over the eigenvalues
    project1 took g from, with character_log_term's positivity check, so g
    is not factored again; the one IntegralityWarning of the call follows
    it."""
    value = _k1_level(project1(pt, tol), pt.trunc.k)
    _warn_integrality(pt.trunc.k)
    return value


def _k1_level(res: ProjectionResult, k: float) -> float:
    """quotient_potential's value from project1's result."""
    return flat_potential_K(res.point) + _character_term(res.eigenvalues, k)


def _route_spread(values) -> tuple[float, float]:
    """How far a potential's routes disagree: their spread max - min, and
    that spread relative to the first route's value, spread / max(1, |first|).
    The one measure of route agreement, for `hkq potential` and the check
    suites alike.  A NaN among the values makes both NaN."""
    vals = np.asarray(list(values), dtype=np.float64)
    spread = float(np.ptp(vals))
    return spread, spread / max(1.0, abs(float(vals[0])))


def evaluate_routes(pt: ConfigPoint, which: str,
                    tol: float = DEFAULT_MEMBERSHIP_TOL) -> dict[str, float]:
    """All implemented routes for one potential at one point; used by the
    cross-check suites and the CLI table.

    Each value is its route's private body, the one that a single-route
    function (K1_closed, K3_spectral, ...) runs too, on inputs computed once
    per call (the module's sharing rule).  k1 judges
    membership on the one thin QR x = F R of moment._stable1_qr
    (NotInStable1) before its one IntegralityWarning, attributed to the
    caller.  The curvature route reads psi1's frame of P, F itself,
    and the level route project1's result, memoized on pt and built on the
    same factors; R (_x_factor) gives the log-det term that the closed,
    fiber and curvature routes add, and the fiber operand that the closed
    and fiber routes read.  k3 and
    k3hat take psi3's pair from grassmann._orbit_pair, which judges
    membership (NotInStable3) and forms no z, and one graph w of it, both
    memoized.  k3 has three routes: the spectral one reads the point alone,
    the level route reads project3's result, memoized on pt and built from
    the same pair and w, and the angles route reads w."""
    k = pt.trunc.k
    if which == "flat":
        return {"trace": flat_potential_K(pt)}
    if which == "k1":
        f, _ = _stable1_qr(pt, tol, "K1 requires X*x = 0 and injective x")
        _warn_integrality(k)
        r = _x_factor(pt)
        logdet, fiber = _logdet_term(pt, r), _fiber_operand(pt, r)
        return {
            "closed": _k1_closed(pt, logdet, fiber),
            "fiber": _k1_fiber(pt, logdet, fiber),
            "curvature": _k1_curvature(pt, logdet, f),
            "level": _k1_level(project1(pt, tol), k),
        }
    if which not in ("k3", "k3hat"):
        raise ValueError(f"unknown potential tag {which!r}")
    pair = _orbit_pair(pt, tol)
    if which == "k3":
        # the spectral route before _graph: a point that both would refuse
        # raises the spectral route's error, as K3_spectral does
        spectral = _k3_spectral(pt)
        w = _graph(pair, tol)
        return {
            "spectral": spectral,
            "level": _k3_level(project3(pt, tol)),
            "angles": _k3_hat_angles(_angles(w), k),
        }
    w = _graph(pair, tol)  # F_Pperp A: the singular values of A
    return {
        "angles": _k3_hat_angles(_angles(w), k),
        "cotangent": K3_hat_cotangent(0.5 * w, k, "direct"),
        "curvature": K3_hat_cotangent(0.5 * w, k, "curvature"),
    }
