"""Kahler-potential formulas and their cross-checkable routes.

The first-structure potential comes in three forms that must agree:

  closed     (k^2/4) log det(x*x/k^2) + (k^2/2) Tr(gamma gamma*/k^2 - Id)
             - (k^2/4) Tr log(gamma gamma*/k^2)
  fiber      (k^2/4) log det(x*x/k^2) + (k^2/4) Tr((Id + 4V*V)^{1/2} - Id)
             - (k^2/4) Tr log (1/2)(Id + (Id + 4V*V)^{1/2})
  curvature  (k^2/4) log det(x*x/k^2) + k^2 g_Gr(f(Op) V, V),
             f(u) = (1/u)(sqrt(1+u) - 1 - log((1 + sqrt(1+u))/2)), f(0) = 1/4

with V the fiber coordinate of the cotangent image.  The third-structure
potential likewise:

  spectral   (1/4) Tr(D^{1/2} - k^2 Id) on its commuting locus,
             D = k^4 Id + 4 x*x X*X - 4 (x*X)^2
  level      flat potential of the orbit's level-set representative
  angles     (k^2/4) sum_i (1/cos(theta_i) - 1) over the characteristic
             angles of the subspace pair

and the cotangent form of the third potential

  (k^2/4) Tr((Id + 4V*V)^{1/2} - Id) = k^2 g_Gr(h(Op) V, V),
  h(u) = (1/u)(sqrt(1+u) - 1), h(0) = 1/2.

The D shown for the spectral route is the commuting-locus collapse of the
ordered operand (x+X)*(x+X)(x-X)*(x-X); see _spectral_operand_eigs.

The generic quotient-potential formula assembles the flat potential at the
projected point with the determinant character term (k^2/2) log |det g|.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NotInStable1, NotInStable3, NotPositiveDefinite
from .grassmann import (
    OrbitPair,
    _graph,
    characteristic_angles,
    complement_frame,
    curvature_fun_apply,
    psi1,
    psi3,
)
from .hkspace import ConfigPoint, _half_k2_integral, flat_potential_K
from .matcore import (
    HermitianSpectrum,
    _eigh,
    as_matrix,
    dagger,
    herm_sqrt,
    hermitian_part,
    is_hermitian,
    psd_sqrt,
)
from .moment import in_stable1, in_stable3
from .quotient import _fiber_operand, project1, project3

__all__ = [
    "IntegralityWarning",
    "K1_closed",
    "K1_curvature",
    "K1_fiber",
    "K3_hat_angles",
    "K3_hat_cotangent",
    "K3_level",
    "K3_similarity",
    "K3_spectral",
    "PotentialReport",
    "character_log_term",
    "curvature_weight_k1",
    "curvature_weight_k3hat",
    "evaluate_routes",
    "fiber_coordinate",
    "quotient_potential",
]


class IntegralityWarning(UserWarning):
    """k^2/2 is not a positive integer, so the circle character behind the
    quotient-potential formula does not strictly exist; the real-valued
    expressions remain well defined and are still evaluated."""


def _warn_integrality(k: float, stacklevel: int = 3) -> None:
    """Emit IntegralityWarning, attributed to the caller of the public
    function that calls this (stacklevel counts from here: 3 when the
    public function calls it directly), unless k^2/2 is a positive
    integer."""
    if not _half_k2_integral(k):
        warnings.warn(
            IntegralityWarning(f"k^2/2 = {k * k / 2.0:g} is not a positive integer"),
            stacklevel=stacklevel,
        )


@dataclass(frozen=True)
class PotentialReport:
    """A potential value with its evaluation route and input digest."""

    label: str
    value: float
    route: str
    inputs_digest: str
    extras: dict = field(default_factory=dict)


def _digest(pt: ConfigPoint) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pt.x).tobytes())
    h.update(np.ascontiguousarray(pt.X).tobytes())
    h.update(np.float64(pt.trunc.k).tobytes())
    return h.hexdigest()[:12]


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


def _logdet_term(pt: ConfigPoint, xx: HermitianSpectrum) -> float:
    """(k^2/4) log det(x*x / k^2), from the spectrum xx of x*x."""
    k2 = pt.trunc.k2
    lam = xx.eigenvalues
    if np.any(lam <= 0):
        raise NotInStable1("x*x is not positive definite")
    return float(0.25 * k2 * np.sum(np.log(lam / k2)))


def _fiber_spectrum(pt: ConfigPoint, xx: HermitianSpectrum) -> np.ndarray:
    """Eigenvalues of 4 V*V for the cotangent fiber coordinate of pt,
    computed as the spectrum of (4/k^4) |x| X*X |x| (same nonzero spectrum
    as the frame-coordinate V, including multiplicities)."""
    lam = _eigh(_fiber_operand(pt, xx.fun(psd_sqrt))).eigenvalues
    return np.clip(lam, 0.0, None)


def fiber_coordinate(pt: ConfigPoint, tol: float | None = None) -> np.ndarray:
    """Frame coordinate matrix of V = (1/k^2) X x* at the cotangent image of
    pt: the (n-p) x p matrix F_Pperp* V F_P."""
    cp = psi1(pt, tol)
    fperp = complement_frame(cp.P)
    v = (pt.X @ dagger(pt.x)) / pt.trunc.k2
    return dagger(fperp) @ v @ cp.P.frame


def K1_closed(pt: ConfigPoint, tol: float | None = None) -> float:
    """First-structure potential in the closed form of the level projection."""
    if not in_stable1(pt, tol):
        raise NotInStable1("K1 requires X*x = 0 and injective x")
    _warn_integrality(pt.trunc.k)
    k2 = pt.trunc.k2
    xx = _eigh(dagger(pt.x) @ pt.x)
    # gamma gamma*/k^2 = (1/2)(Id + mu^{1/2}), mu = Id + (4/k^4)|x| X*X |x|
    mu = _eigh(np.eye(pt.trunc.p) + _fiber_operand(pt, xx.fun(psd_sqrt))).eigenvalues
    lam = 0.5 * (1.0 + psd_sqrt(mu))
    if np.any(lam <= 0):
        raise NotInStable1("gamma gamma* is not positive definite")
    term2 = 0.5 * k2 * float(np.sum(lam - 1.0))
    term3 = -0.25 * k2 * float(np.sum(np.log(lam)))
    return _logdet_term(pt, xx) + term2 + term3


def K1_fiber(pt: ConfigPoint, tol: float | None = None) -> float:
    """First-structure potential through the cotangent fiber spectrum."""
    if not in_stable1(pt, tol):
        raise NotInStable1("K1 requires X*x = 0 and injective x")
    _warn_integrality(pt.trunc.k)
    k2 = pt.trunc.k2
    xx = _eigh(dagger(pt.x) @ pt.x)
    u = _fiber_spectrum(pt, xx)
    root = np.sqrt(1.0 + u)
    term2 = 0.25 * k2 * float(np.sum(root - 1.0))
    term3 = -0.25 * k2 * float(np.sum(np.log(0.5 * (1.0 + root))))
    return _logdet_term(pt, xx) + term2 + term3


def K1_curvature(pt: ConfigPoint, tol: float | None = None) -> float:
    """First-structure potential through the curvature functional calculus.

    Membership is checked once, by psi1 inside fiber_coordinate (raising
    NotInStable1 before any IntegralityWarning)."""
    v = fiber_coordinate(pt, tol)
    _warn_integrality(pt.trunc.k)
    return (_logdet_term(pt, _eigh(dagger(pt.x) @ pt.x))
            + pt.trunc.k2 * curvature_fun_apply(curvature_weight_k1, v))


def _spectral_operand_eigs(pt: ConfigPoint, outer: str) -> np.ndarray:
    """Spectrum of the constraint-set operand of the third potential.

    The operand is the ordered product

        (x + X)*(x + X) . (x - X)*(x - X),

    whose spectrum is positive on the whole stable set: moving the point to
    the level set conjugates the product into the square of x*x + X*X
    there.  When X*X and x*X commute (the level set, every canonical
    section point, and all of p = 1) it collapses to the symmetric form
    k^4 Id + 4 x*x X*X - 4 (x*X)^2; in general that symmetric matrix is
    off by the commutator 4 [X*X, x*X] and can fail to be positive, so the
    product form is the one evaluated.  The non-Hermitian product is never
    factored directly: its spectrum is obtained from the Hermitization
    G^{1/2} H G^{1/2} (outer='minus') or H^{1/2} G H^{1/2} (outer='plus'),
    two numerically distinct routes to the same eigenvalues.
    """
    h = hermitian_part(dagger(pt.x + pt.X) @ (pt.x + pt.X))
    g = hermitian_part(dagger(pt.x - pt.X) @ (pt.x - pt.X))
    if outer == "minus":
        root = herm_sqrt(g)
        m = root @ h @ root
    else:
        root = herm_sqrt(h)
        m = root @ g @ root
    lam = _eigh(m).eigenvalues
    if np.any(lam <= 0):
        raise NotPositiveDefinite(
            f"spectral operand has a non-positive eigenvalue ({lam.min():.3e})"
        )
    return lam


def K3_spectral(pt: ConfigPoint, tol: float | None = None) -> float:
    """Third-structure potential from the constraint-set operand:

        (1/4) Tr( ((x+X)*(x+X) (x-X)*(x-X))^{1/2} - k^2 Id ),

    which reduces to (1/4) Tr(D^{1/2} - k^2 Id) with
    D = k^4 Id + 4 x*x X*X - 4 (x*X)^2 wherever X*X and x*X commute."""
    if not in_stable3(pt, tol):
        raise NotInStable3("K3 requires the third-structure stability conditions")
    lam = _spectral_operand_eigs(pt, "minus")
    return float(0.25 * np.sum(np.sqrt(lam) - pt.trunc.k2))


def K3_similarity(pt: ConfigPoint, tol: float | None = None) -> float:
    """Same operand evaluated through the opposite Hermitization (similarity
    partner of the ambient n x n form, AB and BA sharing their nonzero
    spectrum); kept as a numerically distinct route for the cross-checks."""
    if not in_stable3(pt, tol):
        raise NotInStable3("K3 requires the third-structure stability conditions")
    lam = _spectral_operand_eigs(pt, "plus")
    return float(0.25 * np.sum(np.sqrt(lam) - pt.trunc.k2))


def K3_level(pt: ConfigPoint, tol: float | None = None) -> float:
    """Third-structure potential as the flat potential of the level-set
    representative produced by project3 (exact by compact invariance)."""
    return flat_potential_K(project3(pt, tol).point)


def K3_hat_cotangent(V, k: float, route: str = "direct") -> float:
    """Cotangent-fiber form of the third potential.

    route 'direct':    (k^2/4) Tr((Id + 4 V*V)^{1/2} - Id)
    route 'curvature': k^2 g_Gr(h(Op) V, V) with h(u) = (1/u)(sqrt(1+u)-1).

    The two agree to 1e-11 on any input; both are exposed so the agreement
    is testable.  Both read V only through its singular values, so V may be
    given as the (n-p) x p frame coordinate matrix or in the n x p ambient
    form F_Pperp V (orthonormal F_Pperp), which has the same ones.
    """
    coords = np.asarray(V, dtype=np.complex128)
    k2 = k * k
    if route == "direct":
        s = np.linalg.svd(coords, compute_uv=False)
        return float(0.25 * k2 * np.sum(np.sqrt(1.0 + 4.0 * s * s) - 1.0))
    if route == "curvature":
        return k2 * curvature_fun_apply(curvature_weight_k3hat, coords)
    raise ValueError(f"unknown route {route!r}")


def K3_hat_angles(pair: OrbitPair, k: float, tol: float | None = None) -> float:
    """Third potential of a transversal pair through its characteristic
    angles: (k^2/4) sum_i (1/cos(theta_i) - 1).

    The (k^2/4) normalization is pinned by agreement with the spectral and
    level-projection routes (the pure-angle statement drops the factor 4).
    """
    theta = characteristic_angles(pair, tol)
    return float(0.25 * k * k * np.sum(1.0 / np.cos(theta) - 1.0))


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
    return _character_term(np.linalg.eigvalsh(hermitian_part(g)), k)


def _character_term(lam: np.ndarray, k: float) -> float:
    """(k^2/2) sum log lam for the spectrum lam of a Hermitian g: the check
    that g is positive (NotPositiveDefinite) and the IntegralityWarning of
    the public function that calls this."""
    if np.any(lam <= 0):
        raise NotPositiveDefinite(
            f"character term needs a positive element, min eigenvalue {lam.min():.3e}"
        )
    _warn_integrality(k, stacklevel=4)
    return float(0.5 * k * k * np.sum(np.log(lam)))


def quotient_potential(pt: ConfigPoint, tol: float | None = None) -> PotentialReport:
    """Generic quotient-potential formula for the first structure: flat
    potential at the projected point plus the character term of the
    projecting group element.

    The report's value is their sum; extras holds the two parts,
    extras["flat_at_level"] (flat potential K at project1's point) and
    extras["character"] ((k^2/2) log det g of project1's group element).
    No other route is evaluated here.  Membership is checked once, by
    project1 (NotInStable1).  log det g is summed over the eigenvalues
    project1 took g from, with character_log_term's positivity check and
    its one IntegralityWarning of the call, so g is not factored again."""
    res = project1(pt, tol)
    flat = flat_potential_K(res.point)
    char = _character_term(res.eigenvalues, pt.trunc.k)
    return PotentialReport(
        label="K1",
        value=flat + char,
        route="level",
        inputs_digest=_digest(pt),
        extras={"flat_at_level": flat, "character": char},
    )


def evaluate_routes(pt: ConfigPoint, which: str,
                    tol: float | None = None) -> dict[str, float]:
    """All implemented routes for one potential at one point; used by the
    cross-check suites and the CLI table."""
    if which == "flat":
        return {"trace": flat_potential_K(pt)}
    if which == "k1":
        return {
            "closed": K1_closed(pt, tol),
            "fiber": K1_fiber(pt, tol),
            "curvature": K1_curvature(pt, tol),
            "level": quotient_potential(pt, tol=tol).value,
        }
    if which == "k3":
        pair, _ = psi3(pt, tol)
        return {
            "spectral": K3_spectral(pt, tol),
            "similarity": K3_similarity(pt, tol),
            "level": K3_level(pt, tol),
            "angles": K3_hat_angles(pair, pt.trunc.k, tol),
        }
    if which == "k3hat":
        pair, _ = psi3(pt, tol)
        w = _graph(pair, tol)  # F_Pperp A: the singular values of A
        return {
            "angles": K3_hat_angles(pair, pt.trunc.k, tol),
            "cotangent": K3_hat_cotangent(0.5 * w, pt.trunc.k, "direct"),
            "curvature": K3_hat_cotangent(0.5 * w, pt.trunc.k, "curvature"),
        }
    raise ValueError(f"unknown potential tag {which!r}")
