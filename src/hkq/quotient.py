"""Level-set projections and the tangent-space splitting of the quotient.

Each stable set retracts onto the level set along the complexified orbit
(Hitchin-Karlhede-Lindstrom-Rocek, Comm. Math. Phys. 108 (1987) 535-589),
so both projections are the level section over the quotient datum, read
off the factors on which membership was judged.

First structure.  Over a frame F_P and a fiber V with N = V*V, the level
section is (k F_P g0^-1, k V g0), g0^-2 = (1/2)(Id + (Id + 4N)^{1/2}), g0
and g0^-1 taken on one eigendecomposition of N (_fiber_root): with
m = (1/2)(1 + sqrt(1 + 4 nu)) on an eigenvalue nu of N, m^2 - nu = m, so
x*x - X*X = k^2 Id, and X*x = 0 as F_P* V = 0.  project1 reads F_P = F
and V' = X R* / k^2 = X x* F / k^2 off the thin QR x = F R on which
membership is judged (moment._stable1_qr), the form sample_level takes
too; then the section (at |k|) is act1(G, pt) with G = g0 R / |k|.  One
p x p SVD g0 R = Y diag(sig) Z* gives G = Omega g with Omega = Y Z*
unitary and g = Z diag(sig) Z* / |k| positive, and act1(g, pt) is the
section times Omega.  g is the unique positive element of the general form
g^-2 = |x|^-1 gamma gamma* |x|^-1, gamma gamma* = (k^2/2)(Id + (Id +
(4/k^4) |x| X*X |x|)^{1/2}), since g^2 = G*G = R* g0^2 R / k^2 and
N = U |x| X*X |x| U* / k^4 for the unitary U = R |x|^-1; that form
squares cond(x) and refuses points with cond(x) >= 1e4 at the default
tol, while the section form forms neither x*x nor an inverse.

Third structure.  The pair is the frames of P and Q^perp, the Q factors of
the thin QRs of x + X and x - X on which moment._stable3_frames judges
membership; psi3's n x n orbit operator z is not formed.  The graph
operator enters in its ambient form w = F_Pperp A, with F_P + w =
F_Qperp M^-1, M = F_P* F_Qperp.  psi3_section(pair) has x + X = k F_P and
x - X = k (F_P + w); the third action with -h, h = (1/4) log m,
m = Id + w*w, multiplies them by m^{1/4} and m^{-1/4}:

    x + X = k F_P m^{1/4},   x - X = k (F_P + w) m^{-1/4},

all on the one eigendecomposition of m.  As F_P* w = 0,
(x + X)*(x - X) = k^2 Id and (x + X)*(x + X) = k^2 m^{1/2} = (x - X)*(x - X),
so the level equations hold with no cancellation, where the action's
cosh(h) and sinh(h), both near e^{|h|}/2, cancelled.  The point is a
representative of the intersection orbit (unique up to the free compact
action); every quantity evaluated on it is invariant under that action.

The tangent projectors split T(TM) at a level-set point g-orthogonally as

    H (+) O (+) I1 O (+) I2 O (+) I3 O,

where O = {(-x a, -X a) : a skew-Hermitian} is the orbit tangent and H the
horizontal slice (HKLR).  slice_basis is their one entry: it checks level
membership, factors M = x*x + X*X once, and every projection of the
returned SliceBasis solves against that spectrum.

Orbit projector.  Minimizing ||Z + x a||^2 + ||T + X a||^2 over
skew-Hermitian a gives the anticommutator Sylvester equation

    (M a + a M)/2 = -skew(x*Z + X*T),      M = x*x + X*X >= k^2 Id,

with M positive definite on the level set, and P_O v = (-x a, -X a).

Level-set projector.  The level set is cut out by the three moment maps
mu_j, and d<mu_j, b>(v) = omega_j(xi_b, v) = g(I_j xi_b, v) for the orbit
vector xi_b, so the normal space of the level set (the orthogonal
complement of the kernel of dF(Z, T) = (X*Z + T*x, x*Z + Z*x - X*T - T*X))
is I1 O + I2 O + I3 O.  Each I_j is a g-isometry, so I_j O has dimension
p^2 like O.  For j != l, g(I_j xi_a, I_l xi_b) = +-omega_m(xi_a, xi_b) with
{j, l, m} = {1, 2, 3}, which is +-Tr(mu_m [a, b]) up to a constant: it
vanishes exactly when mu_m is central, i.e. at level points (mu2 = mu3 = 0,
mu1 a multiple of Id).  The three normal blocks are therefore mutually
g-orthogonal there, the projector onto I_j O is I_j P_O I_j^-1 = -I_j P_O I_j,
and

    P_level v = v + sum_j I_j P_O(I_j v).

The orbit projection of I_j v solves (M a_j + a_j M)/2 = -skew(c_j) with
c_1 = i(x*Z - X*T), c_2 = x*T - X*Z, c_3 = i(x*T + X*Z).  The three
right-hand sides share M, so the level projection is one stacked Sylvester
solve, and

    Z' = Z - x (i a_1) - X (a_2 + i a_3),
    T' = T + X (i a_1) + x (a_2 - i a_3).

No constraint matrix is assembled, and the tangent projectors cache
nothing between calls.
The horizontal projector is P_level followed by the removal of the orbit
component, the g-orthogonal complement of O inside the level-set tangent.
The reduced metric and Kahler forms are metric_g and omega_j of two
horizontal projections: orbit components in either slot contribute zero,
and level-set representatives related by the compact action give the same
number (after pushing the vectors forward).  No path through this module
(psi3 included) touches the process-global warning filters, so it is as
safe to call concurrently as matcore: two threads that project one point
at once may both compute the memoized result, and store the same bits.

project1 and project3 memoize their result on the point per tol
(hkspace._memo), so a projection followed by evaluate_routes' level route
on the same point projects once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MEMBERSHIP_TOL
from .errors import NotInStable1, NotInStable3, NotOnLevelSet, ShapeMismatch
from .grassmann import _graph, _orbit_pair
from .hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    _finite_tangent,
    _memo,
    _point,
    _read_only,
    apply_I,
)
from .matcore import (
    HermitianSpectrum,
    _check_positive_definite,
    _eigh,
    _sylvester,
    dagger,
    hermitian_part,
    skew_part,
)
from .moment import _level_residual, _stable1_qr, _within_tol, level_residual

__all__ = ["ProjectionResult", "SliceBasis", "project1", "project3", "slice_basis"]


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a level-set projection.

    For project1, group_part is the positive p x p matrix g with
    act1(group_part, original) = point, the polar factor of the element
    that moves the original onto the level section, a plain array that the
    operation taking it back (act1, potentials.character_log_term) checks,
    and eigenvalues are those of g, ascending.  For project3, group_part is
    None and eigenvalues are those of the Hermitian p x p matrix h with
    act3(herm_eig(-h), None, psi3_section(pair)) = point, ascending; h
    itself is not formed.  Both are read off the factorization the
    projection built: project1's p x p SVD of g0 R on x's thin QR
    x = F R, and project3's eigendecomposition of m.

    The results of project1 and project3 are immutable: their arrays, the
    point's included, are read-only, and each is memoized on the point it
    projects, per tol (hkspace._memo), so a second call on that point
    returns the same result without projecting again.
    """

    point: ConfigPoint
    residual: float
    eigenvalues: np.ndarray
    group_part: np.ndarray | None = None


def project1(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> ProjectionResult:
    """Closed-form projection onto the level set along the first action.

    The thin QR x = F R that judges first-stable membership
    (moment._stable1_qr) gives the frame F and the fiber V' = X R*/k^2;
    the point is the level section over (F, V') turned by the unitary
    factor of one p x p SVD, which also gives g (module docstring).  The
    result is memoized on pt per tol; a refusal is not."""
    return _memo(pt, ("project1", tol), lambda: _project1(
        pt, *_stable1_qr(pt, tol, "project1 requires X*x = 0 and injective x"), tol))


def _project1(pt: ConfigPoint, f: np.ndarray, r: np.ndarray,
              tol: float) -> ProjectionResult:
    """project1 after the thin QR x = F R, which judged first-stable
    membership at tolerance tol.  The level residual of the result is
    still judged here."""
    k = abs(pt.trunc.k)
    v = (pt.X @ dagger(r)) / pt.trunc.k2  # V' = X x* F / k^2, not projected off P
    g0_inv, g0 = _fiber_root(v)
    y, sig, zh = np.linalg.svd(g0 @ r)  # g0 R = Y diag(sig) Z*
    rot = y @ zh  # the unitary factor Y Z*
    point = _point(pt.trunc, k * (f @ (g0_inv @ rot)), k * (v @ (g0 @ rot)))
    residual = max(level_residual(point))
    if not _within_tol(residual, tol, pt.trunc.k2):
        raise NotInStable1(
            f"projection left residual {residual:.3e} > tol * k^2; "
            "point is too close to the stable-set boundary"
        )
    g = hermitian_part((dagger(zh) * (sig / k)) @ zh)  # g = Z diag(sig / |k|) Z*
    # sig descends, so the reversed sig / |k| ascends
    return ProjectionResult(point=point, residual=residual,
                            eigenvalues=_read_only(sig[::-1] / k),
                            group_part=_read_only(g))


def _fiber_root(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g^-1 and g, g^-2 = (1/2)(Id + (Id + 4 V*V)^{1/2}), on one
    eigendecomposition of V*V: the factors of the level section over v."""
    spec = _eigh(dagger(v) @ v)

    def root_m(nu):  # m^{1/2}, the eigenvalues of g^-1
        return np.sqrt(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * nu)))

    return spec.fun(root_m), spec.fun(lambda nu: 1.0 / root_m(nu))


def _level_section(fp: np.ndarray, v: np.ndarray, k: float) -> ConfigPoint:
    """project1(psi1_section(cp, k)).point in closed form, for the frame fp
    of P and the fiber v of a cotangent datum cp: (k F_P g^-1, k V g) on
    _fiber_root(v).  The point lies on the level set, psi1 maps it to cp,
    and it equals the projection up to round-off, in the same gauge of
    F_P.  project1 builds this section over the factors of a point's
    thin QR x = F R, with fp = F and v = X R*/k^2, and turns it by a
    unitary."""
    n, p = fp.shape
    g_inv, g = _fiber_root(v)
    return _point(Truncation(p, n - p, k), k * (fp @ g_inv), k * (v @ g))


def project3(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> ProjectionResult:
    """Level-set representative of the third-structure orbit through pt.

    Route: psi3's pair (P, Q^perp), judged third-stable (NotInStable3)
    without z; its graph w = F_Pperp A; and the one eigendecomposition of
    m = Id + w*w, on which the eigenvalues of h = (1/4) log m and
    x +/- X = k F_P m^{1/4}, k (F_P + w) m^{-1/4} are all taken (module
    docstring).  The result lies in the level set (exactly, up to
    round-off) and in the same orbit as pt (psi3 reproduces the pair).  It
    matches the intrinsic
    projection only up to the free compact action; the flat potential of
    the result is nevertheless the exact projected value by invariance.
    The result is memoized on pt per tol, and the pair and w it reads are
    the ones memoized for psi3 and characteristic_angles; a refusal is not
    memoized.
    """
    return _memo(pt, ("project3", tol), lambda: _project3(pt, tol))


def _project3(pt: ConfigPoint, tol: float) -> ProjectionResult:
    """project3 from psi3's pair and its graph w = _graph(pair, tol)."""
    pair = _orbit_pair(pt, tol)
    w = _graph(pair, tol)
    k, fp = pt.trunc.k, pair.P.frame
    spec = _eigh(np.eye(pt.trunc.p) + dagger(w) @ w)
    plus = k * (fp @ spec.fun(lambda lam: lam ** 0.25))
    minus = k * ((fp + w) @ spec.fun(lambda lam: lam ** -0.25))
    point = _point(pt.trunc, 0.5 * (plus + minus), 0.5 * (plus - minus))
    residual = max(level_residual(point))
    if not _within_tol(residual, tol, pt.trunc.k2):
        raise NotInStable3(
            f"orbit projection left residual {residual:.3e} > tol * k^2"
        )
    return ProjectionResult(point=point, residual=residual,
                            eigenvalues=_read_only(0.25 * np.log(spec.eigenvalues)))


@dataclass(frozen=True)
class SliceBasis:
    """The tangent projectors at the level-set point base.

    spec is the eigendecomposition of M = x*x + X*X that every projection
    solves against; slice_basis checks membership and factors M once, and
    the constructor checks once that spec is positive definite
    (NotPositiveDefinite), so each projection runs the unchecked Sylvester
    body and scans only its result for overflow.  A tangent of another
    shape than the base raises ShapeMismatch.
    orbit, level and horizontal are g-orthogonal projectors, and
    i_orbit(j, v) projects v onto I_j applied to the orbit tangent.  The
    horizontal slice, the orbit block and its three rotations are mutually
    g-orthogonal at level points and together reconstruct the whole tangent
    space.  A reduced form is metric_g or omega(j, ., .) of two horizontal
    projections.
    """

    base: ConfigPoint
    spec: HermitianSpectrum

    def __post_init__(self):
        _check_positive_definite(self.spec.eigenvalues)

    def _fits(self, v: TangentPair) -> None:
        if v.Z.shape != self.base.x.shape:
            raise ShapeMismatch(f"tangent {v.Z.shape} does not fit the base {self.base.x.shape}")

    def orbit(self, v: TangentPair) -> TangentPair:
        self._fits(v)
        x, X = self.base.x, self.base.X
        a = _sylvester(self.spec, -skew_part(dagger(x) @ v.Z + dagger(X) @ v.T))
        return _finite_tangent(-x @ a, -X @ a)

    def level(self, v: TangentPair) -> TangentPair:
        self._fits(v)
        x, X, Z, T = self.base.x, self.base.X, v.Z, v.T
        xs, Xs = dagger(x), dagger(X)
        xZ, xT, XZ, XT = xs @ Z, xs @ T, Xs @ Z, Xs @ T
        # the orbit equations of I1 v = (iZ, -iT), I2 v = (T, -Z), I3 v = (iT, iZ)
        rhs = np.stack([1j * (xZ - XT), xT - XZ, 1j * (xT + XZ)])
        a1, a2, a3 = _sylvester(self.spec, -skew_part(rhs))
        return _finite_tangent(Z - x @ (1j * a1) - X @ (a2 + 1j * a3),
                               T + X @ (1j * a1) + x @ (a2 - 1j * a3))

    def horizontal(self, v: TangentPair) -> TangentPair:
        w = self.level(v)
        return w - self.orbit(w)

    def i_orbit(self, j: int, v: TangentPair) -> TangentPair:
        return -1.0 * apply_I(j, self.orbit(apply_I(j, v)))


def slice_basis(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> SliceBasis:
    """The tangent projectors at a level-set point, the one entry to them.

    Raises NotOnLevelSet off the level set.  x*x and X*X are formed once:
    the level residual (the rule of on_level_set) is judged on them, and
    they sum to M, which is Hermitian by construction and goes to the one
    factorization unchecked.
    """
    x, X = pt.x, pt.X
    xx, XX = dagger(x) @ x, dagger(X) @ X
    rc, rr = _level_residual(xx, XX, dagger(X) @ x, pt.trunc.k2)
    if not _within_tol(max(rc, rr), tol, pt.trunc.k2):
        raise NotOnLevelSet(
            f"point is not on the level set: residuals ({rc:.3e}, {rr:.3e})"
        )
    return SliceBasis(base=pt, spec=_eigh(xx + XX))
