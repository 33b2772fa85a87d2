"""Level-set projections and the tangent-space splitting of the quotient.

project1 realizes the closed-form retraction from the stable set of the
first structure onto the level set: the unique positive group element g with

    g^-2 = (x*x)^{-1/2} . gamma gamma* . (x*x)^{-1/2},
    gamma gamma* = (k^2/2) (Id + (Id + (4/k^4) |x| X*X |x|)^{1/2}),

moves (x, X) into the level set.  One thin SVD x = U diag(s) W* judges
first-stable membership (x injective) and gives both |x| = W diag(s) W*
and |x|^-1, and one eigendecomposition of g^-2 gives g.

At a point of psi1's section, x = k F_P and X = k V for a cotangent datum
(P, V), |x| = k Id, gamma gamma*/k^2 is a function of N = V*V alone, and
the formula closes:

    g^-2 = (1/2) (Id + (Id + 4N)^{1/2}),   point = (k F_P g^-1, k V g).

_level_section evaluates it on one eigendecomposition of N, which gives g
and g^-1 together, with no membership check (F_P is a frame, so x is
injective) and no inverse.  With m = (1/2)(1 + sqrt(1 + 4 nu)) on an
eigenvalue nu of N, m^2 - nu = m, so x*x - X*X = k^2 (m - nu/m) = k^2 Id
eigenvalue by eigenvalue, and X*x = k^2 g V* F_P g^-1 = 0.  project1
keeps its general form: off the section (x*x)^{-1/2} gamma gamma*
(x*x)^{-1/2} is no function of N alone, and the section form's group
element g R / k (for x = F_P R) is not Hermitian, while project1's group
part is the positive g.

project3 routes
through the subspace-pair picture: map the point down to psi3's pair, take
the canonical preimage of the pair, and slide it onto the level set with
the closed-form positive part h = (1/4) log(Id + A*A) of the third action.
The pair is the frames of P and Q^perp, n x p each, the Q factors of the
thin QRs of x + X and x - X on which moment._stable3_frames judges
third-stable membership, its one rule; psi3's n x n orbit operator z is
not formed, and nothing on this route takes an n x n factorization or
product.  The graph
operator enters in its ambient form w = F_Pperp A, computed once from those
two frames and without any frame of P^perp or of Q; it gives the preimage,
and one eigendecomposition of Id + w*w = Id + A*A gives h, cosh(h) and
sinh(h).  The returned point is a representative of the intersection
orbit (unique up to the free compact action); every downstream quantity
we evaluate on it is invariant under that action.

The tangent projectors split T(TM) at a level-set point g-orthogonally as

    H (+) O (+) I1 O (+) I2 O (+) I3 O,

where O = {(-x a, -X a) : a skew-Hermitian} is the orbit tangent and H the
horizontal slice (Hitchin-Karlhede-Lindstrom-Rocek, Comm. Math. Phys. 108
(1987) 535-589).  slice_basis is their one entry: it checks level
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
from .grassmann import _graph, _orbit_pair, _section
from .hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    _finite_tangent,
    _memo,
    _point,
    _read_only,
    act1,
    act3,
    apply_I,
)
from .matcore import (
    HermitianSpectrum,
    _check_positive_definite,
    _eigh,
    _sylvester,
    dagger,
    herm_sqrt,
    hermitian_part,
    skew_part,
)
from .moment import _level_residual, _stable1_svd, _within_tol, level_residual

__all__ = ["ProjectionResult", "SliceBasis", "project1", "project3", "slice_basis"]


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a level-set projection.

    For project1, group_part is the positive p x p matrix g with
    act1(group_part, original) = point and h is None.  For project3, h is the
    Hermitian p x p matrix with act3(herm_eig(-h), None, section point) =
    point (the unitary part is the identity in this gauge) and group_part
    is None.  Both are plain arrays; the operation that takes one back
    (act1, act3, potentials.character_log_term) checks what it needs.
    eigenvalues are those of group_part or h, ascending, taken on the
    spectrum the projection built it from (no second factorization).

    The results of project1 and project3 are immutable: their arrays, the
    point's included, are read-only, and each is memoized on the point it
    projects, per tol (hkspace._memo), so a second call on that point
    returns the same result without projecting again.
    """

    point: ConfigPoint
    residual: float
    eigenvalues: np.ndarray
    group_part: np.ndarray | None = None
    h: np.ndarray | None = None


def _fiber_operand(pt: ConfigPoint, sx: np.ndarray) -> np.ndarray:
    """(4/k^4) |x| X*X |x|, Hermitian, for the given |x| = (x*x)^{1/2} (each
    caller takes it on the factorization of x it already holds).

    Its spectrum is that of 4 V*V for the cotangent fiber coordinate V, and
    Id plus it is the operand under the square root of gamma gamma*."""
    k2 = pt.trunc.k2
    return hermitian_part((4.0 / (k2 * k2)) * (sx @ (dagger(pt.X) @ pt.X) @ sx))


def project1(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> ProjectionResult:
    """Closed-form projection onto the level set along the first action.

    The one thin SVD of x that judges first-stable membership
    (moment._stable1_svd: X*x = 0 to tol * k^2, then
    sigma_min(x) > tol * sigma_max(x)) gives |x| (inside the fiber operand)
    and |x|^-1 on its right factor.  g and its eigenvalues 1/sqrt(mu) are
    taken on the one eigendecomposition of g^-2, and act1 inverts g.
    Everything after the SVD and the membership check is _project1.  The
    result is memoized on pt per tol; a refusal is not."""
    return _memo(pt, ("project1", tol), lambda: _project1(
        pt, *_stable1_svd(pt, tol, "project1 requires X*x = 0 and injective x")[1:], tol))


def _project1(pt: ConfigPoint, s: np.ndarray, w: np.ndarray, tol: float) -> ProjectionResult:
    """project1 after its SVD x = U diag(s) W*, which judged first-stable
    membership at tolerance tol.  The level residual of the result is
    still judged here."""
    p = pt.trunc.p
    k2 = pt.trunc.k2
    eye = np.eye(p)
    abs_x = HermitianSpectrum(s[::-1], w[:, ::-1])  # |x| = W diag(s) W*
    isx = abs_x.fun(np.reciprocal)
    fiber = _fiber_operand(pt, abs_x.fun(np.positive))
    gamma2 = 0.5 * k2 * (eye + herm_sqrt(eye + fiber))
    g_inv2 = _eigh(isx @ gamma2 @ isx)
    g = g_inv2.fun(lambda mu: 1.0 / np.sqrt(mu), domain_check=lambda mu: mu > 0.0)
    point = act1(g, pt)
    residual = max(level_residual(point))
    if not _within_tol(residual, tol, k2):
        raise NotInStable1(
            f"projection left residual {residual:.3e} > tol * k^2; "
            "point is too close to the stable-set boundary"
        )
    # mu ascends, so 1/sqrt(mu) of the reversed mu ascends
    return ProjectionResult(point=point, residual=residual,
                            eigenvalues=_read_only(1.0 / np.sqrt(g_inv2.eigenvalues[::-1])),
                            group_part=_read_only(g))


def _level_section(fp: np.ndarray, v: np.ndarray, k: float) -> ConfigPoint:
    """project1(psi1_section(cp, k)).point in closed form, for the frame fp
    of P and the fiber v of a cotangent datum cp (see the module docstring):
    (k F_P g^-1, k V g) with g^-2 = (1/2)(Id + (Id + 4 V*V)^{1/2}), g and
    g^-1 taken on the one eigendecomposition of V*V.  The point lies on the
    level set, psi1 maps it to cp, and it equals the projection up to
    round-off, in the same gauge of F_P."""
    n, p = fp.shape
    spec = _eigh(dagger(v) @ v)

    def root_m(nu):  # m^{1/2}, the eigenvalues of g^-1
        return np.sqrt(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * nu)))

    g_inv = spec.fun(root_m)
    g = spec.fun(lambda nu: 1.0 / root_m(nu))
    return _point(Truncation(p, n - p, k), k * (fp @ g_inv), k * (v @ g))


def project3(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> ProjectionResult:
    """Level-set representative of the third-structure orbit through pt.

    Route: psi3's pair (P, Q^perp), the Q factors of the thin QRs of x + X
    and x - X that judge third-stable membership (NotInStable3), without z;
    the graph operator, in its ambient form w = F_Pperp A, gives the
    canonical preimage pt0 = psi3_section(pair) and the one
    eigendecomposition of Id + w*w = Id + A*A, on which
    h = (1/4) log(Id + A*A), its eigenvalues, cosh(h) and sinh(h) are all
    taken;
    point = act3(-h, None, pt0), with -h passed as that spectrum.  The
    result lies in the level set (exactly, up to round-off) and in the same
    orbit as pt (psi3 reproduces the pair).  It matches the intrinsic
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
    k = pt.trunc.k
    pt0 = _section(pair.P.frame, w, k)
    spec = _eigh(np.eye(pt0.trunc.p) + dagger(w) @ w)
    h = 0.25 * spec.fun(np.log, domain_check=lambda lam: lam > 0.0)
    # -h on the same eigenvectors, reordered so its eigenvalues ascend
    minus_h = HermitianSpectrum(-0.25 * np.log(spec.eigenvalues[::-1]),
                                spec.eigenvectors[:, ::-1])
    point = act3(minus_h, None, pt0)
    residual = max(level_residual(point))
    if not _within_tol(residual, tol, pt0.trunc.k2):
        raise NotInStable3(
            f"orbit projection left residual {residual:.3e} > tol * k^2"
        )
    return ProjectionResult(point=point, residual=residual,
                            eigenvalues=_read_only(0.25 * np.log(spec.eigenvalues)),
                            h=_read_only(h))


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
