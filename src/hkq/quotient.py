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
the thin QRs of x + X and x - X (moment._pm_factors), taken once
membership is judged; psi3's n x n orbit operator z is not formed.  With
M = F_P* F_Qperp and w = F_Qperp M^-1 - F_P (grassmann._graph),
psi3_section(pair) has x + X = k F_P and x - X = k (F_P + w), and the
third action with -h, h = (1/4) log m, m = Id + w*w, multiplies them by
m^{1/4} and m^{-1/4}.  As F_P* w = 0, m = (F_P + w)*(F_P + w) = (M M*)^-1,
so on the one SVD M = L s R* (grassmann._m_svd, s diagonal), m^{1/4} =
L s^{-1/2} L* and F_P + w = F_Qperp R s^-1 L*, and

    x + X = k F_P L s^{-1/2} L*,   x - X = k F_Qperp R s^{-1/2} L*,

with h's eigenvalues -(1/2) log s: neither w nor m is formed, and nothing
is inverted.  As L* M R = s, (x + X)*(x - X) = k^2 Id and
(x + X)*(x + X) = k^2 L s^-1 L* = (x - X)*(x - X), so the level equations
hold with no cancellation, where the action's cosh(h) and sinh(h), both
near e^{|h|}/2, cancelled.  The point is a representative of the
intersection orbit (unique up to the free compact action); every quantity
evaluated on it is invariant under that action.

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

No constraint matrix is assembled.
The horizontal projector is P_level followed by the removal of the orbit
component, the g-orthogonal complement of O inside the level-set tangent.

Eigenbasis form.  With M = U diag(lam) U*, the solution of
(M a + a M)/2 = S is a = U a' U* with a' = (U* S U) / D entrywise,
D_ij = (lam_i + lam_j)/2, and a' is skew-Hermitian when S is.  The
right-hand sides read v only through x*Z, x*T, X*Z and X*T, and every
projection moves v only along x and X.  So with W = [xU, XU] (n x 2p)
and the rotated tangent r = [ZU, TU], one product

    G = W* r = [[U* x*Z U, U* x*T U], [U* X*Z U, U* X*T U]]

gives every right-hand side in the eigenbasis, each solve is a division
of -skew(.) of blocks of G by D, and a projection is the tangent
(r + W B) diag(U*, U*) for the 2p x 2p matrix B of the solutions, or
W B diag(U*, U*) for P_O itself:

    P_O:      B = -diag(a', a'),
    P_level:  B = [[-i a_1', a_2' - i a_3'], [-(a_2' + i a_3'), i a_1']],

from the formulas above.  The horizontal projection is one pass: with
B_l the level solutions, the level projection in the eigenbasis is
r + W B_l, whose G is G + (W*W) B_l, so the orbit solve a' of the level
projection reads that with no second rotation, and

    P_H v = (r + W (B_l + diag(a', a'))) diag(U*, U*).

SliceBasis builds U*, W, W*, the 2p x 2p Gram W*W and D once, when it is
built; a projection takes no factorization and caches nothing.

The reduced metric and Kahler forms are metric_g and omega_j of two
horizontal projections: orbit components in either slot contribute zero,
and level-set representatives related by the compact action give the same
number (after pushing the vectors forward).  No path through this module
(psi3 included) touches the process-global warning filters, so it is as
safe to call concurrently as matcore: two threads that project one point
at once may both compute the memoized result, and store the same bits.

project1 and project3 memoize their result, level residual included, on
the point (hkspace._memo), and judge it against tol * k^2 on each call,
so a projection followed by evaluate_routes' level route projects once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MEMBERSHIP_TOL, PD_TOL
from .errors import (
    NotInStable1,
    NotInStable3,
    NotOnLevelSet,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .grassmann import OrbitPair, _orbit_pair, _transversal_svd
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
    _eigh,
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
    act3(herm_eig(-h), Id, psi3_section(pair)) = point, ascending; h
    itself is not formed.  Both are read off the factorization the
    projection built: project1's p x p SVD of g0 R on x's thin QR
    x = F R, and project3's SVD M = L diag(s) R* of the pair's
    M = F_P* F_Qperp, whose eigenvalues -(1/2) log s are those of h.

    The results of project1 and project3 are immutable: their arrays, the
    point's included, are read-only, and each is memoized on the point it
    projects (hkspace._memo), so a second call on that point, at any tol,
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
    result is memoized on pt; its level residual is judged against
    tol * k^2 on each call (NotInStable1)."""
    f, r = _stable1_qr(pt, tol, "project1 requires X*x = 0 and injective x")
    res = _memo(pt, "project1", lambda: _project1(pt, f, r))
    if not _within_tol(res.residual, tol, pt.trunc.k2):
        raise NotInStable1(f"projection left residual {res.residual:.3e} > tol * k^2; "
                           "point is too close to the stable-set boundary")
    return res


def _project1(pt: ConfigPoint, f: np.ndarray, r: np.ndarray) -> ProjectionResult:
    """project1 on the thin QR x = F R, judging nothing: the level
    residual of the result is recorded."""
    k = abs(pt.trunc.k)
    v = (pt.X @ dagger(r)) / pt.trunc.k2  # V' = X x* F / k^2, not projected off P
    g0_inv, g0 = _fiber_root(v)
    y, sig, zh = np.linalg.svd(g0 @ r)  # g0 R = Y diag(sig) Z*
    rot = y @ zh  # the unitary factor Y Z*
    point = _point(pt.trunc, k * (f @ (g0_inv @ rot)), k * (v @ (g0 @ rot)))
    g = hermitian_part((dagger(zh) * (sig / k)) @ zh)  # g = Z diag(sig / |k|) Z*
    # sig descends, so the reversed sig / |k| ascends
    return ProjectionResult(point=point, residual=max(level_residual(point)),
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
    without z, and the one SVD M = L diag(s) R* of M = F_P* F_Qperp,
    judged transversal (NotTransversal), on which the point and the
    eigenvalues of h are taken (module docstring).  The result lies in the
    level set (its residual is judged, NotInStable3) and in the orbit of pt
    (psi3 reproduces the pair).  It matches the intrinsic projection only
    up to the free compact action; its flat potential is nevertheless the
    exact projected value by invariance.  The result is memoized on pt, on
    the pair and SVD that psi3, _graph and transversality read; the three
    verdicts are judged at tol on each call.
    """
    pair = _orbit_pair(pt, tol)
    l, s, r = _transversal_svd(pair, tol)
    res = _memo(pt, "project3", lambda: _project3(pt, pair, l, s, r))
    if not _within_tol(res.residual, tol, pt.trunc.k2):
        raise NotInStable3(f"orbit projection left residual {res.residual:.3e} > tol * k^2")
    return res


def _project3(pt: ConfigPoint, pair: OrbitPair, l: np.ndarray, s: np.ndarray,
              r: np.ndarray) -> ProjectionResult:
    """project3 on psi3's pair and the SVD M = L diag(s) R* of its M,
    judging nothing: the level residual of the result is recorded."""
    k, root = pt.trunc.k, 1.0 / np.sqrt(s)
    plus = k * ((pair.P.frame @ (l * root)) @ dagger(l))
    minus = k * ((pair.Qperp.frame @ (r * root)) @ dagger(l))
    point = _point(pt.trunc, 0.5 * (plus + minus), 0.5 * (plus - minus))
    # s descends, so -(1/2) log s ascends
    return ProjectionResult(point=point, residual=max(level_residual(point)),
                            eigenvalues=_read_only(-0.5 * np.log(s)))


def _check_positive_definite(lam: np.ndarray) -> None:
    """SliceBasis's rule on ascending eigenvalues: lam_min > PD_TOL * lam_max,
    else NotPositiveDefinite.  The test does not depend on the scale of M
    (k^2 Id at a base point is accepted for every k)."""
    if lam.size and lam[0] <= PD_TOL * lam[-1]:
        raise NotPositiveDefinite(
            f"M must be positive definite, min eigenvalue {lam.min():.3e}"
        )


@dataclass(frozen=True)
class SliceBasis:
    """The tangent projectors at the level-set point base.

    spec is the eigendecomposition M = U diag(lam) U* of M = x*x + X*X
    that every projection solves against.  The constructor checks once
    that spec is p x p, the base's p (ShapeMismatch), and positive
    definite (NotPositiveDefinite), and precomputes the eigenbasis data of
    the module docstring: U*, W = [xU, XU] (n x 2p), W*, the Gram W*W
    and D_ij = (lam_i + lam_j)/2.  Each projection then takes no
    factorization and scans only its result for overflow.  A tangent of
    another shape than the base raises ShapeMismatch.  Inside, a tangent
    (Z, T) is held stacked (2, n, p), and so are G = W* r and the
    solutions B, by their column blocks: (2, 2p, p).
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
        p = self.base.trunc.p
        u, lam = self.spec.eigenvectors, self.spec.eigenvalues
        if u.shape != (p, p) or lam.shape != (p,):
            raise ShapeMismatch(f"spectrum {u.shape} does not fit the base's p = {p}")
        _check_positive_definite(lam)
        w = np.concatenate([self.base.x @ u, self.base.X @ u], axis=1)
        ws = dagger(w)
        for name, value in (("_uh", dagger(u)), ("_w", w), ("_ws", ws), ("_gram", ws @ w),
                            ("_denom", 0.5 * (lam[:, None] + lam[None, :]))):
            object.__setattr__(self, name, value)

    def _rotate(self, v: TangentPair) -> tuple[np.ndarray, np.ndarray]:
        """(r, G) of a tangent of the base's shape (else ShapeMismatch):
        r = [ZU, TU], the tangent in the eigenbasis, and G = W* r, whose
        blocks are x*Z, X*Z (G[0]) and x*T, X*T (G[1]) in the eigenbasis."""
        if v.Z.shape != self.base.x.shape:
            raise ShapeMismatch(f"tangent {v.Z.shape} does not fit the base {self.base.x.shape}")
        r = np.stack((v.Z, v.T)) @ self.spec.eigenvectors
        return r, self._ws @ r

    def _solve(self, s: np.ndarray) -> np.ndarray:
        """The eigenbasis solution a of (Lam a + a Lam)/2 = -skew(s), for
        one right-hand side or a stack; skew-Hermitian as D is real and
        symmetric."""
        return -skew_part(s) / self._denom

    def _back(self, r: np.ndarray) -> TangentPair:
        """The tangent r diag(U*, U*) of the eigenbasis tangent r."""
        z, t = r @ self._uh
        return _finite_tangent(z, t)

    def _level_moves(self, g: np.ndarray) -> np.ndarray:
        """B of the level projection from G: the orbit solves of I1 v, I2 v
        and I3 v, as moves along W."""
        p = self.base.trunc.p
        xZ, XZ, xT, XT = g[0, :p], g[0, p:], g[1, :p], g[1, p:]
        # the orbit equations of I1 v = (iZ, -iT), I2 v = (T, -Z), I3 v = (iT, iZ)
        a1, a2, a3 = self._solve(np.stack([1j * (xZ - XT), xT - XZ, 1j * (xT + XZ)]))
        return np.stack([np.concatenate([-1j * a1, -(a2 + 1j * a3)]),
                         np.concatenate([a2 - 1j * a3, 1j * a1])])

    def _orbit_moves(self, g: np.ndarray) -> np.ndarray:
        """B = -diag(a, a) of the orbit projection (-x a, -X a) from G."""
        p = self.base.trunc.p
        a = self._solve(g[0, :p] + g[1, p:])
        b = np.zeros_like(g)
        b[0, :p] = b[1, p:] = -a
        return b

    def orbit(self, v: TangentPair) -> TangentPair:
        _, g = self._rotate(v)
        return self._back(self._w @ self._orbit_moves(g))

    def level(self, v: TangentPair) -> TangentPair:
        r, g = self._rotate(v)
        return self._back(r + self._w @ self._level_moves(g))

    def horizontal(self, v: TangentPair) -> TangentPair:
        r, g = self._rotate(v)
        b = self._level_moves(g)
        return self._back(r + self._w @ (b - self._orbit_moves(g + self._gram @ b)))

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
