"""Truncated restricted Grassmannian side of the quotient.

Subspaces are represented by orthonormal frames, taken as the library's
Householder QR returns them: no column gauge is fixed, since no value read
off a frame depends on which orthonormal frame spans the plane.  Equality
is always judged by projector distance ||F1 F1* - F2 F2*||, never by frame
entries.  Orthonormality is checked where a frame enters from outside: the
Subspace constructor and the file reader (jsonio).  This module provides

  * psi1 and its section: the identification of stable configuration pairs
    (first structure) with cotangent data (P, eta), eta = (1/k^2) x X*,
    held as P and the n x p fiber V with eta = F_P V* (no frame of P^perp),
  * psi3 and its section: the identification of stable pairs (third
    structure) with transversal subspace pairs (P, Q), P = Ran(x + X) and
    Q = Ker(x* - X*).  A pair is held as P and Q^perp = Ran(x - X), two
    n x p frames, the Q factors of the thin QRs of x + X and x - X
    (moment._pm_factors), taken once membership is judged; Q itself,
    n x q, appears only in pair files (jsonio),
  * the one SVD M = L diag(s) R* of M = F_P* F_Qperp (_m_svd): s are the
    cosines of the principal angles between P and Q^perp (Bjorck and
    Golub, Math. Comp. 27, 1973), and it gives the transversality, the
    graph and project3's point with no further factorization,
  * the graph operator A: P -> P^perp whose graph is Q^perp, held only in
    ambient form w = F_Pperp A (_graph), so no frame of P^perp is built,
    and the characteristic angles cos(theta_i) = 1/sqrt(1 + a_i^2), read
    off the singular values a_i of w.

The curvature operator Y -> 2(V V* Y + Y V* V) of the Grassmannian, which
the k1 curvature form on psi1's fiber V pairs with V, is evaluated on V's
singular values in potentials (the k1 curvature route).

Subspace frames are read-only, and a pair is immutable, so hkspace._memo
keeps psi3's pair on its point (_orbit_pair), and on the pair the SVD of
M, w and the angles, each built once per value; membership and
transversality are judged at the caller's tol on each call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MEMBERSHIP_TOL, FRAME_TOL
from .errors import BadCotangent, NotTransversal, ShapeMismatch
from .hkspace import ConfigPoint, Truncation, _memo, _owned, _point, _read_only
from .matcore import as_matrix, dagger, fnorm
from .moment import _pm_factors, _plus_minus, _stable1_qr, _stable3_verdict

__all__ = [
    "CotangentPoint",
    "OrbitPair",
    "Subspace",
    "characteristic_angles",
    "complement_frame",
    "projector_distance",
    "psi1",
    "psi1_section",
    "psi3",
    "psi3_section",
]


@dataclass(frozen=True)
class Subspace:
    """A d-plane in C^n held as an n x d frame with orthonormal columns.

    Immutable: the frame is read-only, copied from the caller's array
    where as_matrix would alias it."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _orthonormal(_owned(self.frame, "frame")))

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def ambient(self) -> int:
        return self.frame.shape[0]

    def projector(self) -> np.ndarray:
        return self.frame @ dagger(self.frame)


def _orthonormal(f: np.ndarray) -> np.ndarray:
    """f, refused with ShapeMismatch unless ||F*F - Id|| <= FRAME_TOL (1 + d)."""
    d = f.shape[1]
    err = fnorm(dagger(f) @ f - np.eye(d))
    if err > FRAME_TOL * (1.0 + d):
        raise ShapeMismatch(f"frame columns not orthonormal, ||F*F - Id|| = {err:.3e}")
    return f


def _subspace(frame: np.ndarray) -> Subspace:
    """Subspace of a complex128 frame that no caller holds and that is
    orthonormal already: a Q factor the library has just computed, or a
    file's frame that jsonio has checked.  Nothing is checked, coerced or
    copied; the frame is marked read-only."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "frame", _read_only(frame))
    return sub


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Gauge-independent distance ||P_a - P_b||_F between subspaces."""
    return fnorm(a.projector() - b.projector())


def complement_frame(sub: Subspace) -> np.ndarray:
    """Orthonormal frame of the orthogonal complement: the last n - d
    columns of the complete QR of the frame, as the QR returns them.  The
    frame is orthonormal, so it has full rank d and its first d Q columns
    span it; the rest span its complement, with no rank to decide."""
    return np.linalg.qr(sub.frame, mode="complete")[0][:, sub.dim:]


@dataclass(frozen=True)
class CotangentPoint:
    """Cotangent datum (P, eta) held as P and the n x p fiber coordinate V,
    with F_P* V = 0: eta = F_P V*, an n x n matrix vanishing on P and
    ranging inside P (the compressed form of a map P^perp -> P).  V is
    fixed by eta only up to the choice of frame F_P, so data are compared
    through eta, which is formed on each access.  V is refused (BadCotangent)
    unless ||F_P* V||_F <= 1e-7 ||V||_F, a bound of degree 1 in V like
    the component it judges, so no V of any size inside P passes."""

    P: Subspace
    V: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.V, "V")
        shape = self.P.frame.shape
        if v.shape != shape:
            raise BadCotangent(f"V must be {shape[0]} x {shape[1]}, got {v.shape}")
        if fnorm(dagger(self.P.frame) @ v) > 1e-7 * fnorm(v):
            raise BadCotangent("V has a component in P (eta does not vanish on P)")
        object.__setattr__(self, "V", v)

    @property
    def eta(self) -> np.ndarray:
        return self.P.frame @ dagger(self.V)


@dataclass(frozen=True)
class OrbitPair:
    """Transversal pair (P, Q), dim P = p, dim Q = q = n - p, held as P and
    Qperp = Q^perp, two p-planes: Q^perp is the graph of A: P -> P^perp,
    read only in ambient form (_graph), and no computation reads Q itself.
    For psi3's pair the frames are the Q factors of the thin QRs of x + X
    and x - X, as the QR returns them.

    Q is a file-boundary representation: jsonio.save_pair writes
    complement_frame(Qperp) as the file's Q, and load_pair stores the
    complement of the file's Q frame as Qperp.

    Immutable, like its Subspaces: what is derived from it is memoized on
    it (hkspace._memo), and a pair built anew starts with an empty memo.
    """

    P: Subspace
    Qperp: Subspace

    def __post_init__(self):
        if self.P.ambient != self.Qperp.ambient or self.P.dim != self.Qperp.dim:
            raise ShapeMismatch(
                f"P ({self.P.ambient} x {self.P.dim}) and Q^perp "
                f"({self.Qperp.ambient} x {self.Qperp.dim}) must be planes of "
                "one dimension in one space"
            )

    def transversality(self) -> float:
        """sigma_min of the stacked n x n frames [F_P F_Q]; zero means P and
        Q intersect.  With B = F_P* F_Q, the Gram matrix of [F_P F_Q] is
        [[Id, B], [B*, Id]], with eigenvalues 1 +- sigma_i(B) and 1, so
        tau^2 = 1 - c for c = sigma_max(B).  F_Q F_Q* + F_Qperp F_Qperp* = Id
        gives B B* = Id - M M*, so on the SVD M = L diag(s) R* (_m_svd)
        c^2 = 1 - s_min^2 and tau^2 = (1 - c^2)/(1 + c) = s_min^2/(1 + c),
        free of cancellation as s_min -> 0.  c is read, with no frame of Q
        and no second SVD, as the largest column norm of
        D = F_P L - F_Qperp R diag(s), whose Gram matrix is Id - diag(s)^2
        as L* M R = diag(s): a difference of frames, with an absolute error
        of a few eps, where sqrt(1 - s_min^2) would lose half the digits as
        s_min -> 1.  So tau is accurate to round-off at both ends."""
        l, s, r = _m_svd(self)
        d = self.P.frame @ l - (self.Qperp.frame @ r) * s
        return float(s[-1] / np.sqrt(1.0 + np.max(np.linalg.norm(d, axis=0))))


def _m_svd(pair: OrbitPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, s, R), the SVD M = L diag(s) R* of M = F_P* F_Qperp, s
    descending: read-only and memoized on the pair."""
    def factor():
        l, s, rh = np.linalg.svd(dagger(pair.P.frame) @ pair.Qperp.frame)
        return _read_only(l), _read_only(s), _read_only(dagger(rh))

    return _memo(pair, "M svd", factor)


def psi1(pt: ConfigPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> CotangentPoint:
    """Map a stable pair (first structure) to its cotangent datum
    (Ran x, (1/k^2) x X*).  Constant on orbits of the first action.

    x is factored once: the thin QR x = F R that judges first-stable
    membership (moment._stable1_qr, the one computation of in_stable1's
    rule) gives the frame F_P of P, F itself.  The fiber is held as
    V = _fiber(pt, F_P), so eta = F_P V* = (1/k^2) x X* (Id - F_P F_P*),
    which equals (1/k^2) x X* where X*x = 0.  V is projected off P twice,
    so F_P* V is round-off relative to V itself, not to X x*/k^2: it meets
    CotangentPoint's relative check at any tol, even where X lies nearly
    in Ran x and V is small, and a point that passes membership at a loose
    tol maps to a valid datum too."""
    f, _ = _stable1_qr(pt, tol, "psi1 requires X*x = 0 and injective x")
    P = _subspace(f)
    return CotangentPoint(P, _fiber(pt, P.frame))


def _fiber(pt: ConfigPoint, fp: np.ndarray) -> np.ndarray:
    """psi1's fiber V = (Id - F_P F_P*) X x* F_P / k^2 (n x p) for the
    frame fp of P = Ran x: F_Pperp B for the frame coordinate
    B = F_Pperp* (X x*/k^2) F_P, so it has B's singular values, built with
    no frame F_Pperp of P^perp.  One projection leaves a component in P
    of round-off size relative to X x*/k^2; the second leaves one relative
    to V (Kahan and Parlett's "twice is enough")."""
    vf = (pt.X @ (dagger(pt.x) @ fp)) / pt.trunc.k2
    vf = vf - fp @ (dagger(fp) @ vf)
    return vf - fp @ (dagger(fp) @ vf)


def psi1_section(cp: CotangentPoint, k: float) -> ConfigPoint:
    """Explicit section of psi1: x = k F_P, X = k V (= k eta* F_P).

    The result satisfies x*x = k^2 Id and X*x = 0 up to the round-off of
    F_P* V, hence lies in the stable set, and psi1 reproduces (P, eta).  It
    is not level-normalized in the fiber direction (X*X != 0 in general);
    quotient.project1 moves it to the level set.
    """
    n, p = cp.P.frame.shape
    return ConfigPoint(Truncation(p, n - p, k), k * cp.P.frame, k * cp.V)


def psi3(pt: ConfigPoint,
         tol: float = DEFAULT_MEMBERSHIP_TOL) -> tuple[OrbitPair, np.ndarray]:
    """Map a stable pair (third structure) to (P, Q) and the orbit operator.

    z = i (x + X)(x* - X*) has spectrum {i k^2, 0} with eigenspaces
    P = Ran(x + X) and Q = Ker(x* - X*); the pair holds P and
    Q^perp = Ran(x - X), framed by the Q factors of the thin QRs of x + X
    and x - X.  psi3 is exactly constant on orbits of the third action.

    Membership is judged by _orbit_pair alone, by in_stable3's rule, so
    psi3 accepts exactly the points in_stable3 accepts at the same tol.

    z (n x n) is formed only for outside callers: nothing in this package
    reads or checks it.  A verdict read off it would refuse stable points:
    with E = (x - X)*(x + X) - k^2 Id, z (x + X) = i (x + X)(k^2 Id + E),
    so z F_P - i k^2 F_P grows with ||E|| times cond(x + X), which the
    rank cut bounds only by 1/tol.
    """
    pair = _orbit_pair(pt, tol)
    a, c = _plus_minus(pt)
    return pair, 1j * (a @ dagger(c))


def _orbit_pair(pt: ConfigPoint, tol: float) -> OrbitPair:
    """psi3's pair without z, for the routes and projections that read only
    the pair: membership is judged at tol (moment._stable3_verdict,
    NotInStable3), then the Q factors of the thin QRs of x +/- X
    (moment._pm_factors), as they are, frame P and Q^perp: orthonormal to
    round-off whatever the condition of x +/- X (Householder QR).  The
    pair is memoized on pt, so what is memoized on it is built once."""
    _stable3_verdict(
        pt, tol, "psi3 requires x*x - X*X = k^2 Id, Hermitian X*x and full-rank x +/- X")

    def pair() -> OrbitPair:
        q_a, _, q_c, _ = _pm_factors(pt)
        return OrbitPair(_subspace(q_a), _subspace(q_c))

    return _memo(pt, "pair", pair)


def _graph(pair: OrbitPair, tol: float) -> np.ndarray:
    """The graph operator in ambient form, the n x p matrix
    w = F_Pperp A = F_Qperp M^-1 - F_P = F_Qperp R diag(s)^-1 L* - F_P on
    the SVD M = L diag(s) R* of _m_svd, with no inverse taken.

    F_Qperp M^-1 is the one basis of Q^perp that F_P* maps to Id, so w does
    not depend on the frames chosen for P^perp or Q^perp, and none is
    built.  Refused at tol unless transversal (_transversal_svd), on each
    call.  w is read-only and memoized on the pair.
    """
    l, s, r = _transversal_svd(pair, tol)
    return _memo(pair, "graph", lambda: _read_only(
        (pair.Qperp.frame @ (r / s)) @ dagger(l) - pair.P.frame))


def _transversal_svd(pair: OrbitPair,
                     tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_m_svd(pair), or NotTransversal unless s_min > tol * max(1, s_max):
    the rule of _graph and project3."""
    l, s, r = _m_svd(pair)
    if s.size == 0 or s[-1] <= tol * max(1.0, s[0]):
        raise NotTransversal("P and Q^perp-graph condition fails, sigma_min(F_P* F_Qperp) = "
                             f"{0.0 if s.size == 0 else s[-1]:.3e}")
    return l, s, r


def psi3_section(pair: OrbitPair, k: float,
                 tol: float = DEFAULT_MEMBERSHIP_TOL) -> ConfigPoint:
    """Canonical preimage of the pair (P, Q) under psi3:

        x = k (F_P + (1/2) F_Pperp A),   X = -(k/2) F_Pperp A.

    Satisfies x*x - X*X = k^2 Id and X*x = -(k^2/4) A*A in exact
    arithmetic, so it lies in the stable set of the third structure, and
    psi3 reproduces (P, Q), up to a round-off in those equations of about
    eps k^2 / sigma_min(M)^2, M = F_P* F_Qperp: near an intersecting pair
    it exceeds tol k^2, and psi3 refuses the section.
    Only the product w = F_Pperp A of _graph enters, so no frame of P^perp
    is built.
    """
    fp, w = pair.P.frame, _graph(pair, tol)
    n, p = fp.shape
    return _point(Truncation(p, n - p, k), k * (fp + 0.5 * w), -0.5 * k * w)


def characteristic_angles(pair: OrbitPair, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
    """Ascending characteristic angles theta_i in [0, pi/2) of the pair,
    cos(theta_i) = 1/sqrt(1 + a_i^2) with a_i^2 the eigenvalues of A*A.

    Exactly p angles are reported.  A*A is p x p of rank at most
    min(p, n - p), so when p exceeds n - p the surplus angles are exactly
    zero.  The others are arctan of the min(p, n - p) largest singular
    values of w = F_Pperp A (those of A, F_Pperp being orthonormal), which
    keeps near-zero angles absolutely accurate where the squared spectrum
    would lose half the digits.  The angles are read-only and memoized on
    the pair, as its graph w is; transversality is judged at tol on each
    call (NotTransversal).
    """
    w = _graph(pair, tol)
    return _memo(pair, "angles", lambda: _read_only(_angles(w)))


def _angles(w: np.ndarray) -> np.ndarray:
    """characteristic_angles from an already computed _graph w."""
    p = w.shape[1]
    s = np.linalg.svd(w, compute_uv=False)[:min(p, w.shape[0] - p)]
    theta = np.zeros(p)
    theta[:s.size] = np.arctan(s)
    return np.sort(theta)
