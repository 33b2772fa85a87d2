"""The truncated flat hyperkahler space of configuration pairs.

Points are pairs (x, X) of complex n x p matrices, n = p + q, carrying the
flat metric

    g((Z1,T1),(Z2,T2)) = Re Tr Z1* Z2 + Re Tr T1* T2,

the quaternionic triple of complex structures

    I1(Z,T) = (iZ, -iT),   I2(Z,T) = (T, -Z),   I3(Z,T) = (iT, iZ),

their symplectic forms omega_j = g(I_j ., .), the complex symplectic form
Omega = Tr(T1* Z2) - Tr(T2* Z1), the two group actions of the truncated
unitary/general-linear group of size p, and the flat hyperkahler potential
K = (1/4) Tr(x*x + X*X - k^2 Id).

The space is flat, so points and tangents are plain matrix pairs; all
curvature lives on the Grassmannian side.  A group element is a plain
p x p matrix too, with no type of its own: each operation checks the one
property it needs, act1 that g is p x p and nonsingular, act3 that u is
unitary, and potentials.character_log_term that its g is Hermitian and
positive.  act3 takes its Hermitian parameter h as a HermitianSpectrum.

Values are validated once, where they enter.  A ConfigPoint or TangentPair
built from a caller's values gets the full check: coercion to complex128,
shape and finite entries.  A point file's matrices get the same checks in
jsonio as they are decoded.  Points and tangents the library builds from
values already validated (tangent sums and scalings, the projections of
quotient.SliceBasis, the images of act1 and act3, psi3_section's points,
the samplers' and a file's points, the ddc suite's displaced points) keep
shape and dtype by construction, so they get one finiteness scan
(_finite_tangent, _point), which still refuses overflow with ShapeMismatch.

A ConfigPoint is immutable: its arrays are read-only (writing into one
raises ValueError), and the checked constructor copies a caller's array
only where as_matrix would alias it, so the caller's array stays writable
and later writes to it do not reach the point.  Immutability is what lets
a point, or another immutable value (grassmann.OrbitPair), carry a private
memo (_memo) of what the library derives from it: first- and third-stable
membership with its factors (moment), psi3's pair (grassmann) and the
level projections (quotient).  Each is computed once per value and
tolerance, and a refusal is never stored, so a repeated call raises its
own message again.  The memo is an instance attribute, not a field, so
equality and repr do not see it, and it lives and dies with its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import UNITARY_TOL
from .errors import BadIndex, NotUnitary, ShapeMismatch, Singular
from .matcore import HermitianSpectrum, as_matrix, dagger, fnorm

__all__ = [
    "ConfigPoint",
    "TangentPair",
    "Truncation",
    "act1",
    "act3",
    "apply_I",
    "flat_potential_K",
    "metric_g",
    "omega",
    "omega_C",
]


def _half_k2_integral(k: float) -> bool:
    """Whether k^2/2 is a positive integer (to 1e-9): the one integrality
    predicate, behind Truncation.integrality_ok and the IntegralityWarning
    of the potentials."""
    half = k * k / 2.0
    return abs(half - round(half)) < 1e-9 and round(half) >= 1


@dataclass(frozen=True)
class Truncation:
    """Dimensions (p, q) of the truncated plus/minus split and the level k.

    p and q are integers (a numpy integer is taken as an int, a bool is
    refused).  k must be finite and nonzero, with k^4 (the fiber operand
    divides by it) a finite normal float: about 1.2e-77 < |k| < 1.2e77.
    integrality_ok records whether k^2/2 is a positive integer, the
    condition under which the determinant character defining the
    quotient-potential formula exists as a group homomorphism to the circle.
    """

    p: int
    q: int
    k: float

    def __post_init__(self):
        for name in ("p", "q"):
            dim = getattr(self, name)
            if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {dim!r}")
            object.__setattr__(self, name, int(dim))  # so files record a JSON integer
        if self.p < 1 or self.q < 1:
            raise ValueError(f"need p, q >= 1, got p={self.p}, q={self.q}")
        if not np.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k}")
        if self.k == 0.0:
            raise ValueError("k must be nonzero")
        k2 = float(self.k) * float(self.k)  # over/underflows silently, unlike numpy's
        if not np.finfo(np.float64).tiny <= k2 * k2 < np.inf:
            raise ValueError(f"k^4 must be normal: about 1.2e-77 < |k| < 1.2e77; k={self.k}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def k2(self) -> float:
        return self.k * self.k

    @property
    def integrality_ok(self) -> bool:
        return _half_k2_integral(self.k)

    def base_x(self) -> np.ndarray:
        """k [Id_p; 0], the x-component of the canonical base point."""
        x = np.zeros((self.n, self.p), dtype=np.complex128)
        x[: self.p, : self.p] = self.k * np.eye(self.p)
        return x


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only (a view of it can no longer write either)."""
    a.flags.writeable = False
    return a


def _owned(m, name: str) -> np.ndarray:
    """as_matrix(m, name), read-only, for a checked constructor: copied
    first where as_matrix aliases the caller's m (m itself, or a view of
    it), so the caller's array stays writable and its later writes do not
    reach the value."""
    a = as_matrix(m, name)
    if a is m or a.base is not None:
        a = a.copy()
    return _read_only(a)


def _memo(obj, key, compute):
    """compute(), memoized on the immutable value obj under key.

    key names the quantity and holds every argument that obj does not
    already fix (the tolerance, say).  The memo is a dict in obj's
    instance __dict__, not a dataclass field, so eq and repr do not see
    it.  An exception from compute is not stored: a refusal is raised
    again, with the caller's own message, on every call."""
    memo = obj.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


@dataclass(frozen=True)
class ConfigPoint:
    """A configuration pair (x, X) of n x p matrices over a truncation.

    Immutable: x and X are read-only, copied from the caller's arrays
    where as_matrix would alias them.  What the library derives from the
    point (membership and its factors, psi3's pair, the level projections)
    is memoized on it per tolerance, by hkspace._memo; a copy built from
    the same arrays starts with an empty memo."""

    trunc: Truncation
    x: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        x = _owned(self.x, "x")
        X = _owned(self.X, "X")
        shape = (self.trunc.n, self.trunc.p)
        if x.shape != shape or X.shape != shape:
            raise ShapeMismatch(
                f"expected {shape} matrices, got x {x.shape}, X {X.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "X", X)

    @staticmethod
    def base(trunc: Truncation) -> "ConfigPoint":
        """The level-set base point (k [Id; 0], 0)."""
        return _point(trunc, trunc.base_x(),
                      np.zeros((trunc.n, trunc.p), dtype=np.complex128))


@dataclass(frozen=True)
class TangentPair:
    """A tangent vector (Z, T); both components share the point's shape."""

    Z: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        Z = as_matrix(self.Z, "Z")
        T = as_matrix(self.T, "T")
        if Z.shape != T.shape:
            raise ShapeMismatch(f"Z {Z.shape} and T {T.shape} must match")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "T", T)

    def __add__(self, other: "TangentPair") -> "TangentPair":
        _same_shape(self, other)
        return _finite_tangent(self.Z + other.Z, self.T + other.T)

    def __sub__(self, other: "TangentPair") -> "TangentPair":
        _same_shape(self, other)
        return _finite_tangent(self.Z - other.Z, self.T - other.T)

    def __mul__(self, scalar: float) -> "TangentPair":
        if np.ndim(scalar) != 0:
            raise ShapeMismatch(f"scalar expected, got ndim={np.ndim(scalar)}")
        return _finite_tangent(self.Z * scalar, self.T * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentPair":
        return _tangent(-self.Z, -self.T)

    @staticmethod
    def zero(trunc: Truncation) -> "TangentPair":
        z = np.zeros((trunc.n, trunc.p), dtype=np.complex128)
        return TangentPair(z, z.copy())


def _tangent(Z: np.ndarray, T: np.ndarray) -> TangentPair:
    """TangentPair of components that are already finite complex128 matrices
    of one shape, built without coercion or checks.  For maps that keep
    those properties exactly (negation, the complex structures)."""
    v = object.__new__(TangentPair)
    object.__setattr__(v, "Z", Z)
    object.__setattr__(v, "T", T)
    return v


def _finite_tangent(Z: np.ndarray, T: np.ndarray) -> TangentPair:
    """_tangent for the result of a sum or a scaling of tangent pairs: the
    shape and dtype are kept, and overflow, the one defect left, is caught
    by one finiteness scan per component."""
    if not (np.isfinite(Z).all() and np.isfinite(T).all()):
        raise ShapeMismatch("tangent arithmetic overflowed to non-finite entries")
    return _tangent(Z, T)


def _point(trunc: Truncation, x: np.ndarray, X: np.ndarray) -> ConfigPoint:
    """ConfigPoint of complex128 n x p matrices built from validated values,
    the counterpart of _finite_tangent: no coercion, and overflow, the one
    defect left, is caught by one finiteness scan per matrix.  x and X are
    arrays no caller holds (fresh results, a file's decoded matrices, or a
    point's own read-only arrays), so they are marked read-only, not
    copied."""
    if not (np.isfinite(x).all() and np.isfinite(X).all()):
        raise ShapeMismatch("point arithmetic overflowed to non-finite entries")
    pt = object.__new__(ConfigPoint)
    object.__setattr__(pt, "trunc", trunc)
    object.__setattr__(pt, "x", _read_only(x))
    object.__setattr__(pt, "X", _read_only(X))
    return pt


def _same_shape(v1: TangentPair, v2: TangentPair) -> None:
    if v1.Z.shape != v2.Z.shape:
        raise ShapeMismatch(f"tangent shapes differ: {v1.Z.shape} vs {v2.Z.shape}")


def _re_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr a* b = Re a . Re b + Im a . Im b for complex matrices of one
    shape, as two real dot products over the flattened entries."""
    a, b = a.ravel(), b.ravel()
    return a.real.dot(b.real) + a.imag.dot(b.imag)


def metric_g(v1: TangentPair, v2: TangentPair) -> float:
    """Flat metric Re Tr Z1*Z2 + Re Tr T1*T2."""
    _same_shape(v1, v2)
    return float(_re_inner(v1.Z, v2.Z) + _re_inner(v1.T, v2.T))


def apply_I(j: int, v: TangentPair) -> TangentPair:
    """Apply the j-th complex structure; the formulas are exact."""
    if j == 1:
        return _tangent(1j * v.Z, -1j * v.T)
    if j == 2:
        return _tangent(v.T, -v.Z)
    if j == 3:
        return _tangent(1j * v.T, 1j * v.Z)
    raise BadIndex(f"complex-structure index must be 1, 2 or 3, got {j}")


def omega(j: int, v1: TangentPair, v2: TangentPair) -> float:
    """Symplectic form omega_j(v1, v2) = g(I_j v1, v2)."""
    return metric_g(apply_I(j, v1), v2)


def omega_C(v1: TangentPair, v2: TangentPair) -> complex:
    """Complex symplectic form Tr(T1* Z2) - Tr(T2* Z1).

    Its real and imaginary parts are omega_2 and omega_3, and it is
    I1-holomorphic: Omega(I1 v1, v2) = i Omega(v1, v2).
    """
    _same_shape(v1, v2)
    return complex(np.sum(v1.T.conj() * v2.Z) - np.sum(v2.T.conj() * v1.Z))


def act1(g, pt: ConfigPoint) -> ConfigPoint:
    """Holomorphic action for the first structure: (x, X) -> (x g^-1, X g*).

    g is a p x p matrix, coerced by as_matrix (ShapeMismatch otherwise).
    act1 is the one place that checks that g is nonsingular: the inversion
    stops at a zero pivot, raised as Singular.  For unitary g the two slots
    transform identically by g^-1.
    """
    g = as_matrix(g, "g")
    if g.shape != (pt.trunc.p, pt.trunc.p):
        raise ShapeMismatch(f"g must be p x p, got {g.shape}")
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise Singular("group element is singular") from exc
    return _point(pt.trunc, pt.x @ ginv, pt.X @ dagger(g))


def act3(h: HermitianSpectrum, u, pt: ConfigPoint) -> ConfigPoint:
    """Holomorphic action for the third structure.

    The positive part is parametrized by a Hermitian h (equal to i times a
    skew-Hermitian Lie-algebra element, so cosh/sinh are real functional
    calculus):

        x' = x u^-1 cosh(h) - X u^-1 sinh(h)
        X' = -x u^-1 sinh(h) + X u^-1 cosh(h).

    h is given as its HermitianSpectrum, so it is Hermitian by construction
    and cosh(h) and sinh(h) share its one eigendecomposition; a caller that
    holds the matrix passes herm_eig(h), which refuses a non-Hermitian one
    (NotHermitian).  u is a p x p matrix, and act3 is the one place that
    checks u*u = Id (NotUnitary); u = None is the identity, applied without
    a product.  A spectrum of zeros with u = None is the identity exactly.
    """
    p = pt.trunc.p
    if h.eigenvectors.shape != (p, p):
        raise ShapeMismatch(f"h must be p x p, got {h.eigenvectors.shape}")
    xu, Xu = pt.x, pt.X
    if u is not None:
        u = as_matrix(u, "u")
        if u.shape != (p, p):
            raise ShapeMismatch(f"u must be p x p, got {u.shape}")
        err = fnorm(dagger(u) @ u - np.eye(p))
        if err > UNITARY_TOL * (1.0 + fnorm(u)):
            raise NotUnitary(f"act3 needs a unitary element, ||u*u - Id|| = {err:.3e}")
        uinv = np.linalg.inv(u)
        xu, Xu = xu @ uinv, Xu @ uinv
    if not np.any(h.eigenvalues):
        return _point(pt.trunc, xu, Xu)
    c = h.fun(np.cosh)
    s = h.fun(np.sinh)
    return _point(pt.trunc, xu @ c - Xu @ s, -xu @ s + Xu @ c)


def flat_potential_K(pt: ConfigPoint) -> float:
    """Flat hyperkahler potential (1/4) Tr(x*x + X*X - k^2 Id)."""
    tr = _re_inner(pt.x, pt.x) + _re_inner(pt.X, pt.X) - pt.trunc.k2 * pt.trunc.p
    return float(0.25 * tr)
