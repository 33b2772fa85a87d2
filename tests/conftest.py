"""Shared fixtures: the two scalar reference scenarios and seeded generators.

Scenario S2 (first structure): p = q = 1, k^2 = 2, x = (sqrt 2, 0)^T,
X = (0, 1)^T.  Hand values: gamma gamma*/k^2 = (1+sqrt 3)/2, projected point
(x', X') = (sqrt(2/g2), sqrt(g2) ...) with g2 = (1+sqrt 3)/2, flat potential
at the projected point (sqrt 3 - 1)/2, K1 = (sqrt3-1)/2 - ln((1+sqrt3)/2)/2.

Scenario S3 (third structure): p = q = 1, k^2 = 2, graph operator a = 1,
x = (sqrt 2, sqrt 2/2)^T, X = (0, -sqrt 2/2)^T.  Hand values: spectral
operand 8, K3 = (sqrt 2 - 1)/2, boost h = (1/4) ln 2.

ill_conditioned_stable3 builds third-stable points with an ill-conditioned
x + X, shared by the membership and CLI tests; ill_conditioned_stable1
builds first-stable points with an ill-conditioned x, shared by the
projection, potential and CLI tests.

fresh copies a point or a pair into a new value with an empty memo: a test
that counts factorizations, or that patches a helper between evaluations,
evaluates on a fresh copy so that nothing memoized on the original is read.

graph_coords reads the graph operator A: P -> P^perp of a pair in the
frames (F_P, complement_frame(P)), the oracle form of the ambient w that
grassmann._graph holds.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from hkq import ConfigPoint, OrbitPair, Subspace, Truncation, complement_frame
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.grassmann import _graph
from hkq.matcore import dagger
from hkq.sampling import gaussian_complex, make_rng

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)

# hand-derived constants for the two scalar scenarios
S2_GAMMA2_OVER_K2 = (1.0 + SQRT3) / 2.0
S2_FLAT_AT_LEVEL = (SQRT3 - 1.0) / 2.0
S2_CHARACTER = -0.5 * np.log(S2_GAMMA2_OVER_K2)
S2_K1 = S2_FLAT_AT_LEVEL + S2_CHARACTER
S3_K3 = (SQRT2 - 1.0) / 2.0
S3_H = 0.25 * np.log(2.0)


def ill_conditioned_stable3(p, q, k, cond, offset, seed) -> ConfigPoint:
    """A third-stable point with cond(x + X) = cond whose equations are
    off by a residual of size offset k^3.  With F the first p columns of Id_n,
    R = diag(geomspace(k, k / cond, p)) and D zero except
    D[0, p - 1] = offset k^2:

        x + X = F (R + D),   x - X = k^2 F R^-1 + N,

    N zero in its first p rows and Gaussian (seed) below, so
    (x - X)*(x + X) = k^2 (Id + R^-1 D): the residual sits in the
    equations, not in the rank, and both x +/- X have full rank."""
    n = p + q
    f = np.eye(n, p)
    r = np.diag(np.geomspace(k, k / cond, p))
    d = np.zeros((p, p))
    d[0, p - 1] = offset * k * k
    plus = f @ (r + d)
    noise = np.zeros((n, p), dtype=complex)
    noise[p:] = gaussian_complex(make_rng(seed), (q, p))
    minus = k * k * f @ np.linalg.inv(r) + noise
    return ConfigPoint(Truncation(p, q, k), (plus + minus) / 2, (plus - minus) / 2)


def ill_conditioned_stable1(p, q, k, cond, seed) -> ConfigPoint:
    """A first-stable point with cond(x) = cond: x = U diag(s) W* with
    s = geomspace(k, k / cond, p), U the Q factor of a Gaussian n x p
    matrix and W that of a Gaussian p x p one, and X = G - U (U* G) for a
    third Gaussian n x p matrix G, so X*x = 0 to round-off.  All three
    draws come from make_rng(seed)."""
    rng = make_rng(seed)
    n = p + q
    u = np.linalg.qr(gaussian_complex(rng, (n, p)))[0]
    w = np.linalg.qr(gaussian_complex(rng, (p, p)))[0]
    g = gaussian_complex(rng, (n, p))
    x = (u * np.geomspace(k, k / cond, p)) @ dagger(w)
    return ConfigPoint(Truncation(p, q, k), x, g - u @ (dagger(u) @ g))


def fresh(value):
    """A new ConfigPoint or OrbitPair equal to value, built by the checked
    constructors from copies of its arrays, so its memo starts empty."""
    if isinstance(value, ConfigPoint):
        return ConfigPoint(value.trunc, value.x.copy(), value.X.copy())
    return OrbitPair(Subspace(value.P.frame.copy()), Subspace(value.Qperp.frame.copy()))


def graph_coords(pair, tol=DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
    """A in the frames (F_P, F_Pperp), F_Pperp = complement_frame(P): F_Pperp* w
    for the ambient form w = F_Pperp A of grassmann._graph, which raises
    NotTransversal for an intersecting pair."""
    return dagger(complement_frame(pair.P)) @ _graph(pair, tol)


@pytest.fixture
def trunc11() -> Truncation:
    return Truncation(1, 1, SQRT2)


@pytest.fixture
def s2_point(trunc11) -> ConfigPoint:
    return ConfigPoint(trunc11,
                       np.array([[SQRT2], [0.0]], dtype=complex),
                       np.array([[0.0], [1.0]], dtype=complex))


@pytest.fixture
def s3_point(trunc11) -> ConfigPoint:
    return ConfigPoint(trunc11,
                       np.array([[SQRT2], [SQRT2 / 2]], dtype=complex),
                       np.array([[0.0], [-SQRT2 / 2]], dtype=complex))


@pytest.fixture
def rng():
    return make_rng(20240817)


def _variant(name: str, args: tuple, kwargs: dict) -> str:
    """The counter key of one numpy.linalg call: svd by what it returns
    (values, thin or full factors) and qr by mode; the rest by name."""
    def arg(i, key, default):
        return args[i] if len(args) > i else kwargs.get(key, default)

    if name == "svd":
        if not arg(2, "compute_uv", True):
            return "svd values"
        return "svd full" if arg(1, "full_matrices", True) else "svd thin"
    if name == "qr":
        return f"qr {arg(1, 'mode', 'reduced')}"
    return name


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of the numpy.linalg factorizations made while the test runs,
    one key per factorization variant: "svd values", "svd thin", "svd full",
    "qr <mode>", "eigh", "eigvalsh", "cholesky", "inv", "solve" and
    "slogdet"."""
    counts = collections.Counter()
    for name in ("svd", "qr", "eigh", "eigvalsh", "cholesky", "inv", "solve", "slogdet"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_variant(_name, args, kwargs)] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
