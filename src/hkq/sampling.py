"""Deterministic random generators for points, tangents and group elements.

The generator is numpy's PCG64 behind default_rng; normal deviates are
produced by an explicit Box-Muller transform of uniform draws so the stream
is a documented, portable function of the seed.  Every sampler is a pure
function of (parameters, generator state).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample
from .grassmann import CotangentPoint, OrbitPair, Subspace
from .hkspace import ConfigPoint, TangentPair, Truncation, _point, act3
from .matcore import _eigh, dagger, hermitian_part, orthonormal_range, skew_part
from .quotient import project1

__all__ = [
    "gaussian_complex",
    "make_rng",
    "random_group_positive",
    "random_hermitian_ball",
    "random_skew",
    "random_tangent",
    "random_unitary",
    "sample_cotangent",
    "sample_level",
    "sample_orbit_pair",
    "sample_point",
    "sample_stable1",
    "sample_stable3",
]


# Draws a rejection sampler makes before it raises DegenerateSample.
_MAX_DRAWS = 100

# A bound on the modulus sqrt(-log(u1)) of a gaussian_complex entry:
# u1 = 1 - rng.random() >= 2^-53, so the modulus is at most
# sqrt(53 log 2) = 6.0611.
_GAUSSIAN_MAX = 6.07

# sample_stable1 refuses an eps for which n (|k| + _GAUSSIAN_MAX |eps|)^2,
# a bound on the entries of x*x, exceeds this: x*x stays finite with eight
# orders of magnitude to spare for the solve against it.
_GRAM_MAX = 1e300


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex normals with unit total variance (E|z|^2 = 1)."""
    size = math.prod(shape)
    u1 = 1.0 - rng.random(size)
    u2 = rng.random(size)
    r = np.sqrt(-np.log(u1))
    z = r * np.exp(2j * np.pi * u2)
    return z.reshape(shape)


def random_tangent(trunc: Truncation, rng: np.random.Generator) -> TangentPair:
    shape = (trunc.n, trunc.p)
    return TangentPair(gaussian_complex(rng, shape), gaussian_complex(rng, shape))


def random_skew(p: int, rng: np.random.Generator) -> np.ndarray:
    return skew_part(gaussian_complex(rng, (p, p)))


def random_hermitian_ball(p: int, rng: np.random.Generator,
                          radius: float = 1.0) -> np.ndarray:
    """Hermitian matrix with operator norm at most `radius`."""
    h = hermitian_part(gaussian_complex(rng, (p, p)))
    nrm = np.linalg.norm(h, 2)
    if nrm == 0.0:
        return h
    return h * (radius * rng.random() / nrm)


def random_unitary(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    q, r = np.linalg.qr(gaussian_complex(rng, (p, p)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_group_positive(p: int, rng: np.random.Generator) -> np.ndarray:
    """Positive-definite element exp(h), h in the Hermitian ball of radius
    1/2."""
    h = random_hermitian_ball(p, rng, radius=0.5)
    return _eigh(h).fun(np.exp)


def sample_stable1(trunc: Truncation, rng: np.random.Generator,
                   eps: float = 0.3) -> ConfigPoint:
    """Point of the first stable set: x = base + eps * Gaussian (resampled,
    up to 100 times, until sigma_min(x) > 0.1 sigma_max), X Gaussian
    with the x-range component removed so X*x = 0 to round-off.

    eps is refused with ValueError, before anything is drawn, unless it is
    finite and every draw keeps x*x finite: each entry of x is at most
    |k| + 6.07 |eps| in modulus, and n (|k| + 6.07 |eps|)^2 must not
    exceed 1e300."""
    _check_eps(trunc, eps)
    base = trunc.base_x()
    for _ in range(_MAX_DRAWS):
        x = base + eps * gaussian_complex(rng, base.shape)
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 0.1 * s[0]:
            break
    else:
        raise DegenerateSample(
            f"no well-conditioned x after {_MAX_DRAWS} draws (eps={eps})"
        )
    X = gaussian_complex(rng, base.shape)
    X = X - x @ np.linalg.solve(dagger(x) @ x, dagger(x) @ X)
    return _point(trunc, x, X)


def _check_eps(trunc: Truncation, eps: float) -> None:
    """Refuse (ValueError) an eps that is not finite, or with which
    x = base + eps * Gaussian could make x*x overflow."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    bound = abs(trunc.k) + _GAUSSIAN_MAX * abs(eps)
    if not trunc.n * bound * bound <= _GRAM_MAX:
        raise ValueError(f"eps={eps:g} is too large: x*x could overflow "
                         f"(n (|k| + 6.07 |eps|)^2 > {_GRAM_MAX:g} at n = {trunc.n})")


def sample_level(trunc: Truncation, rng: np.random.Generator,
                 eps: float = 0.3) -> ConfigPoint:
    """Point of the level set: stable1 sample pushed down by project1."""
    return project1(sample_stable1(trunc, rng, eps)).point


def sample_stable3(trunc: Truncation, rng: np.random.Generator,
                   eps: float = 0.3) -> ConfigPoint:
    """Point of the third stable set: level sample moved by the third action
    with a random Hermitian parameter (norm <= 1) and unitary part."""
    pt = sample_level(trunc, rng, eps)
    h = random_hermitian_ball(trunc.p, rng, radius=1.0)
    u = random_unitary(trunc.p, rng)
    return act3(_eigh(h), u, pt)


def sample_point(space: str, trunc: Truncation, rng: np.random.Generator,
                 eps: float = 0.3) -> ConfigPoint:
    if space == "stable1":
        return sample_stable1(trunc, rng, eps)
    if space == "level":
        return sample_level(trunc, rng, eps)
    if space == "stable3":
        return sample_stable3(trunc, rng, eps)
    raise ValueError(f"unknown sample space {space!r}")


def random_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    return Subspace(orthonormal_range(gaussian_complex(rng, (n, d))))


def sample_cotangent(trunc: Truncation, rng: np.random.Generator) -> CotangentPoint:
    """Random cotangent datum: random base plane P, and the fiber
    V = G - F_P (F_P* G) of an n x p Gaussian G, which F_P* maps to 0 to
    round-off."""
    P = random_subspace(trunc.n, trunc.p, rng)
    g = gaussian_complex(rng, (trunc.n, trunc.p))
    return CotangentPoint(P, g - P.frame @ (dagger(P.frame) @ g))


def sample_orbit_pair(trunc: Truncation, rng: np.random.Generator) -> OrbitPair:
    """Random transversal pair (P, Q), drawn as P and Q^perp, two Haar
    random p-planes (Q^perp has the law of the complement of a Haar random
    q-plane); resampled, up to 100 times, until the pair's transversality
    exceeds 0.05."""
    for _ in range(_MAX_DRAWS):
        pair = OrbitPair(
            random_subspace(trunc.n, trunc.p, rng),
            random_subspace(trunc.n, trunc.p, rng),
        )
        if pair.transversality() > 0.05:
            return pair
    raise DegenerateSample(f"no transversal pair after {_MAX_DRAWS} draws (margin 0.05)")
