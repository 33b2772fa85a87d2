"""Deterministic random generators for points, tangents and group elements.

The generator is numpy's PCG64 behind default_rng; normal deviates are
produced by an explicit Box-Muller transform of uniform draws so the stream
is a documented, portable function of the seed.  Every sampler is a pure
function of (parameters, generator state).

Every point sampler stands on one first-stable draw, factored once by a
thin QR x = F R (_draw_stable1): the rejection rule reads the singular
values of R, X is projected off Ran x by F, the factors are stored on the
drawn point's memo as moment._x_factors, and the level point over the
draw is the closed level section over its cotangent datum (F, X R*/k^2),
quotient._level_section, with no projection (sample_level).  The draw
spreads x about the base point by the constant _SPREAD.
sample_stable3 moves that level point by act3.  A random plane is framed
by the Q factor of a Gaussian, as the QR returns it; the Gaussian has full
rank with probability one (random_subspace).  A Hermitian draw is factored
once: its operator norm is read off the spectrum that act3 and exp act
through (_hermitian_ball).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample
from .grassmann import CotangentPoint, OrbitPair, Subspace, _subspace
from .hkspace import ConfigPoint, TangentPair, Truncation, _point, act3
from .matcore import (
    HermitianSpectrum,
    _eigh,
    dagger,
    hermitian_part,
    skew_part,
)
from .moment import _factor_x, _x_factors
from .quotient import _level_section

__all__ = [
    "gaussian_complex",
    "make_rng",
    "random_group_positive",
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

# The spread of a first-stable draw: x = base + _SPREAD * Gaussian.  A
# gaussian_complex entry has modulus at most sqrt(53 log 2) < 1.82 / 0.3,
# so every entry of x*x is at most n (|k| + 1.82)^2, finite for every k
# that Truncation accepts.
_SPREAD = 0.3


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


def _hermitian_ball(p: int, rng: np.random.Generator,
                    radius: float) -> HermitianSpectrum:
    """Spectrum of a Hermitian p x p matrix with operator norm at most
    `radius`: the Hermitian part of a complex Gaussian, scaled to
    radius * r, r uniform in [0, 1).  One eigendecomposition: the operator
    norm is the largest eigenvalue modulus, read off the spectrum that a
    caller acting with the matrix (act3, exp) needs anyway, and the scale
    is applied to the eigenvalues, whose largest modulus is radius * r to
    one rounding."""
    spec = _eigh(hermitian_part(gaussian_complex(rng, (p, p))))
    lam = spec.eigenvalues
    nrm = max(-lam[0], lam[-1])
    if nrm == 0.0:
        return spec
    c = radius * rng.random() / nrm
    return HermitianSpectrum(lam * c, spec.eigenvectors)


def random_unitary(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: the Q factor of a complex Gaussian, its columns turned
    by the phases of R's diagonal, which makes the law Haar (Mezzadri,
    Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(gaussian_complex(rng, (p, p)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_group_positive(p: int, rng: np.random.Generator) -> np.ndarray:
    """Positive-definite element exp(h), h in the Hermitian ball of radius
    1/2."""
    return _hermitian_ball(p, rng, 0.5).fun(np.exp)


def sample_stable1(trunc: Truncation, rng: np.random.Generator) -> ConfigPoint:
    """Point of the first stable set: x = base + 0.3 * Gaussian (resampled,
    up to 100 times, until sigma_min(x) > 0.1 sigma_max), X Gaussian
    with the x-range component removed so X*x = 0 to round-off."""
    return _draw_stable1(trunc, rng)[0]


def _draw_stable1(trunc: Truncation,
                  rng: np.random.Generator) -> tuple[ConfigPoint, np.ndarray, np.ndarray]:
    """sample_stable1's point with the thin QR x = F R of its x, taken by
    moment._factor_x.  The rejection rule is applied to the singular
    values of the p x p factor R, which are those of x, and X = G - F (F* G)
    for a Gaussian G.  The factors are stored on the point's memo as
    moment._x_factors, the same bits as a fresh computation (the same
    function of the same array), so judging the point, psi1, project1 and
    the k1 routes factor x no more."""
    base = trunc.base_x()
    for _ in range(_MAX_DRAWS):
        x = base + _SPREAD * gaussian_complex(rng, base.shape)
        factors = _factor_x(x)
        f, r, s = factors
        if s[-1] > 0.1 * s[0]:
            break
    else:
        raise DegenerateSample(f"no well-conditioned x after {_MAX_DRAWS} draws")
    g = gaussian_complex(rng, base.shape)
    pt = _point(trunc, x, g - f @ (dagger(f) @ g))
    _x_factors(pt, factors)
    return pt, f, r


def sample_level(trunc: Truncation, rng: np.random.Generator) -> ConfigPoint:
    """Point of the level set over a first-stable draw S = sample_stable1
    (the same draws): the level section over S's cotangent datum,
    quotient._level_section(F, V, k) with V = X R*/k^2 on the thin QR
    x = F R.  As x* F = R* and F* X = 0 to round-off, (Ran F, V) is psi1(S)
    in the frame F, so the point lies on the level set over the same
    quotient point as S's projection L = project1(S).point, and psi1 maps
    both to that datum.  The compact group acts freely on the level set,
    so the point is L W for a unitary W = W(S) that depends on S alone.
    No membership is judged and nothing is projected: one eigendecomposition
    of V*V (quotient._fiber_root) on top of the draw's QR and SVD values.
    This is the form project1 takes too, on the factors (F, R) of its own
    point, turned by a unitary."""
    pt, f, r = _draw_stable1(trunc, rng)
    return _level_section(f, (pt.X @ dagger(r)) / trunc.k2, trunc.k)


def sample_stable3(trunc: Truncation, rng: np.random.Generator) -> ConfigPoint:
    """Point of the third stable set: sample_level's point moved by the
    third action with a random Hermitian parameter h (norm <= 1) and a Haar
    unitary u, drawn after it in that order (_hermitian_ball, then
    random_unitary).

    The level point is L W (sample_level), L = project1(S).point.  Since
    act3(h, u, L W) = act3(h, u W^-1, L) and u W^-1 is Haar like u (u is
    independent of S; Mezzadri, Notices AMS 54, 2007), the sample has the
    law of act3(h, u, L), and seed for seed it lies in the third-structure
    orbit of that point: psi3's pair, and every orbit invariant such as
    K3, agree to round-off."""
    level = sample_level(trunc, rng)
    h = _hermitian_ball(trunc.p, rng, 1.0)
    u = random_unitary(trunc.p, rng)
    return act3(h, u, level)


def sample_point(space: str, trunc: Truncation, rng: np.random.Generator) -> ConfigPoint:
    """The point sampler of the set named by space ("stable1", "level" or
    "stable3"); ValueError for any other name."""
    if space == "stable1":
        return sample_stable1(trunc, rng)
    if space == "level":
        return sample_level(trunc, rng)
    if space == "stable3":
        return sample_stable3(trunc, rng)
    raise ValueError(f"unknown sample space {space!r}")


def random_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Haar random d-plane of C^n (d <= n): the span of an n x d Gaussian,
    which has full rank with probability one, framed by the Q factor of
    its thin QR as it is."""
    return _subspace(np.linalg.qr(gaussian_complex(rng, (n, d)))[0])


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
