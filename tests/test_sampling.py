"""The random stream is a documented function of the seed: gaussian_complex
draws the same bytes for the same (seed, shape) from release to release,
every sampler leaves the generator where it left it before, and
each point sampler's default draw is pinned at four shapes.
sample_level lands over the cotangent datum of the same seed's first-stable
draw, and sample_stable3 makes the draws of the projected construction
act3(h, u, project1(sample_stable1).point) and lands in its
third-structure orbit.  Each point sampler stands on one thin QR of x, and
a random plane on one thin QR of a Gaussian."""

import hashlib
import math

import numpy as np
import pytest

from hkq import (
    Truncation,
    evaluate_routes,
    in_stable3,
    on_level_set,
    project1,
    projector_distance,
    psi1,
    psi3,
)
from hkq.hkspace import act3
from hkq.matcore import dagger, fnorm
from hkq.sampling import (
    _hermitian_ball,
    gaussian_complex,
    make_rng,
    random_subspace,
    random_unitary,
    sample_cotangent,
    sample_level,
    sample_orbit_pair,
    sample_stable1,
    sample_stable3,
)

# sha256 over the bytes of gaussian_complex(make_rng(seed), shape) for the
# (seed, shape) list below, in order
STREAM_DIGEST = "ab3ba626eebfe01f10d0ccdb94413f0ef66e08b7c2da5aac7a0f6f404216cf9d"
SHAPES = [(0, (3, 2)), (1, (7, 5)), (2, (1, 1)), (3, (4, 4, 3)), (4, (0, 3)), (5, (64, 8))]


def test_gaussian_stream_is_pinned():
    h = hashlib.sha256()
    for seed, shape in SHAPES:
        z = gaussian_complex(make_rng(seed), shape)
        assert z.shape == shape and z.dtype == np.complex128
        h.update(z.tobytes())
    assert h.hexdigest() == STREAM_DIGEST


# sha256 over the bytes of x, and over those of x and X, of sample_stable1
# at (2, 3, sqrt 2), seed 0.  These are the digests of the draw at spread
# 0.3 since X came to be projected off Ran x by the Q factor of x instead
# of a solve against x*x.
STABLE1_X_DIGEST = "f0719c9354e790d70fedab63563d209a8b22ce13a682addfff942dc9e9fbe3f4"
STABLE1_DIGEST = "411ed6a90301fc0d74186b029e7d9ec3bfc7099ae61de95952927d682d136922"


def test_sample_stable1_draw_is_pinned():
    pt = sample_stable1(Truncation(2, 3, math.sqrt(2.0)), make_rng(0))
    assert hashlib.sha256(pt.x.tobytes()).hexdigest() == STABLE1_X_DIGEST
    assert hashlib.sha256(pt.x.tobytes() + pt.X.tobytes()).hexdigest() == STABLE1_DIGEST


# sha256 over x then X of seeds 0, 1, 2 at k = sqrt(2), per sampler and
# shape: each sampler's default draw, from (1, 1) up to a tall (8, 64) x
SAMPLER_DIGESTS = [
    (sample_stable1, 1, 1,
     "7fbbb37930a7cf816ee305231ccfa3edefc37edbfa6c81e2b02b45bb4cb6ae87"),
    (sample_stable1, 2, 3,
     "3b4185a392aa257c49c38cb1c5bf373ca92f3bc9752f1c600765d8cbcf25c76e"),
    (sample_stable1, 4, 5,
     "05dc8d625a19b825925b0a4a2df642573dd7d3adfcb5fec14dc60183e79df81a"),
    (sample_stable1, 8, 64,
     "6cfbf5f063b294e85ec8a68574cc8ff30c3b22f6756d19f269b7b3cd951a0c7a"),
    (sample_level, 1, 1,
     "04637193a66b2acd1d611fc528b5976dc29e559de42ffde3d3bef341527f6c15"),
    (sample_level, 2, 3,
     "cdadf15179497ee0210664a31fd6cf5161d6ab173fc2dab191efbd6ffd87f269"),
    (sample_level, 4, 5,
     "9b10decb3383f95a80bc75771eec39b3e71d5b544badf80af897d409e319549e"),
    (sample_level, 8, 64,
     "277b892d77a3c0bcdadfb1c19153d80999d14cfb30bfa5d6f8e4e4199fcfbd43"),
    (sample_stable3, 1, 1,
     "ba1f1e5753bfe6ab35b4200fb435ca478d80f91152244d3913805250d6bb0f3e"),
    (sample_stable3, 2, 3,
     "70447a329694cb40547a16e885e8e6736e79591bd08464921d39a61c84f30ad7"),
    (sample_stable3, 4, 5,
     "132bc15194e797aef4869a71fb476cdb5eae39fd729056117c1d05750b454a64"),
    (sample_stable3, 8, 64,
     "9c31bf10e6aa50747126c8147eea3379faf7d5b7ce93e7a9b126a21f542b3c07"),
]


@pytest.mark.parametrize("sampler,p,q,digest", SAMPLER_DIGESTS,
                         ids=[f"{f.__name__}-{p}x{q}" for f, p, q, _ in SAMPLER_DIGESTS])
def test_sampler_draws_are_pinned(sampler, p, q, digest):
    h = hashlib.sha256()
    for seed in range(3):
        pt = sampler(Truncation(p, q, math.sqrt(2.0)), make_rng(seed))
        h.update(pt.x.tobytes())
        h.update(pt.X.tobytes())
    assert h.hexdigest() == digest


# sha256 over the bytes of the next rng.random() after each sampler, for
# the samplers and seeds of _next_draws in order: a sampler that took one
# uniform more or less moves it
NEXT_DRAW_DIGEST = "9dafab6fd45eb4bcbebef25aa2768523986d2c8291263308779f4bc00bad0cfc"


def _next_draws() -> np.ndarray:
    trunc = Truncation(4, 5, math.sqrt(2.0))
    calls = [lambda rng, f=f: f(trunc, rng)
             for f in (sample_stable1, sample_level, sample_stable3,
                       sample_cotangent, sample_orbit_pair)]
    calls.append(lambda rng: random_subspace(9, 4, rng))
    out = []
    for call in calls:
        for seed in range(3):
            rng = make_rng(seed)
            call(rng)
            out.append(rng.random())
    return np.array(out)


def test_every_sampler_leaves_the_stream_where_it_was():
    assert hashlib.sha256(_next_draws().tobytes()).hexdigest() == NEXT_DRAW_DIGEST


def _projected_stable3(trunc, seed):
    """The projected construction, from the same draws: S's projection by
    project1, moved by act3 with the same h and u; and the generator after
    it."""
    rng = make_rng(seed)
    level = project1(sample_stable1(trunc, rng)).point
    h = _hermitian_ball(trunc.p, rng, 1.0)
    u = random_unitary(trunc.p, rng)
    return act3(h, u, level), rng


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (6, 2), (8, 64), (16, 16)])
@pytest.mark.parametrize("k", [math.sqrt(2.0), 30.0])
def test_sample_stable3_lands_in_the_orbit_of_the_projected_draw(p, q, k):
    # sample_level's point is project1(S) W for a unitary W, which the Haar
    # u absorbs: seed for seed, the point lies in the third-structure orbit
    # of the projected construction
    trunc = Truncation(p, q, k)
    for seed in range(5):
        rng = make_rng(seed)
        pt = sample_stable3(trunc, rng)
        ref, ref_rng = _projected_stable3(trunc, seed)
        assert rng.random() == ref_rng.random()  # the same draws, in order
        assert in_stable3(pt)
        a, b = psi3(pt)[0], psi3(ref)[0]
        assert projector_distance(a.P, b.P) <= 1e-12
        assert projector_distance(a.Qperp, b.Qperp) <= 1e-12
        for which in ("k3", "k3hat"):
            got, want = evaluate_routes(pt, which), evaluate_routes(ref, which)
            for route, value in want.items():
                assert abs(got[route] - value) <= 1e-11 * abs(value), (which, route)


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (6, 2), (8, 64), (16, 16)])
@pytest.mark.parametrize("k", [0.3, math.sqrt(2.0), 30.0])
def test_sample_level_lies_over_the_datum_of_the_same_draw(p, q, k):
    # the level point over S's cotangent datum: psi1 maps it and S to one
    # datum, so it is S's projection up to the compact action
    trunc = Truncation(p, q, k)
    for seed in range(5):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        pt = sample_level(trunc, rng)
        s = sample_stable1(trunc, ref_rng)
        assert rng.random() == ref_rng.random()  # the same draws
        assert on_level_set(pt)
        a, b = psi1(pt), psi1(s)
        assert projector_distance(a.P, b.P) <= 1e-12
        assert fnorm(a.eta - b.eta) <= 1e-12 * fnorm(b.eta)


@pytest.mark.parametrize("sampler,budget", [
    # the thin QR x = F R and the singular values of R (the rejection rule);
    # X is projected off Ran x by F, with no solve
    (sample_stable1, {"qr reduced": 1, "svd values": 1}),
    # and the eigh of V*V, V = X R*/k^2, for the level section
    (sample_level, {"qr reduced": 1, "svd values": 1, "eigh": 1}),
    # and the eigh of the Hermitian draw (its norm and act3's cosh and
    # sinh), the QR of the unitary draw and act3's inverse of u
    (sample_stable3, {"qr reduced": 2, "svd values": 1, "eigh": 2, "inv": 1}),
])
def test_sampler_factorization_budget(sampler, budget, lapack_calls):
    # no projection, no SVD with vectors and no solve; the counter does not
    # see an SVD inside np.linalg.norm
    sampler(Truncation(4, 5, math.sqrt(2.0)), make_rng(0))
    assert dict(lapack_calls) == budget


def test_random_subspace_factorization_budget(lapack_calls):
    random_subspace(9, 4, make_rng(0))
    assert dict(lapack_calls) == {"qr reduced": 1}


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (9, 4), (72, 8), (16, 16)])
def test_random_subspace_frames_the_span_of_its_gaussian(n, d):
    for seed in range(5):
        frame = random_subspace(n, d, make_rng(seed)).frame
        g = gaussian_complex(make_rng(seed), (n, d))
        assert fnorm(dagger(frame) @ frame - np.eye(d)) <= 1e-14 * (1 + d)
        # the plane is Ran g: the projector fixes g
        assert fnorm(g - frame @ (dagger(frame) @ g)) <= 1e-14 * fnorm(g)
        # the frame is the Q factor as the QR returns it, bit for bit
        assert frame.tobytes() == np.linalg.qr(g)[0].tobytes()


@pytest.mark.parametrize("p,radius", [(1, 1.0), (3, 0.5), (8, 2.0)])
def test_hermitian_ball_stays_within_its_radius(p, radius):
    # the spectrum of the Hermitian part of the seed's Gaussian, scaled so
    # that its largest modulus is radius times the next uniform
    for seed in range(20):
        rng = make_rng(seed)
        spec = _hermitian_ball(p, rng, radius)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.abs(spec.eigenvalues).max() <= radius
        ref = make_rng(seed)
        g = gaussian_complex(ref, (p, p))
        h = 0.5 * (g + dagger(g))
        h *= radius * ref.random() / np.linalg.norm(h, 2)
        assert rng.random() == ref.random()  # the same draws, in order
        u = spec.eigenvectors
        np.testing.assert_allclose((u * spec.eigenvalues) @ dagger(u), h,
                                   rtol=0, atol=1e-14 * radius)
