"""The random stream is a documented function of the seed: gaussian_complex
draws the same bytes for the same (seed, shape) from release to release,
every sampler leaves the generator where it left it before, and
sample_stable1 refuses an eps it cannot draw with before drawing.
sample_level lands over the cotangent datum of the same seed's first-stable
draw, and sample_stable3 makes the draws of the projected construction
act3(h, u, project1(sample_stable1).point) and lands in its
third-structure orbit.  Each point sampler stands on one thin QR of x, and
a random plane on one thin QR of a Gaussian."""

import hashlib
import math
import re
import warnings

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
from hkq.matcore import _eigh, _fix_column_phases, dagger, fnorm
from hkq.sampling import (
    _hermitian_ball,
    gaussian_complex,
    make_rng,
    random_hermitian_ball,
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


def test_gaussian_modulus_stays_within_the_eps_bound():
    # u1 = 1 - rng.random() >= 2^-53, so the modulus is at most sqrt(53 log 2)
    assert math.sqrt(-math.log(2.0 ** -53)) <= 6.07
    z = gaussian_complex(make_rng(0), (100000,))
    assert np.abs(z).max() <= math.sqrt(53 * math.log(2.0))


# sha256 over the bytes of x, and over those of x and X, of sample_stable1
# at (2, 3, sqrt 2), seed 0, for each eps of STABLE1_EPS in order.  The x
# digest is that of every release since the stream was pinned; the x and X
# digest moved once, when X came to be projected off Ran x by the Q factor
# of x instead of a solve against x*x.
STABLE1_X_DIGEST = "dee932c914ed734073ad45415b339d14de77c658a006909fe9af2fea05010729"
STABLE1_DIGEST = "00268ecf2af53e312e15fd13a439544a81b2e933c826001598c30b5d1b44696e"
STABLE1_EPS = (0.0, 0.3, -0.5, 1e-300, 1e10, 1e100)


def test_sample_stable1_draws_are_pinned_for_valid_eps():
    hx, h = hashlib.sha256(), hashlib.sha256()
    for eps in STABLE1_EPS:
        pt = sample_stable1(Truncation(2, 3, math.sqrt(2.0)), make_rng(0), eps)
        hx.update(pt.x.tobytes())
        h.update(pt.x.tobytes())
        h.update(pt.X.tobytes())
    assert hx.hexdigest() == STABLE1_X_DIGEST
    assert h.hexdigest() == STABLE1_DIGEST


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


@pytest.mark.parametrize("eps,message", [
    (math.nan, "eps must be finite"),
    (math.inf, "eps must be finite"),
    (-math.inf, "eps must be finite"),
    (1e200, "eps=1e+200 is too large"),
    (-1e200, "eps=-1e+200 is too large"),
])
def test_sample_stable1_refuses_eps_before_drawing(eps, message):
    rng = make_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_stable1(Truncation(2, 3, math.sqrt(2.0)), rng, eps)
    assert rng.bit_generator.state == state  # nothing drawn


def _projected_stable3(trunc, seed):
    """The projected construction, from the same draws: S's projection by
    project1, moved by act3 with the same h and u; and the generator after
    it."""
    rng = make_rng(seed)
    level = project1(sample_stable1(trunc, rng)).point
    h = random_hermitian_ball(trunc.p, rng, radius=1.0)
    u = random_unitary(trunc.p, rng)
    return act3(_eigh(h), u, level), rng


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
        # the gauge: each column's largest-modulus entry is real positive,
        # and the frame is the phase-fixed Q factor, bit for bit
        piv = frame[np.argmax(np.abs(frame), axis=0), np.arange(d)]
        assert np.all(np.abs(piv.imag) <= 1e-14) and np.all(piv.real > 0.0)
        assert frame.tobytes() == _fix_column_phases(np.linalg.qr(g)[0]).tobytes()


@pytest.mark.parametrize("p,radius", [(1, 1.0), (3, 0.5), (8, 2.0)])
def test_hermitian_ball_stays_within_its_radius(p, radius):
    for seed in range(20):
        h = random_hermitian_ball(p, make_rng(seed), radius)
        assert np.array_equal(h, dagger(h))
        assert np.linalg.norm(h, 2) <= radius * (1.0 + 1e-15)
        rng = make_rng(seed)
        h2, spec = _hermitian_ball(p, rng, radius)
        assert np.array_equal(h2, h)  # the public draw is the private one
        assert np.abs(spec.eigenvalues).max() <= radius
        np.testing.assert_allclose(spec.reconstruct(), h, rtol=0, atol=1e-14 * radius)
