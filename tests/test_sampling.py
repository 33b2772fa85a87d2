"""The random stream is a documented function of the seed: gaussian_complex
draws the same bytes for the same (seed, shape) from release to release,
and sample_stable1 refuses an eps it cannot draw with before drawing.
sample_stable3 makes the draws of the projected construction
act3(h, u, sample_level) and lands in the same third-structure orbit."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from hkq import Truncation, evaluate_routes, in_stable3, projector_distance, psi3
from hkq.hkspace import act3
from hkq.matcore import _eigh, dagger
from hkq.sampling import (
    _hermitian_ball,
    gaussian_complex,
    make_rng,
    random_hermitian_ball,
    random_unitary,
    sample_level,
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


# sha256 over the bytes of x and X of sample_stable1 at (2, 3, sqrt 2),
# seed 0, for each eps of STABLE1_EPS in order
STABLE1_DIGEST = "31bb464ee31defa95791cd362b0da5428a7301884b5f35bcf947c779ff6a6e47"
STABLE1_EPS = (0.0, 0.3, -0.5, 1e-300, 1e10, 1e100)


def test_sample_stable1_draws_are_pinned_for_valid_eps():
    h = hashlib.sha256()
    for eps in STABLE1_EPS:
        pt = sample_stable1(Truncation(2, 3, math.sqrt(2.0)), make_rng(0), eps)
        h.update(pt.x.tobytes())
        h.update(pt.X.tobytes())
    assert h.hexdigest() == STABLE1_DIGEST


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
    level = sample_level(trunc, rng)
    h = random_hermitian_ball(trunc.p, rng, radius=1.0)
    u = random_unitary(trunc.p, rng)
    return act3(_eigh(h), u, level), rng


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (6, 2), (8, 64), (16, 16)])
@pytest.mark.parametrize("k", [math.sqrt(2.0), 30.0])
def test_sample_stable3_lands_in_the_orbit_of_the_projected_draw(p, q, k):
    # the level point over S's cotangent datum is project1(S) W for a
    # unitary W, which the Haar u absorbs: seed for seed, the point lies in
    # the third-structure orbit of the projected construction
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


def test_sample_stable3_factorization_budget(lapack_calls):
    # svd values (sample_stable1's rejection test), thin QR of x (the frame
    # F), eigh of V*V (g and g^-1), eigh of the Hermitian draw (its norm and
    # act3's cosh and sinh), QR of the unitary draw, and act3's inverse of
    # u; no projection and no SVD for the ball's norm.  The counter does not
    # see sample_stable1's solve for X, nor an SVD inside np.linalg.norm.
    sample_stable3(Truncation(4, 5, math.sqrt(2.0)), make_rng(0))
    assert dict(lapack_calls) == {"svd values": 1, "qr reduced": 2, "eigh": 2, "inv": 1}


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
