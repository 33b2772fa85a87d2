"""The random stream is a documented function of the seed: gaussian_complex
draws the same bytes for the same (seed, shape) from release to release,
and sample_stable1 refuses an eps it cannot draw with before drawing."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from hkq import Truncation
from hkq.sampling import gaussian_complex, make_rng, sample_stable1

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
