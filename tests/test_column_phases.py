"""No value the package reads off a frame depends on the frame's column
phases.

A subspace is held as any orthonormal frame that spans it, the Q factor of
a Householder QR as numpy returns it; no column gauge is fixed.  These
tests draw points with the plain QR, then evaluate every reader of a frame
twice on fresh copies of the points: once as is, and once with
np.linalg.qr patched to turn its Q factor by a random diagonal unitary D
(Q D, with R replaced by D* R, so that the product is unchanged).  Each
value must agree to round-off, while the frames of P that psi1 and psi3
return move.
"""

import numpy as np
import pytest

from conftest import SQRT2, fresh
from hkq import Truncation
from hkq.grassmann import characteristic_angles, psi1, psi3
from hkq.hkspace import flat_potential_K
from hkq.matcore import dagger, fnorm
from hkq.potentials import evaluate_routes
from hkq.quotient import project1, project3
from hkq.sampling import make_rng, sample_stable1, sample_stable3

SHAPES = [(1, 1), (2, 3), (4, 5), (8, 64), (5, 2)]
SEEDS = [0, 1, 2]
REL = 1e-12


@pytest.fixture
def turned_qr(monkeypatch):
    """Installs, when called, an np.linalg.qr whose Q factor is turned by a
    random diagonal unitary, in reduced and complete mode alike."""
    def install(seed):
        plain, rng = np.linalg.qr, make_rng(1000 + seed)

        def turned(a, mode="reduced"):
            q, r = plain(a, mode=mode)
            d = np.exp(2j * np.pi * rng.random(q.shape[1]))
            return q * d, d.conj()[:, None] * r

        monkeypatch.setattr(np.linalg, "qr", turned)
    return install


def _assert_close(got: dict, want: dict):
    assert set(got) == set(want)
    for name, value in want.items():
        err = fnorm(np.asarray(got[name]) - np.asarray(value))
        assert err <= REL * fnorm(np.asarray(value)), (name, err)


def _assert_moved(turned: np.ndarray, frame: np.ndarray):
    """The test is not vacuous: the frame of P is another frame of the
    same plane."""
    assert fnorm(turned - frame) > 0.1
    assert fnorm(turned @ dagger(turned) - frame @ dagger(frame)) <= REL * frame.shape[1]


def _first_structure(pt) -> tuple[dict, np.ndarray]:
    """Every first-structure value read off a frame, and psi1's frame."""
    cp, res = psi1(pt), project1(pt)
    values = {f"k1.{route}": v for route, v in evaluate_routes(pt, "k1").items()}
    values.update(eta=cp.eta, x=res.point.x, X=res.point.X, g=res.group_part,
                  g_eigenvalues=res.eigenvalues)
    return values, cp.P.frame.copy()


def _third_structure(pt) -> tuple[dict, np.ndarray]:
    """Every third-structure value read off a frame, and psi3's frame of P.
    project3's point moves by a diagonal unitary, inside its orbit, so only
    its invariants count."""
    values = {f"{which}.{route}": v for which in ("k3", "k3hat")
              for route, v in evaluate_routes(pt, which).items()}
    res, pair = project3(pt), psi3(pt)[0]
    values.update(h_eigenvalues=res.eigenvalues, flat=flat_potential_K(res.point),
                  angles=characteristic_angles(pair), transversality=pair.transversality(),
                  P=pair.P.projector(), Qperp=pair.Qperp.projector())
    return values, pair.P.frame.copy()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_first_structure_reads_no_column_phase(p, q, seed, turned_qr):
    pt = sample_stable1(Truncation(p, q, SQRT2), make_rng(seed))
    want, frame = _first_structure(fresh(pt))
    turned_qr(seed)
    got, turned_frame = _first_structure(fresh(pt))
    _assert_close(got, want)
    _assert_moved(turned_frame, frame)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_third_structure_reads_no_column_phase(p, q, seed, turned_qr):
    pt = sample_stable3(Truncation(p, q, SQRT2), make_rng(seed))
    want, frame = _third_structure(fresh(pt))
    turned_qr(seed)
    got, turned_frame = _third_structure(fresh(pt))
    _assert_close(got, want)
    _assert_moved(turned_frame, frame)
