"""The graph operator in ambient form against the construction it replaced,
and the factorization budget of the third-structure routes.

The oracle is A = F_Pperp* F_Qperp M^-1, M = F_P* F_Qperp, with F_Pperp the
complement_frame of P and F_Qperp rebuilt through Q, as the complement_frame
of the complement_frame of the pair's Q^perp: another frame of Q^perp, so
the comparison also shows that w does not depend on the frame it is read
from.  A itself is read as F_Pperp* w.  Every consumer of w
(characteristic_angles, psi3_section, project3) is compared with the same
quantity rebuilt from the oracle, and pairs built from a known A are
checked against that A.
"""

import numpy as np
import pytest

from conftest import fresh, graph_coords

from hkq.grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation, act3
from hkq.matcore import dagger, fnorm, herm_eig, herm_fun
from hkq.moment import in_stable3
from hkq.potentials import K3_spectral, evaluate_routes
from hkq.quotient import project3
from hkq.sampling import gaussian_complex, make_rng, sample_stable3

SQRT2 = np.sqrt(2.0)
SHAPES = [(1, 1), (2, 5), (5, 2), (4, 4), (6, 1), (1, 6), (32, 32), (8, 64)]


def _oracle_graph(pair):
    """(A, F_Pperp) through complement frames."""
    fpp = complement_frame(pair.P)
    fqp = complement_frame(Subspace(complement_frame(pair.Qperp)))
    return dagger(fpp) @ fqp @ np.linalg.inv(dagger(pair.P.frame) @ fqp), fpp


def _oracle_angles(a, p, q):
    theta = np.zeros(p)
    theta[:min(p, q)] = np.arctan(np.linalg.svd(a, compute_uv=False)[:min(p, q)])
    return np.sort(theta)


def _bound(a):
    """Round-off of either construction grows like eps ||A||^2 (M^-1 has
    norm sqrt(1 + ||A||^2)); both stay near 1e-16 (1 + ||A||)^2."""
    return 1e-13 * (1.0 + np.linalg.norm(a, 2)) ** 2


@pytest.mark.parametrize("p,q", SHAPES)
def test_matches_the_complement_frame_oracle(p, q, rng):
    k = SQRT2
    pt = sample_stable3(Truncation(p, q, k), rng)
    pair, _ = psi3(pt)
    a, fpp = _oracle_graph(pair)
    bound = _bound(a)
    assert fnorm(graph_coords(pair) - a) <= bound
    theta = characteristic_angles(pair)
    assert np.max(np.abs(theta - _oracle_angles(a, p, q))) <= 1e-13
    assert np.all(theta[:max(p - q, 0)] == 0.0)  # surplus angles, exactly

    x0 = k * (pair.P.frame + 0.5 * fpp @ a)
    X0 = -0.5 * k * fpp @ a
    sec = psi3_section(pair, k)
    scale = fnorm(x0) + fnorm(X0)
    assert fnorm(sec.x - x0) + fnorm(sec.X - X0) <= bound * scale

    h = 0.25 * herm_fun(np.eye(p) + dagger(a) @ a, np.log)
    want = act3(herm_eig(-h), np.eye(p), ConfigPoint(pt.trunc, x0, X0))
    res = project3(pt)
    lam = np.linalg.eigvalsh(h)
    assert np.max(np.abs(res.eigenvalues - lam)) <= bound * (1.0 + fnorm(h))
    assert fnorm(res.point.x - want.x) + fnorm(res.point.X - want.X) <= bound * scale


@pytest.mark.parametrize("norm", [1e-8, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("p,q", [(3, 4), (5, 2), (8, 64)])
def test_recovers_a_known_graph_operator(p, q, norm, rng):
    P = Subspace(np.linalg.qr(gaussian_complex(rng, (p + q, p)))[0])
    a = gaussian_complex(rng, (q, p))
    a *= norm / np.linalg.norm(a, 2)
    q_perp = Subspace(np.linalg.qr(P.frame + complement_frame(P) @ a)[0])
    pair = OrbitPair(P, q_perp)
    bound = _bound(a)
    assert fnorm(graph_coords(pair) - a) <= bound
    assert fnorm(_oracle_graph(pair)[0] - a) <= bound
    assert np.max(np.abs(characteristic_angles(pair) - _oracle_angles(a, p, q))) <= 1e-13


def test_factorization_budget(lapack_calls, rng):
    # psi3: one thin QR each of x + X and x - X, membership included (the
    # equations' residuals certify the rank, so no SVD is taken);
    # the graph operator: the singular values of M and M^-1;
    # project3 adds one eigendecomposition of Id + w*w and nothing else.
    # Each call runs on a fresh copy, whose memo is empty.
    pt = sample_stable3(Truncation(4, 5, SQRT2), rng)
    pair, _ = psi3(pt)
    budgets = [
        (lambda: psi3(fresh(pt)), {"qr reduced": 2}),
        (lambda: characteristic_angles(fresh(pair)), {"svd values": 2, "inv": 1}),
        (lambda: project3(fresh(pt)), {"qr reduced": 2, "svd values": 1, "inv": 1, "eigh": 1}),
    ]
    for call, budget in budgets:
        lapack_calls.clear()
        call()
        assert dict(lapack_calls) == budget


def test_no_n_by_n_factorization_at_p_much_smaller_than_q(lapack_calls):
    # at (8, 64) a full SVD or a complete QR would factor a 72 x 72 matrix;
    # every third-structure route reads the two n x p frames of P and
    # Q^perp instead; each call runs on a fresh copy, whose memo is empty
    pt = sample_stable3(Truncation(8, 64, SQRT2), make_rng(0))
    pair, _ = psi3(pt)
    calls = {
        "psi3": lambda: psi3(fresh(pt)),
        "project3": lambda: project3(fresh(pt)),
        "in_stable3": lambda: in_stable3(fresh(pt)),
        "K3_spectral": lambda: K3_spectral(fresh(pt)),
        "characteristic_angles": lambda: characteristic_angles(fresh(pair)),
        "k3": lambda: evaluate_routes(fresh(pt), "k3"),
        "k3hat": lambda: evaluate_routes(fresh(pt), "k3hat"),
    }
    for name, call in calls.items():
        lapack_calls.clear()
        call()
        if name == "in_stable3":  # the certified verdict factors nothing
            assert dict(lapack_calls) == {}, name
            continue
        assert lapack_calls["svd full"] == 0 and lapack_calls["qr complete"] == 0, name
        assert lapack_calls["svd thin"] == 0, name  # frames come from thin QRs
        assert lapack_calls, name  # the counter sees the route's factorizations
