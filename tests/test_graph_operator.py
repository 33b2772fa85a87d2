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

from conftest import _variant, fresh, graph_coords

from hkq.grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation, act3
from hkq.matcore import dagger, fnorm, herm_eig
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

    lam_m, u_m = np.linalg.eigh(np.eye(p) + dagger(a) @ a)
    h = 0.25 * (u_m * np.log(lam_m)) @ dagger(u_m)  # (1/4) log(Id + A*A)
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
    # the graph operator: one p x p SVD of M = F_P* F_Qperp, and the
    # angles the values of w; project3 reads the same SVD of M and takes
    # nothing else, no w, no eigh and no inv.
    # Each call runs on a fresh copy, whose memo is empty.
    pt = sample_stable3(Truncation(4, 5, SQRT2), rng)
    pair, _ = psi3(pt)
    budgets = [
        (lambda: psi3(fresh(pt)), {"qr reduced": 2}),
        (lambda: characteristic_angles(fresh(pair)), {"svd full": 1, "svd values": 1}),
        (lambda: project3(fresh(pt)), {"qr reduced": 2, "svd full": 1}),
        (lambda: fresh(pair).transversality(), {"svd full": 1}),
    ]
    for call, budget in budgets:
        lapack_calls.clear()
        call()
        assert dict(lapack_calls) == budget


def test_the_svd_of_m_is_taken_once_per_pair(lapack_calls, rng):
    # the graph, project3 and the transversality read one memoized SVD of
    # M: after any one of them, the others factor nothing more than the
    # values of w that the angles read
    pt = sample_stable3(Truncation(4, 5, SQRT2), rng)
    pt = fresh(pt)
    pair, _ = psi3(pt)
    lapack_calls.clear()
    pair.transversality()
    project3(pt)
    psi3_section(pair, SQRT2)
    assert dict(lapack_calls) == {"svd full": 1}
    characteristic_angles(pair)
    assert dict(lapack_calls) == {"svd full": 1, "svd values": 1}


@pytest.fixture
def operand_shapes(monkeypatch):
    """(variant, shape) of every numpy.linalg factorization made while the
    test runs, the variant keyed as by conftest's lapack_calls."""
    seen = []
    for name in ("svd", "qr", "eigh", "eigvalsh", "eig", "eigvals", "cholesky", "inv",
                 "solve", "slogdet", "det", "lstsq", "pinv", "matrix_rank"):
        original = getattr(np.linalg, name)

        def recorded(*args, _original=original, _name=name, **kwargs):
            seen.append((_variant(_name, args, kwargs), np.shape(args[0])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_no_n_by_n_factorization_at_p_much_smaller_than_q(operand_shapes):
    # at (8, 64) every third-structure route reads the two 72 x 8 frames of
    # P and Q^perp and p x p matrices built from them: no factored operand
    # has two sides longer than p, and no factorization of a tall operand
    # returns a square n x n factor (a full SVD or a complete QR); each
    # call runs on a fresh copy, whose memo is empty
    p, q = 8, 64
    pt = sample_stable3(Truncation(p, q, SQRT2), make_rng(0))
    pair, _ = psi3(pt)
    calls = {
        "psi3": lambda: psi3(fresh(pt)),
        "project3": lambda: project3(fresh(pt)),
        "in_stable3": lambda: in_stable3(fresh(pt)),
        "K3_spectral": lambda: K3_spectral(fresh(pt)),
        "characteristic_angles": lambda: characteristic_angles(fresh(pair)),
        "transversality": lambda: fresh(pair).transversality(),
        "k3": lambda: evaluate_routes(fresh(pt), "k3"),
        "k3hat": lambda: evaluate_routes(fresh(pt), "k3hat"),
    }
    for name, call in calls.items():
        operand_shapes.clear()
        call()
        if name == "in_stable3":  # the certified verdict factors nothing
            assert operand_shapes == [], name
            continue
        assert operand_shapes, name  # the recorder sees the route's factorizations
        for variant, shape in operand_shapes:
            assert min(shape[-2:]) <= p, (name, variant, shape)
            assert shape[-2] == shape[-1] or variant not in ("svd full", "qr complete"), (
                name, variant, shape)
