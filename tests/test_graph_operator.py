"""The graph operator in ambient form against the construction it replaced,
and the factorization budget of the third-structure route.

The oracle is A = F_Pperp* F_Qperp M^-1, M = F_P* F_Qperp, with both
complement frames built by complement_frame: the graph operator before it
was computed as w = F_Pperp A without any complement of P.  Every consumer
of w (graph_operator, characteristic_angles, psi3_section, project3) is
compared with the same quantity rebuilt from the oracle, and pairs built
from a known A are checked against that A.
"""

import numpy as np
import pytest

from hkq.grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    graph_operator,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation, act3
from hkq.matcore import dagger, fnorm, herm_eig, herm_fun, orthonormal_range
from hkq.quotient import project3
from hkq.sampling import gaussian_complex, sample_stable3

SQRT2 = np.sqrt(2.0)
SHAPES = [(1, 1), (2, 5), (5, 2), (4, 4), (6, 1), (1, 6), (32, 32), (8, 64)]


def _oracle_graph(pair):
    """(A, F_Pperp) through two gauge-fixed complement frames."""
    fpp, fqp = complement_frame(pair.P), complement_frame(pair.Q)
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
    assert fnorm(graph_operator(pair) - a) <= bound
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
    assert fnorm(res.h - h) <= bound * (1.0 + fnorm(h))
    assert fnorm(res.point.x - want.x) + fnorm(res.point.X - want.X) <= bound * scale


@pytest.mark.parametrize("norm", [1e-8, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("p,q", [(3, 4), (5, 2), (8, 64)])
def test_recovers_a_known_graph_operator(p, q, norm, rng):
    P = Subspace(orthonormal_range(gaussian_complex(rng, (p + q, p))))
    a = gaussian_complex(rng, (q, p))
    a *= norm / np.linalg.norm(a, 2)
    q_perp = Subspace(orthonormal_range(P.frame + complement_frame(P) @ a))
    pair = OrbitPair(P, Subspace(complement_frame(q_perp)))
    bound = _bound(a)
    assert fnorm(graph_operator(pair) - a) <= bound
    assert fnorm(_oracle_graph(pair)[0] - a) <= bound
    assert np.max(np.abs(characteristic_angles(pair) - _oracle_angles(a, p, q))) <= 1e-13


def test_factorization_budget(lapack_calls, rng):
    # psi3: one SVD each of x + X and (x - X)*, membership included;
    # the graph operator: one QR of F_Q, the singular values of M and M^-1;
    # project3 adds one eigendecomposition of Id + w*w and nothing else
    pt = sample_stable3(Truncation(4, 5, SQRT2), rng)
    pair, _ = psi3(pt)
    budgets = [
        (lambda: psi3(pt), {"svd thin": 1, "svd full": 1}),
        (lambda: characteristic_angles(pair),
         {"qr complete": 1, "svd values": 2, "inv": 1}),
        (lambda: project3(pt), {"svd thin": 1, "svd full": 1, "svd values": 1,
                                "qr complete": 1, "inv": 1, "eigh": 1}),
    ]
    for call, budget in budgets:
        lapack_calls.clear()
        call()
        assert dict(lapack_calls) == budget
