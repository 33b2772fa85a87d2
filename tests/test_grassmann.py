import numpy as np
import pytest

from conftest import graph_coords
from hkq.errors import NotInStable1, NotInStable3, NotTransversal, ShapeMismatch
from hkq.grassmann import (
    CotangentPoint,
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    curvature_fun_apply,
    projector_distance,
    psi1,
    psi1_section,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation, act1, act3
from hkq.matcore import dagger, fnorm
from hkq.moment import in_stable1, in_stable3, level_residual
from hkq.sampling import (
    _hermitian_ball,
    gaussian_complex,
    make_rng,
    random_subspace,
    random_unitary,
    sample_cotangent,
    sample_orbit_pair,
    sample_stable1,
    sample_stable3,
)

SQRT2 = np.sqrt(2.0)


def col(*vals):
    return np.array([[v] for v in vals], dtype=complex)


def span(*cols):
    return Subspace(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))


class TestPsi1:
    def test_zero_fiber(self, trunc11):
        pt = ConfigPoint(trunc11, col(1.3, 0.4), np.zeros((2, 1)))
        cp = psi1(pt)
        assert fnorm(cp.eta) == 0.0

    def test_s2_image(self, s2_point):
        cp = psi1(s2_point)
        assert projector_distance(cp.P, span([1.0, 0.0])) <= 1e-14
        want_eta = np.array([[0.0, 1.0 / SQRT2], [0.0, 0.0]])
        assert fnorm(cp.eta - want_eta) <= 1e-14

    def test_scalar_group_invariance(self, s2_point):
        cp0 = psi1(s2_point)
        cp1 = psi1(act1(np.array([[2.0]]), s2_point))
        assert projector_distance(cp0.P, cp1.P) <= 1e-12
        assert fnorm(cp0.eta - cp1.eta) <= 1e-12

    def test_rejects_unstable(self, trunc11):
        bad = ConfigPoint(trunc11, col(1.0, 0.0), col(1.0, 0.0))
        with pytest.raises(NotInStable1):
            psi1(bad)


    def test_membership_is_the_rule_of_in_stable1(self):
        # psi1 judges rank on the SVD that gives F_P
        tr = Truncation(2, 1, 1.0)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.2]], dtype=complex)
        for scale in (1.0, 1.1e-9, 0.9e-9, 0.0):
            xs = x.copy()
            xs[1, 1] = scale
            for Xs in (X, X + 2e-9 * x):
                pt = ConfigPoint(tr, xs, Xs)
                if in_stable1(pt):
                    assert psi1(pt).P.dim == 2
                else:
                    with pytest.raises(NotInStable1):
                        psi1(pt)

    def test_factorization_budget(self, lapack_calls, rng):
        # the thin SVD of x gives F_P and the rank verdict
        pt = sample_stable1(Truncation(4, 5, SQRT2), rng)
        lapack_calls.clear()
        psi1(pt)
        assert dict(lapack_calls) == {"svd thin": 1}

    @pytest.mark.parametrize("p,q", [(4, 5), (8, 64), (64, 64)])
    def test_eta_is_the_compressed_x_X_star(self, p, q):
        # eta = F_P V* is (1/k^2) x X* (Id - F_P F_P*), formed here in full
        pt = sample_stable1(Truncation(p, q, SQRT2), make_rng(p + q))
        cp = psi1(pt)
        f = cp.P.frame
        want = pt.x @ dagger(pt.X) @ (np.eye(p + q) - f @ dagger(f)) / pt.trunc.k2
        assert cp.V.shape == (p + q, p)
        assert fnorm(cp.eta - want) <= 1e-14 * fnorm(want)


class TestPsi1Section:
    def test_zero_section_on_level(self, rng):
        tr = Truncation(2, 3, 1.7)
        cp = CotangentPoint(random_subspace(tr.n, tr.p, rng),
                            np.zeros((tr.n, tr.p), dtype=complex))
        pt = psi1_section(cp, tr.k)
        assert max(level_residual(pt)) <= 1e-12 * tr.k2

    def test_round_trip_s2(self, s2_point):
        cp = psi1(s2_point)
        back = psi1(psi1_section(cp, s2_point.trunc.k))
        assert projector_distance(cp.P, back.P) <= 1e-11
        assert fnorm(cp.eta - back.eta) <= 1e-11

    def test_section_kills_complex_moment(self, rng):
        tr = Truncation(3, 2, 1.1)
        cp = sample_cotangent(tr, rng)
        pt = psi1_section(cp, tr.k)
        assert fnorm(dagger(pt.X) @ pt.x) <= 1e-13
        assert fnorm(dagger(pt.x) @ pt.x - tr.k2 * np.eye(3)) <= 1e-13


class TestPsi3:
    def test_base_point(self, trunc11):
        pair, z = psi3(ConfigPoint.base(trunc11))
        want_z = np.zeros((2, 2), dtype=complex)
        want_z[0, 0] = 2.0j
        assert fnorm(z - want_z) <= 1e-13
        assert projector_distance(pair.P, span([1.0, 0.0])) <= 1e-13
        assert projector_distance(pair.Qperp, span([1.0, 0.0])) <= 1e-13

    def test_s3_image(self, s3_point):
        pair, z = psi3(s3_point)
        assert fnorm(z - np.array([[2.0j, 2.0j], [0.0, 0.0]])) <= 1e-13
        assert projector_distance(pair.P, span([1.0, 0.0])) <= 1e-13
        assert projector_distance(pair.Qperp, span([1 / SQRT2, 1 / SQRT2])) <= 1e-13

    def test_act3_invariance(self, s3_point, rng):
        pair0, _ = psi3(s3_point)
        h = _hermitian_ball(1, rng, 0.8)
        u = random_unitary(1, rng)
        pair1, _ = psi3(act3(h, u, s3_point))
        assert projector_distance(pair0.P, pair1.P) <= 1e-9
        assert projector_distance(pair0.Qperp, pair1.Qperp) <= 1e-9

    def test_rejects_unstable(self, s2_point):
        with pytest.raises(NotInStable3):
            psi3(s2_point)


class TestGraphOperator:
    def test_orthogonal_complement_pair(self):
        pair = OrbitPair(span([1.0, 0.0]), span([1.0, 0.0]))
        assert fnorm(graph_coords(pair)) <= 1e-14

    def test_diagonal_pair(self):
        pair = OrbitPair(span([1.0, 0.0]), span([1 / SQRT2, 1 / SQRT2]))
        a = graph_coords(pair)
        assert np.allclose(a, [[1.0]], atol=1e-12)

    def test_general_slope(self):
        for slope in (0.5, 2.0, -1.3):
            nrm = np.sqrt(1 + slope * slope)
            pair = OrbitPair(span([1.0, 0.0]), span([1 / nrm, slope / nrm]))
            a = graph_coords(pair)
            assert np.allclose(a, [[slope]], atol=1e-12)

    def test_graph_spans_q_perp(self, rng):
        tr = Truncation(3, 4, 1.0)
        pair = sample_orbit_pair(tr, rng)
        a = graph_coords(pair)
        fp, fperp = pair.P.frame, complement_frame(pair.P)
        graph = fp + fperp @ a
        qperp = pair.Qperp.frame
        g1 = np.linalg.qr(graph)[0]
        assert fnorm(g1 @ dagger(g1) - qperp @ dagger(qperp)) <= 1e-10

    def test_rejects_intersecting(self):
        pair = OrbitPair(span([1.0, 0.0]), span([0.0, 1.0]))
        with pytest.raises(NotTransversal):
            graph_coords(pair)


class TestComplementFrame:
    @pytest.mark.parametrize("n,d", [(2, 1), (5, 2), (9, 4), (72, 8), (7, 6)])
    def test_an_orthonormal_frame_of_the_complement(self, n, d, rng, lapack_calls):
        sub = random_subspace(n, d, rng)
        lapack_calls.clear()
        fperp = complement_frame(sub)
        assert dict(lapack_calls) == {"qr complete": 1}  # no SVD, no rank to decide
        assert fperp.shape == (n, n - d)
        assert fnorm(dagger(fperp) @ fperp - np.eye(n - d)) <= 1e-14 * n
        assert fnorm(dagger(sub.frame) @ fperp) <= 1e-14 * n
        pivots = fperp[np.argmax(np.abs(fperp), axis=0), np.arange(n - d)]
        assert np.all(np.abs(pivots.imag) <= 1e-14) and np.all(pivots.real > 0.0)


class TestTransversality:
    """transversality() against sigma_min of the stacked frames [F_P F_Q],
    with F_Q the complement_frame of Q^perp."""

    @staticmethod
    def _stacked(pair):
        fq = complement_frame(pair.Qperp)
        return np.linalg.svd(np.hstack([pair.P.frame, fq]), compute_uv=False)[-1]

    @pytest.mark.parametrize("p,q", [(2, 5), (4, 4), (5, 2), (1, 1)])
    def test_matches_the_stacked_frames(self, p, q, rng):
        for _ in range(10):
            pair = OrbitPair(random_subspace(p + q, p, rng), random_subspace(p + q, p, rng))
            assert abs(pair.transversality() - self._stacked(pair)) <= 1e-14
        # Q = P^perp: s = 1, where sqrt(1 - s^2) would lose half the digits
        # (1 - 1e-8 for an s off by eps); what is left is the frame's own
        # drift from orthonormality, a few n eps
        P = random_subspace(p + q, p, rng)
        assert abs(OrbitPair(P, P).transversality() - 1.0) <= 1e-14

    @pytest.mark.parametrize("p,q", [(2, 5), (4, 4), (5, 2)])
    def test_near_intersecting_pair(self, p, q, rng):
        # the graph operator has one singular value 1e8, so
        # s = sigma_min(F_P* F_Qperp) = 1/sqrt(1 + 1e16) and tau ~ s / sqrt 2
        P = random_subspace(p + q, p, rng)
        a = np.zeros((q, p), dtype=complex)
        a[0, 0] = 1e8
        pair = OrbitPair(P, Subspace(np.linalg.qr(P.frame + complement_frame(P) @ a)[0]))
        tau = pair.transversality()
        assert abs(tau - self._stacked(pair)) <= 1e-14
        assert abs(tau - 1e-8 / SQRT2) <= 1e-6 * 1e-8

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 2), (3, 1)])
    def test_intersecting_pair(self, p, q):
        # P = span(e_1..e_p) and Q^perp = span(e_2..e_p, e_n) miss e_1 of P,
        # so e_1 lies in Q = (Q^perp)^perp
        n = p + q
        eye = np.eye(n, dtype=complex)
        pair = OrbitPair(Subspace(eye[:, :p]),
                         Subspace(np.hstack([eye[:, 1:p], eye[:, n - 1:]])))
        assert pair.transversality() == 0.0
        assert self._stacked(pair) <= 1e-15
        with pytest.raises(NotTransversal):
            graph_coords(pair)


class TestPsi3Section:
    def test_zero_graph(self):
        pair = OrbitPair(span([1.0, 0.0]), span([1.0, 0.0]))
        pt = psi3_section(pair, SQRT2)
        assert max(level_residual(pt)) <= 1e-13 * 2

    def test_s3_scalar_reconstruction(self, s3_point):
        pair, _ = psi3(s3_point)
        pt = psi3_section(pair, SQRT2)
        assert fnorm(pt.x - s3_point.x) <= 1e-12
        assert fnorm(pt.X - s3_point.X) <= 1e-12

    def test_constraint_identities_exact(self, rng):
        for (p, q) in ((1, 2), (3, 3), (4, 2)):
            tr = Truncation(p, q, 1.9)
            pair = sample_orbit_pair(tr, rng)
            pt = psi3_section(pair, tr.k)
            assert in_stable3(pt)
            xx_minus = dagger(pt.x) @ pt.x - dagger(pt.X) @ pt.X
            assert fnorm(xx_minus - tr.k2 * np.eye(p)) <= 1e-12 * tr.k2 * (
                1 + fnorm(xx_minus))
            xX = dagger(pt.X) @ pt.x
            assert fnorm(xX - dagger(xX)) <= 1e-12 * (1 + fnorm(xX))
            back, _ = psi3(pt)
            assert projector_distance(pair.P, back.P) <= 1e-10
            assert projector_distance(pair.Qperp, back.Qperp) <= 1e-10


class TestCharacteristicAngles:
    def test_orthogonal_pair(self):
        pair = OrbitPair(span([1.0, 0.0]), span([1.0, 0.0]))
        assert np.allclose(characteristic_angles(pair), [0.0])

    def test_unit_graph(self):
        pair = OrbitPair(span([1.0, 0.0]), span([1 / SQRT2, 1 / SQRT2]))
        assert np.allclose(characteristic_angles(pair), [np.pi / 4], atol=1e-12)

    def test_two_angles(self):
        # graph operator diag(1, sqrt 3) over the first two axes of C^4
        p1 = span([1, 0, 0, 0], [0, 1, 0, 0])
        a = np.diag([1.0, np.sqrt(3.0)]).astype(complex)
        fperp = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=complex)
        graph = p1.frame + fperp @ a
        pair = OrbitPair(p1, Subspace(np.linalg.qr(graph)[0]))
        assert np.allclose(characteristic_angles(pair),
                           [np.pi / 4, np.pi / 3], atol=1e-12)

    def test_pad_semantics_p_greater_than_q(self, rng):
        tr = Truncation(3, 1, 1.0)
        pair = sample_orbit_pair(tr, rng)
        theta = characteristic_angles(pair)
        assert theta.shape == (3,)
        assert np.sum(theta > 1e-12) <= 1  # rank of A is at most q = 1


class TestCurvature:
    def test_fun_apply_constant_and_identity(self, rng):
        v = gaussian_complex(rng, (4, 2))
        s = np.linalg.svd(v, compute_uv=False)
        assert abs(curvature_fun_apply(lambda u: 1.0, v) - np.sum(s**2)) <= 1e-12 * (
            1 + np.sum(s**2))
        want = np.sum(4.0 * s**4)
        assert abs(curvature_fun_apply(lambda u: u, v) - want) <= 1e-12 * (1 + want)

    def test_fun_apply_series_cross_check(self, rng):
        # f through the spectral route vs a truncated power series applied by
        # repeated operator action; entries scaled small so the series converges fast
        v = 0.1 * gaussian_complex(rng, (3, 3))
        coeffs = [0.25, -1.0 / 32.0, 1.0 / 96.0]  # weight series around 0

        def f(u):
            return coeffs[0] + coeffs[1] * u + coeffs[2] * u * u

        spectral = curvature_fun_apply(f, v)
        acc = np.zeros_like(v)
        term = v.copy()
        for c in coeffs:
            acc = acc + c * term
            term = 2.0 * (v @ dagger(v) @ term + term @ dagger(v) @ v)
        series = float(np.sum(np.conj(acc) * v).real)
        assert abs(spectral - series) <= 1e-12 * (1 + abs(spectral))


class TestSubspaceTypes:
    def test_subspace_requires_orthonormal(self):
        with pytest.raises(ShapeMismatch):
            Subspace(np.array([[1.0], [1.0]]))

    def test_cotangent_invariants_enforced(self, trunc11):
        P = span([1.0, 0.0])
        from hkq.errors import BadCotangent

        # a factor with a component in P: eta = F_P V* does not vanish on P
        with pytest.raises(BadCotangent, match="component in P"):
            CotangentPoint(P, col(1e-3, 1.0))
        with pytest.raises(BadCotangent, match="must be 2 x 1"):
            CotangentPoint(P, np.zeros((2, 2)))  # the older n x n eta
        assert fnorm(CotangentPoint(P, col(0.0, 1.0)).eta - [[0.0, 1.0], [0.0, 0.0]]) == 0.0

    @pytest.mark.parametrize("size", [1e-9, 1.0, 1e9])
    def test_a_fiber_inside_P_is_refused_at_any_size(self, size, rng):
        # the bound ||F_P* V|| <= 1e-7 ||V|| is of degree 1 in V, like the
        # component it judges
        from hkq.errors import BadCotangent

        P = random_subspace(5, 2, rng)
        with pytest.raises(BadCotangent, match="component in P"):
            CotangentPoint(P, size * P.frame)

    @pytest.mark.parametrize("eps", [1e-12, 1e-14])
    def test_small_fibers_of_psi1_are_valid_and_round_trip(self, eps, tmp_path):
        # X = x c + eps G lies nearly in Ran x, so V = (Id - F_P F_P*) X x* F_P / k^2
        # is of size eps while X x* / k^2 is of size 0.01: psi1 projects twice,
        # so F_P* V is round-off relative to V, and the datum passes the
        # relative check and survives a cotangent file
        from hkq.jsonio import load_cotangent, save_cotangent

        seen = 0
        for p in range(1, 5):
            for q in range(1, 5):
                tr = Truncation(p, q, SQRT2)
                for seed in range(4):
                    rng = make_rng(seed)
                    x = tr.base_x() + 0.3 * gaussian_complex(rng, (tr.n, p))
                    c = gaussian_complex(rng, (p, p))
                    X = x @ (0.01 * c / fnorm(c)) + eps * gaussian_complex(rng, (tr.n, p))
                    pt = ConfigPoint(tr, x, X)
                    if not in_stable1(pt, 0.5):
                        continue
                    cp = psi1(pt, 0.5)
                    assert fnorm(dagger(cp.P.frame) @ cp.V) <= 1e-7 * fnorm(cp.V)
                    path = tmp_path / f"cot_{p}_{q}_{seed}.json"
                    save_cotangent(path, cp, tr.k)
                    back, k = load_cotangent(path)
                    assert k == tr.k
                    assert back.P.frame.tobytes() == cp.P.frame.tobytes()
                    assert back.V.tobytes() == cp.V.tobytes()
                    seen += 1
        assert seen >= 48

    def test_orbit_pair_dimension_check(self):
        with pytest.raises(ShapeMismatch):
            OrbitPair(span([1.0, 0.0]), span([1 / SQRT2, 1 / SQRT2], [1.0, 0.0]))

    def test_fiber_constancy_random(self, rng):
        tr = Truncation(2, 3, np.sqrt(2.0))
        pt = sample_stable1(tr, rng)
        from hkq.sampling import random_group_positive

        g = random_group_positive(2, rng) @ random_unitary(2, rng)
        cp0, cp1 = psi1(pt), psi1(act1(g, pt))
        assert projector_distance(cp0.P, cp1.P) <= 1e-9
        assert fnorm(cp0.eta - cp1.eta) <= 1e-9 * (1 + fnorm(cp0.eta))

        pt3 = sample_stable3(tr, rng)
        pair0, z0 = psi3(pt3)
        assert fnorm(z0 @ z0 - 1j * tr.k2 * z0) <= 1e-9 * tr.k2**2
