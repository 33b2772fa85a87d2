import collections
import warnings

import numpy as np
import pytest

from conftest import S2_CHARACTER, S2_FLAT_AT_LEVEL, S2_K1, S3_K3, fresh, ill_conditioned_stable1
from hkq import checks, grassmann, potentials
from hkq.cli import CROSS_ROUTE_TOL
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.errors import NotInStable1, NotInStable3, NotPositiveDefinite, ShapeMismatch
from hkq.grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    curvature_fun_apply,
    psi1,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation, act1, act3, flat_potential_K
from hkq.matcore import (
    dagger,
    fnorm,
    herm_eig,
    hermitian_part,
)
from hkq.potentials import (
    IntegralityWarning,
    K1_closed,
    K3_hat_angles,
    K3_hat_cotangent,
    K3_spectral,
    character_log_term,
    curvature_weight_k1,
    evaluate_routes,
    quotient_potential,
)
from hkq.moment import _stable1_qr, level_residual
from hkq.quotient import project1, project3
from hkq.sampling import (
    make_rng,
    random_group_positive,
    random_subspace,
    random_unitary,
    sample_level,
    sample_orbit_pair,
    sample_stable1,
    sample_stable3,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def col(*vals):
    return np.array([[v] for v in vals], dtype=complex)


def K3_commuting_form(pt):
    """Oracle on the commuting locus of x*X and X*X (level set, canonical
    section points, p = 1): the symmetric operand (1/4) Tr(D^{1/2} - k^2 Id),
    D = k^4 Id + 4 x*x X*X - 4 (x*X)^2.  Off that locus D can lose
    positivity, which raises NotPositiveDefinite."""
    k2 = pt.trunc.k2
    xx = dagger(pt.x) @ pt.x
    XX = dagger(pt.X) @ pt.X
    xX = dagger(pt.x) @ pt.X
    d = k2 * k2 * np.eye(pt.trunc.p) + 4.0 * (xx @ XX) - 4.0 * (xX @ xX)
    lam = np.linalg.eigvalsh(hermitian_part(d))
    if np.any(lam <= 0):
        raise NotPositiveDefinite(f"commuting-form operand has eigenvalue {lam.min():.3e} <= 0")
    return float(0.25 * np.sum(np.sqrt(lam) - k2))


class TestWeights:
    def test_k1_weight_at_zero_and_continuity(self):
        assert curvature_weight_k1(0.0) == 0.25
        # series branch against the raw formula at the same small argument
        u = 9.9e-9
        s = np.expm1(0.5 * np.log1p(u))
        raw = (s - np.log1p(0.5 * s)) / u
        assert abs(curvature_weight_k1(u) - raw) <= 1e-12

    def test_k1_weight_value(self):
        want = 0.5 * (SQRT3 - 1.0 - np.log((1.0 + SQRT3) / 2.0))
        assert abs(curvature_weight_k1(2.0) - want) <= 1e-15


class TestK1:
    def test_base_point_zero(self, trunc11):
        assert abs(K1_closed(ConfigPoint.base(trunc11))) <= 1e-14

    def test_zero_section_reduces_to_logdet(self, rng):
        tr = Truncation(3, 2, SQRT2)
        pt = sample_stable1(tr, rng)
        x_only = ConfigPoint(tr, pt.x, np.zeros_like(pt.X))
        lam = np.linalg.eigvalsh(dagger(pt.x) @ pt.x)
        want = 0.25 * tr.k2 * np.sum(np.log(lam / tr.k2))
        assert abs(K1_closed(x_only) - want) <= 1e-12

    def test_s2_all_routes(self, s2_point):
        routes = evaluate_routes(s2_point, "k1")
        for value in (K1_closed(s2_point), routes["curvature"], routes["level"]):
            assert abs(value - S2_K1) <= 1e-12
        assert abs(quotient_potential(s2_point) - S2_K1) <= 1e-12
        assert abs(flat_potential_K(project1(s2_point).point) - S2_FLAT_AT_LEVEL) <= 1e-12

    def test_three_route_agreement_random(self, rng):
        for (p, q) in ((1, 3), (2, 2), (4, 3)):
            tr = Truncation(p, q, SQRT2)
            pt = sample_stable1(tr, rng)
            routes = evaluate_routes(pt, "k1")
            a, b, c = K1_closed(pt), routes["level"], routes["curvature"]
            assert abs(a - b) <= 1e-10 * (1 + abs(a))
            assert abs(a - c) <= 1e-9 * (1 + abs(a))

    @pytest.mark.parametrize("k", [SQRT2, 30.0])
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (8, 64), (6, 2)])
    def test_curvature_matches_the_frame_coordinate_form(self, p, q, k):
        # the curvature route reads V in ambient form; the frame coordinate
        # F_Pperp* V F_P, V = X x*/k^2, built here through a frame of P^perp,
        # has the same singular values, so the values agree to round-off
        pt = sample_stable1(Truncation(p, q, k), make_rng(p + 10 * q))
        fp = psi1(pt).P.frame
        coords = dagger(complement_frame(Subspace(fp))) @ (pt.X @ dagger(pt.x)) @ fp
        want = (potentials._logdet_term(pt, potentials._x_factor(pt))
                + pt.trunc.k2 * curvature_fun_apply(curvature_weight_k1,
                                                    coords / pt.trunc.k2))
        got = evaluate_routes(pt, "k1")["curvature"]
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_rejects_unstable(self, trunc11):
        bad = ConfigPoint(trunc11, col(1.0, 0.0), col(1.0, 0.0))
        with pytest.raises(NotInStable1):
            K1_closed(bad)

    def test_integrality_warning(self, rng):
        tr = Truncation(1, 1, 1.0)  # k^2/2 = 1/2
        pt = sample_stable1(tr, rng)
        with pytest.warns(IntegralityWarning):
            K1_closed(pt)


class TestCharacter:
    def test_identity(self):
        assert character_log_term(np.eye(2), SQRT2) == 0.0

    def test_s2_scalar(self, s2_point):
        g = project1(s2_point).group_part
        assert abs(character_log_term(g, SQRT2) - S2_CHARACTER) <= 1e-12

    def test_commuting_multiplicativity(self):
        g1 = np.diag([2.0, 0.5])
        g2 = np.diag([3.0, 1.0])
        g12 = g1 @ g2
        total = character_log_term(g12, SQRT2)
        parts = character_log_term(g1, SQRT2) + character_log_term(g2, SQRT2)
        assert abs(total - parts) <= 1e-12

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositiveDefinite):
            character_log_term(np.array([[1.0j]]), SQRT2)

    def test_warns_on_non_integral(self):
        with pytest.warns(IntegralityWarning):
            character_log_term(np.eye(1), 1.0)

    def test_owns_the_positivity_check(self):
        # Hermitian and invertible, so only character_log_term's spectrum
        # check can reject it
        with pytest.raises(NotPositiveDefinite):
            character_log_term(-np.eye(2), SQRT2)


class TestK3:
    def test_s3_pinned_value(self, s3_point):
        assert abs(K3_spectral(s3_point) - S3_K3) <= 1e-13
        routes = evaluate_routes(s3_point, "k3")
        assert abs(routes["level"] - S3_K3) <= 1e-12
        assert abs(K3_commuting_form(s3_point) - S3_K3) <= 1e-13
        pair, _ = psi3(s3_point)
        assert abs(K3_hat_angles(pair, SQRT2) - S3_K3) <= 1e-13

    def test_zero_fiber_vanishes(self, rng):
        tr = Truncation(2, 2, SQRT2)
        pt = sample_stable1(tr, rng)
        zero_fiber = project1(ConfigPoint(tr, pt.x, np.zeros_like(pt.X))).point
        assert abs(K3_spectral(zero_fiber)) <= 1e-12

    def test_route_agreement_random(self, rng):
        for (p, q) in ((1, 2), (3, 3), (2, 4)):
            tr = Truncation(p, q, SQRT2)
            pt = sample_stable3(tr, rng)
            routes = evaluate_routes(pt, "k3")
            vals = list(routes.values())
            assert max(vals) - min(vals) <= 1e-8 * (1 + abs(vals[0]))

    def test_commuting_form_agrees_at_sections(self, rng):
        tr = Truncation(3, 2, SQRT2)
        pair = sample_orbit_pair(tr, rng)
        pt = psi3_section(pair, tr.k)
        assert abs(K3_commuting_form(pt) - K3_spectral(pt)) <= 1e-11

    def test_commuting_form_fails_off_locus(self, rng):
        # boost a level point with a parameter that does not commute with
        # x*X to leave the commuting locus; the ordered-product routes keep
        # agreeing with the level route while the symmetric form loses
        # positivity
        rng = make_rng(7)
        found = False
        for _ in range(60):
            tr = Truncation(int(rng.integers(2, 5)), int(rng.integers(2, 5)), SQRT2)
            pt = sample_stable3(tr, rng)
            xx = dagger(pt.x) @ pt.x
            XX = dagger(pt.X) @ pt.X
            xX = dagger(pt.x) @ pt.X
            d = tr.k2**2 * np.eye(tr.p) + 4 * xx @ XX - 4 * xX @ xX
            lam = np.linalg.eigvalsh(hermitian_part(d))
            if lam.min() < -1e-6:
                found = True
                level = evaluate_routes(pt, "k3")["level"]
                assert abs(K3_spectral(pt) - level) <= 1e-9 * (1 + abs(level))
                with pytest.raises(NotPositiveDefinite):
                    K3_commuting_form(pt)
                break
        assert found, "no non-commuting witness found in 60 draws"

    @pytest.mark.parametrize("tol", [DEFAULT_MEMBERSHIP_TOL, 1e-6])
    def test_numerically_singular_factor_is_refused(self, tol):
        # boosting a stable point by h = diag(b, -b, 0, 0) scales x - X by
        # exp(-b) on one direction and x + X on another, so at b = 10 both
        # Gram factors G and H have condition ~1e17 (numerically singular):
        # every k3 route raises, none returns a value
        tr = Truncation(4, 5, SQRT2)
        pt = sample_stable3(tr, make_rng(0))
        boosted = act3(herm_eig(np.diag([10.0, -10.0, 0.0, 0.0])), None, pt)
        s = np.linalg.svd(boosted.x - boosted.X, compute_uv=False)
        assert s[-1] / s[0] < 1e-8
        routes = (K3_spectral, lambda pt, tol: evaluate_routes(pt, "k3", tol))
        for route in routes:
            with pytest.raises((NotInStable3, NotPositiveDefinite)):
                route(boosted, tol)

    def test_failed_cholesky_raises_not_positive_definite(self):
        # x - X with an exactly zero column: the Gram factor G that the
        # route factors has a zero pivot, below any membership check
        pt = sample_stable3(Truncation(3, 4, SQRT2), make_rng(1))
        X = pt.X.copy()
        X[:, 0] = pt.x[:, 0]
        with pytest.raises(NotPositiveDefinite):
            potentials._spectral_operand_eigs(ConfigPoint(pt.trunc, pt.x, X))

    def test_zero_column_of_x_plus_X_is_not_in_stable3(self):
        # x + X with an exactly zero column is not injective: membership
        # refuses the point before the spectral route forms H = (x+X)*(x+X)
        pt = sample_stable3(Truncation(3, 4, SQRT2), make_rng(1))
        X = pt.X.copy()
        X[:, 0] = -pt.x[:, 0]
        bad = ConfigPoint(pt.trunc, pt.x, X)
        for route in (K3_spectral, lambda pt: evaluate_routes(pt, "k3")):
            with pytest.raises(NotInStable3):
                route(bad)

    def test_invariance_under_compact_action(self, rng):
        tr = Truncation(2, 3, SQRT2)
        pt = sample_stable3(tr, rng)
        u = random_unitary(2, rng)
        moved = act3(herm_eig(np.zeros((2, 2))), u, pt)
        assert abs(K3_spectral(moved) - K3_spectral(pt)) <= 1e-10 * (
            1 + abs(K3_spectral(pt)))


class TestK3Hat:
    def test_zero_tangent(self):
        assert K3_hat_cotangent(np.zeros((2, 2)), SQRT2) == 0.0

    def test_scalar_value(self):
        # 4 V*V = 2 at k^2 = 2
        v = np.array([[1.0 / SQRT2]])
        want = (SQRT3 - 1.0) / 2.0
        assert abs(K3_hat_cotangent(v, SQRT2) - want) <= 1e-14

    def test_matches_the_trace_of_the_square_root_random(self, rng):
        # (k^2/4) Tr((Id + 4 V*V)^{1/2} - Id) through the eigenvalues of
        # Id + 4 V*V, which is well conditioned here (|V| of order 1)
        for _ in range(10):
            v = np.asarray(0.7 * (rng.random((3, 3)) + 1j * rng.random((3, 3))))
            mu = np.linalg.eigvalsh(np.eye(3) + 4.0 * dagger(v) @ v)
            want = 0.5 * float(np.sum(np.sqrt(mu) - 1.0))
            assert abs(K3_hat_cotangent(v, SQRT2) - want) <= 1e-13 * (1 + want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_v_raises_shape_mismatch(self, bad):
        v = np.full((3, 2), 0.5, dtype=complex)
        v[1, 0] = bad
        with pytest.raises(ShapeMismatch):
            K3_hat_cotangent(v, SQRT2)

    def test_a_one_dimensional_v_is_read_as_one_column(self):
        # 4 V*V = 4 |v|^2 = 2 at k^2 = 2
        v = np.array([0.3, 0.4j, 0.5])
        a = K3_hat_cotangent(v, SQRT2)
        assert a == K3_hat_cotangent(v.reshape(-1, 1), SQRT2)
        assert abs(a - (SQRT3 - 1.0) / 2.0) <= 1e-14

    def test_angles_orthogonal_pair_zero(self, rng):
        tr = Truncation(2, 2, SQRT2)
        pt = sample_level(tr, rng)
        x_only = project1(ConfigPoint(tr, pt.x, np.zeros_like(pt.X))).point
        pair, _ = psi3(x_only)
        assert abs(K3_hat_angles(pair, SQRT2)) <= 1e-12

    def test_angles_two_by_two(self):
        # a = diag(1, sqrt 3) at k^2 = 2: (1/2)((sqrt2 - 1) + (2 - 1))
        p1 = Subspace(np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex))
        a = np.diag([1.0, SQRT3]).astype(complex)
        fperp = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=complex)
        qperp = Subspace(np.linalg.qr(p1.frame + fperp @ a)[0])
        val = K3_hat_angles(OrbitPair(p1, qperp), SQRT2)
        assert abs(val - 0.5 * ((SQRT2 - 1.0) + 1.0)) <= 1e-12

    def test_matches_spectral_at_sections(self, rng):
        tr = Truncation(2, 3, SQRT2)
        pair = sample_orbit_pair(tr, rng)
        pt = psi3_section(pair, tr.k)
        assert abs(K3_hat_angles(pair, tr.k) - K3_spectral(pt)) <= 1e-10 * (
            1 + abs(K3_spectral(pt)))

    @pytest.mark.parametrize("size", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("p,q", [(4, 5), (8, 2)])
    def test_planted_pair_to_relative_accuracy(self, p, q, size, rng):
        # Q^perp is the graph of A = U diag(a) W* over P, with a in
        # [size, 2 size], so K3 = (k^2/4) sum a^2 / (sqrt(1 + a^2) + 1).
        # The computed w carries an absolute error of a few n eps, which
        # moves each a_i by as much and K, of degree 2 in a, by a relative
        # 2 n eps / a_min each: the bound is 8 times that, while a route
        # that forms sqrt(1 + a^2) - 1 directly is off by eps / a^2.
        n, r, k = p + q, min(p, q), SQRT2
        P = random_subspace(n, p, rng)
        a = size * (1.0 + rng.random(r))
        A = (random_unitary(q, rng)[:, :r] * a) @ dagger(random_unitary(p, rng)[:, :r])
        pair = OrbitPair(P, Subspace(np.linalg.qr(P.frame + complement_frame(P) @ A)[0]))
        want = 0.25 * k * k * float(np.sum(a * a / (np.sqrt(1.0 + a * a) + 1.0)))
        v = 0.5 * grassmann._graph(pair, DEFAULT_MEMBERSHIP_TOL)
        bound = 16.0 * n * np.finfo(float).eps / a.min()
        for value in (K3_hat_angles(pair, k), K3_hat_cotangent(v, k)):
            assert abs(value - want) <= bound * want


class TestCircleMomentMap:
    """At a level point every k3 route equals (1/2)||X||_F^2, the moment
    map of the circle X -> e^{i theta} X: a level point is its own level
    representative, and there x*x + X*X = k^2 Id + 2 X*X.

    Bound.  Write N = x*x + X*X, S = X*x + x*X and
    D = x*x - X*X - k^2 Id, so that H = (x + X)*(x + X) = N + S and
    G = (x - X)*(x - X) = N - S.  The spectral route's sum of square
    roots of the eigenvalues of HG is the trace norm F = ||H^{1/2} G^{1/2}||_*.
    Cauchy-Schwarz gives F <= (Tr H Tr G)^{1/2} <= Tr N, and the
    Powers-Stormer inequality ||H^{1/2} - G^{1/2}||_F^2 <= ||H - G||_* gives
    2F >= Tr H + Tr G - ||H - G||_* = 2 Tr N - 2 ||S||_*.  With
    K3 = (1/4)(F - p k^2) and (1/2)||X||^2 = (1/4)(Tr N - p k^2 - Tr D),

        |K3 - (1/2)||X||^2| <= (1/4)(||S||_* + |Tr D|)
                             <= (1/4) sqrt(p) (2 ||X*x||_F + ||D||_F)
                             <= (3/4) sqrt(p) rho,

    rho the point's level residual.  The other routes compute the same
    exact K3, which is constant on the orbit.  Round-off: each route sums
    p values of size at most lam_max = ||N||, eigenvalues or singular
    values of matrices formed by products of length at most n; the
    spectral route takes square roots of eigenvalues at least k^4 of an
    operand of norm lam_max^2, so each is off by at most
    n eps lam_max^2 / k^2, and the angles route's sec(theta_i) =
    lam_i / k^2 carry the graph's error eps (1 + ||A||)^2 <=
    eps (lam_max / k^2)^2, times k^2.  With (1/4) per term, a factor 40
    over these first-order terms gives 10 n p eps lam_max^2 / k^2."""

    @pytest.mark.parametrize("k", [0.3, SQRT2, 5.0])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 5), (3, 2), (8, 64), (16, 16)])
    def test_every_k3_route_is_half_the_squared_norm_of_X(self, p, q, k):
        eps = np.finfo(float).eps
        for seed in range(3):
            pt = sample_level(Truncation(p, q, k), make_rng(seed))
            want = 0.5 * np.linalg.norm(pt.X) ** 2
            rho = max(level_residual(pt))
            lam_max = np.linalg.eigvalsh(dagger(pt.x) @ pt.x + dagger(pt.X) @ pt.X)[-1]
            bound = 0.75 * np.sqrt(p) * rho + 10.0 * (p + q) * p * eps * lam_max ** 2 / k ** 2
            routes = {**evaluate_routes(pt, "k3"), "K3_spectral": K3_spectral(pt)}
            for route, value in routes.items():
                assert abs(value - want) <= bound, (route, seed, value, want)


class TestCrossStructureIdentities:
    """At a level point, psi1's datum and psi3's pair are two pictures of one
    quotient point: the characteristic angles of psi3's pair are
    arctan(2 sigma_i(V)) for psi1's fiber V, and K3_hat_cotangent(V, k) is
    the third potential, although psi1's P = Ran x and psi3's
    P = Ran(x + X) differ."""

    @pytest.mark.parametrize("k", [0.3, SQRT2, 5.0])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 5), (6, 2), (8, 64)])
    def test_psi1_fiber_gives_psi3_angles_and_k3(self, p, q, k):
        for seed in range(4):
            pt = sample_level(Truncation(p, q, k), make_rng(100 * p + q + seed))
            v = psi1(pt).V
            pair, _ = psi3(pt)
            want = np.sort(np.arctan(2.0 * np.linalg.svd(v, compute_uv=False)))
            assert np.max(np.abs(characteristic_angles(pair) - want)) <= 1e-12
            k3 = K3_spectral(pt)
            assert abs(K3_hat_cotangent(v, k) - k3) <= 1e-12 * max(1.0, abs(k3))


class TestQuotientPotential:
    def test_base_point(self, trunc11):
        assert abs(quotient_potential(ConfigPoint.base(trunc11))) <= 1e-14

    def test_factorization_budget(self, lapack_calls, rng):
        # project1's budget and nothing more: log det g is summed over the
        # eigenvalues project1 took g from, so g is not factored again
        pt = fresh(sample_stable1(Truncation(4, 5, SQRT2), rng))
        lapack_calls.clear()
        value = quotient_potential(pt)
        assert dict(lapack_calls) == {"qr reduced": 1, "svd values": 1, "eigh": 1,
                                      "svd full": 1}
        res = project1(pt)
        want = flat_potential_K(res.point) + character_log_term(res.group_part, SQRT2)
        assert abs(value - want) <= 1e-13 * (1 + abs(want))

    def test_equals_closed_form(self, rng):
        tr = Truncation(3, 2, SQRT2)
        pt = sample_stable1(tr, rng)
        value = quotient_potential(pt)
        assert abs(value - K1_closed(pt)) <= 1e-10 * (1 + abs(value))

    def test_level_route_is_independent_of_closed_route(self, rng, monkeypatch):
        def closed_route_called(*args, **kwargs):
            raise AssertionError("the level route evaluated the closed route")

        monkeypatch.setattr(potentials, "K1_closed", closed_route_called)
        pt = sample_stable1(Truncation(3, 2, SQRT2), rng)
        res = project1(pt)
        want = flat_potential_K(res.point) + character_log_term(res.group_part, SQRT2)
        assert abs(quotient_potential(pt) - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("k,expected", [(1.0, 1), (SQRT2, 0)])
    def test_one_integrality_warning_per_call(self, k, expected):
        pt = sample_stable1(Truncation(2, 2, k), make_rng(3))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            quotient_potential(pt)
        assert [type(w.message) for w in rec] == [IntegralityWarning] * expected

    @pytest.mark.parametrize("route", [K1_closed, quotient_potential,
                                       lambda pt: evaluate_routes(pt, "k1")],
                             ids=["K1_closed", "quotient_potential",
                                  "evaluate_routes_k1"])
    def test_membership_raised_before_any_warning(self, route):
        # k = 1 would warn; X*x != 0 must be refused first
        bad = ConfigPoint(Truncation(1, 1, 1.0), np.array([[1.0], [0.0]]),
                          np.array([[1.0], [0.0]]))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            with pytest.raises(NotInStable1):
                route(bad)
        assert rec == []

    def test_unitary_invariance(self, rng):
        tr = Truncation(2, 2, SQRT2)
        pt = sample_stable1(tr, rng)
        u = random_unitary(2, rng)
        a = quotient_potential(pt)
        b = quotient_potential(act1(u, pt))
        assert abs(a - b) <= 1e-10 * (1 + abs(a))

    @pytest.mark.parametrize("generic", [False, True], ids=["2Id", "generic"])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 5), (6, 2)])
    def test_group_law_on_every_route(self, p, q, generic):
        # K1(g.pt) - K1(pt) = -(k^2/2) log|det g|, exactly, for g = 2 Id and
        # for a generic complex g
        tr = Truncation(p, q, SQRT2)
        for seed in range(4):
            rng = make_rng(10 * p + q + seed)
            pt = sample_stable1(tr, rng)
            g = (random_group_positive(p, rng) @ random_unitary(p, rng) if generic
                 else 2.0 * np.eye(p))
            shift = -0.5 * tr.k2 * np.linalg.slogdet(g)[1]
            before = evaluate_routes(pt, "k1")
            after = evaluate_routes(act1(g, pt), "k1")
            for route, value in before.items():
                assert abs(after[route] - value - shift) <= 1e-12 * max(1.0, abs(value)), (
                    route, seed)

    def test_fiber_coordinate_shape(self, s2_point):
        # psi1's fiber coordinate is n x p, here (0, 1/sqrt 2)^T up to phase
        v = psi1(s2_point).V
        assert v.shape == (2, 1)
        assert v[0, 0] == 0.0
        assert abs(abs(v[1, 0]) - 1.0 / SQRT2) <= 1e-12


class TestRoutesAcrossShapes:
    """Route agreement far beyond the desk-scale shapes, judged with the
    CLI's cross-check bound; the projections each route relies on must land
    on the level set within the membership tolerance."""

    @pytest.mark.parametrize("cond", [1e5, 1e7])
    def test_k1_routes_agree_at_an_ill_conditioned_x(self, cond):
        # no k1 input factors x*x: R of x's QR gives the log-det term and
        # the fiber operand, and project1 reads x's SVD alone
        for seed in range(4):
            vals = list(evaluate_routes(ill_conditioned_stable1(3, 4, SQRT2, cond, seed),
                                        "k1").values())
            spread = max(vals) - min(vals)
            assert spread <= CROSS_ROUTE_TOL * max(1.0, abs(vals[0])), (seed, vals)

    @pytest.mark.filterwarnings("ignore::hkq.potentials.IntegralityWarning")
    @pytest.mark.parametrize("k", [0.3, SQRT2, 30.0])
    @pytest.mark.parametrize("p,q", [(1, 1), (4, 4), (8, 64), (32, 32)])
    def test_routes_agree_and_projections_land(self, p, q, k):
        trunc = Truncation(p, q, k)
        rng = make_rng(1000 * p + q)
        pt1 = sample_stable1(trunc, rng)
        pt3 = sample_stable3(trunc, rng)
        for which, pt in (("k1", pt1), ("k3", pt3), ("k3hat", pt3)):
            vals = list(evaluate_routes(pt, which).values())
            spread = max(vals) - min(vals)
            assert spread <= CROSS_ROUTE_TOL * max(1.0, abs(vals[0])), (which, vals)
        for res in (project1(pt1), project3(pt3)):
            residual = max(level_residual(res.point))
            assert residual == res.residual
            assert residual <= DEFAULT_MEMBERSHIP_TOL * trunc.k2

    def test_the_base_point_evaluates_near_the_smallest_k(self):
        # k^4 = 1e-280 is still normal, so Truncation accepts k = 1e-70 and
        # every route of the base point (V = 0) reads 0 instead of raising
        pt = ConfigPoint.base(Truncation(2, 2, 1e-70))
        with pytest.warns(IntegralityWarning):
            k1 = evaluate_routes(pt, "k1")
        assert k1 == {"closed": 0.0, "curvature": 0.0, "level": 0.0}
        for which in ("k3", "k3hat"):
            assert set(evaluate_routes(pt, which).values()) == {0.0}


class TestEvaluateRoutesSharing:
    """evaluate_routes computes each input shared by its routes once per
    call, and every route with a public single-route function keeps that
    function's value, bit for bit."""

    @pytest.mark.parametrize("k", [SQRT2, 30.0])
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (8, 64), (32, 32), (64, 64)])
    def test_values_equal_the_public_routes_bit_for_bit(self, p, q, k):
        trunc = Truncation(p, q, k)
        rng = make_rng(7 * p + q)
        pt1 = sample_stable1(trunc, rng)
        pt3 = sample_stable3(trunc, rng)
        k1 = evaluate_routes(pt1, "k1")
        assert set(k1) == {"closed", "curvature", "level"}
        assert k1["closed"] == K1_closed(pt1)
        assert k1["level"] == quotient_potential(pt1)
        pair, _ = psi3(pt3)
        k3 = evaluate_routes(pt3, "k3")
        assert set(k3) == {"spectral", "level", "angles"}
        assert k3["spectral"] == K3_spectral(pt3)
        assert k3["angles"] == K3_hat_angles(pair, k)
        assert evaluate_routes(pt3, "k3hat") == {
            "angles": K3_hat_angles(pair, k),
            "cotangent": K3_hat_cotangent(psi1(project3(pt3).point).V, k),
        }

    @staticmethod
    def _k3_routes_moved(monkeypatch, patches, tol=DEFAULT_MEMBERSHIP_TOL):
        """The k3 routes that the patches (module, name, value) move, on
        fresh copies of third-stable points at tol; each faulty table must
        fail the cross-check bound."""
        rng = make_rng(11)
        points = [sample_stable3(Truncation(p, q, SQRT2), rng)
                  for (p, q) in ((1, 1), (3, 5), (4, 4))]
        base = [evaluate_routes(fresh(pt), "k3", tol) for pt in points]
        for module, name, value in patches:
            monkeypatch.setattr(module, name, value)
        moved = set()
        for pt, before in zip(points, base):
            table = evaluate_routes(fresh(pt), "k3", tol)
            moved |= {route for route in table if table[route] != before[route]}
            vals = list(table.values())
            assert max(vals) - min(vals) > CROSS_ROUTE_TOL * max(1.0, abs(vals[0]))
        return moved

    def test_shared_graph_fault_still_splits_the_k3_routes(self, monkeypatch):
        # a fault in the one graph w reaches the angles route alone: the
        # level route reads the SVD of M and the spectral route the point's
        # x +/- X, so the k3 cross-check sees it
        graph = grassmann._graph

        def skewed(pair, tol):
            return 1.001 * graph(pair, tol)

        moved = self._k3_routes_moved(
            monkeypatch, [(module, "_graph", skewed) for module in (grassmann, potentials)])
        assert moved == {"angles"}

    def test_a_fault_in_the_values_of_m_moves_level_and_angles(self, monkeypatch):
        # Sigma of the memoized SVD M = L Sigma R* scaled by 1.001: w (and
        # so the angles route) and project3's point read it, the spectral
        # route does not.  At the default tol project3's own level residual
        # refuses the point, which comes out scaled by 1.001^(-1/2), so
        # (x + X)*(x - X) = k^2 Id / 1.001; at a tol loose enough to let
        # that residual pass, the level and angles routes move apart from
        # the spectral one.  Either way the potentials suite fails.
        svd = grassmann._m_svd

        def skewed(pair):
            l, s, r = svd(pair)
            return l, 1.001 * s, r

        patch = [(grassmann, "_m_svd", skewed)]
        assert self._k3_routes_moved(monkeypatch, patch, tol=1e-2) == {"level", "angles"}
        with pytest.raises(NotInStable3, match="orbit projection left residual"):
            evaluate_routes(fresh(sample_stable3(Truncation(3, 4, SQRT2), make_rng(0))), "k3")
        results = {r.name: r for r in checks.run_suite("potentials", 3, 0)}
        assert not results["k3_route_agreement"].passed

    @pytest.mark.parametrize("which,budget", [
        ("k1", {"qr reduced": 1, "svd values": 2, "eigh": 1, "svd full": 1,
                "eigvalsh": 1}),
        ("k3", {"qr reduced": 2, "svd full": 1, "svd values": 1, "eigvalsh": 1,
                "cholesky": 1}),
        ("k3hat", {"qr reduced": 3, "svd full": 1, "svd values": 3}),
    ])
    def test_factorization_budget(self, which, budget, lapack_calls):
        # k1: one thin QR x = F R and the values of R for membership, the
        # curvature frame, the level route and the log-det term of closed
        # and curvature and the closed route's operand (x*x is not formed),
        # the values of V for the curvature route, eigenvalues only where a
        # route reads no eigenvectors, and no frame of P^perp; k3: one
        # Cholesky factor and one eigvalsh for the spectral route; k3/k3hat:
        # psi3's thin QRs of x + X and x - X and one p x p SVD of
        # M = F_P* F_Qperp, which gives the level route's point and the
        # graph w, whose values the angles routes read; k3hat's cotangent
        # route: psi1's thin QR of the level point's x, the values of its R
        # and those of psi1's V.
        # Evaluated on a fresh copy, so the sampler's x factors are not read.
        rng = make_rng(20240817)
        trunc = Truncation(4, 5, SQRT2)
        pt = sample_stable1(trunc, rng) if which == "k1" else sample_stable3(trunc, rng)
        pt = fresh(pt)
        lapack_calls.clear()
        evaluate_routes(pt, which)
        assert dict(lapack_calls) == budget

    @pytest.mark.parametrize("k,expected", [(1.0, 1), (SQRT2, 0)])
    def test_one_integrality_warning_per_call(self, k, expected):
        pt = sample_stable1(Truncation(2, 2, k), make_rng(3))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            evaluate_routes(pt, "k1")
        assert [type(w.message) for w in rec] == [IntegralityWarning] * expected
        assert [w.filename for w in rec] == [__file__] * expected


def _scaled(fun, factor=1.0 + 1e-6):
    """fun with its value (the first item of a tuple value) times factor."""
    def faulty(*args):
        out = fun(*args)
        if isinstance(out, tuple):
            return (out[0] * factor, *out[1:])
        return out * factor
    return faulty


class TestEachBodyMovesOnlyItsRoute:
    """Each route is one private body: a fault in a body moves that body's
    route and no other, by more than the cross-check bound, in every table
    evaluate_routes returns.  A fault in an input that evaluate_routes
    forms once for several routes moves exactly the routes that read it.
    Every table is evaluated on fresh copies of the points, so the faulty
    tables read nothing memoized before the patch."""

    @staticmethod
    def _points():
        trunc = Truncation(3, 4, SQRT2)
        rng = make_rng(5)
        pt1, pt3 = sample_stable1(trunc, rng), sample_stable3(trunc, rng)
        return (("k1", pt1), ("k3", pt3), ("k3hat", pt3))

    @staticmethod
    def _tables(points):
        return {which: evaluate_routes(fresh(pt), which) for which, pt in points}

    def _moved(self, monkeypatch, name, faulty):
        points = self._points()
        base = self._tables(points)
        monkeypatch.setattr(potentials, name, faulty)
        moved = set()
        for which, table in self._tables(points).items():
            assert set(table) == set(base[which])
            changed = {f"{which}.{route}" for route in table
                       if table[route] != base[which][route]}
            if changed:
                vals = list(table.values())
                assert max(vals) - min(vals) > CROSS_ROUTE_TOL * max(1.0, abs(vals[0]))
            moved |= changed
        return moved

    ROUTES_OF_BODY = {
        "_k1_closed": {"k1.closed"},
        "_k1_curvature": {"k1.curvature"},
        "_k1_level": {"k1.level"},
        "_k3_spectral": {"k3.spectral"},
        "_k3_level": {"k3.level"},
        "_k3_hat_angles": {"k3.angles", "k3hat.angles"},
    }

    @pytest.mark.parametrize("body", list(ROUTES_OF_BODY))
    def test_a_body_fault_moves_only_its_route(self, monkeypatch, body):
        moved = self._moved(monkeypatch, body, _scaled(getattr(potentials, body)))
        assert moved == self.ROUTES_OF_BODY[body]

    def test_a_fiber_fault_moves_only_the_curvature_route(self, monkeypatch):
        # grassmann._fiber, which psi1 calls too, is read by one route
        moved = self._moved(monkeypatch, "_fiber", _scaled(potentials._fiber))
        assert moved == {"k1.curvature"}

    # the k1 inputs formed once: R of x's thin QR feeds the log-det term,
    # which closed and curvature add, and the closed route's operand; the
    # level route reads project1's result alone.  The spectral pairing of
    # the curvature operator is read by the k1 curvature route,
    # K3_hat_cotangent by the k3hat cotangent route on psi1's V at
    # project3's point, and the angles of w by both angles routes.  The
    # memoized x +/- X (moment._plus_minus) scaled by 1 + 1e-6 moves the
    # spectral route alone: the verdict and the frames of psi3's pair read
    # moment's own binding.  The memoized SVD of M has its own test above:
    # both k3hat routes read it, through w and through project3's point
    READERS_OF_INPUT = {
        "_x_factor": {"k1.closed", "k1.curvature"},
        "_logdet_term": {"k1.closed", "k1.curvature"},
        "curvature_fun_apply": {"k1.curvature"},
        "K3_hat_cotangent": {"k3hat.cotangent"},
        "_angles": {"k3.angles", "k3hat.angles"},
        "_plus_minus": {"k3.spectral"},
    }

    @pytest.mark.parametrize("shared", list(READERS_OF_INPUT))
    def test_a_shared_input_fault_moves_its_readers_and_not_level(self, monkeypatch, shared):
        moved = self._moved(monkeypatch, shared, _scaled(getattr(potentials, shared)))
        assert moved == self.READERS_OF_INPUT[shared]


def _k1_inputs(pt, tol):
    """What evaluate_routes hands the k1 bodies: the log-det term on R of
    x's thin QR x = F R, and psi1's frame F."""
    f, r = _stable1_qr(pt, tol, "")
    return potentials._logdet_term(pt, r), f


def _w(pt, tol):
    """The k3 and k3hat tables' shared graph w of psi3's pair."""
    return grassmann._graph(grassmann._orbit_pair(pt, tol), tol)


def _angles_route(pt, tol):
    return potentials._k3_hat_angles(grassmann._angles(_w(pt, tol)), pt.trunc.k)


class TestReaderMatrix:
    """Each route's own factorizations, once the inputs its table shares
    are memoized on the point: no two routes of one table take the same
    multiset of LAPACK calls, so no agreement check compares two routes
    that factor alike.  Each route is rebuilt here from the bodies and
    shared inputs evaluate_routes wires together, and must give the
    table's value bit for bit; the shared inputs' calls and the routes'
    add up to the whole table's."""

    SHARED = {"k1": _k1_inputs, "k3": _w, "k3hat": _w}
    ROUTES = {
        "k1": {
            "closed": lambda pt, tol: potentials._k1_closed(
                pt, _k1_inputs(pt, tol)[0], potentials._x_factor(pt)),
            "curvature": lambda pt, tol: potentials._k1_curvature(pt, *_k1_inputs(pt, tol)),
            "level": lambda pt, tol: potentials._k1_level(project1(pt, tol), pt.trunc.k),
        },
        "k3": {
            "spectral": lambda pt, tol: potentials._k3_spectral(pt),
            "level": lambda pt, tol: potentials._k3_level(project3(pt, tol)),
            "angles": _angles_route,
        },
        "k3hat": {
            "angles": _angles_route,
            "cotangent": lambda pt, tol: K3_hat_cotangent(
                psi1(project3(pt, tol).point, tol).V, pt.trunc.k),
        },
    }
    CALLS = {
        "k1": {"closed": {"eigvalsh": 1}, "curvature": {"svd values": 1},
               "level": {"eigh": 1, "svd full": 1}},
        "k3": {"spectral": {"cholesky": 1, "eigvalsh": 1}, "level": {},
               "angles": {"svd values": 1}},
        "k3hat": {"angles": {"svd values": 1},
                  "cotangent": {"qr reduced": 1, "svd values": 2}},
    }

    @pytest.mark.parametrize("which", ["k1", "k3", "k3hat"])
    def test_no_two_routes_of_a_table_factor_alike(self, which, lapack_calls):
        trunc, tol = Truncation(4, 5, SQRT2), DEFAULT_MEMBERSHIP_TOL
        sample = sample_stable1 if which == "k1" else sample_stable3
        pt = sample(trunc, make_rng(20240817))
        lapack_calls.clear()
        table = evaluate_routes(fresh(pt), which, tol)
        whole = dict(lapack_calls)
        assert set(table) == set(self.ROUTES[which])
        lapack_calls.clear()
        self.SHARED[which](fresh(pt), tol)
        total = collections.Counter(lapack_calls)
        calls = {}
        for route, body in self.ROUTES[which].items():
            copy = fresh(pt)
            self.SHARED[which](copy, tol)
            lapack_calls.clear()
            assert body(copy, tol) == table[route], route
            calls[route] = dict(lapack_calls)
            total.update(lapack_calls)
        assert calls == self.CALLS[which]
        assert dict(total) == whole
        taken = [frozenset(c.items()) for c in calls.values()]
        assert len(set(taken)) == len(taken), calls
