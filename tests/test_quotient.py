import numpy as np
import pytest

import oracle_mp
from conftest import fresh, ill_conditioned_stable1
from hkq.checks import run_suite
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.errors import (
    HkqError,
    NotInStable1,
    NotInStable3,
    NotOnLevelSet,
    NotPositiveDefinite,
    ShapeMismatch,
)
from hkq.grassmann import (
    Subspace,
    complement_frame,
    projector_distance,
    psi1,
    psi1_section,
    psi3,
)
from hkq.hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    act1,
    act3,
    apply_I,
    flat_potential_K,
    metric_g,
    omega,
)
from hkq.matcore import (
    HermitianSpectrum,
    dagger,
    fnorm,
    skew_part,
    sym_sylvester_solve,
)
from hkq.moment import in_stable1, in_stable3, level_residual
from hkq.quotient import SliceBasis, _level_section, project1, project3, slice_basis
from hkq.sampling import (
    _hermitian_ball,
    gaussian_complex,
    make_rng,
    random_skew,
    random_subspace,
    random_tangent,
    random_unitary,
    sample_cotangent,
    sample_level,
    sample_stable1,
    sample_stable3,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def col(*vals):
    return np.array([[v] for v in vals], dtype=complex)


class TestProject1:
    @pytest.mark.parametrize("cond", [1e5, 1e7])
    def test_an_ill_conditioned_x_lands_on_the_level_set(self, cond):
        # the level section over (U, V') never squares cond(x): x's thin SVD
        # gives U and V' = X W diag(s) / k^2, and the group part comes from
        # one SVD of g0 diag(s), Hermitian positive definite with
        # eigenvalues sig / |k| ascending
        for seed in range(4):
            pt = ill_conditioned_stable1(3, 4, SQRT2, cond, seed)
            res = project1(pt)
            assert res.residual <= DEFAULT_MEMBERSHIP_TOL * pt.trunc.k2
            g = res.group_part
            assert np.array_equal(g, dagger(g))
            lam = np.linalg.eigvalsh(g)
            assert np.all(res.eigenvalues > 0) and np.all(np.diff(res.eigenvalues) >= 0)
            # eigvalsh of the assembled g is accurate to round-off of its norm
            np.testing.assert_allclose(res.eigenvalues, lam, rtol=0,
                                       atol=1e-13 * np.abs(lam).max())

    def test_base_point_fixed(self, trunc11):
        base = ConfigPoint.base(trunc11)
        res = project1(base)
        assert fnorm(res.group_part - np.eye(1)) <= 1e-12
        assert fnorm(res.point.x - base.x) <= 1e-12

    def test_zero_fiber_closed_form(self):
        tr = Truncation(1, 1, 1.0)
        pt = ConfigPoint(tr, col(2.0, 0.0), col(0.0, 0.0))
        res = project1(pt)
        assert np.allclose(res.point.x, col(1.0, 0.0))
        assert np.allclose(res.group_part, [[2.0]])  # g^-1 = k (x*x)^{-1/2} = 1/2

    def test_s2_scenario(self, s2_point):
        res = project1(s2_point)
        g2_inv = (1.0 + SQRT3) / 2.0  # g^{-2}
        assert np.allclose(res.group_part, [[g2_inv ** -0.5]], atol=1e-12)
        assert np.allclose(res.point.x, col(np.sqrt(2.0 * g2_inv), 0.0), atol=1e-7)
        assert abs(res.point.x[0, 0].real - 1.6528917) <= 1e-6
        assert abs(res.point.X[1, 0].real - 0.8555996) <= 1e-6
        xx = (dagger(res.point.x) @ res.point.x).real
        XX = (dagger(res.point.X) @ res.point.X).real
        assert abs(xx[0, 0] - XX[0, 0] - 2.0) <= 1e-12
        assert fnorm(dagger(res.point.X) @ res.point.x) <= 1e-12

    def test_membership_enforced(self, trunc11):
        bad = ConfigPoint(trunc11, col(1.0, 0.0), col(1.0, 0.0))
        with pytest.raises(NotInStable1):
            project1(bad)

    def test_residual_contract(self, rng):
        tr = Truncation(4, 3, np.sqrt(2.0))
        for _ in range(5):
            res = project1(sample_stable1(tr, rng))
            assert res.residual <= 1e-10 * tr.k2

    def test_equivariance(self, rng):
        tr = Truncation(3, 2, np.sqrt(2.0))
        pt = sample_stable1(tr, rng)
        u = random_unitary(3, rng)
        lhs = project1(act1(u, pt)).point
        rhs = act1(u, project1(pt).point)
        assert fnorm(lhs.x - rhs.x) <= 1e-9 * (1 + fnorm(rhs.x))
        assert fnorm(lhs.X - rhs.X) <= 1e-9 * (1 + fnorm(rhs.X))


    @pytest.mark.parametrize("k", [SQRT2, -SQRT2, -5.0, 0.3])
    def test_group_part_moves_the_point_onto_its_result(self, k, rng):
        # the group element project1 returns is the one it applied, for
        # either sign of k (the section is taken at |k|)
        for p, q in ((1, 1), (4, 5), (6, 2), (3, 4)):
            pt = sample_stable1(Truncation(p, q, k), rng)
            res = project1(pt)
            moved = act1(res.group_part, pt)
            assert fnorm(moved.x - res.point.x) <= 1e-13 * (1 + fnorm(res.point.x))
            assert fnorm(moved.X - res.point.X) <= 1e-13 * (1 + fnorm(res.point.X))

    def test_membership_is_the_rule_of_in_stable1(self):
        # project1 judges injectivity on its own SVD of x: it must refuse
        # exactly the points in_stable1 refuses
        tr = Truncation(2, 1, 1.0)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.2]], dtype=complex)
        for scale in (1.0, 1e-3, 1.1e-9, 0.9e-9, 0.0):
            xs = x.copy()
            xs[1, 1] = scale
            for Xs in (X, X + 2e-9 * x):
                pt = ConfigPoint(tr, xs, Xs)
                if in_stable1(pt):
                    assert project1(pt).residual <= 1e-9 * tr.k2
                else:
                    with pytest.raises(NotInStable1):
                        project1(pt)

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e200, 1e300])
    def test_refuses_a_point_whose_x_star_x_overflows(self, scale, rng):
        # x*x overflows at every scale here; project1 never forms it, but
        # the fiber operand |x| X*X |x| does, and is refused as non-finite
        tr = Truncation(3, 2, SQRT2)
        x = scale * tr.base_x()
        X = np.zeros((5, 3), dtype=complex)
        X[3:] = gaussian_complex(rng, (2, 3))  # X*x = 0 exactly
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(HkqError):
                project1(ConfigPoint(tr, x, X))

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e160, 1e200, 1e300])
    def test_never_returns_a_non_finite_point(self, scale, rng):
        # with no fiber nothing overflows on the way: the projection either
        # succeeds (the level point k [Id; 0] up to a unitary) or refuses
        tr = Truncation(3, 2, SQRT2)
        pt = sample_stable1(tr, rng)
        big = ConfigPoint(tr, scale * pt.x, np.zeros_like(pt.X))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            try:
                res = project1(big)
            except HkqError:
                return
        assert np.isfinite(res.point.x).all() and np.isfinite(res.point.X).all()
        assert max(level_residual(res.point)) <= 1e-9 * tr.k2

    def test_eigenvalues_are_group_parts_ascending(self, rng):
        for p, q in ((1, 1), (4, 5), (8, 3)):
            res = project1(sample_stable1(Truncation(p, q, SQRT2), rng))
            lam = np.linalg.eigvalsh(res.group_part)
            assert np.all(np.diff(res.eigenvalues) >= 0)
            np.testing.assert_allclose(res.eigenvalues, lam, rtol=0,
                                       atol=1e-13 * np.abs(lam).max())

    def test_factorization_budget(self, lapack_calls, rng):
        # one thin QR x = F R and the values of R (membership, the frame F
        # and the fiber V'), one eigh of V'*V' (g0 and g0^-1 of the level
        # section) and one p x p SVD of g0 R (the unitary factor and g); no
        # inverse.  A sampled point holds its QR and values already, taken
        # by the sampler.  slice_basis
        # decomposes M once and checks membership without a factorization;
        # each projection then solves against that spectrum and adds none.
        tr = Truncation(4, 5, SQRT2)
        pt = sample_stable1(tr, rng)
        level = sample_level(tr, rng)
        v = random_tangent(tr, rng)
        basis = slice_basis(level)
        budgets = [
            (lambda: project1(fresh(pt)),
             {"qr reduced": 1, "svd values": 1, "eigh": 1, "svd full": 1}),
            (lambda: project1(pt), {"eigh": 1, "svd full": 1}),
            (lambda: slice_basis(level), {"eigh": 1}),
            (lambda: basis.orbit(v), {}),
            (lambda: basis.level(v), {}),
            (lambda: basis.horizontal(v), {}),
            (lambda: basis.i_orbit(2, v), {}),
        ]
        for call, budget in budgets:
            lapack_calls.clear()
            call()
            assert dict(lapack_calls) == budget


@pytest.mark.parametrize("p,q,k", [(1, 1, SQRT2), (2, 3, 0.3), (3, 2, 5.0),
                                   (4, 5, SQRT2), (5, 5, 0.3), (5, 4, 5.0)])
def test_projections_match_the_40_digit_witness(p, q, k):
    # oracle_mp evaluates project1's g by the general formula
    # g^-2 = |x|^-1 gamma gamma* |x|^-1 that the level-section form replaced,
    # and the level residual of project3's point on its exact values
    trunc = Truncation(p, q, k)
    pt = sample_stable1(trunc, make_rng(p + q))
    g, want = project1(pt).group_part, oracle_mp.project1_group_part(pt)
    assert fnorm(g - want) <= 1e-12 * fnorm(want)
    point = project3(sample_stable3(trunc, make_rng(p * q))).point
    assert max(oracle_mp.level_residual(point)) <= 1e-12 * trunc.k2


@pytest.mark.parametrize("p,q,k", [(1, 1, SQRT2), (4, 5, SQRT2), (6, 2, 30.0),
                                   (8, 64, SQRT2), (3, 3, 0.05)])
def test_level_section_is_the_projection_of_the_section(p, q, k, rng):
    # at psi1's section |x| = k Id, so project1's g is a function of V*V
    # alone: the closed form gives the same point in the same gauge of F_P
    tr = Truncation(p, q, k)
    for _ in range(3):
        cp = sample_cotangent(tr, rng)
        pt = _level_section(cp.P.frame, cp.V, k)
        want = project1(psi1_section(cp, k)).point
        scale = 1e-13 * (1.0 + fnorm(want.x) + fnorm(want.X))
        assert pt.trunc == tr
        assert fnorm(pt.x - want.x) <= scale and fnorm(pt.X - want.X) <= scale
        assert max(level_residual(pt)) <= 1e-12 * k * k
        back = psi1(pt)
        assert projector_distance(back.P, cp.P) <= 1e-12
        assert fnorm(back.eta - cp.eta) <= 1e-12 * (1.0 + fnorm(cp.eta))


class TestProject3:
    def test_eigenvalues_are_hs_ascending(self, rng):
        # the point has x + X = k F_P m^{1/4}, so (x + X)*(x + X) = k^2 m^{1/2}
        # and h = (1/4) log m = (1/2) log((x + X)*(x + X) / k^2)
        for p, q in ((1, 1), (4, 5), (8, 3)):
            res = project3(sample_stable3(Truncation(p, q, SQRT2), rng))
            a = res.point.x + res.point.X
            lam = 0.5 * np.log(np.linalg.eigvalsh(dagger(a) @ a) / 2.0)
            assert np.all(np.diff(res.eigenvalues) >= 0)
            np.testing.assert_allclose(res.eigenvalues, lam, rtol=0,
                                       atol=1e-13 * (1 + np.abs(lam).max()))

    def test_membership_enforced(self, rng):
        # a first-stable point off the level set is not third-stable
        pt = sample_stable1(Truncation(2, 3, np.sqrt(2.0)), rng)
        assert not in_stable3(pt)
        with pytest.raises(NotInStable3):
            project3(pt)

    def test_level_point_value_preserved(self, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        res = project3(pt)
        assert abs(flat_potential_K(res.point) - flat_potential_K(pt)) <= 1e-10 * (
            1 + abs(flat_potential_K(pt)))

    def test_s3_scenario(self, s3_point):
        res = project3(s3_point)
        assert abs(res.eigenvalues[0] - 0.25 * np.log(2.0)) <= 1e-12
        assert res.residual <= 1e-12
        # exact closed form: the boost turns the section point into
        # ((2^{3/4}+2^{1/4})/2, 2^{1/4}/2 ; (2^{3/4}-2^{1/4})/2, -2^{1/4}/2)
        q14, q34 = 2.0 ** 0.25, 2.0 ** 0.75
        assert abs(res.point.x[0, 0].real - (q34 + q14) / 2) <= 1e-12
        assert abs(res.point.x[1, 0].real - q14 / 2) <= 1e-12
        assert abs(res.point.X[0, 0].real - (q34 - q14) / 2) <= 1e-12
        assert abs(res.point.X[1, 0].real + q14 / 2) <= 1e-12
        # hand-printed reference values are only good to print precision
        assert abs(res.point.x[0, 0].real - 1.4355003) <= 1e-5
        assert abs(res.point.X[0, 0].real - 0.2462876) <= 1e-5
        assert abs(flat_potential_K(res.point) - (SQRT2 - 1) / 2) <= 1e-12

    def test_same_orbit(self, rng):
        tr = Truncation(2, 3, np.sqrt(2.0))
        pt = sample_stable3(tr, rng)
        pair0, _ = psi3(pt)
        res = project3(pt)
        pair1, _ = psi3(res.point)
        assert projector_distance(pair0.P, pair1.P) <= 1e-9
        assert projector_distance(pair0.Qperp, pair1.Qperp) <= 1e-9

    def test_value_invariant_on_orbit(self, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_stable3(tr, rng)
        k0 = flat_potential_K(project3(pt).point)
        h = _hermitian_ball(2, rng, 0.7)
        u = random_unitary(2, rng)
        k1 = flat_potential_K(project3(act3(h, u, pt)).point)
        assert abs(k0 - k1) <= 1e-9 * (1 + abs(k0))


def _point_over(P, Qperp, k):
    """A third-stable point whose pair is (P, Q^perp), balanced so that
    its entries stay of the size of the level representative's:
    x + X = c k F_P and x - X = (k / c) F_Qperp M^-1, M = F_P* F_Qperp,
    c = ||M^-1||^{1/2}, so (x - X)*(x + X) = k^2 Id.  psi3_section's
    x - X = k F_Qperp M^-1 alone would be of size ||M^-1|| k, and its
    level equations would carry a round-off of eps ||M^-1||^2 k^2."""
    m = dagger(P.frame) @ Qperp.frame
    c = np.linalg.norm(np.linalg.inv(m), 2) ** 0.5
    plus = c * k * P.frame
    minus = (k / c) * np.linalg.solve(m.T, Qperp.frame.T).T
    return ConfigPoint(Truncation(P.dim, P.ambient - P.dim, k), (plus + minus) / 2,
                       (plus - minus) / 2)


def _head_way(pair, k):
    """project3's point built on the eigendecomposition of m = Id + w*w,
    w = F_Qperp M^-1 - F_P: x + X = k F_P m^{1/4} and
    x - X = k (F_P + w) m^{-1/4}, and h's eigenvalues (1/4) log eig(m)."""
    fp, fqp = pair.P.frame, pair.Qperp.frame
    w = fqp @ np.linalg.inv(dagger(fp) @ fqp) - fp
    lam, u = np.linalg.eigh(np.eye(fp.shape[1]) + dagger(w) @ w)
    plus = k * (fp @ ((u * lam ** 0.25) @ dagger(u)))
    minus = k * ((fp + w) @ ((u * lam ** -0.25) @ dagger(u)))
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _near_intersecting(p, q, rng):
    """(P, Q^perp) with Q^perp the graph over P of an A whose singular
    values run geometrically from 1e6 down to 1, so sigma_min(M) is
    about 1e-6 sigma_max(M)."""
    r = min(p, q)
    P = random_subspace(p + q, p, rng)
    a = (random_unitary(q, rng)[:, :r] * np.geomspace(1e6, 1.0, r)) @ dagger(
        random_unitary(p, rng)[:, :r])
    return P, Subspace(np.linalg.qr(P.frame + complement_frame(P) @ a)[0])


class TestProject3AtItsEdges:
    """project3's closed form x + X = k F_P L s^{-1/2} L*,
    x - X = k F_Qperp R s^{-1/2} L* on the SVD M = L diag(s) R*, against
    the eigendecomposition of m = Id + w*w = (M M*)^-1 that it replaced,
    where p > q (2p - n of the s are 1), where Q = P^perp (every s is 1)
    and where sigma_min(M) is about 1e-6 sigma_max(M).

    Bounds, with kappa = 1/s_min >= cond(M) (s_max <= 1): the SVD is
    backward stable, so each s_i is off by at most n eps and
    -(1/2) log s_i by at most n eps kappa.  The closed form applies
    s^{-1/2}, whose divided differences on [s_min, 1] are at most
    (1/2) kappa^{3/2}, to that backward error, so the point is off by
    n eps kappa relative to its size k kappa^{1/2}.  The oracle forms m,
    whose eigenvalues, in [1, kappa^2], carry an absolute error of
    n eps ||m|| = n eps kappa^2; lam^{1/4} and lam^{-1/4} have
    derivatives at most 1/4 on lam >= 1, and the rows of F_P + w scale
    an eigendirection of m by lam^{1/2}, which the entries of
    m^{-1/4} off the small eigenvalues absorb, so the oracle's point is
    off by n eps kappa^2 absolutely, n eps kappa^{3/2} relative to its
    size.  The two points agree within 2 n eps kappa^{3/2}."""

    @staticmethod
    def _check(P, Qperp, k=SQRT2):
        pt = _point_over(P, Qperp, k)
        res = project3(pt)
        pair, _ = psi3(pt)
        n = pt.trunc.n
        eps = np.finfo(float).eps
        s = np.linalg.svd(dagger(pair.P.frame) @ pair.Qperp.frame, compute_uv=False)
        kappa = 1.0 / s[-1]
        assert res.residual == max(level_residual(res.point))
        assert res.residual <= DEFAULT_MEMBERSHIP_TOL * pt.trunc.k2
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert np.max(np.abs(res.eigenvalues + 0.5 * np.log(s))) <= n * eps * kappa
        x, X = _head_way(pair, k)
        gap = fnorm(res.point.x - x) + fnorm(res.point.X - X)
        assert gap <= 2.0 * n * eps * kappa ** 1.5 * (fnorm(x) + fnorm(X))
        return s, res

    @pytest.mark.parametrize("p,q", [(5, 2), (4, 1), (3, 2), (9, 1)])
    def test_p_greater_than_q(self, p, q, rng):
        s, res = self._check(random_subspace(p + q, p, rng), random_subspace(p + q, p, rng))
        n, surplus = p + q, 2 * p - (p + q)
        eps = np.finfo(float).eps
        assert np.max(np.abs(s[:surplus] - 1.0)) <= n * eps
        assert np.max(np.abs(res.eigenvalues[:surplus])) <= n * eps

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 4), (8, 64)])
    def test_q_is_the_complement_of_p(self, p, q, rng):
        # Q^perp = P: M = Id, w = 0, and the point is (k F_P, 0) up to round-off
        P = random_subspace(p + q, p, rng)
        s, res = self._check(P, P)
        eps = np.finfo(float).eps
        assert np.max(np.abs(res.eigenvalues)) <= (p + q) * eps
        assert fnorm(res.point.X) <= (p + q) * eps * fnorm(res.point.x)

    @pytest.mark.parametrize("p,q", [(3, 4), (4, 4), (5, 2), (8, 64)])
    def test_near_intersecting_pair(self, p, q, rng):
        s, _ = self._check(*_near_intersecting(p, q, rng))
        assert 1e-7 <= s[-1] / s[0] <= 1e-5


@pytest.mark.parametrize("k", [1e-7, 1e-3, SQRT2, 1e3])
def test_projectors_at_the_base_point_for_any_k(k, rng):
    # M = k^2 Id there: positive definite for every k
    tr = Truncation(2, 3, k)
    pt = ConfigPoint.base(tr)
    v = k * random_tangent(tr, rng)
    nv = np.sqrt(metric_g(v, v))
    basis = slice_basis(pt)
    for proj in (basis.orbit, basis.level, basis.horizontal):
        once = proj(v)
        twice = proj(once)
        assert fnorm(once.Z - twice.Z) + fnorm(once.T - twice.T) <= 1e-12 * nv
    a = random_skew(2, rng)
    xi = TangentPair(-pt.x @ a, -pt.X @ a)
    fixed = basis.orbit(xi)
    assert fnorm(fixed.Z - xi.Z) + fnorm(fixed.T - xi.T) <= 1e-12 * abs(k) * fnorm(a)
    reduced_g = metric_g(basis.horizontal(v), basis.horizontal(xi))
    assert abs(reduced_g) <= 1e-12 * nv * abs(k) * fnorm(a)


class TestOrbitProjection:
    def test_orbit_vector_recovered(self, rng):
        tr = Truncation(3, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        a = random_skew(3, rng)
        v = TangentPair(-pt.x @ a, -pt.X @ a)
        out = slice_basis(pt).orbit(v)
        assert fnorm(out.Z - v.Z) <= 1e-11 * (1 + fnorm(v.Z))
        assert fnorm(out.T - v.T) <= 1e-11 * (1 + fnorm(v.T))

    def test_radial_direction_killed(self, trunc11):
        base = ConfigPoint.base(trunc11)
        v = TangentPair(base.x.copy(), np.zeros_like(base.X))
        out = slice_basis(base).orbit(v)
        assert fnorm(out.Z) <= 1e-12 and fnorm(out.T) <= 1e-12

    def test_phase_direction_fixed(self, trunc11):
        base = ConfigPoint.base(trunc11)
        v = TangentPair(1j * base.x, np.zeros_like(base.X))
        out = slice_basis(base).orbit(v)
        assert fnorm(out.Z - v.Z) <= 1e-12
        assert fnorm(out.T - v.T) <= 1e-12

    def test_requires_level_membership(self, s2_point):
        with pytest.raises(NotOnLevelSet):
            slice_basis(s2_point)

    def test_result_orthogonal_to_orbit(self, rng):
        tr = Truncation(2, 4, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        v = random_tangent(tr, rng)
        out = slice_basis(pt).orbit(v)
        rest = v - out
        for _ in range(5):
            b = random_skew(2, rng)
            d = TangentPair(-pt.x @ b, -pt.X @ b)
            assert abs(metric_g(rest, d)) <= 1e-10 * (
                1 + np.sqrt(metric_g(v, v) * metric_g(d, d)))


class TestLevelProjection:
    def test_zero_vector(self, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        out = slice_basis(pt).level(TangentPair.zero(tr))
        assert fnorm(out.Z) == 0.0 and fnorm(out.T) == 0.0

    def test_violating_direction_cleaned(self, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        s = _hermitian_ball(2, rng, 1.0).reconstruct()
        v = TangentPair(pt.x @ s, np.zeros_like(pt.X))
        out = slice_basis(pt).level(v)
        a = dagger(pt.X) @ out.Z + dagger(out.T) @ pt.x
        b = (dagger(pt.x) @ out.Z + dagger(out.Z) @ pt.x
             - dagger(pt.X) @ out.T - dagger(out.T) @ pt.X)
        assert fnorm(a) + fnorm(b) <= 1e-9 * (1 + np.sqrt(metric_g(v, v)))


class TestHorizontal:
    def test_orbit_vector_killed(self, rng):
        tr = Truncation(3, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        a = random_skew(3, rng)
        v = TangentPair(-pt.x @ a, -pt.X @ a)
        out = slice_basis(pt).horizontal(v)
        assert fnorm(out.Z) + fnorm(out.T) <= 1e-10 * (1 + np.sqrt(metric_g(v, v)))

    def test_idempotent_and_i1_stable(self, rng):
        tr = Truncation(2, 3, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        h = basis.horizontal(random_tangent(tr, rng))
        again = basis.horizontal(h)
        assert fnorm((again - h).Z) + fnorm((again - h).T) <= 1e-10
        ih = apply_I(1, h)
        proj = basis.horizontal(ih)
        assert fnorm((proj - ih).Z) + fnorm((proj - ih).T) <= 1e-9


class TestReducedPairing:
    def test_antisymmetry_and_norm(self, rng):
        # a reduced form is metric_g or omega_j of two horizontal projections
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        v = random_tangent(tr, rng)
        h = basis.horizontal(v)
        assert abs(omega(1, h, h)) <= 1e-10 * (1 + metric_g(v, v))
        hh = basis.horizontal(h)
        assert abs(metric_g(hh, hh) - metric_g(h, h)) <= 1e-10 * (1 + metric_g(h, h))


class TestSliceBasis:
    def test_five_block_reconstruction(self, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        v = random_tangent(tr, rng)
        parts = [basis.orbit(v), basis.horizontal(v)]
        parts += [basis.i_orbit(j, v) for j in (1, 2, 3)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        nv = np.sqrt(metric_g(v, v))
        assert fnorm((total - v).Z) + fnorm((total - v).T) <= 1e-8 * (1 + nv)
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(metric_g(parts[i], parts[j])) <= 1e-8 * (1 + nv * nv)


# ---------------------------------------------------------------------------
# assembled-dF oracle
# ---------------------------------------------------------------------------

def _pack(v):
    return np.concatenate(
        [v.Z.real.ravel(), v.Z.imag.ravel(), v.T.real.ravel(), v.T.imag.ravel()])


def _unpack(w, n, p):
    m = n * p
    return TangentPair(w[:m].reshape(n, p) + 1j * w[m:2 * m].reshape(n, p),
                       w[2 * m:3 * m].reshape(n, p) + 1j * w[3 * m:].reshape(n, p))


def _dF(pt, v):
    """Constraint differential (X*Z + T*x, x*Z + Z*x - X*T - T*X)."""
    x, X, Z, T = pt.x, pt.X, v.Z, v.T
    return (dagger(X) @ Z + dagger(T) @ x,
            dagger(x) @ Z + dagger(Z) @ x - dagger(X) @ T - dagger(T) @ X)


def _dF_norm(pt, v):
    a, b = _dF(pt, v)
    return fnorm(a) + fnorm(b)


def _oracle_projection(pt, v, horizontal=False):
    """Kernel projector of dF (and, for the horizontal slice, of the orbit
    condition skew(x*Z + X*T) = 0) assembled column by column on the real
    parametrization of (Z, T), where g is the Euclidean product."""
    n, p = pt.x.shape
    dim = 4 * n * p
    cols = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        w = _unpack(e, n, p)
        blocks = list(_dF(pt, w))
        if horizontal:
            blocks.append(skew_part(dagger(pt.x) @ w.Z + dagger(pt.X) @ w.T))
        cols.append(np.concatenate([part for blk in blocks
                                    for part in (blk.real.ravel(), blk.imag.ravel())]))
    _, s, vt = np.linalg.svd(np.array(cols).T, full_matrices=False)
    row_basis = vt[: int(np.count_nonzero(s > 1e-12 * s[0]))]
    w = _pack(v)
    return _unpack(w - row_basis.T @ (row_basis @ w), n, p)


def _conditioning(pt):
    """lambda_max(M) / k^2 with M = x*x + X*X.  Round-off leaves the sampled
    point off the level set by about eps ||M||, i.e. eps times this ratio
    relative to the level k^2, and the normal blocks I_j O are g-orthogonal
    only up to that; the closed form is judged against it."""
    m = dagger(pt.x) @ pt.x + dagger(pt.X) @ pt.X
    return float(np.linalg.eigvalsh(m)[-1]) / pt.trunc.k2


ORACLE_SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (6, 5), (1, 6), (6, 1)]
ORACLE_KS = [0.05, SQRT2, 30.0]


class TestAssembledOracle:
    @pytest.mark.parametrize("k", ORACLE_KS)
    @pytest.mark.parametrize("p,q", ORACLE_SHAPES)
    def test_closed_form_matches_kernel_projector(self, p, q, k, rng):
        tr = Truncation(p, q, k)
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        cond = _conditioning(pt)
        m_half = np.sqrt(cond) * abs(k)
        for _ in range(2):
            v = random_tangent(tr, rng)
            bound = 1e-12 * (1 + np.sqrt(metric_g(v, v))) * cond
            level = basis.level(v)
            want = _oracle_projection(pt, v)
            assert fnorm(level.Z - want.Z) + fnorm(level.T - want.T) <= bound
            horiz = basis.horizontal(v)
            want = _oracle_projection(pt, v, horizontal=True)
            assert fnorm(horiz.Z - want.Z) + fnorm(horiz.T - want.T) <= bound
            # dF(w) is of size ||M||^(1/2) ||w||
            assert _dF_norm(pt, level) <= bound * m_half


class TestLargeShapes:
    @pytest.mark.parametrize("p,q", [(32, 32), (8, 64)])
    def test_slice_basis_and_level_residual(self, p, q, rng):
        tr = Truncation(p, q, SQRT2)
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        v = random_tangent(tr, rng)
        nv = np.sqrt(metric_g(v, v))
        parts = [basis.orbit(v), basis.horizontal(v)]
        parts += [basis.i_orbit(j, v) for j in (1, 2, 3)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert fnorm((total - v).Z) + fnorm((total - v).T) <= 1e-8 * (1 + nv)
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(metric_g(parts[i], parts[j])) <= 1e-8 * (1 + nv * nv)
        assert _dF_norm(pt, basis.level(v)) <= 1e-9 * (1 + nv)


class TestSliceBasisChecks:
    """SliceBasis checks its spectrum once, when built: p x p for the
    base's p, and positive definite; each projection then solves in the
    eigenbasis unchecked."""

    def test_spectrum_not_positive_definite_is_refused(self, trunc11):
        base = ConfigPoint.base(trunc11)
        for lam in ([-1.0], [0.0]):
            with pytest.raises(NotPositiveDefinite):
                SliceBasis(base, HermitianSpectrum(np.array(lam), np.eye(1, dtype=complex)))

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_spectrum_of_another_size_is_refused(self, size):
        base = ConfigPoint.base(Truncation(2, 3, SQRT2))
        spec = HermitianSpectrum(np.full(size, 2.0), np.eye(size, dtype=complex))
        with pytest.raises(ShapeMismatch, match="does not fit"):
            SliceBasis(base, spec)

    def test_orbit_equals_the_checked_solve(self, rng):
        tr = Truncation(3, 2, SQRT2)
        pt = sample_level(tr, rng)
        basis = slice_basis(pt)
        v = random_tangent(tr, rng)
        a = sym_sylvester_solve(basis.spec,
                                -skew_part(dagger(pt.x) @ v.Z + dagger(pt.X) @ v.T))
        out = basis.orbit(v)
        assert type(out) is TangentPair
        want = TangentPair(-pt.x @ a, -pt.X @ a)
        assert _distance(out, want) <= 1e-14 * np.sqrt(metric_g(want, want))

    def test_a_tangent_of_another_shape_is_refused(self, rng):
        basis = slice_basis(sample_level(Truncation(3, 2, SQRT2), rng))
        for shape in ((5, 2), (4, 3)):
            v = TangentPair(np.ones(shape), np.ones(shape))
            for proj in (basis.orbit, basis.level, basis.horizontal):
                with pytest.raises(ShapeMismatch):
                    proj(v)

    def test_overflow_is_refused(self, rng):
        basis = slice_basis(sample_level(Truncation(2, 2, SQRT2), rng))
        v = TangentPair(1e308 * np.ones((4, 2)), np.zeros((4, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            for proj in (basis.orbit, basis.level):
                with pytest.raises(ShapeMismatch, match="non-finite"):
                    proj(v)


def _distance(v, w):
    return np.sqrt(metric_g(v - w, v - w))


def _orbit_formula(pt, m, v):
    """(-x a, -X a), (M a + a M)/2 = -skew(x*Z + X*T), through the checked
    solver."""
    a = sym_sylvester_solve(m, -skew_part(dagger(pt.x) @ v.Z + dagger(pt.X) @ v.T))
    return TangentPair(-pt.x @ a, -pt.X @ a)


def _level_formula(pt, m, v):
    """v + sum_j I_j P_O(I_j v), the three solves stacked (module docstring)."""
    x, X, Z, T = pt.x, pt.X, v.Z, v.T
    xZ, xT, XZ, XT = dagger(x) @ Z, dagger(x) @ T, dagger(X) @ Z, dagger(X) @ T
    rhs = np.stack([1j * (xZ - XT), xT - XZ, 1j * (xT + XZ)])
    a1, a2, a3 = sym_sylvester_solve(m, -skew_part(rhs))
    return TangentPair(Z - x @ (1j * a1) - X @ (a2 + 1j * a3),
                       T + X @ (1j * a1) + x @ (a2 - 1j * a3))


PROJECTOR_SHAPES = [(1, 1), (2, 3), (4, 5), (8, 64), (16, 16)]


class TestEigenbasisProjectors:
    """The projections in M's eigenbasis against the formulas of the module
    docstring, solved by matcore.sym_sylvester_solve on the matrix M."""

    @pytest.mark.parametrize("k", [1e-3, SQRT2, 1e3])
    @pytest.mark.parametrize("p,q", PROJECTOR_SHAPES)
    def test_projections_agree_with_the_formulas(self, p, q, k, rng):
        # the level equations are homogeneous of degree 2 in (x, X, k), so
        # k times a point of the level set at k = 1 lies on the one at k,
        # as well conditioned; sample_level's own draws at small k are
        # test_known_defects.py::test_level_sample_at_small_k
        tr = Truncation(p, q, k)
        unit = sample_level(Truncation(p, q, 1.0), rng)
        pt = ConfigPoint(tr, k * unit.x, k * unit.X)
        basis = slice_basis(pt)
        m = dagger(pt.x) @ pt.x + dagger(pt.X) @ pt.X
        v = k * random_tangent(tr, rng)
        bound = 1e-13 * np.sqrt(metric_g(v, v))
        level = _level_formula(pt, m, v)
        want = {
            "orbit": (basis.orbit(v), _orbit_formula(pt, m, v)),
            "level": (basis.level(v), level),
            "horizontal": (basis.horizontal(v), level - _orbit_formula(pt, m, level)),
        }
        for j in (1, 2, 3):
            want[f"i_orbit {j}"] = (basis.i_orbit(j, v),
                                    -1.0 * apply_I(j, _orbit_formula(pt, m, apply_I(j, v))))
        for name, (got, formula) in want.items():
            assert _distance(got, formula) <= bound, name

    @pytest.mark.parametrize("p,q", PROJECTOR_SHAPES)
    def test_horizontal_is_level_less_its_orbit_part(self, p, q, rng):
        tr = Truncation(p, q, SQRT2)
        basis = slice_basis(sample_level(tr, rng))
        v = random_tangent(tr, rng)
        level = basis.level(v)
        want = level - basis.orbit(level)
        assert _distance(basis.horizontal(v), want) <= 1e-14 * np.sqrt(metric_g(v, v))

    def test_slice_basis_takes_one_eigh_and_the_projections_none(self, lapack_calls, rng):
        tr = Truncation(4, 5, SQRT2)
        pt, v = sample_level(tr, rng), random_tangent(tr, rng)
        lapack_calls.clear()
        basis = slice_basis(pt)
        assert dict(lapack_calls) == {"eigh": 1}
        lapack_calls.clear()
        for proj in (basis.orbit, basis.level, basis.horizontal):
            proj(v)
        for j in (1, 2, 3):
            basis.i_orbit(j, v)
        assert dict(lapack_calls) == {}

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("suite", ["reduction", "ddc"])
    def test_the_suites_that_read_the_projectors_pass(self, suite, seed):
        results = run_suite(suite, 20, seed)
        assert results and all(r.passed for r in results), [r.line() for r in results]
