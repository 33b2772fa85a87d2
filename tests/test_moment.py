import numpy as np
import pytest

from hkq.errors import BadIndex, NotSkew
from hkq.hkspace import ConfigPoint, TangentPair, Truncation, act1
from hkq.matcore import dagger, fnorm
from hkq.moment import (
    in_stable1,
    in_stable3,
    infinitesimal_action,
    level_residual,
    moment,
    moment_pairing_check,
    on_level_set,
)
from hkq.quotient import project1
from hkq.sampling import (
    gaussian_complex,
    random_skew,
    random_tangent,
    random_unitary,
    sample_stable1,
)


def col(*vals):
    return np.array([[v] for v in vals], dtype=complex)


class TestMomentValues:
    def test_base_point_level_value(self, trunc11):
        pt = ConfigPoint.base(trunc11)
        m1 = moment("mu1", pt)
        assert np.allclose(m1, -1.0j * np.eye(1))  # -(i/2) k^2 Id at k^2 = 2

    def test_zero_fiber(self, trunc11):
        pt = ConfigPoint(trunc11, col(1.0, 0.5), col(0.0, 0.0))
        for tag in ("muC", "mu2", "mu3"):
            assert fnorm(moment(tag, pt)) == 0.0

    def test_scalar_substitution(self, trunc11, s3_point):
        assert np.allclose(moment("muC", s3_point), [[-0.5]])
        assert np.allclose(moment("mu2", s3_point), [[0.0]])
        assert np.allclose(moment("mu3", s3_point), [[0.5j]])

    def test_skewness_and_recombination(self, rng):
        tr = Truncation(3, 2, 1.2)
        pt = ConfigPoint(tr, tr.base_x() + gaussian_complex(rng, (5, 3)),
                         gaussian_complex(rng, (5, 3)))
        for tag in ("mu1", "mu2", "mu3"):
            m = moment(tag, pt)
            assert fnorm(m + dagger(m)) <= 1e-12 * (1 + fnorm(m))
        muc = moment("muC", pt)
        rec = moment("mu2", pt) + 1j * moment("mu3", pt)
        assert fnorm(muc - rec) <= 1e-13 * (1 + fnorm(muc))

    def test_unknown_tag(self, trunc11):
        for tag in ("mu7", "mu4"):
            with pytest.raises(ValueError, match="unknown moment tag"):
                moment(tag, ConfigPoint.base(trunc11))


class TestLevelResidual:
    def test_base_point(self, trunc11):
        assert level_residual(ConfigPoint.base(trunc11)) == (0.0, 0.0)
        assert on_level_set(ConfigPoint.base(trunc11))

    def test_s2_residual(self, s2_point):
        rc, rr = level_residual(s2_point)
        assert rc == 0.0
        assert abs(rr - 1.0) < 1e-15  # x*x - X*X - k^2 = 2 - 1 - 2 = -1

    def test_after_projection(self, rng):
        tr = Truncation(3, 3, np.sqrt(2.0))
        for _ in range(5):
            pt = sample_stable1(tr, rng)
            res = project1(pt)
            rc, rr = level_residual(res.point)
            assert max(rc, rr) <= 1e-10 * tr.k2


class TestStability:
    def test_stable1_membership(self, s2_point, trunc11):
        assert in_stable1(s2_point)
        assert in_stable1(ConfigPoint.base(trunc11))
        zero_col = ConfigPoint(trunc11, col(0.0, 0.0), col(0.0, 1.0))
        assert not in_stable1(zero_col)

    def test_stable3_membership(self, s2_point, s3_point, trunc11):
        assert in_stable3(s3_point)
        assert in_stable3(ConfigPoint.base(trunc11))  # level set included
        assert not in_stable3(s2_point)  # x*x - X*X = 1 != 2


class TestPairingCheck:
    def test_vanishes_on_generated_vector(self, s3_point):
        a = np.array([[0.4j]])
        v = infinitesimal_action(1, a, s3_point)
        lhs, rhs = moment_pairing_check(s3_point, a, v, 1)
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_zero_element(self, s3_point, rng):
        v = random_tangent(s3_point.trunc, rng)
        lhs, rhs = moment_pairing_check(s3_point, np.zeros((1, 1)), v, 2)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_oracle_equality(self, j, rng):
        tr = Truncation(2, 2, np.sqrt(2.0))
        for _ in range(20):
            pt = ConfigPoint(tr, tr.base_x() + gaussian_complex(rng, (4, 2)),
                             gaussian_complex(rng, (4, 2)))
            a = random_skew(2, rng)
            v = random_tangent(tr, rng)
            lhs, rhs = moment_pairing_check(pt, a, v, j)
            assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    def test_rejects_non_skew(self, s3_point, rng):
        v = random_tangent(s3_point.trunc, rng)
        with pytest.raises(NotSkew):
            moment_pairing_check(s3_point, np.array([[1.0]]), v, 1)

    @pytest.mark.parametrize("j", [0, 4])
    def test_structure_index_outside_1_to_3_raises_bad_index(self, j, s3_point, rng):
        # the error apply_I and omega raise for the same index
        a = np.array([[0.4j]])
        with pytest.raises(BadIndex, match=f"must be 1, 2 or 3, got {j}"):
            infinitesimal_action(j, a, s3_point)
        v = random_tangent(s3_point.trunc, rng)
        with pytest.raises(BadIndex, match=f"must be 1, 2 or 3, got {j}"):
            moment_pairing_check(s3_point, a, v, j)


class TestEquivariance:
    def test_ad_equivariance(self, rng):
        tr = Truncation(3, 2, 1.4)
        pt = ConfigPoint(tr, tr.base_x() + gaussian_complex(rng, (5, 3)),
                         gaussian_complex(rng, (5, 3)))
        u = random_unitary(3, rng)
        for tag in ("mu1", "muC"):
            m0 = moment(tag, pt)
            m1 = moment(tag, act1(u, pt))
            assert fnorm(m1 - u @ m0 @ dagger(u)) <= 1e-10 * (1 + fnorm(m0))
