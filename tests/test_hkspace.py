import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkq.errors import BadIndex, NotHermitian, NotUnitary, ShapeMismatch, Singular
from hkq.grassmann import psi3_section
from hkq.hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    _point,
    act1,
    act3,
    apply_I,
    flat_potential_K,
    metric_g,
    omega,
    omega_C,
)
from hkq.matcore import dagger, fnorm, herm_eig
from hkq.sampling import (
    gaussian_complex,
    make_rng,
    random_tangent,
    random_unitary,
    sample_orbit_pair,
)


def col(*vals):
    return np.array([[v] for v in vals], dtype=complex)


class TestTruncation:
    def test_integrality_flag(self):
        assert Truncation(1, 1, np.sqrt(2.0)).integrality_ok
        assert Truncation(2, 3, 2.0).integrality_ok          # k^2/2 = 2
        assert not Truncation(1, 1, 1.0).integrality_ok      # k^2/2 = 1/2
        assert not Truncation(1, 1, np.sqrt(3.0)).integrality_ok

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Truncation(0, 1, 1.0)
        with pytest.raises(ValueError):
            Truncation(1, 1, 0.0)

    # bool is an int subclass: True would otherwise read as a dimension of 1
    @pytest.mark.parametrize("p,q,name", [(2.0, 3, "p"), (2.5, 3, "p"), (True, True, "p"),
                                          (1, np.bool_(True), "q")])
    def test_rejects_a_dimension_that_is_not_an_integer(self, p, q, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Truncation(p, q, 1.0)

    def test_accepts_numpy_integer_dimensions_as_ints(self):
        trunc = Truncation(np.int64(2), np.int32(3), 1.0)
        assert (trunc.p, trunc.q) == (2, 3)
        assert type(trunc.p) is int and type(trunc.q) is int
        assert trunc == Truncation(2, 3, 1.0)

    @pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(ValueError, match="finite"):
            Truncation(1, 1, k)

    @pytest.mark.parametrize("k", [1e-170, 1e-100, -1e-78, 1.2e-77, 1.2e77, -1e100])
    def test_rejects_k_whose_fourth_power_is_not_normal(self, k):
        # the fiber operand divides by k^4: an underflowing or overflowing
        # k^4 is refused here, not met as a ZeroDivisionError downstream
        with pytest.raises(ValueError, match=r"k\^4 must be normal"):
            Truncation(1, 1, k)

    @pytest.mark.parametrize("k", [1.3e-77, -1e-70, 1.15e77])
    def test_accepts_k_whose_fourth_power_is_normal(self, k):
        trunc = Truncation(1, 1, k)
        assert np.finfo(np.float64).tiny <= trunc.k2 * trunc.k2 < np.inf

    def test_config_point_shape_check(self, trunc11):
        with pytest.raises(ShapeMismatch):
            ConfigPoint(trunc11, np.zeros((3, 1)), np.zeros((2, 1)))


# hypothesis strategy: small tangent pairs with bounded float entries
def tangent_pairs(max_dim=3):
    def build(p, q, zr, zi, tr, ti):
        n = p + q
        shape = (n, p)
        need = n * p
        z = (np.array(zr[:need]) + 1j * np.array(zi[:need])).reshape(shape)
        t = (np.array(tr[:need]) + 1j * np.array(ti[:need])).reshape(shape)
        return TangentPair(z, t)

    dim = st.integers(1, max_dim)
    floats = st.lists(st.floats(-8, 8), min_size=36, max_size=36)
    return st.builds(build, dim, dim, floats, floats, floats, floats)


class TestComplexStructures:
    @given(tangent_pairs())
    @settings(max_examples=60, deadline=None)
    def test_quaternion_relations_exact(self, v):
        for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            got = apply_I(a, apply_I(b, v))
            want = apply_I(c, v)
            assert np.array_equal(got.Z, want.Z)
            assert np.array_equal(got.T, want.T)
        for j in (1, 2, 3):
            twice = apply_I(j, apply_I(j, v))
            assert np.array_equal(twice.Z, -v.Z)
            assert np.array_equal(twice.T, -v.T)

    def test_displayed_formulas(self):
        v = TangentPair(col(1.0, 2.0j), col(3.0, -1.0j))
        i1 = apply_I(1, v)
        assert np.array_equal(i1.Z, 1j * v.Z) and np.array_equal(i1.T, -1j * v.T)
        i2 = apply_I(2, v)
        assert np.array_equal(i2.Z, v.T) and np.array_equal(i2.T, -v.Z)
        i3 = apply_I(3, v)
        assert np.array_equal(i3.Z, 1j * v.T) and np.array_equal(i3.T, 1j * v.Z)

    def test_bad_index(self):
        v = TangentPair(col(1.0), col(0.0))
        with pytest.raises(BadIndex):
            apply_I(4, v)


class TestMetricAndForms:
    def test_unit_vector(self, trunc11):
        e = np.zeros((2, 1), dtype=complex)
        e[0, 0] = 1.0
        v = TangentPair(e, np.zeros_like(e))
        assert metric_g(v, v) == 1.0

    def test_i1_isometry(self):
        v = TangentPair(col(1.0, -2.0j), col(0.5j, 1.0))
        assert abs(metric_g(apply_I(1, v), apply_I(1, v)) - metric_g(v, v)) < 1e-15

    def test_real_imaginary_orthogonality(self):
        v1 = TangentPair(col(1.0, 0.0), col(0.0, 0.0))
        v2 = TangentPair(col(1.0j, 0.0), col(0.0, 0.0))
        assert metric_g(v1, v2) == 0.0

    @given(tangent_pairs())
    @settings(max_examples=60, deadline=None)
    def test_compatibility_and_antisymmetry(self, v):
        w = TangentPair(v.T, v.Z)  # a second, correlated vector
        for j in (1, 2, 3):
            assert abs(omega(j, v, v)) <= 1e-12 * (1 + metric_g(v, v))
            lhs = omega(j, v, w)
            rhs = metric_g(apply_I(j, v), w)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_omega1_example(self):
        v1 = TangentPair(col(1.0, 0.0), col(0.0, 0.0))
        v2 = TangentPair(col(1.0j, 0.0), col(0.0, 0.0))
        assert abs(omega(1, v1, v2) - 1.0) < 1e-15

    def test_omega2_example(self):
        v1 = TangentPair(col(1.0, 0.0), col(0.0, 0.0))
        v2 = TangentPair(col(0.0, 0.0), col(1.0, 0.0))
        assert abs(omega(2, v1, v2) - (-1.0)) < 1e-15

    def test_omega_C_substitutions(self, rng):
        z = gaussian_complex(rng, (3, 2))
        t = gaussian_complex(rng, (3, 2))
        zero = np.zeros_like(z)
        val = omega_C(TangentPair(z, zero), TangentPair(zero, t))
        assert abs(val - (-np.trace(dagger(t) @ z))) <= 1e-12
        val2 = omega_C(TangentPair(zero, t), TangentPair(z, zero))
        assert abs(val2 - np.trace(dagger(t) @ z)) <= 1e-12
        v = TangentPair(z, t)
        assert abs(omega_C(v, v)) <= 1e-12
        w = random_tangent(Truncation(2, 1, 1.0), rng)
        assert abs(omega_C(apply_I(1, v), w) - 1j * omega_C(v, w)) <= 1e-12

    def test_omega_matches_omega_C(self, rng):
        tr = Truncation(2, 2, 1.0)
        v1, v2 = random_tangent(tr, rng), random_tangent(tr, rng)
        om = omega_C(v1, v2)
        assert abs(om.real - omega(2, v1, v2)) <= 1e-12
        assert abs(om.imag - omega(3, v1, v2)) <= 1e-12


class TestAct1:
    def test_rejects_singular(self, s2_point):
        with pytest.raises(Singular):
            act1(np.zeros((1, 1)), s2_point)
        for wrong in (np.ones((1, 2)), np.eye(2)):
            with pytest.raises(ShapeMismatch):
                act1(wrong, s2_point)

    def test_identity(self, s2_point):
        out = act1(np.eye(1), s2_point)
        assert np.array_equal(out.x, s2_point.x)
        assert np.array_equal(out.X, s2_point.X)

    def test_scalar_two(self, s2_point):
        out = act1(np.array([[2.0]]), s2_point)
        assert np.allclose(out.x, s2_point.x / 2)
        assert np.allclose(out.X, 2 * s2_point.X)

    def test_scalar_unitary_i(self, s2_point):
        out = act1(np.array([[1.0j]]), s2_point)
        assert np.allclose(out.x, -1j * s2_point.x)
        assert np.allclose(out.X, -1j * s2_point.X)

    def test_composition(self, rng):
        tr = Truncation(3, 2, 1.5)
        pt = ConfigPoint(tr, gaussian_complex(rng, (5, 3)) + tr.base_x(),
                         gaussian_complex(rng, (5, 3)))
        g = np.eye(3) + 0.3 * gaussian_complex(rng, (3, 3))
        h = np.eye(3) + 0.3 * gaussian_complex(rng, (3, 3))
        lhs = act1(g @ h, pt)
        rhs = act1(g, act1(h, pt))
        assert fnorm(lhs.x - rhs.x) <= 1e-10 * (1 + fnorm(rhs.x))
        assert fnorm(lhs.X - rhs.X) <= 1e-10 * (1 + fnorm(rhs.X))


class TestAct3:
    def test_identity(self, s3_point):
        out = act3(herm_eig(np.zeros((1, 1))), np.eye(1), s3_point)
        assert np.array_equal(out.x, s3_point.x)
        assert np.array_equal(out.X, s3_point.X)

    def test_scalar_boost(self, s2_point):
        t = 0.37
        out = act3(herm_eig(np.array([[t]])), np.eye(1), s2_point)
        c, s = np.cosh(t), np.sinh(t)
        assert np.allclose(out.x, s2_point.x * c - s2_point.X * s)
        assert np.allclose(out.X, -s2_point.x * s + s2_point.X * c)

    def test_inverse_composition(self, s3_point):
        h = np.array([[0.8]])
        ident = np.eye(1)
        back = act3(herm_eig(-h), ident, act3(herm_eig(h), ident, s3_point))
        assert fnorm(back.x - s3_point.x) <= 1e-11
        assert fnorm(back.X - s3_point.X) <= 1e-11

    def test_spectrum_and_no_unitary_part(self, rng):
        tr = Truncation(3, 2, 1.3)
        pt = ConfigPoint(tr, gaussian_complex(rng, (5, 3)), gaussian_complex(rng, (5, 3)))
        g = gaussian_complex(rng, (3, 3))
        h = 0.5 * (g + dagger(g))
        want = act3(herm_eig(h), np.eye(3), pt)
        got = act3(herm_eig(h), None, pt)
        assert fnorm(got.x - want.x) + fnorm(got.X - want.X) <= 1e-14 * fnorm(pt.x)
        zero = act3(herm_eig(np.zeros((3, 3))), None, pt)
        assert np.array_equal(zero.x, pt.x) and np.array_equal(zero.X, pt.X)
        with pytest.raises(ShapeMismatch):
            act3(herm_eig(np.eye(2)), None, pt)

    def test_requires_hermitian_and_unitary(self, s3_point, rng):
        with pytest.raises(NotHermitian):
            act3(herm_eig(np.array([[1.0j]])), np.eye(1), s3_point)
        zero = herm_eig(np.zeros((1, 1)))
        with pytest.raises(NotUnitary):
            act3(zero, np.array([[2.0]]), s3_point)
        with pytest.raises(ShapeMismatch):
            act3(zero, np.eye(2), s3_point)


class TestFlatReductions:
    """metric_g and flat_potential_K sum Re a . Re b + Im a . Im b as real
    dot products; the np.sum forms they replaced are kept here as the
    oracle and agree to 4 eps of the sum of the magnitudes of the terms."""

    EPS = np.finfo(float).eps

    @staticmethod
    def old_metric(v1, v2):
        return float(np.sum(v1.Z.conj() * v2.Z).real + np.sum(v1.T.conj() * v2.T).real)

    @staticmethod
    def old_flat(pt):
        tr = pt.trunc
        return float(0.25 * (np.sum(np.abs(pt.x) ** 2) + np.sum(np.abs(pt.X) ** 2)
                             - tr.k2 * tr.p))

    @pytest.mark.parametrize("seed", range(6))
    def test_match_the_np_sum_forms(self, seed):
        rng = make_rng(seed)
        for _ in range(40):
            tr = Truncation(int(rng.integers(1, 17)), int(rng.integers(1, 17)),
                            float(rng.choice([0.05, np.sqrt(2.0), 30.0])))
            v1 = float(10.0 ** rng.uniform(-3, 3)) * random_tangent(tr, rng)
            v2 = random_tangent(tr, rng)
            terms = sum(float(np.sum(np.abs(a.real * b.real) + np.abs(a.imag * b.imag)))
                        for a, b in ((v1.Z, v2.Z), (v1.T, v2.T)))
            assert abs(metric_g(v1, v2) - self.old_metric(v1, v2)) <= 4 * self.EPS * terms
            pt = ConfigPoint(tr, v1.Z, v2.T)
            terms = 0.25 * (fnorm(pt.x) ** 2 + fnorm(pt.X) ** 2 + tr.k2 * tr.p)
            assert abs(flat_potential_K(pt) - self.old_flat(pt)) <= 4 * self.EPS * terms

    def test_any_layout(self, rng):
        z = gaussian_complex(rng, (6, 4))
        zt = np.asfortranarray(z)
        v, w = TangentPair(z, z[::-1].copy()), TangentPair(zt, zt[::-1])
        assert metric_g(v, v) == metric_g(w, w)
        assert metric_g(v, w) == metric_g(w, v)

    def test_complex_structures_are_exact_isometries(self, rng):
        tr = Truncation(4, 3, 1.5)
        v1, v2 = random_tangent(tr, rng), random_tangent(tr, rng)
        for j in (1, 2, 3):
            assert metric_g(apply_I(j, v1), apply_I(j, v2)) == metric_g(v1, v2)

    def test_unchecked_results_equal_checked_ones(self, rng):
        tr = Truncation(3, 2, 1.5)
        v, w = random_tangent(tr, rng), random_tangent(tr, rng)
        for out, (Z, T) in [(-v, (-v.Z, -v.T)), (apply_I(1, v), (1j * v.Z, -1j * v.T)),
                            (apply_I(2, v), (v.T, -v.Z)), (apply_I(3, v), (1j * v.T, 1j * v.Z)),
                            (v + w, (v.Z + w.Z, v.T + w.T)), (v - w, (v.Z - w.Z, v.T - w.T)),
                            (2 * v, (2 * v.Z, 2 * v.T)), (v * 0.5j, (0.5j * v.Z, 0.5j * v.T))]:
            want = TangentPair(Z, T)
            assert type(out) is TangentPair
            assert np.array_equal(out.Z, want.Z) and np.array_equal(out.T, want.T)
            assert out.Z.dtype == out.T.dtype == np.complex128


class TestTangentArithmetic:
    def test_mismatched_shapes_are_refused(self):
        # numpy would broadcast (3, 1) against (3, 2); metric_g refuses the
        # same pair, and so must the arithmetic
        narrow = TangentPair(np.ones((3, 1)), np.ones((3, 1)))
        wide = TangentPair(np.ones((3, 2)), np.ones((3, 2)))
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            for a, b in ((narrow, wide), (wide, narrow)):
                with pytest.raises(ShapeMismatch):
                    op(a, b)
        with pytest.raises(ShapeMismatch):
            narrow * np.ones((3, 1))  # an array is not a scalar

    def test_overflow_is_refused(self):
        v = TangentPair(col(1e10, 1.0), col(0.0, 1.0))
        with np.errstate(over="ignore"):
            with pytest.raises(ShapeMismatch):
                1e308 * v
            big = 1e308 * TangentPair(col(1.0), col(1.0))
            with pytest.raises(ShapeMismatch):
                big + big


class TestFlatPotential:
    def test_base_point(self, trunc11):
        assert flat_potential_K(ConfigPoint.base(trunc11)) == 0.0

    def test_scalar_value(self, s2_point):
        assert abs(flat_potential_K(s2_point) - 0.25) < 1e-15

    def test_unitary_invariance(self, rng):
        tr = Truncation(3, 2, 1.3)
        pt = ConfigPoint(tr, tr.base_x() + gaussian_complex(rng, (5, 3)),
                         gaussian_complex(rng, (5, 3)))
        u = random_unitary(3, rng)
        assert abs(flat_potential_K(act1(u, pt)) - flat_potential_K(pt)) <= 1e-12 * (
            1 + abs(flat_potential_K(pt)))


class TestTrustedPoints:
    """act1, act3 and psi3_section build their points without the checked
    constructor: no coercion, one finiteness scan.  The points equal the
    checked ones, and overflow is still refused."""

    def test_equal_the_checked_construction(self, rng):
        tr = Truncation(3, 2, 1.5)
        pt = ConfigPoint(tr, tr.base_x() + gaussian_complex(rng, (5, 3)),
                         gaussian_complex(rng, (5, 3)))
        g = gaussian_complex(rng, (3, 3))
        h = herm_eig(0.5 * (g + dagger(g)))
        outs = [act1(np.eye(3) + 0.3 * g, pt), act3(h, None, pt),
                act3(herm_eig(np.zeros((3, 3))), random_unitary(3, rng), pt),
                psi3_section(sample_orbit_pair(tr, rng), tr.k)]
        for out in outs:
            want = ConfigPoint(out.trunc, out.x, out.X)
            assert type(out) is ConfigPoint and out.trunc == tr
            assert out.x.dtype == out.X.dtype == np.complex128
            assert np.array_equal(out.x, want.x) and np.array_equal(out.X, want.X)

    def test_act1_overflow_is_refused(self):
        tr = Truncation(2, 1, 1.0)
        pt = ConfigPoint(tr, 1e10 * np.ones((3, 2)), np.zeros((3, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ShapeMismatch, match="non-finite"):
                act1(1e-300 * np.eye(2), pt)

    def test_act3_overflow_is_refused(self, s3_point):
        h = herm_eig(np.array([[800.0]]))  # cosh(800) overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ShapeMismatch, match="non-finite"):
                act3(h, None, s3_point)
            with pytest.raises(ShapeMismatch, match="non-finite"):
                act3(h, np.eye(1), s3_point)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_the_scan_refuses_non_finite_entries(self, trunc11, bad):
        x = np.array([[1.0], [0.0]], dtype=complex)
        for slot in (0, 1):
            pair = [x.copy(), np.zeros_like(x)]
            pair[slot][1, 0] = bad
            with pytest.raises(ShapeMismatch, match="non-finite"):
                _point(trunc11, *pair)
