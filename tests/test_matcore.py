import math
import warnings

import numpy as np
import pytest

from hkq import matcore
from hkq.errors import (
    DomainViolation,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
)
from hkq.hkspace import ConfigPoint, Truncation, act3
from hkq.matcore import (
    _eigh,
    as_matrix,
    dagger,
    fnorm,
    herm_eig,
    herm_fun,
    psd_sqrt,
    skew_part,
    svd,
    sym_sylvester_solve,
)
from hkq.sampling import gaussian_complex, make_rng


def random_hermitian(rng, p):
    g = gaussian_complex(rng, (p, p))
    return 0.5 * (g + dagger(g))


class TestAsMatrix:
    @pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_rejects_non_finite_real_or_imaginary_part(self, entry):
        m = np.eye(2, dtype=complex)
        m[1, 0] = entry
        with pytest.raises(ShapeMismatch, match="non-finite"):
            as_matrix(m)
        x = np.zeros((2, 1), dtype=complex)
        x[0, 0] = entry
        with pytest.raises(ShapeMismatch, match="non-finite"):
            ConfigPoint(Truncation(1, 1, 1.0), x, np.zeros((2, 1)))


class TestHermEig:
    def test_already_diagonal(self):
        spec = herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0])
        assert np.allclose(np.abs(spec.eigenvectors), [[0, 1], [1, 0]])

    def test_swap_matrix(self):
        spec = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_complex_two_by_two(self):
        # characteristic polynomial (2 - t)^2 - 1 = 0
        m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        spec = herm_eig(m)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        for p in (1, 2, 5):
            m = random_hermitian(rng, p)
            spec = herm_eig(m)
            assert fnorm(spec.reconstruct() - m) <= 1e-12 * (1 + fnorm(m))
            u = spec.eigenvectors
            assert fnorm(dagger(u) @ u - np.eye(p)) <= 1e-12
            assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            herm_eig(np.ones((2, 3)))


class TestHermFun:
    def test_sqrt_diagonal(self):
        out = herm_fun(np.diag([4.0, 9.0]), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_log_identity(self):
        out = herm_fun(np.eye(3), np.log, domain_check=lambda lam: lam > 0)
        assert fnorm(out) <= 1e-14

    def test_sqrt_dense(self):
        # eigenbasis (1, 1)/sqrt2, (1, -1)/sqrt2 with eigenvalues 7 and 3
        m = np.array([[5.0, 2.0], [2.0, 5.0]])
        out = herm_fun(m, np.sqrt)
        s7, s3 = np.sqrt(7.0), np.sqrt(3.0)
        want = np.array([[(s7 + s3) / 2, (s7 - s3) / 2],
                         [(s7 - s3) / 2, (s7 + s3) / 2]])
        assert np.allclose(out, want, atol=1e-13)

    def test_identity_function_returns_input(self, rng):
        m = random_hermitian(rng, 4)
        assert fnorm(herm_fun(m, lambda lam: lam) - m) <= 1e-12 * (1 + fnorm(m))

    def test_domain_violation_lists_offenders(self):
        with pytest.raises(DomainViolation) as err:
            herm_fun(np.diag([1.0, -2.0]), np.log, domain_check=lambda lam: lam > 0)
        assert err.value.offending is not None

    def test_sqrt_square_round_trip(self, rng):
        g = gaussian_complex(rng, (4, 4))
        m = g @ dagger(g)  # PSD
        back = herm_fun(_eigh(m).fun(psd_sqrt), np.square)
        assert fnorm(back - m) <= 1e-10 * (1 + fnorm(m))


class TestSpectrumFun:
    def test_matches_herm_fun(self, rng):
        m = random_hermitian(rng, 5)
        spec = herm_eig(m)
        assert np.array_equal(spec.fun(np.cosh), herm_fun(m, np.cosh))
        assert np.array_equal(spec.fun(np.sinh), herm_fun(m, np.sinh))

    def test_two_functions_of_one_spectrum(self, rng):
        m = random_hermitian(rng, 4)
        spec = herm_eig(m)
        c, s = spec.fun(np.cosh), spec.fun(np.sinh)
        ident = c @ c - s @ s  # cosh^2 - sinh^2 = 1
        assert fnorm(ident - np.eye(4)) <= 1e-12 * (1 + fnorm(c) ** 2)
        assert fnorm(c - dagger(c)) == 0.0

    def test_domain_check(self):
        spec = herm_eig(np.diag([1.0, -2.0]))
        with pytest.raises(DomainViolation) as err:
            spec.fun(np.log, domain_check=lambda lam: lam > 0)
        assert np.array_equal(err.value.offending, [-2.0])

    def test_psd_sqrt_clips_round_off_only(self):
        assert np.array_equal(psd_sqrt(np.array([-1e-14, 4.0])), [0.0, 2.0])
        with pytest.raises(DomainViolation):
            psd_sqrt(np.array([-1e-3, 4.0]))


class TestSvd:
    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((3, 2)))
        assert np.all(s == 0)

    def test_sign_absorbed(self):
        _, s, _ = svd(np.diag([2.0, -3.0]))
        assert np.allclose(s, [3.0, 2.0])

    def test_pythagoras(self):
        _, s, _ = svd(np.array([[3.0], [4.0]]))
        assert np.allclose(s, [5.0])

    def test_reconstruction(self, rng):
        m = gaussian_complex(rng, (5, 3))
        u, s, w = svd(m)
        assert fnorm(m - (u * s) @ dagger(w)) <= 1e-11 * (1 + fnorm(m))
        assert fnorm(dagger(u) @ u - np.eye(3)) <= 1e-12
        assert fnorm(dagger(w) @ w - np.eye(3)) <= 1e-12


def _phases_by_column(frame):
    """The gauge fixing column by column: the reference for the vectorized
    `_fix_column_phases`."""
    out = frame.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if np.abs(pivot) > 0.0:
            out[:, j] = col * (np.abs(pivot) / pivot)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFixColumnPhases:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (5, 2), (8, 8),
                                       (64, 17), (128, 64)])
    def test_matches_the_column_loop_bit_for_bit(self, rng, shape):
        for _ in range(5):
            f = gaussian_complex(rng, shape)
            assert _same_bits(matcore._fix_column_phases(f), _phases_by_column(f))

    @pytest.mark.parametrize("layout", ["column_major", "reversed_columns", "slice"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (7, 4)])
    def test_matches_the_column_loop_in_any_layout(self, rng, shape, layout):
        for _ in range(5):
            f = gaussian_complex(rng, (shape[0], shape[1] + 1))
            f = {"column_major": np.asfortranarray(f[:, 1:]),
                 "reversed_columns": f[:, :0:-1],
                 "slice": f[:, 1:]}[layout]
            assert _same_bits(matcore._fix_column_phases(f), _phases_by_column(f))

    def test_zero_columns_are_left_alone(self, rng):
        f = gaussian_complex(rng, (6, 4))
        f[:, 1] = 0.0
        f[:, 3] = complex(-0.0, -0.0)  # signed zeros survive too
        out = matcore._fix_column_phases(f)
        assert _same_bits(out, _phases_by_column(f))
        assert _same_bits(out[:, 3], f[:, 3])

    def test_ties_take_the_first_maximum(self):
        f = np.array([[1j, 2.0], [-1.0, -2.0], [0.5, 2j]])
        out = matcore._fix_column_phases(f)
        assert _same_bits(out, _phases_by_column(f))
        np.testing.assert_array_equal(out[:, 0], [1.0, 1j, -0.5j])
        np.testing.assert_array_equal(out[:, 1], [2.0, -2.0, 2j])

    @pytest.mark.parametrize("shape", [(4, 0), (0, 0), (0, 3)])
    def test_empty_frames(self, shape):
        f = np.zeros(shape, dtype=complex)
        assert _same_bits(matcore._fix_column_phases(f), f)


class TestSylvester:
    def test_identity_coefficient(self, rng):
        s = skew_part(gaussian_complex(rng, (3, 3)))
        a = sym_sylvester_solve(np.eye(3), s)
        assert fnorm(a - s) <= 1e-12

    def test_two_by_two_closed_form(self):
        s_val = 0.7 - 0.2j
        s = np.array([[0.0, s_val], [-np.conj(s_val), 0.0]])
        a = sym_sylvester_solve(np.diag([1.0, 3.0]), s)
        want = np.array([[0.0, s_val / 2], [-np.conj(s_val) / 2, 0.0]])
        assert fnorm(a - want) <= 1e-12

    def test_zero_rhs(self):
        a = sym_sylvester_solve(np.diag([2.0, 5.0]), np.zeros((2, 2)))
        assert fnorm(a) == 0.0

    def test_residual_and_skewness(self, rng):
        g = gaussian_complex(rng, (4, 4))
        m = g @ dagger(g) + 0.5 * np.eye(4)
        s = skew_part(gaussian_complex(rng, (4, 4)))
        a = sym_sylvester_solve(m, s)
        assert fnorm(a + dagger(a)) <= 1e-12
        assert fnorm(0.5 * (m @ a + a @ m) - s) <= 1e-10 * (1 + fnorm(s))

    def test_uniqueness_under_restored_rhs(self, rng):
        g = gaussian_complex(rng, (3, 3))
        m = g @ dagger(g) + np.eye(3)
        s = skew_part(gaussian_complex(rng, (3, 3)))
        a1 = sym_sylvester_solve(m, s)
        perturbed = s + 1e-3 * skew_part(gaussian_complex(rng, (3, 3)))
        _ = sym_sylvester_solve(m, perturbed)
        a2 = sym_sylvester_solve(m, s.copy())
        assert fnorm(a1 - a2) <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sym_sylvester_solve(np.diag([1.0, -1.0]), np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1e-20, 1e-14, 1.0, 1e14])
    def test_positive_definiteness_is_scale_invariant(self, scale, rng):
        s = skew_part(gaussian_complex(rng, (3, 3)))
        a = sym_sylvester_solve(scale * np.eye(3), scale * s)
        assert fnorm(a - s) <= 1e-12 * fnorm(s)
        with pytest.raises(NotPositiveDefinite):  # lam_min / lam_max = 1e-13
            sym_sylvester_solve(scale * np.diag([1.0, 1e-13]), np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sym_sylvester_solve(np.eye(2), np.zeros((3, 3)))

    def test_stacked_rhs_and_given_spectrum(self, rng):
        g = gaussian_complex(rng, (4, 4))
        m = g @ dagger(g) + np.eye(4)
        stack = skew_part(gaussian_complex(rng, (3, 4, 4)))
        spec = herm_eig(m)
        for solved in (sym_sylvester_solve(m, stack), sym_sylvester_solve(spec, stack)):
            assert solved.shape == (3, 4, 4)
            for a, s in zip(solved, stack):
                assert fnorm(a - sym_sylvester_solve(m, s)) <= 1e-14 * (1 + fnorm(a))
        assert fnorm(sym_sylvester_solve(spec, stack[0])
                     - sym_sylvester_solve(m, stack[0])) == 0.0

    def test_rejects_bad_stacks(self):
        spec = herm_eig(np.eye(2))
        with pytest.raises(ShapeMismatch):
            sym_sylvester_solve(spec, np.zeros((3, 3, 3)))
        with pytest.raises(ShapeMismatch):
            sym_sylvester_solve(spec, np.zeros(2))
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 1] = np.nan
        with pytest.raises(ShapeMismatch):
            sym_sylvester_solve(spec, bad)
        with pytest.raises(NotPositiveDefinite):
            sym_sylvester_solve(herm_eig(np.diag([1.0, -1.0])), np.zeros((2, 2, 2)))


class TestFnorm:
    """fnorm runs the flat path of np.linalg.norm without its argument
    handling, so the two agree bit for bit wherever the sum of squares is a
    finite normal float.  Outside that range fnorm rescales, and stays
    finite and accurate where np.linalg.norm reads inf or 0."""

    @pytest.mark.parametrize("make", [
        lambda g: g,                                    # complex
        lambda g: g.real.copy(),                        # real
        lambda g: np.arange(12).reshape(3, 4) - 5,      # integer
        lambda g: [[1, 2j, -3.5], [0.25, 4, 1e-3j]],    # nested list
        lambda g: g.T,                                  # transposed
        lambda g: g[::2, 1:],                           # strided slice
        lambda g: g.real.T[1:, ::3],                    # real, strided
        lambda g: g[:, 0],                              # 1-d
        lambda g: g[:0],                                # empty 2-d
        lambda g: np.zeros(0),                          # empty 1-d
        lambda g: 1e150 * g,                            # squares near the top
        lambda g: 1e-150 * g,                           # squares near the bottom
    ])
    def test_matches_numpy_norm_bit_for_bit(self, make, rng):
        m = make(gaussian_complex(rng, (7, 5)))
        expected = float(np.linalg.norm(m))
        got = fnorm(m)
        assert type(got) is float
        assert got == expected

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_stays_finite_and_accurate_far_from_one(self, scale, dtype, rng):
        # the plain sum of squares overflows to inf or underflows to 0 here
        g = gaussian_complex(rng, (7, 5))
        g = g if dtype is complex else g.real.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fnorm(scale * g)
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(scale * fnorm(g), rel=4e-15)

    def test_entries_at_1e_minus_200(self):
        assert fnorm(np.full((3, 2), 1e-200 + 0j)) == pytest.approx(math.sqrt(6) * 1e-200, rel=1e-15)

    def test_zero_inf_and_nan(self):
        assert fnorm(np.zeros((2, 3))) == 0.0
        assert fnorm(np.array([[np.inf, 1.0]])) == math.inf
        assert math.isnan(fnorm(np.array([[np.nan, 1.0]])))


class TestPublicPreChecks:
    """The public entry points check the matrices they are given: a
    non-Hermitian one raises NotHermitian and a non-finite one
    ShapeMismatch.  Only operands the library builds Hermitian skip the
    Hermitian test, through the private factorization helper."""

    NOT_HERMITIAN = np.array([[1.0, 2.0], [0.0, 1.0]])

    @staticmethod
    def entry_points():
        pt = ConfigPoint.base(Truncation(2, 1, np.sqrt(2.0)))
        return {
            "herm_eig": herm_eig,
            "herm_fun": lambda m: herm_fun(m, np.exp),
            "sym_sylvester_solve": lambda m: sym_sylvester_solve(m, np.zeros((2, 2))),
            # act3 takes h as a spectrum: a caller that holds the matrix
            # passes herm_eig(h), whose checks are the ones that apply
            "act3": lambda m: act3(herm_eig(m), None, pt),
        }

    @pytest.mark.parametrize("name", ["herm_eig", "herm_fun", "sym_sylvester_solve", "act3"])
    def test_rejects_a_non_hermitian_matrix(self, name):
        with pytest.raises(NotHermitian):
            self.entry_points()[name](self.NOT_HERMITIAN)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["herm_eig", "herm_fun", "sym_sylvester_solve", "act3"])
    def test_rejects_a_non_finite_matrix(self, name, entry):
        m = np.eye(2, dtype=complex)
        m[0, 1] = m[1, 0] = entry
        with pytest.raises(ShapeMismatch, match="non-finite"):
            self.entry_points()[name](m)

    def test_private_helper_keeps_the_finite_check(self):
        m = np.eye(2, dtype=complex)
        m[1, 1] = np.inf
        with pytest.raises(ShapeMismatch, match="non-finite"):
            matcore._eigh(m)
        a = random_hermitian(make_rng(3), 4)
        spec, ref = matcore._eigh(a), herm_eig(a)
        assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
        assert np.array_equal(spec.eigenvectors, ref.eigenvectors)
