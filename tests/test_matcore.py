import math
import warnings

import numpy as np
import pytest

from hkq import matcore
from hkq.errors import DomainViolation, NotHermitian, ShapeMismatch
from hkq.hkspace import ConfigPoint, Truncation, act3
from hkq.matcore import (
    _eigh,
    as_matrix,
    dagger,
    fnorm,
    herm_eig,
    psd_sqrt,
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
            u = spec.eigenvectors
            assert fnorm((u * spec.eigenvalues) @ dagger(u) - m) <= 1e-12 * (1 + fnorm(m))
            assert fnorm(dagger(u) @ u - np.eye(p)) <= 1e-12
            assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            herm_eig(np.ones((2, 3)))


class TestSpectrumFun:
    def test_sqrt_diagonal(self):
        out = herm_eig(np.diag([4.0, 9.0])).fun(np.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_log_identity(self):
        out = herm_eig(np.eye(3)).fun(np.log)
        assert fnorm(out) <= 1e-14

    def test_sqrt_dense(self):
        # eigenbasis (1, 1)/sqrt2, (1, -1)/sqrt2 with eigenvalues 7 and 3
        m = np.array([[5.0, 2.0], [2.0, 5.0]])
        out = herm_eig(m).fun(np.sqrt)
        s7, s3 = np.sqrt(7.0), np.sqrt(3.0)
        want = np.array([[(s7 + s3) / 2, (s7 - s3) / 2],
                         [(s7 - s3) / 2, (s7 + s3) / 2]])
        assert np.allclose(out, want, atol=1e-13)

    @pytest.mark.parametrize("off", [0.8, 0.8j])
    def test_exp_of_a_two_by_two_closed_form(self, off):
        # m = [[0, c], [conj c, 0]] has m^2 = |c|^2 Id, so
        # exp(m) = cosh|c| Id + (sinh|c| / |c|) m
        m = np.array([[0.0, off], [np.conj(off), 0.0]])
        t = abs(off)
        want = np.cosh(t) * np.eye(2) + (np.sinh(t) / t) * m
        assert fnorm(herm_eig(m).fun(np.exp) - want) <= 1e-15 * fnorm(want)

    def test_identity_function_returns_input(self, rng):
        m = random_hermitian(rng, 4)
        assert fnorm(herm_eig(m).fun(lambda lam: lam) - m) <= 1e-12 * (1 + fnorm(m))

    def test_sqrt_square_round_trip(self, rng):
        g = gaussian_complex(rng, (4, 4))
        m = g @ dagger(g)  # PSD
        back = herm_eig(_eigh(m).fun(psd_sqrt)).fun(np.square)
        assert fnorm(back - m) <= 1e-10 * (1 + fnorm(m))

    def test_two_functions_of_one_spectrum(self, rng):
        m = random_hermitian(rng, 4)
        spec = herm_eig(m)
        c, s = spec.fun(np.cosh), spec.fun(np.sinh)
        ident = c @ c - s @ s  # cosh^2 - sinh^2 = 1
        assert fnorm(ident - np.eye(4)) <= 1e-12 * (1 + fnorm(c) ** 2)
        assert fnorm(c - dagger(c)) == 0.0

    def test_psd_sqrt_clips_round_off_only(self):
        assert np.array_equal(psd_sqrt(np.array([-1e-14, 4.0])), [0.0, 2.0])
        with pytest.raises(DomainViolation):
            psd_sqrt(np.array([-1e-3, 4.0]))

    def test_domain_violation_lists_offenders(self):
        with pytest.raises(DomainViolation) as err:
            psd_sqrt(np.array([1.0, -2.0]))
        assert np.array_equal(err.value.offending, [-2.0])


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
            # act3 takes h as a spectrum: a caller that holds the matrix
            # passes herm_eig(h), whose checks are the ones that apply
            "act3": lambda m: act3(herm_eig(m), np.eye(2), pt),
        }

    @pytest.mark.parametrize("name", ["herm_eig", "act3"])
    def test_rejects_a_non_hermitian_matrix(self, name):
        with pytest.raises(NotHermitian):
            self.entry_points()[name](self.NOT_HERMITIAN)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["herm_eig", "act3"])
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
