"""A 40-digit witness for the level projections, independent of hkq's code.

project1_group_part evaluates project1's positive group element by the
general formula that the level-section form replaced,

    g^-2 = |x|^-1 gamma gamma* |x|^-1,
    gamma gamma* = (k^2/2) (Id + (Id + (4/k^4) |x| X*X |x|)^{1/2}),

and level_residual the level-set residuals of a point, both in mpmath at
`dps` significant digits on the exact values of the point's doubles.
Every matrix function is taken on mpmath's Hermitian eigendecomposition
(mp.eighe), so nothing here shares a factorization, a formula or a
rounding with hkq.  Test-only: mpmath is a dependency of the test extra,
not of hkq.
"""

from __future__ import annotations

import mpmath
import numpy as np

mp = mpmath.mp


def _mat(a: np.ndarray) -> mpmath.matrix:
    """The exact values of a complex double array, as an mpmath matrix."""
    m = mp.matrix(*a.shape)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            m[i, j] = mp.mpc(float(a[i, j].real), float(a[i, j].imag))
    return m


def _herm_fun(a: mpmath.matrix, f) -> mpmath.matrix:
    """f of the Hermitian part of a, on its eigendecomposition."""
    lam, q = mp.eighe((a + a.H) / 2)
    return q * mp.diag([f(v) for v in lam]) * q.H


def _frobenius(a: mpmath.matrix) -> mpmath.mpf:
    return mp.sqrt(mp.fsum(abs(v) ** 2 for v in a))


def project1_group_part(pt, dps: int = 40) -> np.ndarray:
    """project1's group part g = (|x|^-1 gamma gamma* |x|^-1)^{-1/2} at pt,
    rounded to doubles."""
    with mp.workdps(dps):
        x, X, k2 = _mat(pt.x), _mat(pt.X), mp.mpf(float(pt.trunc.k)) ** 2
        eye = mp.eye(pt.trunc.p)
        xx = x.H * x
        abs_x = _herm_fun(xx, mp.sqrt)
        inv_abs_x = _herm_fun(xx, lambda v: 1 / mp.sqrt(v))
        fiber = (4 / k2 ** 2) * (abs_x * X.H * X * abs_x)
        gamma2 = (k2 / 2) * (eye + _herm_fun(eye + fiber, mp.sqrt))
        g = _herm_fun(inv_abs_x * gamma2 * inv_abs_x, lambda v: 1 / mp.sqrt(v))
        return np.array(g.tolist(), dtype=np.complex128)


def level_residual(pt, dps: int = 40) -> tuple[float, float]:
    """(||X*x||_F, ||x*x - X*X - k^2 Id||_F) of the point's exact values."""
    with mp.workdps(dps):
        x, X, k2 = _mat(pt.x), _mat(pt.X), mp.mpf(float(pt.trunc.k)) ** 2
        eq = x.H * x - X.H * X - k2 * mp.eye(pt.trunc.p)
        return float(_frobenius(X.H * x)), float(_frobenius(eq))
