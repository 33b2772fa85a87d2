"""Tolerance defaults.

Membership checks (level set, stable sets, transversality) use a relative
tolerance that scales with k^2 because the defining constraints are
homogeneous of degree 2 in (x, X); the bound itself is written once, in
moment._within_tol.  The default lives in the signatures
(`tol: float = DEFAULT_MEMBERSHIP_TOL`); the CLI validates --tol (a float
in (0, 1): at 1 or more no point is stable) where it parses it.
"""

from __future__ import annotations

DEFAULT_MEMBERSHIP_TOL = 1e-9

# Hermitian / unitary / structural pre-checks (relative, dimensionless).
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10

# Positive definiteness, quotient._check_positive_definite's rule:
# lam_min > PD_TOL * lam_max, applied to the spectrum of M = x*x + X*X of
# every quotient.SliceBasis.
PD_TOL = 1e-12

# Orthonormality of a d-column frame: ||F*F - Id||_F <= FRAME_TOL (1 + d).
# grassmann.Subspace refuses a frame beyond it, and so jsonio refuses a
# file whose frame lies beyond it; a frame within it is taken as is.
FRAME_TOL = 1e-9

