"""Finite-truncation toolkit for the hyperkahler quotient geometry of the
restricted Grassmannian.

The flat space of configuration pairs (x, X) carries three Kahler structures
and a tri-Hamiltonian unitary action; this package computes the moment maps,
the level-set projections along the complexified actions, the
identifications of the quotient with cotangent data and with transversal
subspace pairs, and all the Kahler-potential formulas, each by several
independent routes so every identity is machine-checkable.
"""

from .config import DEFAULT_MEMBERSHIP_TOL
from .errors import *  # noqa: F401,F403
from .grassmann import (
    CotangentPoint,
    OrbitPair,
    Subspace,
    characteristic_angles,
    complement_frame,
    projector_distance,
    psi1,
    psi1_section,
    psi3,
    psi3_section,
)
from .hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    act1,
    act3,
    apply_I,
    flat_potential_K,
    metric_g,
    omega,
    omega_C,
)
from .matcore import HermitianSpectrum, herm_eig
from .moment import (
    in_stable1,
    in_stable3,
    level_residual,
    moment,
    moment_pairing_check,
    on_level_set,
)
from .potentials import (
    K1_closed,
    K3_hat_angles,
    K3_hat_cotangent,
    K3_spectral,
    character_log_term,
    evaluate_routes,
    quotient_potential,
)
from .quotient import (
    ProjectionResult,
    SliceBasis,
    project1,
    project3,
    slice_basis,
)

__version__ = "0.1.0"
