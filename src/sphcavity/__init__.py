"""Photon modes of a vacuum spherical cavity bounded by a perfect conductor.

Eigenfrequencies of the electric and magnetic multipole modes, normalized
mode fields carrying one photon of energy each, vector spherical harmonic
algebra, Wigner-matrix rotations, transition-scaling estimates, and the
catalog of bipartite entangled two-photon states.
"""

from .angular import (
    Direction,
    antipode,
    cartesian_to_spherical_components,
    cg_s1,
    helicity_apply,
    helicity_vsh,
    spherical_basis_vector,
    spherical_to_cartesian_components,
    unit_phi,
    unit_radial,
    unit_theta,
    vsh,
    vsh_coupled,
)
from .entangle import (
    BELL_TYPES,
    CatalogEntry,
    DegenerateStateError,
    Partition,
    QuantumLabel,
    TwoPhotonState,
    build_plane_wave_state,
    build_state,
    enumerate_catalog,
    enumerate_partitions,
    factorization_check,
    partition_by_id,
)
from .modes import (
    CavityConfig,
    FieldSample,
    ModeIndex,
    ModeSpec,
    RootFindingError,
    boundary_residual,
    electric_root_equation,
    fibonacci_directions,
    find_roots,
    hamiltonian_energy,
    magnetic_root_equation,
    mode_field,
    mode_spec,
    normalization_constant,
    spectrum,
    spherical_bessel_zeros,
)
from .rotations import (
    euler_to_rotation_matrix,
    helicity_polarization_vector,
    inverse_angles,
    m_index,
    plane_to_spherical_coefficient,
    rotate_cartesian,
    rotate_jm_coefficients,
    rotate_spherical,
    rotation_matrix_to_euler,
    spherical_wave_helicity,
    wigner_d_matrix,
    wigner_entry,
    wigner_small_d,
)
from .selection_rules import (
    TransitionQuery,
    photon_parity,
    scaling_ratio,
    transition_allowed,
)
from .specfun import (
    HarmonicConvention,
    bessel_j_halfint,
    legendre_plm,
    scalar_harmonic,
    small_argument_j,
    spherical_bessel_j,
)
from .verify import (
    DEFAULT_TOLERANCES,
    ELECTRIC_REFERENCE_TABLE,
    MAGNETIC_REFERENCE_TABLE,
    CheckReport,
    SphereQuadrature,
    radial_quadrature,
    run_suite,
    sphere_quadrature,
    suite_check_names,
    vsh_project,
)

__version__ = "0.1.0"
