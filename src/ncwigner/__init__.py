"""Wigner functions, marginals and star products for noncommutative
quantum mechanics, built from the representation theory of the triply
centrally extended translation group of R^4."""

from .core import (
    ComplexField2D,
    CoadjointPoint,
    DegenerateParams,
    DimensionalConstants,
    Domain4D,
    Grid1D,
    Grid2D,
    GridTooCoarse,
    GridTooLarge,
    GroupElement,
    InvalidLabel,
    NCCoords,
    NCParams,
    NCWignerError,
    OrbitLabel,
    RankOneOperator,
    Sector,
    SectorMismatch,
    WignerField,
    duflo_moore_constant,
    make_orbit_label,
    nc_domain,
    nc_params_from_label,
    nc_to_orbit,
    orbit_domain,
    orbit_to_nc,
    phase_space_domain,
    plancherel_density,
)
from .group import group_inverse, group_multiply, identity_element, uir_apply, uir_apply_ft
from .numerics import (
    cont_ft_2d,
    cont_ft_axis,
    default_state_grid,
    integrate_2d,
    momentum_representation,
    position_representation,
    shift_field,
)
from .oracles import (
    VerificationReport,
    direct_star_oracle,
    direct_wigner_oracle,
    expected_isometry_constant,
    gaussian_state,
    isometry_ratio,
    random_hermite_gaussian,
)
from ._suites import VerifyConfig, run_verification_suite
from .starprod import (
    MarginalField,
    marginal_momentum,
    marginal_position,
    star_B,
    star_general,
    star_general_phase_matrix,
    star_hbar,
    star_hbar_phase_matrix,
    star_vartheta,
)
from .wigner import (
    TAU0_TO_QM_PREFACTOR_RATIO,
    aligned_center_grid,
    aligned_frequency_grid,
    cross_wigner_standard,
    orbit_from_wave_coords,
    qm_limit_check,
    wigner_generic,
    wigner_nc,
    wigner_nc_params,
    wigner_nc_position,
    wigner_qm_orbit,
    wigner_tau0,
)

__version__ = "0.1.0"
