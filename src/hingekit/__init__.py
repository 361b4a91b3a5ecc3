"""hingekit: body-and-hinge chains, Plucker line geometry, and kinematic
singularity certificates in arbitrary dimension."""

from . import errors
from .exterior import (
    ExteriorVector,
    RankCertificate,
    numeric_rank,
    rank_of_span,
    subset_index,
    subsets,
    top_pairing,
    wedge,
)
from .geometry import (
    AffineSubspace,
    Axis,
    Frame,
    Isometry,
    affine_intersection,
    apply,
    axis_plucker,
    common_perpendicular,
    compose,
    identity_isometry,
    incident,
    invert,
    lift_dir,
    lift_point,
    line_plucker,
    make_axis,
    make_frame,
    project_affine,
    rotate_about,
    rotation_generator,
)
from .chain import (
    Chain,
    Placement,
    cycle_axes_at,
    cycle_chain,
    endpoint_jacobian,
    fiber_tangent_basis,
    flex_cycle,
    flex_path,
    forward_kinematics,
    frame_columns,
    frame_map_jacobian,
    frame_residual,
    generic_fiber_dimension,
    numerical_jacobian,
)
from .analysis import (
    Platform,
    Verdict,
    WitnessLine,
    classical_scenario,
    cycle_mobility,
    cycle_mobility_exact,
    endpoint_singularity,
    frame_singularity,
    grid_incident_line,
    pairing_rows,
    platform_flexibility,
    stabilizer_pluckers,
)
from .linkage import (
    Linkage,
    ModuliPartition,
    check_linkage_invariance,
    cycle_to_linkage,
    linkage_at,
    moduli_invariants,
    simplex_orientations,
)

__version__ = "0.1.0"
