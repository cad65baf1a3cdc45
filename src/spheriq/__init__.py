"""Spherical conics and rotational quadric surfaces in the 3-sphere.

Subpackages map one-to-one onto the pipeline: `sphere` holds points, curves
and discrete differential invariants on S^2; `conics` the three conic
representations and their (mu, c) momentum coefficients; `momentum` the
closed-form K(z) families and reconstruction by quadratures; `surfaces` the
rotational surfaces of S^3 with fundamental forms and quadric constructors;
`weingarten` the cubic/sextic relations, inverse parameter maps and the
classifier; `projection` stereographic images, spiric/cyclide quartics and
mesh export; `cli` the command-line front end.
"""

__version__ = "0.1.0"

from .conics import (
    ConicClass,
    ConicKind,
    CylinderConic,
    FocalAxis,
    FocalConic,
    MomentumCoeffs,
    canonical_form,
    canonical_residual,
    classify,
    focal_params,
    horizontal_to_vertical,
    locus_residual,
    momentum_coeffs,
    param_horizontal,
    param_vertical,
    region_of,
    sample_loop,
    vertical_to_horizontal,
)
from .momentum import (
    ConstantMomentum,
    FeasibleInterval,
    LinearMomentum,
    MomentumProfile,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    arc_from_z,
    feasible_intervals,
    profile_from_json,
    profile_to_json,
    reconstruct,
    validate_reconstruction,
)
from .projection import (
    CyclideCoeffs,
    Mesh,
    SpiricCoeffs,
    cyclide_coeffs,
    cyclide_residual,
    euler_characteristic,
    mesh_from_surface,
    read_obj,
    spiric_coeffs,
    spiric_residual,
    stereo_s2,
    stereo_s3,
    write_obj,
)
from .sphere import (
    GeoCoord,
    SampledCurve,
    cartesian_to_geo,
    curvature_from_samples,
    geo_to_cartesian,
    geodesic_distance,
    great_circle_curve,
    momentum_from_samples,
    parallel_curve,
    read_curve_csv,
    resample_by_arclength,
    small_circle_curve,
    unit2,
    unit3,
    write_curve_csv,
)
from .surfaces import (
    PrincipalCurvatures,
    QuadricSpec,
    RotationalSurface,
    SurfaceFamily,
    fake_paraboloid_point,
    fundamental_forms,
    implicit_residual,
    implicit_residuals,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric,
    make_quadric_surface,
    principal_curvatures_analytic,
    quadric_spec_to_json,
    principal_curvatures_numeric,
    surface_point,
)
from .weingarten import (
    CubicSolveResult,
    NotCubic,
    SolveCase,
    classify_rotational_surface,
    cubic_residual,
    fit_mu,
    horizontal_squares,
    momentum_from_horizontal,
    momentum_from_vertical,
    sextic_residual,
    solve_cubic_weingarten,
    vertical_squares,
)
