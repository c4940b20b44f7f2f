"""Many-body acoustic scattering by small particles.

Reduced per-particle linear systems for soft, impedance, and hard scatterers,
their effective-medium limits on cube covers, empirical limit statistics,
inverse design of refraction coefficients, and a variable-index background
kernel.  See the README for the CLI and configuration schema.
"""

from .background import (BackgroundMedium, GreenEvaluator, born_series,
                         fixed_point_solve, free_space_green, green,
                         scattered_plane_wave, smallness_check)
from .core import (CloudSpec, Hard, Impedance, IncidentWave, Particle, Scene, Soft,
                   ValidationReport, generate_cloud, validate_scene)
from .errors import (ConfigError, DegenerateMesh, DensityInfeasible, DesignInfeasible,
                     GridTooLarge, MissingFunctional, NonConvergence,
                     PointInsideParticle, RegimeViolation, SmallscatError, SolveFailure,
                     UnsupportedScene)
from .fields import (AffineField, ConstantField, GaussianBumpField, GriddedField,
                     ScalarField, field_from_config)
from .grids import Box, GridCover
from .homogenize import (CollocationSolution, ConvergenceReport, DesignPrescription,
                         HardLimitSolution, LimitCoefficients, collocation_solve,
                         convergence_study, cover_field_from_solution, inverse_design,
                         limit_from_cloud, limit_from_prescription, limiting_coefficient,
                         neumann_limit_solve)
from .manybody import (EffectiveFieldSolution, FarField, eval_field, far_field,
                       fibonacci_directions, solve_hard, solve_impedance, solve_soft)
from .onebody import (PolarizabilityTensor, ShapeFunctionals, SurfaceDensity,
                      SurfaceMesh, amplitude_onebody, capacitance_zeroth, charge_hard,
                      charge_impedance, charge_soft, icosphere, load_obj, mesh_particle,
                      polarizability, save_obj, spheroid, static_double_layer_matrix)

__version__ = "0.1.0"
